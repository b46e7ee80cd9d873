import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ergodiff.errors import DomainError, NonConvergenceError
from ergodiff.gridfn import _OFFSETS, Antiderivative, cumulative_panels
from ergodiff.quadrature import _gap_panels, _panel_integrals


def test_cumulative_panels_polynomial():
    xs = np.linspace(0.0, 2.0, 33)
    out = cumulative_panels(lambda t: 3 * t ** 2, xs)
    assert np.max(np.abs(out - xs ** 3)) < 1e-10
    assert out[0] == 0.0


def test_antiderivative_matches_exact():
    F = Antiderivative(lambda t: np.cos(t), anchor=0.0)
    xs = np.array([-2.0, -0.5, 0.3, 1.7, 4.0])
    assert np.max(np.abs(F.values(xs) - np.sin(xs))) < 1e-10
    # repeated and interleaved queries agree with the first batch
    ys = np.array([-1.0, 0.3, 2.5])
    assert np.max(np.abs(F.values(ys) - np.sin(ys))) < 1e-10
    assert abs(F(0.3) - np.sin(0.3)) < 1e-12


def test_antiderivative_nonzero_anchor():
    F = Antiderivative(lambda t: 2 * t, anchor=1.0)
    assert abs(F(3.0) - (9.0 - 1.0)) < 1e-10
    assert abs(F(0.0) - (0.0 - 1.0)) < 1e-10
    assert F(1.0) == 0.0


def test_antiderivative_independent_of_batch_and_order():
    xs = np.array([-7.3, -2.0, -0.0625, 0.01, 0.3, 1.7, 15.99, 16.0, 40.0])
    batch = Antiderivative(np.cos, anchor=0.5).values(xs)
    one_by_one = Antiderivative(np.cos, anchor=0.5)
    assert np.array_equal(batch, [one_by_one(x) for x in xs[::-1]][::-1])
    assert np.max(np.abs(batch - (np.sin(xs) - np.sin(0.5)))) < 1e-10


def test_antiderivative_evaluates_only_up_to_the_query():
    seen = []

    def g(t):
        seen.append(np.max(np.abs(t)))
        return np.exp(t * t)  # overflows beyond |t| ~ 26.6

    F = Antiderivative(g)
    assert np.isfinite(F(26.5)) and np.isfinite(F(-26.5))
    assert max(seen) <= 26.5


@pytest.mark.parametrize("anchor", [0.0, 0.5, 30.0])
def test_antiderivatives_share_one_read_only_edge_pair(anchor):
    F = Antiderivative(np.cos, anchor=anchor)
    G = Antiderivative(np.sin, anchor=anchor)
    assert F._edges[1] is G._edges[1] and F._edges[-1] is G._edges[-1]
    for side, want in ((1, anchor + _OFFSETS), (-1, anchor - _OFFSETS)):
        edges = F._edges[side]
        assert edges.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            edges[1] = 0.0
    assert Antiderivative(np.cos, anchor=anchor + 1.0)._edges[1] \
        is not F._edges[1]


def test_antiderivative_rejects_non_finite_points():
    F = Antiderivative(np.cos)
    with pytest.raises(DomainError):
        F.values(np.array([0.0, np.inf]))
    with pytest.raises(DomainError):
        F(np.nan)


def _recursive_reference(lo, hi, tol):
    # split while the panel fails its share of the tolerance and is wider
    # than floating-point resolution (sqrt stays far inside the budget)
    k, e = _gap_panels(np.sqrt, np.array([lo]), np.array([hi]))
    if e[0] <= tol or hi - lo <= 1e-15 * (abs(lo) + abs(hi) + 1.0):
        return k[0], e[0]
    mid = 0.5 * (lo + hi)
    (lv, le), (rv, re) = (_recursive_reference(lo, mid, 0.5 * tol),
                          _recursive_reference(mid, hi, 0.5 * tol))
    return lv + rv, le + re


def test_level_bisection_matches_recursive_bisection():
    # sqrt has a singular derivative at 0, so the first gap bisects deeply
    lo, hi = np.array([0.0, 0.5, 1.0, 3.0]), np.array([0.5, 1.0, 3.0, 40.0])
    got, err, _ = _panel_integrals(np.sqrt, lo, hi, 1e-12, 1e-15)
    k, _ = _gap_panels(np.sqrt, lo, hi)
    tol = np.maximum(1e-15, 1e-12 * np.abs(k))
    want = [_recursive_reference(a, b, t) for a, b, t in zip(lo, hi, tol)]
    assert np.array_equal(got, [v for v, _ in want])
    assert np.array_equal(err, [e for _, e in want])
    assert np.all(err <= tol)
    assert np.allclose(got, (hi ** 1.5 - lo ** 1.5) / 1.5, rtol=1e-11)


def test_tolerance_missed_raises():
    # x^-1/2 is integrable, but no bisection meets 1e-10 at its pole; the
    # integral must fail rather than return 1.99999 as 2
    with np.errstate(divide="ignore"):
        with pytest.raises(NonConvergenceError):
            cumulative_panels(lambda t: t ** -0.5, np.array([0.0, 1.0]))
        with pytest.raises(NonConvergenceError):
            Antiderivative(lambda t: np.abs(t) ** -0.5)(1.0)
        with pytest.raises(NonConvergenceError):
            Antiderivative(lambda t: np.abs(t) ** -0.5)(-1.0)


def test_antiderivative_shared_across_threads():
    probes = [np.linspace(-30.0, 30.0, 61) + 0.01 * i for i in range(8)]
    want = [Antiderivative(np.cos, anchor=0.25).values(p) for p in probes]
    F = Antiderivative(np.cos, anchor=0.25)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(F.values, p) for p in probes]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
