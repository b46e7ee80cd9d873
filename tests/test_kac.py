import math
import traceback

import numpy as np
import pytest
from scipy import integrate as sci
from scipy.interpolate import PchipInterpolator

from ergodiff import kac
from ergodiff.diffusion import DiffusionModel, bounded_drift, brownian, ou
from ergodiff.errors import (DomainError, InterpolationError,
                             NotPositiveRecurrentError)
from ergodiff.kac import (exit_moment_table, first_block_sup,
                          hitting_moment_table, mean_exit_time,
                          simultaneity_check)
from ergodiff.simulator import SimConfig, simulate_paths


@pytest.fixture(scope="module")
def bm():
    return brownian()


@pytest.fixture(scope="module")
def ou1():
    return ou(1.0)


# -- two-sided exit moments ---------------------------------------------------

def test_mean_exit_closed_form(bm):
    assert mean_exit_time(bm, 0.0, 1.0, 0.5) == pytest.approx(0.25, abs=1e-9)
    assert mean_exit_time(bm, 0.0, 1.0, 0.0) == 0.0
    assert mean_exit_time(bm, 0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_exit_table_closed_form_grid(bm):
    xs = np.linspace(0.0, 1.0, 33)
    tbl = exit_moment_table(bm, 0.0, 1.0, xs, 2)
    assert np.max(np.abs(tbl.order(1) - xs * (1 - xs))) < 1e-6
    assert np.allclose(tbl.order(0), 1.0)


def test_exit_table_second_moment_oracle(bm):
    # oracle: 2 * int G(0,1,1/2,xi) * xi(1-xi) * 2 dxi = 5/48
    def g(x, xi):
        return (1 - x) * xi if xi <= x else x * (1 - xi)

    oracle, _ = sci.quad(lambda xi: 2 * g(0.5, xi) * xi * (1 - xi) * 2.0,
                         0.0, 1.0, points=[0.5], epsabs=1e-13)
    assert oracle == pytest.approx(5.0 / 48.0, abs=1e-12)
    xs = np.array([0.25, 0.5, 0.75])
    tbl = exit_moment_table(bm, 0.0, 1.0, xs, 2)
    assert tbl.order(2)[1] == pytest.approx(oracle, rel=1e-7)


def test_exit_boundary_zeros(ou1):
    xs = np.array([-1.0, -0.25, 0.5, 1.0])
    tbl = exit_moment_table(ou1, -1.0, 1.0, xs, 2)
    for k in (1, 2):
        assert abs(tbl.order(k)[0]) < 1e-12
        assert abs(tbl.order(k)[-1]) < 1e-12


def test_exit_table_rejects_outside_grid(bm):
    with pytest.raises(DomainError):
        exit_moment_table(bm, 0.0, 1.0, np.array([1.5]), 1)


# -- first-block constant c_f of the L1 bound -------------------------------

def _indicator(lo, hi):
    return lambda x: ((np.asarray(x) >= lo) & (np.asarray(x) <= hi)) * 1.0


@pytest.mark.parametrize("lo, hi, want", [(-0.5, 0.5, 2.0), (0.0, 2.0, 6.0)])
def test_first_block_sup_brownian_closed_form(bm, lo, hi, want):
    # S(y) = y and m = 2, with a = -1/2, b = 1/2:
    # c_f = max(2 int_lo^b (b - y), 2 int_b^hi (y - b))
    #       + 2 int_lo^hi (min(y, b) - a) dy
    got = first_block_sup(bm, -0.5, 0.5, _indicator(lo, hi), (lo, hi))
    assert got == pytest.approx(want, abs=1e-9)


def test_first_block_sup_zero_f_and_levels(bm):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    assert first_block_sup(bm, -0.5, 0.5, zero, (-1.0, 1.0)) == 0.0
    for a, b in ((0.5, 0.5), (0.5, -0.5)):
        with pytest.raises(DomainError):
            first_block_sup(bm, a, b, _indicator(-0.5, 0.5), (-0.5, 0.5))


FIRST_BLOCK_MC = {
    # model: (model, support of the indicator f, start: the support end
    # where the sup sits)
    "ou(1)": (lambda: ou(1.0), (0.0, 2.0), 2.0),
    "bounded_drift(2.5)": (lambda: bounded_drift(2.5), (-0.5, 0.5), -0.5),
}


@pytest.mark.parametrize("name", list(FIRST_BLOCK_MC))
def test_first_block_sup_matches_monte_carlo(name):
    build, (lo, hi), x0 = FIRST_BLOCK_MC[name]
    model, f = build(), _indicator(lo, hi)
    cfg = SimConfig(step=2e-3, horizon=40.0, replicas=2000, seed=11,
                    a=-0.5, b=0.5, initial=x0, crossing="bridge")
    batch = simulate_paths(model, cfg, f, max_cycles=1)
    fb = np.array([s.first_block_abs for s in batch.samples])
    assert np.all(np.isfinite(fb))      # every first block completed
    se = float(np.std(fb, ddof=1)) / math.sqrt(fb.size)
    exact = first_block_sup(model, cfg.a, cfg.b, f, (lo, hi))
    assert abs(float(np.mean(fb)) - exact) <= 4.0 * se


# -- one-sided hitting moments ------------------------------------------------

def test_hitting_moments_ou_oracle(ou1):
    # frozen oracle values computed by direct quadrature of the one-sided
    # kernel formula with scipy (S via quad of exp(t^2), m = 2 exp(-x^2))
    xs = np.array([0.5, 1.0, 1.5, 2.0])
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 2)
    expect1 = np.array([0.693664, 1.147237, 1.475199, 1.728784])
    expect2 = np.array([1.198629, 2.287115, 3.256715, 4.124018])
    assert np.allclose(tbl.order(1), expect1, rtol=2e-5)
    assert np.allclose(tbl.order(2), expect2, rtol=2e-4)
    assert np.allclose(tbl.order(0), 1.0)


def test_hitting_from_below_mirror_symmetry(ou1):
    # OU is symmetric, so E_{-x} T_0 (from below) = E_x T_0 (from above)
    xs_above = np.array([0.5, 1.0])
    above = hitting_moment_table(ou1, 0.0, "from_above", xs_above, 1)
    below = hitting_moment_table(ou1, 0.0, "from_below", -xs_above, 1)
    assert np.allclose(above.order(1), below.order(1), rtol=1e-6)


def test_hitting_monotone_in_distance(ou1):
    xs = np.array([0.25, 0.5, 1.0, 2.0, 3.0])
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 1)
    assert np.all(np.diff(tbl.order(1)) > 0)


def test_exit_dominated_by_one_sided_hit(ou1):
    # exit from (a,b) happens no later than the one-sided hit of b
    xs = np.array([-0.5, 0.0, 0.5])
    exit_tbl = exit_moment_table(ou1, -1.0, 1.0, xs, 2)
    hit_tbl = hitting_moment_table(ou1, 1.0, "from_below", xs, 2)
    for k in (1, 2):
        assert np.all(exit_tbl.order(k) <= hit_tbl.order(k) + 1e-9)


def test_kac_consistency_derivative(ou1):
    # d/dx of the order-1 curve equals s(x) * int_x^inf m (checked by
    # central differences against independent quadrature)
    x0 = 1.0
    h = 1e-3
    xs = np.array([x0 - h, x0, x0 + h])
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 1,
                               rel_tol=1e-9)
    fd = (tbl.order(1)[2] - tbl.order(1)[0]) / (2 * h)
    tail, _ = sci.quad(lambda t: 2 * math.exp(-t * t), x0, 12.0,
                       epsabs=1e-13)
    analytic = ou1.scale_density(x0) * tail
    assert fd == pytest.approx(analytic, rel=1e-4)


def test_order_zero_table(ou1):
    xs = np.array([0.5, 1.0, 1.5])
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 0)
    assert tbl.values.shape == (1, 3)
    assert np.allclose(tbl.order(0), 1.0)


def test_infinite_order_detection_and_propagation():
    # drift-to-noise envelope with r_cap = 1, delta = 0: order-2 tail
    # integral diverges, so order 2 and above are +inf uniformly
    model = bounded_drift(0.75)
    xs = np.array([2.0, 3.0, 5.0])
    tbl = hitting_moment_table(model, 1.0, "from_above", xs, 3)
    assert np.all(np.isfinite(tbl.order(1)))
    assert np.all(np.isinf(tbl.order(2)))
    assert np.all(np.isinf(tbl.order(3)))  # propagated without quadrature
    rep = simultaneity_check(tbl)
    assert rep.ok


def test_simultaneity_trivial_and_finite(ou1):
    xs = np.array([0.5, 1.0, 1.5])
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 3)
    rep = simultaneity_check(tbl)
    assert rep.ok
    assert rep.per_order[0] == (0, 3, 0, True)


def test_simultaneity_needs_three_points(ou1):
    xs = np.array([0.5, 1.0])
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 1)
    with pytest.raises(DomainError):
        simultaneity_check(tbl)


def test_hitting_requires_positive_recurrence():
    with pytest.raises(NotPositiveRecurrentError):
        hitting_moment_table(brownian(), 0.0, "from_above",
                             np.array([1.0]), 1)


def test_hitting_grid_side_validation(ou1):
    with pytest.raises(DomainError):
        hitting_moment_table(ou1, 0.0, "from_above", np.array([-1.0]), 1)
    with pytest.raises(DomainError):
        hitting_moment_table(ou1, 0.0, "from_below", np.array([1.0]), 1)


def test_tail_fit_matches_growth_exponent():
    # under the lower coefficient envelope the order-k curve grows like
    # x^(2k); the fitted tail exponent must land near 2 for order 1
    model = bounded_drift(1.0)
    xs = np.array([30.0, 60.0, 100.0])
    tbl = hitting_moment_table(model, 12.0, "from_above", xs, 2)
    fits = {order: kappa for order, c, kappa in tbl.tail_fits}
    assert fits[1] == pytest.approx(2.0, abs=0.3)


def test_hitting_bounded_drift_06_matches_betainc_oracle():
    # m = 2(1+y^2)^-0.6 leaves about a fifth of the tail mass beyond any
    # probe of 1e6; E_x T_1 = 2 int_1^x (1+z^2)^0.6 B_z dz with
    # B_z = int_z^inf (1+y^2)^-0.6 = betainc(0.1, 0.5, 0, 1/(1+z^2)) / 2
    # (mpmath, 30 digits)
    tbl = hitting_moment_table(bounded_drift(0.6), 1.0, "from_above",
                               [2.0, 3.0, 5.0], 1)
    oracle = [18.399050188940141, 45.527566872561364, 128.26932167293524]
    assert tbl.order(1) == pytest.approx(oracle, rel=1e-8)


def test_hitting_bounded_drift_1_closed_form():
    # E_x T_12 = 2 [F(x) - F(12)], F(z) = (z + z^3/3) arccot z + z^2/6
    # + ln(1+z^2)/3
    def F(z):
        return (z + z ** 3 / 3) * math.atan(1 / z) + z * z / 6 \
            + math.log1p(z * z) / 3

    xs = [30.0, 60.0, 100.0]
    tbl = hitting_moment_table(bounded_drift(1.0), 12.0, "from_above", xs, 1)
    exact = [2 * (F(x) - F(12.0)) for x in xs]
    assert tbl.order(1) == pytest.approx(exact, rel=1e-12)


def test_csv_roundtrip(tmp_path, ou1):
    xs = np.array([0.5, 1.0, 1.5])
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 1)
    path = tmp_path / "table.csv"
    tbl.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0].startswith("#") and "from_above" in text[0]
    assert text[1] == "x,order,value"
    assert len(text) == 2 + 2 * 3
    assert text[6] == f"1.0,1,{float(tbl.order(1)[1])!r}"
    # a caller's header line replaces the default one; the rows stay
    tbl.to_csv(path, header="# config=0123456789ab version=x")
    assert path.read_text().splitlines() == \
        ["# config=0123456789ab version=x"] + text[1:]


def test_scale_and_speed_see_each_node_array_once(monkeypatch):
    # within one table, S and m are evaluated once per distinct input array
    # (the mirror model of from_below is its own instance, so calls are
    # keyed by the instance they run on)
    seen = []
    for name in ("scale_function", "speed_density"):
        def wrapped(self, x, _orig=getattr(DiffusionModel, name), _name=name):
            xs = np.asarray(x, dtype=float)
            seen.append((id(self), _name, xs.shape, xs.tobytes()))
            return _orig(self, x)
        monkeypatch.setattr(DiffusionModel, name, wrapped)
    model = ou(1.0)
    builds = [
        lambda: hitting_moment_table(model, 0.0, "from_above",
                                     [0.5, 1.0, 1.5, 2.0], 2),
        lambda: hitting_moment_table(model, 1.0, "from_below",
                                     [-0.5, 0.0, 0.5], 2),
        lambda: exit_moment_table(model, -1.0, 1.0,
                                  np.linspace(-0.9, 0.9, 7), 3),
    ]
    for build in builds:
        seen.clear()
        build()
        assert len(seen) > 0
        assert len(set(seen)) == len(seen)


def test_memo_hits_are_read_only():
    calls = []
    twice = kac._memo(lambda xs: calls.append(xs.size) or 2.0 * xs)
    first = twice(np.array([1.0, 2.0]))
    again = twice(np.array([1.0, 2.0]))
    assert again is first and calls == [2]
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert twice(np.array([[1.0, 2.0]])).shape == (1, 2) and calls == [2, 2]


def test_failed_table_leaves_its_memo_empty(monkeypatch, ou1):
    # a caller may keep the error, and with it the traceback's frames
    monkeypatch.setattr(kac, "_MAX_REFINEMENTS", 0)
    with pytest.raises(InterpolationError) as err:
        hitting_moment_table(ou1, 0.0, "from_above", [0.5, 1.0], 1)
    frame = next(f for f, _ in traceback.walk_tb(err.value.__traceback__)
                 if f.f_code.co_name == "_settle")
    assert [frame.f_locals[k].clear.__self__ for k in "Sm"] == [{}, {}]


def _pchip_data_200():
    # non-uniform grid; a rising run, a flat run, a falling run, then sign
    # changes with exact zeros among them
    rng = np.random.default_rng(5)
    grid = np.cumsum(rng.uniform(0.01, 0.3, 200)) - 3.0
    vals = np.concatenate([
        np.cumsum(rng.exponential(size=50)),
        np.full(30, 2.5),
        2.5 - np.cumsum(rng.exponential(size=50)),
        np.round(np.sin(np.arange(70.0)) * rng.uniform(0, 3, 70), 1)])
    return grid, vals


_PCHIP_CASES = {
    "two_points": (np.array([-0.3, 0.4]), np.array([1.0, 2.5])),
    # left end: the three-point estimate has the wrong sign, so d = 0
    "edge_zero": (np.array([0.0, 0.6, 1.7]), np.array([0.0, 0.1, 5.0])),
    # left end: the slopes change sign and the estimate overshoots 3 m0
    "edge_three_m0": (np.array([0.0, 1.1, 1.9]), np.array([0.0, 1.0, -9.0])),
    "mixed_200": _pchip_data_200(),
}


def test_pchip_cases_take_both_edge_fixes():
    for name, want in (("edge_zero", 0.0), ("edge_three_m0", 3.0)):
        grid, vals = _PCHIP_CASES[name]
        h, m = np.diff(grid), np.diff(vals) / np.diff(grid)
        assert kac._edge_slope(h[0], h[1], m[0], m[1]) == want * m[0]
        assert ((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1]) \
            != want * m[0]


@pytest.mark.parametrize("name", list(_PCHIP_CASES))
def test_pchip_matches_scipy_bit_for_bit(name):
    grid, vals = _PCHIP_CASES[name]
    span = grid[-1] - grid[0]
    xs = np.concatenate([grid, [grid[-1]], 0.5 * (grid[:-1] + grid[1:]),
                         [grid[0] - 0.5 * span, grid[0] - 1e-9,
                          grid[-1] + 1e-9, grid[-1] + 0.5 * span, np.nan]])
    want = PchipInterpolator(grid, vals, extrapolate=True)(xs)
    got = kac._pchip(grid, vals)(xs)
    assert np.array_equal(got, want, equal_nan=True)


# Tables recorded with the separate exit and hitting recursions that the
# shared one replaced (x86-64, NumPy 2.4.6, SciPy 1.17.1).  Both build the
# same floating-point operations, so each table must come back bit for bit:
# (table, values, tail_fits, model_hash).  The two bounded_drift tables were
# re-recorded when the ray tail moved to gridfn.tail; each moved toward its
# exact value (bounded_drift(0.75) at x = 2: 7.5052103772961194).
_INF = math.inf
_PINNED = {
    "ou_from_above": (
        lambda: hitting_moment_table(ou(1.0), 0.0, "from_above",
                                     [0.5, 1.0, 1.5, 2.0], 2),
        [[1.0, 1.0, 1.0, 1.0],
         [0.6936644281279927, 1.1472371061785112, 1.475198802115958,
          1.728784287988541],
         [1.1986292174046465, 2.2871153468249465, 3.256714579765398,
          4.124017880436643]],
        ((0, 1.0, 0.0), (1, 1.3234967378236004, 0.39749064489898916)),
        "fe717893c257"),
    "ou_from_below": (
        lambda: hitting_moment_table(ou(1.0), 1.0, "from_below",
                                     [-0.5, 0.0, 0.5], 2),
        [[1.0, 1.0, 1.0],
         [4.731392761083179, 4.0377283329551865, 2.79946377807497],
         [40.673896982413424, 33.87361084641477, 22.721550508911953]],
        ((0, 1.0, 0.0), (1, 3.378560516944399, 0.3300785576448281)),
        "fe717893c257"),
    "bounded_drift_0.75": (
        lambda: hitting_moment_table(bounded_drift(0.75), 1.0, "from_above",
                                     [2.0, 3.0, 5.0], 3),
        [[1.0, 1.0, 1.0],
         [7.505210377296146, 18.444071586008633, 51.65172153215015],
         [_INF, _INF, _INF],
         [_INF, _INF, _INF]],
        ((0, 1.0, 0.0), (1, 2.116551362365941, 1.9834424045403047)),
        "c7ee6cbe8020"),
    "bounded_drift_1": (
        lambda: hitting_moment_table(bounded_drift(1.0), 12.0, "from_above",
                                     [30.0, 60.0, 100.0], 2),
        [[1.0, 1.0, 1.0],
         [757.2209445371275, 3458.1450296998028, 9858.826106829676],
         [_INF, _INF, _INF]],
        ((0, 1.0, 0.0), (1, 0.9348218674847906, 2.0111814233846803)),
        "114b4b76d94b"),
    "ou_exit": (
        lambda: exit_moment_table(ou(1.0), -1.0, 1.0,
                                  [-1.0, -0.25, 0.5, 1.0], 2),
        [[1.0, 1.0, 1.0, 1.0],
         [0.0, 1.3814215347623053, 1.1729455500122272, 0.0],
         [0.0, 3.4843198087453264, 2.9034468904122495, 0.0]],
        (),
        "fe717893c257"),
    "brownian_exit": (
        lambda: exit_moment_table(brownian(), 0.0, 1.0, [0.25, 0.5, 0.75], 2),
        [[1.0, 1.0, 1.0],
         [0.1874999999999996, 0.2499999999999991, 0.1874999999999992],
         [0.07421874997860202, 0.10416666649824119, 0.07421874997860195]],
        (),
        "2065ea4d7a55"),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_pinned_moment_tables(name):
    build, values, fits, model_hash = _PINNED[name]
    tbl = build()
    assert tbl.values.tolist() == values
    assert tbl.tail_fits == fits
    assert tbl.model_hash == model_hash
