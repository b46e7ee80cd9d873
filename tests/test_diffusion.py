import math

import numpy as np
import pytest
from scipy import integrate as sci
from scipy.special import gamma

from ergodiff.diffusion import (AssumptionParams, DiffusionModel,
                                bounded_drift, brownian, ou)
from ergodiff.errors import (DomainError, InconclusiveError,
                             NotPositiveRecurrentError)
from ergodiff.gridfn import TAIL_BAND


def test_scale_density_trivial():
    bm = brownian()
    assert bm.scale_density(3.7) == pytest.approx(1.0, abs=1e-12)
    assert bm.scale_density(0.0) == 1.0
    m = ou(1.0)
    assert m.scale_density(0.0) == 1.0


def test_scale_density_ou_closed_form():
    # s(x) = exp(theta x^2) for beta = -theta x, sigma = 1
    m = ou(1.0)
    assert m.scale_density(1.0) == pytest.approx(math.e, rel=1e-10)
    m2 = ou(2.0)
    assert m2.scale_density(1.5) == pytest.approx(math.exp(2 * 1.5 ** 2),
                                                  rel=1e-9)


def test_scale_function():
    bm = brownian()
    assert bm.scale_function(2.0) == pytest.approx(2.0, abs=1e-10)
    assert bm.scale_function(-2.0) == pytest.approx(-2.0, abs=1e-10)
    assert bm.scale_function(0.0) == 0.0
    oracle, _ = sci.quad(lambda t: math.exp(t * t), 0, 1, epsabs=1e-13)
    assert ou(1.0).scale_function(1.0) == pytest.approx(oracle, rel=1e-9)


def test_scale_function_strictly_increasing():
    m = ou(1.0)
    xs = np.linspace(-3, 3, 41)
    assert np.all(np.diff(m.scale_function(xs)) > 0)
    assert np.all(m.scale_density(xs) > 0)


def test_driftless_scale_and_speed_exact_on_grid():
    bm = brownian()
    xs = np.linspace(-4.0, 4.0, 65)
    assert np.max(np.abs(bm.scale_function(xs) - xs)) < 1e-10
    assert np.max(np.abs(bm.speed_density(xs) - 2.0)) < 1e-10


def test_speed_density():
    bm = brownian()
    assert bm.speed_density(5.0) == pytest.approx(2.0, abs=1e-12)
    assert brownian(2.0).speed_density(0.0) == pytest.approx(0.5, abs=1e-12)
    assert ou(1.0).speed_density(1.0) == pytest.approx(2 * math.exp(-1),
                                                       rel=1e-10)


def test_sigma_zero_is_domain_error():
    bad = DiffusionModel(lambda x: np.zeros_like(x),
                         lambda x: np.zeros_like(x), label="degenerate")
    with pytest.raises(DomainError):
        bad.speed_density(0.0)


def test_classification_trichotomy():
    assert brownian().classify_recurrence().classification == "null_recurrent"
    rep = ou(1.0).classify_recurrence()
    assert rep.classification == "positive_recurrent"
    assert rep.speed_mass == pytest.approx(2 * math.sqrt(math.pi), rel=1e-8)
    outward = DiffusionModel(lambda x: x, lambda x: np.ones_like(x),
                             label="outward")
    assert outward.classify_recurrence().classification == "transient"


def test_bounded_drift_recurrence_sweep():
    # s ~ |x|^(2 theta) and m = 2 (1+x^2)^-theta: positive recurrent iff
    # theta > 1/2, with mass 2 sqrt(pi) Gamma(theta-1/2)/Gamma(theta); the
    # m tails have power -2 theta, inconclusive within the band around -1
    for theta in np.round(np.arange(0.3, 3.0001, 0.05), 2):
        model = bounded_drift(theta)
        if abs(1.0 - 2.0 * theta) < TAIL_BAND:
            with pytest.raises(InconclusiveError):
                model.classify_recurrence()
            continue
        rep = model.classify_recurrence()
        assert rep.tail_powers == pytest.approx(
            [2 * theta, 2 * theta, -2 * theta, -2 * theta], abs=1e-9), theta
        if theta > 0.5:
            mass = 2 * math.sqrt(math.pi) * gamma(theta - 0.5) / gamma(theta)
            assert rep.classification == "positive_recurrent", theta
            assert rep.speed_mass == pytest.approx(mass, rel=1e-10), theta
        else:
            assert rep.classification == "null_recurrent", theta
            assert rep.speed_mass == math.inf


def test_superexponential_drift_classifies_without_overflow():
    # beta = -sinh(x): log s = 2 (cosh x - 1) passes +700 near x = 7; sinh
    # overflows long before x = 1e12, so the tails end where the coefficients
    # can no longer be evaluated, with log s still out of range
    model = DiffusionModel(lambda x: -np.sinh(x), lambda x: np.ones_like(x))
    with np.errstate(all="raise"):
        rep = model.classify_recurrence()
    mass, _ = sci.quad(lambda y: 4 * math.exp(-2 * (math.cosh(y) - 1)),
                       0.0, 50.0, epsabs=1e-14)
    assert rep.classification == "positive_recurrent"
    assert rep.tail_powers == (math.inf, math.inf, -math.inf, -math.inf)
    assert rep.speed_mass == pytest.approx(mass, rel=1e-12)


def test_classification_anchor_invariant():
    # the scale anchor is a convention; the verdict must not depend on it
    for factory in (brownian, ou):
        a0 = factory(anchor=0.0).classify_recurrence().classification
        a1 = factory(anchor=1.7).classify_recurrence().classification
        assert a0 == a1
    # anchored at 30, OU's log s = x^2 - 900 dips below -700 on the way left
    # and rises again, and its mass 2 sqrt(pi) e^900 exceeds the float range
    for anchor in (26.0, 27.0, 30.0):
        try:
            rep = ou(1.0, anchor=anchor).classify_recurrence()
        except InconclusiveError:
            continue
        assert rep.classification == "positive_recurrent", anchor
        assert rep.speed_mass == pytest.approx(
            2 * math.sqrt(math.pi) * math.exp(anchor ** 2), rel=1e-8), anchor


def test_invariant_density_gaussian():
    m = ou(1.0)
    # mu is N(0, 1/2): density 1/sqrt(pi) at 0
    assert m.invariant_density(0.0) == pytest.approx(1 / math.sqrt(math.pi),
                                                     rel=1e-8)
    m2 = ou(2.0)
    assert m2.invariant_density(0.0) == pytest.approx(math.sqrt(2 / math.pi),
                                                      rel=1e-8)


def test_invariant_density_normalizes():
    from ergodiff.quadrature import integrate_finite
    for theta in (1.0, 2.0):
        m = ou(theta)
        res = integrate_finite(lambda x: m.invariant_density(x), -8.0, 8.0)
        assert abs(res.value - 1.0) < 1e-6


def test_invariant_density_needs_positive_recurrence():
    with pytest.raises(NotPositiveRecurrentError):
        brownian().invariant_density(0.0)


def _probe(m0, lim=200.0):
    half = np.geomspace(m0 * (1 + 1e-9), lim, 301)
    return np.concatenate([-half[::-1], half])


def test_assumptions_bounded_drift_lower_pass():
    model = bounded_drift(1.0)
    params = AssumptionParams(m0=10.0, sigma0=1.0, gamma=0.0, r=0.6)
    rep = model.check_assumptions(params, _probe(10.0))
    assert rep.lower_ok is True


def test_assumptions_ou_upper_fails():
    model = ou(1.0)
    params = AssumptionParams(m0=1.0, sigma1=1.0, delta=0.0, r_cap=5.0)
    rep = model.check_assumptions(params, _probe(1.0))
    assert rep.upper_ok is False  # -x beta / sigma^2 = x^2 is unbounded


def test_assumptions_driftless_lower_fails():
    params = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=0.1)
    rep = brownian().check_assumptions(params, _probe(1.0))
    assert rep.lower_ok is False  # ratio is identically 0 < r


def test_assumptions_bracket_reported():
    params = AssumptionParams(m0=10.0, sigma0=1.0, gamma=0.0, r=0.6,
                              sigma1=1.0, delta=0.0, r_cap=1.5)
    rep = bounded_drift(1.0).check_assumptions(params, _probe(10.0))
    assert rep.p_star_bracket == pytest.approx((0.2, 2.0))


def test_assumption_params_validation():
    with pytest.raises(DomainError):
        AssumptionParams(m0=1.0, sigma0=1.0, gamma=1.5, r=1.0)
    with pytest.raises(DomainError):
        AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=None)
    with pytest.raises(DomainError):
        AssumptionParams(m0=-1.0)


def test_bounded_drift_speed_density_closed_form():
    # s(x) = (1+x^2)^theta, m = 2 (1+x^2)^-theta
    model = bounded_drift(0.75)
    xs = np.array([0.0, 1.0, 5.0, 20.0])
    assert np.allclose(model.speed_density(xs), 2 * (1 + xs ** 2) ** -0.75,
                       rtol=1e-9)
