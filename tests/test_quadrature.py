import math

import numpy as np
import pytest
from scipy import integrate as sci

from ergodiff.errors import DomainError, EvaluationError, NonConvergenceError
from ergodiff.gridfn import tail
from ergodiff.quadrature import (QuadratureConfig, integrate_finite,
                                 integrate_semi_infinite)

TOL = (1e-10, 1e-13)  # rel_tol, abs_tol of the ray integrals


def test_polynomial():
    res = integrate_finite(lambda x: x ** 2, 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 1.0 / 3.0) <= max(res.error_estimate, 1e-12)


def test_gaussian_exponential_series():
    # oracle: scipy quad, independent of the engine under test
    oracle, _ = sci.quad(lambda t: math.exp(t * t), 0.0, 1.0, epsabs=1e-13)
    res = integrate_finite(lambda x: np.exp(x ** 2), 0.0, 1.0)
    assert abs(res.value - oracle) < 1e-9
    assert abs(res.value - 1.46265174590718) < 1e-9


def test_empty_interval():
    res = integrate_finite(lambda x: np.ones_like(x), 2.0, 2.0)
    assert res.value == 0.0 and res.converged


def test_endpoint_order_rejected():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 1.0, 0.0)


def test_scalar_fallback():
    res = integrate_finite(math.sin, 0.0, math.pi)
    assert abs(res.value - 2.0) < 1e-10


def test_non_finite_integrand():
    with np.errstate(divide="ignore"), pytest.raises(EvaluationError):
        integrate_finite(lambda x: 1.0 / (x - 0.5), 0.5, 1.0)


def test_budget_exhaustion():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    with pytest.raises(NonConvergenceError):
        integrate_finite(lambda x: np.exp(np.sin(17 * x) * 5), 0.0, 10.0, cfg)


# Rays go through gridfn.tail, which takes the log of the integrand.

def test_exponential_ray():
    res = tail(lambda x: -x, 0.0, 1, 1.0, *TOL)
    assert abs(res.value - 1.0) < 1e-9


def test_gaussian_two_rays():
    log_g = lambda x: math.log(2.0) - x ** 2
    total = (tail(log_g, 0.0, 1, 1.0, *TOL).value
             + tail(log_g, 0.0, -1, 1.0, *TOL).value)
    assert abs(total - 2 * math.sqrt(math.pi)) < 1e-8


def test_harmonic_tail_inconclusive():
    # 1/x has endpoint power exactly -1: neither integrable nor not, to a
    # test that reads the power
    res = tail(lambda x: -np.log(x), 1.0, 1, 1.0, *TOL)
    assert math.isnan(res.value)
    assert res.power == pytest.approx(-1.0, abs=1e-9)


def test_constant_divergent_by_growth():
    res = tail(lambda x: np.full_like(x, math.log(2.0)), 0.0, 1, 1.0, *TOL)
    assert res.value == math.inf
    assert res.power == 0.0


def test_fast_blowup_divergent_by_cap():
    # log g ends above +700: the integral is +inf
    res = tail(lambda x: x, 0.0, 1, 1.0, *TOL)
    assert res.value == math.inf
    assert res.power == math.inf


def test_left_ray_matches_reflection():
    res = tail(lambda x: x, 0.0, -1, 1.0, *TOL)
    assert res.power == -math.inf
    assert abs(res.value - 1.0) < 1e-9


def test_slow_tail_unresolved():
    # x^-1.03 is integrable, but its power lies within the band around -1
    res = tail(lambda x: -1.03 * np.log(x), 1.0, 1, 1.0, *TOL)
    assert math.isnan(res.value)
    assert res.power == pytest.approx(-1.03, abs=1e-9)


def test_power_tail_remainder():
    # int_1^inf x^-1.2 = 5: a fifth of it lies beyond the grid's reach
    res = tail(lambda x: -1.2 * np.log(x), 1.0, 1, 1.0, *TOL)
    assert res.value == pytest.approx(5.0, rel=1e-12)
    assert abs(res.value - 5.0) <= res.error_estimate


def test_tail_log_zero_and_overflow_do_not_warn():
    # g underflows to 0 (log g = -inf) and exp(log g) would overflow
    # between nodes; neither may warn
    with np.errstate(all="raise"):
        res = tail(lambda x: np.where(x > 3.0, -np.inf, 0.0), 0.0, 1, 1.0, *TOL)
        assert res.value == pytest.approx(3.0) and res.power == -math.inf
        with pytest.raises(EvaluationError):
            tail(lambda x: np.where((x > 1.2) & (x < 1.8), 800.0, -x), 0.0, 1,
                 1.0, *TOL)


def test_tail_dip_below_range_is_not_a_vanished_tail():
    # log g = y^2 - 60 y falls below -700 at y = 16 and rises again: +inf
    res = tail(lambda x: x ** 2 - 60.0 * x, 0.0, 1, 1.0, *TOL)
    assert res.value == math.inf and res.power == math.inf
    # past +700 and back down: the integral exceeds the float range
    res = tail(lambda x: 60.0 * x - x ** 2, 0.0, 1, 1.0, *TOL)
    assert math.isnan(res.value)
    # the integrable part of a dip before a power tail still counts
    log_g = lambda x: np.where((x > 20.0) & (x < 40.0), -800.0,
                               -2.0 * np.log1p(x))
    res = tail(log_g, 0.0, 1, 1.0, *TOL)
    assert res.power == pytest.approx(-2.0, abs=1e-9)
    assert math.isfinite(res.value)


def test_tail_stops_where_log_g_cannot_be_evaluated():
    # past +-700, a log g whose coefficients overflow further out is taken
    # to stay out of range; inside the range the failure propagates
    def log_g(x):
        if np.max(x) > 200.0:
            raise EvaluationError("coefficient overflow")
        return -x ** 2
    assert tail(log_g, 0.0, 1, 1.0, *TOL).value == \
        pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
    with pytest.raises(EvaluationError):
        tail(lambda x: log_g(x) / 1e4, 0.0, 1, 1.0, *TOL)


def test_tail_direction_rejected():
    with pytest.raises(DomainError):
        tail(lambda x: -x, 0.0, 0, 1.0, *TOL)


def test_integrate_semi_infinite_wraps_tail():
    res = integrate_semi_infinite(lambda x: np.exp(-x), 0.0, math.inf)
    assert abs(res.value - 1.0) < 1e-8
    res = integrate_semi_infinite(lambda x: np.exp(x), 0.0, -math.inf)
    assert abs(res.value - 1.0) < 1e-8
    assert integrate_semi_infinite(lambda x: np.ones_like(x), 0.0,
                                   math.inf).value == math.inf
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda x: np.exp(-x), 0.0, 1.0)


def test_linearity_on_random_polynomials():
    rng = np.random.default_rng(42)
    for _ in range(20):
        c1 = rng.normal(size=4)
        c2 = rng.normal(size=4)
        al, be = rng.normal(size=2)
        f = lambda x: np.polyval(c1, x)
        g = lambda x: np.polyval(c2, x)
        h = lambda x: al * np.polyval(c1, x) + be * np.polyval(c2, x)
        a, b = sorted(rng.uniform(-3, 3, size=2))
        rf = integrate_finite(f, a, b)
        rg = integrate_finite(g, a, b)
        rh = integrate_finite(h, a, b)
        combined_err = 2 * (abs(al) * rf.error_estimate
                            + abs(be) * rg.error_estimate + rh.error_estimate)
        assert abs(rh.value - (al * rf.value + be * rg.value)) \
            <= combined_err + 1e-10


def test_interval_additivity():
    rng = np.random.default_rng(7)
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    for _ in range(10):
        a, b, c = sorted(rng.uniform(-2, 4, size=3))
        r1 = integrate_finite(f, a, b)
        r2 = integrate_finite(f, b, c)
        r3 = integrate_finite(f, a, c)
        tol = r1.error_estimate + r2.error_estimate + r3.error_estimate + 1e-11
        assert abs(r1.value + r2.value - r3.value) <= tol


def test_substitution_correctness():
    # the ray result must match the finite integral of the hand-substituted
    # integrand u = t/(1-t), du = dt/(1-t)^2
    ray = tail(lambda x: -x, 0.0, 1, 1.0, *TOL)

    def transformed(t):
        t = np.asarray(t)
        return np.exp(-t / (1.0 - t)) / (1.0 - t) ** 2

    finite = integrate_finite(transformed, 0.0, 1.0 - 1e-12)
    assert abs(ray.value - finite.value) < 1e-10


def test_result_invariant_error_vs_tolerance():
    cfg = QuadratureConfig()
    res = integrate_finite(lambda x: np.cos(x), 0.0, 2.0, cfg)
    assert res.converged
    assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
