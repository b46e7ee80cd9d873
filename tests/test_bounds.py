import math

import numpy as np
import pytest

from ergodiff.bounds import (DeviationConstants,
                             MomentBoundParams, deviation_admissibility,
                             default_bdg_constant, ergodic_bound_l1,
                             ergodic_bound_sup, tail_power_integral,
                             head_power_integral, moment_lower_bound,
                             moment_upper_bound, nt_deviation_bound,
                             p_star_bracket, upper_bound_order_limit)
from ergodiff.diffusion import AssumptionParams
from ergodiff.errors import (DomainError, InconsistentParamsError,
                             MissingMomentsError, RangeError)


# -- tail-integral brackets ----------------------------------------------------

def test_integral_I_example():
    br = tail_power_integral(0.0, 2.0, 2.0, 1.0)
    assert br.value == pytest.approx(0.5, rel=1e-8)
    assert br.lower == pytest.approx(0.25)
    assert br.upper == pytest.approx(0.5)


def test_integral_I_at_left_edge():
    br = tail_power_integral(0.0, 2.0, 1.0, 1.0)  # x == a
    assert br.lower == 0.0
    assert br.value == pytest.approx(1.0, rel=1e-8)


def test_integral_I_quadrature_vs_closed_form():
    # int_3^inf (xi-1)/xi^3 = 5/18
    br = tail_power_integral(1.0, 3.0, 3.0, 1.0)
    assert br.value == pytest.approx(5.0 / 18.0, rel=1e-8)
    assert br.lower <= br.value <= br.upper


def test_integral_I_divergent_parameters():
    with pytest.raises(DomainError):
        tail_power_integral(1.0, 2.0, 2.0, 1.0)  # p >= q-1
    with pytest.raises(DomainError):
        tail_power_integral(0.0, 2.0, 1.0, 2.0)  # a > x


def test_integral_J_example():
    br = head_power_integral(1.0, 0.0, 2.0, 1.0)
    assert br.value == pytest.approx(0.5, rel=1e-10)
    assert br.lower == pytest.approx(0.5)
    assert br.upper == pytest.approx(2.0)


def test_integral_J_degenerate():
    br = head_power_integral(1.0, 0.5, 1.0, 1.0)  # x == a
    assert br.value == 0.0


def test_integral_J_bracket():
    br = head_power_integral(2.0, 1.0, 4.0, 1.0)
    assert br.lower <= br.value <= br.upper


def test_bracketing_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        p = rng.uniform(0.0, 4.0)
        q = p + 1.0 + rng.uniform(0.2, 4.0)
        a = rng.uniform(0.05, 5.0)
        x = a * (1.0 + rng.uniform(0.0, 4.0))
        br = tail_power_integral(p, q, x, a)
        assert br.lower <= br.value <= br.upper
        qj = p + 1.0 - rng.uniform(0.2, 4.0)
        br = head_power_integral(p, qj, x, a)
        assert br.lower <= br.value <= br.upper


# -- moment bounds ---------------------------------------------------------------

def test_upper_bound_substitution():
    mb = MomentBoundParams(order=1.0, sigma0=1.0, gamma=0.0, r=1.0)
    assert moment_upper_bound(mb, 3.0) == pytest.approx(9.0)


def test_upper_bound_range_error():
    mb = MomentBoundParams(order=1.75, sigma0=1.0, gamma=0.0, r=1.0)
    with pytest.raises(RangeError):
        moment_upper_bound(mb, 3.0)  # (2r+1)/2 = 1.5 <= m


def test_upper_bound_second_order():
    mb = MomentBoundParams(order=2.0, sigma0=1.0, gamma=0.0, r=2.0)
    # constant product: (4-2+1)(4-4+1) = 3
    assert moment_upper_bound(mb, 2.0) == pytest.approx(16.0 / 3.0)


def test_upper_bound_fractional_order():
    mb = MomentBoundParams(order=1.5, sigma0=1.0, gamma=0.0, r=2.0)
    # alpha=0.5: (2r-1)^0.5 * (2r - 3 + 1) = sqrt(3)*2
    expect = 2.0 ** (2 * 1.5) / (math.sqrt(3.0) * 2.0)
    assert moment_upper_bound(mb, 2.0) == pytest.approx(expect)


def test_lower_bound_substitution():
    mb = MomentBoundParams(order=1, sigma1=1.0, delta=0.0, r_cap=2.0)
    assert moment_lower_bound(mb, 3.0, 2.0) == pytest.approx(1.0 / 3.0)


def test_lower_bound_degenerate_and_infinite():
    mb = MomentBoundParams(order=1, sigma1=1.0, delta=0.0, r_cap=2.0)
    assert moment_lower_bound(mb, 2.0, 2.0) == 0.0
    mb3 = MomentBoundParams(order=3, sigma1=1.0, delta=0.0, r_cap=2.0)
    assert moment_lower_bound(mb3, 3.0, 2.0) == math.inf  # 3 > (2R+1)/2 = 2.5


def test_lower_bound_integer_only():
    mb = MomentBoundParams(order=1.5, sigma1=1.0, delta=0.0, r_cap=2.0)
    with pytest.raises(RangeError):
        moment_lower_bound(mb, 3.0, 2.0)


def test_constant_positivity_across_admissible_range():
    params = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=2.0,
                              sigma1=1.0, delta=0.0, r_cap=2.0)
    limit = upper_bound_order_limit(params)
    for m in np.linspace(1.0, limit - 1e-6, 23):
        assert moment_upper_bound(
            MomentBoundParams.from_assumptions(params, float(m)), 2.0) > 0
    for n in range(1, int(limit)):
        v = moment_lower_bound(
            MomentBoundParams.from_assumptions(params, n), 3.0, 1.5)
        assert v > 0


def test_sharpness_matched_assumptions():
    # with matched envelopes the order-1 upper/lower ratio at a = x/2 is
    # x-independent (pure constant factor)
    params = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=1.0,
                              sigma1=1.0, delta=0.0, r_cap=1.0)
    ratios = []
    for x in [4.0, 16.0, 64.0, 256.0]:
        mb = MomentBoundParams.from_assumptions(params, 1)
        ratios.append(moment_upper_bound(mb, x)
                      / moment_lower_bound(mb, x, x / 2.0))
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert ratios[0] == pytest.approx(4.0)


def test_p_star_bracket():
    both = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=1.0,
                            sigma1=1.0, delta=0.0, r_cap=1.0)
    assert p_star_bracket(both) == pytest.approx((1.0, 1.0))
    wide = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=0.6,
                            sigma1=1.0, delta=0.0, r_cap=1.5)
    assert p_star_bracket(wide) == pytest.approx((0.2, 2.0))
    with pytest.raises(InconsistentParamsError):
        p_star_bracket(AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=2.0,
                                        sigma1=1.0, delta=0.0, r_cap=1.0))


# -- deviation bounds -------------------------------------------------------------

def _consts(p=2.0, l=1.0, c_p=2.0, **kw):
    base = dict(r1_centered_halfp=0.0, r1_halfp=0.0, eta_p=0.0,
                r1_p_at_a=0.0, cycle_gap_p=0.0)
    base.update(kw)
    return DeviationConstants(l=l, p=p, c_p=c_p, **base)


def test_nt_bound_degenerate_zero():
    assert nt_deviation_bound(_consts(), 10.0, 0.5) == 0.0


def test_nt_bound_p2_formula():
    s1, s2 = 0.7, 1.3
    c = _consts(r1_centered_halfp=s1, eta_p=s2)
    val = nt_deviation_bound(c, 100.0, 0.5)
    expect = (2 * s1 + 8 * (2.0 ** 2) * s2) * (0.5 ** -2) * 0.01
    assert val == pytest.approx(expect, rel=1e-12)


def test_nt_bound_t_scaling():
    c = _consts(r1_centered_halfp=1.0, eta_p=1.0)
    assert nt_deviation_bound(c, 200.0, 0.5) \
        == pytest.approx(nt_deviation_bound(c, 100.0, 0.5) / 2.0)


def test_nt_bound_sub2_branch():
    c = _consts(p=1.5, r1_centered_halfp=1.0, eta_p=1.0)
    v1 = nt_deviation_bound(c, 16.0, 0.5)
    v2 = nt_deviation_bound(c, 256.0, 0.5)
    assert v2 == pytest.approx(v1 / 2.0)  # t^-(p-1)/2 = t^-0.25
    with pytest.raises(RangeError):
        nt_deviation_bound(c, 0.5, 0.5)


def test_nt_bound_requires_eps_range_and_moments():
    c = _consts(r1_centered_halfp=1.0, eta_p=1.0)
    with pytest.raises(RangeError):
        nt_deviation_bound(c, 10.0, 1.5)
    missing = DeviationConstants(l=1.0, p=2.0, c_p=2.0)
    with pytest.raises(MissingMomentsError):
        nt_deviation_bound(missing, 10.0, 0.5)


def test_sup_bound_range_error():
    c = _consts()
    with pytest.raises(RangeError):
        ergodic_bound_sup(c, 10.0, 1.5, 1.0)  # eps >= f_sup


def test_sup_bound_zero_moments():
    br = ergodic_bound_sup(_consts(), 10.0, 0.5, 1.0)
    assert br.total == 0.0
    assert set(br.terms) == {"A", "B", "C", "D"}
    assert br.regime == "p>=2"


def test_sup_bound_monotone_in_t_and_eps():
    c = _consts(r1_centered_halfp=0.5, eta_p=0.4, r1_halfp=2.0,
                r1_p_at_a=8.0, cycle_gap_p=8.0)
    ts = [1.0, 2.0, 5.0, 10.0, 100.0]
    vals = [ergodic_bound_sup(c, t, 0.3, 1.0).total for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    epss = [0.1, 0.2, 0.4, 0.8]
    vals = [ergodic_bound_sup(c, 10.0, e, 1.0).total for e in epss]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_sup_bound_sub2_regime_label():
    c = _consts(p=1.5, r1_centered_halfp=0.5, eta_p=0.4, r1_halfp=2.0,
                r1_p_at_a=8.0, cycle_gap_p=8.0)
    br = ergodic_bound_sup(c, 10.0, 0.3, 1.0)
    assert br.regime == "1<p<2"
    assert br.total > 0


def test_l1_bound_range_errors():
    c = _consts(r1_centered_halfp=0.5, eta_p=0.4)
    with pytest.raises(RangeError):
        ergodic_bound_l1(c, 10.0, 0.7, 0.5, 1.0)  # eps >= mu(|f|)
    c_frac = _consts(p=2.5, r1_centered_halfp=0.5, eta_p=0.4)
    with pytest.raises(RangeError):
        ergodic_bound_l1(c_frac, 10.0, 0.1, 0.5, 1.0)  # non-integer p


def test_l1_bound_cf_zero_reduces_to_counting_term():
    c = _consts(r1_centered_halfp=0.5, eta_p=0.4)
    br = ergodic_bound_l1(c, 10.0, 0.1, 0.5, 0.0)
    assert br.terms["A"] == 0.0
    assert br.terms["B"] == 0.0
    assert br.terms["C"] == 0.0
    assert set(br.terms) == {"A", "B", "C", "D"}
    assert br.terms["D"] > 0.0
    assert br.total == pytest.approx(br.terms["D"])


def test_l1_bound_monotone():
    c = _consts(r1_centered_halfp=0.5, eta_p=0.4)
    vals = [ergodic_bound_l1(c, t, 0.1, 0.5, 1.2).total
            for t in (1.0, 4.0, 16.0, 256.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_bdg_default():
    assert default_bdg_constant(2.0) == 2.0
    assert default_bdg_constant(4.0) == 4.0


# -- bound admissibility -----------------------------------------------------------

def test_admissibility_sup():
    params = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=1.0)
    rep = deviation_admissibility(params, 1.4, nu_moment=1.0)
    assert rep.sup_admissible
    assert rep.order_limit == pytest.approx(1.5)


def test_admissibility_l1_gamma_gate():
    params = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=1.0)
    rep = deviation_admissibility(params, 1.4, nu_moment=1.0)
    assert not rep.l1_admissible  # 2r + 4gamma = 2 <= 3
    assert any("2r + 4gamma" in s for s in rep.reasons)


def test_admissibility_needs_p_above_one():
    params = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.0, r=1.0)
    rep = deviation_admissibility(params, 1.0, nu_moment=1.0)
    assert not rep.sup_admissible and not rep.l1_admissible


def test_admissibility_l1_case():
    params = AssumptionParams(m0=1.0, sigma0=1.0, gamma=0.25, r=2.0)
    # limit = (2r+1)/(2(1-gamma)) = 5/1.5 = 10/3; 2r+4gamma = 5 > 3
    rep = deviation_admissibility(params, 2.0, nu_moment=0.8)
    assert rep.sup_admissible and rep.l1_admissible
