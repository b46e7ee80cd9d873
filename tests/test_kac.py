import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import special

from ergodiff import kac
from ergodiff.diffusion import DiffusionModel, bounded_drift, brownian, ou
from ergodiff.errors import (DomainError, InconclusiveError,
                             NonConvergenceError, NotPositiveRecurrentError,
                             NumericalBlowupError)
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
    with pytest.raises(DomainError):
        exit_moment_table(bm, 1.0, 1.0, np.array([1.0]), 1)


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
    fb = np.array([s.first_block for s in batch.samples])
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
    # x^(2k) and m = 2 (1 + x^2)^-1, so the order-k tail integrand
    # u_{k-1} m has the endpoint power 2k - 4: -2 (finite) at order 1 and
    # 0 (divergent, the row is +inf) at order 2
    model = bounded_drift(1.0)
    xs = np.array([30.0, 60.0, 100.0])
    tbl = hitting_moment_table(model, 12.0, "from_above", xs, 2)
    assert len(tbl.tail_powers) == 2
    assert tbl.tail_powers[0] == pytest.approx(-2.0, abs=1e-3)
    assert tbl.tail_powers[1] == pytest.approx(0.0, abs=1e-3)
    assert np.all(np.isinf(tbl.order(2)))


# E_x T_1^2 for bounded_drift(theta) at x = 2, 3, 5, by nested
# scipy.integrate.quad over the closed form of the tail of m:
# I(z) = int_z^inf (1+y^2)^-theta dy
#      = B(theta - 1/2, 1/2) betainc(theta - 1/2, 1/2, 1/(1+z^2)) / 2,
# s = (1+z^2)^theta, u_1 = 2 int_1^x s I and, by parts,
# Q_2(z) = int_z^inf 2 u_1 m = 2 u_1 I + int_z^inf 4 s I^2, u_2 = 2 int_1^x s Q_2.
_BD_ORDER2 = {
    1.6: [56.5177421603, 240.957405447, 1596.7115935],
    2.2: [5.03543113611, 22.3989620266, 150.364112135],
    3.0: [1.532486982, 7.08325351197, 48.1818387649],
}


@pytest.mark.parametrize("theta", list(_BD_ORDER2))
def test_bounded_drift_order2_matches_betainc_oracle(theta):
    tbl = hitting_moment_table(bounded_drift(theta), 1.0, "from_above",
                               [2.0, 3.0, 5.0], 2)
    assert tbl.order(2) == pytest.approx(_BD_ORDER2[theta], rel=1e-6)


@pytest.mark.parametrize("theta", [1.2, 1.4, 1.45, 1.55, 1.6, 2.0, 2.4, 2.6,
                                   3.0])
def test_bounded_drift_verdicts_match_closed_form(theta):
    # E_x T^k < inf exactly when k < theta + 1/2, uniformly in x
    tbl = hitting_moment_table(bounded_drift(theta), 1.0, "from_above",
                               [2.0, 3.0, 5.0], 3)
    for k in (1, 2, 3):
        row = tbl.order(k)
        if k < theta + 0.5:
            assert np.all(np.isfinite(row)) and np.all(row > 0)
        else:
            assert np.all(np.isinf(row))


def test_bounded_drift_on_the_border_is_inconclusive():
    # at theta = 3/2 the order-2 tail integrand decays exactly like 1/x
    with pytest.raises(InconclusiveError):
        hitting_moment_table(bounded_drift(1.5), 1.0, "from_above",
                             [2.0, 3.0, 5.0], 2)


def test_inverse_gaussian_moments():
    # drift -sign(x), sigma = 1: from x > a > 0, T_a is inverse Gaussian
    # with mean mu = x - a and shape mu^2, so E T = mu, E T^2 = mu + mu^2
    # and E T^3 = mu^3 + 3 mu^2 + 3 mu; its tail is exponential, not a
    # power law
    model = DiffusionModel(lambda x: -np.sign(x), lambda x: np.ones_like(x))
    xs = np.array([1.0, 2.0, 3.0])
    mu = xs - 0.5
    tbl = hitting_moment_table(model, 0.5, "from_above", xs, 3)
    exact = [mu, mu + mu ** 2, mu ** 3 + 3 * mu ** 2 + 3 * mu]
    for k in (1, 2, 3):
        assert tbl.order(k) == pytest.approx(exact[k - 1], rel=1e-8)


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


def test_ou_far_starts_match_erfcx_closed_form(ou1):
    # E_x T_0 = 2 int_0^x e^{z^2} int_z^inf e^{-y^2} dy dz
    #         = sqrt(pi) int_0^x erfcx(z) dz; B(40) = -1600, far past the
    # range of exp
    xs = [20.0, 25.0, 30.0, 40.0]
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 1)
    exact = [math.sqrt(math.pi)
             * sci.quad(special.erfcx, 0.0, x, epsabs=1e-13, limit=200)[0]
             for x in xs]
    assert np.max(np.abs(tbl.order(1) - exact)) < 1e-10


def test_ou_starts_next_to_the_target(ou1):
    # the ray runs out to 2^30 (1 + |a|) however close the starts are, so
    # its tail verdict is still taken far out: E_x T_0 ~ sqrt(pi) x is finite
    xs = [1e-12, 1e-6]
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 1)
    exact = [math.sqrt(math.pi)
             * sci.quad(special.erfcx, 0.0, x, epsabs=0.0, epsrel=1e-13)[0]
             for x in xs]
    assert tbl.order(1) == pytest.approx(exact, rel=1e-9)


def test_superexponential_drift_reads_nothing_past_the_cut():
    # beta = -sinh(x): B = 2 - 2 cosh x falls 100 below B(2) by x = 4, while
    # sinh overflows past x = 710, so the ray must stop reading B at its cut.
    # E_x T_0 = int_0^x int_0^inf 2 e^{2 cosh z - 2 cosh(z + t)} dt dz
    model = DiffusionModel(lambda x: -np.sinh(x), lambda x: np.ones_like(x))
    xs = [0.5, 1.0, 2.0]
    with np.errstate(all="raise"):
        tbl = hitting_moment_table(model, 0.0, "from_above", xs, 2)

    def inner(z):
        return sci.quad(lambda t: 2.0 * math.exp(2.0 * (math.cosh(z)
                                                         - math.cosh(z + t))),
                        0.0, 40.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    exact = [sci.quad(inner, 0.0, x, epsabs=0.0, epsrel=1e-12)[0] for x in xs]
    assert tbl.order(1) == pytest.approx(exact, rel=1e-9)
    assert np.all(np.isfinite(tbl.order(2)) & (tbl.order(2) > 0))


def _gamma_family(theta, gamma):
    # beta = -theta x (1+x^2)^(gamma-1), sigma = (1+x^2)^(gamma/2): B =
    # -theta log(1+x^2), s = (1+x^2)^theta, m = 2 (1+x^2)^(-theta-gamma), so
    # E_x T^k < inf iff k < (2 theta + 1) / (2 (1 - gamma))
    return DiffusionModel(
        lambda x: -theta * x * (1.0 + x * x) ** (gamma - 1.0),
        lambda x: (1.0 + x * x) ** (gamma / 2.0),
        label=f"gamma_family({theta:g}, {gamma:g})")


def test_gamma_family_order1_matches_betainc_oracle():
    # E_x T_1 = 2 int_1^x s I with I(z) = int_z^inf (1+y^2)^(-theta-gamma) dy
    #         = B(c, 1/2) betainc(c, 1/2, 1/(1+z^2)) / 2, c = theta+gamma-1/2
    theta, gamma = 2.0, 0.25
    c = theta + gamma - 0.5

    def integrand(z):
        tail = 0.5 * special.beta(c, 0.5) * special.betainc(c, 0.5,
                                                            1 / (1 + z * z))
        return 2.0 * (1.0 + z * z) ** theta * tail

    xs = [2.0, 3.0, 5.0]
    exact = [sci.quad(integrand, 1.0, x, epsabs=1e-13, epsrel=1e-13)[0]
             for x in xs]
    tbl = hitting_moment_table(_gamma_family(theta, gamma), 1.0, "from_above",
                               xs, 1)
    assert np.max(np.abs(tbl.order(1) - exact)) < 1e-8


@pytest.mark.parametrize("theta, gamma, verdict", [
    (2.0, 0.25, "finite"),         # threshold 10/3
    (1.5, 0.3, "infinite"),        # threshold 20/7
    (1.0, 0.5, "inconclusive"),    # threshold exactly 3
])
def test_gamma_family_order3_verdicts(theta, gamma, verdict):
    build = lambda: hitting_moment_table(_gamma_family(theta, gamma), 1.0,
                                         "from_above", [2.0, 3.0, 5.0], 3)
    if verdict == "inconclusive":
        with pytest.raises(InconclusiveError):
            build()
        return
    row = build().order(3)
    if verdict == "finite":
        assert np.all(np.isfinite(row) & (row > 0))
    else:
        assert np.all(np.isinf(row))


@pytest.mark.parametrize("theta", ["0.75", "1", "1.5", "2", "2.5"])
@pytest.mark.parametrize("gamma", ["0", "0.2", "0.4", "0.6"])
def test_gamma_family_verdicts_follow_the_order_threshold(theta, gamma):
    # order k is finite iff k < (2 theta + 1) / (2 (1 - gamma)), computed
    # exactly; a threshold equal to one of the orders is inconclusive
    limit = (2 * Fraction(theta) + 1) / (2 * (1 - Fraction(gamma)))
    build = lambda: hitting_moment_table(
        _gamma_family(float(theta), float(gamma)), 1.0, "from_above",
        [2.0, 3.0, 5.0], 4)
    if limit in range(1, 5):
        with pytest.raises(InconclusiveError):
            build()
        return
    tbl = build()
    for k in range(1, 5):
        row = tbl.order(k)
        if k < limit:
            assert np.all(np.isfinite(row) & (row > 0)), k
        else:
            assert np.all(np.isinf(row)), k


def test_missed_tolerance_raises(monkeypatch, ou1):
    # two nodes per panel cannot meet 1e-7: halving every panel moves the
    # table by more, so it raises instead of returning
    monkeypatch.setattr(kac, "_NODES", 2)
    with pytest.raises(NonConvergenceError):
        hitting_moment_table(ou1, 0.0, "from_above", [0.5, 1.0], 1)
    with pytest.raises(NonConvergenceError):
        exit_moment_table(ou1, -1.0, 1.0, [0.0, 0.5], 2)


def test_finite_order_beyond_the_float_range_raises(ou1):
    # E_0 T_30 of OU is finite but about e^900: no row comes back with an
    # overflowed entry
    with pytest.raises(NumericalBlowupError):
        hitting_moment_table(ou1, 30.0, "from_below", [0.0], 1)


# Tables recorded on the Gauss-Legendre panel engine (x86-64, NumPy 2.4.6,
# SciPy 1.17.1); each must come back bit for bit: (table, values,
# tail_powers, model_hash).  Shifts from the PCHIP grid-doubling tables they
# replaced, relative: order 1 by at most 2.2e-14 everywhere; OU order 2 by
# -3e-10 to -2.5e-9 from above (x = 2: 4.124017914564662 -> 4.124017904334231,
# nested quad 4.124017904) and +3.2e-9 to +3.9e-9 from below (x = -0.5:
# 40.67389723550319 -> 40.67389739578218); OU exit order 2 by +3.9e-10 and
# +4.5e-10; Brownian exit order 2 by +2.9e-10 and +1.6e-9, onto its closed
# form (19/256, 5/48, 19/256).  OU's endpoint powers moved from about -877
# (-836 from below) to -209 (-222), since the ray is now cut once B has
# fallen 100 below its value at the farthest start; the bounded-drift powers
# moved by at most 4e-10 and keep their verdicts.
_INF = math.inf
_PINNED = {
    "ou_from_above": (
        lambda: hitting_moment_table(ou(1.0), 0.0, "from_above",
                                     [0.5, 1.0, 1.5, 2.0], 2),
        [[1.0, 1.0, 1.0, 1.0],
         [0.6936644281279958, 1.147237106178515, 1.4751988021159588,
          1.7287842879885382],
         [1.1986292181927707, 2.2871153489443445, 3.256714585660736,
          4.124017904334231]],
        (-209.4847005207385, -209.18120205586567),
        "4c7057518f45"),
    "ou_from_below": (
        lambda: hitting_moment_table(ou(1.0), 1.0, "from_below",
                                     [-0.5, 0.0, 0.5], 2),
        [[1.0, 1.0, 1.0],
         [4.731392761083205, 4.03772833295521, 2.7994637780749883],
         [40.67389739578218, 33.873611147558236, 22.72155069785032]],
        (-221.97299650437537, -221.8223322788966),
        "4c7057518f45"),
    "bounded_drift_0.75": (
        lambda: hitting_moment_table(bounded_drift(0.75), 1.0, "from_above",
                                     [2.0, 3.0, 5.0], 3),
        [[1.0, 1.0, 1.0],
         [7.505210377296273, 18.444071586008974, 51.6517215321513],
         [_INF, _INF, _INF],
         [_INF, _INF, _INF]],
        (-1.4999999995953408, 0.5000000000798869),
        "aa486ad9cf48"),
    "bounded_drift_1": (
        lambda: hitting_moment_table(bounded_drift(1.0), 12.0, "from_above",
                                     [30.0, 60.0, 100.0], 2),
        [[1.0, 1.0, 1.0],
         [757.220944537133, 3458.145029699834, 9858.826106829774],
         [_INF, _INF, _INF]],
        (-1.9999999997056568, 9.696783525020399e-11),
        "4d5cee3d671c"),
    "ou_exit": (
        lambda: exit_moment_table(ou(1.0), -1.0, 1.0,
                                  [-1.0, -0.25, 0.5, 1.0], 2),
        [[1.0, 1.0, 1.0, 1.0],
         [0.0, 1.3814215347623144, 1.1729455500122334, 0.0],
         [0.0, 3.48431981033015, 2.9034468915312965, 0.0]],
        (),
        "4c7057518f45"),
    "brownian_exit": (
        lambda: exit_moment_table(brownian(), 0.0, 1.0, [0.25, 0.5, 0.75], 2),
        [[1.0, 1.0, 1.0],
         [0.18749999999999997, 0.24999999999999994, 0.1875],
         [0.07421874999999996, 0.10416666666666666, 0.07421875]],
        (),
        "3f9e37b5cc46"),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_pinned_moment_tables(name):
    build, values, powers, model_hash = _PINNED[name]
    tbl = build()
    assert tbl.values.tolist() == values
    assert tbl.tail_powers == powers
    assert tbl.model_hash == model_hash
