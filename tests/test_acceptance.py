"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins.  Monte Carlo criteria use fixed seeds, so results are
reproducible run to run.

Scales are as stated per criterion (1e5 hitting replicas, 1e4 cycles, ...);
the whole module runs in several minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from ergodiff.bounds import (DeviationConstants, MomentBoundParams,
                             ergodic_bound_l1, ergodic_bound_sup,
                             tail_power_integral, head_power_integral,
                             moment_lower_bound, moment_upper_bound)
from ergodiff.cli import main
from ergodiff.diffusion import AssumptionParams, bounded_drift, brownian, ou
from ergodiff.kac import (first_block_sup, hitting_moment_table,
                          mean_exit_time, simultaneity_check)
from ergodiff.simulator import (SimConfig, estimate_constants,
                                estimate_deviation_prob,
                                estimate_hitting_moments, simulate_paths)

INDICATOR = lambda x: np.where(np.abs(np.asarray(x)) <= 0.5, 1.0, 0.0)
MU_INDICATOR = math.erf(0.5)  # invariant mass of [-1/2, 1/2] for ou(1)


@pytest.fixture(scope="module")
def ou1():
    return ou(1.0)


def _report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def test_criterion_1_driftless_exit_oracle():
    t0 = time.perf_counter()
    bm = brownian()
    xs = np.linspace(0.0, 1.0, 33)
    values = np.array([mean_exit_time(bm, 0.0, 1.0, float(x)) for x in xs])
    err = float(np.max(np.abs(values - xs * (1.0 - xs))))
    elapsed = time.perf_counter() - t0
    assert err < 1e-6
    assert elapsed < 5.0
    _report("criterion 1 (unit-square exit oracle)",
            f"max abs err {err:.2e} over 33 nodes in {elapsed:.2f}s")


def test_criterion_2_moment_recursion_vs_monte_carlo(ou1):
    t0 = time.perf_counter()
    xs = np.array([0.5, 1.0, 1.5, 2.0])
    tbl = hitting_moment_table(ou1, 0.0, "from_above", xs, 2)
    worst = 0.0
    for i, x0 in enumerate(xs):
        cfg = SimConfig(step=1e-3, horizon=25.0, replicas=100_000,
                        seed=1000 + i, a=-0.5, b=0.5, initial=float(x0),
                        crossing="bridge")
        ests = estimate_hitting_moments(ou1, cfg, float(x0), 0.0, (1, 2))
        for k, est in zip((1, 2), ests):
            z = abs(est.estimate - tbl.order(k)[i]) / est.stderr
            worst = max(worst, z)
            assert z <= 3.0, (x0, k, est.estimate, tbl.order(k)[i], z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("criterion 2 (recursion vs Monte Carlo, 1e5 replicas, h=1e-3)",
            f"worst |z| = {worst:.2f} over 8 comparisons in {elapsed:.0f}s")


def test_criterion_3_tail_integral_bracketing():
    rng = np.random.default_rng(20240)
    worst_margin = math.inf
    for _ in range(200):
        p = rng.uniform(0.0, 4.0)
        q = p + 1.0 + rng.uniform(0.2, 4.0)
        a = rng.uniform(0.05, 5.0)
        x = a * (1.0 + rng.uniform(0.0, 4.0))
        br = tail_power_integral(p, q, x, a)
        assert br.lower <= br.value <= br.upper
        worst_margin = min(worst_margin, br.upper - br.value,
                           br.value - br.lower)
        qj = p + 1.0 - rng.uniform(0.2, 4.0)
        br = head_power_integral(p, qj, x, a)
        assert br.lower <= br.value <= br.upper
        worst_margin = min(worst_margin, br.upper - br.value,
                           br.value - br.lower)
    _report("criterion 3 (closed-form brackets, 200 random tuples x 2)",
            f"tightest bracket margin {worst_margin:.3g}")


def test_criterion_4_polynomial_moment_domination():
    model = bounded_drift(1.0)
    params = AssumptionParams(m0=10.0, sigma0=1.0, gamma=0.0, r=0.6,
                              sigma1=1.0, delta=0.0, r_cap=1.5)
    target = 12.0  # anchor above m0, below the grid
    xs = np.linspace(25.0, 100.0, 7)
    tbl = hitting_moment_table(model, target, "from_above", xs, 1)
    mb = MomentBoundParams.from_assumptions(params, 1)
    ratios = []
    for x, v in zip(xs, tbl.order(1)):
        lo = moment_lower_bound(mb, float(x), target)
        hi = moment_upper_bound(mb, float(x))
        assert lo <= v <= hi, (x, lo, v, hi)
        ratios.append((v / lo, hi / v))
    _report("criterion 4 (order-1 moments inside the polynomial envelope)",
            f"value/lower in [{min(r[0] for r in ratios):.2f}, "
            f"{max(r[0] for r in ratios):.2f}], upper/value >= "
            f"{min(r[1] for r in ratios):.2f} on x in [25, 100]")


def test_criterion_5_regeneration_identities(ou1):
    cfg = SimConfig(step=1e-3, horizon=600.0, replicas=80, seed=505,
                    a=-0.5, b=0.5, initial=-0.5)
    est = estimate_constants(simulate_paths(ou1, cfg, INDICATOR), 2.0)
    assert est.n_cycles >= 10_000
    prod = est.l_hat.value * est.mean_cycle_time.value
    se_prod = prod * math.hypot(est.l_hat.se / est.l_hat.value,
                                est.mean_cycle_time.se
                                / est.mean_cycle_time.value)
    z1 = abs(prod - 1.0) / se_prod
    assert z1 <= 3.0, (prod, se_prod)
    z2 = abs(est.mu_f_hat.value - MU_INDICATOR) / est.mu_f_hat.se
    assert z2 <= 3.0, (est.mu_f_hat, MU_INDICATOR)
    _report("criterion 5 (cycle-rate and invariant-average identities, "
            f"{est.n_cycles} cycles)",
            f"rate*mean-cycle = {prod:.4f} (|z|={z1:.2f}); "
            f"mu_hat = {est.mu_f_hat.value:.4f} vs {MU_INDICATOR:.4f} "
            f"(|z|={z2:.2f})")


@pytest.fixture(scope="module")
def deviation_run(ou1):
    ccfg = SimConfig(step=1e-3, horizon=150.0, replicas=400, seed=606,
                     a=-0.5, b=0.5, initial=-0.5)
    est = estimate_constants(simulate_paths(ou1, ccfg, INDICATOR), 2.0)
    c_f = first_block_sup(ou1, ccfg.a, ccfg.b, INDICATOR, (-0.5, 0.5))
    dcfg = SimConfig(step=1e-3, horizon=400.0, replicas=1000, seed=707,
                     a=-0.5, b=0.5, initial=-0.5)
    batch = simulate_paths(ou1, dcfg, INDICATOR,
                           checkpoints=[50.0, 100.0, 200.0, 400.0])
    emp = estimate_deviation_prob(batch, [0.05, 0.1, 0.2], MU_INDICATOR)
    return est, c_f, emp


def test_criterion_6_deviation_bound_domination(deviation_run):
    est, c_f, emp = deviation_run
    consts = DeviationConstants(
        l=est.l_hat.value, p=2.0, c_p=2.0,
        r1_centered_halfp=est.r1_centered_halfp.value,
        r1_halfp=est.r1_halfp.value, eta_p=est.eta_p.value,
        r1_p_at_a=est.r1_p_at_a.value, cycle_gap_p=est.cycle_gap_p.value)
    checked = 0
    sub_unit = 0
    min_bound = math.inf
    for j, eps in enumerate(emp.eps_grid):
        for i, t in enumerate(emp.t_grid):
            freq = emp.freq[i, j]
            hw = emp.halfwidth[i, j]
            for kind in ("sup", "l1"):
                if kind == "sup":
                    b = ergodic_bound_sup(consts, float(t), float(eps),
                                          1.0).total
                else:
                    b = ergodic_bound_l1(consts, float(t), float(eps),
                                         MU_INDICATOR, c_f, 2).total
                checked += 1
                min_bound = min(min_bound, b)
                if b < 1.0:
                    sub_unit += 1
                    assert freq <= b + hw, (kind, t, eps, freq, b)
        # polynomial-rate sanity: freq * t^{p/2} stays bounded across t
        scaled = emp.freq[:, j] * emp.t_grid
        cap = 2.0 * (emp.freq[0, j] + emp.halfwidth[0, j]) * emp.t_grid[0] + 1.0
        assert np.all(scaled <= cap), (eps, scaled, cap)
    _report("criterion 6 (deviation bounds dominate empirical frequencies)",
            f"{checked} bound cells checked ({sub_unit} below 1, none "
            f"violated; smallest bound {min_bound:.3g}); scaled frequencies "
            "bounded across the t grid for every eps")


def test_criterion_7_infinite_moment_detection():
    # envelope with r_cap = 1, delta = 0: (2R+1)/2 = 1.5, so order 2 is
    # infinite; the table must detect it through the divergent tail
    model = bounded_drift(0.75)
    xs = np.array([2.0, 3.0, 5.0])
    tbl = hitting_moment_table(model, 1.0, "from_above", xs, 2)
    assert np.all(np.isfinite(tbl.order(1)))
    assert np.all(np.isinf(tbl.order(2)))
    rep = simultaneity_check(tbl)
    assert rep.ok
    assert rep.per_order[2] == (2, 0, 3, True)
    _report("criterion 7 (infinite second moment via divergent tail)",
            "order 1 finite, order 2 uniformly +inf across the grid; "
            "finiteness uniform per order")


def test_criterion_8_iid_cycle_law(ou1):
    cfg = SimConfig(step=1e-3, horizon=120.0, replicas=10_000, seed=808,
                    a=-0.5, b=0.5, initial=0.0)
    batch = simulate_paths(ou1, cfg, INDICATOR, max_cycles=3)
    pairs = [s.cycle_integrals[:2] for s in batch.samples
             if len(s.cycle_integrals) >= 2]
    xi = np.array(pairs)
    n = xi.shape[0]
    assert n >= 10_000
    ks = stats.ks_2samp(xi[:, 0], xi[:, 1])
    crit = math.sqrt(-math.log(0.0005) / 2.0) * math.sqrt(2.0 / n)
    assert ks.statistic < crit, (ks.statistic, crit)
    _report("criterion 8 (i.i.d. cycle integrals)",
            f"two-sample KS = {ks.statistic:.4f} < {crit:.4f} "
            f"(0.001 level, n={n})")


DETERMINISM_CONFIG = """
[diffusion]
model = ou(1.0)

[sim]
step = 5e-3
horizon = 20
replicas = 5000
seed = 42
a = -0.5
b = 0.5
initial = point(0.0)

[experiment]
f = indicator(-0.5, 0.5)
p = 2
t_grid = 10, 20
eps_grid = 0.1, 0.2
target = 0.0
side = from_above
x_grid = 0.5, 1.0
orders = 1
constants_replicas = 400
"""


def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "det.ini"
    cfg_path.write_text(DETERMINISM_CONFIG)
    outputs = {}
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        assert main(["deviation", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert main(["moments", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outputs[tag] = {
            name: (out / name).read_bytes()
            for name in ("deviation.csv", "deviation_plot.dat",
                         "constants.csv", "moments.csv")
        }
    assert outputs["run1"] == outputs["run2"]
    _report("criterion 9 (byte-identical outputs)",
            "two reruns produced identical deviation.csv, "
            "deviation_plot.dat, constants.csv, moments.csv")
