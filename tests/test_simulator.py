import math
import warnings

import numpy as np
import pytest

import ergodiff.simulator as simulator
from ergodiff.diffusion import DiffusionModel, ou
from ergodiff.errors import (ConfigError, DomainError, EvaluationError,
                             ExcessCensoringError, InsufficientCyclesError,
                             NumericalBlowupError)
from ergodiff.kac import first_block_sup
from ergodiff.simulator import (CROSSING_RULES, InitialLaw, SimConfig,
                                estimate_constants,
                                estimate_deviation_prob,
                                estimate_hitting_moments, nu_moment_estimate,
                                simulate_paths)

INDICATOR = lambda x: np.where(np.abs(np.asarray(x)) <= 0.5, 1.0, 0.0)


def _cfg(**kw):
    base = dict(step=1e-3, horizon=20.0, replicas=200, seed=9,
                a=-0.5, b=0.5, initial=0.0)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(step=-1.0)
    with pytest.raises(ConfigError):
        _cfg(a=1.0, b=0.0)
    with pytest.raises(ConfigError):
        _cfg(replicas=0)
    with pytest.raises(ConfigError):
        _cfg(crossing="teleport")
    with pytest.raises(ConfigError):   # 2.5 steps: a run would cover 0.8
        _cfg(step=0.4, horizon=1.0)


@pytest.mark.parametrize("name, value", [
    ("replicas", 100.5), ("replicas", 100.0), ("replicas", True),
    ("seed", 1.5), ("seed", 1.0), ("seed", False)])
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        _cfg(**{name: value})


def test_config_accepts_numpy_integer_counts():
    cfg = _cfg(horizon=1.0, replicas=np.int64(3), seed=np.uint32(9))
    want = _cfg(horizon=1.0, replicas=3, seed=9)
    assert _batch_bytes(simulate_paths(ou(1.0), cfg, INDICATOR)) \
        == _batch_bytes(simulate_paths(ou(1.0), want, INDICATOR))


def test_initial_law_coercion_and_sampling():
    cfg = _cfg(initial=0.25)
    assert isinstance(cfg.initial, InitialLaw)
    gen = np.random.default_rng(0)
    assert np.all(cfg.initial.sample(gen, 5) == 0.25)
    uni = InitialLaw.uniform(-1.0, 1.0)
    xs = uni.sample(np.random.default_rng(0), 1000)
    assert np.all((xs >= -1) & (xs <= 1))


def test_additive_integral_of_one_is_time():
    m = ou(1.0)
    s = simulate_paths(m, _cfg(horizon=5.0, replicas=1),
                       lambda x: np.ones_like(x)).samples[0]
    assert s.additive_integral == pytest.approx(5.0, abs=1e-9)


def test_inverse_process_identity_every_sample():
    m = ou(1.0)
    # {N_t >= n} iff {R_n <= t} holds exactly when R_n is nondecreasing and
    # N_t counts the recorded R_n
    batch = simulate_paths(m, _cfg(replicas=40, horizon=30.0), INDICATOR)
    for s in batch.samples:
        assert np.all(np.diff(s.r_times) >= 0.0)
        assert s.n_t == len(s.r_times)


def test_cycle_structure_interleaves():
    # every return to a is preceded by a visit to b after the previous return
    m = ou(1.0)
    batch = simulate_paths(m, _cfg(replicas=25, horizon=40.0), INDICATOR)
    for s in batch.samples:
        n = len(s.r_times)
        assert len(s.s_times) >= n
        for i in range(n):
            assert s.s_times[i] <= s.r_times[i]
            if i:
                assert s.r_times[i - 1] <= s.s_times[i]


def test_degenerate_sigma_raises_domain_error():
    bad = DiffusionModel(lambda x: np.zeros_like(x),
                         lambda x: np.zeros_like(x), label="flat")
    with pytest.raises(DomainError):
        simulate_paths(bad, _cfg(horizon=1.0, replicas=1), INDICATOR)


def _ou_callable_sigma(sigma=np.ones_like) -> DiffusionModel:
    """ou(1) with sigma = 1 passed as a callable, not as a number."""
    return DiffusionModel(lambda x: -x, sigma, label="ou(1)")


@pytest.mark.parametrize("crossing", CROSSING_RULES)
def test_constant_sigma_gives_the_callable_sigma_paths(crossing):
    # sigma as a number, as an array callable, and as a callable returning
    # a number, which is broadcast
    models = (ou(1.0), _ou_callable_sigma(), _ou_callable_sigma(lambda x: 1.0))
    cfg = _cfg(step=5e-3, horizon=10.0, replicas=300, seed=22,
               crossing=crossing)
    for target in (0.0, -1.0):
        want, *got = (estimate_hitting_moments(m, cfg, 0.5, target, (1, 2))
                      for m in models)
        assert got == [want, want]
    want, *got = (_batch_bytes(simulate_paths(m, cfg, INDICATOR,
                                              checkpoints=[5.0, 10.0]))
                  for m in models)
    assert got == [want, want]


def test_constant_sigma_is_not_evaluated_per_step(monkeypatch):
    rows = {"drift": 0, "sigma_sq": 0}     # points evaluated, per method
    for name in rows:
        real = getattr(DiffusionModel, name)

        def counted(self, x, name=name, real=real):
            rows[name] += np.size(x)
            return real(self, x)

        monkeypatch.setattr(DiffusionModel, name, counted)
    cfg = _cfg(step=5e-3, horizon=5.0, replicas=50, crossing="bridge")
    for model, per_step in ((ou(1.0), False), (_ou_callable_sigma(), True)):
        rows.update(drift=0, sigma_sq=0)
        simulate_paths(model, cfg, INDICATOR)
        # the drift at every step on every row of the state
        assert rows["drift"] == cfg.n_steps * cfg.replicas
        estimate_hitting_moments(model, cfg, 0.5, 0.0, (1,))
        assert rows["sigma_sq"] == (rows["drift"] if per_step else 0)


def test_hitting_trivial_at_target():
    m = ou(1.0)
    est = estimate_hitting_moments(m, _cfg(replicas=50), 0.5, 0.5, (1,))[0]
    assert est.estimate == 0.0 and est.stderr == 0.0


def test_excess_censoring():
    m = ou(1.0)
    with pytest.raises(ExcessCensoringError):
        estimate_hitting_moments(m, _cfg(horizon=0.05, replicas=100),
                                 0.0, 3.5, (1,))


def test_step_halving_stability():
    # with bridge crossings, halving h moves the estimate by less than the
    # combined statistical resolution
    m = ou(1.0)
    kw = dict(replicas=4000, horizon=15.0, crossing="bridge", initial=0.5)
    e1 = estimate_hitting_moments(m, _cfg(step=2e-3, **kw), 0.5, 0.0, (1,))[0]
    e2 = estimate_hitting_moments(m, _cfg(step=1e-3, **kw), 0.5, 0.0, (1,))[0]
    assert abs(e1.estimate - e2.estimate) <= 2.0 * (e1.stderr + e2.stderr)


def test_shared_sample_orders_consistent():
    m = ou(1.0)
    ests = estimate_hitting_moments(m, _cfg(replicas=500, initial=1.0),
                                    1.0, 0.0, (1, 2))
    assert ests[0].order == 1 and ests[1].order == 2
    # Jensen: E T^2 >= (E T)^2 on the same sample
    assert ests[1].estimate >= ests[0].estimate ** 2 - 1e-9


def test_counting_self_consistency():
    # N_T / T from a batch matches the cycle rate from an independent,
    # longer run within 3 combined standard errors
    m = ou(1.0)
    short = estimate_constants(simulate_paths(
        m, _cfg(replicas=120, horizon=60.0), INDICATOR), 2.0)
    long_ = estimate_constants(simulate_paths(
        m, _cfg(replicas=60, horizon=150.0, seed=77), INDICATOR), 2.0)
    se = math.hypot(short.l_hat.se, long_.l_hat.se)
    assert abs(short.l_hat.value - long_.l_hat.value) <= 3.0 * se


def test_insufficient_cycles():
    m = ou(1.0)
    with pytest.raises(InsufficientCyclesError):
        estimate_constants(simulate_paths(
            m, _cfg(replicas=30, horizon=1.0), INDICATOR), 2.0)


def test_constants_refuse_a_max_cycles_batch():
    # frozen replicas stop counting cycles, which would bias l_hat low
    batch = simulate_paths(ou(1.0), _cfg(replicas=30, horizon=10.0),
                           INDICATOR, max_cycles=2)
    with pytest.raises(ConfigError):
        estimate_constants(batch, 2.0)


def test_constants_trivial_f_zero():
    m = ou(1.0)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    cfg = _cfg(replicas=60, horizon=60.0)
    est = estimate_constants(simulate_paths(m, cfg, zero), 2.0)
    assert est.mu_f_hat.value == 0.0
    assert first_block_sup(m, cfg.a, cfg.b, zero, (-1.0, 1.0)) == 0.0


def test_cycle_moment_growth_bound():
    # empirical first-block moments obey E(int_0^R1 |f|)^n <= n! c_f^n
    # up to statistical slack (f >= 0 here, so int_0^R1 f is that integral)
    m = ou(1.0)
    cfg = _cfg(replicas=400, horizon=60.0, initial=0.0)
    batch = simulate_paths(m, cfg, INDICATOR)
    fb = np.array([s.first_block for s in batch.samples])
    fb = fb[np.isfinite(fb)]
    c_f = first_block_sup(m, cfg.a, cfg.b, INDICATOR, (-0.5, 0.5))
    for n in (1, 2, 3):
        mean_n = float(np.mean(fb ** n))
        se_n = float(np.std(fb ** n) / math.sqrt(fb.size))
        assert mean_n - 3 * se_n <= math.factorial(n) * c_f ** n


def test_numerical_blowup_guard():
    outward = DiffusionModel(lambda x: np.asarray(x, dtype=float),
                             lambda x: np.ones_like(np.asarray(x, dtype=float)),
                             label="outward")
    with pytest.raises(NumericalBlowupError):
        simulate_paths(outward, _cfg(horizon=20.0, initial=5.0, replicas=1,
                                     blowup_guard=1e4), INDICATOR)


NAN_PAST = lambda x: np.where(x > 0.6, np.nan, -x)
ONE = lambda x: np.ones_like(x)
NAN_AT = "integrand is non-finite near x=np.float64({})"
FAILING_STEPS = {
    # name: (drift, sigma, x0, blowup_guard, error, message).  Each check of
    # a step alone, then pairs that show their order: the guard, sigma^2 > 0
    # (after sigma is finite), the drift.  The NaN cases start inside the
    # region and fail once a path wanders past x = 0.6 (0.52: many of the
    # 50 rows, at different steps of the first kernel block).  Messages
    # recorded with the checks run at every step.
    "drift-nan": (NAN_PAST, ONE, 0.5, 1e9, EvaluationError,
                  NAN_AT.format(0.6195331532690362)),
    "sigma-nan": (lambda x: -x, lambda x: np.where(x > 0.6, np.nan, 1.0),
                  0.5, 1e9, EvaluationError,
                  NAN_AT.format(0.6195331532690362)),
    "sigma-zero": (lambda x: -x, np.zeros_like, 0.5, 1e9, DomainError,
                   "sigma^2 vanishes at x=np.float64(0.5)"),
    "outward": (lambda x: x, ONE, 5.0, 1e4, NumericalBlowupError,
                "outward: |X| exceeded guard 10000; is the model recurrent?"),
    "guard-before-drift": (NAN_PAST, ONE, 5.0, 1.0, NumericalBlowupError,
                           "guard-before-drift: |X| exceeded guard 1; "
                           "is the model recurrent?"),
    "sigma-before-drift": (NAN_PAST, np.zeros_like, 5.0, 1e9, DomainError,
                           "sigma^2 vanishes at x=np.float64(5.0)"),
    "rows-fail-apart": (lambda x: np.where(x > 0.52, np.nan, -x), ONE, 0.5,
                        1e9, EvaluationError,
                        NAN_AT.format(0.5216530063742902)),
}


@pytest.mark.parametrize("driver", ["hitting", "regeneration"])
@pytest.mark.parametrize("case", sorted(FAILING_STEPS))
def test_step_checks_raise_in_both_drivers(case, driver):
    drift, sigma, x0, guard, error, message = FAILING_STEPS[case]
    model = DiffusionModel(drift, sigma, label=case)
    cfg = _cfg(horizon=10.0, replicas=50, initial=x0, blowup_guard=guard)
    with pytest.raises(error) as raised:
        if driver == "hitting":
            estimate_hitting_moments(model, cfg, x0, -1.0, (1,))
        else:
            simulate_paths(model, cfg, INDICATOR)
    assert str(raised.value) == message


def test_kernel_block_ends_at_its_first_failing_step():
    # row 0 jumps past the NaN region's edge at step 3, row 1 past the guard
    # at step 7; the unchecked steps run on to the end, and the failed block
    # check must end the block at step 3, with the steps before it exact
    model = DiffusionModel(lambda x: np.where(x > 10.0, np.nan, 0.0), 1.0)
    cfg = _cfg(step=1.0, horizon=12.0, blowup_guard=1e9)
    z = np.zeros((12, 4))
    z[2, 0], z[6, 1] = 100.0, 1e12
    T = np.zeros((13, 4))
    assert simulator._euler_block(model, cfg, T, z) == (3, None)
    assert T[3].tolist() == [100.0, 0.0, 0.0, 0.0]
    with pytest.raises(EvaluationError, match=r"x=np.float64\(100.0\)"):
        simulator._euler_block(model, cfg, T[3:], z[3:])


@pytest.mark.parametrize("driver", ["hitting", "regeneration"])
def test_blowup_past_the_guard_warns_nothing(driver):
    # Euler on -x^3 from 100 with step 1e-3 swings to -900, 7.3e5, then
    # -3.9e14, past the guard (never crossing the target 1e6), and would
    # overflow two steps later; the unchecked steps of the block go that
    # far, and no RuntimeWarning may show for it
    model = DiffusionModel(lambda x: -x ** 3, 1.0, label="cubic")
    cfg = _cfg(horizon=10.0, replicas=50, initial=100.0)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NumericalBlowupError,
                           match=r"cubic: \|X\| exceeded guard 1e\+09"):
            if driver == "hitting":
                estimate_hitting_moments(model, cfg, 100.0, 1e6, (1,))
            else:
                simulate_paths(model, cfg, INDICATOR)
    assert [str(w.message) for w in seen] == []


def test_a_warning_drift_warns_and_steps_as_its_silent_twin():
    # tanh(exp(1000 x)) overflows in exp for x > 0.71, with a RuntimeWarning,
    # but is 1.0 there, as is tanh(exp(700)): the blocks where it warns are
    # stepped checked, so the warning shows and the paths are the twin's
    warn = DiffusionModel(lambda x: -x * np.tanh(np.exp(1000.0 * x)), 1.0)
    twin = DiffusionModel(
        lambda x: -x * np.tanh(np.exp(np.minimum(1000.0 * x, 700.0))), 1.0)
    cfg = _cfg(horizon=5.0, replicas=64)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = simulate_paths(warn, cfg, INDICATOR)
    assert any("overflow" in str(w.message) for w in seen)
    assert _batch_bytes(got) == _batch_bytes(simulate_paths(twin, cfg,
                                                            INDICATOR))


NAN_BELOW = lambda x: np.where(x < -0.3, np.nan, -x)
AFTER_HIT = {
    # crossing: E T of the hit of 0 from x0 = 0.5 under a drift that is NaN
    # below -0.3.  Only replicas that have hit get there; a replica steps on
    # to the end of its kernel block after its hit, and a check that fails
    # there must raise nothing and change nothing.  Recorded with each
    # replica dropped at its hit (rel=1e-12: see the pinned values below).
    "interpolate": 0.7945897946457603,
    "bridge": 0.7070990939657583,
}


@pytest.mark.parametrize("crossing", sorted(AFTER_HIT))
def test_step_checks_after_a_hit_raise_nothing(crossing):
    model = DiffusionModel(NAN_BELOW, ONE, label="nan-below")
    cfg = _cfg(step=5e-3, horizon=10.0, replicas=500, seed=3, initial=0.5,
               crossing=crossing)
    # underflow too: the bridge test takes exp only where it can fire
    with np.errstate(all="raise"):
        est, = estimate_hitting_moments(model, cfg, 0.5, 0.0, (1,))
    assert est.estimate == pytest.approx(AFTER_HIT[crossing], rel=1e-12)


def _full_bridge_test(x0, x1, lvl, s2, u, h):
    """The crossing mask with the bridge test evaluated on every entry."""
    d0, d1 = x0 - lvl, x1 - lvl
    crossed = d0 * d1 <= 0.0
    arg = -2.0 * d0 * d1 / (s2 * h)
    return crossed | ((~crossed) & (u < np.exp(np.minimum(arg, 0.0))))


def test_bridge_screen_matches_the_full_test():
    # the bridge test runs only where d0 d1 < 20 s2 h or u < 1e-17; its
    # mask must be the full test's, bit for bit
    h, K, n = 1e-3, 3, 12
    rng = np.random.default_rng(4)
    s2_entries = rng.uniform(0.25, 4.0, (K, n))
    for s2 in (1.0, s2_entries):
        s2h = np.broadcast_to(s2 * h, (K, n))
        T = rng.normal(0.0, 0.1, (K + 1, n))    # sign changes, near steps
        U = rng.random((K, n))
        T[0, 0] = 0.0                            # d0 = 0
        T[2, 1] = 0.0                            # d1 = 0, then d0 = 0
        # (d1 for d0 = +-1, u) at step 0 of columns 2 on: d0 d1 just below
        # and just above 20 s2 h (arg ~ -40), arg ~ -37, far steps (arg ~
        # -100, where u = 0 fires), above the level and below it
        cases = [
            (np.nextafter(20.0 * s2h[0, 2], 0.0), 4e-18),
            (np.nextafter(20.0 * s2h[0, 3], 1.0), 4e-18),
            (np.nextafter(20.0 * s2h[0, 4], 1.0), 5e-18),
            (18.5 * s2h[0, 5], 5e-17),
            (50.0 * s2h[0, 6], 0.0),
            (50.0 * s2h[0, 7], 5e-18),
            (-50.0 * s2h[0, 8], 0.0),
        ]
        for col, (d1, u) in enumerate(cases, start=2):
            sign = -1.0 if d1 < 0 else 1.0
            T[0, col], T[1, col], U[0, col] = sign, d1, u
        want = _full_bridge_test(T[:-1], T[1:], 0.0, s2, U, h)
        assert want[0, 2:9].tolist() == [True, True, False, True, True,
                                         False, True]
        d0, d1, crossed, fired = simulator._crossing_tests(T, 0.0, s2, U, h)
        assert np.array_equal(fired, want)
        assert crossed.tobytes() == (d0 * d1 <= 0.0).tobytes()
        assert d0.tobytes() == T[:-1].tobytes()
        assert d1.tobytes() == T[1:].tobytes()
        # the per-step call of a max_cycles run: per-row levels and sigma^2
        level = np.zeros(n)
        for k in range(K):
            s2_k = s2 if np.ndim(s2) == 0 else s2[k]
            got = simulator._crossing_tests(T[k:k + 2], level, s2_k,
                                            U[k:k + 1], h)[3]
            assert np.array_equal(got[0], want[k])


def _batch_bytes(batch) -> list:
    """Every number of a BatchResult, bit for bit (nan included)."""
    arrays = [batch.checkpoints, batch.additive_at]
    for s in batch.samples:
        arrays += [s.r_times, s.s_times, s.cycle_integrals,
                   np.array([s.first_block, s.n_t, s.additive_integral])]
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def test_monte_carlo_matches_recursion_fifth_point():
    # one more grid point for the analytic-vs-simulated agreement, at
    # desk scale (the four heavy points live in the acceptance suite)
    from ergodiff.kac import hitting_moment_table
    m = ou(1.0)
    x0 = 0.75
    tbl = hitting_moment_table(m, 0.0, "from_above", np.array([x0]), 2)
    cfg = _cfg(replicas=20000, horizon=25.0, initial=x0, crossing="bridge",
               seed=31)
    ests = estimate_hitting_moments(m, cfg, x0, 0.0, (1, 2))
    for k, est in zip((1, 2), ests):
        assert abs(est.estimate - tbl.order(k)[0]) <= 3.0 * est.stderr


def test_deviation_prob_trend_in_t():
    # empirical deviation frequencies fall with t, up to confidence slack
    m = ou(1.0)
    cfg = _cfg(replicas=400, horizon=60.0)
    batch = simulate_paths(m, cfg, INDICATOR, checkpoints=[10.0, 60.0])
    emp = estimate_deviation_prob(batch, [0.1], mu_f=0.5205)
    slack = emp.halfwidth[0, 0] + emp.halfwidth[1, 0]
    assert emp.freq[1, 0] <= emp.freq[0, 0] + slack


def test_deviation_prob_impossible_epsilon():
    m = ou(1.0)
    cfg = _cfg(replicas=120, horizon=10.0)
    batch = simulate_paths(m, cfg, INDICATOR, checkpoints=[5.0, 10.0])
    emp = estimate_deviation_prob(batch, [0.5, 2.5], mu_f=0.5205)
    assert np.all(emp.freq[:, 1] == 0.0)  # eps > 2 sup|f| is impossible


def test_deviation_prob_validation():
    m = ou(1.0)
    with pytest.raises(ConfigError):
        estimate_deviation_prob(simulate_paths(
            m, _cfg(replicas=120, horizon=5.0), INDICATOR), [0.1], 0.5)
    with pytest.raises(ConfigError):
        estimate_deviation_prob(simulate_paths(
            m, _cfg(replicas=120, horizon=5.0), INDICATOR, checkpoints=[10.0]),
            [0.1], 0.5)
    with pytest.raises(ConfigError):
        estimate_deviation_prob(simulate_paths(
            m, _cfg(replicas=10, horizon=5.0), INDICATOR, checkpoints=[5.0]),
            [0.1], 0.5)


def test_determinism_same_seed():
    m = ou(1.0)
    cfg = _cfg(replicas=300, horizon=10.0)
    b1 = simulate_paths(m, cfg, INDICATOR, checkpoints=[5.0, 10.0])
    b2 = simulate_paths(m, cfg, INDICATOR, checkpoints=[5.0, 10.0])
    assert np.array_equal(b1.additive_at, b2.additive_at)
    for s1, s2 in zip(b1.samples, b2.samples):
        assert np.array_equal(s1.r_times, s2.r_times)
        assert np.array_equal(s1.cycle_integrals, s2.cycle_integrals)


def test_replica_streams_are_prefix_stable():
    # replica r's path depends only on (seed, r): adding replicas must not
    # change existing ones
    m = ou(1.0)
    # both runs inside one RNG block, then runs that span two blocks
    for n_small, n_large, kw in (
            (40, 90, dict(horizon=8.0)),
            (4200, 4500, dict(step=5e-3, horizon=2.0, seed=3))):
        small = simulate_paths(m, _cfg(replicas=n_small, **kw), INDICATOR)
        large = simulate_paths(m, _cfg(replicas=n_large, **kw), INDICATOR)
        for s, l in zip(small.samples, large.samples[:n_small]):
            assert np.array_equal(s.r_times, l.r_times)
            assert s.additive_integral == l.additive_integral


def test_different_seed_changes_paths():
    m = ou(1.0)
    b1 = simulate_paths(m, _cfg(replicas=20, horizon=5.0), INDICATOR)
    b2 = simulate_paths(m, _cfg(replicas=20, horizon=5.0, seed=10), INDICATOR)
    assert not all(np.array_equal(x.r_times, y.r_times)
                   for x, y in zip(b1.samples, b2.samples))


def test_nu_moment_estimate():
    est = nu_moment_estimate(InitialLaw.uniform(-1.0, 1.0), 1.0, n=40000)
    assert est.value == pytest.approx(0.5, abs=4 * est.se + 1e-3)



@pytest.mark.parametrize("seed", [9, 10, 11])
def test_invariant_average_se_keeps_cycle_covariance(seed):
    # with f = 1 the cycle integral is the cycle length, so mu_f = 1 and the
    # ratio estimator's error is far below that of treating the cycle mean
    # and the cycle rate as independent
    m = ou(1.0)
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    est = estimate_constants(simulate_paths(
        m, _cfg(replicas=64, horizon=60.0, seed=seed), one), 2.0)
    independent = math.hypot(est.mean_cycle_time.se * est.l_hat.value,
                             est.mean_cycle_time.value * est.l_hat.se)
    assert est.mu_f_hat.se < 0.5 * independent


# Simulator outputs recorded with the lane noise layout (ergodiff 0.1.0,
# x86-64, NumPy 2.4); they pin the paths across versions, where criterion 9
# only compares reruns of one version.  rel=1e-12 leaves room for ulp-level
# differences in exp between CPUs and libms.
PINNED_HITTING = {
    # (crossing, x0): (E T, its stderr, E T^2, replicas used)
    ("interpolate", 0.5): (0.7382907138488997, 0.011905570632724667,
                           1.2794464546205455, 4500),
    ("interpolate", 0.0): (3.1678451900602456, 0.03968890244026017,
                           16.524122210280694, 4026),
    ("bridge", 0.5): (0.6730585773862916, 0.012042681658090092,
                      1.0927186600820502, 4500),
    ("bridge", 0.0): (3.027554712958039, 0.03912885549362386,
                      15.492368650521074, 4115),
}
PINNED_REGENERATION = {
    # (crossing, run): (sum r_times, sum cycle_integrals, sum additive_at,
    #                   sum of finite first_block)
    ("interpolate", "checkpoints"): (3575.2197874144476, 679.4001494286049,
                                     2424.9899999999616, 543.9048090249223),
    ("interpolate", "max_cycles"): (2398.5598806322564, 436.9817333309296,
                                    0.0, 543.9048090249223),
    ("bridge", "checkpoints"): (3849.123178946139, 734.521612923747,
                                2424.9899999999616, 505.4415719995029),
    ("bridge", "max_cycles"): (2317.8755222731215, 425.672622308767,
                               0.0, 505.4415719995029),
}


@pytest.mark.parametrize("key", sorted(PINNED_HITTING),
                         ids=lambda k: f"{k[0]}-x0={k[1]:g}")
def test_pinned_hitting_outputs(key):
    # 4500 replicas: one full RNG block and a partial one; x0 = 0 is the
    # hit of -1 (about a tenth censored), x0 = 0.5 the hit of 0
    crossing, x0 = key
    cfg = _cfg(step=5e-3, horizon=10.0, replicas=4500, seed=21,
               crossing=crossing)
    target = -1.0 if x0 == 0.0 else 0.0
    e1, e2 = estimate_hitting_moments(ou(1.0), cfg, x0, target, (1, 2))
    mean, se, second_moment, used = PINNED_HITTING[key]
    assert e1.estimate == pytest.approx(mean, rel=1e-12)
    assert e1.stderr == pytest.approx(se, rel=1e-12)
    assert e2.estimate == pytest.approx(second_moment, rel=1e-12)
    assert e1.n_used == used


@pytest.mark.parametrize("key", sorted(PINNED_REGENERATION), ids="-".join)
def test_pinned_regeneration_outputs(key):
    crossing, run = key
    cfg = _cfg(step=5e-3, horizon=10.0, replicas=300, seed=22,
               crossing=crossing)
    kw = dict(checkpoints=[5.0, 10.0]) if run == "checkpoints" \
        else dict(max_cycles=2)
    batch = simulate_paths(ou(1.0), cfg, INDICATOR, **kw)
    fb = np.array([s.first_block for s in batch.samples])
    got = (np.sum(np.concatenate([s.r_times for s in batch.samples])),
           np.sum(np.concatenate([s.cycle_integrals for s in batch.samples])),
           np.sum(batch.additive_at), np.sum(fb[np.isfinite(fb)]))
    assert got == pytest.approx(PINNED_REGENERATION[key], rel=1e-12)


class _RowCounter(np.random.Generator):
    """A lane's Generator, on the same bit generator, that records how many
    rows each draw fills."""

    def __init__(self, gen, rows: list):
        super().__init__(gen.bit_generator)
        self._rows = rows

    def standard_normal(self, *, out):
        self._rows.append(out.shape[0])
        return super().standard_normal(out=out)

    def random(self, *, out):
        self._rows.append(out.shape[0])
        return super().random(out=out)


def _count_lane_draws(monkeypatch) -> tuple[list, list]:
    """Record the lane and the rows of every lane refill of every noise
    stream from now on."""
    draws, rows = [], []
    real = simulator._lane_stream

    def counted(*args):
        seek = real(*args)

        def counted_seek(lane, chunk):
            draws.append(lane)
            return _RowCounter(seek(lane, chunk), rows)

        return counted_seek

    monkeypatch.setattr(simulator, "_lane_stream", counted)
    return draws, rows


def _draw_all_lanes(monkeypatch):
    """Make every chunk refill every lane of the block, live or not."""
    real = simulator._noise
    monkeypatch.setattr(
        simulator, "_noise", lambda cfg, block, n_rep, _, noise: real(
            cfg, block, n_rep, lambda: np.arange(n_rep), noise))


@pytest.mark.parametrize("crossing", CROSSING_RULES)
def test_live_lanes_draw_gives_the_all_lanes_hitting_outputs(monkeypatch,
                                                             crossing):
    # 4500 replicas: a full RNG block, then a partial one that ends in a
    # partial lane
    assert (4500 - simulator._BLOCK) % simulator._LANE
    cfg = _cfg(step=5e-3, horizon=10.0, replicas=4500, seed=21,
               crossing=crossing)
    args = (ou(1.0), cfg, 0.5, 0.0, (1, 2))
    draws, rows = _count_lane_draws(monkeypatch)
    live = estimate_hitting_moments(*args)
    n_live, rows_live = len(draws), sum(rows)
    _draw_all_lanes(monkeypatch)
    assert estimate_hitting_moments(*args) == live
    assert n_live < (len(draws) - n_live) / 2
    # a lane drawn to its end fills _LANE rows (the block's last, partial
    # lane fewer); a lane drawn to its last live row fills fewer still
    assert 0 < rows_live < (simulator._LANE - 0.5) * n_live


def test_live_lanes_draw_gives_the_all_lanes_first_block_constants(
        monkeypatch):
    # rows leave at their first regeneration, so later chunks draw only the
    # lanes that still hold one
    cfg = _cfg(step=0.02, horizon=40.0, replicas=300, seed=5)
    args = (ou(1.0), cfg, INDICATOR)
    draws, _ = _count_lane_draws(monkeypatch)
    live = _batch_bytes(simulate_paths(*args, max_cycles=1))
    n_live = len(draws)
    _draw_all_lanes(monkeypatch)
    assert _batch_bytes(simulate_paths(*args, max_cycles=1)) == live
    assert n_live < len(draws) - n_live


@pytest.mark.parametrize("crossing", CROSSING_RULES)
def test_one_buffer_allocation_per_call(monkeypatch, crossing):
    # 4500 replicas: a full RNG block, then a partial one, both drawing into
    # the buffers allocated once for the call
    assert simulator._BLOCK < 4500 < 2 * simulator._BLOCK
    calls = []
    real = simulator._buffers

    def counted(cfg, width, count):
        calls.append(width)
        return real(cfg, width, count)

    monkeypatch.setattr(simulator, "_buffers", counted)
    cfg = _cfg(step=5e-3, horizon=2.0, replicas=4500, seed=3,
               crossing=crossing)
    estimate_hitting_moments(ou(1.0), cfg, 0.5, 0.0, (1,))
    assert calls == [simulator._BLOCK]
    simulate_paths(ou(1.0), cfg, INDICATOR)
    assert calls == [simulator._BLOCK] * 2


def _hitting_times(replicas: int, crossing: str) -> np.ndarray:
    cfg = _cfg(step=5e-3, horizon=10.0, replicas=replicas, seed=21,
               crossing=crossing)
    buffers = simulator._buffers(cfg, min(simulator._BLOCK, replicas), 2)
    return np.concatenate([
        simulator._hit_block(ou(1.0), cfg, 0.5, 0.0, block, n_rep, buffers)
        for block, n_rep in simulator._block_layout(replicas)])


@pytest.mark.parametrize("crossing", CROSSING_RULES)
def test_replica_hitting_time_does_not_depend_on_replica_count(crossing):
    # 10 replicas end in a partial lane, 4500 in a partial lane of the second
    # block, 6144 in a full lane of it
    t10, t4500, t6144 = (_hitting_times(n, crossing) for n in (10, 4500, 6144))
    assert np.array_equal(t10, t4500[:10], equal_nan=True)
    assert np.array_equal(t4500, t6144[:4500], equal_nan=True)


def _regeneration_run(crossing: str, run: str):
    cfg = _cfg(step=5e-3, horizon=10.0, replicas=300, seed=22,
               crossing=crossing)
    kw = dict(checkpoints=[2.5, 5.0, 10.0]) if run == "checkpoints" \
        else dict(max_cycles=int(run[-1]))
    return _batch_bytes(simulate_paths(ou(1.0), cfg, INDICATOR, **kw))


def _hitting_run(crossing: str, run: str):
    # 4500 replicas: two RNG blocks
    cfg = _cfg(step=5e-3, horizon=10.0, replicas=4500, seed=21,
               crossing=crossing)
    return estimate_hitting_moments(ou(1.0), cfg, 0.5, 0.0, (1, 2))


BLOCK_LENGTH_RUNS = {
    "checkpoints": _regeneration_run, "max_cycles=1": _regeneration_run,
    "max_cycles=2": _regeneration_run, "one barrier": _hitting_run,
}


@pytest.mark.parametrize("run", list(BLOCK_LENGTH_RUNS))
@pytest.mark.parametrize("crossing", CROSSING_RULES)
def test_kernel_block_length_changes_no_output(monkeypatch, crossing, run):
    # one step per kernel block, then one whole noise chunk per block (for
    # every block width here), must give the default blocks' outputs
    want = BLOCK_LENGTH_RUNS[run](crossing, run)
    monkeypatch.setattr(simulator, "_MIN_STEPS", 1)
    for cells, steps in ((1, 1), (simulator._CHUNK * simulator._BLOCK,
                                  simulator._CHUNK)):
        monkeypatch.setattr(simulator, "_CELLS", cells)
        assert {simulator._block_len(width, simulator._CHUNK)
                for width in (1, simulator._BLOCK)} == {steps}
        assert BLOCK_LENGTH_RUNS[run](crossing, run) == want
