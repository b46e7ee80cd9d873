"""Command-line orchestration.

Subcommands:
    model      recurrence classification, speed mass, assumption report
    moments    hitting-moment table with the closed-form bound overlay
    deviation  empirical deviation frequencies joined with the bounds
    selftest   quick internal consistency checks

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 a bound was
violated beyond its confidence slack.  Every output file starts with a
header line carrying the config hash and the tool version; identical config
and seed reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import (DeviationConstants, DeviationReport, MomentBoundParams,
                     default_bdg_constant, ergodic_bound_l1,
                     ergodic_bound_sup, moment_lower_bound,
                     moment_upper_bound, p_star_bracket,
                     upper_bound_order_limit, lower_bound_order_limit)
from .config import ExperimentConfig, load_config
from .errors import (ConfigError, ErgodiffError, InconsistentParamsError,
                     RangeError)
from .kac import first_block_sup, hitting_moment_table, simultaneity_check
from .simulator import (Estimate, _check_deviation_grid, estimate_constants,
                        estimate_deviation_prob, simulate_paths)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3

_CLASS_DISPLAY = {
    "transient": "Transient",
    "null_recurrent": "NullRecurrent",
    "positive_recurrent": "PositiveRecurrent",
}


def _header(cfg: ExperimentConfig) -> str:
    seed = cfg.sim.seed if cfg.sim else "-"
    return (f"# config={cfg.config_hash} version={__version__} "
            f"seed={seed} model={cfg.label}")


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _fmt(x) -> str:
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x)) if isinstance(x, float) else str(x)


def _probe_grid(cfg: ExperimentConfig) -> np.ndarray:
    """The points |x| > m0 at which the assumption envelopes are checked:
    401 a side, geometric from m0 to 1000 m0."""
    m0 = cfg.assumptions.m0
    half = np.geomspace(m0 * (1 + 1e-9), 1000.0 * m0, 401)
    return np.concatenate([-half[::-1], half])


def cmd_model(cfg: ExperimentConfig) -> int:
    report = cfg.model.classify_recurrence()
    lines = [_header(cfg)]
    mass = "inf" if math.isinf(report.speed_mass) else f"{report.speed_mass:.6g}"
    cls = _CLASS_DISPLAY[report.classification]
    sr, sl, mr, ml = (f"{p:.4g}" for p in report.tail_powers)
    summary = (f"{cls}, M={mass} (numerical; endpoint powers right/left: "
               f"s {sr}/{sl}, m {mr}/{ml})")
    lines.append(summary)

    if cfg.assumptions is not None:
        rep = cfg.model.check_assumptions(cfg.assumptions, _probe_grid(cfg))
        for chk in rep.checks:
            lines.append(f"assumption {chk.name}: "
                         f"{'pass' if chk.passed else 'FAIL'} "
                         f"(worst at x={chk.worst_x:.6g}, margin={chk.margin:.3g})")
        if rep.p_star_bracket is not None:
            try:
                lo, hi_b = p_star_bracket(cfg.assumptions)
                lines.append(f"tail exponent bracket: [{lo:.6g}, {hi_b:.6g}]")
            except InconsistentParamsError as exc:
                lines.append(f"tail exponent bracket: inconsistent ({exc})")

    path = _out_path(cfg, "model_report.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(summary)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_moments(cfg: ExperimentConfig) -> int:
    if cfg.target is None or cfg.x_grid.size == 0:
        raise ConfigError("[experiment] moments needs target= and x_grid=")
    table = hitting_moment_table(cfg.model, cfg.target, cfg.side,
                                 cfg.x_grid, cfg.orders)
    path = _out_path(cfg, "moments.csv")
    table.to_csv(path, header=_header(cfg))
    print(f"wrote {path}")
    check = simultaneity_check(table) if cfg.x_grid.size >= 3 else None
    if check is not None and not check.ok:
        print("warning: finiteness not uniform across the grid "
              "(numerical inconsistency)")

    overlay = cfg.assumptions is not None and cfg.assumptions.has_lower \
        and cfg.assumptions.has_upper
    if overlay and cfg.side == "from_below":
        print("bound overlay skipped: its bounds need x >= target "
              "(side = from_above)")
    elif overlay:
        order = cfg.bound_order if cfg.bound_order is not None else 1
        if order > table.orders:
            raise ConfigError(f"bound_order {order} exceeds table orders")
        ub_lim = upper_bound_order_limit(cfg.assumptions)
        lb_lim = lower_bound_order_limit(cfg.assumptions)
        if not 1 <= order < ub_lim:
            raise RangeError(
                f"order {order} inadmissible for the upper bound; "
                f"admissible range is [1, {ub_lim:g})")
        mb = MomentBoundParams.from_assumptions(cfg.assumptions, order)
        # the bounds hold only where the envelopes hold and m0 < target < x
        rep = cfg.model.check_assumptions(cfg.assumptions, _probe_grid(cfg))
        failed = [f"{c.name} fails" for c in rep.checks if not c.passed]
        m0 = cfg.assumptions.m0
        bpath = _out_path(cfg, "moment_bounds.csv")
        marked = 0
        with open(bpath, "w", newline="") as fh:
            fh.write(_header(cfg) + "\n")
            w = csv.writer(fh)
            w.writerow(["x", "lower", "value", "upper"])
            for x, v in zip(table.x_grid, table.values[order]):
                reasons = failed if m0 < cfg.target < x \
                    else failed + ["needs m0 < target < x"]
                if reasons:
                    lower = upper = "inadmissible: " + "; ".join(reasons)
                    marked += 1
                else:
                    lower = _fmt(moment_lower_bound(mb, float(x), cfg.target)
                                 if order <= lb_lim else math.inf)
                    upper = _fmt(moment_upper_bound(mb, float(x)))
                w.writerow([_fmt(float(x)), lower, _fmt(float(v)), upper])
        print(f"wrote {bpath}")
        if marked:
            print(f"bound overlay: {marked} of {table.x_grid.size} rows "
                  "inadmissible")
    return EXIT_OK


def bound_violated(report: DeviationReport) -> bool:
    """True when a sub-unit bound is exceeded beyond the confidence slack."""
    if math.isnan(report.bound_value) or report.bound_value >= 1.0:
        return False
    return report.empirical_prob \
        > report.bound_value + report.empirical_halfwidth


def _mu_values(cfg: ExperimentConfig) -> tuple[float, float]:
    """(mu(f), mu(|f|)) by quadrature against the invariant density.

    Compactly supported f integrates over its support; otherwise a window of
    five regeneration widths around [a, b] is used and invariant mass outside
    it is neglected (set mu_f explicitly when that matters).
    """
    f = cfg.f
    if f.support is not None:
        lo, hi = f.support
    else:
        span = 5.0 * (cfg.sim.b - cfg.sim.a)
        lo, hi = cfg.sim.a - span, cfg.sim.b + span
    mu_f = cfg.model.mu_integral(f.fn, lo, hi)
    mu_abs = cfg.model.mu_integral(lambda x: np.abs(np.asarray(f.fn(x))),
                                   lo, hi)
    return mu_f, mu_abs


def cmd_deviation(cfg: ExperimentConfig) -> int:
    if cfg.sim is None:
        raise ConfigError("deviation needs a [sim] section")
    if cfg.f is None:
        raise ConfigError("deviation needs f= in [experiment]")
    _check_deviation_grid(cfg.sim, cfg.t_grid, cfg.eps_grid)
    p = cfg.p
    if not p > 1:
        raise ConfigError(f"[experiment] p must be > 1, got {p:g}")
    c_p = cfg.bdg_constant if cfg.bdg_constant is not None \
        else default_bdg_constant(p)

    if cfg.mu_f is not None:
        mu_f = cfg.mu_f
        mu_abs = abs(cfg.mu_f)
    else:
        mu_f, mu_abs = _mu_values(cfg)
    # the L1 bound's cycle-integral constant, exact; it needs a compact supp f
    c_f = math.nan if cfg.f.support is None else first_block_sup(
        cfg.model, cfg.sim.a, cfg.sim.b, cfg.f.fn, cfg.f.support)

    # with one SimConfig for both estimators, one run serves both: the
    # checkpoints only read the running integral, not the paths
    batch = None
    if cfg.constants_replicas in (None, cfg.sim.replicas):
        const_cfg = cfg.sim
        batch = simulate_paths(cfg.model, cfg.sim, cfg.f.fn,
                               checkpoints=cfg.t_grid)
    else:
        const_cfg = replace(cfg.sim, replicas=cfg.constants_replicas)
    est = estimate_constants(cfg.model, const_cfg, cfg.f.fn, p, batch=batch)
    consts = DeviationConstants(
        l=est.l_hat.value, p=p, c_p=c_p,
        r1_centered_halfp=est.r1_centered_halfp.value,
        r1_halfp=est.r1_halfp.value,
        eta_p=est.eta_p.value,
        r1_p_at_a=est.r1_p_at_a.value,
        cycle_gap_p=est.cycle_gap_p.value,
    )
    # moment inputs shifted +1 SE: the "bound uncertainty" annotation
    consts_hi = DeviationConstants(
        l=est.l_hat.value, p=p, c_p=c_p,
        r1_centered_halfp=est.r1_centered_halfp.value
        + est.r1_centered_halfp.se,
        r1_halfp=est.r1_halfp.value + est.r1_halfp.se,
        eta_p=est.eta_p.value + est.eta_p.se,
        r1_p_at_a=est.r1_p_at_a.value + est.r1_p_at_a.se,
        cycle_gap_p=est.cycle_gap_p.value + est.cycle_gap_p.se,
    )

    cpath = _out_path(cfg, "constants.csv")
    with open(cpath, "w", newline="") as fh:
        fh.write(_header(cfg) + "\n")
        w = csv.writer(fh)
        w.writerow(["name", "value", "stderr"])
        rows = [("l_hat", est.l_hat), ("mean_cycle_time", est.mean_cycle_time),
                ("r1_centered_halfp", est.r1_centered_halfp),
                ("r1_halfp", est.r1_halfp), ("eta_p", est.eta_p),
                ("r1_p_at_a", est.r1_p_at_a),
                ("cycle_gap_p", est.cycle_gap_p), ("c_f", c_f),
                ("mu_f_hat", est.mu_f_hat), ("mu_f_used", mu_f),
                ("mu_abs_f_used", mu_abs), ("bdg_constant", c_p)]
        for name, v in rows:     # exact values have no stderr
            w.writerow([name, _fmt(v.value), _fmt(v.se)]
                       if isinstance(v, Estimate) else [name, _fmt(v), ""])

    emp = estimate_deviation_prob(cfg.model, cfg.sim, cfg.f.fn,
                                  cfg.t_grid, cfg.eps_grid, mu_f, batch=batch)

    reports: list[DeviationReport] = []
    uncertainty: list[float] = []
    for kind in cfg.bound_kinds:
        for j, eps in enumerate(emp.eps_grid):
            for i, t in enumerate(emp.t_grid):
                try:
                    if kind == "sup":
                        br = ergodic_bound_sup(consts, float(t), float(eps),
                                               cfg.f.sup)
                        hi = ergodic_bound_sup(consts_hi, float(t),
                                               float(eps), cfg.f.sup)
                    else:
                        if cfg.f.support is None:
                            raise RangeError(
                                "L1 bound needs a compactly supported f")
                        br = ergodic_bound_l1(consts, float(t), float(eps),
                                              mu_abs, c_f, int(p))
                        hi = ergodic_bound_l1(consts_hi, float(t), float(eps),
                                              mu_abs, c_f, int(p))
                    bound, terms, regime = br.total, br.terms, br.regime
                    bound_hi = hi.total
                except RangeError as exc:
                    bound = bound_hi = math.nan
                    terms = {}
                    regime = f"inadmissible: {exc}"
                reports.append(DeviationReport(
                    t=float(t), eps=float(eps),
                    empirical_prob=float(emp.freq[i, j]),
                    empirical_halfwidth=float(emp.halfwidth[i, j]),
                    bound_value=bound, terms=terms, regime=regime,
                    kind=kind))
                uncertainty.append(bound_hi)

    dpath = _out_path(cfg, "deviation.csv")
    ppath = _out_path(cfg, "deviation_plot.dat")
    violation = False
    with open(dpath, "w", newline="") as fh, open(ppath, "w") as ph:
        fh.write(_header(cfg) + "\n")
        ph.write(_header(cfg) + "\n")
        w = csv.writer(fh)
        w.writerow(["t", "eps", "empirical", "halfwidth", "bound",
                    "term_a", "term_b", "term_c", "term_d",
                    "bound_plus_se", "regime", "kind"])
        last_key = None
        for rep, bound_hi in zip(reports, uncertainty):
            key = (rep.kind, rep.eps)
            if key != last_key:
                if last_key is not None:
                    ph.write("\n")
                ph.write(f"# kind={rep.kind} eps={rep.eps:g}  "
                         "(t empirical bound)\n")
                last_key = key
            nan_b = math.isnan(rep.bound_value)
            w.writerow([
                _fmt(rep.t), _fmt(rep.eps), _fmt(rep.empirical_prob),
                _fmt(rep.empirical_halfwidth),
                "nan" if nan_b else _fmt(rep.bound_value),
                _fmt(rep.terms.get("A", math.nan)),
                _fmt(rep.terms.get("B", math.nan)),
                _fmt(rep.terms.get("C", math.nan)),
                _fmt(rep.terms.get("D", math.nan)),
                "nan" if math.isnan(bound_hi) else _fmt(bound_hi),
                rep.regime, rep.kind,
            ])
            btxt = "nan" if nan_b else _fmt(rep.bound_value)
            ph.write(f"{_fmt(rep.t)} {_fmt(rep.empirical_prob)} {btxt}\n")
            violation = violation or bound_violated(rep)
        ph.write("\n")
    print(f"wrote {cpath}")
    print(f"wrote {dpath}")
    print(f"wrote {ppath}")
    if violation:
        print("bound violation detected (empirical exceeds a sub-unit bound "
              "beyond confidence slack)")
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_selftest() -> int:
    """Fast internal checks; prints one line per check."""
    from .bounds import tail_power_integral, head_power_integral
    from .diffusion import brownian, ou
    from .kac import mean_exit_time
    from .quadrature import integrate_finite
    from .simulator import SimConfig

    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    r = integrate_finite(lambda x: x ** 2, 0.0, 1.0)
    check("quadrature x^2 on [0,1]", abs(r.value - 1.0 / 3.0) < 1e-10)

    bm = brownian()
    xs = np.linspace(0.0, 1.0, 9)
    errs = [abs(mean_exit_time(bm, 0.0, 1.0, float(x)) - x * (1 - x))
            for x in xs]
    check("driftless exit oracle", max(errs) < 1e-8)

    rng = np.random.default_rng(0)
    ok = True
    for _ in range(25):
        q = rng.uniform(1.5, 6.0)
        pp = rng.uniform(0.0, q - 1.2)
        a = rng.uniform(0.1, 3.0)
        x = a + rng.uniform(0.0, 3.0)
        br = tail_power_integral(pp, q, x, a)
        ok = ok and br.lower <= br.value <= br.upper
        qq = rng.uniform(-2.0, pp + 0.8)
        br = head_power_integral(pp, qq, x, a)
        ok = ok and br.lower <= br.value <= br.upper
    check("tail-integral brackets (randomized)", ok)

    m = ou(1.0)
    cfg = SimConfig(step=2e-3, horizon=80.0, replicas=40, seed=123,
                    a=-0.5, b=0.5, initial=0.0)
    est = estimate_constants(
        m, cfg, lambda x: np.where(np.abs(x) <= 0.5, 1.0, 0.0), 2.0)
    prod = est.l_hat.value * est.mean_cycle_time.value
    check("cycle-rate identity l*E_a R1 ~ 1", abs(prod - 1.0) < 0.1)

    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergodiff",
        description="Hitting-time moments, deviation bounds and regenerative "
                    "Monte Carlo for one-dimensional ergodic diffusions.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("model", "moments", "deviation"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--replicas", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", type=float, default=None)
    sub.add_parser("selftest")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        cfg = load_config(args.config, seed=args.seed, replicas=args.replicas,
                          tol=args.tol, out=args.out)
        if args.command == "model":
            return cmd_model(cfg)
        if args.command == "moments":
            return cmd_moments(cfg)
        return cmd_deviation(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RangeError as exc:
        print(f"inadmissible request: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ErgodiffError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
