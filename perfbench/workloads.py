"""The three benchmark workloads: inputs built from the seed, the op
sequence, and one correctness check per op.

Ops call only public names (the ``ergodiff`` package namespace, plus
``ergodiff.cli.main`` and ``ergodiff.errors``), looked up when the op runs so
that the tracer's wrappers are seen.  Checks compare against ``oracle.json``
(see ``oracle.py``) or closed forms, never against ergodiff itself.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import ergodiff as E
import ergodiff.cli
import ergodiff.errors

HERE = Path(__file__).resolve().parent
CLI_CONFIG = HERE / "cli_config.ini"

ORDER1_RTOL = 1e-6
EXIT_ATOL = 1e-6     # acceptance criterion 1's tolerance for x(1-x)
MC_Z = 4.0
HEADER_RE = re.compile(r"^# config=[0-9a-f]{12} ")


class CheckFailed(Exception):
    """An op returned, but its output is wrong.  ``tag`` names the check."""

    def __init__(self, message: str, tag: str = ""):
        super().__init__(message)
        self.tag = tag


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # a failure this predicate accepts is a documented defect of the code
    # under test: it counts as failed but does not make the run incorrect
    known_defect: Callable[[BaseException], bool] = field(
        default=lambda exc: False)


def _typed_error(exc: BaseException) -> bool:
    return isinstance(exc, ergodiff.errors.ErgodiffError)


def _bound_overlay(exc: BaseException) -> bool:
    return isinstance(exc, CheckFailed) and exc.tag == "bound_overlay"


def _rel_close(got, want, rtol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want) / np.abs(want)
    if not np.all(err <= rtol):
        raise CheckFailed(f"{what}: max rel err {np.max(err):.3g} > {rtol:g}")


def _verdicts(values: np.ndarray, threshold: float, what: str) -> None:
    """Order k is finite iff k < threshold, uniformly across the grid."""
    for k in range(1, values.shape[0]):
        finite = np.isfinite(values[k])
        if k < threshold:
            if not (np.all(finite) and np.all(values[k] > 0)):
                raise CheckFailed(f"{what}: order {k} should be finite and > 0")
        elif np.any(finite):
            raise CheckFailed(f"{what}: order {k} should be +inf")


def _poly_threshold(theta: float) -> float:
    # bounded_drift(theta): E T^k < inf iff k < (2 theta + 1) / 2
    return (2.0 * theta + 1.0) / 2.0


def _table_check(oracle: dict, key: str, n: int, threshold: float):
    ref = oracle[key]

    def check(tbl) -> None:
        values = np.asarray(tbl.values, dtype=float)
        if values.shape != (n + 1, len(ref["x"])):
            raise CheckFailed(f"{key}: table shape {values.shape}")
        if not np.all(values[0] == 1.0):
            raise CheckFailed(f"{key}: order 0 row is not 1")
        _verdicts(values, threshold, key)
        _rel_close(values[1], ref["values"], ORDER1_RTOL, key)

    return check


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, n]).generate_state(n)]


# -- moments-poly ---------------------------------------------------------------

def moments_poly(seed: int, oracle: dict, out_dir: Path) -> list[Op]:
    """Analytic layers only; inputs are fixed (the seed does not enter)."""
    ou = E.ou(1.0)  # shared by the cold and the warm op
    bd1, bd075, bd22 = E.bounded_drift(1.0), E.bounded_drift(0.75), E.bounded_drift(2.2)
    exit_model, bm = E.ou(1.0), E.brownian()
    exit_xs = np.linspace(-0.9, 0.9, 7)
    node_xs = np.linspace(0.0, 1.0, 33)

    def check_mean_exit(values) -> None:
        err = np.max(np.abs(np.asarray(values) - node_xs * (1.0 - node_xs)))
        if not err < EXIT_ATOL:
            raise CheckFailed(f"mean exit: max abs err {err:.3g}")

    return [
        Op("ou_table_cold",
           lambda: E.hitting_moment_table(ou, 0.0, "from_above",
                                          [0.5, 1.0, 1.5, 2.0], 2),
           _table_check(oracle, "ou1_cold_order1", 2, math.inf)),
        Op("ou_table_warm",
           lambda: E.hitting_moment_table(ou, 0.0, "from_above",
                                          [0.6, 1.1, 1.6, 2.1], 2),
           _table_check(oracle, "ou1_warm_order1", 2, math.inf)),
        Op("bd1_order1",
           lambda: E.hitting_moment_table(bd1, 12.0, "from_above",
                                          np.linspace(25.0, 100.0, 7), 1),
           _table_check(oracle, "bd1_order1", 1, _poly_threshold(1.0))),
        Op("bd075_order2",
           lambda: E.hitting_moment_table(bd075, 1.0, "from_above",
                                          [2.0, 3.0, 5.0], 2),
           _table_check(oracle, "bd075_order1", 2, _poly_threshold(0.75))),
        # raises InterpolationError at the seed commit (ROADMAP item 4)
        Op("bd22_order2",
           lambda: E.hitting_moment_table(bd22, 1.0, "from_above",
                                          [2.0, 3.0, 5.0], 2),
           _table_check(oracle, "bd22_order1", 2, _poly_threshold(2.2)),
           known_defect=_typed_error),
        Op("ou_exit_order3",
           lambda: E.exit_moment_table(exit_model, -1.0, 1.0, exit_xs, 3),
           _table_check(oracle, "ou1_exit_order1", 3, math.inf)),
        Op("bm_mean_exit",
           lambda: [E.mean_exit_time(bm, 0.0, 1.0, float(x)) for x in node_xs],
           check_mean_exit),
    ]


# -- hitting-mc -------------------------------------------------------------------

MC_STEP = 1e-3
MC_HORIZON = 25.0
MC_REPLICAS = 6144  # one full 4096-row RNG block plus a partial one


def hitting_mc(seed: int, oracle: dict, out_dir: Path) -> list[Op]:
    model = E.ou(1.0)
    cases = [(x0, crossing) for x0 in (0.5, 2.0)
             for crossing in ("bridge", "interpolate")]
    ops = []
    for (x0, crossing), op_seed in zip(cases, _seeds(seed, len(cases))):
        cfg = E.SimConfig(step=MC_STEP, horizon=MC_HORIZON,
                          replicas=MC_REPLICAS, seed=op_seed, a=-0.5, b=0.5,
                          initial=x0, crossing=crossing)
        ops.append(Op(
            f"hit_x{x0:g}_{crossing}",
            lambda cfg=cfg, x0=x0: E.estimate_hitting_moments(
                model, cfg, x0, 0.0, (1, 2)),
            _mc_check(oracle, x0, crossing)))
    return ops


def _mc_check(oracle: dict, x0: float, crossing: str):
    """Bridge crossing is unbiased: |z| <= 4 against the continuous oracle.

    Sign-change ("interpolate") detection hits late by O(sqrt h); its mean
    lies between the continuous oracle and the oracle with the target moved
    by the Broadie-Glasserman-Kou shift, so the band spans both, +-4 SE.
    """
    i = oracle["ou1_mc_order1"]["x"].index(x0)
    exact = [oracle[f"ou1_mc_order{k}"]["values"][i] for k in (1, 2)]
    shifted = [oracle[f"ou1_mc_shifted_order{k}"]["values"][i] for k in (1, 2)]

    def check(ests) -> None:
        if [e.order for e in ests] != [1, 2]:
            raise CheckFailed(f"orders {[e.order for e in ests]}")
        for e, lo, hi in zip(ests, exact, shifted):
            if crossing == "bridge":
                hi = lo
            if not (lo - MC_Z * e.stderr <= e.estimate <= hi + MC_Z * e.stderr):
                raise CheckFailed(
                    f"order {e.order}: {e.estimate:.6g} +- {e.stderr:.3g} "
                    f"outside [{lo:.6g}, {hi:.6g}] +- {MC_Z:g} SE")

    return check


# -- cli-pipeline -----------------------------------------------------------------

def cli_pipeline(seed: int, oracle: dict, out_dir: Path) -> list[Op]:
    """The README experiment as a user runs it, with the config's own seed.

    ``--seed`` does not enter: ``deviation`` runs its first-block simulations
    until the slowest of 200 replicas regenerates, so a per-run seed would
    add input-driven spread to the timings (about 20% measured)."""
    ini = configparser.ConfigParser(inline_comment_prefixes=("#",))
    ini.read(CLI_CONFIG)
    horizon = float(ini["sim"]["horizon"])
    if out_dir.exists():
        shutil.rmtree(out_dir)

    def command(name: str, outputs: list[str]):
        """Run one subcommand; returns its exit code and the named outputs
        (other files, such as a run manifest with timings, are not results)."""
        out = out_dir / name
        argv = [name, "--config", str(CLI_CONFIG), "--out", str(out)]

        def run() -> dict:
            with contextlib.redirect_stdout(io.StringIO()):
                code = ergodiff.cli.main(argv)
            files = {f: (out / f).read_bytes() for f in outputs
                     if (out / f).is_file()}
            return {"exit_code": code, "files": files, "expected": outputs}

        return run

    return [
        Op("cli_model", command("model", ["model_report.txt"]),
           _cli_check(_check_model)),
        # the bound overlay exceeds its lower bound at x=2 (ROADMAP item 5)
        Op("cli_moments", command("moments", ["moments.csv", "moment_bounds.csv"]),
           _cli_check(lambda files: _check_moments(files, oracle)),
           known_defect=_bound_overlay),
        Op("cli_deviation",
           command("deviation",
                   ["constants.csv", "deviation.csv", "deviation_plot.dat"]),
           _cli_check(lambda files: _check_deviation(files, horizon))),
    ]


def _cli_check(content_check):
    def check(result: dict) -> None:
        if result["exit_code"] != 0:
            raise CheckFailed(f"exit code {result['exit_code']}")
        files = result["files"]
        for name in result["expected"]:
            if name not in files:
                raise CheckFailed(f"{name} not written")
            first = files[name].decode().split("\n", 1)[0]
            if not HEADER_RE.match(first):
                raise CheckFailed(f"{name}: bad header {first!r}")
        content_check(files)

    return check


def _rows(data: bytes) -> list[list[str]]:
    lines = data.decode().splitlines()[1:]  # drop the config-hash header
    return list(csv.reader(lines))


def _check_model(files: dict) -> None:
    text = files["model_report.txt"].decode()
    if "PositiveRecurrent" not in text:
        raise CheckFailed("OU(1) not classified positive recurrent")


def _check_moments(files: dict, oracle: dict) -> None:
    rows = _rows(files["moments.csv"])[1:]
    ref = oracle["ou1_cold_order1"]
    order1 = [float(v) for x, k, v in rows if k == "1"]
    order2 = [float(v) for x, k, v in rows if k == "2"]
    _rel_close(order1, ref["values"], ORDER1_RTOL, "moments.csv order 1")
    if len(order2) != len(ref["x"]) or not all(map(math.isfinite, order2)):
        raise CheckFailed("moments.csv: order 2 should be finite")
    # last: the overlay rows must bracket the value unless marked inadmissible
    for row in _rows(files["moment_bounds.csv"])[1:]:
        if any("inadmissible" in cell for cell in row):
            continue
        x, lower, value, upper = (float(c) for c in row[:4])
        if not lower <= value <= upper:
            raise CheckFailed(f"moment_bounds.csv x={x:g}: not "
                              f"{lower:.6g} <= {value:.6g} <= {upper:.6g}",
                              tag="bound_overlay")


def _check_deviation(files: dict, horizon: float) -> None:
    consts = {row[0]: row[1:] for row in _rows(files["constants.csv"])[1:]}
    rate, rate_se = (float(v) for v in consts["l_hat"])
    cycle, cycle_se = (float(v) for v in consts["mean_cycle_time"])
    prod = rate * cycle
    # renewal edge effect: about one cycle length per horizon, either sign
    edge = 2.0 * cycle / horizon
    se = prod * math.hypot(rate_se / rate, cycle_se / cycle)
    if not abs(prod - 1.0) <= edge + MC_Z * se:
        raise CheckFailed(f"l_hat * mean_cycle_time = {prod:.4f}, "
                          f"|1 - prod| > {edge:.3f} + {MC_Z:g} * {se:.3g}")


WORKLOADS = {
    "moments-poly": moments_poly,
    "hitting-mc": hitting_mc,
    "cli-pipeline": cli_pipeline,
}
