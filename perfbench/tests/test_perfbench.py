"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the benchmark's entry module)

workloads, ORACLE = run.load_program()
import ergodiff as E  # noqa: E402  (from the checkout, via load_program)
import tracer  # noqa: E402

SEED = 3
# one op per workload, the cheaper ones, so the test stays short
SAMPLE_OPS = [("moments-poly", "bd1_order1"), ("moments-poly", "bm_mean_exit"),
              ("hitting-mc", "hit_x0.5_interpolate"),
              ("cli-pipeline", "cli_model")]


def _op(workload: str, name: str, oracle=ORACLE):
    ops = workloads.WORKLOADS[workload](SEED, oracle, run.OUT / workload)
    return next(op for op in ops if op.name == name)


@pytest.fixture(scope="module")
def traced_sample():
    plain = [run.run_op(_op(w, n)) for w, n in SAMPLE_OPS]
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = [run.run_op(_op(w, n), tr) for w, n in SAMPLE_OPS]
    finally:
        tr.uninstall()
    return plain, traced, tr


def test_traced_and_untraced_results_are_bitwise_identical(traced_sample):
    plain, traced, _ = traced_sample
    for a, b in zip(plain, traced):
        assert a.failure is None and b.failure is None, (a, b)
        assert a.digest == b.digest, a.name


def test_uninstall_restores_every_binding(traced_sample):
    assert E.hitting_moment_table.__module__ == "ergodiff.kac"
    assert not hasattr(E.hitting_moment_table, "__wrapped__")
    assert not hasattr(E.kac.integrate_finite, "__wrapped__")
    assert not hasattr(E.gridfn.Antiderivative.values, "__wrapped__")


def test_span_self_times_sum_to_inclusive_op_time(traced_sample):
    _, _, tr = traced_sample
    start = np.frombuffer(tr.start, dtype=np.int64)
    end = np.frombuffer(tr.end, dtype=np.int64)
    parent = np.frombuffer(tr.parent, dtype=np.int64)
    selfs = tr.self_ns()
    assert np.all(selfs >= 0)
    roots = np.nonzero(parent < 0)[0]
    assert [tr.layers[tr.name[i]] for i in roots] == \
        [f"op.{n}" for _, n in SAMPLE_OPS]
    root_of = np.empty(parent.size, dtype=np.int64)
    for i in range(parent.size):  # parents precede children
        root_of[i] = i if parent[i] < 0 else root_of[parent[i]]
    for r in roots:
        inside = root_of == r
        assert np.all(start[inside] >= start[r]) and np.all(end[inside] <= end[r])
        assert int(np.sum(selfs[inside])) == int(end[r] - start[r])


def test_regeneration_replica_steps_equal_replicas_times_steps():
    cfg = E.SimConfig(step=1e-3, horizon=2.0, replicas=30, seed=5,
                      a=-0.5, b=0.5, initial=0.0)
    f = lambda x: np.where(np.abs(x) <= 0.5, 1.0, 0.0)
    tr = tracer.Tracer()
    tr.install()
    try:
        E.simulate_paths(E.ou(1.0), cfg, f)
        full_rows = tr.counts["diffusion.coefficients.rows"]
        full_steps = tr.counts["simulator.regeneration.replica_steps"]
        first = E.simulate_paths(E.ou(1.0), cfg, f, max_cycles=1)
    finally:
        tr.uninstall()
    assert full_steps == cfg.replicas * cfg.n_steps
    assert full_rows == cfg.replicas * cfg.n_steps  # drift rows evaluated
    # max_cycles=1: each replica runs up to R_1, i.e. min(R_1, horizon) / h
    # steps, give or take the step the event falls in
    rows = tr.counts["diffusion.coefficients.rows"] - full_rows
    steps = tr.counts["simulator.regeneration.replica_steps"] - full_steps
    assert abs(rows - steps) <= len(first.samples)
    assert rows < cfg.replicas * cfg.n_steps
    m = tr.metrics(0.0)
    assert m["simulator.regeneration.calls"] == 2
    assert m["simulator.regeneration.replica_steps"] == full_steps + steps


def test_op_checked_against_a_wrong_oracle_fails():
    wrong = copy.deepcopy(ORACLE)
    wrong["bd1_order1"]["values"] = [v * (1 + 1e-5)
                                     for v in wrong["bd1_order1"]["values"]]
    ok = run.run_op(_op("moments-poly", "bd1_order1"))
    bad = run.run_op(_op("moments-poly", "bd1_order1", wrong))
    assert ok.failure is None
    assert isinstance(bad.failure, workloads.CheckFailed)
    assert not bad.excused  # only the documented defects are excused
    assert bad.digest == ok.digest  # same output, judged differently


def test_known_defect_excuses_only_its_own_failure():
    op = _op("moments-poly", "bd22_order2")
    assert op.known_defect(E.errors.InterpolationError("x"))
    assert not op.known_defect(workloads.CheckFailed("wrong value"))
    cli = _op("cli-pipeline", "cli_moments")
    assert cli.known_defect(workloads.CheckFailed("x", tag="bound_overlay"))
    assert not cli.known_defect(workloads.CheckFailed("x"))


def test_absent_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + [
        ("gridfn.gone", "ergodiff.gridfn:NoSuchClass.values", False, None),
        ("kac.gone", "ergodiff.kac:_no_such_function", False, None),
        # a result shape the count hook does not know disables its counts
        ("kac.check", "ergodiff.kac:simultaneity_check", False,
         lambda tr, i, out: out.no_such_field)])
    tr = tracer.Tracer()
    tr.install()
    try:
        table = E.MomentTable("two_sided", (0.0, 1.0), np.array([0.2, 0.5, 0.8]),
                              np.ones((2, 3)))
        assert E.simultaneity_check(table).ok
    finally:
        tr.uninstall()
    assert tr.absent[:2] == ["ergodiff.gridfn:NoSuchClass.values",
                             "ergodiff.kac:_no_such_function"]
    assert tr.absent[2].startswith("kac.check counts (AttributeError")
    assert all(math.isfinite(v) for v in tr.metrics(0.0).values())


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
