"""ergodiff benchmark: times public calls from outside, checks every result.

Run from the repository root:

    python3 perfbench/run.py --workload moments-poly --seed 1 --seconds 45 --trace 0

``--trace 0`` repeats whole passes of the workload's op sequence for about
``--seconds``, with set-up probes between them, and reports the end-to-end
metrics; the timings are medians.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics; the spans go to
``.perfbench_out/trace-<workload>-seed<seed>.npz``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

# one process, no threads: pin the BLAS pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES_PER_PASS = 2
WORKLOAD_NAMES = ("moments-poly", "hitting-mc", "cli-pipeline")
END_TO_END = {"setup_s": "s", "solve_s": "s", "ok_frac": "ratio",
              "peak_rss_mb": "MB"}


def load_program():
    """Import ergodiff from this checkout's sources, and the workloads."""
    if not (SRC / "ergodiff" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ergodiff sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import ergodiff
    if SRC.resolve() not in Path(ergodiff.__file__).resolve().parents:
        sys.exit(f"perfbench: imported ergodiff from {ergodiff.__file__}, "
                 f"not from {SRC}")
    import workloads
    oracle = json.loads((HERE / "oracle.json").read_text())
    return workloads, oracle


@dataclasses.dataclass
class OpResult:
    name: str
    seconds: float
    failure: BaseException | None
    excused: bool      # the failure is the op's documented known defect
    digest: str


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bytes, bytearray)):
        h.update(obj)
    elif isinstance(obj, float):
        h.update(struct.pack("<d", obj))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    else:
        h.update(repr(obj).encode())


def run_op(op, tracer=None) -> OpResult:
    from workloads import CheckFailed
    span = tracer.span(f"op.{op.name}") if tracer else contextlib.nullcontext()
    out = failure = None
    t0 = time.perf_counter()
    try:
        with span:
            out = op.run()
    except Exception as exc:  # a failing op is a measured outcome
        failure = exc
    seconds = time.perf_counter() - t0
    if failure is None:
        try:
            op.check(out)
        except CheckFailed as exc:
            failure = exc
        except Exception as exc:  # output the check could not even read
            failure = CheckFailed(f"check crashed: {exc!r}")
    result = out if out is not None else f"{type(failure).__name__}: {failure}"
    excused = failure is not None and op.known_defect(failure)
    return OpResult(op.name, seconds, failure, excused, digest(result))


def run_pass(ops, tracer=None) -> tuple[list[OpResult], float]:
    t0 = time.perf_counter()
    results = [run_op(op, tracer) for op in ops]
    return results, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Time from the start of a fresh process until the first op is ready."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: setup probe failed ({proc.returncode})")
    return elapsed


def _tally(passes: list[list[OpResult]]) -> tuple[int, int]:
    results = [r for p in passes for r in p]
    return len(results), sum(r.failure is not None for r in results)


def report(results: list[OpResult]) -> None:
    for r in results:
        status = "ok" if r.failure is None else \
            ("known defect" if r.excused else "FAILED")
        note = "" if r.failure is None else f" -- {r.failure}"
        print(f"  {r.name:<18} {r.seconds:8.3f} s  {status}{note}",
              file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.probe_setup:
        workloads, oracle = load_program()
        workloads.WORKLOADS[args.workload](args.seed, oracle,
                                           OUT / args.workload)
        print("ready", flush=True)
        return 0

    workloads, oracle = load_program()
    build = workloads.WORKLOADS[args.workload]

    def ops():
        return build(args.seed, oracle, OUT / args.workload)

    passes = []
    if args.trace:
        from tracer import PER_LAYER, Tracer
        plain, plain_s = run_pass(ops())
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_s = run_pass(ops(), tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        same = all(a.digest == b.digest for a, b in zip(plain, traced))
        print(f"spans: {len(tracer.name)} -> {spans}; absent targets: "
              f"{tracer.absent or 'none'}; traced results identical: {same}",
              file=sys.stderr)
        metrics = tracer.metrics(traced_s / plain_s - 1.0)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        same = True
        setup_s, pass_s = [], []
        started = time.perf_counter()
        longest = 0.0
        while True:
            # set-up probes go between the passes, so that they sample the
            # same stretch of machine load as the passes around them
            t0 = time.perf_counter()
            setup_s += [probe_setup(args.workload, args.seed)
                        for _ in range(SETUP_PROBES_PER_PASS)]
            results, seconds = run_pass(ops())
            passes.append(results)
            pass_s.append(seconds)
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now - started + longest > args.seconds:
                break
        attempted, failed = _tally(passes)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "solve_s": statistics.median(pass_s),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    for i, p in enumerate(passes):
        print(f"pass {i}:", file=sys.stderr)
        report(p)
    attempted, failed = _tally(passes)
    correct = same and all(r.failure is None or r.excused
                           for p in passes for r in p)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
