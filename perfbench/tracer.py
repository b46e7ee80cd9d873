"""Outside-in tracer: wraps ergodiff's public functions where they are looked
up, records one span per call, and derives the per-layer metrics.

Spans (layer, start, end, parent) are kept in flat arrays in memory and
written once at the end.  Counts come from the calls' arguments and returned
values only; nothing inside ergodiff is edited.  A target that does not exist
in the code under test is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

RNG_BLOCK = 4096   # replicas per noise block in the simulator's RNG layout
RNG_CHUNK = 512    # steps per noise chunk in the same layout
KIND_NORMAL = 0    # stream kind of the Euler noise


# -- what each layer counts, from arguments and returned values ------------------

def _subdivisions(tr, i, out):
    tr.count("quadrature.integrate_finite.subdivisions", out.subdivisions_used)


def _diverged(tr, i, out):
    tr.count("quadrature.integrate_semi_infinite.diverged", int(out.diverged))


def _points(tr, i, out):
    tr.count("gridfn.Antiderivative.values.points", np.size(out))


def _gaps(tr, i, out):
    tr.count("gridfn.cumulative_panels.gaps", max(np.size(out) - 1, 0))


def _rows(tr, i, out):
    tr.count("diffusion.coefficients.rows", np.size(out))


def _hitting(tr, i, out):
    cfg = tr.meta[i]["cfg"]
    tr.count("simulator.hitting.replicas", cfg.replicas)
    first = next((e for e in out if e.order == 1), None)
    if first is None:
        return
    censored = cfg.replicas - first.n_used
    tr.count("simulator.hitting.censored", censored)
    # sum over replicas of min(T_i, horizon) / h
    time_sum = first.estimate * first.n_used + censored * cfg.horizon
    tr.count("simulator.hitting.replica_steps", time_sum / cfg.step)


def _regeneration(tr, i, out):
    args = tr.meta[i]
    max_cycles = args.get("max_cycles")
    if max_cycles is None:
        ends = np.array([s.horizon for s in out.samples])
    else:
        # a replica stops at its max_cycles-th R-event (or the horizon)
        ends = np.array([s.r_times[max_cycles - 1]
                         if len(s.r_times) >= max_cycles else s.horizon
                         for s in out.samples])
    h = args["cfg"].step
    tr.count("simulator.regeneration.replica_steps", float(np.sum(ends)) / h)
    tr.count("simulator.regeneration.steps",
             float(np.max(ends, initial=0.0)) / h)
    tr.count("simulator.regeneration.cycles",
             sum(len(s.cycle_integrals) for s in out.samples))
    if max_cycles is None and not len(args.get("checkpoints", ())):
        # full-horizon cycle runs (estimate_constants): replicas with fewer
        # than 2 R-events, which that estimator drops
        tr.count("simulator.regeneration.short_replicas",
                 sum(len(s.r_times) < 2 for s in out.samples))


def _cli_output(tr, i, out):
    argv = list(tr.meta[i].get("argv") or [])
    if "--out" in argv:
        out_dir = Path(argv[argv.index("--out") + 1])
        if out_dir.is_dir():
            tr.count("cli.output_bytes",
                     sum(p.stat().st_size for p in out_dir.iterdir()))


# (layer, target, keep_args, on_return).  A target is "module:name",
# "module:Class.method", or "module:*" for every public function of a module.
# keep_args stores the call's bound arguments in Tracer.meta for on_return
# and for the metrics.
HOOKS = [
    ("quadrature.integrate_finite", "ergodiff.quadrature:integrate_finite",
     False, _subdivisions),
    ("quadrature.integrate_semi_infinite",
     "ergodiff.quadrature:integrate_semi_infinite", False, _diverged),
    ("gridfn.Antiderivative.values", "ergodiff.gridfn:Antiderivative.values",
     False, _points),
    ("gridfn.cumulative_panels", "ergodiff.gridfn:cumulative_panels",
     False, _gaps),
    ("kac.hitting_moment_table", "ergodiff.kac:hitting_moment_table",
     True, None),
    ("kac.exit_moment_table", "ergodiff.kac:exit_moment_table", True, None),
    ("kac.mean_exit_time", "ergodiff.kac:mean_exit_time", False, None),
    ("diffusion.coefficients", "ergodiff.diffusion:DiffusionModel.drift",
     False, _rows),
    ("diffusion.coefficients", "ergodiff.diffusion:DiffusionModel.sigma",
     False, None),
    ("diffusion.coefficients", "ergodiff.diffusion:DiffusionModel.sigma_sq",
     False, None),
    *[("diffusion.scale_speed", f"ergodiff.diffusion:DiffusionModel.{m}",
       False, None)
      for m in ("log_scale_exponent", "scale_density", "scale_function",
                "speed_density", "invariant_density", "mu_integral")],
    ("diffusion.classify_recurrence",
     "ergodiff.diffusion:DiffusionModel.classify_recurrence", False, None),
    ("simulator.hitting", "ergodiff.simulator:estimate_hitting_moments",
     True, _hitting),
    ("simulator.regeneration", "ergodiff.simulator:simulate_paths",
     True, _regeneration),
    *[("simulator.estimators", f"ergodiff.simulator:{f}", False, None)
      for f in ("estimate_constants", "estimate_deviation_prob",
                "nu_moment_estimate")],
    ("bounds", "ergodiff.bounds:*", False, None),
    ("config.load_config", "ergodiff.config:load_config", False, None),
    ("cli", "ergodiff.cli:main", True, _cli_output),
]
# counts the Euler noise rows drawn, per simulator span; not a span itself
NOISE_STREAM = "ergodiff.simulator:_stream"

# name, unit, better -- the order BENCHMARK.json lists them in
PER_LAYER = [
    ("quadrature.integrate_finite.calls", "count", "lower"),
    ("quadrature.integrate_finite.self_s", "s", "lower"),
    ("quadrature.integrate_finite.subdivisions", "count", "lower"),
    ("quadrature.integrate_semi_infinite.calls", "count", "lower"),
    ("quadrature.integrate_semi_infinite.self_s", "s", "lower"),
    ("quadrature.integrate_semi_infinite.diverged", "count", "lower"),
    ("gridfn.Antiderivative.values.calls", "count", "lower"),
    ("gridfn.Antiderivative.values.self_s", "s", "lower"),
    ("gridfn.Antiderivative.values.points", "count", "lower"),
    ("gridfn.cumulative_panels.calls", "count", "lower"),
    ("gridfn.cumulative_panels.self_s", "s", "lower"),
    ("gridfn.cumulative_panels.gaps", "count", "lower"),
    ("kac.cumulative_panels_per_table", "count", "lower"),
    ("kac.hitting_moment_table.calls", "count", "lower"),
    ("kac.hitting_moment_table.self_s", "s", "lower"),
    ("kac.hitting_moment_table.failed", "count", "lower"),
    ("kac.exit_moment_table.calls", "count", "lower"),
    ("kac.exit_moment_table.self_s", "s", "lower"),
    ("kac.exit_moment_table.failed", "count", "lower"),
    ("kac.mean_exit_time.calls", "count", "lower"),
    ("kac.mean_exit_time.self_s", "s", "lower"),
    ("kac.mean_exit_time.failed", "count", "lower"),
    ("kac.table.cold_s", "s", "lower"),
    ("kac.table.warm_s", "s", "lower"),
    ("diffusion.coefficients.calls", "count", "lower"),
    ("diffusion.coefficients.self_s", "s", "lower"),
    ("diffusion.scale_speed.calls", "count", "lower"),
    ("diffusion.scale_speed.self_s", "s", "lower"),
    ("diffusion.classify_recurrence.calls", "count", "lower"),
    ("diffusion.classify_recurrence.self_s", "s", "lower"),
    ("simulator.hitting.calls", "count", "lower"),
    ("simulator.hitting.self_s", "s", "lower"),
    ("simulator.hitting.replica_steps", "count", "lower"),
    ("simulator.hitting.replica_steps_per_s", "1/s", "higher"),
    ("simulator.hitting.live_row_ratio", "ratio", "higher"),
    ("simulator.hitting.censored_frac", "ratio", "lower"),
    ("simulator.regeneration.calls", "count", "lower"),
    ("simulator.regeneration.self_s", "s", "lower"),
    ("simulator.regeneration.replica_steps", "count", "lower"),
    ("simulator.regeneration.replica_steps_per_s", "1/s", "higher"),
    ("simulator.regeneration.step_us", "us", "lower"),
    ("simulator.regeneration.width", "count", "higher"),
    ("simulator.regeneration.cycles", "count", "higher"),
    ("simulator.regeneration.short_replicas", "count", "lower"),
    ("simulator.estimators.self_s", "s", "lower"),
    ("bounds.calls", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("config.load_config.calls", "count", "lower"),
    ("config.load_config.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Install with ``install()``, run ops inside ``span("op.<name>")``,
    then ``uninstall()`` and read ``metrics()``."""

    def __init__(self):
        self.layers: list[str] = []          # layer names, indexed by name id
        self._layer_id: dict[str, int] = {}
        self.name = array("i")               # per span: layer id
        self.start = array("q")              # per span: perf_counter_ns
        self.end = array("q")
        self.parent = array("q")             # per span: parent span or -1
        self.failed = array("b")             # per span: raised
        self.meta: dict[int, dict] = {}      # per span: bound args (keep_args)
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value

    def _lid(self, layer: str) -> int:
        if layer not in self._layer_id:
            self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_id[layer]

    def _open(self, layer_id: int) -> int:
        i = len(self.name)
        self.name.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0)
        self.end.append(0)
        self.failed.append(0)
        self.stack.append(i)
        return i

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record one span around the block (used for the ops)."""
        i = self._open(self._lid(layer))
        self.start[i] = time.perf_counter_ns()
        try:
            yield i
        except BaseException:
            self.failed[i] = 1
            raise
        finally:
            self.end[i] = time.perf_counter_ns()
            self.stack.pop()

    def _wrap(self, layer: str, fn, keep_args: bool, on_return):
        lid = self._lid(layer)
        clock = time.perf_counter_ns
        sig = inspect.signature(fn) if keep_args else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(lid)
            if sig is not None:
                try:
                    tracer.meta[i] = sig.bind(*args, **kwargs).arguments
                except TypeError:  # the call itself will raise
                    tracer.meta[i] = {}
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[i] = 1
                raise
            finally:
                tracer.end[i] = clock()
                tracer.start[i] = t0
                tracer.stack.pop()
            if on_return is not None:
                tracer._counted(layer, on_return, i, out)
            return out

        return wrapper

    def _counted(self, layer: str, on_return, *args) -> None:
        """Run a count hook; an argument or result shape it does not know
        (the code under test changed) disables that layer's counts."""
        try:
            on_return(self, *args)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            note = f"{layer} counts ({type(exc).__name__}: {exc})"
            if note not in self.absent:
                self.absent.append(note)

    def _stream_counter(self, fn):
        tracer = self

        def count_rows(tr, args):
            _, block, kind = args[:3]
            if kind != KIND_NORMAL:
                return
            for j in reversed(tracer.stack):
                cfg = (tracer.meta.get(j) or {}).get("cfg")
                if cfg is not None:
                    rows = min(RNG_BLOCK, cfg.replicas - RNG_BLOCK * block)
                    tracer.count(tracer.layers[tracer.name[j]] + ".noise_rows",
                                 rows * RNG_CHUNK)
                    return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._counted("simulator noise rows", count_rows, args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer, target, keep_args, on_return in HOOKS:
            for owner, attr, fn in _resolve(target):
                if fn is None:
                    self.absent.append(target)
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(layer, fn, keep_args, on_return)
                self._rebind(owner, attr, fn, wrapped[id(fn)])
        for owner, attr, fn in _resolve(NOISE_STREAM):
            if fn is None:
                self.absent.append(NOISE_STREAM)
            else:
                self._rebind(owner, attr, fn, self._stream_counter(fn))

    def _rebind(self, owner, attr, fn, wrapper) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        # a function is wrapped in every ergodiff module that imported it
        for mod in _modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- results ---------------------------------------------------------------------

    def self_ns(self) -> np.ndarray:
        dur = np.frombuffer(self.end, dtype=np.int64) \
            - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur - child.astype(np.int64)

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, layers=np.array(self.layers),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            absent=np.array(self.absent, dtype=str))

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        selfs = self.self_ns() / 1e9
        failed = np.frombuffer(self.failed, dtype=np.int8)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        c = self.counts

        def mask(layer):
            lid = self._layer_id.get(layer)
            return names == lid if lid is not None else np.zeros(names.size, bool)

        def calls(layer):
            return int(np.count_nonzero(mask(layer)))

        def self_s(layer):
            return float(np.sum(selfs[mask(layer)]))

        def incl_s(layer):
            return float(np.sum(dur[mask(layer)]))

        out = {}
        for name, _, _ in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls(layer)
            elif kind == "self_s":
                out[name] = self_s(layer)
            elif kind == "failed":
                out[name] = int(np.count_nonzero(failed[mask(layer)]))
            else:  # counted from returned values, or derived below
                out[name] = c.get(name, 0.0)

        # tables: top-level calls; cold/warm compare a model's first table
        # with its later ones, over models that get more than one
        table = mask("kac.hitting_moment_table") | mask("kac.exit_moment_table")
        top = [i for i in np.nonzero(table)[0]
               if parent[i] < 0 or not table[parent[i]]]
        out["kac.cumulative_panels_per_table"] = _ratio(
            calls("gridfn.cumulative_panels"), len(top))
        by_model: dict[int, list[int]] = defaultdict(list)
        for i in top:
            by_model[id(self.meta[int(i)].get("model"))].append(int(i))
        repeat = [ids for ids in by_model.values() if len(ids) > 1]
        out["kac.table.cold_s"] = float(sum(dur[ids[0]] for ids in repeat))
        out["kac.table.warm_s"] = float(sum(dur[i] for ids in repeat
                                            for i in ids[1:]))

        hit_s = incl_s("simulator.hitting")
        hit_steps = c["simulator.hitting.replica_steps"]
        out["simulator.hitting.replica_steps_per_s"] = _ratio(hit_steps, hit_s)
        out["simulator.hitting.live_row_ratio"] = _ratio(
            hit_steps, c["simulator.hitting.noise_rows"])
        out["simulator.hitting.censored_frac"] = _ratio(
            c["simulator.hitting.censored"], c["simulator.hitting.replicas"])

        reg_s = incl_s("simulator.regeneration")
        reg_steps = c["simulator.regeneration.replica_steps"]
        steps = c["simulator.regeneration.steps"]
        out["simulator.regeneration.replica_steps_per_s"] = _ratio(reg_steps, reg_s)
        out["simulator.regeneration.step_us"] = _ratio(reg_s * 1e6, steps)
        out["simulator.regeneration.width"] = _ratio(reg_steps, steps)

        out["trace.overhead_frac"] = overhead_frac
        return {name: float(out[name]) for name, _, _ in PER_LAYER}


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ergodiff" or name.startswith("ergodiff."))]


def _resolve(target: str):
    """Yield (owner, attribute, function or None) for one hook target."""
    mod_name, _, path = target.partition(":")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError:
        yield target, "", None
        return
    if path == "*":
        for name, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod_name \
                    and not name.startswith("_"):
                yield mod, name, value
        return
    cls_name, _, attr = path.rpartition(".")
    owner = getattr(mod, cls_name, None) if cls_name else mod
    fn = vars(owner).get(attr) if owner is not None else None
    yield owner, attr, (fn if inspect.isfunction(fn) else None)
