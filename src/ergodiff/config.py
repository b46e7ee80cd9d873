"""Plain-text experiment configuration.

One INI-style file declares the diffusion (a named built-in or drift /
diffusion expressions over x), optional coefficient-assumption parameters,
the simulation block, and the experiment block (test function, exponent,
grids, output directory).  Section and key names are case-insensitive;
inline ``#`` comments are allowed.
"""

from __future__ import annotations

import configparser
import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .diffusion import (AssumptionParams, DiffusionModel, bounded_drift,
                        brownian, ou)
from .errors import ConfigError, DomainError, ExpressionError
from .expressions import parse_expression
from .quadrature import QuadratureConfig
from .simulator import InitialLaw, SimConfig

__all__ = ["ExperimentConfig", "FunctionSpec", "load_config", "parse_model",
           "parse_function", "parse_initial_law"]

_MODEL_RE = re.compile(r"^\s*(brownian|ou|bounded_drift)\s*(?:\(\s*([^)]*)\s*\))?\s*$")
_CALL_RE = re.compile(r"^\s*(point|uniform|gaussian)\s*\(\s*([^)]*)\s*\)\s*$")
_INDICATOR_RE = re.compile(r"^\s*indicator\s*\(\s*([^,]+)\s*,\s*([^)]+)\s*\)\s*$")
# every key load_config reads, by section; any other section or key is an error
_KEYS = {
    "diffusion": {"model", "drift", "diffusion", "tol", "anchor"},
    "assumptions": {"m0", "sigma0", "gamma", "r", "sigma1", "delta", "r_cap"},
    "sim": {"step", "horizon", "replicas", "seed", "a", "b", "initial",
            "crossing", "blowup_guard"},
    "experiment": {"f", "p", "bdg_constant", "t_grid", "eps_grid", "out",
                   "target", "side", "x_grid", "orders", "bound_order",
                   "constants_replicas", "mu_f", "bounds"},
}


@dataclass(frozen=True)
class FunctionSpec:
    """A test function f with the metadata the pipelines need."""

    fn: object
    description: str
    sup: float             # sup |f| over the probed range
    support: tuple | None  # (lo, hi) where f is nonzero, if known/compact

    def __call__(self, x):
        return self.fn(x)


@dataclass
class ExperimentConfig:
    model: DiffusionModel
    assumptions: AssumptionParams | None
    sim: SimConfig | None
    f: FunctionSpec | None
    p: float
    bdg_constant: float | None
    t_grid: np.ndarray
    eps_grid: np.ndarray
    out_dir: str
    # moments command inputs
    target: float | None
    side: str
    x_grid: np.ndarray
    orders: int
    bound_order: int | None
    constants_replicas: int | None
    mu_f: float | None           # None means estimate/quadrature at run time
    bound_kinds: tuple
    config_hash: str = ""
    label: str = ""


def _floats(text: str) -> np.ndarray:
    items = [s for s in re.split(r"[,\s]+", text.strip()) if s]
    try:
        return np.array([float(s) for s in items])
    except ValueError as exc:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from exc


def _number(text: str, where: str, kind=float):
    """``text`` read as ``kind``; a ConfigError naming ``where`` if it is not
    one."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: expected {what}, got {text!r}") from None


def parse_model(text: str, anchor: float = 0.0,
                quad: QuadratureConfig | None = None,
                diffusion_text: str | None = None) -> DiffusionModel:
    """Named built-in (brownian, ou(theta), bounded_drift(theta)) or an
    expression pair."""
    kw = {"anchor": anchor}
    if quad is not None:
        kw["quad"] = quad
    m = _MODEL_RE.match(text)
    if m:
        name, arg = m.group(1), m.group(2)
        value = _number(arg, text.strip()) if arg not in (None, "") else 1.0
        factory = {"brownian": brownian, "ou": ou,
                   "bounded_drift": bounded_drift}[name]
        return factory(value, **kw)
    # otherwise: text is a drift expression, diffusion_text its partner
    if diffusion_text is None:
        raise ConfigError(
            f"unknown model {text!r}; use a built-in or give drift= and "
            "diffusion= expressions")
    drift = parse_expression(text)
    diff = parse_expression(diffusion_text)
    label = f"drift[{drift.source}]/sigma[{diff.source}]"
    return DiffusionModel(drift, diff, label=label, **kw)


def parse_function(text: str, probe_range: tuple[float, float]) -> FunctionSpec:
    """``indicator(lo, hi)`` or an expression over x."""
    m = _INDICATOR_RE.match(text)
    if m:
        lo, hi = (_number(g, text.strip()) for g in m.groups())
        if not lo < hi:
            raise ConfigError("indicator needs lo < hi")

        def fn(x):
            x = np.asarray(x)
            return ((x >= lo) & (x <= hi)).astype(float)

        return FunctionSpec(fn, f"indicator({lo:g},{hi:g})", 1.0, (lo, hi))
    expr = parse_expression(text)
    xs = np.linspace(probe_range[0], probe_range[1], 4001)
    vals = np.abs(np.asarray(expr(xs), dtype=float))
    sup = float(np.max(vals))
    nz = vals > 0
    support = (float(xs[nz][0]), float(xs[nz][-1])) if nz.any() else None
    if nz.any() and (nz[0] or nz[-1]):
        support = None  # not visibly compact on the probed range
    return FunctionSpec(expr, expr.source, sup, support)


def parse_initial_law(text: str) -> InitialLaw:
    m = _CALL_RE.match(text)
    if not m:
        try:
            return InitialLaw.point(float(text))
        except ValueError:
            raise ConfigError(f"cannot parse initial law {text!r}") from None
    kind, args = m.group(1), _floats(m.group(2))
    if kind == "point":
        if args.size != 1:
            raise ConfigError("point(x0) takes one argument")
        return InitialLaw.point(args[0])
    if kind == "uniform":
        if args.size != 2:
            raise ConfigError("uniform(lo, hi) takes two arguments")
        return InitialLaw.uniform(args[0], args[1])
    if args.size != 2:
        raise ConfigError("gaussian(mean, sd) takes two arguments")
    return InitialLaw.gaussian(args[0], args[1])


def load_config(path: str, seed: int | None = None,
                replicas: int | None = None, tol: float | None = None,
                out: str | None = None) -> ExperimentConfig:
    """Read and validate an experiment file; CLI overrides win.

    An unknown section or key is a ConfigError, so a misspelt key cannot
    silently fall back to its default.  The config hash covers the file
    bytes plus the semantic overrides (seed, replicas, tol) but not the
    output directory.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            raw = fh.read()
        parser.read_string(raw, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    sections = {name.lower(): parser[name] for name in parser.sections()}
    if len(sections) < len(parser.sections()):
        raise ConfigError("a section is given twice (names are "
                          "case-insensitive)")
    unknown = sorted(set(sections) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    for name, sec in sections.items():
        unknown = sorted(set(sec) - _KEYS[name])
        if unknown:
            raise ConfigError(f"[{name}] unknown key(s): {', '.join(unknown)}")

    def section(name):
        return sections.get(name, {})

    def num(name, key, kind=float, default=None):
        """``[name] key`` read as ``kind``, or ``default`` when absent."""
        sec = section(name)
        if key not in sec:
            return default
        return _number(sec[key], f"[{name}] {key}", kind)

    diff_sec = section("diffusion")
    exp_sec = section("experiment")
    sim_sec = section("sim")
    ass_sec = section("assumptions")

    tol_key = "[diffusion] tol" if tol is None else "--tol"
    if tol is None:
        tol = num("diffusion", "tol")
    quad = None
    if tol is not None:
        try:
            quad = QuadratureConfig(rel_tol=tol, abs_tol=tol * 1e-3)
        except DomainError as exc:
            raise ConfigError(f"{tol_key}: {exc}, got {tol!r}") from None
    anchor = num("diffusion", "anchor", default=0.0)

    try:
        if "model" in diff_sec:
            model = parse_model(diff_sec["model"], anchor, quad)
        elif "drift" in diff_sec and "diffusion" in diff_sec:
            model = parse_model(diff_sec["drift"], anchor, quad,
                                diffusion_text=diff_sec["diffusion"])
        else:
            raise ConfigError(
                "[diffusion] needs either model= or drift= and diffusion=")
    except ExpressionError as exc:
        raise ConfigError(f"[diffusion] expression error: {exc}") from exc

    assumptions = None
    if ass_sec:
        if "m0" not in ass_sec:
            raise ConfigError("[assumptions] needs m0")
        try:
            assumptions = AssumptionParams(**{
                key: num("assumptions", key)
                for key in ("m0", "sigma0", "gamma", "r", "sigma1", "delta",
                            "r_cap")})
        except DomainError as exc:
            raise ConfigError(f"[assumptions] {exc}") from None

    sim = None
    if sim_sec:
        required = ("step", "horizon", "replicas", "seed", "a", "b", "initial")
        missing = [k for k in required if k not in sim_sec]
        if missing:
            raise ConfigError(f"[sim] missing keys: {', '.join(missing)}")
        sim = SimConfig(
            step=num("sim", "step"),
            horizon=num("sim", "horizon"),
            replicas=int(replicas if replicas is not None
                         else num("sim", "replicas", int)),
            seed=int(seed if seed is not None else num("sim", "seed", int)),
            a=num("sim", "a"),
            b=num("sim", "b"),
            initial=parse_initial_law(sim_sec["initial"]),
            crossing=sim_sec.get("crossing", "interpolate"),
            blowup_guard=num("sim", "blowup_guard", default=1e9),
        )

    f_def = None
    if "f" in exp_sec:
        if sim is not None:
            lo = sim.a - 5.0 * (sim.b - sim.a)
            hi = sim.b + 5.0 * (sim.b - sim.a)
        else:
            lo, hi = -10.0, 10.0
        try:
            f_def = parse_function(exp_sec["f"], (lo, hi))
        except ExpressionError as exc:
            raise ConfigError(f"[experiment] f: {exc}") from exc

    t_grid = _floats(exp_sec["t_grid"]) if "t_grid" in exp_sec else np.array([])
    eps_grid = _floats(exp_sec["eps_grid"]) if "eps_grid" in exp_sec \
        else np.array([])
    if t_grid.size and np.any(np.diff(np.sort(t_grid)) <= 0):
        raise ConfigError("t_grid entries must be distinct")

    x_grid = _floats(exp_sec["x_grid"]) if "x_grid" in exp_sec else np.array([])
    mu_f_text = exp_sec.get("mu_f", "auto").strip().lower()
    mu_f = None if mu_f_text == "auto" else num("experiment", "mu_f")
    kinds_text = exp_sec.get("bounds", "sup,l1")
    kinds = tuple(s.strip() for s in kinds_text.split(",") if s.strip())
    if any(k not in ("sup", "l1") for k in kinds):
        raise ConfigError("bounds must be a subset of: sup, l1")

    side = exp_sec.get("side", "from_above")
    if side not in ("from_above", "from_below"):
        raise ConfigError(f"[experiment] side: expected from_above or "
                          f"from_below, got {side!r}")
    orders = num("experiment", "orders", int, default=1)
    if orders < 0:
        raise ConfigError(f"[experiment] orders: must be >= 0, got {orders}")

    payload = raw.encode() + f"|seed={seed}|replicas={replicas}|tol={tol}".encode()
    cfg_hash = hashlib.sha256(payload).hexdigest()[:12]

    return ExperimentConfig(
        model=model,
        assumptions=assumptions,
        sim=sim,
        f=f_def,
        p=num("experiment", "p", default=2.0),
        bdg_constant=num("experiment", "bdg_constant"),
        t_grid=np.sort(t_grid),
        eps_grid=np.sort(eps_grid),
        out_dir=(out if out is not None else exp_sec.get("out", "results")),
        target=num("experiment", "target"),
        side=side,
        x_grid=x_grid,
        orders=orders,
        bound_order=num("experiment", "bound_order", int),
        constants_replicas=num("experiment", "constants_replicas", int),
        mu_f=mu_f,
        bound_kinds=kinds,
        config_hash=cfg_hash,
        label=model.label,
    )
