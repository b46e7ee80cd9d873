"""Adaptive one-dimensional quadrature over finite intervals.

A nested Gauss(7)/Kronrod(15) pair on each panel, with the panel error taken
as the difference of the two rules; the panel with the worst error is
bisected until the summed error meets tolerance.  Rays are integrated by
``gridfn.tail``, which reuses these rules (``integrate_semi_infinite`` is a
thin wrapper over it).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, NonConvergenceError

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_finite",
    "integrate_semi_infinite",
    "vectorize_integrand",
]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_ABSCISSAE = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_W = np.zeros(15)
_GAUSS_W[1::2] = [
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets shared by every integration call."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):  # NaN too
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")

    def tolerance(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


def vectorize_integrand(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap ``f`` so it maps a float ndarray to a float ndarray.

    Array-aware callables pass through with just a dtype/shape check; scalar
    callables are evaluated pointwise.  Non-finite outputs raise
    EvaluationError.
    """
    mode = {"scalar": False}

    def wrapped(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if not mode["scalar"]:
            try:
                ys = np.asarray(f(xs), dtype=float)
                if ys.shape == xs.shape:
                    _check_finite(xs, ys)
                    return ys
            except (TypeError, ValueError, IndexError):
                pass
            mode["scalar"] = True
        ys = np.fromiter((float(f(x)) for x in xs), dtype=float, count=xs.size)
        ys = ys.reshape(xs.shape)
        _check_finite(xs, ys)
        return ys

    return wrapped


def _check_finite(xs: np.ndarray, ys: np.ndarray) -> None:
    if not np.isfinite(ys).all():     # the ndarray method: no np.all wrapper
        bad = np.asarray(xs)[~np.isfinite(ys)]
        raise EvaluationError(f"integrand is non-finite near x={bad.flat[0]!r}")


def _panel(fv, a: float, b: float) -> tuple[float, float]:
    """Kronrod value and |Kronrod - Gauss| error estimate on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ys = fv(mid + half * _ABSCISSAE)
    k = half * float(_KRONROD_W @ ys)
    g = half * float(_GAUSS_W @ ys)
    return k, abs(k - g)


def integrate_finite(f: Callable, a: float, b: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate f over [a, b] adaptively.

    Raises NonConvergenceError if the subdivision budget runs out and
    EvaluationError if f returns a non-finite value.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integrate_finite requires finite endpoints")
    if a > b:
        raise DomainError(f"interval endpoints out of order: [{a}, {b}]")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)

    fv = vectorize_integrand(f)
    value, err = _panel(fv, a, b)
    # heap of (-error, tiebreak, lo, hi, value, error)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_v = value
    total_e = err
    stuck_e = 0.0
    used = 0
    width_floor = 1e-15 * (abs(a) + abs(b) + 1.0)

    while heap and total_e + stuck_e > cfg.tolerance(total_v):
        if used >= cfg.max_subdivisions:
            raise NonConvergenceError(
                f"subdivision budget {cfg.max_subdivisions} exhausted "
                f"(error {total_e + stuck_e:.3g} on value {total_v:.6g})")
        _, _, lo, hi, pv, pe = heapq.heappop(heap)
        if hi - lo <= width_floor:
            # at floating-point resolution; freeze this panel's error
            stuck_e += pe
            total_e -= pe
            continue
        mid = 0.5 * (lo + hi)
        lv, le = _panel(fv, lo, mid)
        rv, re = _panel(fv, mid, hi)
        used += 1
        total_v += lv + rv - pv
        total_e += le + re - pe
        counter += 1
        heapq.heappush(heap, (-le, counter, lo, mid, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, mid, hi, rv, re))

    if total_e + stuck_e > cfg.tolerance(total_v):
        # every remaining panel is at floating-point width: unresolvable
        raise NonConvergenceError(
            f"error {total_e + stuck_e:.3g} stuck above tolerance at "
            "floating-point panel resolution")
    return QuadratureResult(total_v, total_e + stuck_e, used, True)


def integrate_semi_infinite(f: Callable, a: float, direction: float,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of f >= 0 over [a, +inf) or (-inf, a] (``direction`` +-inf)
    by ``gridfn.tail`` on log f: +inf if divergent, NaN if inconclusive.

    Superseded by ``gridfn.tail``; kept while perfbench's tracer still hooks
    this name (ROADMAP item 13).
    """
    from .gridfn import tail  # gridfn imports this module

    fv = vectorize_integrand(f)

    def log_f(xs):
        with np.errstate(divide="ignore"):
            return np.log(fv(xs))
    res = tail(log_f, a, {np.inf: 1, -np.inf: -1}.get(direction, 0), 1.0,
               cfg.rel_tol, cfg.abs_tol)
    return QuadratureResult(res.value, res.error_estimate, 0, True)
