"""Adaptive one-dimensional quadrature.

Finite intervals use a nested Gauss(7)/Kronrod(15) pair on each panel with
the panel error taken as the difference of the two rules; the panel with the
worst error is bisected until the summed error meets tolerance.

Semi-infinite rays follow the substitution u = a + t/(1-t), t in [0,1):
its dyadic refinement toward t=1 is carried out directly in u coordinates
as doubling windows [a + 2^k - 1, a + 2^(k+1) - 1], which avoids the
floating-point degeneracy of t near 1.  Divergence is declared either when
the running partial integral exceeds ``divergence_cap`` while the windows
keep contributing, or when same-sign window contributions stop decaying
(sustained ratio >= 0.999, which catches slow tails such as 1/x that never
reach the cap).  Tails decaying with ratio within 1e-3 of 1 are numerically
indistinguishable from divergent and are classified as such.
"""

from __future__ import annotations

import heapq
import math
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

# Tail classification knobs for the semi-infinite driver.
_RATIO_DIVERGENT = 0.999
_RATIO_RUN = 12
_RATIO_SAFE = 0.95
_MAX_WINDOWS = 1000


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets shared by every integration call."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 4000
    divergence_cap: float = 1e12

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
    diverged: bool = False


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
                f"(error {total_e + stuck_e:.3g} on value {total_v:.6g})",
                partial=QuadratureResult(total_v, total_e + stuck_e, used, False),
            )
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
            "floating-point panel resolution",
            partial=QuadratureResult(total_v, total_e + stuck_e, used, False),
        )
    return QuadratureResult(total_v, total_e + stuck_e, used, True)


def integrate_semi_infinite(f: Callable, a: float, direction: float,
                            cfg: QuadratureConfig = DEFAULT_CONFIG,
                            max_range: float | None = None) -> QuadratureResult:
    """Integrate f over [a, +inf) or (-inf, a].

    ``direction`` is +inf or -inf.  Returns a QuadratureResult; a divergent
    integral is a legitimate outcome reported with ``diverged=True`` and an
    infinite signed value.  Oscillatory or unresolvable tails raise
    NonConvergenceError (with ``max_range`` set, an unresolved tail at the
    range limit does the same).
    """
    if direction == math.inf:
        g = f
    elif direction == -math.inf:
        base = vectorize_integrand(f)
        g = lambda xs: base(2.0 * a - np.asarray(xs, dtype=float))
    else:
        raise DomainError("direction must be +inf or -inf")

    # windows are integrated tighter than the overall goal so that the
    # accumulated window errors leave headroom for the tail-acceptance gates
    window_cfg = QuadratureConfig(
        rel_tol=cfg.rel_tol / 16.0,
        abs_tol=cfg.abs_tol / 8.0,
        max_subdivisions=cfg.max_subdivisions,
        divergence_cap=cfg.divergence_cap,
    )

    total = 0.0
    err = 0.0
    used = 0
    prev_w: float | None = None
    prev_ratio: float | None = None
    prev_extrap: float | None = None
    growth_run = 0
    small_run = 0

    for k in range(_MAX_WINDOWS):
        lo = a + (2.0 ** k - 1.0)
        hi = a + (2.0 ** (k + 1) - 1.0)
        if max_range is not None and lo - a >= max_range:
            raise NonConvergenceError(
                f"tail not resolved within probe range {max_range:g}",
                partial=QuadratureResult(total, err, used, False),
            )
        res = integrate_finite(g, lo, hi, window_cfg)
        w = res.value
        total += w
        err += res.error_estimate
        used += res.subdivisions_used

        tol = cfg.tolerance(total)
        if abs(total) > cfg.divergence_cap and abs(w) > tol:
            return QuadratureResult(math.copysign(math.inf, total), math.inf,
                                    used, False, diverged=True)

        ratio = None
        if prev_w is not None and prev_w != 0.0 and w * prev_w > 0:
            ratio = abs(w) / abs(prev_w)

        # sustained non-decay of same-sign windows: divergent tail
        if ratio is not None and ratio >= _RATIO_DIVERGENT and abs(w) > tol:
            growth_run += 1
            if growth_run >= _RATIO_RUN:
                return QuadratureResult(
                    math.copysign(math.inf, total), math.inf,
                    used, False, diverged=True)
        else:
            growth_run = 0

        # fast-decaying tail: window contributions already below tolerance
        if abs(w) <= 0.25 * tol:
            small_run += 1
            if small_run >= 2 and (ratio is None or ratio < _RATIO_SAFE):
                r = 0.0 if ratio is None else ratio
                tail = abs(w) * r / (1.0 - r) if r < 1.0 else 0.0
                if tail <= 0.5 * tol:
                    return QuadratureResult(total, err + tail, used, True)
        else:
            small_run = 0

        # geometric tail extrapolation: exact for power-law tails, whose
        # dyadic windows are geometric in k; accepted only once the ratio
        # and the extrapolated total have both stabilized within tolerance
        if ratio is not None and ratio < _RATIO_SAFE:
            tail = w * ratio / (1.0 - ratio)
            extrap = total + tail
            if prev_extrap is not None and prev_ratio is not None \
                    and abs(ratio - prev_ratio) < 2e-3:
                drift_err = 8.0 * abs(extrap - prev_extrap)
                if err + drift_err <= 0.9 * cfg.tolerance(extrap):
                    return QuadratureResult(extrap, err + drift_err + abs(tail) * 1e-6,
                                            used, True)
            prev_extrap = extrap
        else:
            prev_extrap = None
        prev_ratio = ratio
        prev_w = w

    raise NonConvergenceError(
        f"semi-infinite tail unresolved after {_MAX_WINDOWS} windows",
        partial=QuadratureResult(total, err, used, False),
    )
