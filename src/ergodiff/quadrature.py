"""Adaptive one-dimensional quadrature over finite intervals.

One engine, ``_panel_integrals``, integrates a batch of gaps at once: a
nested Gauss(7)/Kronrod(15) pair on each panel, with the panel error taken as
the difference of the two rules, and every panel that fails its share of the
gap's tolerance bisected, level by level.  A gap's tolerance is either met or
the call raises NonConvergenceError.  ``integrate_finite`` is one gap of it;
``gridfn`` builds its running integrals and ray tails (``gridfn.tail``, which
``integrate_semi_infinite`` wraps) on it.
"""

from __future__ import annotations

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
    """Tolerances shared by every integration call."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):  # NaN too
            raise DomainError("tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int


def vectorize_integrand(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap ``f`` so it maps a float ndarray to a float ndarray.

    Array-aware callables pass through with just a dtype/shape check; scalar
    callables are evaluated pointwise.  Non-finite outputs raise
    EvaluationError (``.unchecked`` is the same evaluation without that check).
    """
    mode = {"scalar": False}

    def unchecked(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if not mode["scalar"]:
            try:
                ys = np.asarray(f(xs), dtype=float)
                if ys.shape == xs.shape:
                    return ys
            except (TypeError, ValueError, IndexError):
                pass
            mode["scalar"] = True
        ys = np.fromiter((float(f(x)) for x in xs), dtype=float, count=xs.size)
        return ys.reshape(xs.shape)

    def wrapped(xs: np.ndarray) -> np.ndarray:
        return _check_finite(xs, unchecked(xs))

    wrapped.unchecked = unchecked
    wrapped.scalar = lambda: mode["scalar"]     # f has proved scalar-only
    return wrapped


def _check_finite(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    if not np.isfinite(ys).all():     # the ndarray method: no np.all wrapper
        bad = np.asarray(xs)[~np.isfinite(ys)]
        raise EvaluationError(f"integrand is non-finite near x={bad.flat[0]!r}")
    return ys


# At most _MAX_SPLITS bisections per gap.  The first _BARE_LEVELS levels of
# bisection cannot exhaust it, so they run with no per-gap bookkeeping.
_MAX_SPLITS = 4000
_BARE_LEVELS = (_MAX_SPLITS + 1).bit_length() - 1


def _gap_panels(fv, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One GK15 panel per gap, vectorized across gaps: rows Kronrod value and
    |Kronrod - Gauss| error.  A non-finite fv raises EvaluationError.

    The weighted sums are elementwise row sums, not a matrix product, whose
    BLAS kernels round a row differently depending on the batch shape.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _ABSCISSAE[None, :]
    ys = np.asarray(fv(nodes.ravel()), dtype=float).reshape(nodes.shape)
    _check_finite(nodes, ys)
    k = half * (ys * _KRONROD_W).sum(axis=1)
    g = half * (ys * _GAUSS_W).sum(axis=1)
    return np.array([k, np.abs(k - g)])


def _panel_integrals(fv, lo: np.ndarray, hi: np.ndarray, rel_tol: float,
                     abs_tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Signed integral of fv over each gap [lo_i, hi_i] (lo_i > hi_i allowed),
    its summed leaf error, and the number of bisections made.

    Each gap gets one Kronrod panel K and the tolerance
    max(abs_tol, rel_tol |K|).  Panels failing the embedded error check are
    bisected (halving their tolerance) level by level, all gaps at once,
    while wider than floating-point resolution and within _MAX_SPLITS per
    gap; a split panel's value and error are its children's sums.  A gap
    whose summed error exceeds its tolerance raises NonConvergenceError.
    """
    ke = _gap_panels(fv, lo, hi)
    gap_tol = tol = np.maximum(abs_tol, rel_tol * np.abs(ke[0]))
    levels, splits = [ke], []
    owner = None  # gap of each panel of the level, past _BARE_LEVELS only
    while True:
        split = np.nonzero(ke[1] > tol)[0]
        if len(splits) >= _BARE_LEVELS and split.size:
            if owner is None:
                owner, used = np.arange(gap_tol.size), np.zeros(gap_tol.size, dtype=int)
                for s in splits:
                    used += np.bincount(owner[s], minlength=used.size)
                    owner = np.repeat(owner[s], 2)
            wide = np.abs(hi - lo) > 1e-15 * (np.abs(lo) + np.abs(hi) + 1.0)
            split = split[wide[split]]
            # owner is sorted: the first splits of each gap that fit its budget
            o = owner[split]
            fits = used[o] + np.arange(o.size) - np.searchsorted(o, o) < _MAX_SPLITS
            split = split[fits]
            used += np.bincount(o[fits], minlength=used.size)
            owner = np.repeat(owner[split], 2)
        if split.size == 0:
            break
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo = np.column_stack([lo, mid]).ravel()
        hi = np.column_stack([mid, hi]).ravel()
        tol = np.repeat(0.5 * tol[split], 2)
        ke = _gap_panels(fv, lo, hi)
        levels.append(ke)
        splits.append(split)
    for depth in range(len(splits) - 1, -1, -1):
        child = levels[depth + 1]
        levels[depth][:, splits[depth]] = child[:, 0::2] + child[:, 1::2]
    value, err = levels[0]
    if owner is not None and (err > gap_tol).any():
        i = int(np.argmax(err - gap_tol))
        raise NonConvergenceError(
            f"error {err[i]:.3g} above tolerance {gap_tol[i]:.3g} on value "
            f"{value[i]:.6g} after {used[i]} bisections (budget "
            f"{_MAX_SPLITS}, or panels at floating-point resolution)")
    return value, err, sum(s.size for s in splits)


def integrate_finite(f: Callable, a: float, b: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate f over [a, b] adaptively (one gap of ``_panel_integrals``).

    Raises NonConvergenceError if the tolerance cannot be met and
    EvaluationError if f returns a non-finite value.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integrate_finite requires finite endpoints")
    if a > b:
        raise DomainError(f"interval endpoints out of order: [{a}, {b}]")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    value, err, used = _panel_integrals(
        vectorize_integrand(f), np.array([a], dtype=float),
        np.array([b], dtype=float), cfg.rel_tol, cfg.abs_tol)
    return QuadratureResult(float(value[0]), float(err[0]), used)


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
    return QuadratureResult(res.value, res.error_estimate, 0)
