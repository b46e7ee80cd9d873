"""Vectorized running integrals along sorted grids and from a fixed anchor,
and the integral over a ray with its verdict.

``cumulative_panels`` and ``Antiderivative`` evaluate running integrals at
whole batches of points with one Gauss-Kronrod panel per gap (bisected where
the panel error check fails), which is what makes the repeated Green's
function quadrature affordable.  Every panel value depends only on its own
endpoints, never on the other gaps of the batch, so results do not depend on
how queries are batched or ordered.

``tail`` integrates over a ray with the same panels on a geometric grid and
adds the remainder beyond the grid from the integrand's endpoint power, the
idea of QUADPACK's QAGI mapping of [a, inf) onto (0, 1] (Piessens et al.,
1983) with the power kept: the power is also the verdict, finite or +inf.
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .quadrature import _ABSCISSAE, _GAUSS_W, _KRONROD_W, _check_finite

__all__ = ["Antiderivative", "Tail", "cumulative_panels", "tail"]

_MAX_DEPTH = 24

# Fixed panel edges of an Antiderivative, as distances from its anchor: steps
# of 1/16 out to 16, then a geometric ratio of 17/16 out to about 1e300.
_FINE_STEP = 1.0 / 16.0
_FINE_REACH = 16.0
_RATIO = 17.0 / 16.0
_N_GEOMETRIC = int(np.log(1e300 / _FINE_REACH) / np.log(_RATIO))
_OFFSETS = np.concatenate([
    np.arange(int(_FINE_REACH / _FINE_STEP)) * _FINE_STEP,
    np.cumprod(np.r_[_FINE_REACH, np.full(_N_GEOMETRIC - 1, _RATIO)]),
])


def _gap_panels(fv, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One GK15 panel per gap, vectorized across gaps.

    The weighted sums are elementwise row sums, not a matrix product, whose
    BLAS kernels round a row differently depending on the batch shape.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _ABSCISSAE[None, :]
    ys = fv(nodes.ravel()).reshape(nodes.shape)
    k = half * (ys * _KRONROD_W).sum(axis=1)
    g = half * (ys * _GAUSS_W).sum(axis=1)
    return k, np.abs(k - g)


def _panel_integrals(fv, lo: np.ndarray, hi: np.ndarray, rel_tol: float,
                     abs_tol: float) -> np.ndarray:
    """Signed integral of fv over each gap [lo_i, hi_i].

    Each gap gets one Kronrod panel; panels failing the embedded error check
    are bisected (halving their tolerance) level by level, all gaps at once,
    and a split panel's value is its left child plus its right child.
    """
    k, e = _gap_panels(fv, lo, hi)
    tol = np.maximum(abs_tol, rel_tol * np.abs(k))
    levels, splits = [k], []
    for _ in range(_MAX_DEPTH):
        split = np.nonzero(e > tol)[0]
        if split.size == 0:
            break
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo = np.column_stack([lo, mid]).ravel()
        hi = np.column_stack([mid, hi]).ravel()
        tol = np.repeat(0.5 * tol[split], 2)
        k, e = _gap_panels(fv, lo, hi)
        levels.append(k)
        splits.append(split)
    for depth in range(len(splits) - 1, -1, -1):
        child = levels[depth + 1]
        levels[depth][splits[depth]] = child[0::2] + child[1::2]
    return levels[0]


# A tail's grid: distances 0 and unit * 2^j from its start, out to about 1e12
# units, where log g is read a chunk of nodes at a time.  g is out of the
# float range where |log g| > _LOG_LIMIT.  Endpoint powers within TAIL_BAND
# of -1 decide nothing.
_TAIL_Y = 2.0 ** np.arange(41)
_TAIL_CHUNK = 8
_LOG_LIMIT = 700.0
TAIL_BAND = 0.05


@dataclass(frozen=True)
class Tail:
    """A ray integral (+inf if divergent, NaN if inconclusive), its error
    estimate and the endpoint power p (g ~ y^p at the end of the grid)."""

    value: float
    error_estimate: float
    power: float


def tail(log_g: Callable[[np.ndarray], np.ndarray], start: float,
         direction: int, unit: float, rel_tol: float, abs_tol: float) -> Tail:
    """Integral of g = exp(log_g) over [start, inf) (``direction`` +1) or
    (-inf, start] (-1).

    One GK15 panel per gap of the grid (bisected where its error check
    fails), summed from the top, plus the remainder g(L) y_L / (-p-1) beyond
    the last node L, where y is the distance from ``start`` and the endpoint
    power p is read from log g at the last two nodes.  p >= -1 + TAIL_BAND
    is +inf and |p + 1| < TAIL_BAND inconclusive.  log g is read out to the
    last node, or, once out of the float range, as far as it can be
    evaluated.  If it ends above +700 the integral is +inf (p = +inf); if it
    ends below -700, g vanishes from where it last dropped there (p = -inf);
    if it passes +700 and then falls back, the integral is too large to hold
    and is reported inconclusive.  ``log_g`` must accept ndarrays; it is
    never evaluated at ``start`` itself.
    """
    if direction not in (1, -1):
        raise DomainError("direction must be +1 or -1")
    ys = unit * _TAIL_Y
    lg = np.empty(0)
    for chunk in np.split(ys, range(_TAIL_CHUNK, ys.size, _TAIL_CHUNK)):
        # past the float range, a log g that cannot be evaluated further
        # out (its coefficients overflow) is taken to stay out of range
        out = lg.size > 0 and abs(lg[-1]) > _LOG_LIMIT
        try:
            with np.errstate(all="ignore") if out else nullcontext():
                part = np.asarray(log_g(start + direction * chunk), dtype=float)
        except EvaluationError:
            if out:
                break
            raise
        if np.isnan(part).any():
            if out:
                break
            raise EvaluationError(f"log integrand is NaN on the ray from {start!r}")
        lg = np.concatenate([lg, part])
    ys = ys[:lg.size]
    high, low = lg > _LOG_LIMIT, lg < -_LOG_LIMIT
    if high[-1]:
        return Tail(math.inf, math.inf, math.inf)
    if low[-1]:  # g has vanished: the grid ends where it last dropped out
        last_in = np.flatnonzero(~low)
        ys = ys[:last_in[-1] + 2 if last_in.size else 1]
        p, remainder, err = -math.inf, 0.0, 0.0
    else:
        p = float(lg[-1] - lg[-2]) / math.log(2.0)
        if p >= -1.0 + TAIL_BAND:
            return Tail(math.inf, math.inf, p)
        remainder = math.exp(lg[-1]) * float(ys[-1]) / (-p - 1.0)
        # how much the remainder moves with p over the last two gaps
        p_prev = float(lg[-2] - lg[-3]) / math.log(2.0)
        err = abs(remainder * (p - p_prev) / (p + 1.0))
    if high.any() or abs(p + 1.0) < TAIL_BAND:
        return Tail(math.nan, math.nan, p)

    def g(y):
        xs = start + direction * y
        with np.errstate(over="ignore", under="ignore"):
            vals = np.exp(log_g(xs))
        _check_finite(xs, vals)
        return vals

    panels = _panel_integrals(g, np.r_[0.0, ys[:-1]], ys, rel_tol, abs_tol)
    value = float(np.cumsum(np.r_[remainder, panels[::-1]])[-1])
    err += float(np.maximum(abs_tol, rel_tol * np.abs(panels)).sum())
    return Tail(value, err, p)


def _finite_fn(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    def fv(arr):
        ys = np.asarray(f(arr), dtype=float)
        _check_finite(arr, ys)
        return ys
    return fv


def cumulative_panels(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
                      rel_tol: float = 1e-10, abs_tol: float = 1e-13) -> np.ndarray:
    """Running integral of f along the sorted grid xs; result[0] == 0.

    ``f`` must accept ndarrays.  Each gap gets one Kronrod panel, bisected
    only where the embedded error check fails.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        return np.zeros_like(xs)
    k = _panel_integrals(_finite_fn(f), xs[:-1], xs[1:], rel_tol, abs_tol)
    out = np.empty(xs.size)
    out[0] = 0.0
    np.cumsum(k, out=out[1:])
    return out


class Antiderivative:
    """F(x) = integral of g from ``anchor`` to x, with batch evaluation.

    Each side of the anchor is cut at fixed edges (``_OFFSETS``).  F at an
    edge is the ordered running sum of the whole panels between the anchor
    and that edge, and F(x) is F at the last edge between the anchor and x
    plus one adaptive panel from that edge to x.  The running sums are
    memoized and only ever extended, under a lock, and g is never evaluated
    beyond the queried points; so F(x) depends only on g, the tolerances and
    x, whatever was evaluated before.
    """

    def __init__(self, g: Callable[[np.ndarray], np.ndarray], anchor: float = 0.0,
                 rel_tol: float = 1e-10, abs_tol: float = 1e-13):
        self._gv = _finite_fn(g)
        self.anchor = float(anchor)
        self._rel = rel_tol
        self._abs = abs_tol
        self._lock = threading.Lock()
        # per side (+1 above the anchor, -1 below): edges moving away from
        # the anchor, and F at the edges materialized so far
        self._edges = {1: self.anchor + _OFFSETS, -1: self.anchor - _OFFSETS}
        self._sums = {1: np.zeros(1), -1: np.zeros(1)}

    def _edge_sums(self, side: int, j: np.ndarray) -> np.ndarray:
        """F at edges j on one side, extending the memo as needed."""
        with self._lock:
            sums = self._sums[side]
            top = int(j.max())
            if top >= sums.size:
                edges = self._edges[side]
                new = _panel_integrals(self._gv, edges[sums.size - 1:top],
                                       edges[sums.size:top + 1],
                                       self._rel, self._abs)
                sums = np.concatenate(
                    [sums, np.cumsum(np.concatenate([sums[-1:], new]))[1:]])
                self._sums[side] = sums
        return sums[j]

    def values(self, x) -> np.ndarray:
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(xa)):
            raise DomainError("antiderivative evaluated at a non-finite point")
        shape, xa = xa.shape, xa.ravel()
        out = np.empty(xa.size)
        for side in (1, -1):
            sel = np.nonzero(xa >= self.anchor if side == 1 else xa < self.anchor)[0]
            if sel.size == 0:
                continue
            xs, edges = xa[sel], self._edges[side]
            if side == 1:
                j = np.searchsorted(edges, xs, side="right") - 1
            else:
                j = edges.size - 1 - np.searchsorted(edges[::-1], xs, side="left")
            fx = self._edge_sums(side, j)
            off = np.nonzero(xs != edges[j])[0]
            if off.size:
                fx[off] += _panel_integrals(self._gv, edges[j[off]], xs[off],
                                            self._rel, self._abs)
            out[sel] = fx
        return out.reshape(shape)

    def __call__(self, x):
        out = self.values(x)
        return float(out[0]) if np.ndim(x) == 0 else out
