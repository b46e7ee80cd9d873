"""Vectorized running integrals along sorted grids and from a fixed anchor,
and the integral over a ray with its verdict.

``cumulative_panels`` and ``Antiderivative`` evaluate running integrals at
whole batches of points with one adaptive Gauss-Kronrod integral per gap
(``quadrature._panel_integrals``, which meets each gap's tolerance or raises
NonConvergenceError), which is what makes the scale exponent B affordable
at every node of a moment table.  Every gap's value depends only on its own
endpoints, never on the other gaps of the batch, so results do not depend
on how queries are batched or ordered.

The fixed panel edges of an ``Antiderivative`` are one shared, read-only
pair of arrays per anchor, not a copy per instance.

``tail`` integrates over a ray with the same engine on a geometric grid and
adds the remainder beyond the grid from the integrand's endpoint power, the
idea of QUADPACK's QAGI mapping of [a, inf) onto (0, 1] (Piessens et al.,
1983) with the power kept: the power is also the verdict, finite or +inf.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .quadrature import _check_finite, _panel_integrals

__all__ = ["Antiderivative", "Tail", "cumulative_panels", "tail"]

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


@lru_cache(maxsize=8)
def _shared_edges(anchor: float, sign: float) -> tuple:
    """The edges above and below ``anchor``, read-only, shared by every
    Antiderivative with that anchor (``sign``, the anchor's sign bit, keeps
    -0.0 apart from 0.0, which compare equal as keys)."""
    above, below = anchor + _OFFSETS, anchor - _OFFSETS
    above.flags.writeable = below.flags.writeable = False
    return above, below


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
    fails), summed from the top, plus ``_remainder`` beyond the last node in
    y, the distance from ``start``.  log g is read out to the last node, or,
    once out of the float range, as far as it can be evaluated.  If it ends
    above +700 the integral is +inf (p = +inf); if it ends below -700, g
    vanishes from where it last dropped there (p = -inf); if it passes +700
    and then falls back, the integral is too large to hold and is reported
    inconclusive.  ``log_g`` must accept ndarrays; it is never evaluated at
    ``start`` itself.
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
        beyond = Tail(0.0, 0.0, -math.inf)
    else:
        beyond = _remainder(ys, lg)
        if beyond.value == math.inf:
            return beyond
    if high.any() or math.isnan(beyond.value):
        return Tail(math.nan, math.nan, beyond.power)

    def g(y):
        xs = start + direction * y
        with np.errstate(over="ignore", under="ignore"):
            vals = np.exp(log_g(xs))
        _check_finite(xs, vals)  # named in x, not in y
        return vals

    panels, panel_err, _ = _panel_integrals(g, np.r_[0.0, ys[:-1]], ys,
                                            rel_tol, abs_tol)
    value = float(np.cumsum(np.r_[beyond.value, panels[::-1]])[-1])
    return Tail(value, beyond.error_estimate + float(panel_err.sum()),
                beyond.power)


def _remainder(ys: np.ndarray, lg: np.ndarray) -> Tail:
    """g(y_L) y_L / (-p-1), the integral of g = exp(lg) beyond the last of
    the distances ``ys``, from its endpoint power p over the last two nodes
    (g ~ y^p); its error is how far it moves if p takes the value of the gap
    before.  +inf for p >= -1 + TAIL_BAND, NaN within TAIL_BAND of -1."""
    p_prev, p = map(float, np.diff(lg[-3:]) / np.log(ys[-2:] / ys[-3:-1]))
    if p >= -1.0 + TAIL_BAND:
        return Tail(math.inf, math.inf, p)
    if abs(p + 1.0) < TAIL_BAND:
        return Tail(math.nan, math.nan, p)
    value = math.exp(lg[-1]) * float(ys[-1]) / (-p - 1.0)
    return Tail(value, abs(value * (p - p_prev) / (p + 1.0)), p)


def cumulative_panels(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
                      rel_tol: float = 1e-10, abs_tol: float = 1e-13) -> np.ndarray:
    """Running integral of f along the sorted grid xs; result[0] == 0.

    ``f`` must accept ndarrays.  Each gap gets one Kronrod panel, bisected
    only where the embedded error check fails.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        return np.zeros_like(xs)
    k = _panel_integrals(f, xs[:-1], xs[1:], rel_tol, abs_tol)[0]
    out = np.empty(xs.size)
    out[0] = 0.0
    np.cumsum(k, out=out[1:])
    return out


class Antiderivative:
    """F(x) = integral of g from ``anchor`` to x, with batch evaluation.

    Each side of the anchor is cut at fixed edges (``_OFFSETS``), one
    shared, read-only pair of arrays per anchor.  F at an edge is the
    ordered running sum of the whole panels between the anchor and that
    edge, and F(x) is F at the last edge between the anchor and x plus one
    adaptive panel from that edge to x.  The running sums are memoized and
    only ever extended, and g is never evaluated beyond the queried points;
    so F(x) depends only on g, the tolerances and x, whatever was evaluated
    before.
    """

    def __init__(self, g: Callable[[np.ndarray], np.ndarray], anchor: float = 0.0,
                 rel_tol: float = 1e-10, abs_tol: float = 1e-13):
        self._gv = g
        self.anchor = float(anchor)
        self._rel = rel_tol
        self._abs = abs_tol
        # per side (+1 above the anchor, -1 below): edges moving away from
        # the anchor, and F at the edges materialized so far
        above, below = _shared_edges(self.anchor,
                                     math.copysign(1.0, self.anchor))
        self._edges = {1: above, -1: below}
        self._sums = {1: np.zeros(1), -1: np.zeros(1)}

    def _edge_sums(self, side: int, j: np.ndarray) -> np.ndarray:
        """F at edges j on one side, extending the memo as needed (unlocked:
        every extension is a prefix of the same running sums)."""
        sums = self._sums[side]
        top = int(j.max())
        if top >= sums.size:
            edges = self._edges[side]
            new = _panel_integrals(self._gv, edges[sums.size - 1:top],
                                   edges[sums.size:top + 1],
                                   self._rel, self._abs)[0]
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
                                            self._rel, self._abs)[0]
            out[sel] = fx
        return out.reshape(shape)

    def __call__(self, x):
        out = self.values(x)
        return float(out[0]) if np.ndim(x) == 0 else out
