"""Hitting/exit-time moments by the generalized Kac recursion: the order-k
moment curve is k times the integral of the order-(k-1) curve against the
Green kernel and the speed density, taken as running integrals along a grid.

Exit and hitting tables share one recursion.  The one-sided kernel is the
two-sided one with S(b) sent to infinity, so with rho = S(b) - S on (a, b)
and rho = 1 on the ray [a, inf)

    u_k = k [rho P + (S - S(a)) Q] / rho(a),
    P(x) = int_a^x (S - S(a)) u_{k-1} m,   Q(x) = int_x^end rho u_{k-1} m.

Each curve is interpolated inside the next order's quadrature by a private
shape-preserving cubic (PCHIP, ``_pchip``) that reproduces SciPy's
``PchipInterpolator`` bit for bit, and the grid doubles until the requested
values settle.  No tail is fitted on the ray: its grid runs out to 2^30
times its reach (or until exp(+-B) leaves the float range), its far curves
are interpolated as log u against log x, and Q is summed from the top down
from the remainder beyond the last node, read from the endpoint power p of
u_{k-1} m by the rule of ``gridfn.tail``.  p is the verdict: a divergent
order makes that row and every higher one +inf, an inconclusive one raises
InconclusiveError.  Hitting from below reflects the model through the
target.

Within one table, S and m are evaluated once per distinct node array: the
GK15 nodes of a round's gaps are the same for every order, once for P and
once for Q.  The memo lives for that one table only and keeps nothing on
the model.

The order-1 case with a source |f| in place of 1 gives the cycle-integral
constant of the L1 deviation bound in closed form (``first_block_sup``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffusion import DiffusionModel
from .errors import (DomainError, InconclusiveError, InterpolationError,
                     NotPositiveRecurrentError)
from .gridfn import _remainder, cumulative_panels
from .quadrature import (QuadratureConfig, _panel_integrals, integrate_finite,
                         vectorize_integrand)

__all__ = [
    "MomentTable", "mean_exit_time", "first_block_sup", "exit_moment_table",
    "hitting_moment_table", "simultaneity_check", "SimultaneityReport",
]

FROM_BELOW = "from_below"
FROM_ABOVE = "from_above"

# internal-grid sizing for moment tables
_N_LINEAR = 97
_N_GEOMETRIC = 49
_TAIL_FACTOR = 8.0
_LOG_SCALE_LIMIT = 600.0  # keep exp(+-B) representable on the working range
_MAX_REFINEMENTS = 3


@dataclass
class MomentTable:
    """Moments E_x T^k for k = 0..n over an x-grid.

    ``values[k]`` is the order-k row; +inf marks orders whose defining tail
    integral diverges.  Row 0 is identically 1.
    """

    kind: str  # "two_sided" | "from_below" | "from_above"
    boundary: tuple
    x_grid: np.ndarray
    values: np.ndarray
    model_hash: str = ""
    tail_powers: tuple = ()  # a ray's endpoint power of order k at k - 1

    @property
    def orders(self) -> int:
        return self.values.shape[0] - 1

    def order(self, k: int) -> np.ndarray:
        return self.values[k]

    def to_csv(self, path, header: str | None = None) -> None:
        """``x,order,value`` rows below one ``#`` line, by default naming
        the kind, boundary and model hash."""
        if header is None:
            header = (f"# kind={self.kind} boundary={self.boundary} "
                      f"model={self.model_hash}")
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            writer = csv.writer(fh)
            writer.writerow(["x", "order", "value"])
            for k, row in enumerate(self.values):
                for x, v in zip(self.x_grid, row):
                    writer.writerow([repr(float(x)), k, repr(float(v))])


@dataclass(frozen=True)
class SimultaneityReport:
    per_order: tuple  # (order, n_finite, n_infinite, uniform)
    ok: bool


def mean_exit_time(model: DiffusionModel, a: float, b: float, x: float) -> float:
    """E_x of the first exit time from (a, b); vanishes at both endpoints."""
    if not a <= x <= b:
        raise DomainError(f"x={x} outside [{a}, {b}]")
    if a == b:
        return 0.0
    S = model.scale_function
    m = model.speed_density
    sa, sb, sx = S(a), S(b), S(x)
    left = integrate_finite(lambda xi: (S(xi) - sa) * m(xi), a, x, model.quad)
    right = integrate_finite(lambda xi: (sb - S(xi)) * m(xi), x, b, model.quad)
    return ((sb - sx) * left.value + (sx - sa) * right.value) / (sb - sa)


def first_block_sup(model: DiffusionModel, a: float, b: float, f,
                    support: tuple) -> float:
    """c_f = sup_x E_x int_0^{R_1} |f(X_s)| ds for f vanishing outside
    ``support`` = (lo, hi), where R_1 is the first hit of a after the first
    hit of b.

    By the strong Markov property E_x int_0^{R_1} |f| = v_b(x) + v_a(b) with
    v_c(x) = E_x int_0^{T_c} |f|, and the order-1 Kac formula (the Green
    kernel of the ray) gives
        v_c(x) = int_{y<c} (S(c) - S(max(x, y))) |f| m dy   (x <= c),
        v_c(x) = int_{y>c} (S(min(x, y)) - S(c)) |f| m dy   (x >= c).
    v_b does not decrease away from b and is constant outside [lo, hi], so
    the sup is the larger of v_b(lo) and v_b(hi), plus v_a(b).
    """
    if not a < b:
        raise DomainError("first_block_sup needs a < b")
    lo, hi = support
    S = model.scale_function
    m = model.speed_density
    fv = vectorize_integrand(f)
    sa, sb = float(S(a)), float(S(b))

    def part(weight, x0: float, x1: float) -> float:
        """int of weight(S) |f| m over [x0, x1] within the support."""
        x0, x1 = max(x0, lo), min(x1, hi)
        if not x0 < x1:
            return 0.0
        return integrate_finite(lambda y: weight(S(y)) * np.abs(fv(y)) * m(y),
                                x0, x1, model.quad).value

    from_below = part(lambda s: sb - s, -math.inf, b)
    from_above = part(lambda s: s - sb, b, math.inf)
    # v_a(b): the kernel min(S, S(b)) - S(a) has a kink at b
    back = part(lambda s: s - sa, a, b) + part(lambda s: sb - sa, b, math.inf)
    return max(from_below, from_above) + back


def _interpolant(grid: np.ndarray, vals: np.ndarray,
                 knee: float | None) -> Callable:
    pch = _pchip(grid, vals)
    i = grid.size if knee is None else int(np.searchsorted(grid, knee))
    if i > grid.size - 2:
        return lambda xs: np.maximum(pch(np.asarray(xs, dtype=float)), 0.0)
    loglog = _pchip(np.log(grid[i:]), np.log(vals[i:]))

    def interpolant(xs):  # xs: a float array of quadrature nodes
        out = np.maximum(pch(xs), 0.0)
        far = xs >= grid[i]
        out[far] = np.exp(loglog(np.log(xs[far])))
        return out
    return interpolant


def _edge_slope(h0, h1, m0, m1) -> float:
    """Moler's one-sided three-point end derivative, with its two shape
    fixes: 0 against the sign of the end slope m0, 3 m0 where the slopes
    change sign and the estimate overshoots."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(grid: np.ndarray, vals: np.ndarray) -> Callable:
    """Shape-preserving piecewise cubic Hermite interpolant (PCHIP; Fritsch
    & Carlson 1980, interior derivatives after Fritsch & Butland 1984)
    through finite ``vals`` on the strictly increasing ``grid``, extrapolated
    by the end cubics.

    The arithmetic repeats SciPy's ``PchipInterpolator`` expression for
    expression, so the two agree bit for bit: interior derivatives are the
    weighted harmonic mean of the neighbouring slopes (0 where they change
    sign or either is 0), the coefficients are ``CubicHermiteSpline``'s and
    a value is summed from the constant term up with z = x - x_i raised by
    repeated multiplication.
    """
    h = np.diff(grid)
    slope = np.diff(vals) / h
    d = np.empty_like(vals)
    if grid.size == 2:
        d[:] = slope[0]
    else:
        m0, m1, h0, h1 = slope[:-1], slope[1:], h[:-1], h[1:]
        flat = (np.sign(m1) != np.sign(m0)) | (m1 == 0) | (m0 == 0)
        w1, w2 = 2 * h1 + h0, h1 + 2 * h0
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m0 + w2 / m1) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _edge_slope(h[0], h[1], slope[0], slope[1])
        d[-1] = _edge_slope(h[-1], h[-2], slope[-1], slope[-2])
    t = (d[:-1] + d[1:] - 2 * slope) / h
    c0, c1, c2, c3 = t / h, (slope - d[:-1]) / h - t, d[:-1], vals[:-1]
    last = grid.size - 2

    def pchip(xs):
        i = np.clip(np.searchsorted(grid, xs, "right") - 1, 0, last)
        s = xs - grid[i]
        z = s * s
        return 0.0 + c3[i] + c2[i] * s + c1[i] * z + c0[i] * (z * s)
    return pchip


def exit_moment_table(model: DiffusionModel, a: float, b: float,
                      x_grid, n: int, rel_tol: float = 1e-7) -> MomentTable:
    """Iterated two-sided exit moments E_x T_{a,b}^k, k = 0..n."""
    if n < 1:
        raise DomainError("order n must be >= 1")
    xs = np.asarray(x_grid, dtype=float)
    if np.any(xs < a) or np.any(xs > b):
        raise DomainError("x_grid must lie inside [a, b]")
    grid = np.unique(np.concatenate([np.linspace(a, b, 129), xs]))
    values, _ = _settle(model, grid, xs, n, rel_tol, two_sided=True)
    return MomentTable("two_sided", (a, b), xs, values, model.model_hash())


def hitting_moment_table(model: DiffusionModel, target: float, side: str,
                         x_grid, n: int, rel_tol: float = 1e-7) -> MomentTable:
    """One-sided hitting moments E_x T_target^k for k = 0..n.

    ``side`` is "from_above" (grid above the target, hitting downward) or
    "from_below".  Rows become +inf from the first order whose tail integral
    diverges.  Requires (numerical) positive recurrence.
    """
    if side not in (FROM_BELOW, FROM_ABOVE):
        raise DomainError(f"side must be {FROM_BELOW!r} or {FROM_ABOVE!r}")
    if n < 0:
        raise DomainError("order n must be >= 0")
    xs = np.asarray(x_grid, dtype=float)
    if side == FROM_ABOVE and np.any(xs <= target):
        raise DomainError("from_above needs every grid point above the target")
    if side == FROM_BELOW and np.any(xs >= target):
        raise DomainError("from_below needs every grid point below the target")
    report = model.classify_recurrence()
    if not report.is_positive_recurrent:
        raise NotPositiveRecurrentError(
            f"{model.label} is {report.classification}")

    walker, starts = model, xs
    if side == FROM_BELOW:
        # reflect through the target: Y = 2c - X has drift -beta(2c - y) and
        # the same hitting time of c from above
        c = target
        walker = DiffusionModel(
            lambda y: -model.drift(2.0 * c - np.asarray(y, dtype=float)),
            lambda y: model.sigma(2.0 * c - np.asarray(y, dtype=float)),
            label=f"mirror[{model.label}]", anchor=0.0, quad=model.quad)
        starts = 2.0 * c - xs
    grid = _hitting_grid(walker, float(target), starts)
    values, powers = _settle(walker, grid, starts, n, rel_tol, two_sided=False)
    return MomentTable(side, (target,), xs, values, model.model_hash(),
                       powers)


def _settle(model: DiffusionModel, grid: np.ndarray, xs: np.ndarray, n: int,
            rel_tol: float, two_sided: bool) -> tuple[np.ndarray, tuple]:
    """Doubles the grid until the values at ``xs`` settle: +inf in the same
    places as the round before and every other value within ``rel_tol``.
    A ray's knee (see ``_curves``) is the farthest start, or |a| + 1 where
    that is further, so that log x is smooth beyond it.  S and m are
    memoized for this table only."""
    knee = None if two_sided else max(float(np.max(xs)), abs(grid[0]) + 1.0)
    S, m = _memo(model.scale_function), _memo(model.speed_density)
    try:
        prev = None
        for round_ in range(_MAX_REFINEMENTS + 1):
            curves, powers = _curves(model.quad, S, m, grid, n, knee)
            idx = np.searchsorted(grid, xs)
            extract = np.stack([c[idx] for c in curves])
            if prev is not None and np.array_equal(np.isinf(extract),
                                                   np.isinf(prev)):
                kept = ~np.isinf(extract)
                scale = np.abs(prev[kept]) + 1e-12
                change = float(np.max(
                    np.abs(extract[kept] - prev[kept]) / scale, initial=0.0))
                if change < rel_tol:
                    return extract, powers
            prev = extract
            if round_ < _MAX_REFINEMENTS:
                mids = 0.5 * (grid[:-1] + grid[1:])
                grid = np.unique(np.concatenate([grid, mids]))
        raise InterpolationError(
            f"{'exit' if two_sided else 'hitting'} table did not settle to "
            f"rel tol {rel_tol:g} after {_MAX_REFINEMENTS} grid doublings")
    finally:
        # a caller that keeps the traceback of a failure keeps this frame
        S.clear()
        m.clear()


def _hitting_grid(model: DiffusionModel, a: float,
                  xs: np.ndarray) -> np.ndarray:
    """Linear to the farthest start a + span, geometric to a + reach, then
    by sqrt(2) to 2^30 reach; cut before the first node beyond a + span
    where |B| > _LOG_SCALE_LIMIT, reading B a chunk at a time."""
    span = float(np.max(xs) - a)
    reach = max(_TAIL_FACTOR * span, _TAIL_FACTOR * (1.0 + abs(a)))
    pivot = a + span
    lin = np.linspace(a, pivot, _N_LINEAR)
    geo = a + np.geomspace(span, reach, _N_GEOMETRIC)
    far = a + reach * 2.0 ** (np.arange(1, 61) / 2)
    grid = np.unique(np.concatenate([lin, geo, far, xs]))
    for i in range(np.searchsorted(grid, pivot, "right"), grid.size, 16):
        out = np.abs(model.log_scale_exponent(grid[i:i + 16])) \
            > _LOG_SCALE_LIMIT
        if out.any():
            return grid[:i + int(np.argmax(out))]
    return grid


def _memo(fn: Callable) -> Callable:
    """fn evaluated once per distinct input array (its exact shape and
    bytes) for as long as the returned function lives.  Results are
    read-only, so no caller can alter what a later call gets back, and
    ``clear()`` empties the memo.  Exact reuse is safe because S and m
    depend only on the point, not the batch."""
    seen = {}

    def memo(xs):
        xs = np.asarray(xs, dtype=float)
        key = (xs.shape, xs.tobytes())
        out = seen.get(key)
        if out is None:
            out = seen[key] = np.asarray(fn(xs))
            out.flags.writeable = False
        return out
    memo.clear = seen.clear
    return memo


def _curves(quad: QuadratureConfig, S: Callable, m: Callable,
            grid: np.ndarray, n: int,
            knee: float | None) -> tuple[list[np.ndarray], tuple]:
    """Moment curves u_0..u_n on ``grid`` and a ray's endpoint powers.

    u_k = k [rho P + (S - S(a)) Q] / rho(a) with P = int_a^x (S - S(a))
    u_{k-1} m and Q = int_x^end rho u_{k-1} m.  On an interval (``knee``
    None) rho = S(b) - S.  On the ray [a, inf) rho = 1, u_{k-1} is
    interpolated as log u against log x from ``knee`` on, and Q is summed
    from the top down (a running sum from the bottom cancels every digit
    where Q is small), starting from ``gridfn._remainder`` of u_{k-1} m
    beyond the last node.  Orders from the first divergent one on are +inf;
    an inconclusive one raises InconclusiveError.  ``S`` and ``m`` are the
    model's scale function and speed density (memoized by ``_settle``).
    """
    tol = quad.rel_tol, quad.abs_tol
    sg = S(grid)
    sa, sb = sg[0], sg[-1]
    curves = [np.ones_like(grid)]
    powers = []
    for k in range(1, n + 1):
        prev = _interpolant(grid, curves[-1], knee)
        if knee is not None:
            beyond = _remainder(grid[-3:] - grid[0],
                                np.log(curves[-1][-3:] * m(grid[-3:])))
            powers.append(beyond.power)
            if math.isnan(beyond.value):
                raise InconclusiveError(
                    f"order-{k} tail beyond x={grid[-1]:g} is inconclusive "
                    f"(endpoint power {beyond.power:.4g})")
            if beyond.value == math.inf:
                break
        P = cumulative_panels(lambda t: (S(t) - sa) * prev(t) * m(t), grid,
                              *tol)
        if knee is None:
            Qc = cumulative_panels(lambda t: (sb - S(t)) * prev(t) * m(t),
                                   grid, *tol)
            curves.append(k * ((sb - sg) * P + (sg - sa) * (Qc[-1] - Qc))
                          / (sb - sa))
        else:
            q = _panel_integrals(lambda t: prev(t) * m(t), grid[:-1],
                                 grid[1:], *tol)[0]
            Q = np.cumsum(np.r_[beyond.value, q[::-1]])[::-1]
            curves.append(k * (P + (sg - sa) * Q))
    curves += [np.full_like(grid, np.inf)] * (n + 1 - len(curves))
    return curves, tuple(powers)


def simultaneity_check(table: MomentTable) -> SimultaneityReport:
    """Per order, finiteness must be uniform across the grid.

    A mixed row signals a numerical inconsistency in the table construction,
    not a mathematical possibility.
    """
    if table.x_grid.size < 3:
        raise DomainError("simultaneity check needs a grid of >= 3 points")
    rows = []
    ok = True
    for k in range(table.values.shape[0]):
        row = table.values[k]
        n_inf = int(np.sum(np.isinf(row)))
        n_fin = row.size - n_inf
        uniform = n_inf == 0 or n_fin == 0
        ok = ok and uniform
        rows.append((k, n_fin, n_inf, uniform))
    return SimultaneityReport(tuple(rows), ok)
