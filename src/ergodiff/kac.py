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
values settle.  On the ray the grid stops at a horizon L and Q adds the tail
beyond it: the leading power law fitted on the last decade of the grid
(log-log regression) times m, integrated by ``gridfn.tail`` from log m.  A
divergent tail at order k makes that row and every higher one +inf; a tail
too close to the border of integrability to judge raises
InconclusiveError.  Hitting from below reflects the model through the
target.

Within one table, S, m and log m are evaluated once per distinct node array:
the GK15 nodes of a round's gaps are the same for every order, once for P
and once for Q, and a ray's tail nodes are the same in every round.  The
memo lives for that one table only and keeps nothing on the model.

The order-1 case with a source |f| in place of 1 gives the cycle-integral
constant of the L1 deviation bound in closed form (``first_block_sup``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diffusion import DiffusionModel
from .errors import (DomainError, InconclusiveError, InterpolationError,
                     NotPositiveRecurrentError)
from .gridfn import cumulative_panels, tail
from .quadrature import QuadratureConfig, integrate_finite, vectorize_integrand

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
    tail_fits: tuple = field(default=())

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


def _interpolant(grid: np.ndarray, vals: np.ndarray) -> Callable:
    if np.allclose(vals, vals[0], rtol=0, atol=1e-300):
        const = float(vals[0])
        return lambda xs: np.full_like(np.asarray(xs, dtype=float), const)
    pch = _pchip(grid, vals)
    return lambda xs: np.maximum(pch(np.asarray(xs, dtype=float)), 0.0)


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
    values, fits = _settle(walker, grid, starts, n, rel_tol, two_sided=False)
    return MomentTable(side, (target,), xs, values, model.model_hash(),
                       tuple(fits))


def _settle(model: DiffusionModel, grid: np.ndarray, xs: np.ndarray, n: int,
            rel_tol: float, two_sided: bool) -> tuple[np.ndarray, list]:
    """Doubles the grid until the values at ``xs`` settle: +inf in the same
    places as the round before and every other value within ``rel_tol``.
    S, m and log m are memoized for this table only."""
    S, m = _memo(model.scale_function), _memo(model.speed_density)
    log_m = _memo(model.log_speed_density)
    try:
        prev = None
        for round_ in range(_MAX_REFINEMENTS + 1):
            curves, fits = _curves(model.quad, S, m, log_m, grid, n,
                                   two_sided)
            idx = np.searchsorted(grid, xs)
            extract = np.stack([c[idx] for c in curves])
            if prev is not None and np.array_equal(np.isinf(extract),
                                                   np.isinf(prev)):
                kept = ~np.isinf(extract)
                scale = np.abs(prev[kept]) + 1e-12
                change = float(np.max(
                    np.abs(extract[kept] - prev[kept]) / scale, initial=0.0))
                if change < rel_tol:
                    return extract, fits
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
        log_m.clear()


def _hitting_grid(model: DiffusionModel, a: float,
                  xs: np.ndarray) -> np.ndarray:
    span = float(np.max(xs) - a)
    reach = max(_TAIL_FACTOR * span, _TAIL_FACTOR * (1.0 + abs(a)))
    L = a + reach
    # keep exp(B) representable over the working range
    while abs(model.log_scale_exponent(L)) > _LOG_SCALE_LIMIT \
            and L - a > 1.5 * span:
        L = a + (L - a) / 1.4
    pivot = a + span
    lin = np.linspace(a, pivot, _N_LINEAR)
    geo = a + np.geomspace(span, L - a, _N_GEOMETRIC)
    return np.unique(np.concatenate([lin, geo, xs]))


def _fit_tail(grid: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Leading power law C * xi^kappa fitted on the last decade of the grid."""
    L = grid[-1]
    lo = max(L / 10.0, grid[0] + 0.5 * (L - grid[0]) / 10.0, 1e-9)
    mask = grid >= lo
    if np.count_nonzero(mask) < 4:
        mask = grid >= grid[max(0, grid.size - 8)]
    gx = grid[mask]
    gv = vals[mask]
    if np.max(gv) <= 0 or np.max(gv) / max(np.min(gv[gv > 0], initial=np.inf), 1e-300) < 1.05:
        return float(np.mean(gv)), 0.0
    pos = gv > 0
    kappa, logc = np.polyfit(np.log(gx[pos]), np.log(gv[pos]), 1)
    return float(np.exp(logc)), float(kappa)


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
            log_m: Callable, grid: np.ndarray, n: int,
            two_sided: bool) -> tuple[list[np.ndarray], list]:
    """Moment curves u_0..u_n on ``grid`` and the tail fits of a ray.

    u_k = k [rho P + (S - S(a)) Q] / rho(a) with P = int_a^x (S - S(a))
    u_{k-1} m and Q = int_x^end rho u_{k-1} m.  On an interval rho = S(b) - S;
    on the ray [a, inf) rho = 1 and Q also takes the fitted tail beyond the
    grid.  Orders from the first divergent tail on are +inf.  ``S``, ``m``
    and ``log_m`` are the model's scale function, speed density and its log
    (memoized by ``_settle``).
    """
    sg = S(grid)
    sa = sg[0]
    if two_sided:
        sb = sg[-1]
        rho, rho_g, rho_a = (lambda t: sb - S(t)), sb - sg, sb - sa
    else:
        rho, rho_g, rho_a = (lambda t: 1.0), 1.0, 1.0
    curves = [np.ones_like(grid)]
    fits = []
    for k in range(1, n + 1):
        prev = _interpolant(grid, curves[-1])
        wp = lambda t: (S(t) - sa) * prev(t) * m(t)
        wq = lambda t: rho(t) * prev(t) * m(t)
        if not two_sided:
            c_fit, kappa = (1.0, 0.0) if k == 1 else _fit_tail(grid, curves[-1])
            fits.append((k - 1, c_fit, kappa))
            log_c = math.log(c_fit)
            far = tail(lambda t: log_c + kappa * np.log(t) + log_m(t),
                       grid[-1], 1, 1.0, quad.rel_tol, quad.abs_tol)
            if math.isnan(far.value):
                raise InconclusiveError(
                    f"order-{k} tail beyond x={grid[-1]:g} is inconclusive "
                    f"(endpoint power {far.power:.4g})")
            if far.value == math.inf:
                break
        P = cumulative_panels(wp, grid, quad.rel_tol, quad.abs_tol)
        Qc = cumulative_panels(wq, grid, quad.rel_tol, quad.abs_tol)
        Q = Qc[-1] - Qc
        if not two_sided:
            Q = Q + far.value
        curves.append(k * (rho_g * P + (sg - sa) * Q) / rho_a)
    curves += [np.full_like(grid, np.inf)] * (n + 1 - len(curves))
    return curves, fits


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
