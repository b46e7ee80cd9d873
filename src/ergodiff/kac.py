"""Hitting/exit-time moments by the iterated moment recursion: the order-k
moment curve is the integral of the order-(k-1) curve against the Green
kernel and the speed density, taken as running integrals along a grid.

Two-sided exit moments are always finite and are built on a shared internal
grid, interpolating each order's curve (shape-preserving cubic) inside the
next order's quadrature; the grid doubles until the requested values settle.

One-sided hitting moments additionally need the previous curve on an
unbounded ray.  The curve is computed up to a horizon L, its tail modeled by
the leading power law fitted on the last decade of the grid (log-log
regression), and the tail integral of (modeled curve) * m decides finiteness:
a divergent tail at order k makes the whole order-k row +infinity, and every
higher order inherits +infinity without further quadrature.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .diffusion import DiffusionModel
from .errors import (DomainError, InterpolationError,
                     NotPositiveRecurrentError)
from .gridfn import cumulative_panels
from .quadrature import integrate_finite, integrate_semi_infinite

__all__ = [
    "MomentTable", "mean_exit_time", "exit_moment_table",
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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# kind={self.kind} boundary={self.boundary} "
                     f"model={self.model_hash}\n")
            writer = csv.writer(fh)
            writer.writerow(["x", "order", "value"])
            for k in range(self.values.shape[0]):
                for x, v in zip(self.x_grid, self.values[k]):
                    writer.writerow([repr(float(x)), k,
                                     "inf" if math.isinf(v) else repr(float(v))])


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
    m = model.speed_density_fn()
    sa, sb, sx = S(a), S(b), S(x)
    left = integrate_finite(lambda xi: (S(xi) - sa) * m(xi), a, x, model.quad)
    right = integrate_finite(lambda xi: (sb - S(xi)) * m(xi), x, b, model.quad)
    return ((sb - sx) * left.value + (sx - sa) * right.value) / (sb - sa)


def _interpolant(grid: np.ndarray, vals: np.ndarray) -> Callable:
    if np.allclose(vals, vals[0], rtol=0, atol=1e-300):
        const = float(vals[0])
        return lambda xs: np.full_like(np.asarray(xs, dtype=float), const)
    pch = PchipInterpolator(grid, vals, extrapolate=True)
    return lambda xs: np.maximum(pch(np.asarray(xs, dtype=float)), 0.0)


def exit_moment_table(model: DiffusionModel, a: float, b: float,
                      x_grid, n: int, rel_tol: float = 1e-7) -> MomentTable:
    """Iterated two-sided exit moments E_x T_{a,b}^k, k = 0..n."""
    if n < 1:
        raise DomainError("order n must be >= 1")
    xs = np.asarray(x_grid, dtype=float)
    if np.any(xs < a) or np.any(xs > b):
        raise DomainError("x_grid must lie inside [a, b]")

    grid = np.unique(np.concatenate([np.linspace(a, b, 129), xs]))
    prev_extract = None
    for round_ in range(_MAX_REFINEMENTS + 1):
        curves = _exit_curves(model, grid, n)
        idx = np.searchsorted(grid, xs)
        extract = np.stack([c[idx] for c in curves])
        if prev_extract is not None:
            scale = np.abs(prev_extract) + 1e-12
            if float(np.max(np.abs(extract - prev_extract) / scale)) < rel_tol:
                return MomentTable("two_sided", (a, b), xs, extract,
                                   model.model_hash())
        prev_extract = extract
        if round_ < _MAX_REFINEMENTS:
            mids = 0.5 * (grid[:-1] + grid[1:])
            grid = np.unique(np.concatenate([grid, mids]))
    raise InterpolationError(
        f"exit table did not settle to rel tol {rel_tol:g} after "
        f"{_MAX_REFINEMENTS} grid doublings")


def _exit_curves(model: DiffusionModel, grid: np.ndarray, n: int) -> list[np.ndarray]:
    S = model.scale_function
    m = model.speed_density_fn()
    sg = S(grid)
    sa, sb = sg[0], sg[-1]
    curves = [np.ones_like(grid)]
    for k in range(1, n + 1):
        prev = _interpolant(grid, curves[-1])
        wp = lambda t: (S(t) - sa) * prev(t) * m(t)
        wq = lambda t: (sb - S(t)) * prev(t) * m(t)
        P = cumulative_panels(wp, grid, model.quad.rel_tol, model.quad.abs_tol)
        Qc = cumulative_panels(wq, grid, model.quad.rel_tol, model.quad.abs_tol)
        Q = Qc[-1] - Qc
        vals = k * ((sb - sg) * P + (sg - sa) * Q) / (sb - sa)
        curves.append(vals)
    return curves


def hitting_moment_table(model: DiffusionModel, target: float, side: str,
                         x_grid, n: int, rel_tol: float = 1e-7,
                         tail_factor: float = _TAIL_FACTOR,
                         probe_limit: float = 1e6) -> MomentTable:
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
    report = model.classify_recurrence(probe_limit)
    if not report.is_positive_recurrent:
        raise NotPositiveRecurrentError(
            f"{model.label} is {report.classification}")

    if side == FROM_BELOW:
        # reflect through the target: Y = 2c - X has drift -beta(2c - y) and
        # the same hitting time of c from above
        c = target
        mirror = DiffusionModel(
            lambda y: -model.drift(2.0 * c - np.asarray(y, dtype=float)),
            lambda y: model.sigma(2.0 * c - np.asarray(y, dtype=float)),
            label=f"mirror[{model.label}]", anchor=0.0, quad=model.quad)
        tbl = hitting_moment_table(mirror, c, FROM_ABOVE, 2.0 * c - xs, n,
                                   rel_tol, tail_factor, probe_limit)
        # columns of tbl correspond positionally to the caller's grid
        return MomentTable(FROM_BELOW, (target,), xs, tbl.values,
                           model.model_hash(), tbl.tail_fits)

    a = float(target)
    grid = _hitting_grid(model, a, xs, tail_factor)
    prev_extract = None
    for round_ in range(_MAX_REFINEMENTS + 1):
        curves, fits = _hitting_curves(model, a, grid, n)
        idx = np.searchsorted(grid, xs)
        extract = np.stack([c[idx] for c in curves])
        if prev_extract is not None:
            finite = np.isfinite(extract) & np.isfinite(prev_extract)
            if np.array_equal(np.isfinite(extract), np.isfinite(prev_extract)):
                scale = np.abs(prev_extract[finite]) + 1e-12
                change = 0.0 if not finite.any() else float(
                    np.max(np.abs(extract[finite] - prev_extract[finite]) / scale))
                if change < rel_tol:
                    return MomentTable(FROM_ABOVE, (target,), xs, extract,
                                       model.model_hash(), tuple(fits))
        prev_extract = extract
        if round_ < _MAX_REFINEMENTS:
            mids = 0.5 * (grid[:-1] + grid[1:])
            grid = np.unique(np.concatenate([grid, mids]))
    raise InterpolationError(
        f"hitting table did not settle to rel tol {rel_tol:g} after "
        f"{_MAX_REFINEMENTS} grid doublings")


def _hitting_grid(model: DiffusionModel, a: float, xs: np.ndarray,
                  tail_factor: float) -> np.ndarray:
    span = float(np.max(xs) - a)
    reach = max(tail_factor * span, tail_factor * (1.0 + abs(a)))
    L = a + reach
    # keep exp(B) representable over the working range
    while abs(model.log_scale_exponent(L)) > _LOG_SCALE_LIMIT \
            and L - a > 1.5 * span:
        L = a + (L - a) / 1.4
    pivot = a + span
    lin = np.linspace(a, pivot, _N_LINEAR)
    geo = a + np.geomspace(span, L - a, _N_GEOMETRIC)
    return np.unique(np.concatenate([lin, geo, xs]))


def _fit_tail(grid: np.ndarray, vals: np.ndarray, a: float) -> tuple[float, float]:
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


def _hitting_curves(model: DiffusionModel, a: float, grid: np.ndarray,
                    n: int):
    S = model.scale_function
    m = model.speed_density_fn()
    sg = S(grid)
    sa = sg[0]
    L = grid[-1]
    curves = [np.ones_like(grid)]
    fits = []
    infinite_from = None
    for k in range(1, n + 1):
        if infinite_from is not None:
            curves.append(np.full_like(grid, np.inf))
            continue
        prev_vals = curves[-1]
        prev = _interpolant(grid, prev_vals)
        if k == 1:
            c_fit, kappa = 1.0, 0.0
        else:
            c_fit, kappa = _fit_tail(grid, prev_vals, a)
        fits.append((k - 1, c_fit, kappa))
        tail = integrate_semi_infinite(
            lambda t: c_fit * np.asarray(t, dtype=float) ** kappa * m(t),
            L, math.inf, model.quad)
        if tail.diverged:
            infinite_from = k
            curves.append(np.full_like(grid, np.inf))
            continue
        wI = lambda t: (S(t) - sa) * prev(t) * m(t)
        wJ = lambda t: prev(t) * m(t)
        I = cumulative_panels(wI, grid, model.quad.rel_tol, model.quad.abs_tol)
        Jc = cumulative_panels(wJ, grid, model.quad.rel_tol, model.quad.abs_tol)
        J = (Jc[-1] - Jc) + tail.value
        vals = k * (I + (sg - sa) * J)
        curves.append(vals)
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
