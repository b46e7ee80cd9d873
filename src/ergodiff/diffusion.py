"""One-dimensional diffusion models: scale function, speed density, invariant
measure, recurrence classification, and coefficient-assumption checks.

For dX = beta(X) dt + sigma(X) dW the (natural-scale) objects are

    s(x) = exp(-2 * int_anchor^x beta/sigma^2),
    S(x) = int_anchor^x s(t) dt,
    m(x) = 2 / (sigma(x)^2 s(x)).

The anchor defaults to 0; every downstream formula uses only differences of
S and ratios of s, so the choice is a convention.  The log-scale exponent B
and S are fixed-panel antiderivatives, so s, S, m evaluate over whole node
batches at once and their values do not depend on earlier calls; m is
computed as 2*exp(B - log sigma^2), which stays finite far into tails where s
itself would overflow.

The recurrence verdict rests on the four tails of s and m, each judged by
``gridfn.tail`` from log s = -B and log m, so that no tail overflows.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .errors import (DomainError, InconclusiveError, NotPositiveRecurrentError,
                     NumericalBlowupError)
from .gridfn import TAIL_BAND, Antiderivative, tail
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, integrate_finite,
                         vectorize_integrand)

__all__ = [
    "AssumptionParams", "DiffusionModel", "RecurrenceReport",
    "AssumptionReport", "brownian", "ou", "bounded_drift",
]

TRANSIENT = "transient"
NULL_RECURRENT = "null_recurrent"
POSITIVE_RECURRENT = "positive_recurrent"


@dataclass(frozen=True)
class AssumptionParams:
    """Coefficient-envelope parameters for the tail assumptions.

    The lower block (sigma0, gamma, r) asserts sigma0*|x|^gamma <= |sigma(x)|
    and -x*beta/sigma^2 >= r for |x| > m0; the upper block (sigma1, delta,
    r_cap) asserts |sigma(x)| <= sigma1*|x|^delta and 0 < -x*beta/sigma^2
    <= r_cap there.  Either block may be absent.
    """

    m0: float
    sigma0: float | None = None
    gamma: float | None = None
    r: float | None = None
    sigma1: float | None = None
    delta: float | None = None
    r_cap: float | None = None

    def __post_init__(self):
        # each test is written to fail on NaN
        if not self.m0 > 0:
            raise DomainError("m0 must be positive")
        lower = (self.sigma0, self.gamma, self.r)
        upper = (self.sigma1, self.delta, self.r_cap)
        if any(v is not None for v in lower) and any(v is None for v in lower):
            raise DomainError("lower block needs sigma0, gamma and r together")
        if any(v is not None for v in upper) and any(v is None for v in upper):
            raise DomainError("upper block needs sigma1, delta and r_cap together")
        if self.sigma0 is not None:
            if not (self.sigma0 > 0 and self.r > 0 and self.gamma < 1):
                raise DomainError("lower block requires sigma0>0, r>0, gamma<1")
        if self.sigma1 is not None:
            if not (self.sigma1 > 0 and self.r_cap > 0 and self.delta < 1):
                raise DomainError("upper block requires sigma1>0, r_cap>0, delta<1")

    @property
    def has_lower(self) -> bool:
        return self.sigma0 is not None

    @property
    def has_upper(self) -> bool:
        return self.sigma1 is not None


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    passed: bool
    worst_x: float
    margin: float  # most negative slack observed (>=0 means satisfied)


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[InequalityCheck, ...]
    lower_ok: bool | None
    upper_ok: bool | None
    p_star_bracket: tuple[float, float] | None


@dataclass(frozen=True)
class RecurrenceReport:
    classification: str
    speed_mass: float  # total mass of m; +inf unless positive recurrent
    tail_powers: tuple  # endpoint powers: s right, s left, m right, m left

    @property
    def is_positive_recurrent(self) -> bool:
        return self.classification == POSITIVE_RECURRENT


class DiffusionModel:
    """Immutable diffusion dX = beta dt + sigma dW with cached scale objects.

    ``diffusion`` is a callable sigma(x) or a real number c for a constant
    sigma.  A number must give a positive, finite sigma^2 = c*c, checked
    once here (DomainError otherwise) and kept as ``constant_sigma_sq``
    (None for a callable sigma), so the Euler kernel need not screen it.

    All methods are pure; the panel sums behind B and S are append-only,
    and each extension is computed from the panel edges alone, so instances
    can be shared across threads.
    """

    def __init__(self, drift: Callable, diffusion: Callable | float,
                 label: str = "", anchor: float = 0.0,
                 quad: QuadratureConfig = DEFAULT_CONFIG):
        self._drift = vectorize_integrand(drift)
        if isinstance(diffusion, numbers.Real):
            c = float(diffusion)
            if not 0.0 < c * c < math.inf:            # NaN fails too
                raise DomainError(
                    f"constant sigma must be finite and nonzero, got {c!r}")
            self._sigma = lambda xs: np.full(np.shape(xs), c)
            self.constant_sigma_sq = c * c
        else:
            self._sigma = vectorize_integrand(diffusion)
            self.constant_sigma_sq = None
        self.label = label or "anonymous"
        self.anchor = float(anchor)
        self.quad = quad
        # B(x) = 2 * int_anchor^x beta/sigma^2; s = exp(-B)
        self._log_scale = Antiderivative(
            lambda xs: 2.0 * self._drift(xs) / self.sigma_sq(xs),
            anchor=self.anchor, rel_tol=quad.rel_tol * 0.1,
            abs_tol=quad.abs_tol * 0.1)
        self._scale_integral = Antiderivative(
            lambda xs: np.exp(-self._log_scale.values(xs)),
            anchor=self.anchor, rel_tol=quad.rel_tol * 0.1,
            abs_tol=quad.abs_tol * 0.1)
        self._recurrence: RecurrenceReport | None = None

    # -- coefficient access -------------------------------------------------

    def drift(self, x):
        return self._drift(np.atleast_1d(np.asarray(x, dtype=float)))

    def sigma(self, x):
        return self._sigma(np.atleast_1d(np.asarray(x, dtype=float)))

    def sigma_sq(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        s2 = self._sigma(xs) ** 2
        if not s2.min(initial=np.inf) > 0 and np.any(s2 <= 0):
            raise DomainError(f"sigma^2 vanishes at x={xs[s2 <= 0].flat[0]!r}")
        return s2

    def step_coefficients(self, x: np.ndarray, guard: float):
        """(drift, sigma^2) at an Euler state x, a 1-d float array.

        The checks run in order: |x| <= guard, then those of sigma_sq, then
        the finiteness of the drift.  Each is screened by one reduction, and
        only a failing screen runs the elementwise check, which names the
        offending point (a NaN fails the screens but none of the checks).
        The coefficients come from ``sigma_sq`` and ``drift``; a constant
        sigma^2 is returned as that scalar instead.  The Euler kernel steps
        with ``unchecked_coefficients`` and calls this once per block, on
        all the states it stepped from, unless ``pointwise()``.
        """
        if not abs(x).max(initial=0.0) <= guard \
                and np.any(np.abs(x) > guard):
            raise NumericalBlowupError(
                f"{self.label}: |X| exceeded guard {guard:g}; "
                "is the model recurrent?")
        s2 = self.constant_sigma_sq
        if s2 is None:
            s2 = self.sigma_sq(x)
        return self.drift(x), s2

    def unchecked_coefficients(self, x: np.ndarray):
        """(drift, sigma^2) as ``step_coefficients`` evaluates them, unchecked."""
        s2 = self.constant_sigma_sq
        if s2 is None:
            s2 = self._sigma.unchecked(x) ** 2
        return self._drift.unchecked(x), s2

    def pointwise(self) -> bool:
        """Whether the drift or a callable sigma has proved scalar-only."""
        return self._drift.scalar() or (self.constant_sigma_sq is None
                                        and self._sigma.scalar())

    def model_hash(self) -> str:
        payload = f"{self.label}|anchor={self.anchor}|quad={astuple(self.quad)}"
        payload = payload.encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    # -- scale and speed ----------------------------------------------------

    def log_scale_exponent(self, x):
        """B(x) with s(x) = exp(-B(x)); vectorized."""
        return self._log_scale(x)

    def scale_density(self, x):
        """s(x) > 0 with s(anchor) = 1 exactly."""
        xs = np.asarray(x, dtype=float)
        out = np.exp(-self._log_scale.values(xs))
        if not np.all(np.isfinite(out)):
            raise DomainError(f"scale density overflows near x={x!r}")
        return float(out[0]) if np.ndim(x) == 0 else out

    def scale_function(self, x):
        """S(x), the signed integral of s from the anchor."""
        out = self._scale_integral.values(np.asarray(x, dtype=float))
        return float(out[0]) if np.ndim(x) == 0 else out

    def speed_density(self, x):
        """m(x) = 2 / (sigma^2 s), computed in log space for tail stability."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        s2 = self.sigma_sq(xs)
        out = 2.0 * np.exp(self._log_scale.values(xs) - np.log(s2))
        return float(out[0]) if np.ndim(x) == 0 else out

    # -- classification -----------------------------------------------------

    def classify_recurrence(self) -> RecurrenceReport:
        """Numerical recurrence trichotomy from the tails of s and m.

        Recurrent when S is unbounded on both sides, positive recurrent when
        m also has finite mass.  Each tail is judged by its endpoint power
        (``gridfn.tail``); a verdict that needs an inconclusive tail raises
        InconclusiveError.
        """
        if self._recurrence is not None:
            return self._recurrence
        log_s = lambda xs: -self._log_scale.values(xs)
        log_m = lambda xs: (math.log(2.0) + self._log_scale.values(xs)
                            - np.log(self.sigma_sq(xs)))
        tails = [tail(fn, self.anchor, side, 1.0, self.quad.rel_tol,
                      self.quad.abs_tol)
                 for fn in (log_s, log_m) for side in (1, -1)]
        values = [t.value for t in tails]
        unknown = [math.isnan(v) for v in values]
        if math.isfinite(values[0]) or math.isfinite(values[1]):
            cls = TRANSIENT
        elif math.inf in values[2:] and not any(unknown[:2]):
            cls = NULL_RECURRENT
        elif any(unknown):
            i = unknown.index(True)
            p = tails[i].power
            why = (f"endpoint power {p:.4g} within {TAIL_BAND:g} of -1"
                   if abs(p + 1.0) < TAIL_BAND else "beyond the float range")
            raise InconclusiveError(
                f"{self.label}: the {('right', 'left')[i % 2]} tail of "
                f"{'sm'[i // 2]} is inconclusive ({why})")
        else:
            cls = POSITIVE_RECURRENT
        mass = tails[2].value + tails[3].value if cls == POSITIVE_RECURRENT \
            else math.inf
        self._recurrence = RecurrenceReport(
            cls, mass, tuple(t.power for t in tails))
        return self._recurrence

    def invariant_density(self, x):
        """mu(x) = m(x)/M; requires positive recurrence."""
        report = self.classify_recurrence()
        if not report.is_positive_recurrent:
            raise NotPositiveRecurrentError(
                f"{self.label} classified {report.classification}")
        out = self.speed_density(x) / report.speed_mass
        return out

    # -- assumption checks --------------------------------------------------

    def check_assumptions(self, params: AssumptionParams,
                          probe_grid: np.ndarray) -> AssumptionReport:
        """Evaluate the tail inequalities on the given probe grid.

        Only grid points with |x| > m0 participate.  Always returns a
        report; an empty probe set fails the corresponding check.
        """
        grid = np.asarray(probe_grid, dtype=float)
        grid = grid[np.abs(grid) > params.m0]
        checks = []
        lower_ok = upper_ok = None

        if grid.size:
            s2 = self.sigma_sq(grid)
            abs_sigma = np.sqrt(s2)
            ratio = -grid * self._drift(grid) / s2
        if params.has_lower:
            if grid.size == 0:
                checks.append(InequalityCheck("sigma_lower", False, math.nan, -math.inf))
                checks.append(InequalityCheck("drift_ratio_lower", False, math.nan, -math.inf))
                lower_ok = False
            else:
                slack = abs_sigma - params.sigma0 * np.abs(grid) ** params.gamma
                checks.append(_worst("sigma_lower", grid, slack))
                slack = ratio - params.r
                checks.append(_worst("drift_ratio_lower", grid, slack))
                lower_ok = checks[-2].passed and checks[-1].passed
        if params.has_upper:
            if grid.size == 0:
                checks.append(InequalityCheck("sigma_upper", False, math.nan, -math.inf))
                checks.append(InequalityCheck("drift_ratio_upper", False, math.nan, -math.inf))
                upper_ok = False
            else:
                slack = params.sigma1 * np.abs(grid) ** params.delta - abs_sigma
                checks.append(_worst("sigma_upper", grid, slack))
                slack = np.minimum(params.r_cap - ratio, ratio)  # 0 < ratio <= R
                checks.append(_worst("drift_ratio_upper", grid, slack))
                upper_ok = checks[-2].passed and checks[-1].passed

        bracket = None
        if params.has_lower and params.has_upper:
            bracket = (2 * params.r + 2 * params.gamma - 1,
                       2 * params.r_cap + 2 * params.delta - 1)
        return AssumptionReport(tuple(checks), lower_ok, upper_ok, bracket)

    # -- misc ---------------------------------------------------------------

    def mu_integral(self, f: Callable, lo: float, hi: float) -> float:
        """int f dmu over [lo, hi] by quadrature (positive recurrence required)."""
        report = self.classify_recurrence()
        if not report.is_positive_recurrent:
            raise NotPositiveRecurrentError(self.label)
        fv = vectorize_integrand(f)
        res = integrate_finite(
            lambda xs: fv(xs) * self.speed_density(xs), lo, hi, self.quad)
        return res.value / report.speed_mass

    def __repr__(self):
        return f"DiffusionModel({self.label!r}, anchor={self.anchor})"


def _worst(name: str, grid: np.ndarray, slack: np.ndarray) -> InequalityCheck:
    i = int(np.argmin(slack))
    # tiny negative slack from roundoff still counts as satisfied
    tol = 1e-12 * (1.0 + float(np.max(np.abs(slack))))
    return InequalityCheck(name, bool(slack[i] >= -tol), float(grid[i]),
                           float(slack[i]))


# -- built-in model families ----------------------------------------------

def brownian(sigma: float = 1.0, **kw) -> DiffusionModel:
    """Driftless Brownian motion with constant coefficient."""
    return DiffusionModel(lambda x: np.zeros_like(x), float(sigma),
                          label=f"brownian({sigma:g})", **kw)


def ou(theta: float = 1.0, **kw) -> DiffusionModel:
    """Ornstein-Uhlenbeck: beta(x) = -theta*x, sigma = 1."""
    th = float(theta)
    return DiffusionModel(lambda x: -th * x, 1.0, label=f"ou({theta:g})",
                          **kw)


def bounded_drift(theta: float = 1.0, **kw) -> DiffusionModel:
    """beta(x) = -theta*x/(1+x^2), sigma = 1; drift-to-noise ratio bounded."""
    th = float(theta)
    return DiffusionModel(lambda x: -th * x / (1.0 + x * x), 1.0,
                          label=f"bounded_drift({theta:g})", **kw)
