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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .errors import (DomainError, InconclusiveError, NonConvergenceError,
                     NotPositiveRecurrentError, NumericalBlowupError)
from .gridfn import Antiderivative
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, integrate_finite,
                         integrate_semi_infinite, vectorize_integrand)

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
    probed_up_to: float  # verdict is numerical, probed to this range

    @property
    def is_positive_recurrent(self) -> bool:
        return self.classification == POSITIVE_RECURRENT


class DiffusionModel:
    """Immutable diffusion dX = beta dt + sigma dW with cached scale objects.

    All methods are pure; the panel sums behind B and S are append-only and
    lock-guarded, so instances can be shared across threads.
    """

    def __init__(self, drift: Callable, diffusion: Callable, label: str = "",
                 anchor: float = 0.0,
                 quad: QuadratureConfig = DEFAULT_CONFIG):
        self._drift = vectorize_integrand(drift)
        self._sigma = vectorize_integrand(diffusion)
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
        self._recurrence: dict[float, RecurrenceReport] = {}

    # -- coefficient access -------------------------------------------------

    def drift(self, x):
        return self._drift(np.atleast_1d(np.asarray(x, dtype=float)))

    def sigma(self, x):
        return self._sigma(np.atleast_1d(np.asarray(x, dtype=float)))

    def sigma_sq(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        s2 = self._sigma(xs) ** 2
        _check_positive(xs, s2)
        return s2

    def step_coefficients(self, x: np.ndarray, guard: float):
        """(drift, sigma^2) at an Euler state x, a 1-d float array.

        The checks run in order: |x| <= guard, then those of sigma_sq, then
        the finiteness of the drift.  Each is screened by one reduction, and
        only a failing screen runs the elementwise check, which names the
        offending point (a NaN fails the screens but none of the checks).
        The coefficients come from ``sigma_sq`` and ``drift``, so every
        evaluation stays a call of those two methods.
        """
        if not abs(x).max(initial=0.0) <= guard \
                and np.any(np.abs(x) > guard):
            raise NumericalBlowupError(
                f"{self.label}: |X| exceeded guard {guard:g}; "
                "is the model recurrent?")
        s2 = self.sigma_sq(x)
        return self.drift(x), s2

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

    def speed_density_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        return lambda xs: self.speed_density(np.asarray(xs))

    # -- classification -----------------------------------------------------

    def classify_recurrence(self, probe_limit: float = 1e6) -> RecurrenceReport:
        """Numerical recurrence trichotomy, probed to ``probe_limit``.

        The verdict rests on tail divergence of s (recurrence) and of m
        (speed mass); it is a finite-range judgement and is reported as such.
        """
        if probe_limit <= 0:
            raise DomainError("probe_limit must be positive")
        cached = self._recurrence.get(probe_limit)
        if cached is not None:
            return cached

        # classification needs a verdict plus a speed mass good to a modest
        # relative accuracy; slow power-law tails cannot be pinned to the
        # full quadrature tolerance inside a finite probe range
        cls_quad = QuadratureConfig(
            rel_tol=max(self.quad.rel_tol, 1e-7),
            abs_tol=self.quad.abs_tol,
            max_subdivisions=self.quad.max_subdivisions,
            divergence_cap=self.quad.divergence_cap)

        def ray(f, direction):
            try:
                return integrate_semi_infinite(f, self.anchor, direction,
                                               cls_quad, max_range=probe_limit)
            except NonConvergenceError as exc:
                raise InconclusiveError(
                    f"tail of {self.label} unresolved up to {probe_limit:g}: {exc}"
                ) from exc

        s_fn = lambda xs: np.exp(-self._log_scale.values(np.asarray(xs)))
        s_right = ray(s_fn, math.inf)
        s_left = ray(s_fn, -math.inf)
        if not (s_right.diverged and s_left.diverged):
            report = RecurrenceReport(TRANSIENT, math.inf, probe_limit)
        else:
            m_fn = self.speed_density_fn()
            m_right = ray(m_fn, math.inf)
            m_left = ray(m_fn, -math.inf)
            if m_right.diverged or m_left.diverged:
                report = RecurrenceReport(NULL_RECURRENT, math.inf, probe_limit)
            else:
                report = RecurrenceReport(POSITIVE_RECURRENT,
                                          m_right.value + m_left.value,
                                          probe_limit)
        self._recurrence[probe_limit] = report
        return report

    def invariant_density(self, x, probe_limit: float = 1e6):
        """mu(x) = m(x)/M; requires positive recurrence."""
        report = self.classify_recurrence(probe_limit)
        if not report.is_positive_recurrent:
            raise NotPositiveRecurrentError(
                f"{self.label} classified {report.classification} "
                f"(probed to {report.probed_up_to:g})")
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

    def mu_integral(self, f: Callable, lo: float, hi: float,
                    probe_limit: float = 1e6) -> float:
        """int f dmu over [lo, hi] by quadrature (positive recurrence required)."""
        report = self.classify_recurrence(probe_limit)
        if not report.is_positive_recurrent:
            raise NotPositiveRecurrentError(self.label)
        fv = vectorize_integrand(f)
        res = integrate_finite(
            lambda xs: fv(xs) * self.speed_density(xs), lo, hi, self.quad)
        return res.value / report.speed_mass

    def __repr__(self):
        return f"DiffusionModel({self.label!r}, anchor={self.anchor})"


def _check_positive(xs: np.ndarray, s2: np.ndarray) -> None:
    if not s2.min(initial=np.inf) > 0 and np.any(s2 <= 0):
        bad = xs[s2 <= 0]
        raise DomainError(f"sigma^2 vanishes at x={bad.flat[0]!r}")


def _worst(name: str, grid: np.ndarray, slack: np.ndarray) -> InequalityCheck:
    i = int(np.argmin(slack))
    # tiny negative slack from roundoff still counts as satisfied
    tol = 1e-12 * (1.0 + float(np.max(np.abs(slack))))
    return InequalityCheck(name, bool(slack[i] >= -tol), float(grid[i]),
                           float(slack[i]))


# -- built-in model families ----------------------------------------------

def brownian(sigma: float = 1.0, **kw) -> DiffusionModel:
    """Driftless Brownian motion with constant coefficient."""
    return DiffusionModel(lambda x: np.zeros_like(x),
                          lambda x, s=float(sigma): np.full_like(x, s),
                          label=f"brownian({sigma:g})", **kw)


def ou(theta: float = 1.0, **kw) -> DiffusionModel:
    """Ornstein-Uhlenbeck: beta(x) = -theta*x, sigma = 1."""
    th = float(theta)
    return DiffusionModel(lambda x: -th * x, lambda x: np.ones_like(x),
                          label=f"ou({theta:g})", **kw)


def bounded_drift(theta: float = 1.0, **kw) -> DiffusionModel:
    """beta(x) = -theta*x/(1+x^2), sigma = 1; drift-to-noise ratio bounded."""
    th = float(theta)
    return DiffusionModel(lambda x: -th * x / (1.0 + x * x),
                          lambda x: np.ones_like(x),
                          label=f"bounded_drift({theta:g})", **kw)
