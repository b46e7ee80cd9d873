"""Closed-form bounds: tail-integral brackets, polynomial hitting-moment
bounds with their sharp constants, the critical-exponent bracket, and the
polynomial deviation-inequality constants.

The deviation constants are assembled term by term from the probability
decomposition behind the inequalities (first-block term A, martingale term
B, boundary-block term C and counting-process term D), each evaluated at its
displayed coefficient.  The total bound is their sum; the per-term breakdown
is retained for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import AssumptionParams
from .errors import (DomainError, InconsistentParamsError, MissingMomentsError,
                     RangeError)
from .gridfn import tail
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_finite

__all__ = [
    "BracketedIntegral", "tail_power_integral", "head_power_integral",
    "MomentBoundParams", "moment_upper_bound", "moment_lower_bound",
    "p_star_bracket", "DeviationConstants", "BoundBreakdown",
    "nt_deviation_bound", "ergodic_bound_sup", "ergodic_bound_l1",
    "AdmissibilityReport", "deviation_admissibility", "DeviationReport",
]


# -- tail-integral brackets --------------------------------------------------

@dataclass(frozen=True)
class BracketedIntegral:
    value: float
    lower: float
    upper: float


def tail_power_integral(p: float, q: float, x: float, a: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> BracketedIntegral:
    """I = int_x^inf (xi-a)^p / xi^q dxi with its closed-form bracket.

    Requires 0 < a <= x and 0 <= p < q-1.  The quadrature value is checked
    against the bracket; a violation raises RangeError (it would mean the
    quadrature and the closed forms disagree), and so does a tail whose
    power p - q lies too close to -1 to integrate (``gridfn.tail``).
    """
    if not 0 < a <= x:
        raise DomainError("need 0 < a <= x")
    if not 0 <= p < q - 1:
        raise DomainError("need 0 <= p < q - 1 (integral diverges otherwise)")
    res = tail(lambda t: p * np.log(t - a) - q * np.log(t), x, 1, x,
               cfg.rel_tol, cfg.abs_tol)
    if not math.isfinite(res.value):
        raise RangeError(f"tail power {res.power:.4g} too close to -1 to "
                         "integrate")
    lower = (x - a) ** (p + 1) / ((q - p - 1) * x ** q)
    upper = x ** (p + 1) / ((q - p - 1) * x ** q)
    return _checked(res.value, lower, upper, res.error_estimate)


def head_power_integral(p: float, q: float, x: float, a: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> BracketedIntegral:
    """J = int_a^x (xi-a)^p / xi^q dxi with its closed-form bracket.

    Requires 0 < a <= x, p >= 0 and q < p+1.  The lower-bound constant is
    kappa = p+1 for q > 0 and p+1-q for q <= 0.
    """
    if not 0 < a <= x:
        raise DomainError("need 0 < a <= x")
    if not (p >= 0 and q < p + 1):
        raise DomainError("need p >= 0 and q < p + 1")
    res = integrate_finite(
        lambda t: (np.asarray(t) - a) ** p * np.asarray(t) ** (-q), a, x, cfg)
    kappa = (p + 1) if q > 0 else (p + 1 - q)
    lower = (x - a) ** (p + 1) / (kappa * x ** q)
    upper = x ** (p + 1) / ((p + 1 - q) * x ** q)
    return _checked(res.value, lower, upper, res.error_estimate)


def _checked(value: float, lower: float, upper: float,
             err: float) -> BracketedIntegral:
    slack = 2.0 * err + 1e-12 * (abs(value) + 1.0)
    if not (lower - slack <= value <= upper + slack):
        raise RangeError(
            f"bracket violation: {lower:.6g} <= {value:.6g} <= {upper:.6g}")
    return BracketedIntegral(value, lower, upper)


# -- polynomial hitting-moment bounds ----------------------------------------

@dataclass(frozen=True)
class MomentBoundParams:
    """Envelope parameters plus the moment order for the closed-form bounds."""

    order: float
    sigma0: float | None = None
    gamma: float | None = None
    r: float | None = None
    sigma1: float | None = None
    delta: float | None = None
    r_cap: float | None = None

    @classmethod
    def from_assumptions(cls, params: AssumptionParams, order: float
                         ) -> "MomentBoundParams":
        return cls(order, params.sigma0, params.gamma, params.r,
                   params.sigma1, params.delta, params.r_cap)

    @property
    def alpha(self) -> float:
        return self.order - math.floor(self.order)


def upper_bound_order_limit(params: MomentBoundParams | AssumptionParams) -> float:
    """Largest admissible order for the upper bound: (2r+1)(1-gamma)^-1/2."""
    if params.r is None:
        raise RangeError("upper bound needs the lower coefficient block")
    return (2 * params.r + 1) / (2 * (1 - params.gamma))


def lower_bound_order_limit(params: MomentBoundParams | AssumptionParams) -> float:
    """Order threshold (2R+1)(1-delta)^-1/2 beyond which moments are infinite."""
    if params.r_cap is None:
        raise RangeError("lower bound needs the upper coefficient block")
    return (2 * params.r_cap + 1) / (2 * (1 - params.delta))


def moment_upper_bound(params: MomentBoundParams, x: float) -> float:
    """Upper bound x^(2m(1-gamma)) / (r_m sigma0^(2m) (1-gamma)^m) on E_x T_a^m.

    Valid for m in [1, (2r+1)(1-gamma)^-1/2) with 2r+2gamma > 1, for
    m0 < a < x (the caller guarantees the geometry).  RangeError outside the
    admissible order range.
    """
    if params.r is None:
        raise RangeError("upper bound needs sigma0, gamma, r")
    m = params.order
    r, gamma, sigma0 = params.r, params.gamma, params.sigma0
    if 2 * r + 2 * gamma <= 1:
        raise RangeError("need 2r + 2gamma > 1")
    limit = upper_bound_order_limit(params)
    if not 1 <= m < limit:
        raise RangeError(
            f"order m={m} outside admissible range [1, {limit:g})")
    alpha = params.alpha
    r_m = (2 * r + 2 * gamma - 1) ** alpha
    for k in range(1, math.floor(m) + 1):
        r_m *= 2 * r - 2 * (k + alpha) * (1 - gamma) + 1
    if r_m <= 0:
        raise RangeError(f"nonpositive constant r_m={r_m:g} for m={m}")
    return x ** (2 * m * (1 - gamma)) / (r_m * sigma0 ** (2 * m)
                                         * (1 - gamma) ** m)


def moment_lower_bound(params: MomentBoundParams, x: float, a: float) -> float:
    """Lower bound (x-a)^(2n(1-delta)) / (R_n sigma1^(2n) kappa^n) on E_x T_a^n.

    ``order`` must be a positive integer.  Beyond the threshold
    (2R+1)(1-delta)^-1/2 the moment itself is infinite and +inf is returned
    as the verdict.
    """
    if params.r_cap is None:
        raise RangeError("lower bound needs sigma1, delta, r_cap")
    n = params.order
    if n != int(n) or n < 1:
        raise RangeError("lower bound order must be a positive integer")
    n = int(n)
    R, delta, sigma1 = params.r_cap, params.delta, params.sigma1
    if x < a:
        raise DomainError("need x >= a")
    if n > lower_bound_order_limit(params):
        return math.inf  # the moment itself is infinite at these orders
    r_n = 1.0
    for k in range(1, n + 1):
        factor = 2 * R - 2 * k * (1 - delta) + 1
        if factor < 0:
            raise RangeError(
                f"nonpositive factor in R_n at k={k} despite admissible order")
        r_n *= factor
    if r_n == 0.0:
        return math.inf  # boundary order: bound degenerates, moment infinite
    kappa = max(1.0, 1.0 - delta)
    return (x - a) ** (2 * n * (1 - delta)) / (r_n * sigma1 ** (2 * n)
                                               * kappa ** n)


def p_star_bracket(params: AssumptionParams) -> tuple[float, float]:
    """Bracket [2r+2gamma-1, 2R+2delta-1] for the critical tail exponent."""
    if not (params.has_lower and params.has_upper):
        raise RangeError("bracket needs both coefficient blocks")
    lo = 2 * params.r + 2 * params.gamma - 1
    hi = 2 * params.r_cap + 2 * params.delta - 1
    if lo > hi:
        raise InconsistentParamsError(
            f"empty exponent bracket [{lo:g}, {hi:g}]")
    return (lo, hi)


# -- deviation-inequality constants ------------------------------------------

def default_bdg_constant(p: float) -> float:
    """Documented default for the martingale maximal-inequality constant.

    For p = 2 Doob's L2 inequality gives 2; for larger p the linear-in-p
    envelope from the standard square-function inequalities is used.  Treat
    as a configuration input, not a sharp value.
    """
    return max(2.0, float(p))


@dataclass(frozen=True)
class DeviationConstants:
    """Cycle-moment inputs for the deviation bounds.

    Moment fields default to None; bounds raise MissingMomentsError when an
    input they need is absent or non-finite.  ``c_p`` is the martingale
    maximal-inequality constant (configured, never asserted numerically).
    """

    l: float
    p: float
    c_p: float
    r1_centered_halfp: float | None = None  # E_nu |R1 - 1/l|^(p/2)
    r1_halfp: float | None = None           # E_nu R1^(p/2)
    eta_p: float | None = None              # E_nu |R2 - R1 - 1/l|^p
    r1_p_at_a: float | None = None          # E_a R1^p
    cycle_gap_p: float | None = None        # E_nu |R2 - R1|^p

    def __post_init__(self):
        if self.l <= 0:
            raise DomainError("cycle rate l must be positive")
        if self.p <= 1:
            raise DomainError("need exponent p > 1")
        for name in ("r1_centered_halfp", "r1_halfp", "eta_p",
                     "r1_p_at_a", "cycle_gap_p"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise DomainError(f"moment input {name} must be nonnegative")

    def require(self, *names: str) -> None:
        for name in names:
            v = getattr(self, name)
            if v is None or not math.isfinite(v):
                raise MissingMomentsError(f"moment input {name} is missing")


@dataclass(frozen=True)
class BoundBreakdown:
    total: float
    terms: dict
    regime: str  # "p>=2" | "1<p<2"


@dataclass(frozen=True)
class DeviationReport:
    """Joined empirical/theoretical record for one (t, eps) cell."""

    t: float
    eps: float
    empirical_prob: float
    empirical_halfwidth: float
    bound_value: float
    terms: dict
    regime: str
    kind: str = "sup"  # which bound family produced bound_value


def _regime(p: float) -> tuple[str, float]:
    if p >= 2:
        return "p>=2", p / 2.0
    return "1<p<2", (p - 1.0) / 2.0


def nt_deviation_bound(c: DeviationConstants, t: float, eps: float) -> float:
    """Bound on P(|N_t/t - l| > l*eps): C(l,p,nu) * eps^-p * t^-alpha.

    alpha = p/2 for p >= 2 and (p-1)/2 for 1 < p < 2 (the latter needs
    t >= 1).  Values above 1 are returned as-is (vacuous bound).
    """
    if not 0 < eps < 1:
        raise RangeError("need 0 < eps < 1")
    c.require("r1_centered_halfp", "eta_p")
    p = c.p
    if p < 2 and t < 1:
        raise RangeError("the 1<p<2 branch needs t >= 1")
    if p >= 2:
        const = (2 ** (p / 2) * c.r1_centered_halfp
                 + 2 ** (1.5 * p) * c.c_p ** p * c.eta_p * c.l ** (p / 2))
        alpha = p / 2
    else:
        const = (2 ** (p / 2) * c.r1_centered_halfp
                 + 2 ** ((3 * p + 1) / 2) * c.c_p ** p * c.eta_p
                 * c.l ** ((p + 1) / 2))
        alpha = (p - 1) / 2
    return const * eps ** (-p) * t ** (-alpha)


def ergodic_bound_sup(c: DeviationConstants, t: float, eps: float,
                      f_sup: float) -> BoundBreakdown:
    """Sup-norm deviation bound for bounded f, as A+B+C+D proof terms.

    Requires 0 < eps < f_sup and t >= 1.  The terms are the displayed
    coefficients of the four-way probability split; each is a valid bound on
    its piece, so the sum bounds the deviation probability.
    """
    if f_sup <= 0:
        raise RangeError("f_sup must be positive")
    if not 0 < eps < f_sup:
        raise RangeError("need 0 < eps < f_sup")
    if t < 1:
        raise RangeError("bounds are stated for t >= 1")
    c.require("r1_centered_halfp", "eta_p", "r1_halfp", "cycle_gap_p",
              "r1_p_at_a")
    p = c.p
    regime, alpha = _regime(p)
    ratio = f_sup / eps
    delta = eps / f_sup

    term_a = c.r1_halfp * (6.0 * ratio) ** (p / 2) * t ** (-p / 2)
    k_b = c.c_p ** p * 12.0 ** p * c.l ** (p / 2) * c.cycle_gap_p
    if p >= 2:
        term_b = k_b * ratio ** p * t ** (-p / 2)
    else:
        term_b = math.sqrt(2 * c.l) * k_b * ratio ** p * t ** (-alpha)
    term_c = 2.0 ** (p + 1) * c.l * 3.0 ** p * c.r1_p_at_a \
        * ratio ** p * t ** (-(p - 1))
    term_d = nt_deviation_bound(c, t, delta)
    terms = {"A": term_a, "B": term_b, "C": term_c, "D": term_d}
    return BoundBreakdown(sum(terms.values()), terms, regime)


def ergodic_bound_l1(c: DeviationConstants, t: float, eps: float,
                     mu_abs_f: float, c_f: float, p: int | None = None
                     ) -> BoundBreakdown:
    """L1(mu) deviation bound for bounded, compactly supported f.

    Uses the cycle-integral constant c_f = sup_x E_x int_0^{R_1} |f(X_s)| ds
    (``kac.first_block_sup``) directly in place of the local-time route;
    the mean-cycle value |mu(f)|/l is dominated by c_f, which keeps every
    f-dependent term proportional to c_f^p.  Integer p >= 2 only.
    """
    p = int(c.p if p is None else p)
    if p < 2 or p != c.p:
        raise RangeError("L1 bound needs integer p >= 2 matching the constants")
    if mu_abs_f <= 0:
        raise RangeError("mu(|f|) must be positive")
    if not 0 < eps < mu_abs_f:
        raise RangeError("need 0 < eps < mu(|f|)")
    if t < 1:
        raise RangeError("bounds are stated for t >= 1")
    if c_f < 0:
        raise DomainError("c_f must be nonnegative")
    c.require("r1_centered_halfp", "eta_p")
    delta = eps / mu_abs_f
    pf = math.factorial(p)

    term_a = pf * c_f ** p * (4.0 / eps) ** p * t ** (-p / 2)
    term_b = (8.0 ** p * c.c_p ** p * (c.l * (1 + delta / 4)) ** (p / 2)
              * (pf + 1.0) * c_f ** p * eps ** (-p) * t ** (-p / 2))
    term_c = (c.l * (1 + delta / 4) * pf * c_f ** p * 4.0 ** p
              * eps ** (-p) * t ** (-(p - 1)))
    term_d = nt_deviation_bound(c, t, delta / 4.0)
    terms = {"A": term_a, "B": term_b, "C": term_c, "D": term_d}
    return BoundBreakdown(sum(terms.values()), terms, "p>=2")


# -- bound admissibility -------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    sup_admissible: bool
    l1_admissible: bool
    order_limit: float | None
    reasons: tuple[str, ...]


def deviation_admissibility(params: AssumptionParams, p: float,
                    nu_moment: float) -> AdmissibilityReport:
    """Which deviation-bound variants the coefficient envelope admits.

    The sup-norm variant needs the lower block with 2r+2gamma > 1,
    1 < p < (2r+1)(1-gamma)^-1/2 and a finite initial moment
    int |x|^(p(1-gamma)) dnu.  The L1 variant additionally needs
    2r+4gamma > 3 and integer p >= 2.
    """
    reasons = []
    if not params.has_lower:
        return AdmissibilityReport(False, False, None,
                               ("lower coefficient block absent",))
    r, gamma = params.r, params.gamma
    limit = (2 * r + 1) / (2 * (1 - gamma))
    sup_ok = True
    if 2 * r + 2 * gamma <= 1:
        sup_ok = False
        reasons.append("2r + 2gamma <= 1")
    if not 1 < p < limit:
        sup_ok = False
        reasons.append(f"p={p:g} outside (1, {limit:g})")
    if not (nu_moment is not None and math.isfinite(nu_moment)):
        sup_ok = False
        reasons.append("initial-law moment not finite")

    l1_ok = sup_ok
    if 2 * r + 4 * gamma <= 3:
        l1_ok = False
        reasons.append("2r + 4gamma <= 3")
    if p != int(p) or p < 2:
        l1_ok = False
        reasons.append("L1 variant needs integer p >= 2")
    return AdmissibilityReport(sup_ok, l1_ok, limit, tuple(reasons))
