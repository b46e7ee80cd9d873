"""Regeneration-aware Monte Carlo engine.

Paths follow Euler-Maruyama with step h.  Level hits are detected by a sign
change of (X - level) across a step, with the crossing instant placed by
linear interpolation inside the step; optionally a Brownian-bridge test also
fires on same-side steps (probability exp(-2 d0 d1 / (sigma^2 h))), which
removes the O(sqrt(h)) barrier-shift bias of pure sign-change detection at
the cost of one extra uniform stream.

One time-blocked kernel, ``_euler_block``, serves both drivers.  Per step it
evaluates the coefficients and takes the Euler step into a (K + 1, rows)
trajectory (and stores sigma^2 for the bridge test); the crossing tests, the
crossing fractions (on the crossing entries only), f on one flat array, the
running integral (a cumulative sum in step order, bitwise that of an
in-place +=), checkpoints and event records run once per block of K steps,
about _CELLS cells, never across a noise chunk.  Outputs do not depend on K.
The hitting driver tests its fixed level: a replica's hit is its first
crossing in the block, and its later steps in the block are discarded.  The
regeneration driver tests both levels over the block and walks each row's
alternating events (b while waiting for b, then a), kept as arrays of
(replica, time[, cycle integral]) and split into per-replica samples by one
stable sort at the end.  With ``max_cycles`` no row may step
past its last event, so the kernel tests each row's level per step and ends
the block at the first event.

The steps of a block run unchecked (a floating-point error ends them);
then the checks of ``DiffusionModel.step_coefficients`` (the guard,
sigma^2 > 0, finite drift and sigma) run once over the states the block
stepped from.  A block that fails them is stepped again with the checks,
which end it at its first failing step; the caller resolves the steps
before it and retries the step with the rows still live, so errors and
warnings are those of per-step checks, and a failure only after a hit
raises nothing.  A constant sigma's sigma^2, checked when the model is
built, is a scalar.

Randomness is counter-based: replica r in block b reads noise row (r mod B)
of the block.  The block's rows form lanes of L consecutive rows; each lane
has its own Philox counter range under one key per (seed, block, kind), and
draws its rows' noise for a chunk of steps from a counter fixed by (lane,
chunk).  A lane is drawn only while it holds a live replica, and only up
to its last live row; every replica's path is a pure function of (seed,
replica index) -- independent of how many replicas run and of which lanes
and rows are drawn.  Blocks run one after another in index order, so
results are bitwise reproducible.  The noise buffers and the kernel's
trajectory buffers are allocated once per driver call, sized for its widest
block, and reused by every RNG block.

The estimators simulate nothing: each reads one ``simulate_paths`` result,
whose horizon, checkpoints and ``max_cycles`` it carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionModel
from .errors import (ConfigError, DomainError, ExcessCensoringError,
                     InsufficientCyclesError)
from .quadrature import vectorize_integrand

__all__ = [
    "InitialLaw", "SimConfig", "RegenerationSample", "BatchResult",
    "Estimate", "MomentEstimates", "HittingEstimate", "EmpiricalDeviation",
    "simulate_paths", "estimate_hitting_moments", "estimate_constants",
    "estimate_deviation_prob", "nu_moment_estimate",
]

_BLOCK = 4096       # replicas per stream block (fixed: part of the RNG layout)
_CHUNK = 512        # steps per noise chunk (fixed: part of the RNG layout)
_LANE = 8           # rows per noise lane (fixed: part of the RNG layout)
_CELLS = 1 << 14    # steps x rows per kernel block (outputs do not depend on it)
_KIND_NORMAL = 0
_KIND_UNIFORM = 1
_KIND_INITIAL = 2
_KIND_AUX = 3

CROSSING_RULES = ("interpolate", "bridge")


def _stream(seed: int, block: int, kind: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, kind, chunk))
    return np.random.Generator(np.random.Philox(ss))


def _lane_stream(seed: int, block: int, kind: int):
    """Return seek(lane, chunk): the one Generator of the (seed, block, kind)
    key, set to the start of that lane's chunk, Philox counter
    (0, lane, chunk, 0).  A lane's chunk consumes far fewer than 2^64
    counter values, so no two lanes or chunks overlap."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, kind))
    bits = np.random.Philox(key=ss.generate_state(2, np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state

    def seek(lane: int, chunk: int) -> np.random.Generator:
        state["state"]["counter"] = np.array([0, lane, chunk, 0], np.uint64)
        state["buffer_pos"] = 4               # empty buffer: next draw is fresh
        state["has_uint32"] = 0
        bits.state = state
        return gen

    return seek


@dataclass(frozen=True)
class InitialLaw:
    """Initial distribution: point mass, uniform or gaussian."""

    kind: str
    params: tuple = ()

    @classmethod
    def point(cls, x0: float) -> "InitialLaw":
        if not math.isfinite(x0):
            raise ConfigError("point law needs a finite x0")
        return cls("point", (float(x0),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "InitialLaw":
        if not -math.inf < lo < hi < math.inf:  # NaN fails too
            raise ConfigError("uniform law needs finite lo < hi")
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def gaussian(cls, mean: float, sd: float) -> "InitialLaw":
        if not (math.isfinite(mean) and 0 < sd < math.inf):
            raise ConfigError("gaussian law needs a finite mean and sd > 0")
        return cls("gaussian", (float(mean), float(sd)))

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "point":
            return np.full(n, self.params[0])
        if self.kind == "uniform":
            lo, hi = self.params
            return gen.uniform(lo, hi, size=n)
        mean, sd = self.params
        return mean + sd * gen.standard_normal(n)


@dataclass(frozen=True)
class SimConfig:
    """Discretization, horizon, replication and regeneration levels."""

    step: float
    horizon: float
    replicas: int
    seed: int
    a: float
    b: float
    initial: InitialLaw | float
    crossing: str = "interpolate"
    blowup_guard: float = 1e9

    def __post_init__(self):
        # each test is written to fail on NaN
        if not 0 < self.step < math.inf:
            raise ConfigError("step must be positive and finite")
        if not self.step <= self.horizon < math.inf:
            raise ConfigError("horizon must be finite and cover one step")
        if abs(self.n_steps * self.step - self.horizon) > 1e-9 * self.horizon:
            raise ConfigError("horizon must be a whole number of steps")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not -math.inf < self.a < self.b < math.inf:
            raise ConfigError("regeneration pair needs finite a < b")
        if not self.blowup_guard > 0:
            raise ConfigError("blowup_guard must be positive")
        if self.crossing not in CROSSING_RULES:
            raise ConfigError(f"crossing must be one of {CROSSING_RULES}")
        if isinstance(self.initial, (int, float)):
            object.__setattr__(self, "initial", InitialLaw.point(self.initial))

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


@dataclass
class RegenerationSample:
    """Per-path regeneration record on [0, horizon]."""

    r_times: np.ndarray
    s_times: np.ndarray
    cycle_integrals: np.ndarray       # xi_n = int_{R_n}^{R_(n+1)} f, n >= 1
    first_block: float                # int_0^{R_1} f (nan if R_1 censored)
    n_t: int
    additive_integral: float          # int_0^horizon f
    horizon: float


@dataclass
class BatchResult:
    samples: list
    checkpoints: np.ndarray
    additive_at: np.ndarray    # shape (replicas, n_checkpoints)
    horizon: float
    max_cycles: int | None     # replicas frozen at that many R-events


@dataclass(frozen=True)
class Estimate:
    value: float
    se: float


@dataclass(frozen=True)
class MomentEstimates:
    """Monte Carlo cycle-moment estimates with standard errors."""

    p: float
    l_hat: Estimate
    r1_centered_halfp: Estimate
    r1_halfp: Estimate
    eta_p: Estimate
    r1_p_at_a: Estimate
    cycle_gap_p: Estimate
    mu_f_hat: Estimate
    mean_cycle_time: Estimate   # pooled E_a R_1
    n_cycles: int


@dataclass(frozen=True)
class HittingEstimate:
    estimate: float
    stderr: float
    censored_fraction: float
    order: int
    n_used: int


@dataclass(frozen=True)
class EmpiricalDeviation:
    t_grid: np.ndarray
    eps_grid: np.ndarray
    freq: np.ndarray        # shape (len(t_grid), len(eps_grid))
    halfwidth: np.ndarray
    replicas: int


def _block_layout(n: int):
    return [(bid, min(_BLOCK, n - bid * _BLOCK))
            for bid in range((n + _BLOCK - 1) // _BLOCK)]


# -- Euler/level-crossing kernel ------------------------------------------------

def _noise(cfg: SimConfig, block: int, n_rep: int, live_rows, noise: tuple):
    """Yield (first step, normals, uniforms or None) for every noise chunk.

    The arrays have one row per noise row of the block and one column per
    step of the chunk: the first ``n_rep`` rows of the call's ``noise``
    buffers (see ``_buffers``).  Lane k holds rows k*_LANE up to
    (k+1)*_LANE and draws its rows' noise for a chunk, row after row, from
    its own counter range (see ``_lane_stream``), so a row's noise does not
    depend on the other lanes or on the block's width.  At each chunk start
    ``live_rows()`` gives the driver's live noise rows, ascending, and each
    lane holding one is refilled, in place, into one buffer per kind, from
    its first row up to its last live row: rows only ever leave, so the rows
    past it are never read again.  The arrays are valid only until the
    driver asks for the next chunk, and only at those live rows.
    """
    Z, U = noise
    Z, U = Z[:n_rep], None if U is None else U[:n_rep]
    fills = [(Z, _lane_stream(cfg.seed, block, _KIND_NORMAL),
              "standard_normal")]
    if U is not None:
        fills.append((U, _lane_stream(cfg.seed, block, _KIND_UNIFORM),
                      "random"))
    for chunk, start in enumerate(range(0, cfg.n_steps, _CHUNK)):
        rows = live_rows()
        # the last live row of each lane holding one
        for last in rows[np.diff(rows // _LANE, append=-1) != 0].tolist():
            lane = last // _LANE
            for buf, seek, draw in fills:
                getattr(seek(lane, chunk), draw)(
                    out=buf[lane * _LANE:last + 1])
        m = min(_CHUNK, cfg.n_steps - start)
        yield start, Z[:, :m], None if U is None else U[:, :m]


def _block_len(width: int, steps_left: int) -> int:
    """Steps of the next block: about _CELLS cells, within the noise chunk."""
    return min(steps_left, max(1, _CELLS // width))


def _buffers(cfg: SimConfig, width: int, count: int) -> tuple:
    """The buffers of one driver call, for RNG blocks up to ``width`` rows:
    the noise buffers (normals, and uniforms for bridge crossing), of which
    each block fills its first rows, and ``count`` flat kernel buffers, each
    holding the (K + 1, n) array of any kernel block n <= width rows wide
    (K n <= max(_CELLS, n)).  Every block of the call reuses them."""
    Z = np.empty((width, _CHUNK))
    U = np.empty((width, _CHUNK)) if cfg.crossing == "bridge" else None
    size = min((_CHUNK + 1) * width, max(_CELLS, width) + width)
    return (Z, U), [np.empty(size) for _ in range(count)]


def _shaped(buf: np.ndarray, rows: int, width: int) -> np.ndarray:
    return buf[:rows * width].reshape(rows, width)


def _euler_block(model: DiffusionModel, cfg: SimConfig, T: np.ndarray,
                 z: np.ndarray, s2_out: np.ndarray | None = None,
                 level: np.ndarray | None = None, u: np.ndarray | None = None):
    """Euler steps T[k] -> T[k + 1] with noise z[k], for k < K = len(z).

    Returns (steps taken, crossing tests of the last step or None).  The
    steps run unchecked, up to one with a floating-point error; then
    ``step_coefficients`` checks T[:K].  If that fails, the steps run again
    checked, and the first step k that fails ends the block: the caller
    resolves the steps before it and retries step k first in the next block.
    ``s2_out[k]`` gets a callable sigma's sigma^2 at T[k].  With ``level``
    (one per row) each step runs that level's crossing tests, with
    uniforms u[k], and the first step where one fires ends the block.
    """
    h, guard, c = cfg.step, cfg.blowup_guard, model.constant_sigma_sq
    root_h = math.sqrt(h)
    sd = None if c is None else np.sqrt(c) * root_h     # computed once

    def steps(coefficients):        # an error at a step k > 0 ends it there
        for k in range(len(z)):
            x = T[k]
            try:
                drift, s2 = coefficients(x)
                np.add(x + drift * h, (np.sqrt(s2) * root_h if sd is None
                                       else sd) * z[k], out=T[k + 1])
            except Exception:   # the coefficients' own error or a check's
                if k == 0:
                    raise
                return k, None
            if s2_out is not None:
                s2_out[k] = s2
            if level is not None:
                tests = _crossing_tests(x, T[k + 1], level, s2,
                                        None if u is None else u[k], h)
                if tests[3].any():
                    return k + 1, tests
        return len(z), None

    try:    # a step that would warn ends the unchecked steps there
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            K, tests = steps(model.unchecked_coefficients)
        model.step_coefficients(T[:K].reshape(-1), guard)    # the checks
        return K, tests
    except Exception:   # checked again, the block ends at its first failure
        return steps(lambda x: model.step_coefficients(x, guard))


def _crossing_tests(x0: np.ndarray, x1: np.ndarray, lvl, s2, u, h: float):
    """Level tests of the steps x0 -> x1, elementwise: (d0, d1, sign-change
    mask, crossing mask).  With uniforms u, a Brownian-bridge test also
    fires on same-side steps (s2 is sigma^2 at x0)."""
    d0, d1 = x0 - lvl, x1 - lvl
    crossed = d0 * d1 <= 0.0
    if u is None:
        return d0, d1, crossed, crossed
    arg = -2.0 * d0 * d1 / (s2 * h)
    fired = (~crossed) & (u < np.exp(np.minimum(arg, 0.0)))
    return d0, d1, crossed, crossed | fired


def _fractions(tests: tuple, at: tuple) -> np.ndarray:
    """Step fraction of the crossing at each entry ``at`` (an index tuple)
    whose test fired: sign changes interpolated, bridge firings mid-step."""
    d0, d1, crossed, _ = tests
    theta = np.full(at[0].size, 0.5)
    sign = crossed[at]
    at = tuple(i[sign] for i in at)
    c0 = d0[at]
    denom = c0 - d1[at]
    safe = np.where(denom == 0.0, 1.0, denom)
    theta[sign] = np.clip(np.where(denom == 0.0, 0.0, c0 / safe), 0.0, 1.0)
    return theta


# -- hitting-time driver -----------------------------------------------------

def _hit_block(model: DiffusionModel, cfg: SimConfig, x0: float,
               level: float, block: int, n_rep: int,
               buffers: tuple) -> np.ndarray:
    """Hitting times of one RNG block (nan: censored), with the call's
    ``buffers``.  A replica that hits steps on to the end of its kernel
    block; its hit is its first crossing in the block, and the later steps
    are discarded."""
    noise, (t_buf, s2_buf) = buffers
    h, s2 = cfg.step, model.constant_sigma_sq   # a scalar, or per step
    s2_rows = cfg.crossing == "bridge" and s2 is None
    x = np.full(n_rep, float(x0))
    idx = np.arange(n_rep)
    hit = np.full(n_rep, np.nan)
    # the lambda reads idx as it stands at each chunk start
    for start, Z, U in _noise(cfg, block, n_rep, lambda: idx, noise):
        j = 0
        while idx.size and j < Z.shape[1]:
            n = idx.size
            rows = slice(None) if n == n_rep else idx  # live rows' noise
            K = _block_len(n, Z.shape[1] - j)
            T = _shaped(t_buf, K + 1, n)
            T[0] = x
            S2 = _shaped(s2_buf, K, n) if s2_rows else None
            K, _ = _euler_block(model, cfg, T, Z[rows, j:j + K].T, S2)
            u = None if U is None else U[rows, j:j + K].T
            tests = _crossing_tests(T[:K], T[1:K + 1], level,
                                    s2 if S2 is None else S2[:K], u, h)
            fired = tests[3]
            out = fired.any(axis=0)
            cols = out.nonzero()[0]
            x = T[K]
            if cols.size:
                k = fired[:, cols].argmax(axis=0)   # the first crossing step
                theta = _fractions(tests, (k, cols))
                hit[idx[cols]] = (start + j + k) * h + theta * h
                keep = ~out
                x, idx = x[keep], idx[keep]
            j += K
        if idx.size == 0:
            break
    return hit


# -- regeneration driver -----------------------------------------------------

def _split_by_replica(replica: list, n_rep: int, *columns: list) -> list:
    """Per-replica arrays from event records appended in step order."""
    rep = np.concatenate(replica) if replica else np.zeros(0, dtype=np.int64)
    order = np.argsort(rep, kind="stable")
    cuts = np.cumsum(np.bincount(rep, minlength=n_rep))[:-1]
    return [np.split(np.concatenate(col)[order] if col else np.zeros(0), cuts)
            for col in columns]


def _next_crossing(fired: np.ndarray) -> np.ndarray:
    """(K + 1, n) table of the first step >= k whose test fired, else K."""
    K = fired.shape[0]
    first = np.where(fired, np.arange(K)[:, None], K)
    table = np.full((K + 1, fired.shape[1]), K)
    table[:K] = np.minimum.accumulate(first[::-1], axis=0)[::-1]
    return table


def _level_walk(level: np.ndarray, b: float, tests_a: tuple, tests_b: tuple):
    """Yield rounds (steps k, rows, fractions) of each row's next crossing
    of its level (a or b), given both levels' tests over a block of steps.
    A row's search resumes after its last crossing; the caller switches the
    levels of a round's rows before it asks for the next round."""
    K = tests_a[3].shape[0]
    next_a, next_b = _next_crossing(tests_a[3]), _next_crossing(tests_b[3])
    at = np.zeros(level.size, dtype=np.intp)      # next step to test
    cols = np.arange(level.size)
    while True:
        at_b = level[cols] == b
        k = np.where(at_b, next_b[at[cols], cols], next_a[at[cols], cols])
        found = k < K
        if not found.any():
            return
        cols, k, at_b = cols[found], k[found], at_b[found]
        theta = np.empty(cols.size)
        theta[at_b] = _fractions(tests_b, (k[at_b], cols[at_b]))
        theta[~at_b] = _fractions(tests_a, (k[~at_b], cols[~at_b]))
        yield k, cols, theta
        at[cols] = k + 1


def _regen_block(model: DiffusionModel, cfg: SimConfig, f, block: int,
                 n_rep: int, cp_steps: np.ndarray, max_cycles: int | None,
                 buffers: tuple):
    """Regeneration paths of one RNG block, with the call's ``buffers``.

    Per kernel block, f, the running integral (a cumulative sum in step
    order) and the events run on whole arrays.  Full-horizon runs test both
    levels over the block and walk each row's alternating events; with
    ``max_cycles`` a row may not step past its last event, so the kernel
    tests each row's level per step and ends the block at the first event.
    """
    noise, (t_buf, s2_buf, f_buf) = buffers
    h, s2 = cfg.step, model.constant_sigma_sq   # a scalar, or per step
    fv = vectorize_integrand(f)
    stop = max_cycles is not None             # rows leave at their events
    s2_rows = cfg.crossing == "bridge" and s2 is None and not stop

    x = cfg.initial.sample(_stream(cfg.seed, block, _KIND_INITIAL, 0), n_rep)
    idx = np.arange(n_rep)
    level = np.full(n_rep, cfg.b)             # each live row waits for b, then a
    cum_f = np.zeros(n_rep)
    anchor_f = np.zeros(n_rep)                # int_0^{R_n} f at the last R_n
    n_r = np.zeros(n_rep, dtype=np.int64)
    s_rep, s_time = [], []                    # S-event records
    r_rep, r_time, r_cyc = [], [], []         # R-event records
    additive = np.zeros((n_rep, cp_steps.size))

    def record(step0, k, cols, theta, fx, F):
        """Events of rows ``cols`` at block steps k, one per row."""
        te = (step0 + k) * h + theta * h
        at_b = level[cols] == cfg.b
        s_rep.append(idx[cols[at_b]])
        s_time.append(te[at_b])
        at_a = ~at_b
        pk, pc, th = k[at_a], cols[at_a], theta[at_a]
        g = idx[pc]
        pf = F[pk, pc] + fx[pk, pc] * th * h
        r_rep.append(g)
        r_time.append(te[at_a])
        r_cyc.append(pf - anchor_f[g])        # at R_1: the first block
        anchor_f[g] = pf
        n_r[g] += 1
        level[cols] = np.where(at_b, cfg.a, cfg.b)
        return pc[n_r[g] >= max_cycles] if stop else None

    # the lambda reads idx as it stands at each chunk start
    for start, Z, U in _noise(cfg, block, n_rep, lambda: idx, noise):
        j = 0
        while idx.size and j < Z.shape[1]:
            n = idx.size
            live = slice(None) if n == n_rep else idx  # and their noise rows
            K = _block_len(n, Z.shape[1] - j)
            T = _shaped(t_buf, K + 1, n)
            T[0] = x
            S2 = _shaped(s2_buf, K, n) if s2_rows else None
            u = None if U is None else U[live, j:j + K].T
            K, last = _euler_block(model, cfg, T, Z[live, j:j + K].T, S2,
                                   level if stop else None, u)
            step0 = start + j
            j += K
            x = T[K]
            T = T[:K + 1]
            fx = fv(T[:K].reshape(-1)).reshape(K, n)
            F = _shaped(f_buf, K + 1, n)
            F[0] = cum_f[live]
            np.multiply(fx, h, out=F[1:])
            np.cumsum(F, axis=0, out=F)       # adds in step order, as += does
            cum_f[live] = F[K]
            for ci in np.flatnonzero((cp_steps > step0)
                                     & (cp_steps <= step0 + K)):
                additive[:, ci] = F[cp_steps[ci] - step0]
            if not stop:
                tests_a, tests_b = (_crossing_tests(
                    T[:K], T[1:], lvl, s2 if S2 is None else S2[:K],
                    None if u is None else u[:K], h) for lvl in (cfg.a, cfg.b))
                for k, cols, theta in _level_walk(level, cfg.b, tests_a,
                                                  tests_b):
                    record(step0, k, cols, theta, fx, F)
            elif last is not None:
                cols = last[3].nonzero()[0]
                done = record(step0, np.full(cols.size, K - 1), cols,
                              _fractions(last, (cols,)), fx, F)
                if done.size:
                    x, idx, level = (np.delete(v, done)
                                     for v in (x, idx, level))
        if idx.size == 0:
            break

    s_times, = _split_by_replica(s_rep, n_rep, s_time)
    r_times, cycles = _split_by_replica(r_rep, n_rep, r_time, r_cyc)
    samples = [RegenerationSample(
        r_times=r_times[g], s_times=s_times[g],
        cycle_integrals=cycles[g][1:],
        first_block=float(cycles[g][0]) if n_r[g] else math.nan,
        n_t=int(n_r[g]),
        additive_integral=float(cum_f[g]), horizon=cfg.horizon)
        for g in range(n_rep)]
    return samples, additive


def simulate_paths(model: DiffusionModel, cfg: SimConfig, f,
                   checkpoints=(), max_cycles: int | None = None
                   ) -> BatchResult:
    """Simulate cfg.replicas regeneration paths; see RegenerationSample.

    ``checkpoints`` are times (snapped to the step grid) at which the running
    additive integral is recorded for every replica.
    ``max_cycles`` freezes a replica once it has recorded that many R-events
    (an efficiency device when only the first cycles matter).
    """
    cp_steps = np.unique(np.round(np.asarray(checkpoints, dtype=float)
                                  / cfg.step).astype(np.int64))  # sorted
    if cp_steps.size and (cp_steps[0] < 1 or cp_steps[-1] > cfg.n_steps):
        raise ConfigError("checkpoints must lie in (0, horizon]")
    if cp_steps.size and max_cycles is not None:
        raise ConfigError("checkpoints cannot be combined with max_cycles "
                          "(frozen replicas would report stale integrals)")
    buffers = _buffers(cfg, min(_BLOCK, cfg.replicas), 3)
    parts = [_regen_block(model, cfg, f, bid, cnt, cp_steps, max_cycles,
                          buffers)
             for bid, cnt in _block_layout(cfg.replicas)]
    samples = [s for block_samples, _ in parts for s in block_samples]
    additive = np.vstack([p[1] for p in parts]) if parts else np.zeros((0, 0))
    return BatchResult(samples, cp_steps * cfg.step, additive, cfg.horizon,
                       max_cycles)


# -- estimators ---------------------------------------------------------------

def _batch_se(values: np.ndarray, n_batches: int = 32) -> float:
    """Standard error of the mean by batch means over replica index."""
    n = values.size
    if n < 2:
        return math.inf
    nb = min(n_batches, n)
    means = np.array([np.mean(s) for s in np.array_split(values, nb)])
    return float(np.std(means, ddof=1) / math.sqrt(nb))


def _mean(values: np.ndarray) -> Estimate:
    """Sample mean with its batch-means standard error."""
    return Estimate(float(np.mean(values)), _batch_se(values))


def estimate_hitting_moments(model: DiffusionModel, cfg: SimConfig, x0: float,
                             target: float, orders
                             ) -> list[HittingEstimate]:
    """Monte Carlo E_x0 T^k for each k in ``orders``, from one shared
    sample of hitting times of ``target``.

    Censored replicas (no hit by the horizon) are excluded and reported; a
    censored fraction at or above 50% raises ExcessCensoringError.
    """
    orders = [int(k) for k in orders]
    if any(k < 1 for k in orders):
        raise DomainError("orders must be >= 1")
    target = float(target)
    if x0 == target:
        return [HittingEstimate(estimate=0.0, stderr=0.0,
                                censored_fraction=0.0, order=k,
                                n_used=cfg.replicas)
                for k in orders]
    buffers = _buffers(cfg, min(_BLOCK, cfg.replicas), 2)
    times = np.concatenate([_hit_block(model, cfg, x0, target, bid, cnt,
                                       buffers)
                            for bid, cnt in _block_layout(cfg.replicas)])
    censored = np.isnan(times)
    frac = float(np.mean(censored))
    if frac >= 0.5:
        raise ExcessCensoringError(
            f"{frac:.0%} of replicas censored at horizon {cfg.horizon:g}")
    good = times[~censored]
    out = []
    for k in orders:
        powers = good ** k
        out.append(HittingEstimate(
            estimate=float(np.mean(powers)),
            stderr=_batch_se(powers),
            censored_fraction=frac,
            order=k,
            n_used=good.size,
        ))
    return out


def estimate_constants(batch: BatchResult, p: float) -> MomentEstimates:
    """Estimate the cycle-moment inputs of the deviation bounds from one
    full-horizon ``simulate_paths`` run (its checkpoints do not matter).

    The cycle rate is total completed cycles over total simulated time; the
    mean-cycle identity and the invariant-average identity then hold up to
    Monte Carlo error and a renewal edge effect of order (cycle length) /
    horizon.  The cycle-integral constant c_f of the L1 bound is exact, from
    ``kac.first_block_sup``.
    """
    if p <= 1:
        raise DomainError("need p > 1")
    if batch.max_cycles is not None:
        raise ConfigError("the constants need a full-horizon run: replicas "
                          "frozen by max_cycles would truncate the cycle count")
    horizon = batch.horizon
    samples = [s for s in batch.samples if len(s.r_times) >= 2]
    lacking = len(batch.samples) - len(samples)
    if lacking > 0.02 * len(batch.samples):
        raise InsufficientCyclesError(
            f"{lacking}/{len(batch.samples)} replicas completed fewer than "
            "2 cycles; extend the horizon")
    # a sub-2% remainder is dropped (trimming a little long-cycle mass;
    # size the horizon so this stays at zero when the moments matter)

    n_t = np.array([s.n_t for s in samples], dtype=float)
    l_hat = float(np.sum(n_t) / (len(samples) * horizon))
    l_se = _batch_se(n_t / horizon)
    inv_l = 1.0 / l_hat

    r1 = np.array([s.r_times[0] for s in samples])
    gap12 = np.array([s.r_times[1] - s.r_times[0] for s in samples])
    all_gaps = np.concatenate([np.diff(s.r_times) for s in samples])
    all_cycles_f = np.concatenate([s.cycle_integrals for s in samples])

    r1_halfp = r1 ** (p / 2.0)
    r1_centered = np.abs(r1 - inv_l) ** (p / 2.0)
    eta = np.abs(gap12 - inv_l) ** p
    gap_p_pooled = all_gaps ** p
    gap_p_first = gap12 ** p

    xi_mean = float(np.mean(all_cycles_f))
    mu_hat = xi_mean * l_hat
    # delta-method residuals of the ratio estimator, which keep the
    # covariance of cycle integral and cycle count (Asmussen & Glynn,
    # Stochastic Simulation, IV.4)
    a_r = np.array([np.sum(s.cycle_integrals) for s in samples])
    c_r = np.array([s.cycle_integrals.size for s in samples], dtype=float)
    n_bar = float(np.mean(n_t))
    resid = n_bar / (float(np.mean(c_r)) * horizon) \
        * (a_r - xi_mean * c_r) + xi_mean / horizon * (n_t - n_bar)
    mu_se = _batch_se(resid)

    return MomentEstimates(
        p=p, l_hat=Estimate(l_hat, l_se),
        r1_centered_halfp=_mean(r1_centered), r1_halfp=_mean(r1_halfp),
        eta_p=_mean(eta), r1_p_at_a=_mean(gap_p_pooled),
        cycle_gap_p=_mean(gap_p_first), mu_f_hat=Estimate(mu_hat, mu_se),
        mean_cycle_time=_mean(all_gaps), n_cycles=int(all_gaps.size),
    )


def _check_deviation_grid(cfg: SimConfig, t_grid, eps_grid):
    """Raise ConfigError unless a run of cfg with checkpoints t_grid can
    serve estimate_deviation_prob with eps_grid."""
    if len(t_grid) == 0 or len(eps_grid) == 0:
        raise ConfigError("t_grid and eps_grid must be nonempty")
    if not np.round(np.min(t_grid) / cfg.step) >= 1:   # fails on NaN too
        raise ConfigError("every t must round to at least one step")
    if np.max(t_grid) > cfg.horizon + 1e-9:
        raise ConfigError("horizon shorter than max(t_grid)")
    if cfg.replicas < 100:
        raise ConfigError("deviation estimation needs >= 100 replicas")


def estimate_deviation_prob(batch: BatchResult, eps_grid, mu_f: float
                            ) -> EmpiricalDeviation:
    """Empirical P(|t^-1 int_0^t f - mu(f)| > eps) at each checkpoint t of
    ``batch`` (a ``simulate_paths`` run) and each eps.

    Binomial 95% half-widths; zero-count cells get the rule-of-three width
    3/n.
    """
    times = batch.checkpoints  # snapped to the step grid, duplicates merged
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    n = len(batch.samples)
    if times.size == 0 or eps_grid.size == 0:
        raise ConfigError("checkpoints and eps_grid must be nonempty")
    if n < 100:
        raise ConfigError("deviation estimation needs >= 100 replicas")
    dev = np.abs(batch.additive_at / times - mu_f)
    freq = np.mean(dev[:, :, None] > eps_grid, axis=0)
    inside = (0.0 < freq) & (freq < 1.0)
    hw = np.where(inside, 1.96 * np.sqrt(freq * (1 - freq) / n), 3.0 / n)
    return EmpiricalDeviation(times, eps_grid, freq, hw, n)


def nu_moment_estimate(law: InitialLaw, exponent: float, n: int = 20000,
                       seed: int = 0) -> Estimate:
    """Empirical int |x|^exponent dnu from the law's own sampler."""
    gen = _stream(seed, 0, _KIND_AUX, 0)
    xs = law.sample(gen, n)
    return _mean(np.abs(xs) ** exponent)

