"""Quenched walk simulation and empirical large-deviation estimates.

Direct estimators simulate the chain step by step (vectorized across
trials) and report Wilson intervals on the -(1/n) log scale. Rare events
use the exponential change of measure on excursions: under the tilted path
law the walk advances one level per draw, sampling (excursion length m,
entry height j) from

    Q_k(i -> m, j)  proportional to  e^{lambda m} W_k[m](i,j) h_{k+1}(j),

where W_k are the exact <=M-step hitting kernels and h the backward product
vectors. The estimator weight e^{-lambda T_n} Z restores unbiasedness for
P(T_n/n in ., all excursions <= M), with the tilt lambda_{t,M} chosen so the
tilted mean of T_n/n is t.

Slowdown probabilities P(inf_{m>=n} X_m <= 0) decay like e^{-n lambda_crit},
far beyond direct simulation for moderate n; the 'exact' method computes
them by an n-step forward distribution DP combined with left-passage
probability products (Phi(0) of the reflected window), with no sampling
error. The 'direct' method (finite-horizon proxy) remains for cross-checks.

Every sampled estimator draws trial i's uniforms from its own stream,
default_rng(SeedSequence(seed, spawn_key=(tag, i))), so any trial replays
on its own. The streams run as numpy lanes (_Lanes): each trial's PCG64
state and increment are four uint64 arrays, seeded together by the
SeedSequence hash run vectorized over the trial numbers, and one column,
the next uniform of every live trial, is a 128-bit LCG step and PCG64's
XSL-RR output on all of them at once. The walkers draw one column a step
for the live trials only, and trials run in chunks whose lanes, step
temporaries and environment draws take at most CHUNK_ENTRIES = 2^21
8-byte words (16 MiB). A walker's column holds raw draws, the 53-bit
integers X whose uniforms are X 2^-53, and every partial sum c it compares
with becomes the integer threshold ceil(c 2^53) (_thresholds), which
decides c <= u exactly; no column is converted to floats. The walkers find
each move with 1-D takes: the direct walks count the thresholds at or
below X in flat column tables of the cumulative move rows (_move_columns),
and the tilted sampler reads each level's count from a bucket table
indexed by X's top bits (_bucket_table), binary-searching its padded
threshold rows (_sorted_search) only for the draws in buckets that a
threshold splits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .env import (
    EnvironmentSpec,
    EnvironmentWindow,
    StartDistribution,
    WindowExhaustedError,
    invert_window,
    n_kappa,
    sample_window,
)
from .lmgf import LmgfEvaluator
from .phi import solve_phi_window
from .products import _roll_right


class BudgetExhaustedError(RuntimeError):
    """Step cap reached before the walk hit its target level."""


@dataclass(frozen=True)
class WalkRecord:
    hitting_times: np.ndarray  # T_1..T_n
    final_position: tuple[int, int]  # (X, Y) at the last simulated step
    increments: np.ndarray  # tau_k = T_k - T_{k-1}
    truncation_ok: bool | None  # all tau_k <= M when M was given
    seed: int | None
    steps: int

    def __post_init__(self):
        t = self.hitting_times
        if len(t) and ((np.diff(t) < 1).any() or t[0] < 1):
            raise ValueError("hitting times must be strictly increasing from >= 1")


@dataclass(frozen=True)
class TailEstimate:
    event: str
    n: int
    point: float  # -(1/n) log probability
    ci: tuple[float, float]  # 95% interval on the same scale (lo <= point <= hi)
    method: str  # direct | importance-sampled | exact
    trials: int
    ess: float
    mode: str = "quenched"
    hits: int = 0
    one_sided: bool = False
    spec_hash: str = ""
    seed: int | None = None
    prob: float = 0.0

    def as_dict(self) -> dict:
        return {
            "event": self.event,
            "n": self.n,
            "method": self.method,
            "point": self.point,
            "ci": list(self.ci),
            "trials": self.trials,
            "ess": self.ess,
            "mode": self.mode,
            "hits": self.hits,
            "one_sided": self.one_sided,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "prob": self.prob,
        }


TAG_HIT = 0xD1
TAG_IS = 0x15
TAG_SLOW = 0x5D
TAG_SPEED = 0x5E

HIT_MARGINS = (64, 128, 256, 512)  # left margins of the hitting tail's attempts
SPEED_MARGIN = 64  # least left margin of the speed tail's window
SLOWDOWN_MARGIN = 320  # levels right of n (exact) or left of 0 (direct)
SLOWDOWN_HORIZON = 20  # the direct slowdown simulates this many times n steps


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's multiplier
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_WORDS = 4
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32 = (1 << 32) - 1

# the operands of a lane step as uint64 scalars, which numpy takes faster
# than Python ints (by about 20 us a column of 20000 lanes): PCG64_MULT's
# 64-bit limbs, the 32-bit halves of its low limb, a 32-bit mask and shifts
_MULT_HI, _MULT_LO = (np.uint64(v) for v in divmod(PCG64_MULT, 1 << 64))
_MULT_LO0, _MULT_LO1 = np.uint64(PCG64_MULT & MASK32), np.uint64((PCG64_MULT >> 32) & MASK32)
_LOW32 = np.uint64(MASK32)
_11, _32, _58, _64 = (np.uint64(v) for v in (11, 32, 58, 64))

CHUNK_ENTRIES = 1 << 21  # 8-byte words (16 MiB) the trials of one chunk take at most
TRIAL_ENTRIES = 64  # words a trial takes at most: its lanes, walk state and step temporaries


def _uint32_words(n) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & MASK32]
    while n > MASK32:
        n >>= 32
        words.append(n & MASK32)
    return words


def _seed_hash(entropy) -> np.ndarray:
    """SeedSequence(...).generate_state(4, np.uint64) for many trials at once.

    `entropy` is the assembled entropy, one entry per uint32 word: a Python
    int where all trials share the word, a uint32 array (one entry per trial)
    where they do not. The hash constants advance with the word count alone,
    so every trial with that count shares them; ints are masked to 32 bits,
    arrays wrap. Returns (trials, 4) uint64.
    """
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * MULT_A) & MASK32
        value = (value * const) & MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (((MIX_MULT_L * x) & MASK32) - ((MIX_MULT_R * y) & MASK32)) & MASK32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i]) for i in range(POOL_WORDS)]
    for src in range(POOL_WORDS):
        for dst in range(POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_WORDS:]:
        for dst in range(POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = INIT_B
    out = np.empty((np.size(pool[0]), 2 * POOL_WORDS), dtype="<u4")
    for i in range(2 * POOL_WORDS):
        value = pool[i % POOL_WORDS] ^ const
        const = (const * MULT_B) & MASK32
        value = (value * const) & MASK32
        out[:, i] = value ^ (value >> 16)
    return out.view("<u8")


class _Lanes:
    """PCG64 streams of many trials stepped together in numpy lanes.

    Each trial's 128-bit state and increment are its entries of four uint64
    arrays (high and low limbs). `_raw_column` advances every lane by one
    LCG step, state * PCG64_MULT + inc mod 2^128, and returns the top 53
    bits X = x >> 11 of the XSL-RR output x of the new states, as uint64;
    `_column` returns them as doubles, X * 2^-53: one Generator.random draw
    of each trial's own generator. `_keep` drops lanes, so that the next
    column holds the draws of the trials kept only. The names are
    private, so that a tracer of the public functions records no span per
    column.
    """

    __slots__ = ("hi", "lo", "inc_hi", "inc_lo")

    def __init__(self, seed, tag: int, first: int, m: int):
        """The lanes of PCG64(SeedSequence(seed, spawn_key=(tag, trial))) for
        trials first..first+m-1, seed None read as 0.

        A trial's spawn key words are its low word, then its high words, so
        the hash runs once for each range of trials between two multiples
        of 2^32, in which only the low word varies. PCG64 seeds with
        val = generate_state(4, uint64), initstate s = val[0]:val[1] and
        initseq q = val[2]:val[3]: inc = q << 1 | 1, and the state is
        (inc + s) * PCG64_MULT + inc, one LCG step from inc + s.
        """
        run = _uint32_words(seed if seed is not None else 0)
        run += [0] * (POOL_WORDS - len(run))  # a spawn key pads the entropy to the pool
        head = run + _uint32_words(tag)
        vals, t, end = [], first, first + m
        while t < end:
            stop = min(end, ((t >> 32) + 1) << 32)
            low = np.arange(stop - t, dtype=np.uint32) + (t & MASK32)
            vals.append(_seed_hash(head + [low] + (_uint32_words(t >> 32) if t >> 32 else [])))
            t = stop
        s_hi, s_lo, q_hi, q_lo = (np.concatenate(vals) if vals else np.empty((0, 4), np.uint64)).T
        self.inc_hi = (q_hi << 1) | (q_lo >> 63)
        self.inc_lo = (q_lo << 1) | 1
        self.lo = self.inc_lo + s_lo
        self.hi = self.inc_hi + s_hi
        self.hi += self.lo < s_lo  # the carry of the low limbs
        self._step()

    def _step(self):
        """state = state * PCG64_MULT + inc mod 2^128 in every lane, in place.
        With m_hi:m_lo the limbs of PCG64_MULT, the high limb gathers the
        high half of lo * m_lo (from 32-bit halves, so no product wraps),
        the wrapped cross terms hi * m_lo and lo * m_hi, inc's high limb and
        the carry of the low limbs."""
        hi, lo = self.hi, self.lo
        u1 = lo >> _32
        u0 = lo & _LOW32
        t = u1 * _MULT_LO0
        w = u0 * _MULT_LO0
        w >>= _32
        t += w  # u1 * m_lo0 + the high half of u0 * m_lo0: below 2^64
        np.bitwise_and(t, _LOW32, out=w)
        u0 *= _MULT_LO1
        w += u0
        t >>= _32
        w >>= _32
        u1 *= _MULT_LO1
        hi *= _MULT_LO
        hi += u1
        hi += t
        hi += w  # hi * m_lo + the high half of lo * m_lo
        np.multiply(lo, _MULT_HI, out=t)
        hi += t
        hi += self.inc_hi
        lo *= _MULT_LO
        lo += self.inc_lo
        hi += lo < self.inc_lo

    def _raw_column(self) -> np.ndarray:
        """The next draw of every lane as its 53-bit integer X (uint64): one
        step, then XSL-RR, the high limb xor the low one rotated right by
        the state's top 6 bits, whose top 53 bits are X. Generator.random
        returns X * 2^-53 of it, exactly. numpy shifts a uint64 by 64 to 0,
        so rotating by 0 takes no special case."""
        self._step()
        hi = self.hi
        v = hi ^ self.lo
        r = hi >> _58
        x = v >> r
        np.subtract(_64, r, out=r)
        v <<= r
        x |= v
        x >>= _11
        return x

    def _column(self, out=None) -> np.ndarray:
        """The next uniform of every lane, X * 2^-53 of its raw draw X."""
        return np.multiply(self._raw_column(), 2.0**-53, out=out)

    def _columns(self, k: int) -> np.ndarray:
        """The next k uniforms of every lane as a (lanes, k) array in Fortran
        order, one column each."""
        U = np.empty((len(self.hi), k), order="F")
        for col in U.T:
            self._column(out=col)
        return U

    def _keep(self, keep: np.ndarray):
        """Keep the lanes where the mask `keep` holds, in their order."""
        self.hi, self.lo, self.inc_hi, self.inc_lo = (
            a[keep] for a in (self.hi, self.lo, self.inc_hi, self.inc_lo))


def trial_uniforms(seed, tag: int, first: int, m: int, k: int) -> np.ndarray:
    """Uniform streams of trials first..first+m-1, k uniforms a row, as an
    (m, k) array in Fortran order: k columns of their lanes (_Lanes).

    Row i is default_rng(SeedSequence(seed, spawn_key=(tag, first + i)))
    .random(k) bit for bit (seed None reads as 0): a splittable per-trial
    seed tree, so any single trial reproduces in isolation and results do
    not depend on how trials are chunked. A negative seed raises
    ValueError.
    """
    return _Lanes(seed, tag, first, m)._columns(k)


def _chunks(trials: int, draws: int):
    """(first, size) of the chunks of `trials` trials, each as large as
    CHUNK_ENTRIES words hold when a trial takes TRIAL_ENTRIES words and
    `draws` environment draws (their uniforms, then their table indices)."""
    chunk = max(1, CHUNK_ENTRIES // (TRIAL_ENTRIES + 2 * draws))
    return ((first, min(chunk, trials - first)) for first in range(0, trials, chunk))


def _start_heights(u: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Inverse-CDF start heights: the count of partial sums of pi at or
    below u, searchsorted's side="right", so no height of probability 0
    below the top is drawn, not even by u = 0.0; clamped to d - 1, as the
    partial sums may end below the largest uniform Generator.random
    returns."""
    return np.minimum((u[:, None] >= np.cumsum(pi)[None, :]).sum(axis=1), len(pi) - 1)


def _rate(log_p: float, n: int) -> float:
    """-(1/n) log p from log p, the scale of every estimate: +0.0 at p = 1,
    where the negated log alone gives -0.0."""
    return -log_p / n + 0.0


def _wilson(hits: int, trials: int, z: float = 1.959963984540054):
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def simulate_walk(
    window: EnvironmentWindow,
    start: StartDistribution,
    target_level: int,
    step_cap: int = 10_000_000,
    seed: int | None = 0,
    M: int | None = None,
) -> WalkRecord:
    """Exact simulation of the quenched chain until it first hits target_level."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = window.d
    lev = 0
    h = int(rng.choice(d, p=start.pi))
    times = []
    best = 0
    for step in range(1, step_cap + 1):
        if not window.lo <= lev < window.hi:
            raise WindowExhaustedError(
                f"walk left the window at level {lev} (step {step})"
            )
        k = lev - window.lo
        row = np.concatenate([window.q[k, h], window.r[k, h], window.p[k, h]])
        u = rng.random()
        choice = int(np.searchsorted(np.cumsum(row), u, side="right"))
        choice = min(choice, 3 * d - 1)
        lev += choice // d - 1
        h = choice % d
        while best < lev:
            best += 1
            times.append(step)  # first passage of each level up to the current one
        if lev == target_level:
            times_arr = np.asarray(times)
            taus = np.diff(np.concatenate([[0], times_arr]))
            return WalkRecord(
                hitting_times=times_arr,
                final_position=(lev, h + 1),
                increments=taus,
                truncation_ok=bool((taus <= M).all()) if M is not None else None,
                seed=seed,
                steps=step,
            )
    raise BudgetExhaustedError(
        f"walk did not reach level {target_level} within {step_cap} steps"
    )


# ---------------------------------------------------------------------------
# vectorized batch walkers
# ---------------------------------------------------------------------------


def _thresholds(c) -> np.ndarray:
    """The integer thresholds ceil(c 2^53) of partial sums c, as uint64, for
    raw draws X, whose uniform is X 2^-53 (_Lanes._raw_column): a threshold
    is at or below X iff c <= X 2^-53, exactly, as c 2^53 and its ceiling
    are exact. A c at or below 0 gives 0, which every draw passes; a c
    above 1 - 2^-53 (1.0, inf) gives the sentinel 2^53, which none does."""
    return np.ceil(np.clip(c, 0.0, 1.0) * 2.0**53).astype(np.uint64)


def _move_columns(q, r, p) -> np.ndarray:
    """(3d - 1, rows) table of the cumulative move rows of (..., d, d)
    stacks as integer thresholds (_thresholds): column c holds partial sum
    c of every row, the row of (slot, h) at flat index slot * d + h. The
    last partial sum is left out: a draw at or above every other one takes
    the last move."""
    cdf = np.cumsum(np.concatenate([q, r, p], axis=-1), axis=-1)
    return np.ascontiguousarray(_thresholds(cdf.reshape(-1, cdf.shape[-1]).T[:-1]))


def _choose(cols: np.ndarray, at: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The move each raw draw selects from its cumulative row (flat index
    `at` into the threshold table `cols`): the block (0 left, 1 stay, 2
    right) times d plus the entry height. It counts the thresholds at or
    below x, the partial sums at or below its uniform u (searchsorted's
    side="right", as in simulate_walk), so no move of probability 0 before
    the last is taken, not even by u = 0.0: the same as
    min((u[:, None] >= row).sum(1), 3d - 1) on the whole rows, whose
    partial sums never fall."""
    move = np.zeros(len(at), np.int8 if len(cols) < 128 else np.int64)
    for col in cols:
        move += x >= col.take(at)
    return move


def _window_cdf(window: EnvironmentWindow):
    """Lookup (li, h, x, trial) -> move on one window, the same for every
    trial: _choose on the window's (3d - 1, n d) threshold table of
    cumulative move rows (_move_columns) at the flat index li * d + h, at
    d = 1 li itself (the height is always 0)."""
    d = window.d
    cols = _move_columns(window.q, window.r, window.p)  # (3d-1, n*d)
    if d == 1:
        return lambda li, h, x, trial: _choose(cols, li, x)
    return lambda li, h, x, trial: _choose(cols, li * d + h, x)


def _averaged_lookups(spec: EnvironmentSpec):
    """Per-trial i.i.d. environments as an index table into the support:
    maps environment uniforms (row i for trial i, one column per level) to
    a lookup (li, h, x, trial) -> move on the support's flat threshold
    table."""
    if spec.kind != "iid":
        raise ValueError("averaged mode needs an i.i.d. finite-support spec")
    d = spec.d
    cols = _move_columns(*spec.stacks)  # (3d-1, S*d)
    cum = np.cumsum(np.asarray(spec.weights))

    def lookups(env_uniforms):
        slots = np.searchsorted(cum, env_uniforms, side="right")
        np.minimum(slots, len(cum) - 1, out=slots)
        if d == 1:
            return lambda li, h, x, trial: _choose(cols, slots[trial, li], x)
        slots *= d
        return lambda li, h, x, trial: _choose(cols, slots[trial, li] + h, x)

    return lookups


def _trials(spec, seed, tag, trials, lo, hi, mode, start):
    """The trial loop of the direct estimators: for each chunk of trials,
    the lookup, the start heights and the lanes of the chunk's streams
    (_Lanes), which the walk then draws a column a step from.

    Quenched mode walks every trial on the window [lo, hi) of `seed`.
    Averaged mode gives each trial its own i.i.d. environment on those
    levels, drawn from the head of the trial's stream, one column a level;
    the stream's next uniform draws the start height.
    """
    if mode == "quenched":
        lookup, draws = _window_cdf(sample_window(spec, lo, hi, seed=seed)), 0
    elif mode == "averaged":
        lookups, draws = _averaged_lookups(spec), hi - lo
    else:
        raise ValueError("mode must be 'quenched' or 'averaged'")
    pi = (start or StartDistribution.uniform(spec.d)).pi
    for first, m in _chunks(trials, draws):
        lanes = _Lanes(seed, tag, first, m)
        if draws:
            lookup = lookups(lanes._columns(draws))
        yield lookup, _start_heights(lanes._column(), pi), lanes


def _step_levels(li, h, choice, d):
    """Moves the walkers' rows `li` in place by their moves `choice` (which
    it may overwrite) and returns their new heights. At d = 1 the height is
    always 0 (None) and the move is the level step plus one."""
    if d == 1:
        choice -= 1
        li += choice
        return None
    block = choice // d
    li += block - 1
    return choice - block * d  # choice % d; numpy's integer remainder is slower


def _batch_walk(lookup, lo, target, lanes, steps, d, h0, M=None):
    """Returns (T, ok): first-passage times of `target` (inf if not reached
    within `steps` steps) and whether every excursion respected the cap M.
    Each step draws one column of raw draws from `lanes` (a _Lanes, or
    anything with its _raw_column and _keep), trial i's lane for trial i;
    trials that have hit stop, so they never step out of the window.

    The walk state is held for the live trials only (trial numbers `ids`),
    and the lanes with it: both are compacted on the steps where some trial
    hits or breaks the cap. Levels are held as window rows, level - lo, and
    the highest row reached and the step of its first passage only with a
    cap M (first passages of a nearest-level walk are one level apart, so
    without one the first step at `target` is T)."""
    trials = len(h0)
    ids = np.arange(trials)
    li = np.full(trials, -lo, dtype=np.int64)
    h = h0.astype(np.int64) if d > 1 else None
    goal = target - lo
    if M is not None:
        best = li.copy()
        last_adv = np.zeros(trials, dtype=np.int64)
    T = np.full(trials, np.inf)
    ok = np.ones(trials, dtype=bool)
    for step in range(1, steps + 1):
        if not ids.size:
            break
        if li.min() < 0:
            raise WindowExhaustedError("walk left the window")
        h = _step_levels(li, h, lookup(li, h, lanes._raw_column(), ids), d)
        gone = hit = li == goal
        if M is not None:
            adv = li > best
            best += adv  # nearest-level moves advance first passage by one
            # current excursion length, judged before first-passage bookkeeping
            # so an advance arriving after M steps still counts as a violation
            bad = (step - last_adv) > M
            last_adv[adv] = step
            hit &= ~bad
            gone = hit | bad
        if gone.any():
            T[ids[hit]] = step
            keep = ~gone
            if M is not None:
                ok[ids[bad]] = False  # the trials that broke the cap
                best, last_adv = best[keep], last_adv[keep]
            ids, li = ids[keep], li[keep]
            if h is not None:
                h = h[keep]
            lanes._keep(keep)
    return T, ok


def _walk_levels(lookup, lo, lanes, steps, d, h0):
    """Levels of every trial after each of `steps` steps, yielded as one
    array updated in place. Each step draws one column of raw draws from
    `lanes`."""
    lev = np.zeros(len(h0), dtype=np.int64)
    h = h0.astype(np.int64) if d > 1 else None
    trial = np.arange(len(h0))
    for _ in range(steps):
        li = lev - lo
        if li.min(initial=0) < 0:
            raise WindowExhaustedError("walk left the window")
        h = _step_levels(lev, h, lookup(li, h, lanes._raw_column(), trial), d)
        yield lev


def empirical_hitting_tail(
    spec: EnvironmentSpec,
    n: int,
    t: float,
    trials: int,
    seed: int | None = 0,
    mode: str = "quenched",
    start: StartDistribution | None = None,
    M: int | None = None,
) -> TailEstimate:
    """Direct estimate of the hitting-time tail P(T_n >= t n) at scale n.

    With M given the event is restricted to paths with every excursion
    tau_k <= M (the estimand of the tilted sampler), so direct and
    importance-sampled estimates are comparable. Quenched mode fixes one
    window (its seed is reported); averaged mode redraws the environment
    per trial. A walk that leaves the window restarts every trial with the
    next, wider left margin of HIT_MARGINS.
    """
    if t <= 1.0:
        raise ValueError("direct tail estimation needs t > 1")
    # without an excursion cap the event is decided by step ceil(t n); with a
    # cap, every trial either hits n or violates the cap within n*M steps
    steps = n * M + 1 if M is not None else int(math.ceil(t * n)) + 1
    for margin in HIT_MARGINS:
        hits = 0
        try:
            for lookup, h0, lanes in _trials(spec, seed, TAG_HIT, trials, -margin, n,
                                             mode, start):
                T, ok = _batch_walk(lookup, -margin, n, lanes, steps, spec.d, h0, M)
                hits += int(((T >= t * n) & ok).sum())  # unhit trials carry T = inf
        except WindowExhaustedError:
            continue
        event = f"T_n >= {t}*n" + (f" & tau <= {M}" if M is not None else "")
        return _direct_estimate(
            event=event, n=n, hits=hits, trials=trials, mode=mode,
            spec_hash=spec.content_hash(), seed=seed,
        )
    raise WindowExhaustedError(
        f"left margin {HIT_MARGINS[-1]} still exhausted; environment drifts left too hard"
    )


def _direct_estimate(event, n, hits, trials, mode, spec_hash, seed) -> TailEstimate:
    p_lo, p_hi = _wilson(hits, trials)
    if hits == 0:
        return TailEstimate(
            event=event, n=n, point=_rate(math.log(p_hi), n),
            ci=(_rate(math.log(p_hi), n), float("inf")), method="direct",
            trials=trials, ess=float(trials), mode=mode, hits=0,
            one_sided=True, spec_hash=spec_hash, seed=seed, prob=0.0,
        )
    phat = hits / trials
    return TailEstimate(
        event=event, n=n, point=_rate(math.log(phat), n),
        ci=(_rate(math.log(p_hi), n), _rate(math.log(p_lo), n) if p_lo > 0 else float("inf")),
        method="direct", trials=trials, ess=float(trials), mode=mode,
        hits=hits, spec_hash=spec_hash, seed=seed, prob=phat,
    )


# ---------------------------------------------------------------------------
# importance sampling on excursions
# ---------------------------------------------------------------------------


def _sorted_search(table: np.ndarray, W: int, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min(searchsorted(cdf[row], u, side="right"), width - 1) for each u on
    its own row, by a branchless binary search of log2(W) 1-D takes. Row r
    of the flat table, at [r * W, (r + 1) * W), holds the first width - 1
    entries of a nondecreasing cdf row padded to the power of two
    W >= width with entries above every u (inf for uniforms, the sentinel
    2^53 for raw draws and their thresholds), so the count of entries <= u
    stays below W."""
    start = rows * W
    at = start.copy()
    half = W >> 1
    while half:
        at += (table.take(at + (half - 1)) <= u) * half
        half >>= 1
    return at - start


def _bucket_bits(m: int, k: int, n: int, d: int) -> int:
    """log2 of the bucket count B of the sampler's tables (_bucket_table)
    for a chunk of m trials on n levels of d rows of k thresholds. About
    k / B of a level's m draws fall in flagged buckets and run
    _sorted_search, each at about 16 times the cost of building one table
    entry (on a 2-core x86-64 Xeon), so B near 4 sqrt(m k / d) spends the
    least on both. B stays at most m / d, so that a level's table has no
    more entries than the level has draws, and at most CHUNK_ENTRIES /
    (n d), so that the tables fit the chunk's entry budget."""
    bits = max(0, round(math.log2(max(1, 16 * m * k // d)) / 2))
    while bits and (d << bits) > min(m, CHUNK_ENTRIES // max(n, 1)):
        bits -= 1
    return bits


def _bucket_table(thr: np.ndarray, bits: int):
    """(counts, flags), a guide table of the sorted threshold rows thr
    (rows, k) for raw draws cut into B = 2^bits buckets by their top bits,
    bucket b holding the draws [b 2^s, (b + 1) 2^s), s = 53 - bits.
    counts[row * B + b] is the count of the row's thresholds at or below
    the bucket's first draw, the count of every draw in the bucket unless
    flags[row * B + b]: a threshold lies strictly inside the bucket. Count
    j holds from bucket ceil(t_{j-1} / 2^s) up to ceil(t_j / 2^s), with
    t_{-1} = 0 and t_k = 2^53. counts take the least unsigned type that
    holds k (uint8 below 256 thresholds a row)."""
    rows, k = thr.shape
    B, s = 1 << bits, 53 - bits
    edges = np.empty((rows, k + 2), np.int64)
    edges[:, 0], edges[:, -1] = 0, B
    edges[:, 1:-1] = (thr + ((1 << s) - 1)) >> s
    values = np.arange(k + 1, dtype=np.min_scalar_type(k))
    counts = np.repeat(np.tile(values, rows), np.diff(edges, axis=1).ravel())
    row, j = np.nonzero(thr & ((1 << s) - 1))
    flags = np.zeros(rows * B, bool)
    flags[row * B + (thr[row, j] >> s).astype(np.int64)] = True
    return counts, flags


@dataclass
class TiltedSampler:
    """Per-level excursion sampler under Q_{omega,n}^{lambda,M}."""

    lam: float
    M: int
    n: int
    log_Z: float  # log E[e^{lambda T_n}; all tau <= M] for the uniform start
    cdfs: np.ndarray  # (n, d, M*d) cumulative over (m, j), m-major
    d: int
    start: np.ndarray

    def sample(self, trials: int, seed, first_trial: int = 0):
        """Sample `trials` tilted paths; trial i uses its own seed-tree stream
        (spawn index first_trial + i), so any trial replays in isolation.

        Each level draws one column of raw draws and reads its entries'
        counts (the excursion length - 1 times d plus the entry height)
        from the level's bucket table (_bucket_table), whose bucket count
        grows with the chunk; only the draws in flagged buckets run
        _sorted_search on the threshold rows."""
        d, n = self.d, self.n
        width = self.cdfs.shape[2]
        W = 1 << (width - 1).bit_length()  # a power of two >= width
        thr = _thresholds(self.cdfs[:, :, :-1])
        tables = np.full((n, d, W), 1 << 53, np.uint64)  # the search tables of _sorted_search
        tables[:, :, :width - 1] = thr
        tables = tables.reshape(n, d * W)
        T = np.zeros(trials, dtype=np.int64)
        h = np.zeros(trials, dtype=np.int64)
        for first, m in _chunks(trials, 0):
            lanes = _Lanes(seed, TAG_IS, first_trial + first, m)
            hc = _start_heights(lanes._column(), self.start).astype(np.int64)
            bits = _bucket_bits(m, width - 1, n, d)
            counts, flags = (a.reshape(n, d << bits) for a in
                             _bucket_table(thr.reshape(n * d, width - 1), bits))
            shift = np.uint64(53 - bits)
            Tc = T[first:first + m]
            for k in range(n):
                x = lanes._raw_column()
                at = (x >> shift).view(np.int64)
                if d > 1:
                    at += hc << bits
                idx = counts[k].take(at)
                fall = np.flatnonzero(flags[k].take(at))
                if fall.size:
                    idx[fall] = _sorted_search(tables[k], W, hc[fall], x[fall])
                if d == 1:
                    Tc += idx
                else:
                    idx = idx.astype(np.int64)
                    block = idx // d
                    Tc += block
                    hc = idx - block * d
            Tc += n  # the excursion lengths are the blocks plus one
            h[first:first + m] = hc
        return T, h


def build_tilted_sampler(
    evaluator: LmgfEvaluator, lam: float, M: int, n: int,
    start: StartDistribution | None = None,
) -> TiltedSampler:
    ker_all = evaluator._kernels(M)  # (n, M, d, d), or one period for periodic specs
    if evaluator.spec.kind == "periodic":
        ker = ker_all[np.arange(n) % ker_all.shape[0]]
    else:
        ker = ker_all[:n]
    d = ker.shape[2]
    start_pi = (start or StartDistribution.uniform(d)).pi
    m_range = np.arange(1, M + 1)
    weights = np.exp(lam * m_range)[None, :, None, None] * ker  # (n, M, d, d)

    # backward vectors h_k = Phi_{k,M} h_{k+1}, normalized; the true h_0 is
    # hs[0] times d (h_n = 1 = d * (1/d)) times the normalizers of levels
    # n-1 .. 0, summed in that order on the log scale
    hs, s = _roll_right(weights.sum(axis=1))  # Phi_{k,M}(lambda)
    logscale = np.cumsum([math.log(d), *map(math.log, s[::-1])])[-1]
    log_Z = math.log(float(start_pi @ hs[0])) + logscale

    tab = weights * hs[1:, None, None, :]  # (n, M, d_i, d_j) scaled by h_{k+1}(j)
    flat = tab.transpose(0, 2, 1, 3).reshape(n, d, M * d)  # (k, i, m-major x j)
    cdfs = np.cumsum(flat / flat.sum(axis=2, keepdims=True), axis=2)
    return TiltedSampler(
        lam=lam, M=M, n=n, log_Z=log_Z, cdfs=cdfs, d=d, start=start_pi,
    )


def importance_sample_hitting(
    evaluator: LmgfEvaluator,
    t: float,
    M: int,
    trials: int,
    start: StartDistribution | None = None,
    return_samples: bool = False,
):
    """Tilted estimate of P(T_n >= t n, all excursions <= M) at rate scale.

    The tilt lambda_{t,M} solves Lambda'_M = t (safeguarded Newton,
    `LmgfEvaluator.solve_tilt`), so the tilted walk concentrates at
    T_n ~ t n and the event is no longer rare. Quenched:
    the evaluator's window (a margin of at least M levels) is the one
    environment, n is its level count, and its seed also seeds the trials.
    With `return_samples`, returns (estimate, T, log_Z, lambda_{t,M}).
    """
    spec, n, seed = evaluator.spec, evaluator.n_levels, evaluator.seed
    if M <= t + 2:
        raise ValueError(f"need M > t + 2 (M={M}, t={t})")
    if M < n_kappa(spec.kappa):
        raise ValueError(f"need M >= N_kappa = {n_kappa(spec.kappa)}")
    if t <= 1.0:
        raise ValueError("need t > 1")
    lam = evaluator.solve_tilt(t, M)
    sampler = build_tilted_sampler(evaluator, lam, M, n, start=start)
    T, _ = sampler.sample(trials, seed)

    shift = lam * t * n
    hit = T >= t * n
    hits = int(hit.sum())
    y = np.where(hit, np.exp(-lam * (T - t * n)), 0.0)
    mean_y = float(y.mean())
    log_p = sampler.log_Z - shift + math.log(mean_y) if mean_y > 0 else -float("inf")
    sum_y = float(y.sum())
    ess = sum_y**2 / float((y**2).sum()) if sum_y > 0 else 0.0
    point = _rate(log_p, n) if math.isfinite(log_p) else float("inf")
    if trials == 1 or hits == 0:
        # one sample, or none in the event, measures no spread: all that is
        # sure is that the probability is at most 1
        ci = (0.0, float("inf"))
    else:
        half = 1.959963984540054 * float(y.std(ddof=1)) / math.sqrt(trials)
        ci = tuple(_rate(sampler.log_Z - shift + math.log(p), n) if p > 0 else float("inf")
                   for p in (mean_y + half, mean_y - half))
    est = TailEstimate(
        event=f"T_n >= {t}*n & tau <= {M}", n=n, point=point, ci=ci,
        method="importance-sampled", trials=trials, ess=ess,
        hits=hits, spec_hash=spec.content_hash(), seed=seed,
        one_sided=not math.isfinite(ci[1]), prob=math.exp(log_p) if math.isfinite(log_p) else 0.0,
    )
    if return_samples:
        return est, T, sampler.log_Z, lam
    return est


# ---------------------------------------------------------------------------
# slowdown probabilities
# ---------------------------------------------------------------------------


def _forward_distribution(window: EnvironmentWindow, n: int, start: np.ndarray):
    """Distribution of the walk at time n over levels [-n, n] (exact DP)."""
    d = window.d
    L = 2 * n + 1
    base = -n
    dist = np.zeros((L, d))
    dist[-base] = start
    for _ in range(n):
        nxt = np.zeros_like(dist)
        lvl = np.arange(base, base + L)
        wi = lvl - window.lo
        ql = np.einsum("li,lij->lj", dist, window.q[wi])
        rl = np.einsum("li,lij->lj", dist, window.r[wi])
        pl = np.einsum("li,lij->lj", dist, window.p[wi])
        nxt[:-1] += ql[1:]
        nxt += rl
        nxt[1:] += pl[:-1]
        dist = nxt
    return dist, base


def slowdown_probability(
    spec: EnvironmentSpec,
    n: int,
    trials: int = 100_000,
    seed: int | None = 0,
    method: str = "exact",
    mode: str = "quenched",
    start: StartDistribution | None = None,
) -> TailEstimate:
    """Estimate -(1/n) log P( inf_{m >= n} X_m <= 0 ), the slowdown decay rate.

    method 'exact': n-step forward DP for the time-n distribution combined
    with left-passage probability products (no sampling error; the infinite
    horizon is handled exactly through the passage probabilities).
    method 'direct': simulate SLOWDOWN_HORIZON * n steps and use the running
    minimum as a transience-justified proxy for the infinite-horizon event;
    in averaged mode each trial walks its own environment.
    Rejected for non-right-transient specs (the probability does not decay).
    """
    ev0 = LmgfEvaluator(spec, n_levels=800, seed=seed)
    ev0_inv = LmgfEvaluator(spec.invert(), n_levels=800, seed=seed)
    if not (ev0.value(0.0).value > -1e-6 and ev0_inv.value(0.0).value < -1e-4):
        raise ValueError("slowdown rates need a right-transient spec")
    d = spec.d
    start_pi = (start or StartDistribution.uniform(d)).pi

    if method == "exact":
        n_env = trials if mode == "averaged" else 1
        probs = []
        for e in range(n_env):
            wseed = seed if mode == "quenched" else (seed or 0) * 1_000_003 + e
            window = sample_window(spec, -n - 1, n + SLOWDOWN_MARGIN, seed=wseed)
            dist, base = _forward_distribution(window, n, start_pi)
            inv = invert_window(window)
            sol = solve_phi_window(inv, 0.0, kappa=spec.kappa)
            p_total = float(dist[: -base + 1].sum())  # levels <= 0
            B = np.ones(d)
            for k in range(1, n + 1):
                B = sol.at_level(-k) @ B  # left-passage product down to level 0
                p_total += float(dist[-base + k] @ B)
            probs.append(p_total)
        p = float(np.mean(probs))
        point = _rate(math.log(p), n)
        return TailEstimate(
            event="inf_{m>=n} X_m <= 0", n=n, point=point, ci=(point, point),
            method="exact", trials=n_env, ess=float(n_env), mode=mode,
            hits=n_env, spec_hash=spec.content_hash(), seed=seed, prob=p,
        )

    if method != "direct":
        raise ValueError("method must be 'exact' or 'direct'")
    horizon = SLOWDOWN_HORIZON * n
    hits = 0
    for lookup, h0, lanes in _trials(spec, seed, TAG_SLOW, trials, -SLOWDOWN_MARGIN,
                                     horizon + 2, mode, start):
        event = np.zeros(len(h0), dtype=bool)
        levels = _walk_levels(lookup, -SLOWDOWN_MARGIN, lanes, horizon, d, h0)
        for step, lev in enumerate(levels, 1):
            if step >= n:
                event |= lev <= 0
        hits += int(event.sum())
    return _direct_estimate(
        event="inf_{m>=n} X_m <= 0 (finite-horizon proxy)", n=n, hits=hits,
        trials=trials, mode=mode, spec_hash=spec.content_hash(), seed=seed,
    )


def empirical_speed_tail(
    spec: EnvironmentSpec,
    n: int,
    x: float,
    trials: int,
    seed: int | None = 0,
    mode: str = "quenched",
    start: StartDistribution | None = None,
) -> TailEstimate:
    """Direct estimate of P(X_n <= x n) for x below the speed v0, and of
    P(X_n >= x n) otherwise, at scale n."""
    ev0 = LmgfEvaluator(spec, n_levels=600, seed=seed)
    v0_rough = ev0.derivative(-1e-4).value
    v0 = 1.0 / v0_rough if math.isfinite(v0_rough) and v0_rough > 0 else 0.0
    if ev0.value(0.0).value < -1e-6:
        ev0i = LmgfEvaluator(spec.invert(), n_levels=600, seed=seed)
        v0 = -1.0 / ev0i.derivative(-1e-4).value
    below = x < v0
    left = max(SPEED_MARGIN, n + 2)
    hits = 0
    for lookup, h0, lanes in _trials(spec, seed, TAG_SPEED, trials, -left, n + 2,
                                     mode, start):
        *_, lev = _walk_levels(lookup, -left, lanes, n, spec.d, h0)
        hits += int((lev <= x * n).sum() if below else (lev >= x * n).sum())
    return _direct_estimate(
        event=f"X_n {'<=' if below else '>='} {x}*n", n=n, hits=hits,
        trials=trials, mode=mode, spec_hash=spec.content_hash(), seed=seed,
    )
