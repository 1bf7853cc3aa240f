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
"""

from __future__ import annotations

import math
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
from .phi import kernels_to_phi, solve_phi_window
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


def trial_uniforms(seed, tag: int, trial: int, k: int) -> np.ndarray:
    """Uniform stream of trial `trial`: a splittable per-trial seed tree, so
    any single trial reproduces in isolation and results do not depend on
    batch chunking."""
    ss = np.random.SeedSequence(seed if seed is not None else 0,
                                spawn_key=(tag, trial))
    return np.random.default_rng(ss).random(k)


def _uniform_block(seed, tag: int, first: int, count: int, stride: int) -> np.ndarray:
    out = np.empty((count, stride))
    for i in range(count):
        out[i] = trial_uniforms(seed, tag, first + i, stride)
    return out


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


def _window_cdf(window: EnvironmentWindow):
    k = np.concatenate([window.q, window.r, window.p], axis=2)  # (n, d, 3d)
    cdf = np.cumsum(k, axis=2)
    d = window.d

    def lookup(li, hi_, u):
        rows = cdf[li, hi_]
        return np.minimum((u[:, None] > rows).sum(axis=1), 3 * d - 1)

    return lookup


def empirical_hitting_tail(
    spec: EnvironmentSpec,
    n: int,
    t: float,
    trials: int,
    seed: int | None = 0,
    mode: str = "quenched",
    margin: int = 64,
    start: StartDistribution | None = None,
    M: int | None = None,
) -> TailEstimate:
    """Direct estimate of the hitting-time tail P(T_n >= t n) at scale n.

    With M given the event is restricted to paths with every excursion
    tau_k <= M (the estimand of the tilted sampler), so direct and
    importance-sampled estimates are comparable. Quenched mode fixes one
    window (its seed is reported); averaged mode redraws the environment
    per trial.
    """
    if t <= 1.0:
        raise ValueError("direct tail estimation needs t > 1")
    d = spec.d
    start = start or StartDistribution.uniform(d)
    # without an excursion cap the event is decided by step ceil(t n); with a
    # cap, every trial either hits n or violates the cap within n*M steps
    steps = n * M + 1 if M is not None else int(math.ceil(t * n)) + 1
    for attempt in range(4):
        try:
            return _hitting_tail_attempt(
                spec, n, t, trials, seed, mode, margin * (2 ** attempt),
                start, steps, M,
            )
        except WindowExhaustedError:
            continue
    raise WindowExhaustedError(
        f"left margin {margin * 8} still exhausted; environment drifts left too hard"
    )


def _hitting_tail_attempt(spec, n, t, trials, seed, mode, margin, start, steps, M):
    d = spec.d
    hits = 0
    done = 0
    n_win = margin + n
    env_draws = n_win if mode == "averaged" else 0
    stride = env_draws + 1 + steps
    chunk = max(1, min(trials, int(8e6 // max(stride, 1)) + 1))
    while done < trials:
        m = min(chunk, trials - done)
        U = _uniform_block(seed, TAG_HIT, done, m, stride)
        if mode == "quenched":
            window = sample_window(spec, -margin, n, seed=seed)
            lookup = _window_cdf(window)
            lo = window.lo
        elif mode == "averaged":
            lookup, lo = _averaged_lookup(spec, -margin, n, U[:, :env_draws])
        else:
            raise ValueError("mode must be 'quenched' or 'averaged'")
        h0 = (U[:, env_draws][:, None] > np.cumsum(start.pi)[None, :]).sum(axis=1)
        T, ok = _batch_walk(lookup, lo, n, U[:, env_draws + 1:], d, h0, mode, M)
        hits += int(((T >= t * n) & ok).sum())  # unhit trials carry T = inf
        done += m
    event = f"T_n >= {t}*n" + (f" & tau <= {M}" if M is not None else "")
    return _direct_estimate(
        event=event, n=n, hits=hits, trials=trials, mode=mode,
        spec_hash=spec.content_hash(), seed=seed,
    )


def _batch_walk(lookup, lo, target, U, d, h0, mode, M=None):
    """Returns (T, ok): first-passage times of `target` (inf if not reached
    within U.shape[1] steps) and whether every excursion respected the cap M.
    Trial i consumes row i of the uniform block U."""
    trials, steps = U.shape
    lev = np.zeros(trials, dtype=np.int64)
    h = h0.astype(np.int64)
    T = np.full(trials, np.inf)
    best = np.zeros(trials, dtype=np.int64)
    last_adv = np.zeros(trials, dtype=np.int64)
    ok = np.ones(trials, dtype=bool)
    active = np.ones(trials, dtype=bool)
    for step in range(1, steps + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        li = lev[idx] - lo
        if (li < 0).any():
            raise WindowExhaustedError("walk left the window")
        u = U[idx, step - 1]
        choice = lookup(li, h[idx], u) if mode == "quenched" else lookup(li, h[idx], u, idx)
        lev[idx] += choice // d - 1
        h[idx] = choice % d
        if M is not None:
            # current excursion length, judged before first-passage bookkeeping
            # so an advance arriving after M steps still counts as a violation
            bad = idx[(step - last_adv[idx]) > M]
            if bad.size:
                ok[bad] = False
                active[bad] = False
        adv = idx[(lev[idx] > best[idx]) & ok[idx]]
        if adv.size:
            best[adv] += 1  # nearest-level moves advance first passage by one
            last_adv[adv] = step
        hit = idx[(lev[idx] == target) & ok[idx]]
        if hit.size:
            T[hit] = step
            active[hit] = False
    return T, ok


def _averaged_lookup(spec, lo, hi, env_uniforms):
    """Per-trial i.i.d. environments as an index table into the support;
    trial i's environment comes from row i of env_uniforms (its own stream)."""
    if spec.kind != "iid":
        raise ValueError("averaged mode needs an i.i.d. finite-support spec")
    S = len(spec.slices)
    cum = np.cumsum(np.asarray(spec.weights))
    idx_table = np.searchsorted(cum, env_uniforms, side="right")
    idx_table = np.minimum(idx_table, S - 1)
    d = spec.d
    support = np.stack([
        np.cumsum(np.concatenate([s.q, s.r, s.p], axis=1), axis=1)
        for s in spec.slices
    ])  # (S, d, 3d)

    def lookup(li, hi_, u, trial_idx):
        rows = support[idx_table[trial_idx, li], hi_]
        return np.minimum((u[:, None] > rows).sum(axis=1), 3 * d - 1)

    return lookup, lo


def _direct_estimate(event, n, hits, trials, mode, spec_hash, seed) -> TailEstimate:
    p_lo, p_hi = _wilson(hits, trials)
    if hits == 0:
        return TailEstimate(
            event=event, n=n, point=-math.log(p_hi) / n,
            ci=(-math.log(p_hi) / n, float("inf")), method="direct",
            trials=trials, ess=float(trials), mode=mode, hits=0,
            one_sided=True, spec_hash=spec_hash, seed=seed, prob=0.0,
        )
    phat = hits / trials
    return TailEstimate(
        event=event, n=n, point=-math.log(phat) / n,
        ci=(-math.log(p_hi) / n, -math.log(p_lo) / n if p_lo > 0 else float("inf")),
        method="direct", trials=trials, ess=float(trials), mode=mode,
        hits=hits, spec_hash=spec_hash, seed=seed, prob=phat,
    )


# ---------------------------------------------------------------------------
# importance sampling on excursions
# ---------------------------------------------------------------------------


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
        (spawn index first_trial + i), so any trial replays in isolation."""
        d, n = self.d, self.n
        T = np.zeros(trials, dtype=np.int64)
        h = np.zeros(trials, dtype=np.int64)
        done = 0
        stride = n + 1
        chunk = max(1, min(trials, int(8e6 // stride) + 1))
        while done < trials:
            m = min(chunk, trials - done)
            U = _uniform_block(seed, TAG_IS, first_trial + done, m, stride)
            hc = (U[:, 0][:, None] > np.cumsum(self.start)[None, :]).sum(axis=1)
            hc = hc.astype(np.int64)
            Tc = np.zeros(m, dtype=np.int64)
            for k in range(n):
                u = U[:, k + 1]
                if d == 1:
                    idx = np.searchsorted(self.cdfs[k, 0], u, side="right")
                    idx = np.minimum(idx, self.cdfs.shape[2] - 1)
                else:
                    idx = np.empty(m, dtype=np.int64)
                    for i in range(d):
                        mask = hc == i
                        if mask.any():
                            found = np.searchsorted(self.cdfs[k, i], u[mask],
                                                    side="right")
                            idx[mask] = np.minimum(found, self.cdfs.shape[2] - 1)
                Tc += idx // d + 1
                hc = idx % d
            T[done:done + m] = Tc
            h[done:done + m] = hc
            done += m
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

    cdfs = np.empty((n, d, M * d))
    for k in range(n):
        tab = weights[k] * hs[k + 1][None, None, :]  # (M, d_i, d_j) scaled by h_{k+1}(j)
        flat = tab.transpose(1, 0, 2).reshape(d, M * d)  # (i, m-major x j)
        flat = flat / flat.sum(axis=1, keepdims=True)
        cdfs[k] = np.cumsum(flat, axis=1)
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

    The tilt lambda_{t,M} solves Lambda'_M = t, so the tilted walk
    concentrates at T_n ~ t n and the event is no longer rare. Quenched:
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
    y = np.where(T >= t * n, np.exp(-lam * (T - t * n)), 0.0)
    mean_y = float(y.mean())
    sd_y = float(y.std(ddof=1)) if trials > 1 else 0.0
    log_p = sampler.log_Z - shift + math.log(mean_y) if mean_y > 0 else -float("inf")
    half = 1.959963984540054 * sd_y / math.sqrt(trials)
    p_lo_rel = mean_y - half
    p_hi_rel = mean_y + half
    sum_y = float(y.sum())
    ess = sum_y**2 / float((y**2).sum()) if sum_y > 0 else 0.0
    point = -log_p / n if math.isfinite(log_p) else float("inf")
    ci = (
        -(sampler.log_Z - shift + math.log(p_hi_rel)) / n if p_hi_rel > 0 else float("inf"),
        -(sampler.log_Z - shift + math.log(p_lo_rel)) / n if p_lo_rel > 0 else float("inf"),
    )
    est = TailEstimate(
        event=f"T_n >= {t}*n & tau <= {M}", n=n, point=point, ci=ci,
        method="importance-sampled", trials=trials, ess=ess,
        hits=int((T >= t * n).sum()), spec_hash=spec.content_hash(), seed=seed,
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
    horizon_factor: int = 20,
    seed: int | None = 0,
    method: str = "exact",
    mode: str = "quenched",
    start: StartDistribution | None = None,
    margin: int = 320,
) -> TailEstimate:
    """Estimate -(1/n) log P( inf_{m >= n} X_m <= 0 ), the slowdown decay rate.

    method 'exact': n-step forward DP for the time-n distribution combined
    with left-passage probability products (no sampling error; the infinite
    horizon is handled exactly through the passage probabilities).
    method 'direct': simulate horizon_factor * n steps and use the running
    minimum as a transience-justified proxy for the infinite-horizon event.
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
            window = sample_window(spec, -n - 1, n + margin, seed=wseed)
            dist, base = _forward_distribution(window, n, start_pi)
            inv = invert_window(window)
            sol = solve_phi_window(inv, 0.0)
            p_total = float(dist[: -base + 1].sum())  # levels <= 0
            B = np.ones(d)
            for k in range(1, n + 1):
                B = sol.at_level(-k) @ B  # left-passage product down to level 0
                p_total += float(dist[-base + k] @ B)
            probs.append(p_total)
        p = float(np.mean(probs))
        point = -math.log(p) / n
        return TailEstimate(
            event="inf_{m>=n} X_m <= 0", n=n, point=point, ci=(point, point),
            method="exact", trials=n_env, ess=float(n_env), mode=mode,
            hits=n_env, spec_hash=spec.content_hash(), seed=seed, prob=p,
        )

    if method != "direct":
        raise ValueError("method must be 'exact' or 'direct'")
    horizon = horizon_factor * n
    hits = 0
    done = 0
    stride = horizon + 1
    chunk = max(1, min(trials, int(8e6 // stride) + 1))
    left_margin = max(64, margin)
    window = sample_window(spec, -left_margin, horizon + 2, seed=seed)
    lookup = _window_cdf(window)
    while done < trials:
        m = min(chunk, trials - done)
        U = _uniform_block(seed, TAG_SLOW, done, m, stride)
        h0 = (U[:, 0][:, None] > np.cumsum(start_pi)[None, :]).sum(axis=1)
        lev = np.zeros(m, dtype=np.int64)
        h = h0.astype(np.int64)
        event = np.zeros(m, dtype=bool)
        for step in range(1, horizon + 1):
            li = lev - window.lo
            if (li < 0).any():
                raise WindowExhaustedError("slowdown walk exited the window")
            choice = lookup(li, h, U[:, step])
            lev += choice // d - 1
            h = choice % d
            if step >= n:
                event |= lev <= 0
        hits += int(event.sum())
        done += m
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
    side: str = "auto",
    margin: int = 64,
    start: StartDistribution | None = None,
) -> TailEstimate:
    """Direct estimate of P(X_n <= x n) or P(X_n >= x n) at scale n."""
    d = spec.d
    start_pi = (start or StartDistribution.uniform(d)).pi
    left = max(margin, n + 2)
    hits = 0
    done = 0
    n_win = left + n + 2
    env_draws = n_win if mode == "averaged" else 0
    stride = env_draws + 1 + n
    chunk = max(1, min(trials, int(8e6 // stride) + 1))
    if side == "auto":
        ev0 = LmgfEvaluator(spec, n_levels=600, seed=seed)
        v0_rough = ev0.derivative(-1e-4).value
        drift = 1.0 / v0_rough if math.isfinite(v0_rough) and v0_rough > 0 else 0.0
        ev0i = LmgfEvaluator(spec.invert(), n_levels=600, seed=seed)
        if ev0.value(0.0).value < -1e-6:
            drift = -1.0 / ev0i.derivative(-1e-4).value
        side = "below" if x < drift else "above"
    while done < trials:
        m = min(chunk, trials - done)
        U = _uniform_block(seed, TAG_SPEED, done, m, stride)
        if mode == "quenched":
            window = sample_window(spec, -left, n + 2, seed=seed)
            lookup, lo = _window_cdf(window), -left
        else:
            lookup, lo = _averaged_lookup(spec, -left, n + 2, U[:, :env_draws])
        h0 = (U[:, env_draws][:, None] > np.cumsum(start_pi)[None, :]).sum(axis=1)
        lev = np.zeros(m, dtype=np.int64)
        h = h0.astype(np.int64)
        for step in range(n):
            li = lev - lo
            if (li < 0).any():
                raise WindowExhaustedError("speed walk exited the window")
            u = U[:, env_draws + 1 + step]
            choice = (lookup(li, h, u) if mode == "quenched"
                      else lookup(li, h, u, np.arange(m)))
            lev += choice // d - 1
            h = choice % d
        hits += int((lev <= x * n).sum() if side == "below" else (lev >= x * n).sum())
        done += m
    op = "<=" if side == "below" else ">="
    return _direct_estimate(
        event=f"X_n {op} {x}*n", n=n, hits=hits, trials=trials, mode=mode,
        spec_hash=spec.content_hash(), seed=seed,
    )
