import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripldp.env import (
    EnvironmentSlice,
    EnvironmentSpec,
    StartDistribution,
    homogeneous_d1_spec,
    sample_window,
    two_point_d1_spec,
)
from stripldp.lmgf import LmgfEvaluator
import stripldp.montecarlo as mc
from stripldp.env import WindowExhaustedError
from stripldp.montecarlo import (
    BudgetExhaustedError,
    _averaged_lookups,
    _Lanes,
    _batch_walk,
    _choose,
    _move_columns,
    _start_heights,
    _window_cdf,
    build_tilted_sampler,
    empirical_hitting_tail,
    empirical_speed_tail,
    importance_sample_hitting,
    simulate_walk,
    slowdown_probability,
    trial_uniforms,
)

from conftest import (
    BlockLanes,
    d1_lambda_crit,
    enumerate_hitting_distribution,
    random_d2_iid_spec,
    ref_averaged_lookup,
    ref_batch_walk,
    ref_choose,
    ref_tilted_sampler_tables,
    ref_window_lookup,
    ref_trial_uniforms,
    raw_draws,
)


def test_walk_near_deterministic():
    spec = homogeneous_d1_spec(0.999, kappa=1e-3)
    w = sample_window(spec, -10, 201, seed=0)
    rec = simulate_walk(w, StartDistribution.uniform(1), 200, seed=4)
    assert rec.steps <= 220
    assert (rec.increments >= 1).all()
    assert rec.hitting_times[-1] == rec.steps


def test_walk_seed_determinism(p075_spec):
    w = sample_window(p075_spec, -40, 101, seed=0)
    a = simulate_walk(w, StartDistribution.uniform(1), 100, seed=7)
    b = simulate_walk(w, StartDistribution.uniform(1), 100, seed=7)
    assert (a.hitting_times == b.hitting_times).all()
    assert a.final_position == b.final_position


def test_walk_lln_speed(p075_spec):
    w = sample_window(p075_spec, -60, 10_001, seed=0)
    speeds = []
    for trial in range(40):
        rec = simulate_walk(w, StartDistribution.uniform(1), 10_000, seed=trial)
        speeds.append(10_000 / rec.steps)
    m = float(np.mean(speeds))
    se = float(np.std(speeds, ddof=1)) / math.sqrt(len(speeds))
    assert abs(m - 0.5) < 3 * se + 1e-4


def test_walk_budget_exhausted(p025_spec):
    w = sample_window(p025_spec, -2000, 50, seed=0)
    with pytest.raises(BudgetExhaustedError):
        simulate_walk(w, StartDistribution.uniform(1), 40, step_cap=200, seed=1)


def test_walk_truncation_flag(p075_spec):
    w = sample_window(p075_spec, -40, 101, seed=0)
    rec = simulate_walk(w, StartDistribution.uniform(1), 100, seed=3, M=500)
    assert rec.truncation_ok is True


def test_direct_tail_typical_event(p075_spec):
    est = empirical_hitting_tail(p075_spec, n=400, t=2.05, trials=4000, seed=2)
    assert est.point < 0.01  # near-typical event: vanishing rate


def test_direct_tail_seed_reproducible(p075_spec):
    a = empirical_hitting_tail(p075_spec, n=30, t=2.5, trials=5000, seed=11)
    b = empirical_hitting_tail(p075_spec, n=30, t=2.5, trials=5000, seed=11)
    assert a.hits == b.hits and a.point == b.point


def test_direct_tail_zero_hits_flagged(p075_spec):
    est = empirical_hitting_tail(p075_spec, n=60, t=5.0, trials=500, seed=3)
    assert est.one_sided and est.ci[1] == math.inf
    assert est.point > 0


def test_is_matches_direct_same_event(p075_spec):
    d = empirical_hitting_tail(p075_spec, n=40, t=2.5, trials=150_000, seed=9, M=16)
    i = importance_sample_hitting(LmgfEvaluator(p075_spec, n_levels=40, seed=9),
                                  t=2.5, M=16, trials=80_000)
    assert max(d.ci[0], i.ci[0]) <= min(d.ci[1], i.ci[1])


def test_is_zero_tilt_degeneracy(p075_spec):
    # t = t0: the tilt solves Lambda'_M = t0 at lambda ~ 0 and the estimate
    # of the near-typical event is close to zero rate
    # truncation removes long excursions, so the M=16 tilt for t0 sits just
    # above zero and vanishes as M grows
    ev = LmgfEvaluator(p075_spec, n_levels=100, seed=0, margin=320)
    lam16 = ev.solve_tilt(2.0 + 1e-9, 16)
    lam64 = ev.solve_tilt(2.0 + 1e-9, 64)
    assert 0 < lam64 < lam16 < 0.05
    est = importance_sample_hitting(LmgfEvaluator(p075_spec, n_levels=100, seed=1),
                                    t=2.0 + 1e-9, M=16, trials=20_000)
    assert est.point < 0.05


def test_is_small_case_unbiased(p075_spec):
    # exhaustive enumeration of P(T_3 = s, tau <= 4) vs the tilted estimator
    n, M = 3, 4
    w = sample_window(p075_spec, -(M + 2), n, seed=0)
    exact = enumerate_hitting_distribution(w, n, M)
    est, T, log_Z, lam = importance_sample_hitting(
        LmgfEvaluator(p075_spec, n_levels=n, seed=5), t=1.9, M=M, trials=100_000,
        return_samples=True,
    )
    for s, p_exact in sorted(exact.items()):
        y = np.where(T == s, math.exp(log_Z) * np.exp(-lam * T), 0.0)
        mean = float(y.mean())
        se = float(y.std(ddof=1)) / math.sqrt(len(y))
        assert abs(mean - p_exact) <= 4 * se + 1e-12, f"s={s}"
    # total mass check: sum over s equals P(all tau <= M)
    total = sum(exact.values())
    y_all = math.exp(log_Z) * np.exp(-lam * T)
    assert abs(float(y_all.mean()) - total) <= 4 * float(y_all.std()) / math.sqrt(len(T))


@pytest.mark.parametrize("seed, t, trials, hits", [(0, 2.5, 1, 1), (0, 3.0, 1, 0),
                                                  (6, 3.0, 3, 0)])
def test_is_interval_without_spread_is_only_the_trivial_bound(seed, t, trials, hits):
    """One sample, or none in the event, measures no spread: the interval is
    only P <= 1, ci = (0, inf) on the rate scale, and one-sided."""
    levels = 200 if trials == 1 else 40
    est = importance_sample_hitting(LmgfEvaluator(PIN_SPECS["d1"], n_levels=levels, seed=seed),
                                    t=t, M=16, trials=trials)
    assert est.hits == hits
    assert est.one_sided and est.ci == (0.0, math.inf)
    assert math.isfinite(est.point) == (hits > 0) and est.point >= 0.0


def test_is_preconditions(p075_spec):
    with pytest.raises(ValueError):
        importance_sample_hitting(LmgfEvaluator(p075_spec, n_levels=10, seed=0),
                                  t=3.0, M=4, trials=10)
    with pytest.raises(ValueError):
        importance_sample_hitting(LmgfEvaluator(p075_spec, n_levels=10, seed=0),
                                  t=0.9, M=16, trials=10)


def test_sampler_concentration(p075_spec):
    # under the tilted law, T_n/n concentrates at t
    ev = LmgfEvaluator(p075_spec, n_levels=400, seed=0, margin=320)
    lam = ev.solve_tilt(3.0, 16)
    sampler = build_tilted_sampler(ev, lam, 16, 400)
    T, _ = sampler.sample(4000, seed=0)
    assert abs(float(T.mean()) / 400.0 - 3.0) < 0.05


def test_slowdown_exact_vs_direct(p075_spec):
    ex = slowdown_probability(p075_spec, n=30, method="exact", seed=1)
    di = slowdown_probability(p075_spec, n=30, method="direct", trials=60_000, seed=1)
    assert di.ci[0] <= ex.point <= di.ci[1]


def test_slowdown_rejects_recurrent(recurrent_spec):
    with pytest.raises(ValueError):
        slowdown_probability(recurrent_spec, n=20, method="exact", seed=0)


def test_slowdown_fast_walk_sanity():
    # q-dominated slowdowns: the rate stays above lambda_crit's level
    spec = homogeneous_d1_spec(0.999, kappa=1e-3)
    lam_c = d1_lambda_crit(0.999)
    est = slowdown_probability(spec, n=30, method="exact", seed=0)
    assert est.point >= lam_c - 1e-6


def test_slowdown_height_permutation_invariance():
    # relabeling the heights of a d=2 spec leaves slowdown estimates unchanged
    rng = np.random.default_rng(4)
    q = rng.uniform(0.05, 0.12, (2, 2))
    p = rng.uniform(0.2, 0.3, (2, 2))
    r = np.zeros((2, 2))
    scale = (q.sum(1) + p.sum(1))[:, None]
    q, p = q / scale, p / scale
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = EnvironmentSpec(kind="periodic", d=2, kappa=0.04,
                           slices=(EnvironmentSlice(q=q, r=r, p=p),))
    spec_perm = EnvironmentSpec(
        kind="periodic", d=2, kappa=0.04,
        slices=(EnvironmentSlice(q=P @ q @ P, r=P @ r @ P, p=P @ p @ P),),
    )
    a = slowdown_probability(spec, n=25, method="exact", seed=3)
    b = slowdown_probability(spec_perm, n=25, method="exact", seed=3)
    assert a.point == pytest.approx(b.point, abs=1e-12)


def test_averaged_leq_quenched_tails():
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    qe = empirical_hitting_tail(spec, n=60, t=2.8, trials=120_000, seed=21,
                                mode="quenched")
    av = empirical_hitting_tail(spec, n=60, t=2.8, trials=120_000, seed=21,
                                mode="averaged")
    # averaged large-deviation probabilities decay more slowly
    assert av.point <= qe.ci[1] + (qe.ci[1] - qe.ci[0])


def test_speed_tail_estimate(p075_spec):
    est = empirical_speed_tail(p075_spec, n=200, x=0.2, trials=30_000, seed=2)
    assert est.event.startswith("X_n <=")
    assert est.point > 0.03  # a genuine deviation below v0 = 0.5


def test_tail_estimate_serialization(p075_spec):
    est = empirical_hitting_tail(p075_spec, n=20, t=2.5, trials=2000, seed=1)
    doc = est.as_dict()
    for key in ("event", "n", "method", "point", "ci", "trials", "ess",
                "spec_hash", "seed"):
        assert key in doc
    assert doc["ci"][0] <= doc["point"] <= doc["ci"][1]


def test_direct_tail_monotone_trend(p075_spec):
    # the finite-size bias is one-signed: points approach J(t) monotonically
    # as n doubles (from above here -- the local-CLT prefactor is positive;
    # the direction itself is a flag, not an assertion)
    from stripldp.lmgf import analyze_environment
    from stripldp.rates import hitting_rate_curve

    analysis = analyze_environment(p075_spec, n_levels=1200, seed=0)
    j = hitting_rate_curve(p075_spec, [2.5], n_levels=1200, seed=0,
                           analysis=analysis).values[0]
    gaps = []
    for n in (20, 40, 80):
        est = empirical_hitting_tail(p075_spec, n=n, t=2.5, trials=150_000,
                                     seed=17)
        gaps.append(abs(est.point - j))
    assert gaps[2] < gaps[1] < gaps[0]


def test_speed_tail_averaged_mode():
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    est = empirical_speed_tail(spec, n=100, x=0.2, trials=20_000, seed=8,
                               mode="averaged")
    assert est.mode == "averaged"
    assert est.point > 0.01


def test_per_trial_stream_isolation(p075_spec):
    # re-running any single trial in isolation reproduces it (splittable
    # per-trial seed tree); results are also independent of chunking
    ev = LmgfEvaluator(p075_spec, n_levels=60, seed=3, margin=320)
    lam = ev.solve_tilt(2.5, 16)
    sampler = build_tilted_sampler(ev, lam, 16, 60)
    T_batch, _ = sampler.sample(50, seed=3)
    for i in (0, 17, 49):
        T_one, _ = sampler.sample(1, seed=3, first_trial=i)
        assert T_one[0] == T_batch[i]


@pytest.mark.parametrize("width", [1, 7, 8, 16])
def test_sorted_search_matches_searchsorted(width):
    """The tilted sampler's branchless search gives
    min(searchsorted(row, u, side="right"), width - 1) on each u's own row,
    with uniforms equal to entries, 0, and 1 - 2^-53 above a row that ends
    below 1."""
    rng = np.random.default_rng(width)
    rows = np.cumsum(rng.random((3, width)), axis=1)
    rows /= rows[:, -1:] * (1.0 + 2.0**-40)
    rows[1, 1:3] = rows[1, 0]  # zero-probability entries tie their partial sums
    r = rng.integers(0, 3, 200)
    u = rng.random(200)
    u[:60] = rows[r[:60], rng.integers(0, width, 60)]
    u[60:65], u[65:70] = 0.0, 1.0 - 2.0**-53
    W = 1 << (width - 1).bit_length()
    table = np.full((3, W), np.inf)
    table[:, :width - 1] = rows[:, :-1]
    ref = [min(int(np.searchsorted(rows[i], x, side="right")), width - 1) for i, x in zip(r, u)]
    assert mc._sorted_search(table.ravel(), W, r, u).tolist() == ref


# partial sums whose thresholds ceil(c 2^53) are edge cases: signed zeros,
# subnormals, multiples of 2^-53 and values between them, the last uniform
# 1 - 2^-53, 1.0, the next double 1 + 2^-52 and inf
THRESHOLD_EDGES = [0.0, -0.0, 5e-324, 2.0**-1074 * 12345, 2.0**-1022, 2.0**-53,
                   3 * 2.0**-53, 0.1, 0.5, 1 - 2.0**-53, 1.0, 1 + 2.0**-52, math.inf, -1.0]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(c=st.one_of(st.sampled_from(THRESHOLD_EDGES),
                   st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
                   st.floats(-1.0, 2.0)),
       side=st.sampled_from([-1, 0, 1]))
def test_thresholds_decide_partial_sums_exactly(c, side):
    """ceil(c 2^53) <= X iff c <= X 2^-53, for c and its nextafter
    neighbours, at X = 0, 2^53 - 1 and the draws next to the threshold; a
    threshold stays in [0, 2^53]."""
    if side:
        c = float(np.nextafter(c, side * math.inf))
    t = int(mc._thresholds(np.array([c]))[0])
    assert 0 <= t <= 2**53
    for x in {0, 2**53 - 1, *(y for y in (t - 1, t, t + 1) if 0 <= y < 2**53)}:
        assert (t <= x) == (c <= x * 2.0**-53), (c, t, x)


def ref_tilted_sample(sampler, trials, seed, first_trial=0):
    """(T, h) of TiltedSampler.sample trial by trial: the trial's uniforms,
    its start height and one searchsorted (side="right") on its cdf row a
    level, clamped to the row's last entry."""
    n, d = sampler.n, sampler.d
    width = sampler.cdfs.shape[2]
    T = np.zeros(trials, dtype=np.int64)
    h = np.zeros(trials, dtype=np.int64)
    for i in range(trials):
        u = ref_trial_uniforms(seed, mc.TAG_IS, first_trial + i, n + 1)
        hi = int(_start_heights(u[:1], sampler.start)[0])
        for k in range(n):
            idx = min(int(np.searchsorted(sampler.cdfs[k, hi], u[k + 1], side="right")),
                      width - 1)
            T[i] += idx // d + 1
            hi = idx % d
        h[i] = hi
    return T, h


def crowded_sampler(n=30, d=2, M=4):
    """A sampler whose cdf rows at every third level end in entries
    1 - k 2^-50, all in the top bucket of any table of up to 2^48 buckets,
    so that the draws there fall back to the search; the levels after them
    have zero-probability ties, and those after those a height whose first
    entry holds all the mass."""
    rng = np.random.default_rng(11)
    width = M * d
    cdfs = np.cumsum(rng.random((n, d, width)), axis=2)
    cdfs /= cdfs[:, :, -1:]
    cdfs[::3, :, width // 2:] = 1.0 - np.arange(width // 2)[::-1] * 2.0**-50
    cdfs[1::3, :, 1:3] = cdfs[1::3, :, :1]
    cdfs[2::3, 0, :] = 1.0
    return mc.TiltedSampler(lam=0.0, M=M, n=n, log_Z=0.0, cdfs=cdfs, d=d,
                            start=StartDistribution.uniform(d).pi)


@pytest.mark.parametrize("bits", [0, 1, 5, 12])
def test_bucket_table_matches_sorted_search(bits):
    """On unflagged buckets the table's count is _sorted_search's, for
    draws at the thresholds, next to them, on bucket edges and at random;
    a flagged bucket holds a threshold strictly inside, and rows crowded
    into one bucket flag it."""
    sampler = crowded_sampler()
    n, d, width = sampler.cdfs.shape
    thr = mc._thresholds(sampler.cdfs[:, :, :-1]).reshape(n * d, width - 1)
    W = 1 << (width - 1).bit_length()
    table = np.full((n * d, W), 1 << 53, np.uint64)
    table[:, :width - 1] = thr
    counts, flags = mc._bucket_table(thr, bits)
    assert counts.dtype == np.uint8 and counts.shape == flags.shape == (n * d << bits,)
    rng = np.random.default_rng(bits)
    rows = rng.integers(0, n * d, 6000)
    near = thr[rows, rng.integers(0, width - 1, 6000)].astype(np.int64)
    edges = rng.integers(0, 1 << bits, 6000) << (53 - bits)
    x = np.concatenate([near - 1, near, near + 1, edges - 1, edges,
                        rng.integers(0, 2**53, 6000), [0, 2**53 - 1]])
    rows = np.concatenate([np.tile(rows, 5), rng.integers(0, n * d, 6002)])
    keep = (x >= 0) & (x < 2**53)
    x, rows = x[keep].astype(np.uint64), rows[keep]
    want = mc._sorted_search(table.ravel(), W, rows, x)
    at = (rows << bits) + (x >> np.uint64(53 - bits)).astype(np.int64)
    plain = ~flags[at]
    assert (counts[at][plain] == want[plain]).all()
    first = (x >> np.uint64(53 - bits)) << np.uint64(53 - bits)
    inside = [((thr[r] > f) & (thr[r] <= f + (2**(53 - bits) - 1))).any()
              for r, f in zip(rows, first)]
    assert flags[at].tolist() == inside
    crowded = np.arange(0, n, 3)[:, None] * d + np.arange(d)
    assert flags[(crowded.ravel() << bits) + (1 << bits) - 1].all()


@pytest.mark.parametrize("trials, chunk", [(0, 97), (1, 97), (40, 97), (40, 7)],
                         ids=["none", "one", "one-chunk", "chunks-7-7-..-5"])
def test_tilted_sampler_matches_per_trial_search(monkeypatch, trials, chunk):
    """T and the end heights equal the per-trial searchsorted loop, for no
    trial, one trial, and chunks of 7 trials ending on a shorter one, on
    the crowded sampler and on a d = 2 sampler from a window."""
    monkeypatch.setattr(mc, "CHUNK_ENTRIES", chunk * mc.TRIAL_ENTRIES)
    ev = LmgfEvaluator(random_d2_iid_spec(1, drift=0.4), n_levels=40, seed=3, margin=320)
    for sampler in (crowded_sampler(), build_tilted_sampler(ev, ev.solve_tilt(3.0, 24), 24, 40)):
        for first_trial in (0, 2**32 - 3):
            T, h = sampler.sample(trials, seed=5, first_trial=first_trial)
            T_ref, h_ref = ref_tilted_sample(sampler, trials, 5, first_trial)
            assert T.tobytes() == T_ref.tobytes() and h.tobytes() == h_ref.tobytes()


def test_bucket_count_follows_the_chunk():
    """The bucket count grows with the chunk's trials, stays at most m / d
    and within the chunk's entry budget, and is 1 for no trial or one."""
    assert mc._bucket_bits(20_000, 15, 200, 1) == 11  # the bench's two-point IS op
    assert mc._bucket_bits(2000, 47, 200, 2) == 9
    for m in (0, 1):
        assert mc._bucket_bits(m, 47, 200, 2) == 0
    for m, k, n, d in ((32768, 47, 5000, 2), (3, 15, 10, 1), (500, 200, 50, 4)):
        bits = mc._bucket_bits(m, k, n, d)
        assert bits == 0 or (d << bits) <= min(m, mc.CHUNK_ENTRIES // n)


@pytest.mark.parametrize("spec", [
    two_point_d1_spec([0.7, 0.8], [0.5, 0.5]),
    random_d2_iid_spec(1, drift=0.4),
], ids=["d1", "d2"])
def test_tilted_sampler_matches_reference_loop(spec):
    """log_Z and the cdf tables equal, bit for bit, those of the per-level
    backward h loop with its running log scale."""
    ev = LmgfEvaluator(spec, n_levels=120, seed=3, margin=320)
    start = StartDistribution.uniform(spec.d)
    for lam in (-0.4, 0.3):
        sampler = build_tilted_sampler(ev, lam, 16, 120, start=start)
        log_z, cdfs = ref_tilted_sampler_tables(ev, lam, 16, 120, start.pi)
        assert repr(sampler.log_Z) == repr(log_z)
        assert sampler.cdfs.tobytes() == cdfs.tobytes()


# Small runs of every trial-loop path on the d=1 two-point spec and the d=2
# i.i.d. spec. The values were recorded before the four estimators shared
# one trial loop (chunking, streams, start heights, window and quenched or
# averaged environments); every field must still match exactly.
PIN_SPECS = {"d1": two_point_d1_spec([0.7, 0.8], [0.5, 0.5]),
             "d2": random_d2_iid_spec(1, drift=0.4)}
PIN_CALLS = {
    "hit": lambda spec, mode: empirical_hitting_tail(
        spec, n=20, t=2.5, trials=3000, seed=4, mode=mode),
    "hit-M": lambda spec, mode: empirical_hitting_tail(
        spec, n=12, t=2.2, trials=2000, seed=5, mode=mode, M=16),
    "speed-below": lambda spec, mode: empirical_speed_tail(
        spec, n=30, x=0.2, trials=2000, seed=6, mode=mode),
    "speed-above": lambda spec, mode: empirical_speed_tail(
        spec, n=30, x=0.8 if spec.d == 1 else 0.3, trials=2000, seed=6, mode=mode),
    "slowdown": lambda spec, mode: slowdown_probability(
        spec, n=10, trials=2000, seed=1, method="direct", mode=mode),
}
PINNED = {
    ("d1", "hit", "quenched"): dict(
        event="T_n >= 2.5*n", n=20, method="direct", point=0.08383233310637753,
        ci=[0.08013561702078426, 0.08759303254948043], trials=3000, ess=3000.0, mode="quenched",
        hits=561, one_sided=False, spec_hash="74fc14c5f6d8d07e", seed=4, prob=0.187),
    ("d1", "hit", "averaged"): dict(
        event="T_n >= 2.5*n", n=20, method="direct", point=0.07835085982750742,
        ci=[0.07490026227173194, 0.08186544074079252], trials=3000, ess=3000.0, mode="averaged",
        hits=626, one_sided=False, spec_hash="74fc14c5f6d8d07e", seed=4, prob=0.20866666666666667),
    ("d1", "hit-M", "quenched"): dict(
        event="T_n >= 2.2*n & tau <= 16", n=12, method="direct", point=0.1271297023711165,
        ci=[0.1202872010287505, 0.13413211097749939], trials=2000, ess=2000.0, mode="quenched",
        hits=435, one_sided=False, spec_hash="74fc14c5f6d8d07e", seed=5, prob=0.2175),
    ("d1", "hit-M", "averaged"): dict(
        event="T_n >= 2.2*n & tau <= 16", n=12, method="direct", point=0.11653057852951332,
        ci=[0.1102378703997481, 0.12298319392329538], trials=2000, ess=2000.0, mode="averaged",
        hits=494, one_sided=False, spec_hash="74fc14c5f6d8d07e", seed=5, prob=0.247),
    ("d1", "speed-below", "quenched"): dict(
        event="X_n <= 0.2*n", n=30, method="direct", point=0.12102035153299869,
        ci=[0.1122279585669766, 0.1298767074046275], trials=2000, ess=2000.0, mode="quenched",
        hits=53, one_sided=False, spec_hash="74fc14c5f6d8d07e", seed=6, prob=0.0265),
    ("d1", "speed-below", "averaged"): dict(
        event="X_n <= 0.2*n", n=30, method="direct", point=0.0966807364583222,
        ci=[0.09066837232816652, 0.10275706349408463], trials=2000, ess=2000.0, mode="averaged",
        hits=110, one_sided=False, spec_hash="74fc14c5f6d8d07e", seed=6, prob=0.055),
    ("d1", "speed-above", "quenched"): dict(
        event="X_n >= 0.8*n", n=30, method="direct", point=0.09322938049362753,
        ci=[0.08753939881156339, 0.0989833250812984], trials=2000, ess=2000.0, mode="quenched",
        hits=122, one_sided=False, spec_hash="74fc14c5f6d8d07e", seed=6, prob=0.061),
    ("d1", "speed-above", "averaged"): dict(
        event="X_n >= 0.8*n", n=30, method="direct", point=0.11080787801753425,
        ci=[0.1032998972331153, 0.11837982170755992], trials=2000, ess=2000.0, mode="averaged",
        hits=72, one_sided=False, spec_hash="74fc14c5f6d8d07e", seed=6, prob=0.036),
    ("d1", "slowdown", "quenched"): dict(
        event="inf_{m>=n} X_m <= 0 (finite-horizon proxy)", n=10, method="direct",
        point=0.18201589437497528, ci=[0.17215251339516482, 0.19207116407160602], trials=2000,
        ess=2000.0, mode="quenched", hits=324, one_sided=False, spec_hash="74fc14c5f6d8d07e",
        seed=1, prob=0.162),
    ("d2", "hit", "quenched"): dict(
        event="T_n >= 2.5*n", n=20, method="direct", point=0.0033426153493920237,
        ci=[0.0029032212993486315, 0.0038459927569450434], trials=3000, ess=3000.0,
        mode="quenched", hits=2806, one_sided=False, spec_hash="2de32045ad05530c", seed=4,
        prob=0.9353333333333333),
    ("d2", "hit", "averaged"): dict(
        event="T_n >= 2.5*n", n=20, method="direct", point=0.00407858268469058,
        ci=[0.0035881556165897584, 0.004632993110301033], trials=3000, ess=3000.0,
        mode="averaged", hits=2765, one_sided=False, spec_hash="2de32045ad05530c", seed=4,
        prob=0.9216666666666666),
    ("d2", "hit-M", "quenched"): dict(
        event="T_n >= 2.2*n & tau <= 16", n=12, method="direct", point=0.08296704488282339,
        ci=[0.07827851131903256, 0.08781548571063104], trials=2000, ess=2000.0, mode="quenched",
        hits=739, one_sided=False, spec_hash="2de32045ad05530c", seed=5, prob=0.3695),
    ("d2", "hit-M", "averaged"): dict(
        event="T_n >= 2.2*n & tau <= 16", n=12, method="direct", point=0.08240511872574921,
        ci=[0.07774205256087964, 0.08722809215463562], trials=2000, ess=2000.0, mode="averaged",
        hits=744, one_sided=False, spec_hash="2de32045ad05530c", seed=5, prob=0.372),
    ("d2", "speed-below", "quenched"): dict(
        event="X_n <= 0.2*n", n=30, method="direct", point=0.031947188605827535,
        ci=[0.030127786835929673, 0.03383055328133214], trials=2000, ess=2000.0, mode="quenched",
        hits=767, one_sided=False, spec_hash="2de32045ad05530c", seed=6, prob=0.3835),
    ("d2", "speed-below", "averaged"): dict(
        event="X_n <= 0.2*n", n=30, method="direct", point=0.023372645075240322,
        ci=[0.021932500041338072, 0.024876753014749304], trials=2000, ess=2000.0, mode="averaged",
        hits=992, one_sided=False, spec_hash="2de32045ad05530c", seed=6, prob=0.496),
    ("d2", "speed-above", "quenched"): dict(
        event="X_n >= 0.3*n", n=30, method="direct", point=0.025025876446552724,
        ci=[0.02351330171871095, 0.02660241408000124], trials=2000, ess=2000.0, mode="quenched",
        hits=944, one_sided=False, spec_hash="2de32045ad05530c", seed=6, prob=0.472),
    ("d2", "speed-above", "averaged"): dict(
        event="X_n >= 0.3*n", n=30, method="direct", point=0.03645415823856902,
        ci=[0.03442894466202272, 0.03854333472072205], trials=2000, ess=2000.0, mode="averaged",
        hits=670, one_sided=False, spec_hash="2de32045ad05530c", seed=6, prob=0.335),
    ("d2", "slowdown", "quenched"): dict(
        event="inf_{m>=n} X_m <= 0 (finite-horizon proxy)", n=10, method="direct",
        point=0.07062324201086008, ci=[0.06628068126622935, 0.07515769147231101], trials=2000,
        ess=2000.0, mode="quenched", hits=987, one_sided=False, spec_hash="2de32045ad05530c",
        seed=1, prob=0.4935),
}
PINNED_IS = [
    ("d1", 16, "2c9214f149e2cdb5", dict(
        event="T_n >= 3.0*n & tau <= 16", n=40, method="importance-sampled",
        point=0.14260254044959048, ci=[0.14094005908760057, 0.14438350113073573], trials=3000,
        ess=639.5108017583283, mode="quenched", hits=1481, one_sided=False,
        spec_hash="74fc14c5f6d8d07e", seed=3, prob=0.00333226969197799)),
    ("d2", 24, "356b6e4690d7c0c4", dict(
        event="T_n >= 3.0*n & tau <= 24", n=40, method="importance-sampled",
        point=0.04049371504748728, ci=[0.03904559729391614, 0.04203090023848448], trials=3000,
        ess=794.4022666412619, mode="quenched", hits=1415, one_sided=False,
        spec_hash="2de32045ad05530c", seed=3, prob=0.1979484566948799)),
]


@pytest.mark.parametrize("key", list(PINNED), ids="-".join)
def test_direct_estimates_pinned(key):
    spec, kind, mode = key
    assert PIN_CALLS[kind](PIN_SPECS[spec], mode).as_dict() == PINNED[key]


@pytest.mark.parametrize("spec, M, digest, pinned", PINNED_IS, ids=["d1", "d2"])
def test_importance_sampling_pinned(spec, M, digest, pinned):
    est, T, _, _ = importance_sample_hitting(
        LmgfEvaluator(PIN_SPECS[spec], n_levels=40, seed=3, margin=320), t=3.0, M=M,
        trials=3000, return_samples=True,
    )
    assert est.as_dict() == pinned
    assert hashlib.sha256(T.tobytes()).hexdigest()[:16] == digest


def test_estimates_do_not_depend_on_the_trial_chunk(monkeypatch):
    """With small chunks, every pinned direct estimate (quenched and
    averaged) and both importance-sampled ones, with their T digests, stay
    the same: each trial's stream is its own. Quenched runs and the tilted
    sampler go in chunks of 97 trials, averaged runs, whose chunks also
    hold their environment draws, in chunks of 24 to 28; every run ends on
    a shorter chunk."""
    monkeypatch.setattr(mc, "CHUNK_ENTRIES", 97 * mc.TRIAL_ENTRIES)
    for key, pinned in PINNED.items():
        spec, kind, mode = key
        assert PIN_CALLS[kind](PIN_SPECS[spec], mode).as_dict() == pinned, key
    for spec, M, digest, pinned in PINNED_IS:
        test_importance_sampling_pinned(spec, M, digest, pinned)


def test_averaged_direct_slowdown_draws_environments():
    # averaged mode walks each trial on its own environment, so the hits
    # leave those of the one quenched window
    qe, av = (PIN_CALLS["slowdown"](PIN_SPECS["d1"], mode)
              for mode in ("quenched", "averaged"))
    assert av.mode == "averaged"
    assert av.hits != qe.hits


@pytest.mark.parametrize("call", [
    lambda spec: empirical_hitting_tail(spec, n=10, t=2.5, trials=10, mode="annealed"),
    lambda spec: empirical_speed_tail(spec, n=10, x=0.3, trials=10, mode="annealed"),
    lambda spec: slowdown_probability(spec, n=10, trials=10, method="direct",
                                      mode="annealed"),
], ids=["hitting", "speed", "slowdown"])
def test_direct_estimators_reject_unknown_mode(call):
    with pytest.raises(ValueError, match="mode must be"):
        call(PIN_SPECS["d1"])


def test_certain_estimates_report_plus_zero():
    """An estimated probability of 1 is rate 0.0, not -0.0, at the point
    and the lower end of the interval, and so in JSON."""
    est = mc._direct_estimate(event="e", n=7, hits=50, trials=50, mode="quenched",
                              spec_hash="", seed=0)
    assert est.prob == 1.0
    for value in (est.point, est.ci[0]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert "-0.0" not in json.dumps(est.as_dict())
    assert math.copysign(1.0, mc._rate(0.0, 3)) == 1.0
    assert mc._rate(math.log(0.5), 3) == -math.log(0.5) / 3


def test_start_heights_stay_on_the_strip():
    """The uniform start at d = 7 sums to less than 1 - 2^-53, a value
    Generator.random can return; that draw starts at the top height, not one
    past it, and draws below the last partial sum keep their heights."""
    pi = StartDistribution.uniform(7).pi
    assert np.cumsum(pi)[-1] < 1.0 - 2.0**-53
    u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    assert _start_heights(u, pi).tolist() == [0, 3, 6]


# ---------------------------------------------------------------------------
# block streams and the live-trial walker against the per-trial references
# ---------------------------------------------------------------------------

STREAM_TAGS = (mc.TAG_HIT, mc.TAG_IS, mc.TAG_SLOW, mc.TAG_SPEED)


def ref_rows(seed, tag, first, m, k):
    return np.array([ref_trial_uniforms(seed, tag, first + i, k) for i in range(m)])


@pytest.mark.parametrize("seed", [None, 0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7],
                         ids=["None", "0", "1", "2^32-1", "2^32", "2^64+5", "2^130+7"])
def test_trial_uniforms_match_per_trial_streams(seed):
    """Each row of a block is the trial's own SeedSequence stream bit for
    bit, for every tag, at strides 1 to 242, and for a block that crosses
    trial 2^32, where the spawn key gains a word."""
    for tag in STREAM_TAGS:
        for first in (0, 7, 2**32 - 2):
            for k in (1, 2, 201, 242):
                block = trial_uniforms(seed, tag, first, 4, k)
                assert block.flags.f_contiguous
                assert block.tobytes() == ref_rows(seed, tag, first, 4, k).tobytes()


@pytest.mark.parametrize("first", [0, 5, 2**32 - 3], ids=["0", "5", "2^32-3"])
@pytest.mark.parametrize("seed", [None, 0, 2**130 + 7], ids=["None", "0", "2^130+7"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 7),
       masks=st.lists(st.lists(st.booleans(), min_size=7, max_size=7), min_size=1, max_size=6))
def test_lanes_continue_their_streams_through_compactions(seed, first, m, masks):
    """Random compactions between columns: each surviving lane continues its
    own trial's SeedSequence stream bit for bit, the same column of it as
    every other lane, including across trial 2^32; as uniforms, and as raw
    draws X with uniform X 2^-53."""
    for raw in (False, True):
        lanes = _Lanes(seed, mc.TAG_HIT, first, m)
        draw = lanes._raw_column if raw else lanes._column
        trials = np.arange(first, first + m)
        drawn = []
        for mask in masks:
            drawn.append((trials, draw()))
            keep = np.array(mask[:len(trials)], dtype=bool)
            trials = trials[keep]
            lanes._keep(keep)
        drawn.append((trials, draw()))
        for k, (alive, column) in enumerate(drawn):
            ref = np.array([ref_trial_uniforms(seed, mc.TAG_HIT, int(t), k + 1)[k]
                            for t in alive], dtype=float)
            assert column.tobytes() == (raw_draws(ref) if raw else ref).tobytes()


@pytest.mark.parametrize("m", [0, 1])
def test_lanes_of_no_trial_and_of_one(m):
    """Zero lanes give empty columns and keep through an empty mask; one
    lane is its trial's stream."""
    lanes = _Lanes(2**130 + 7, mc.TAG_SLOW, 2**32 - 1, m)
    first = lanes._column()
    lanes._keep(np.ones(m, dtype=bool))
    rows = np.stack([first, lanes._column()], axis=1)
    assert rows.shape == (m, 2)
    assert rows.tobytes() == ref_rows(2**130 + 7, mc.TAG_SLOW, 2**32 - 1, m, 2).tobytes()
    assert trial_uniforms(0, mc.TAG_HIT, 0, m, 3).shape == (m, 3)


def test_trial_chunks_keep_the_entry_budget():
    """A chunk's trials take at most CHUNK_ENTRIES words, 16 MiB, with their
    environment draws, and the chunks cover every trial once, in order."""
    assert mc.CHUNK_ENTRIES * 8 <= 16 << 20
    for trials, draws in ((100_000, 0), (20_000, 0), (9000, 584), (5, 1 << 22)):
        chunks = list(mc._chunks(trials, draws))
        assert [f for f, _ in chunks] == list(np.cumsum([0] + [m for _, m in chunks[:-1]]))
        assert sum(m for _, m in chunks) == trials
        assert all(m == 1 or m * (mc.TRIAL_ENTRIES + 2 * draws) <= mc.CHUNK_ENTRIES
                   for _, m in chunks)
    assert len(list(mc._chunks(20_000, 0))) == 1  # the bench's 20000-trial ops


def test_trial_uniforms_reject_a_negative_seed():
    with pytest.raises(ValueError):
        trial_uniforms(-1, mc.TAG_HIT, 0, 2, 3)


def test_walks_build_no_seed_sequence_or_generator(monkeypatch):
    """A 5000-trial walk seeds and steps every stream without one
    SeedSequence, PCG64 or Generator. Averaged mode draws its environments
    from the same streams too, so the whole estimate builds none."""
    built = []

    def counted(cls):
        def make(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return make

    for name in ("SeedSequence", "PCG64", "Generator"):
        monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
    est = empirical_hitting_tail(PIN_SPECS["d1"], n=5, t=2.0, trials=5000, seed=0,
                                 mode="averaged")
    assert est.trials == 5000 and 0 < est.hits < 5000
    assert built == []


def _walk_inputs(spec, mode, lo, target, steps, trials=400):
    """(lookup, reference lookup, h0, U) of a walk: the flat-table lookup and
    the whole-row one of conftest on the same environment."""
    U = np.random.default_rng(7).random((trials, (target - lo) + 1 + steps))
    if mode == "quenched":
        window = sample_window(spec, lo, target + 1, seed=2)
        lookup, ref_lookup = _window_cdf(window), ref_window_lookup(window)
    else:
        env_uniforms = U[:, :target - lo]
        lookup = _averaged_lookups(spec)(env_uniforms)
        ref_lookup = ref_averaged_lookup(spec, env_uniforms)
    h0 = _start_heights(U[:, target - lo], StartDistribution.uniform(spec.d).pi)
    return lookup, ref_lookup, h0, U[:, target - lo + 1:]


def test_choose_matches_the_whole_row_count():
    """A uniform equal to a partial sum takes the next entry's move
    (searchsorted's side="right"), so it skips the entries of probability 0
    that tie that sum; one above a last partial sum that ends below 1 takes
    the last move, not one past it. Both as the whole-row count clamped to
    3d - 1."""
    probs = np.array([[0.125, 0.125, 0.25, 0.125, 0.125, 0.25 - 2.0**-50],
                      [0.25, 0.25, 0.0, 0.25, 0.0, 0.25]])  # rows (q, r, p) at d = 2
    rows = np.cumsum(probs, axis=1)
    assert rows[0, -1] < 1.0 - 2.0**-53
    u = np.array([0.0, 0.25, 0.5, 0.6, 1.0 - 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
    at = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1])
    moves = _choose(_move_columns(*np.split(probs, 3, axis=1)), at, raw_draws(u))
    assert moves.tolist() == [0, 2, 3, 3, 5, 1, 3, 5, 5]
    assert moves.tolist() == ref_choose(rows[at], u).tolist()
    ref = [min(int(np.searchsorted(rows[i], x, side="right")), 5) for i, x in zip(at, u)]
    assert moves.tolist() == ref


def test_choose_takes_no_move_of_probability_zero():
    """u = 0.0, which Generator.random can return, takes the first move of
    positive probability, not a first move of probability 0 (a
    bounded-jump spec's zero q entries), at d = 1 and at d = 2."""
    probs = np.array([[0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.5, 0.0, 0.25, 0.25]])
    d1 = _move_columns(*np.split(probs[:1, :3], 3, axis=1))
    d2 = _move_columns(*np.split(probs[1:], 3, axis=1))
    x = np.zeros(2, np.uint64)
    assert _choose(d1, np.array([0, 0]), x).tolist() == [1, 1]
    assert _choose(d2, np.array([0, 0]), x).tolist() == [2, 2]


def test_start_heights_draw_no_height_of_probability_zero():
    """A start law with pi[0] = 0 never starts at height 0, not even from
    u = 0.0; a uniform equal to a partial sum starts one height up, the
    searchsorted(side="right") rule of simulate_walk."""
    pi = np.array([0.0, 0.25, 0.0, 0.75])
    u = np.array([0.0, 0.1, 0.25, 0.5, 1.0 - 2.0**-53])
    heights = _start_heights(u, pi)
    assert heights.tolist() == [1, 1, 3, 3, 3]
    assert heights.tolist() == [min(int(np.searchsorted(np.cumsum(pi), x, side="right")), 3)
                                for x in u]


@pytest.mark.parametrize("M", [None, 5], ids=["uncapped", "M5"])
@pytest.mark.parametrize("mode", ["quenched", "averaged"])
@pytest.mark.parametrize("spec", ["d1", "d2"])
def test_batch_walk_matches_reference_loop(spec, mode, M):
    """T and ok equal, bit for bit, those of the loop over an active mask
    on conftest's whole-row lookups; the runs include trials that never hit and, with M, trials that break
    the cap."""
    spec = PIN_SPECS[spec]
    lookup, ref_lookup, h0, U = _walk_inputs(spec, mode, -60, 15, 30)
    T, ok = _batch_walk(lookup, -60, 15, BlockLanes(U), U.shape[1], spec.d, h0, M)
    T_ref, ok_ref = ref_batch_walk(ref_lookup, -60, 15, U, spec.d, h0, M)
    assert T.tobytes() == T_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()
    assert np.isinf(T).any() and np.isfinite(T).any()
    assert ok.all() == (M is None)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=st.sampled_from(["d1", "d2"]), mode=st.sampled_from(["quenched", "averaged"]),
       M=st.sampled_from([None, 3, 5]), margin=st.integers(1, 12), steps=st.integers(1, 40))
def test_batch_walk_stays_the_reference_near_the_window_edge(spec, mode, M, margin, steps):
    """On windows with left margins of 1 to 12 levels, the walk raises
    WindowExhaustedError exactly when the active-mask loop does, and
    returns its T and ok otherwise."""
    spec = PIN_SPECS[spec]
    lookup, ref_lookup, h0, U = _walk_inputs(spec, mode, -margin, 6, steps, trials=60)
    try:
        want = ref_batch_walk(ref_lookup, -margin, 6, U, spec.d, h0, M)
    except WindowExhaustedError:
        with pytest.raises(WindowExhaustedError):
            _batch_walk(lookup, -margin, 6, BlockLanes(U), U.shape[1], spec.d, h0, M)
        return
    T, ok = _batch_walk(lookup, -margin, 6, BlockLanes(U), U.shape[1], spec.d, h0, M)
    assert T.tobytes() == want[0].tobytes() and ok.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("M", [None, 5], ids=["uncapped", "M5"])
@pytest.mark.parametrize("mode", ["quenched", "averaged"])
def test_batch_walk_leaves_the_window_as_reference(mode, M):
    """A window with a 2-level left margin: both loops raise."""
    spec = PIN_SPECS["d1"]
    lookup, ref_lookup, h0, U = _walk_inputs(spec, mode, -2, 15, 30)
    with pytest.raises(WindowExhaustedError):
        _batch_walk(lookup, -2, 15, BlockLanes(U), U.shape[1], spec.d, h0, M)
    with pytest.raises(WindowExhaustedError):
        ref_batch_walk(ref_lookup, -2, 15, U, spec.d, h0, M)
