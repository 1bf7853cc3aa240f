import math

import numpy as np
import pytest

from stripldp.env import (
    EnvironmentSlice,
    EnvironmentSpec,
    StartDistribution,
    homogeneous_d1_spec,
    sample_window,
    two_point_d1_spec,
)
from stripldp.lmgf import LmgfEvaluator
from stripldp.montecarlo import (
    BudgetExhaustedError,
    build_tilted_sampler,
    empirical_hitting_tail,
    empirical_speed_tail,
    importance_sample_hitting,
    simulate_walk,
    slowdown_probability,
)

from conftest import (
    d1_lambda_crit,
    enumerate_hitting_distribution,
    random_d2_iid_spec,
    ref_tilted_sampler_tables,
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
    di = slowdown_probability(p075_spec, n=30, method="direct", trials=60_000,
                              horizon_factor=20, seed=1)
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
