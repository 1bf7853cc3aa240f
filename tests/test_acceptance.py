"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale oracle and property checks: closed forms for width-1 strips,
exhaustive enumeration for truncated quantities, Monte Carlo cross-checks
at their stated tolerances. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np

from stripldp.env import (
    embed_bounded_jump,
    homogeneous_d1_spec,
    sample_window,
    two_point_d1_spec,
)
from stripldp.lmgf import LmgfEvaluator, analyze_environment
from stripldp.montecarlo import (
    _window_cdf,
    empirical_hitting_tail,
    importance_sample_hitting,
    slowdown_probability,
)
from stripldp.phi import (
    estimate_lambda_crit,
    solve_phi_window,
    truncated_kernels_range,
    truncated_phis,
)
from stripldp.products import (
    block_mu_vectors,
    block_nu_vectors,
    measured_c,
    mu_vectors,
    raw_normalized_left,
    raw_normalized_right,
)
from stripldp.rates import hitting_rate_curve, legendre_point

from conftest import (
    d1_lambda_crit,
    d1_phi_closed,
    d1_truncated_ldp,
    enumerate_hitting_distribution,
    enumerate_truncated_phi,
    random_d2_iid_spec,
    raw_draws,
    refined_t_grid,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_01_closed_form_lmgf_and_lambda_crit():
    t_start = time.perf_counter()
    worst_lmgf = 0.0
    worst_crit = 0.0
    for p in (0.6, 0.75, 0.9):
        spec = homogeneous_d1_spec(p)
        ev = LmgfEvaluator(spec, n_levels=1000, seed=0)
        lam_c = d1_lambda_crit(p)
        grid = np.linspace(-2.0, lam_c - 1e-4, 50)
        for lam in grid:
            got = ev.value(float(lam)).value
            worst_lmgf = max(worst_lmgf, abs(got - math.log(d1_phi_closed(p, lam))))
        est = estimate_lambda_crit(spec, tol=4e-7)
        worst_crit = max(worst_crit, abs(est.lambda_crit - lam_c))
    elapsed = time.perf_counter() - t_start
    ok = worst_lmgf <= 1e-8 and worst_crit <= 1e-6 and elapsed < 5.0
    report(1, ok, f"max |Lambda - log phi| = {worst_lmgf:.2e} (tol 1e-8), "
                  f"max |lambda_crit err| = {worst_crit:.2e} (tol 1e-6), "
                  f"{elapsed:.1f}s (< 5s)")
    assert worst_lmgf <= 1e-8
    assert worst_crit <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_derivative_consistency():
    h = 1e-4
    worst = 0.0
    spec1 = homogeneous_d1_spec(0.75)
    ev1 = LmgfEvaluator(spec1, n_levels=1000, seed=0)
    for lam in np.linspace(-2.0, 0.6 * d1_lambda_crit(0.75), 20):
        lam = float(lam)
        fd = (ev1.value(lam + h).value - ev1.value(lam - h).value) / (2 * h)
        worst = max(worst, abs(ev1.derivative(lam).value - fd))

    spec2 = random_d2_iid_spec(7, drift=0.55)
    lc = estimate_lambda_crit(spec2, window_len=3000, tol=1e-4, seed=5)
    hi = 0.6 * lc.bracket[0] if lc.bracket[0] > 0.02 else -0.1
    ev2 = LmgfEvaluator(spec2, n_levels=2500, seed=5)
    for lam in np.linspace(-2.0, hi, 20):
        lam = float(lam)
        fd = (ev2.value(lam + h).value - ev2.value(lam - h).value) / (2 * h)
        worst = max(worst, abs(ev2.derivative(lam).value - fd))
    ok = worst <= 1e-5
    report(2, ok, f"max |Lambda' - central FD| = {worst:.2e} (tol 1e-5), "
                  "d=1 homogeneous + random i.i.d. d=2, 20 points each")
    assert worst <= 1e-5


def test_criterion_03_truncated_phi_brute_force():
    t_start = time.perf_counter()
    worst = 0.0
    spec1 = homogeneous_d1_spec(0.75)
    w1 = sample_window(spec1, -10, 1, seed=0)
    spec2 = random_d2_iid_spec(55)
    w2 = sample_window(spec2, -10, 1, seed=9)
    for w, Ms in ((w1, (1, 4, 8)), (w2, (3, 8))):
        for M in Ms:
            for lam in (-1.0, 0.0, 0.5):
                dp = truncated_phis(truncated_kernels_range(w, M, 0, 1), lam)[0]
                brute = enumerate_truncated_phi(w, 0, M, lam)
                worst = max(worst, float(np.abs(dp - brute).max()))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(3, ok, f"max |DP - path enumeration| = {worst:.2e} (tol 1e-12), "
                  f"d in {{1,2}}, M <= 8, lambda in {{-1,0,0.5}}, {elapsed:.1f}s (< 10s)")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_04_direction_certificates():
    spec = random_d2_iid_spec(42)
    w = sample_window(spec, -80, 80, seed=5)
    sol = solve_phi_window(w, -0.3)
    target = 130
    ms = list(range(10, 36))
    gaps = []
    honest = True
    for m in ms:
        a = raw_normalized_left(sol.phis[target - m:target])
        b = raw_normalized_left(sol.phis[target - m - 10:target])
        gap = float(np.abs(a - b).sum())
        radius = mu_vectors(sol.phis[target - m:target])[-1].error_radius
        honest = honest and gap < radius
        gaps.append(gap)
    c = measured_c(sol.phis[target - 36:target])
    bound = (1.0 - c**4) + 0.02
    ratios = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:])
              if g1 > 1e-250 and g2 > 1e-250]
    decay = float(np.exp(np.mean(np.log(ratios))))
    ok = honest and decay <= bound
    report(4, ok, f"all gaps below certified radii: {honest}; measured decay "
                  f"ratio {decay:.4f} <= (1-c^4)+0.02 = {bound:.4f}")
    assert honest
    assert decay <= bound


def _mc_mean_speed(spec, n_steps, replicas, seed):
    margin = 80
    w = sample_window(spec, -margin, n_steps + 2, seed=seed)
    lookup = _window_cdf(w)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xC5,)))
    d = spec.d
    lev = np.zeros(replicas, dtype=np.int64)
    h = rng.integers(0, d, size=replicas)
    for _ in range(n_steps):
        li = lev - w.lo
        u = rng.random(replicas)
        choice = lookup(li, h, raw_draws(u), None)
        lev += choice // d - 1
        h = choice % d
    speeds = lev / n_steps
    return float(speeds.mean()), float(speeds.std(ddof=1)) / math.sqrt(replicas)


def test_criterion_05_lln_cross_check():
    t_start = time.perf_counter()
    details = []
    ok = True
    for spec, seed in ((homogeneous_d1_spec(0.75), 3),
                       (random_d2_iid_spec(7, drift=0.55), 4)):
        ev = LmgfEvaluator(spec, n_levels=3000, seed=seed)
        t0 = ev.derivative(-1e-6).value
        v_hat, se = _mc_mean_speed(spec, 10_000, 100, seed)
        t0_mc = 1.0 / v_hat
        se_t0 = se / (v_hat * v_hat)
        ok = ok and abs(t0 - t0_mc) <= 3 * se_t0
        details.append(f"t0={t0:.4f} vs 1/v_MC={t0_mc:.4f}+-{3 * se_t0:.4f}")
    elapsed = time.perf_counter() - t_start
    ok = ok and elapsed < 30.0
    report(5, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_06_hitting_rate_shape():
    spec = homogeneous_d1_spec(0.75)
    analysis = analyze_environment(spec, n_levels=2000, seed=0,
                                   lambda_crit_tol=1e-6)
    grid = refined_t_grid(2.0, 1.0, 6.0, 41)
    curve = hitting_rate_curve(spec, grid, n_levels=2000, seed=0,
                               analysis=analysis)
    slack = 1e-6 + curve.det_errors * 0 + curve.stat_errors
    convex = True
    t, v = curve.abscissae, curve.values
    for i in range(1, len(t) - 1):
        wgt = (t[i + 1] - t[i]) / (t[i + 1] - t[i - 1])
        convex = convex and v[i] <= wgt * v[i - 1] + (1 - wgt) * v[i + 1] + 1e-6
    j_t0 = float(v[np.argmin(np.abs(t - 2.0))])
    # tail slope past the reported t*: the linear branch carries lambda_crit
    t_star = analysis.t_star
    ts_hi = np.array([t_star + 100.0, t_star + 200.0])
    tail = hitting_rate_curve(spec, ts_hi, n_levels=2000, seed=0,
                              analysis=analysis)
    slope = (tail.values[1] - tail.values[0]) / (ts_hi[1] - ts_hi[0])
    slope_err = abs(slope - d1_lambda_crit(0.75))
    ev = LmgfEvaluator(spec, n_levels=2000, seed=0)
    j1, _, _, _ = legendre_point(ev.value, ev.derivative, 1.0,
                                 analysis.lambda_crit.bracket[0], spec.kappa)
    j1_err = abs(j1 - (-math.log(0.75)))
    ok = convex and j_t0 <= 1e-8 and slope_err <= 1e-5 and j1_err <= 1e-5
    report(6, ok, f"convex: {convex}; J(t0) = {j_t0:.2e} (<= 1e-8); tail slope "
                  f"err = {slope_err:.2e} (<= 1e-5); |J(1)+log p| = {j1_err:.2e}")
    assert ok


def test_criterion_07_truncated_to_full_convergence():
    spec = homogeneous_d1_spec(0.75)
    ev = LmgfEvaluator(spec, n_levels=1000, seed=0)
    j_full = None
    vals = []
    for M in (8, 16, 32, 64):
        lam_t = ev.solve_tilt(3.0, M)
        vals.append(lam_t * 3.0 - ev.value_truncated(lam_t, M).value)
    analysis = analyze_environment(spec, n_levels=1000, seed=0)
    j_full = hitting_rate_curve(spec, [3.0], n_levels=1000, seed=0,
                                analysis=analysis).values[0]
    monotone = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    gap = vals[-1] - j_full
    ok = monotone and abs(gap) <= 1e-3
    report(7, ok, f"J_M(3) = {[f'{x:.5f}' for x in vals]} nonincreasing: "
                  f"{monotone}; |J_64(3) - J(3)| = {abs(gap):.2e} (tol 1e-3)")
    assert monotone
    assert abs(gap) <= 1e-3


def test_criterion_08_reflection_symmetry():
    cases = [
        (homogeneous_d1_spec(0.75), 4e-7, 3000),
        (two_point_d1_spec([0.7, 0.8], [0.5, 0.5]), 1e-4, 6000),
        (random_d2_iid_spec(19, drift=0.2), 2e-4, 6000),
    ]
    details = []
    ok = True
    for spec, tol, window in cases:
        lc = estimate_lambda_crit(spec, window_len=window, tol=tol, seed=13)
        lci = estimate_lambda_crit(spec.invert(), window_len=window, tol=tol,
                                   seed=13)
        gap = abs(lc.lambda_crit - lci.lambda_crit)
        ok = ok and gap <= 2 * tol
        details.append(f"|{lc.lambda_crit:.6f} - {lci.lambda_crit:.6f}| = "
                       f"{gap:.2e} (<= {2 * tol:.0e})")
    report(8, ok, "; ".join(details))
    assert ok


def test_criterion_09_importance_sampling_ldp():
    t_start = time.perf_counter()
    p, n, t, M, trials = 0.75, 200, 3.0, 16, 100_000
    spec = homogeneous_d1_spec(p)
    ldp = d1_truncated_ldp(p, t, M)  # closed form, independent of the program

    ev = LmgfEvaluator(spec, n_levels=n, seed=7, margin=320)
    lam_t = ev.solve_tilt(t, M)
    j_m = lam_t * t - ev.value_truncated(lam_t, M).value
    est = importance_sample_hitting(LmgfEvaluator(spec, n_levels=n, seed=7),
                                    t=t, M=M, trials=trials)

    # The LDP fixes only the limit -(1/n) log P -> J_M(t). At finite n the
    # lattice Bahadur-Rao expansion (span 2: d=1 excursions have odd length,
    # so T_n has the parity of n) gives
    #   -(1/n) log P = J_M(t) + (1/n) log(sigma sqrt(2 pi n) (1 - e^{-2 lam}) / 2)
    #                  + O(1/n^2),
    # lam = lambda_{t,M}, sigma^2 the variance of the lam-tilted excursion
    # length. At n=200 the 1/n term is 13.7% of J_16(3); the remainder is
    # about 0.1%. The raw estimate is held to the expansion.
    expansion = ldp.finite_n_rate(n)
    residual = abs(est.point - expansion)
    tol = 5e-3 * ldp.j
    raw_gap = abs(est.point - ldp.j) / ldp.j

    # exact values of the estimand, by n-fold convolution of the closed-form
    # excursion-length law, which the program's kernel must reproduce
    ker = sample_window(spec, -20, 1, seed=0)
    W = truncated_kernels_range(ker, M, 0, 1)[0]
    kernel_err = float(np.abs(W[:, 0, 0] - ldp.law[1:]).max())
    ns = (100, 200, 400, 800)
    exact = {}
    dist = np.ones(1)
    for k in range(1, ns[-1] + 1):
        dist = np.convolve(dist, ldp.law)
        if k in ns:
            exact[k] = -math.log(float(dist[math.ceil(t * k):].sum())) / k
    point_exact = exact[n]
    estimator_err = abs(est.point - point_exact)
    ci_half = 0.5 * (est.ci[1] - est.ci[0])
    # the limit statement on the exact values, apart from the sampler: the raw
    # gap falls to below 5%, and the remainder after the expansion is O(1/n^2)
    gaps = [abs(exact[k] - ldp.j) / ldp.j for k in ns]
    remainders = [abs(exact[k] - ldp.finite_n_rate(k)) for k in ns]
    limit_ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.05
    order_ok = all(a >= 3.0 * b for a, b in zip(remainders, remainders[1:]))

    # small-case unbiasedness against exhaustive path enumeration
    n_small, M_small = 3, 4
    w_small = sample_window(spec, -(M_small + 2), n_small, seed=0)
    exact_small = enumerate_hitting_distribution(w_small, n_small, M_small)
    est_s, T, log_Z, lam_s = importance_sample_hitting(
        LmgfEvaluator(spec, n_levels=n_small, seed=5), t=1.9, M=M_small,
        trials=100_000, return_samples=True)
    unbiased = True
    for s, p_ref in sorted(exact_small.items()):
        y = np.where(T == s, math.exp(log_Z) * np.exp(-lam_s * T), 0.0)
        se = float(y.std(ddof=1)) / math.sqrt(len(y))
        unbiased = unbiased and abs(float(y.mean()) - p_ref) <= 4 * se + 1e-12

    elapsed = time.perf_counter() - t_start
    ok = (abs(j_m - ldp.j) <= 1e-8 and kernel_err <= 1e-14
          and estimator_err <= 2.0 * ci_half and limit_ok and order_ok
          and residual <= tol and unbiased and elapsed < 60.0)
    report(9, ok,
           f"-(1/n)log P_hat = {est.point:.5f} vs J_16(3) = {j_m:.5f}: raw gap "
           f"{raw_gap:.1%}; vs finite-n expansion {expansion:.5f}: residual "
           f"{residual:.1e} (tol {tol:.1e}); exact value {point_exact:.5f} "
           f"(estimator err {estimator_err:.1e}, CI half-width {ci_half:.1e}); "
           f"exact gaps {', '.join(f'{g:.1%}' for g in gaps)} at n={ns}; "
           f"small-case unbiased: {unbiased}; {elapsed:.1f}s (< 60s)")
    assert unbiased
    assert elapsed < 60.0
    assert abs(j_m - ldp.j) <= 1e-8  # the program's J_16(3) is the closed form's
    assert kernel_err <= 1e-14
    assert estimator_err <= 2.0 * ci_half  # the sampler agrees with the exact estimand
    assert limit_ok, f"exact gaps to J_16(3) {gaps} at n={ns}"
    assert order_ok, f"remainders after the expansion {remainders} at n={ns}"
    assert residual <= tol, (
        f"-(1/n)log P_hat = {est.point:.5f} is {residual:.1e} from the finite-n "
        f"expansion {expansion:.5f} (tol {tol:.1e})"
    )


def test_criterion_10_averaged_bounds():
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    analysis = analyze_environment(spec, n_levels=2000, seed=0)
    grid = np.array([2.2, 2.6, 3.2])
    from stripldp.rates import averaged_rate_upper

    upper = averaged_rate_upper(spec, grid, n_levels=2000, seed=0)
    quenched = hitting_rate_curve(spec, grid, n_levels=2000, seed=0,
                                  analysis=analysis)
    dominated = bool((upper.values <= quenched.values + 1e-9).all())

    pm = two_point_d1_spec([0.75], [1.0])
    pm_up = averaged_rate_upper(pm, grid, n_levels=1200, seed=0)
    pm_q = hitting_rate_curve(pm, grid, n_levels=1200, seed=0)
    pm_equal = float(np.abs(pm_up.values - pm_q.values).max()) <= 1e-9

    n, t = 80, 2.6
    qe = empirical_hitting_tail(spec, n=n, t=t, trials=150_000, seed=29,
                                mode="quenched")
    av = empirical_hitting_tail(spec, n=n, t=t, trials=150_000, seed=29,
                                mode="averaged")
    ci_q = qe.ci[1] - qe.ci[0]
    avg_leq_quenched = av.point <= qe.point + ci_q + (av.ci[1] - av.ci[0])
    j_up_26 = float(upper.values[1])
    scale_consistent = av.point <= j_up_26 + (av.ci[1] - av.ci[0]) + 3.0 / n

    ok = dominated and pm_equal and avg_leq_quenched and scale_consistent
    report(10, ok,
           f"J_upper <= J pointwise: {dominated}; point-mass equality: "
           f"{pm_equal}; averaged MC {av.point:.4f} <= quenched {qe.point:.4f}"
           f" + ci: {avg_leq_quenched}; averaged <= J_upper({t}) = "
           f"{j_up_26:.4f} + slack: {scale_consistent}")
    assert ok


def test_criterion_11_slowdown_trend():
    spec = homogeneous_d1_spec(0.75)
    lam_c = d1_lambda_crit(0.75)
    points = []
    for n in (30, 60, 120):
        est = slowdown_probability(spec, n=n, method="exact", seed=1)
        points.append(est.point)
    monotone_toward = all(
        abs(b - lam_c) <= abs(a - lam_c) for a, b in zip(points, points[1:])
    )
    final_gap = abs(points[-1] - lam_c) / lam_c
    ok = monotone_toward and final_gap <= 0.25
    report(11, ok, f"-(1/n)log P = {[f'{p:.4f}' for p in points]} toward "
                   f"lambda_crit = {lam_c:.4f}; final gap {final_gap:.1%} (<= 25%)")
    assert monotone_toward
    assert final_gap <= 0.25


def test_criterion_12_block_equivalence():
    spec = embed_bounded_jump([0.35, 0.35, 0.0, 0.30], 2, 1)
    w = sample_window(spec, -40, 40, seed=0)
    sol = solve_phi_window(w, -0.2)
    mus = block_mu_vectors(sol, R=1, warmup=5)
    nus = block_nu_vectors(sol, R=1, warmup=5)
    worst_mu = 0.0
    worst_nu = 0.0
    for m in (30, 40, 50):
        direct = raw_normalized_left(sol.phis[m - 30:m])
        approx = raw_normalized_left(sol.phis[:m])
        worst_mu = max(worst_mu, float(np.abs(mus[m].v - approx).sum()))
    for k in (10, 20, 30):
        direct = raw_normalized_right(sol.phis[k:])
        worst_nu = max(worst_nu, float(np.abs(nus[k].v - direct).max()))
    zero_exact = all(m.v[1] == 0.0 for m in mus)
    ok = worst_mu <= 1e-8 and worst_nu <= 1e-8 and zero_exact
    report(12, ok, f"block mu vs full product: {worst_mu:.2e}; block nu vs "
                   f"full product: {worst_nu:.2e} (tol 1e-8); zero pattern "
                   f"exact: {zero_exact}")
    assert worst_mu <= 1e-8
    assert worst_nu <= 1e-8
    assert zero_exact
