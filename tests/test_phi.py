import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stripldp.env import (
    EnvironmentSlice,
    EnvironmentSpec,
    embed_bounded_jump,
    homogeneous_d1_spec,
    lambda_crit_cap,
    sample_window,
    two_point_d1_spec,
)
from stripldp.phi import (
    ConvergenceError,
    PeriodicPhi,
    SupercriticalError,
    divergence_bound,
    estimate_lambda_crit,
    periodic_phi_derivative,
    phi_derivative,
    solve_phi_periodic,
    solve_phi_window,
    truncated_kernels_range,
    truncated_phis,
)

from conftest import (
    c_lambda,
    d1_lambda_crit,
    d1_phi_closed,
    d1_phi_prime_closed,
    enumerate_truncated_phi,
    qbd_lambda_crit,
    random_d2_iid_spec,
    ref_estimate_lambda_crit,
    ref_hitting_kernels,
    ref_periodic_phi_derivative,
    ref_phi_derivative,
    ref_solve_phi_periodic,
    ref_solve_phi_window,
    residual_norm,
)


def window_for(spec, lo=-80, hi=80, seed=1):
    return sample_window(spec, lo, hi, seed=seed)


def truncated_phi(window, lam, M, k):
    """Phi_{k,M}(lambda) of one level."""
    return truncated_phis(truncated_kernels_range(window, M, k, k + 1), lam)[0]


def test_phi_right_transient_stochastic(p075_spec):
    sol = solve_phi_window(window_for(p075_spec), 0.0)
    assert sol.at_level(20)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_phi_left_transient_gamblers_ruin(p025_spec):
    sol = solve_phi_window(window_for(p025_spec), 0.0)
    assert sol.at_level(20)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_phi_closed_form_positive_lambda(p075_spec):
    sol = solve_phi_window(window_for(p075_spec), 0.1)
    assert sol.at_level(20)[0, 0] == pytest.approx(d1_phi_closed(0.75, 0.1), abs=1e-12)


def test_residual_contract(p075_spec):
    sol = solve_phi_window(window_for(p075_spec), 0.05)
    assert residual_norm(sol) <= 1e-12


def test_supercritical_signal(p075_spec):
    lam_c = d1_lambda_crit(0.75)
    with pytest.raises(SupercriticalError):
        solve_phi_window(window_for(p075_spec, -400, 400), lam_c + 0.02)
    with pytest.raises(SupercriticalError):
        solve_phi_periodic(p075_spec, lam_c + 0.02)


def test_uniform_bounds_invariant():
    spec = random_d2_iid_spec(21, kappa=0.08)
    w = window_for(spec, -200, 200, seed=4)
    lc = estimate_lambda_crit(spec, window_len=2000, tol=1e-4, seed=4)
    for lam in (-1.0, -0.1, 0.0, lc.bracket[0] * 0.5):
        sol = solve_phi_window(w, lam)
        c = c_lambda(spec.kappa, lam)
        keep = sol.phis[sol.warmup_levels:]
        assert keep.min() >= c * (1 - 1e-11)
        assert keep.max() <= (1 / c) * (1 + 1e-11)


def test_monotone_in_lambda():
    spec = random_d2_iid_spec(8)
    w = window_for(spec, -60, 60, seed=2)
    a = solve_phi_window(w, -0.5).phis
    b = solve_phi_window(w, -0.2).phis
    assert (a <= b + 1e-15).all()


def test_truncated_single_path(p075_spec):
    w = window_for(p075_spec, -10, 1)
    assert truncated_phi(w, 0.0, 1, 0)[0, 0] == pytest.approx(0.75)


def test_truncated_two_paths_formula(p075_spec):
    # paths R (1 step, prob .75) and LRR (3 steps, prob .25*.75^2 = 0.140625)
    w = window_for(p075_spec, -10, 1)
    for lam in (-0.7, 0.0, 0.4):
        expect = 0.75 * math.exp(lam) + 0.140625 * math.exp(3 * lam)
        got = truncated_phi(w, lam, 3, 0)[0, 0]
        assert got == pytest.approx(expect, abs=1e-14)


def test_truncated_vs_enumeration_d2():
    spec = random_d2_iid_spec(5)
    w = window_for(spec, -6, 1, seed=3)
    for lam in (-1.0, 0.0, 0.5):
        dp = truncated_phi(w, lam, 4, 0)
        brute = enumerate_truncated_phi(w, 0, 4, lam)
        assert np.abs(dp - brute).max() < 1e-12


def test_truncation_monotone_and_converging(p075_spec):
    w = window_for(p075_spec, -300, 1)
    lam = 0.05
    full = solve_phi_window(w, lam).at_level(0)[0, 0]
    prev = 0.0
    gaps = []
    for j in range(0, 8):
        M = 2 ** j
        val = truncated_phi(w, lam, M, 0)[0, 0]
        assert val >= prev - 1e-15
        assert val <= full + 1e-12
        gaps.append(full - val)
        prev = val
    assert all(g2 <= g1 + 1e-15 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_stochastic_rows_at_zero_right_transient():
    spec = random_d2_iid_spec(13, drift=0.5)
    w = window_for(spec, -300, 60, seed=6)
    sol = solve_phi_window(w, 0.0)
    keep = sol.phis[sol.warmup_levels:]
    rows = keep.sum(axis=2)
    assert np.abs(rows - 1.0).max() < 1e-11


def test_derivative_expected_hitting_time(p075_spec):
    w = window_for(p075_spec)
    dphis = phi_derivative(w, 0.0)
    assert dphis[w.index_of(20)][0, 0] == pytest.approx(2.0, abs=1e-10)


def test_derivative_fd_consistency_recurrent(recurrent_spec):
    w = window_for(recurrent_spec, -600, 30)
    lam, h = -0.5, 1e-5
    dphis = phi_derivative(w, lam)
    fd = (d1_phi_closed(0.5, lam + h) - d1_phi_closed(0.5, lam - h)) / (2 * h)
    assert dphis[w.index_of(10)][0, 0] == pytest.approx(fd, abs=1e-6)


def test_derivative_fd_consistency_window_d2():
    spec = random_d2_iid_spec(30)
    w = window_for(spec, -100, 40, seed=8)
    lam, h = -0.4, 1e-5
    dphis = phi_derivative(w, lam)
    up = solve_phi_window(w, lam + h).phis
    dn = solve_phi_window(w, lam - h).phis
    fd = (up - dn) / (2 * h)
    assert np.abs(dphis - fd).max() < 1e-6


def test_derivative_dominates_phi():
    # T_{k+1} >= 1 so Phi'(i,j) >= Phi(i,j) entrywise
    spec = random_d2_iid_spec(9)
    w = window_for(spec, -50, 50, seed=1)
    for lam in (-3.0, -0.5, 0.0):
        sol = solve_phi_window(w, lam)
        dphis = phi_derivative(w, lam, phi_solution=sol)
        assert (dphis >= sol.phis * (1 - 1e-12)).all()


def test_lambda_crit_d1_closed_form(p075_spec):
    lc = estimate_lambda_crit(p075_spec, tol=4e-7)
    assert lc.lambda_crit == pytest.approx(d1_lambda_crit(0.75), abs=1e-6)
    assert lc.bracket[0] <= lc.lambda_crit <= lc.bracket[1]
    assert lc.bracket[1] - lc.bracket[0] <= 4e-7
    assert lc.lambda_crit <= lambda_crit_cap(p075_spec.kappa)


def test_lambda_crit_recurrent_zero(recurrent_spec):
    lc = estimate_lambda_crit(recurrent_spec, tol=1e-6)
    assert lc.lambda_crit == pytest.approx(0.0, abs=1e-6)


def test_lambda_crit_reflection(p075_spec):
    tol = 1e-5
    lc = estimate_lambda_crit(p075_spec, tol=tol)
    lci = estimate_lambda_crit(p075_spec.invert(), tol=tol)
    assert abs(lc.lambda_crit - lci.lambda_crit) <= 2 * tol


def test_divergence_bound_regimes():
    assert divergence_bound(0.25, 0.5) == pytest.approx(4.0 * math.exp(-0.5), rel=1e-6)
    # subprobability regime: entries can never exceed 1
    assert divergence_bound(0.25, -1.0) == pytest.approx(1.0, abs=1e-9)


def test_hitting_kernels_mass(p075_spec):
    w = window_for(p075_spec, -20, 1)
    ker = truncated_kernels_range(w, 9, 0, 1)
    W = ker[0]
    # odd excursion lengths only on a width-1 strip with r = 0
    assert W[1].sum() == 0.0 and W[3].sum() == 0.0
    assert truncated_phis(ker, 0.0)[0, 0, 0] == pytest.approx(
        sum(W[m][0, 0] for m in range(9)), abs=1e-15
    )


def test_periodic_matches_window(p075_spec):
    pp = solve_phi_periodic(p075_spec, -0.3, tol=1e-14)
    sol = solve_phi_window(window_for(p075_spec, -200, 10), -0.3)
    assert pp.phis[0, 0, 0] == pytest.approx(sol.at_level(5)[0, 0], abs=1e-11)


def test_period2_environment():
    a = EnvironmentSlice(q=[[0.3]], r=[[0.0]], p=[[0.7]])
    b = EnvironmentSlice(q=[[0.2]], r=[[0.1]], p=[[0.7]])
    spec = EnvironmentSpec(kind="periodic", d=1, kappa=0.15, slices=(a, b))
    pp = solve_phi_periodic(spec, -0.2, tol=1e-14)
    w = sample_window(spec, -400, 8)
    sol = solve_phi_window(w, -0.2)
    assert pp.phis[0, 0, 0] == pytest.approx(sol.at_level(0)[0, 0], abs=1e-11)
    assert pp.phis[1, 0, 0] == pytest.approx(sol.at_level(1)[0, 0], abs=1e-11)
    assert pp.phis[0, 0, 0] != pytest.approx(pp.phis[1, 0, 0], abs=1e-4)


# ---------------------------------------------------------------------------
# the transfer kernels against the plain per-level reference loops
# ---------------------------------------------------------------------------


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_solution(got, ref):
    assert bitwise_equal(got.phis, ref.phis)
    assert got.warmup_levels == ref.warmup_levels
    assert got.shift == ref.shift
    assert bitwise_equal(got.boundary_gap, ref.boundary_gap)  # NaN before shift


def window_lambda_crit(window, kappa, tol=1e-9):
    """(feasible, infeasible) bracket of lambda_crit on this very window."""
    lo, hi = 0.0, lambda_crit_cap(kappa)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        try:
            solve_phi_window(window, mid, shift=window.n_levels, kappa=kappa)
            lo = mid
        except SupercriticalError:
            hi = mid
    return lo, hi


SPECS_BY_D = {
    1: lambda: two_point_d1_spec([0.7, 0.8], [0.5, 0.5]),
    2: lambda: random_d2_iid_spec(1, drift=0.4),
    3: lambda: random_d2_iid_spec(4, drift=0.3, d=3),
}


@pytest.fixture(scope="module", params=sorted(SPECS_BY_D), ids=lambda d: f"d{d}")
def kernel_case(request):
    spec = SPECS_BY_D[request.param]()
    window = sample_window(spec, -320, 480, seed=0)
    return spec, window, window_lambda_crit(window, spec.kappa)


@pytest.mark.parametrize("which", ["-5", "-1", "-0.1", "0.9lc", "lc-1e-7"])
def test_window_kernels_match_reference(kernel_case, which):
    spec, window, (lc, _) = kernel_case
    lam = {"-5": -5.0, "-1": -1.0, "-0.1": -0.1,
           "0.9lc": 0.9 * lc, "lc-1e-7": lc - 1e-7}[which]
    for shift in (320, None):
        sol = solve_phi_window(window, lam, shift=shift, kappa=spec.kappa)
        ref = ref_solve_phi_window(window, lam, shift=shift, kappa=spec.kappa)
        assert_same_solution(sol, ref)
        assert bitwise_equal(phi_derivative(window, lam, phi_solution=sol),
                             ref_phi_derivative(window, lam, phi_solution=ref))
    # the re-solve stopped early, yet its gap past the stop is exactly 0
    if lam < 0:
        assert (sol.boundary_gap[-100:] == 0.0).all()


def test_window_supercritical_level_matches_reference(kernel_case):
    spec, window, (_, hi) = kernel_case
    for lam in (hi, hi + 0.05):
        with pytest.raises(SupercriticalError) as got:
            solve_phi_window(window, lam, shift=320, kappa=spec.kappa)
        with pytest.raises(SupercriticalError) as ref:
            ref_solve_phi_window(window, lam, shift=320, kappa=spec.kappa)
        assert got.value.level == ref.value.level


def max_relative_error(got, want):
    return float((np.abs(got - want) / np.abs(want)).max())


@pytest.mark.parametrize("kernel_case", [2], indirect=True, ids=["d2"])
def test_2x2_kernels_agree_with_lapack(kernel_case):
    """The d = 2 window loops eliminate on Python floats where the LAPACK
    loop solves: Phi and Phi' agree entrywise to 1e-13 relative up to
    0.9 lambda_crit. 1e-7 below the window's lambda_crit both solvers are
    ill-conditioned; there Phi agrees to 1e-9 and Phi' to 1e-8 (2.8e-11
    and 3.6e-10 measured). Past lambda_crit both fail at the same level."""
    spec, window, (lc, hi) = kernel_case
    for lam, tol_phi, tol_dphi in ((-5.0, 1e-13, 1e-13), (-1.0, 1e-13, 1e-13),
                                   (-0.1, 1e-13, 1e-13), (0.9 * lc, 1e-13, 1e-13),
                                   (lc - 1e-7, 1e-9, 1e-8)):
        sol = solve_phi_window(window, lam, kappa=spec.kappa)
        ref = ref_solve_phi_window(window, lam, kappa=spec.kappa, lapack=True)
        assert max_relative_error(sol.phis, ref.phis) <= tol_phi
        assert max_relative_error(
            phi_derivative(window, lam, phi_solution=sol),
            ref_phi_derivative(window, lam, phi_solution=ref, lapack=True)) <= tol_dphi
    for lam in (hi, hi + 0.05):
        with pytest.raises(SupercriticalError) as got:
            solve_phi_window(window, lam, shift=320, kappa=spec.kappa)
        with pytest.raises(SupercriticalError) as want:
            ref_solve_phi_window(window, lam, shift=320, kappa=spec.kappa, lapack=True)
        assert got.value.level == want.value.level


def cyclic_derivative_residual(spec, lam, phis, dphis):
    """max |A_k Phi'_k - Phi_k - e^l q_k Phi'_{k-1} Phi_k| over the positions
    k of one period, A_k = I - e^l (r_k + q_k Phi_{k-1}), k - 1 taken
    cyclically."""
    el = math.exp(lam)
    eye = np.eye(spec.d)
    worst = 0.0
    for k, s in enumerate(spec.slices):
        a = eye - el * (s.r + s.q @ phis[k - 1])
        res = a @ dphis[k] - phis[k] - el * (s.q @ dphis[k - 1] @ phis[k])
        worst = max(worst, float(np.abs(res).max()))
    return worst


def check_periodic_derivative(spec, lam, pp):
    """periodic_phi_derivative solves the cyclic Phi' equation at every
    position to 1e-13 * max(1, max|Phi'|), and agrees with the reference
    cycle to within that cycle's own distance from its fixed point.

    The reference stops after the cycle whose change c is at most
    1e-13 * max(1, max|Phi'|). Its recursion is affine, so its changes fall
    geometrically, with a ratio rho read off the last two, and the cycles it
    skipped would have moved it by c rho / (1 - rho) more; that is doubled,
    for rho estimated from two changes, and the rounding floor of a fixed
    point that contracts by rho, 1e-14 * max(1, max|Phi'|) / (1 - rho), is
    added. On the specs of this module the difference reaches 0.48 of that
    bound."""
    dph = periodic_phi_derivative(spec, lam, pp)
    scale = max(1.0, float(np.abs(dph).max()))
    assert cyclic_derivative_residual(spec, lam, pp.phis, dph) <= 1e-13 * scale
    changes = []
    ref = ref_periodic_phi_derivative(spec, lam, pp, changes=changes)
    rho = changes[-1] / changes[-2]
    bound = (2.0 * changes[-1] * rho + 1e-14 * scale) / (1.0 - rho)
    assert float(np.abs(dph - ref).max()) <= bound


def cyclic_phi_residual(spec, lam, phis):
    """max |Phi_k - e^l (p_k + r_k Phi_k + q_k Phi_{k-1} Phi_k)| over the
    positions k of one period, k - 1 taken cyclically."""
    el = math.exp(lam)
    worst = 0.0
    for k, s in enumerate(spec.slices):
        rhs = el * (s.p + s.r @ phis[k] + s.q @ phis[k - 1] @ phis[k])
        worst = max(worst, float(np.abs(phis[k] - rhs).max()))
    return worst


PERIODIC_CASES = {  # lambdas below lambda_crit, and one past it
    1: ((-1.0, -0.1, 0.035, 0.065), 0.15),  # lambda_crit = 0.07269
    2: ((-1.0, -0.1, 0.015, 0.027), 0.08),  # lambda_crit = 0.03018
}


@pytest.mark.parametrize("d", [1, 2])
def test_periodic_kernels_match_reference(d):
    """Newton's periodic Phi on a period-3 spec solves the cyclic equation
    at every position to 1e-14 * max(1, max Phi), lies within twice the
    reference cycle's extrapolated tail (plus that rounding floor) of the
    cycle's result, and above it: the cycle rises to the fixed point from
    below. Past lambda_crit both refuse. The Newton passes run on Python
    floats and divide where the reference's LAPACK solve, with two
    right-hand sides, multiplies by a reciprocal, so the two rounded fixed
    points may differ by an ulp either way (seen: at d = 1 one position 1
    ulp below at lambda = -1 and -0.1; at d = 2 four of the twelve entries
    1 ulp below at lambda = -1)."""
    lams, past = PERIODIC_CASES[d]
    base = random_d2_iid_spec(1, drift=0.4, d=d)
    spec = EnvironmentSpec(kind="periodic", d=d, kappa=base.kappa, slices=base.slices)
    assert spec.period == 3
    for lam in lams:
        pp = solve_phi_periodic(spec, lam)
        ref = ref_solve_phi_periodic(spec, lam)
        floor = 1e-14 * max(1.0, float(pp.phis.max()))
        assert cyclic_phi_residual(spec, lam, pp.phis) <= floor
        assert float(np.abs(pp.phis - ref.phis).max()) <= 2.0 * ref.tail + floor
        assert (pp.phis >= ref.phis - np.spacing(ref.phis)).all()
        check_periodic_derivative(spec, lam, pp)
    with pytest.raises(SupercriticalError):
        solve_phi_periodic(spec, past)
    with pytest.raises(SupercriticalError):
        ref_solve_phi_periodic(spec, past)


class _NoLinalg:
    def __getattr__(self, name):
        raise AssertionError(f"np.linalg.{name} called")


def test_d1_periodic_solvers_call_no_linear_algebra(p075_spec, monkeypatch):
    """At d = 1, solve_phi_periodic and periodic_phi_derivative run on
    Python floats: with np.linalg made to raise and phi._solve counted,
    both solve p = 0.75 and a period-3 spec at -1, 0 and 1e-6 below
    lambda_crit with no solve, to the cyclic equations' residual bounds of
    test_periodic_kernels_match_reference and check_periodic_derivative.
    At d = 2 the passes run on floats too, and the only LAPACK call is the
    4x4 solve: one for each Newton step and one for the periodic Phi'."""
    import stripldp.phi as phi

    def period3(d):
        base = random_d2_iid_spec(1, drift=0.4, d=d)
        return EnvironmentSpec(kind="periodic", d=d, kappa=base.kappa, slices=base.slices)

    cases = [(spec, lam) for spec in (p075_spec, period3(1), period3(2))
             for lam in (-1.0, 0.0, estimate_lambda_crit(spec, tol=1e-9).bracket[0] - 1e-6)]
    solve, calls = phi._solve, []
    monkeypatch.setattr(phi, "_solve", lambda *a: calls.append(a) or solve(*a))
    monkeypatch.setattr(np, "linalg", _NoLinalg())
    solved = []
    for spec, lam in cases:
        calls.clear()
        pp = solve_phi_periodic(spec, lam)
        newton = len(calls)
        dph = periodic_phi_derivative(spec, lam, pp)
        solved.append((pp, dph, spec, lam, newton, len(calls) - newton))
    monkeypatch.undo()
    for pp, dph, spec, lam, newton, derivative in solved:
        d = spec.d
        assert (newton, derivative) == ((0, 0) if d == 1 else (pp.iterations, 1))
        assert pp.phis.shape == dph.shape == (spec.period, d, d)
        assert cyclic_phi_residual(spec, lam, pp.phis) <= 1e-14 * max(1.0, float(pp.phis.max()))
        scale = max(1.0, float(np.abs(dph).max()))
        assert cyclic_derivative_residual(spec, lam, pp.phis, dph) <= 1e-13 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10_000),
    period=st.integers(1, 5),
    drift=st.floats(0.0, 0.6),
    gap_exp=st.floats(-6.0, 0.5),
)
def test_2x2_derivative_lanes_agree_with_lapack(seed, period, drift, gap_exp):
    """The 2x2 Phi' loop over a solved period (_derivative_d2) eliminates
    on Python floats where _derivative_levels solves with LAPACK: from the
    zero lane, the LANE_SCALE unit lanes and a random start, every level
    of every lane agrees to 1e-13 relative, up to 1e-6 below
    lambda_crit."""
    import stripldp.phi as phi

    base = random_d2_iid_spec(seed, kappa=0.05, n_support=period, drift=drift)
    spec = EnvironmentSpec(kind="periodic", d=2, kappa=base.kappa, slices=base.slices)
    lam = estimate_lambda_crit(spec, tol=1e-7).bracket[0] - 10.0 ** gap_exp
    phis = solve_phi_periodic(spec, lam).phis
    start = np.random.default_rng(seed).uniform(0.0, 10.0, 4)
    lanes = (*phi._unit_lanes(4), *start)
    el = math.exp(lam)
    got = []
    ends = phi._derivative_d2(spec.rows, el, phis.ravel().tolist(), phis[-1].ravel().tolist(),
                              lanes, got)
    q, r, _ = spec.stacks
    with phi._linalg_errstate():
        want = phi._derivative_levels(q, r, np.eye(2), el, phis, phis[-1],
                                      np.reshape(lanes, (-1, 2, 2)))
    got = np.reshape(got, want.shape)
    assert np.array_equal(np.reshape(ends, want[-1].shape), got[-1])
    assert max_relative_error(got, want) <= 1e-13


@pytest.mark.parametrize("p, r", [(0.75, 0.0), (0.6, 0.1)])
def test_periodic_phi_closed_form(p, r):
    """At d = 1 the periodic Phi is the closed form d1_phi_closed to 1e-13
    relative, up to 1e-6 below lambda_crit, where a cycle from zero still
    stands 1e-8 short (0.1 is past lambda_crit = 0.0528 for p = 0.6,
    r = 0.1)."""
    spec = homogeneous_d1_spec(p, r=r)
    lam_c = d1_lambda_crit(p, r)
    for lam in (-1.0, -0.3, 0.0, 0.1, lam_c - 1e-6):
        if lam >= lam_c:
            continue
        got = solve_phi_periodic(spec, lam).phis[0, 0, 0]
        assert got == pytest.approx(d1_phi_closed(p, lam, r), rel=1e-13)


@pytest.mark.parametrize("p, r", [(0.5, 0.0), (0.4, 0.2), (0.3, 0.4)])
def test_periodic_phi_recurrent_at_zero(p, r):
    """On a recurrent d = 1 spec Phi(0) = 1 is a singular root, where a
    cycle from zero closes in only like 1/iterations; Newton halves the
    distance each step and ends within 1e-7 of it."""
    pp = solve_phi_periodic(homogeneous_d1_spec(p, r=r), 0.0)
    assert abs(pp.phis[0, 0, 0] - 1.0) <= 1e-7


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 3),
    drift=st.floats(0.0, 0.6),
    lam=st.floats(-4.0, 0.6),
    n=st.integers(2, 160),
    shift=st.integers(1, 80),
)
def test_kernels_match_reference_on_random_specs(seed, d, drift, lam, n, shift):
    spec = random_d2_iid_spec(seed, kappa=0.05, n_support=2, drift=drift, d=d)
    window = sample_window(spec, 0, n, seed=seed)
    try:
        ref = ref_solve_phi_window(window, lam, shift=shift, kappa=spec.kappa)
    except SupercriticalError as e:
        with pytest.raises(SupercriticalError) as got:
            solve_phi_window(window, lam, shift=shift, kappa=spec.kappa)
        assert got.value.level == e.level
        return
    sol = solve_phi_window(window, lam, shift=shift, kappa=spec.kappa)
    assert_same_solution(sol, ref)
    assert bitwise_equal(phi_derivative(window, lam, phi_solution=sol),
                         ref_phi_derivative(window, lam, phi_solution=ref))


# (2,1): p has a zero row and a zero column; (3,3): q and p triangular
BOUNDED_JUMP_SPECS = (
    embed_bounded_jump([0.35, 0.35, 0.0, 0.30], 2, 1),
    embed_bounded_jump([0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2], 3, 3),
)


def ref_kernels_range(window, M, k0, k1):
    return np.stack([ref_hitting_kernels(window, k, M) for k in range(k0, k1)])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.integers(0, 5),
    M=st.integers(1, 30),
    k0=st.integers(-40, 40),
    n=st.integers(1, 12),
    rows=st.integers(1, 12),
)
def test_truncated_kernels_match_reference(seed, kind, M, k0, n, rows):
    """The batched DP is the per-level loop bit for bit: d = 1..4 i.i.d.
    specs and both bounded-jump embeddings, with start-level blocks of
    `rows` levels so that most ranges cross a block boundary."""
    import stripldp.phi as phi

    spec = (random_d2_iid_spec(seed, kappa=0.05, drift=0.3, d=kind + 1)
            if kind < 4 else BOUNDED_JUMP_SPECS[kind - 4])
    window = sample_window(spec, k0 - M - 3, k0 + n + 2, seed=seed)
    with mock.patch.object(phi, "KERNEL_BLOCK_ENTRIES", rows * M * spec.d ** 2):
        got = truncated_kernels_range(window, M, k0, k0 + n)
    assert bitwise_equal(got, ref_kernels_range(window, M, k0, k0 + n))
    assert bitwise_equal(truncated_kernels_range(window, M, k0, k0 + 1)[0], got[0])


@pytest.mark.parametrize("M", [1, 7, 24])
def test_periodic_truncated_kernels_match_reference(M):
    import stripldp.lmgf as lmgf

    base = random_d2_iid_spec(1, drift=0.4)
    period3 = EnvironmentSpec(kind="periodic", d=2, kappa=base.kappa, slices=base.slices)
    for spec in (period3, *BOUNDED_JUMP_SPECS):
        want = ref_kernels_range(sample_window(spec, -M, spec.period), M, 0, spec.period)
        assert bitwise_equal(lmgf.LmgfEvaluator(spec)._kernels(M), want)


def test_truncated_kernels_range_checks():
    spec = random_d2_iid_spec(1, drift=0.4)
    M, k0, k1 = 5, 3, 9
    exact = sample_window(spec, k0 - M + 1, k1, seed=0)  # levels (k0-M, k1-1]
    assert truncated_kernels_range(exact, M, k0, k1).shape == (k1 - k0, M, 2, 2)
    with pytest.raises(ValueError, match="M >= 1"):
        truncated_kernels_range(exact, 0, k0, k1)
    for short in (exact.sub(exact.lo + 1, exact.hi), exact.sub(exact.lo, exact.hi - 1)):
        with pytest.raises(ValueError, match="must cover"):
            truncated_kernels_range(short, M, k0, k1)


def test_truncated_phis_refuse_overflowing_weights(p075_spec):
    """Weights e^{lam m} with lam * M above 400 are refused, by truncated_phis
    and so by the evaluator's Lambda_M; lam * M = 400 and any lam <= 0 pass."""
    from stripldp.lmgf import LmgfEvaluator

    ker = np.full((2, 401, 1, 1), 1e-200)
    with pytest.raises(ValueError, match="lambda\\*M = 401 > 400"):
        truncated_phis(ker, 1.0)
    assert np.isfinite(truncated_phis(ker[:, :400], 1.0)).all()
    assert np.isfinite(truncated_phis(ker, -50.0)).all()
    with pytest.raises(ValueError, match="lambda\\*M = 401 > 400"):
        LmgfEvaluator(p075_spec, n_levels=10).value_truncated(1.0, 401)


def test_phi_derivative_infers_kappa_once(monkeypatch):
    """With kappa omitted and no Phi solution passed in, the window's kappa
    is measured once (one linear solve per level) for the fused Phi and
    Phi' pass and its boundary re-solve together, and the result is the one
    for that kappa. Given a Phi solution, phi_derivative measures nothing."""
    import stripldp.phi as phi

    spec = random_d2_iid_spec(1, drift=0.4)
    window = window_for(spec)
    measure = phi._infer_kappa
    calls = []
    monkeypatch.setattr(phi, "_infer_kappa", lambda w: calls.append(w) or measure(w))
    got = phi_derivative(window, -0.3)
    assert len(calls) == 1
    assert bitwise_equal(got, phi_derivative(window, -0.3, kappa=measure(window)))
    sol = solve_phi_window(window, -0.3, kappa=spec.kappa)
    calls.clear()
    assert bitwise_equal(phi_derivative(window, -0.3, phi_solution=sol),
                         phi_derivative(window, -0.3, kappa=spec.kappa))
    assert calls == []


def test_window_derivative_runs_one_fused_pass(monkeypatch):
    """A window Lambda' at d = 1 and d = 2 runs one pass that forms Phi and
    Phi' together, plus the boundary re-solve of Phi in consecutive blocks
    of RESOLVE_BLOCK levels from `shift`; a Lambda at that lambda afterwards
    runs no pass. A Lambda' after a Lambda at the same lambda runs the
    fused pass once, with no re-solve, and gives the same estimate."""
    import stripldp.phi as phi
    from stripldp.lmgf import LmgfEvaluator

    sweep, calls = phi._sweep, []

    def counted(window, lam, phi0, bound, start=0, stop=None, derivative=False, keep=True):
        calls.append((lam, start, stop, derivative, keep))
        return sweep(window, lam, phi0, bound, start, stop, derivative, keep)

    monkeypatch.setattr(phi, "_sweep", counted)
    for spec in (two_point_d1_spec([0.7, 0.8], [0.5, 0.5]), random_d2_iid_spec(1, drift=0.4)):
        ev = LmgfEvaluator(spec, n_levels=400, seed=0)
        calls.clear()
        assert math.isfinite(ev.derivative(-0.3).value)
        assert calls[0] == (-0.3, 0, None, True, True)
        shift = ev.margin
        block = phi.RESOLVE_BLOCK
        assert calls[1:] == [(-0.3, a, a + block, False, True)
                             for a in range(shift, shift + block * (len(calls) - 1), block)]
        assert shift + block * (len(calls) - 1) < ev.window.n_levels
        calls.clear()
        assert math.isfinite(ev.value(-0.3).value)
        assert calls == []

        assert math.isfinite(ev.value(-0.2).value)
        calls.clear()
        got = ev.derivative(-0.2)
        assert calls == [(-0.2, 0, None, True, False)]
        assert got == LmgfEvaluator(spec, n_levels=400, seed=0).derivative(-0.2)


@pytest.mark.parametrize("spec", [two_point_d1_spec([0.7, 0.8], [0.5, 0.5]),
                                  random_d2_iid_spec(1, drift=0.4)], ids=["d1", "d2"])
def test_lambda_crit_bisection_builds_no_level_array(spec, monkeypatch):
    """At d <= 2 every lambda_crit midpoint reads its pass's verdict alone:
    no level array is built, and the bracket is the one that passes keeping
    every level give."""
    import stripldp.phi as phi

    sweep, levels, built = phi._sweep, phi._levels, []
    monkeypatch.setattr(phi, "_levels", lambda *a: built.append(a[1]) or levels(*a))
    got = estimate_lambda_crit(spec, window_len=2000, tol=1e-6)
    assert built == []
    monkeypatch.setattr(phi, "_sweep",
                        lambda *a, keep=True, **k: sweep(*a, keep=True, **k))
    assert estimate_lambda_crit(spec, window_len=2000, tol=1e-6) == got
    assert built


# ---------------------------------------------------------------------------
# the scalar d = 1 derivative loops against the 1x1 reference solves
# ---------------------------------------------------------------------------


def test_one_by_one_solve_is_a_division():
    """The scalar Phi' loops divide where the general loop solves: LAPACK's
    1x1 solve gives the quotient's bits on seeded random inputs over twelve
    decades."""
    import stripldp.phi as phi

    rng = np.random.default_rng(0)
    a = rng.uniform(0.01, 1.0, 20_000) * 10.0 ** rng.uniform(-3, 3, 20_000)
    b = rng.uniform(0.0, 5.0, 20_000) * 10.0 ** rng.uniform(-8, 8, 20_000)
    with phi._linalg_errstate():
        got = [phi._solve(np.array([[x]]), np.array([[y]]))[0, 0] for x, y in zip(a, b)]
    assert bitwise_equal(np.array(got), b / a)


def d1_window_case(seed, drift, n, gap_exp):
    """A d = 1 two-slice window and a lambda 10^gap_exp below its own
    lambda_crit."""
    spec = random_d2_iid_spec(seed, kappa=0.05, n_support=2, drift=drift, d=1)
    window = sample_window(spec, 0, n, seed=seed)
    return spec, window, window_lambda_crit(window, spec.kappa)[0] - 10.0 ** gap_exp


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10_000),
    drift=st.floats(0.0, 0.6),
    n=st.integers(2, 200),
    shift=st.integers(1, 80),
    gap_exp=st.floats(-9.0, 0.0),
)
def test_scalar_phi_derivative_matches_reference(seed, drift, n, shift, gap_exp):
    """phi_derivative at d = 1, up to 1e-9 below the window's lambda_crit,
    equals the 1x1 reference solves bit for bit, over a Phi solve that
    equals the reference's with its warm-up and boundary gaps."""
    spec, window, lam = d1_window_case(seed, drift, n, gap_exp)
    sol = solve_phi_window(window, lam, shift=shift, kappa=spec.kappa)
    ref = ref_solve_phi_window(window, lam, shift=shift, kappa=spec.kappa)
    assert_same_solution(sol, ref)
    assert bitwise_equal(phi_derivative(window, lam, phi_solution=sol),
                         ref_phi_derivative(window, lam, phi_solution=ref))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10_000),
    period=st.integers(1, 4),
    drift=st.floats(0.0, 0.6),
    gap_exp=st.floats(-4.0, 0.0),
)
def test_scalar_periodic_derivative_matches_reference(seed, period, drift, gap_exp):
    """periodic_phi_derivative at d = 1 and d = 2, up to 1e-4 below
    lambda_crit, solves the cyclic equation and agrees with the reference
    cycle (check_periodic_derivative)."""
    for d in (1, 2):
        base = random_d2_iid_spec(seed, kappa=0.05, n_support=period, drift=drift, d=d)
        spec = EnvironmentSpec(kind="periodic", d=d, kappa=base.kappa, slices=base.slices)
        lam = estimate_lambda_crit(spec, tol=1e-6).bracket[0] - 10.0 ** gap_exp
        check_periodic_derivative(spec, lam, solve_phi_periodic(spec, lam))


@pytest.mark.parametrize("p, r", [(0.75, 0.0), (0.6, 0.1)])
def test_periodic_derivative_closed_form(p, r):
    """At d = 1, on the exact Phi of d1_phi_closed, Phi' is the closed form
    phi / (1 - e^l (r + 2 q phi)) to 1e-13 relative, up to 1e-6 below
    lambda_crit (0.1 is past lambda_crit = 0.0528 for p = 0.6, r = 0.1)."""
    spec = homogeneous_d1_spec(p, r=r)
    lam_c = d1_lambda_crit(p, r)
    for lam in (-1.0, -0.3, 0.0, 0.1, lam_c - 1e-6):
        if lam >= lam_c:
            continue
        pp = PeriodicPhi(phis=np.full((1, 1, 1), d1_phi_closed(p, lam, r)), lam=lam,
                         iterations=0, tail=0.0)
        want = d1_phi_prime_closed(p, lam, r)
        assert periodic_phi_derivative(spec, lam, pp)[0, 0, 0] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("d", [1, 2])
def test_periodic_derivative_refuses_spectral_radius_above_one(d, monkeypatch):
    """A Phi scaled up past the fixed point makes one period's Phi' map T
    expand (rho(T) >= 1, measured here from the unit starts' pass, while
    every level's I - e^l (r + q Phi) stays an M-matrix): the solve raises
    ConvergenceError rather than return a finite or a negative Phi', and the
    evaluator reports the infinite estimate."""
    import stripldp.lmgf as lmgf
    import stripldp.phi as phi

    base = random_d2_iid_spec(1, drift=0.4, d=d)
    spec = EnvironmentSpec(kind="periodic", d=d, kappa=base.kappa, slices=base.slices)
    lam = 0.0
    pp = solve_phi_periodic(spec, lam)
    big = PeriodicPhi(phis=1.7 * pp.phis, lam=lam, iterations=pp.iterations,
                      tail=pp.tail)
    q, r, _ = spec.stacks
    eye = np.eye(d)
    for k in range(spec.period):
        inv = np.linalg.inv(eye - (r[k] + q[k] @ big.phis[k - 1]))
        assert inv.min() >= 0.0
    starts = np.concatenate((np.zeros((1, d, d)), np.eye(d * d).reshape(d * d, d, d)))
    ends = phi._derivative_levels(q, r, eye, 1.0, big.phis, big.phis[-1], starts)[-1]
    T = (ends[1:] - ends[0]).reshape(d * d, d * d)
    assert max(abs(np.linalg.eigvals(T))) >= 1.0
    with pytest.raises(ConvergenceError):
        periodic_phi_derivative(spec, lam, big)

    monkeypatch.setattr(lmgf, "solve_phi_periodic", lambda *a, **k: big)
    est = lmgf.LmgfEvaluator(spec).derivative(lam)
    assert est.value == math.inf and not est.supercritical


# ---------------------------------------------------------------------------
# the lambda_crit bisection against a plain LAPACK bisection
# ---------------------------------------------------------------------------


def periodic_of(spec):
    return EnvironmentSpec(kind="periodic", d=spec.d, kappa=spec.kappa, slices=spec.slices)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10_000),
    d=st.sampled_from([1, 2]),
    drift=st.floats(0.0, 0.6),
    window_seed=st.integers(0, 3),
    window_len=st.integers(50, 1500),
    tol=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-9]),
)
def test_lambda_crit_d2_matches_plain_bisection(seed, d, drift, window_seed, window_len, tol):
    """The bracket bisected on the float sweeps, the 2x2 elimination and
    the d = 1 division, from certified partial passes, is the plain LAPACK
    bisection's, bit for bit."""
    spec = random_d2_iid_spec(seed, drift=drift, d=d)
    args = dict(window_len=window_len, tol=tol, seed=window_seed)
    assert estimate_lambda_crit(spec, **args) == ref_estimate_lambda_crit(spec, **args)


BENCH_SPECS = {"two-point": lambda: two_point_d1_spec([0.7, 0.8], [0.5, 0.5]),
               "d2-bench": lambda: random_d2_iid_spec(1, drift=0.4)}


@pytest.mark.parametrize("window_seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(BENCH_SPECS))
def test_lambda_crit_matches_plain_bisection_at_bench_size(name, window_seed):
    """The bench's d = 1 and d = 2 specs on the default 6000-level window."""
    spec = BENCH_SPECS[name]()
    args = dict(window_len=6000, tol=1e-6, seed=window_seed)
    assert estimate_lambda_crit(spec, **args) == ref_estimate_lambda_crit(spec, **args)


def record_sweeps(monkeypatch) -> list:
    """(start, stop, levels swept) of every phi._sweep call from here on."""
    import stripldp.phi as phi

    sweep, calls = phi._sweep, []

    def recording(window, lam, phi0, bound, start=0, stop=None, **kwargs):
        out = sweep(window, lam, phi0, bound, start, stop, **kwargs)
        levels = len(range(window.n_levels)[start:stop])
        calls.append((start, stop, levels if out[2] < 0 else out[2] + 1))
        return out

    monkeypatch.setattr(phi, "_sweep", recording)
    return calls


@pytest.mark.parametrize("name", sorted(BENCH_SPECS))
def test_lambda_crit_replays_wrong_tentative_verdicts(name, monkeypatch):
    """With certificate passes of one level either side of the binding site,
    tentative midpoints pass that the full window refuses: the confirmation
    fails, the bisection reruns, the half-width doubles, and the bracket is
    still the plain one."""
    import stripldp.phi as phi

    monkeypatch.setattr(phi, "CERTIFICATE_HALF_WIDTH", 1)
    calls = record_sweeps(monkeypatch)
    spec = BENCH_SPECS[name]()
    args = dict(window_len=2000, tol=1e-6, seed=0)
    assert estimate_lambda_crit(spec, **args) == ref_estimate_lambda_crit(spec, **args)
    full = [c for c in calls if c[:2] == (0, None)]
    assert len(full) >= 3  # the cap, a failed confirmation, the last one
    assert max(stop - start for start, stop, _ in calls if stop is not None) > 2


def test_lambda_crit_sweeps_under_half_the_plain_levels(monkeypatch):
    """The bench d = 2 spec on its 6000-level window at seed 0: the plain
    bisection sweeps 65,140 levels, the certified one at most 30,000."""
    calls = record_sweeps(monkeypatch)
    estimate_lambda_crit(BENCH_SPECS["d2-bench"](), seed=0)
    assert sum(levels for _, _, levels in calls) <= 30_000


@pytest.mark.parametrize("kind", ["periodic", "d3"])
def test_lambda_crit_exact_kinds_solve_as_often_as_plain(kind, monkeypatch):
    """Periodic specs and d = 3 windows ask the exact verdict at every
    midpoint, and once only: as many solves as the plain bisection."""
    import conftest
    import stripldp.phi as phi

    if kind == "periodic":
        spec, args = periodic_of(random_d2_iid_spec(1, drift=0.4)), {}
        solvers = ((phi, "solve_phi_periodic"), (conftest, "ref_solve_phi_periodic"))
    else:
        spec, args = random_d2_iid_spec(4, drift=0.3, d=3), dict(window_len=300)
        solvers = ((phi, "_sweep"), (conftest, "ref_sweep"))
    counts = {}
    for module, name in solvers:
        def counting(*a, _solve=getattr(module, name), _name=name, **k):
            counts[_name] = counts.get(_name, 0) + 1
            return _solve(*a, **k)
        monkeypatch.setattr(module, name, counting)
    assert estimate_lambda_crit(spec, **args) == ref_estimate_lambda_crit(spec, **args)
    ours, ref = (counts[name] for _, name in solvers)
    assert ours == ref > 20


def passed_levels(bad: int, n: int) -> int:
    return n if bad < 0 else bad


MONOTONE_CASE = dict(
    seed=st.integers(0, 10_000),
    d=st.sampled_from([1, 2]),
    drift=st.floats(0.0, 0.6),
    window_seed=st.integers(0, 3),
)


def monotone_case(seed, d, drift, window_seed, u, n=400):
    """A random d <= 2 window of n levels and u times its lambda_crit."""
    spec = random_d2_iid_spec(seed, drift=drift, d=d)
    window = sample_window(spec, 0, n, seed=window_seed)
    lc = estimate_lambda_crit(spec, window_len=n, tol=1e-4, seed=window_seed).lambda_crit
    return spec, window, u * lc


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**MONOTONE_CASE, u=st.floats(0.5, 1.5), gap=st.floats(0.0, 0.05))
def test_window_pass_is_monotone_in_the_tilt(seed, d, drift, window_seed, u, gap):
    """F1 of estimate_lambda_crit: at computed pairs (e^lambda, bound)
    ordered, the pass at the lower pair fails no level the upper one
    passes, and stays entrywise at or below it."""
    import stripldp.phi as phi

    spec, window, hi = monotone_case(seed, d, drift, window_seed, u)
    lams = (hi * (1.0 - gap), hi)
    (el_lo, b_lo), (el_hi, b_hi) = ((math.exp(l), divergence_bound(spec.kappa, l)) for l in lams)
    assume(el_lo <= el_hi and b_lo >= b_hi)
    phi0 = np.zeros((d, d))
    lower, _, bad_lo = phi._sweep(window, lams[0], phi0, b_lo)
    upper, _, bad_hi = phi._sweep(window, lams[1], phi0, b_hi)
    n = passed_levels(bad_hi, window.n_levels)
    assert passed_levels(bad_lo, window.n_levels) >= n
    assert (lower[:n] <= upper[:n]).all()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**MONOTONE_CASE, u=st.floats(1.0, 2.0), start=st.integers(0, 399),
       width=st.integers(1, 400))
def test_window_pass_from_a_later_zero_start_stays_below(seed, d, drift, window_seed, u,
                                                         start, width):
    """F2 of estimate_lambda_crit: a zero-start pass over levels
    [start, start + width) stays entrywise at or below the full pass's
    levels, and when it fails, the full pass fails at or before that level."""
    import stripldp.phi as phi

    spec, window, lam = monotone_case(seed, d, drift, window_seed, u)
    phi0, bound = np.zeros((d, d)), divergence_bound(spec.kappa, lam)
    full, _, bad = phi._sweep(window, lam, phi0, bound)
    part, _, part_bad = phi._sweep(window, lam, phi0, bound, start, start + width)
    if part_bad >= 0:
        assert 0 <= bad <= start + part_bad
    both = min(len(part), passed_levels(bad, window.n_levels) - start)
    assert (part[:max(both, 0)] <= full[start:start + max(both, 0)]).all()


@pytest.mark.parametrize("seed, tol", [(1, 1e-6), (3, 1e-4), (7, 1e-2)])
def test_lambda_crit_d2_periodic_matches_plain_bisection(seed, tol):
    spec = periodic_of(random_d2_iid_spec(seed, drift=0.4, n_support=1 + seed % 3))
    assert estimate_lambda_crit(spec, tol=tol) == ref_estimate_lambda_crit(spec, tol=tol)


@pytest.mark.parametrize("tol", [1e-6, 1e-2])
def test_lambda_crit_d2_near_recurrent_matches_plain_bisection(tol):
    """drift 0: lambda_crit near 0, and at tol 1e-2 the bracket's lower end
    is the a-priori 0, which is never swept."""
    spec = random_d2_iid_spec(2, drift=0.0)
    args = dict(window_len=1500, tol=tol, seed=0)
    got = estimate_lambda_crit(spec, **args)
    assert got == ref_estimate_lambda_crit(spec, **args)
    assert got.lambda_crit < 0.01
    assert (got.bracket[0] == 0.0) == (tol == 1e-2)


@pytest.mark.parametrize("seed, drift", [(1, 0.4), (2, 0.0), (3, 0.2), (5, 0.6), (8, 0.4)])
def test_lambda_crit_periodic_brackets_the_qbd_formula(seed, drift):
    """A one-slice periodic spec is a homogeneous quasi-birth-death walk,
    whose lambda_crit is -log min_{c>0} rho(p/c + r + c q)
    (qbd_lambda_crit); the bracket of the Newton verdict contains it."""
    base = random_d2_iid_spec(seed, drift=drift)
    for s in base.slices:
        spec = EnvironmentSpec(kind="periodic", d=2, kappa=base.kappa, slices=(s,))
        lo, hi = estimate_lambda_crit(spec).bracket
        assert lo <= qbd_lambda_crit(s) <= hi


# ---------------------------------------------------------------------------
# order properties of the window Phi on random specs, against the truncated
# DP (which reads the window's arrays, not its float rows)
# ---------------------------------------------------------------------------

PROPERTY_SPEC = dict(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 3),
    n_support=st.integers(1, 3),
    drift=st.floats(0.0, 0.6),
    window_seed=st.integers(0, 1_000),
)


def random_window(seed, d, n_support, drift, window_seed, n=60):
    spec = random_d2_iid_spec(seed, n_support=n_support, drift=drift, d=d)
    return spec, sample_window(spec, -20, n, seed=window_seed)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**PROPERTY_SPEC)
def test_window_phi_at_zero_is_substochastic(seed, d, n_support, drift, window_seed):
    """Phi_k(0)(i, .) is the law of the height at the first visit to level
    k+1, on the event that the walk gets there: every row sums to at most 1."""
    spec, window = random_window(seed, d, n_support, drift, window_seed)
    phis = solve_phi_window(window, 0.0, kappa=spec.kappa).phis
    assert (phis >= 0.0).all()
    assert phis.sum(axis=2).max() <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**PROPERTY_SPEC)
def test_truncated_phi_rises_in_M_below_the_window_phi(seed, d, n_support, drift, window_seed):
    """Phi_{k,M}(lambda) counts the excursions of Phi_k of at most M steps.
    From k >= lo + M - 1 none of them leaves the window, so for lambda <= 0
    it lies below the window's Phi_k entrywise, and it does not decrease in
    M; both within 1e-12 relative, the rounding of sums in another order."""
    spec, window = random_window(seed, d, n_support, drift, window_seed)
    depths = (1, 2, 4, 8, 16)
    k0 = window.lo + depths[-1] - 1
    kernels = {M: truncated_kernels_range(window, M, k0, window.hi) for M in depths}
    for lam in (-1.0, -0.2, 0.0):
        full = solve_phi_window(window, lam, kappa=spec.kappa).phis[k0 - window.lo:]
        prev = np.zeros_like(full)
        for M in depths:
            trunc = truncated_phis(kernels[M], lam)
            assert (trunc <= full * (1.0 + 1e-12)).all(), (lam, M)
            assert (prev <= trunc * (1.0 + 1e-12)).all(), (lam, M)
            prev = trunc


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**PROPERTY_SPEC)
def test_truncated_phi_converges_to_the_window_phi(seed, d, n_support, drift, window_seed):
    """Phi_{k,M} -> Phi_k as M grows. From k >= lo + M no excursion of at
    most M steps leaves the window, so Phi_k - Phi_{k,M} sums the window's
    excursions longer than M: at least 0, and at most e^{lambda (M+1)} for
    lambda <= 0 (they have probability at most 1). Entrywise, with 1e-14
    relative slack for rounding."""
    spec, window = random_window(seed, d, n_support, drift, window_seed)
    for lam in (-1.0, -0.5):
        full = solve_phi_window(window, lam, kappa=spec.kappa).phis
        for M in (8, 16, 32):
            k0 = window.lo + M
            trunc = truncated_phis(truncated_kernels_range(window, M, k0, window.hi), lam)
            gap = full[k0 - window.lo:] - trunc
            slack = 1e-14 * full[k0 - window.lo:]
            assert (gap >= -slack).all(), (lam, M)
            assert (gap <= math.exp(lam * (M + 1)) + slack).all(), (lam, M)
