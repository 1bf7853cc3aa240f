import json
import math
from pathlib import Path

import numpy as np
import pytest

from stripldp.env import (
    EnvironmentSlice,
    EnvironmentSpec,
    embed_bounded_jump,
    homogeneous_d1_spec,
    sample_window,
    two_point_d1_spec,
)
import stripldp.lmgf as lmgf
from stripldp.lmgf import LmgfEvaluator, analyze_environment
from stripldp.phi import solve_phi_periodic, solve_phi_window
from stripldp.rates import _analyze_pair

from conftest import (
    d1_lambda_crit,
    d1_phi_closed,
    d1_truncated_ldp,
    random_d2_iid_spec,
    ref_derivative_terms,
    ref_log_terms,
    ref_roll_2x2,
)


def test_lambda_eta_zero_right_transient(p075_spec):
    est = LmgfEvaluator(p075_spec, n_levels=500).value(0.0)
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.statistical_error == 0.0  # periodic specs are exact averages


def test_lambda_eta_closed_form(p075_spec):
    est = LmgfEvaluator(p075_spec, n_levels=2000).value(0.1)
    expect = math.log(d1_phi_closed(0.75, 0.1))
    assert abs(est.value - expect) < 1e-10
    assert abs(est.value - expect) < est.deterministic_error


def test_lambda_eta_left_transient(p025_spec):
    est = LmgfEvaluator(p025_spec, n_levels=500).value(0.0)
    assert est.value == pytest.approx(math.log(1.0 / 3.0), abs=1e-10)


def test_lambda_eta_supercritical_inf(p075_spec):
    est = LmgfEvaluator(p075_spec, n_levels=500).value(d1_lambda_crit(0.75) + 0.05)
    assert est.supercritical and est.value == math.inf


def test_sandwich_and_monotone(p075_spec):
    grid = np.linspace(-2.5, 0.0, 9)
    vals = [LmgfEvaluator(p075_spec, n_levels=400).value(l).value for l in grid]
    for lam, v in zip(grid, vals):
        assert lam + math.log(p075_spec.kappa) - 1e-12 <= v <= lam + 1e-12
    assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))


def test_convexity_midpoint():
    spec = random_d2_iid_spec(23)
    ev = LmgfEvaluator(spec, n_levels=1500, seed=3)
    grid = np.linspace(-2.0, 0.0, 7)
    vals = [ev.value(l) for l in grid]
    for i in range(1, len(grid) - 1):
        mid = 0.5 * (vals[i - 1].value + vals[i + 1].value)
        slack = sum(v.total_error() for v in (vals[i - 1], vals[i], vals[i + 1]))
        assert vals[i].value <= mid + slack + 1e-9


def test_derivative_expected_time(p075_spec):
    est = LmgfEvaluator(p075_spec, n_levels=500).derivative(0.0)
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_derivative_closed_form_recurrent(recurrent_spec):
    est = LmgfEvaluator(recurrent_spec, n_levels=500).derivative(-1.0)
    h = 1e-6
    fd = (math.log(d1_phi_closed(0.5, -1 + h)) - math.log(d1_phi_closed(0.5, -1 - h))) / (2 * h)
    assert est.value == pytest.approx(fd, abs=1e-6)


def test_derivative_far_negative_lambda(p075_spec):
    est = LmgfEvaluator(p075_spec, n_levels=300).derivative(-5.0)
    assert 1.0 <= est.value <= 1.1
    fd = (math.log(d1_phi_closed(0.75, -5 + 1e-6))
          - math.log(d1_phi_closed(0.75, -5 - 1e-6))) / 2e-6
    assert est.value == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("maker,n_levels", [
    (lambda: homogeneous_d1_spec(0.75, kappa=0.25), 2000),
    (lambda: random_d2_iid_spec(77), 3000),
])
def test_derivative_fd_duality(maker, n_levels):
    spec = maker()
    ev = LmgfEvaluator(spec, n_levels=n_levels, seed=11)
    h = 1e-4
    for lam in (-1.5, -0.6, -0.1):
        fd = (ev.value(lam + h).value - ev.value(lam - h).value) / (2 * h)
        dv = ev.derivative(lam).value
        assert abs(dv - fd) <= max(1e-5, 0.0)


def test_truncated_single_step(p075_spec):
    for lam in (-1.0, 0.0, 0.7):
        est = LmgfEvaluator(p075_spec, n_levels=200).value_truncated(lam, 1)
        assert est.value == pytest.approx(lam + math.log(0.75), abs=1e-12)


def test_truncated_two_paths(p075_spec):
    est = LmgfEvaluator(p075_spec, n_levels=200).value_truncated(0.0, 3)
    assert est.value == pytest.approx(math.log(0.890625), abs=1e-12)


def test_truncated_m_sweep_converges(p075_spec):
    lam = 0.05
    full = LmgfEvaluator(p075_spec, n_levels=2000).value(lam).value
    prev = -math.inf
    ev = LmgfEvaluator(p075_spec, n_levels=2000, seed=0)
    for M in (4, 8, 16, 32, 64, 128):
        val = ev.value_truncated(lam, M).value
        assert val >= prev - 1e-15
        assert val <= full + 1e-12
        prev = val
    assert full - prev < 1e-6


def test_truncated_lower_bounds(p075_spec):
    kappa = p075_spec.kappa
    ev = LmgfEvaluator(p075_spec, n_levels=300, seed=0)
    for lam, M in ((-0.8, 8), (-0.2, 16)):
        assert ev.value_truncated(lam, M).value >= lam + math.log(kappa) - 1e-12
    for lam, M in ((0.3, 8), (0.8, 16)):
        assert ev.value_truncated(lam, M).value >= (M - 2) * lam + M * math.log(kappa) - 1e-12


def test_truncated_rejects_depth_losing_positivity():
    # d=2 slice where height 1 can only reach height 2 of the next level via
    # a stay-then-right path: Phi_{M=1}(1,2) = 0, so the direction machinery
    # would break and the depth is rejected
    from stripldp.env import EnvironmentSlice, EnvironmentSpec

    q = np.array([[0.1, 0.1], [0.1, 0.1]])
    r = np.array([[0.0, 0.4], [0.0, 0.0]])
    p = np.array([[0.4, 0.0], [0.4, 0.4]])
    spec = EnvironmentSpec(
        kind="periodic", d=2, kappa=0.05,
        slices=(EnvironmentSlice(q=q, r=r, p=p),),
    )
    with pytest.raises(ValueError):
        LmgfEvaluator(spec, n_levels=100).value_truncated(0.0, 1)
    # deep enough truncation restores positivity and is accepted
    est = LmgfEvaluator(spec, n_levels=100).value_truncated(0.0, 16)
    assert math.isfinite(est.value)


def test_truncated_diverges_past_critical(p075_spec):
    lam = d1_lambda_crit(0.75) + 0.2
    ev = LmgfEvaluator(p075_spec, n_levels=300, seed=0)
    vals = [ev.value_truncated(lam, M).value for M in (8, 32, 128, 512)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 10.0  # exceeds any fixed bound as M grows


def test_start_distribution_independence_shrinks():
    spec = random_d2_iid_spec(5)
    w = sample_window(spec, 0, 600, seed=2)
    sol = solve_phi_window(w, -0.3, shift=1)
    gaps = []
    for n in (50, 100, 200, 400):
        vals = []
        for i in range(2):
            z = np.zeros(2)
            z[i] = 1.0
            tot = 0.0
            zz = z
            for k in range(n):
                wv = zz @ sol.phis[k]
                s = wv.sum()
                tot += math.log(s)
                zz = wv / s
            vals.append(tot / n)
        gaps.append(abs(vals[0] - vals[1]))
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 1e-3


def test_truncated_lambda_iid_matches_enumerated_mean():
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    ev = LmgfEvaluator(spec, n_levels=1500, seed=1)
    # M=1: log(p_k e^lam) per level; the Birkhoff mean is exactly the
    # weighted mean of log p over the realized window
    est = ev.value_truncated(-0.3, 1)
    w = ev.window
    i0 = w.index_of(0)
    expect = float(np.log(w.p[i0:, 0, 0]).mean()) - 0.3
    assert est.value == pytest.approx(expect, abs=1e-12)


def test_analyze_right_transient(p075_spec):
    an = analyze_environment(p075_spec, n_levels=1500, seed=0)
    assert an.regime == "transient-right"
    assert an.v0 == pytest.approx(0.5, abs=1e-4)
    assert an.t0 == pytest.approx(2.0, abs=1e-4)
    assert an.lambda_crit.lambda_crit == pytest.approx(d1_lambda_crit(0.75), abs=1e-5)
    assert an.t0 <= an.t_star


def test_analyze_recurrent(recurrent_spec):
    an = analyze_environment(recurrent_spec, n_levels=1500, seed=0)
    assert an.regime == "recurrent"
    assert an.v0 == 0.0 and an.t0 == math.inf
    assert an.lambda_crit.lambda_crit == pytest.approx(0.0, abs=1e-6)
    assert an.t_star == math.inf


def test_analyze_left_transient(p025_spec):
    an = analyze_environment(p025_spec, n_levels=1500, seed=0)
    assert an.regime == "transient-left"
    assert an.v0 == pytest.approx(-0.5, abs=1e-4)
    assert an.lambda_at_zero == pytest.approx(math.log(1.0 / 3.0), abs=1e-9)


def test_analyze_iid_two_point():
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    an = analyze_environment(spec, n_levels=3000, seed=0)
    assert an.regime == "transient-right"
    # v0 for iid d=1: 1/t0 with t0 = E[ (1+rho)/(1-rho) ]-style series; just
    # check against the Monte Carlo-free closed form E T_1 = E[1/(p-q)] for
    # the two-point mixture? Not exact for iid; assert the stable range.
    assert 0.3 < an.v0 < 0.6


def test_one_level_analysis_keeps_t_star_at_or_above_t0():
    """One level reads the two-point spec as recurrent, so t0 is infinite;
    t* >= t0 on every walk, so t* is infinite too, with no Lambda' asked at
    lambda_crit."""
    an = analyze_environment(two_point_d1_spec([0.7, 0.8], [0.5, 0.5]), n_levels=1, seed=0)
    assert an.regime == "recurrent" and an.t0 == math.inf
    assert an.t_star >= an.t0


def test_d3_lambda_duality_and_bounds():
    # width-3 strip: same machinery, no d-specific indexing anywhere
    rng = np.random.default_rng(31)
    d = 3
    kappa = 0.04
    q = np.full((d, d), kappa)
    p = np.full((d, d), kappa)
    r = np.zeros((d, d))
    rem = 1.0 - 2 * d * kappa
    for i in range(d):
        extra = rng.dirichlet(np.ones(3 * d)) * rem
        q[i] += extra[:d]
        r[i] += extra[d:2 * d]
        p[i] += extra[2 * d:] + 0.3 * extra[:d]
        q[i] -= 0.3 * extra[:d]
    from stripldp.env import EnvironmentSlice, EnvironmentSpec

    spec = EnvironmentSpec(kind="periodic", d=d, kappa=kappa,
                           slices=(EnvironmentSlice(q=q, r=r, p=p),))
    ev = LmgfEvaluator(spec, n_levels=800, seed=0)
    lam, h = -0.4, 1e-4
    fd = (ev.value(lam + h).value - ev.value(lam - h).value) / (2 * h)
    assert abs(ev.derivative(lam).value - fd) < 1e-5
    v0 = ev.value(0.0)
    assert abs(v0.value) < 1e-3 or v0.value < 0  # stochastic or substochastic


# ---------------------------------------------------------------------------
# the estimators on the shared rolls against the per-level reference loops
# ---------------------------------------------------------------------------


def period3_d2_spec():
    base = random_d2_iid_spec(1, drift=0.4)
    return EnvironmentSpec(kind="periodic", d=2, kappa=base.kappa, slices=base.slices)


ROLL_SPECS = {
    "window-d1": lambda: two_point_d1_spec([0.7, 0.8], [0.5, 0.5]),
    "window-d2": lambda: random_d2_iid_spec(1, drift=0.4),
    "window-d3": lambda: random_d2_iid_spec(4, drift=0.3, d=3),
    "period3-d2": period3_d2_spec,
    "p075": lambda: homogeneous_d1_spec(0.75, kappa=0.25),
}


def all_estimates(spec):
    ev = LmgfEvaluator(spec, n_levels=300, seed=0)
    out = []
    for lam in (-1.0, -0.1, 0.01, 1.0):  # 1.0 is supercritical on every spec here
        out += [ev.value(lam), ev.derivative(lam)]
    for lam in (-0.5, 0.05):
        out += [ev.value_truncated(lam, 16), ev.derivative_truncated(lam, 16)]
    return out


def checked_against(terms, ref_terms, n_arrays):
    """A stand-in for the term builder `terms`, whose first n_arrays
    arguments are stacks and the rest start vectors (none, or None, on a
    window): window terms must equal ref_terms' bit for bit, and are
    returned from ref_terms; periodic terms must agree with ref_terms'
    cyclic directions to 1e-13 relative, and are returned as built."""
    def both(*args):
        arrays = args[:n_arrays]
        periodic = len(args) > n_arrays and args[n_arrays] is not None
        got = np.asarray(terms(*args))
        want = np.asarray(ref_terms(*arrays, periodic))
        if periodic:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            return got
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        return ref_terms(*arrays, periodic)
    return both


def period_checked(period_terms, seen):
    """A stand-in for lmgf._period_terms(vals, d, dvals=None): its float
    terms, of every periodic estimate, full or truncated, must agree to
    1e-13 relative with the reference cycle's; each call is appended to
    `seen`."""
    def both(vals, d, dvals=None):
        got = period_terms(vals, d, dvals)
        phis = np.reshape(vals, (-1, d, d))
        want = (ref_log_terms(phis, True) if dvals is None
                else ref_derivative_terms(phis, np.reshape(dvals, phis.shape), True))
        assert all(type(x) is float for x in got)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        seen.append(d)
        return got
    return both


@pytest.mark.parametrize("name", sorted(ROLL_SPECS))
def test_estimators_match_reference_loops(name, monkeypatch):
    """On a window, every per-level term, and every field of every estimate,
    equals bit for bit (repr round-trips a float exactly) the one built on
    the reference per-level loops; at d = 3 too, where bit equality holds
    and not only the 1e-13 agreement that would be acceptable there. On a
    period every term, full or truncated (all built by _period_terms),
    agrees to 1e-13 relative with the terms of the reference cycle, whose
    mu mixes two cycles."""
    import stripldp.lmgf as lmgf

    spec = ROLL_SPECS[name]()
    got = all_estimates(spec)
    assert any(math.isfinite(e.value) and e.value != 0.0 for e in got)
    monkeypatch.setattr(lmgf, "_log_terms", checked_against(lmgf._log_terms, ref_log_terms, 1))
    monkeypatch.setattr(lmgf, "_derivative_terms",
                        checked_against(lmgf._derivative_terms, ref_derivative_terms, 2))
    periods = []
    monkeypatch.setattr(lmgf, "_period_terms", period_checked(lmgf._period_terms, periods))
    want = all_estimates(spec)
    assert [repr(e) for e in got] == [repr(e) for e in want]
    # every finite estimate of a period: 3 values, 3 derivatives, 4 truncated
    assert len(periods) == (10 if spec.kind == "periodic" else 0)


PERIODIC_SPECS = {
    "p075": lambda: homogeneous_d1_spec(0.75, kappa=0.25),
    "period3-d2": period3_d2_spec,
    "period4-d3": lambda: periodic_of(random_d2_iid_spec(4, n_support=4, drift=0.3, d=3)),
}


def periodic_of(spec):
    return EnvironmentSpec(kind="periodic", d=spec.d, kappa=spec.kappa, slices=spec.slices)


def roll_loop(phis, z):
    """One forward roll from z, one level at a time: the directions z_k and
    the normalizers z_k Phi_k 1 (the plain float roll at d = 2)."""
    if phis.shape[1] == 2:
        Z, s = ref_roll_2x2(phis, z)
        return Z, list(s)
    Z, s = [], []
    for phi in phis:
        Z.append(z)
        w = z @ phi
        s.append(float(w @ np.ones(len(z))))
        z = w / s[-1]
    return np.array(Z + [z]), s


@pytest.mark.parametrize("name", sorted(PERIODIC_SPECS))
def test_periodic_terms_roll_one_cycle(name, monkeypatch):
    """The periodic value terms that every full and truncated estimate
    averages are log(mu_k Phi_k 1) with mu_k rolled one period from the
    mu_0 that _cycle_starts returns, bit for bit; and one period's forward
    roll from mu_0, like its backward roll from nu_0, comes back to it
    within 1e-14. Both kinds build them in _period_terms, on floats up
    to d = 2."""
    import stripldp.lmgf as lmgf

    seen = []
    log_terms, period_terms = lmgf._log_terms, lmgf._period_terms

    def recorded(phis, mu0=None):
        seen.append((phis, mu0, log_terms(phis, mu0)))
        return seen[-1][2]

    def recorded_period(vals, d, dvals=None):
        terms = period_terms(vals, d, dvals)
        seen.append((np.reshape(vals, (-1, d, d)), None, terms))
        return terms

    monkeypatch.setattr(lmgf, "_log_terms", recorded)
    monkeypatch.setattr(lmgf, "_period_terms", recorded_period)
    spec = PERIODIC_SPECS[name]()
    ev = LmgfEvaluator(spec)
    for lam in np.linspace(-1.5, 0.0, 12):
        ev.value(float(lam))
        ev.value_truncated(float(lam), 16)
    # from d = 3 _period_terms takes the array path, through _log_terms
    assert len(seen) == (48 if spec.d > 2 else 24)
    log = np.log if spec.d == 1 else np.vectorize(math.log)
    for phis, mu0, terms in seen:
        mu0_again, nu0 = map(np.array, lmgf._cycle_starts(phis.ravel().tolist(), spec.d))
        if mu0 is not None:
            assert np.asarray(mu0).tobytes() == mu0_again.tobytes()
        Z, s = roll_loop(phis, mu0_again)
        assert np.asarray(terms).tobytes() == log(np.array(s)).tobytes()
        assert np.abs(Z[-1] - mu0_again).max() <= 1e-14
        R = lmgf._roll_right(phis, nu0)[0]
        assert np.abs(R[0] - nu0).max() <= 1e-14


STARTS_SPECS = {
    **PERIODIC_SPECS,
    "bj21": lambda: embed_bounded_jump([0.35, 0.35, 0.0, 0.30], 2, 1),
}


@pytest.mark.parametrize("name", sorted(STARTS_SPECS))
def test_periodic_starts_are_perron_vectors(name):
    """mu_0 and nu_0 are the left and right Perron vectors of the period
    product P = Phi_0 ... Phi_{n-1}, normalized after each factor: mu_0 P =
    rho mu_0 and P nu_0 = rho nu_0 to 1e-15 relative to rho. The (2,1)
    embedding's Phi has a zero column, and mu_0 keeps its exact zero there."""
    import stripldp.lmgf as lmgf

    spec = STARTS_SPECS[name]()
    for lam in (-30.0, -1.0, 0.0):
        phis = solve_phi_periodic(spec, lam).phis
        mu0, nu0 = map(np.array, lmgf._cycle_starts(phis.ravel().tolist(), spec.d))
        P = np.eye(spec.d)
        for phi in phis:
            P = P @ phi
            P = P / P.sum()
        rho = float(np.linalg.eigvals(P).real.max())
        assert abs(mu0.sum() - 1.0) <= 1e-15 and abs(nu0.sum() - 1.0) <= 1e-15
        assert np.abs(mu0 @ P - rho * mu0).max() <= 1e-15 * rho
        assert np.abs(P @ nu0 - rho * nu0).max() <= 1e-15 * rho
        if name == "bj21":
            assert mu0[1] == 0.0


def test_small_coupling_periodic_lambda_at_zero():
    """Heights coupled by eps = 1e-5 leave the period product a spectral gap
    of order eps: rolled around the period, its directions do not repeat to
    1e-14 within 1e5 cycles, yet its Perron vectors are exact. The
    right-transient spec has Lambda(0) = 0 and a finite Lambda'(0), not the
    infinite estimate of a diverging solve."""
    eps = 1e-5
    slice_ = EnvironmentSlice(
        q=np.array([[0.3 - eps, eps], [eps, 0.4 - eps]]), r=np.zeros((2, 2)),
        p=np.array([[0.7 - eps, eps], [eps, 0.6 - eps]]),
    )
    spec = EnvironmentSpec(kind="periodic", d=2, kappa=0.99 * eps, slices=(slice_,))
    ev = LmgfEvaluator(spec)
    assert abs(ev.value(0.0).value) <= 1e-12
    assert math.isfinite(ev.derivative(0.0).value)


PINNED = json.loads(Path(__file__).with_name("pinned_estimates.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_estimates_pinned(name):
    """Every field of every estimate of the six estimators (value,
    derivative and their truncated versions, the infinite estimate of a
    diverging solve included) equals its pinned repr: the det and stat bars
    as well as the value."""
    assert [repr(e) for e in all_estimates(ROLL_SPECS[name]())] == PINNED[name]


def test_one_level_window_reports_unmeasured_stat_bars():
    """A one-level window has no spread to measure: every estimator,
    truncated ones included, reports its stat bar as unmeasured, inf, not
    as 0 or as the NaN of a one-sample standard deviation. A period's mean
    is exact, so its bar stays 0 at any n_levels."""
    ev = LmgfEvaluator(two_point_d1_spec([0.7, 0.8], [0.5, 0.5]), n_levels=1, seed=0)
    for est in (ev.value(-0.5), ev.derivative(-0.5),
                ev.value_truncated(-0.5, 16), ev.derivative_truncated(-0.5, 16)):
        assert est.n == 1 and est.statistical_error == math.inf
    ev = LmgfEvaluator(period3_d2_spec(), n_levels=1)
    for est in (ev.value(-0.5), ev.derivative(-0.5),
                ev.value_truncated(-0.5, 16), ev.derivative_truncated(-0.5, 16)):
        assert est.statistical_error == 0.0


# ---------------------------------------------------------------------------
# one analysis core for a spec and its reflection
# ---------------------------------------------------------------------------

REFLECTION_SPECS = {
    "p075": lambda: homogeneous_d1_spec(0.75, kappa=0.25),
    "p025": lambda: homogeneous_d1_spec(0.25, kappa=0.25),
    "recurrent": lambda: homogeneous_d1_spec(0.5, kappa=0.4),
    "window-d2": lambda: random_d2_iid_spec(1, drift=0.4),
    "period3-d2": period3_d2_spec,
}


@pytest.mark.parametrize("name", sorted(REFLECTION_SPECS))
def test_reflection_analysis_from_the_swapped_pair(name):
    """On one pair of evaluators, the spec's and its reflection's, the pair
    and the swapped pair give analyze_environment of the spec and of the
    reflected spec, every field to the last bit."""
    spec = REFLECTION_SPECS[name]()
    ev = LmgfEvaluator(spec, n_levels=800, seed=0)
    ev_inv = LmgfEvaluator(spec.invert(), n_levels=800, seed=0)
    for got, want in ((_analyze_pair(ev, ev_inv), analyze_environment(spec, 800, 0)),
                      (_analyze_pair(ev_inv, ev), analyze_environment(spec.invert(), 800, 0))):
        assert repr(got.as_dict()) == repr(want.as_dict())


# ---------------------------------------------------------------------------
# the truncated tilt lambda_{t,M}: safeguarded Newton on Lambda'_M = t
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t, M", [(2.5, 16), (3.0, 16), (3.0, 24)])
def test_tilt_matches_the_closed_form(t, M):
    """At d = 1, lambda_{t,M} is the tilt whose tilted mean of the Catalan
    excursion law is t; solve_tilt finds it to 1e-12."""
    ev = LmgfEvaluator(homogeneous_d1_spec(0.75), n_levels=200)
    assert abs(ev.solve_tilt(t, M) - d1_truncated_ldp(0.75, t, M).lam) <= 1e-12


TILT_SPECS = {
    "two-point": lambda: two_point_d1_spec([0.7, 0.8], [0.5, 0.5]),
    "d2": lambda: random_d2_iid_spec(1, drift=0.4),
}


@pytest.mark.parametrize("n", [200, 1000])
@pytest.mark.parametrize("name", sorted(TILT_SPECS))
def test_tilt_certificate_and_cost(name, n, monkeypatch):
    """On the windows and depths of the benchmark's Monte Carlo workload,
    each solve from lambda = 0 passes over the kernel stack at most 8
    times and ends where |Lambda'_M - t| <= 1e-13 t."""
    ev = LmgfEvaluator(TILT_SPECS[name](), n_levels=n, seed=0, margin=320)
    passes = []
    truncated_phis = lmgf.truncated_phis

    def counted(ker, lam):
        passes.append(lam)
        return truncated_phis(ker, lam)

    monkeypatch.setattr(lmgf, "truncated_phis", counted)
    for M in (16, 24):
        for t in (2.0, 3.0, 4.0, 5.0, 6.0):
            passes.clear()
            lam = ev.solve_tilt(t, M)
            assert len(passes) <= 8 and lam in passes, (M, t, passes)
            assert type(lam) is float
            assert abs(ev.derivative_truncated(lam, M).value - t) <= 1e-13 * t, (M, t)


@pytest.mark.parametrize("name", sorted(TILT_SPECS))
def test_tilt_from_far_starts(name):
    """From starts far on either side of the root, through the doubled
    trial ends and the bisections of the bracket, a solve at t near 1 or
    near M - 2 ends with the certificate |Lambda'_M - t| <= 1e-13 t, and
    J_M there agrees with the solve from lambda = 0 to 1e-12."""
    ev = LmgfEvaluator(TILT_SPECS[name](), n_levels=200, seed=0, margin=320)

    def j_m(lam, t):
        return lam * t - ev.value_truncated(lam, 16).value

    for t in (1.001, 13.9):
        lam0 = ev.solve_tilt(t, 16)
        for start in (-20.0, 5.0, 20.0):
            lam = ev.solve_tilt(t, 16, start)
            assert abs(ev.derivative_truncated(lam, 16).value - t) <= 1e-13 * t, (t, start)
            assert abs(j_m(lam, t) - j_m(lam0, t)) <= 1e-12, (t, start)


def test_float_mean_is_numpys():
    """lmgf._mean, which the periodic estimates take on float lists, gives
    np.mean's bits on 1 to 40 terms of mixed signs and magnitudes (numpy
    adds fewer than 8 in order from 0.0 and sums more pairwise)."""
    rng = np.random.default_rng(3)
    for n in range(1, 41):
        for _ in range(50):
            terms = (rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n)).tolist()
            got = lmgf._mean(terms)
            assert type(got) is float and got == float(np.mean(terms))
