import json
import math
from pathlib import Path

import numpy as np
import pytest

from stripldp.env import (
    EnvironmentSpec,
    embed_bounded_jump,
    homogeneous_d1_spec,
    lambda_crit_cap,
    two_point_d1_spec,
)
from stripldp.lmgf import LmgfEvaluator, analyze_environment
from stripldp.rates import (
    TiltedMeasure,
    _TiltFamily,
    _analyze_pair,
    _rate,
    averaged_rate_upper,
    averaged_speed_upper,
    golden_max,
    hitting_rate_curve,
    legendre_point,
    speed_rate_curve,
)

from conftest import (
    cramer_speed_rate,
    d1_lambda_crit,
    d1_phi_closed,
    random_d2_iid_spec,
    refined_t_grid,
)


def brute_force_J(p, t, lam_lo=-12.0, n_pts=200_001):
    lam_hi = d1_lambda_crit(p) - 1e-12
    grid = np.linspace(lam_lo, lam_hi, n_pts)
    vals = [l * t - math.log(d1_phi_closed(p, l)) for l in grid]
    return max(vals)


@pytest.fixture(scope="module")
def p075_analysis(p075_spec):
    return analyze_environment(p075_spec, n_levels=2000, seed=0)


@pytest.fixture(scope="module")
def p075_evaluator(p075_spec):
    return LmgfEvaluator(p075_spec, n_levels=2000, seed=0)


def test_golden_max_quadratic():
    x, v = golden_max(lambda u: -(u - 0.3) ** 2 + 1.0, -2.0, 2.0, xtol=1e-10)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert v == pytest.approx(1.0, abs=1e-14)


def test_legendre_at_lln_point(p075_evaluator, p075_analysis):
    lc = p075_analysis.lambda_crit
    ev = p075_evaluator
    j, lam, _, _ = legendre_point(ev.value, ev.derivative, 2.0, lc.bracket[0], 0.25)
    assert abs(j) < 1e-10
    assert abs(lam) < 1e-4


def test_legendre_at_one(p075_evaluator, p075_analysis):
    lc = p075_analysis.lambda_crit
    ev = p075_evaluator
    j, lam, _, _ = legendre_point(ev.value, ev.derivative, 1.0, lc.bracket[0], 0.25)
    assert j == pytest.approx(-math.log(0.75), abs=1e-12)
    assert lam == -30.0


def test_legendre_below_one_infinite(p075_evaluator):
    ev = p075_evaluator
    j, lam, _, _ = legendre_point(ev.value, ev.derivative, 0.7, 0.14, 0.25)
    assert j == math.inf


def test_legendre_brute_force_grid(p075_evaluator, p075_analysis):
    lc = p075_analysis.lambda_crit
    ev = p075_evaluator
    for t in (1.5, 3.0, 5.0):
        j, _, _, _ = legendre_point(ev.value, ev.derivative, t, lc.bracket[0], 0.25)
        assert j == pytest.approx(brute_force_J(0.75, t), abs=1e-6)


def test_legendre_linear_branch_exact(p075_evaluator):
    # synthetic evaluator check of the t >= t* branch: exact linear values
    j, lam, _, _ = legendre_point(
        p075_evaluator.value, p075_evaluator.derivative, 800.0, 0.1438, 0.25,
        t_star=700.0, value_at_crit=0.55,
    )
    assert j == pytest.approx(0.1438 * 800.0 - 0.55, abs=1e-12)
    assert lam == 0.1438


def test_hitting_curve_shape(p075_spec, p075_analysis):
    grid = refined_t_grid(2.0, 1.0, 6.0, 21)
    curve = hitting_rate_curve(p075_spec, grid, n_levels=2000, seed=0,
                               analysis=p075_analysis)
    assert curve.warnings == []
    assert curve.kind == "hitting"
    i0 = int(np.argmin(np.abs(curve.abscissae - 2.0)))
    assert curve.values[i0] < 1e-10
    left = curve.values[curve.abscissae <= 2.0]
    right = curve.values[curve.abscissae >= 2.0]
    assert (np.diff(left) <= 1e-9).all()
    assert (np.diff(right) >= -1e-9).all()


def test_hitting_curve_grid_validation(p075_spec, p075_analysis):
    with pytest.raises(ValueError):
        hitting_rate_curve(p075_spec, [0.5, 2.0], analysis=p075_analysis)
    with pytest.raises(ValueError):
        hitting_rate_curve(p075_spec, [2.0, 3.0], M=4, analysis=p075_analysis)


def test_truncated_curve_monotone_in_M(p075_spec, p075_analysis):
    vals = []
    for M in (8, 16, 32, 64):
        curve = hitting_rate_curve(p075_spec, [3.0], n_levels=500, seed=0,
                                   M=M, analysis=p075_analysis)
        vals.append(curve.values[0])
        # the maximizer satisfies Lambda'_M(lambda_{t,M}) = t by construction
        ev = LmgfEvaluator(p075_spec, n_levels=500, seed=0)
        assert ev.derivative_truncated(curve.maximizer_trace[0], M).value == \
            pytest.approx(3.0, abs=1e-6)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(brute_force_J(0.75, 3.0), abs=1e-3)


def test_warm_started_truncated_curve_matches_single_points():
    """Each grid point's tilt search starts from the previous point's tilt;
    along the benchmark's 2:1:6 grid, J_M and its tilt agree with
    one-point curves to 1e-12."""
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    curve = hitting_rate_curve(spec, np.arange(2.0, 6.5), n_levels=1000, M=16)
    for t, j, lam in zip(curve.abscissae, curve.values, curve.maximizer_trace):
        single = hitting_rate_curve(spec, [t], n_levels=1000, M=16, analysis=curve.metadata)
        assert abs(j - single.values[0]) <= 1e-12
        assert abs(lam - single.maximizer_trace[0]) <= 1e-12


def test_recurrent_rate_positive_decaying(recurrent_spec):
    an = analyze_environment(recurrent_spec, n_levels=1500, seed=0)
    grid = np.array([1.5, 3.0, 8.0, 20.0, 60.0])
    curve = hitting_rate_curve(recurrent_spec, grid, n_levels=1500, seed=0,
                               analysis=an)
    assert (curve.values > 0).all()
    assert (np.diff(curve.values) < 0).all()
    assert curve.values[-1] < 0.02  # inf_t J = lim J(t) = 0


def test_left_transient_inf_rate(p025_spec):
    an = analyze_environment(p025_spec, n_levels=1500, seed=0)
    grid = np.array([1.5, 2.5, 4.0, 8.0, 16.0])
    curve = hitting_rate_curve(p025_spec, grid, n_levels=1500, seed=0, analysis=an)
    # inf_t J = -Lambda(0) = log 3 for p = 1/4, recorded on the curve
    assert curve.values.min() >= math.log(3.0) - 1e-6
    assert curve.inf_rate == pytest.approx(math.log(3.0), abs=1e-8)
    assert "inf_rate=" in curve.to_csv()


def test_speed_curve_values(p075_spec, p075_analysis):
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    curve = speed_rate_curve(p075_spec, grid, n_levels=2000, seed=0,
                             analysis=p075_analysis)
    assert curve.values[3] < 1e-10  # zero at v0
    assert curve.values[2] == pytest.approx(d1_lambda_crit(0.75), abs=1e-5)
    assert curve.values[4] == pytest.approx(-math.log(0.75), abs=1e-10)
    # I(-0.5) = 0.5 * J_inv(2) against the p=0.25 brute force
    assert curve.values[1] == pytest.approx(0.5 * brute_force_J(0.25, 2.0), abs=1e-6)
    assert curve.warnings == []


def test_speed_symmetric_spec(recurrent_spec):
    an = analyze_environment(recurrent_spec, n_levels=1500, seed=0)
    grid = np.array([-0.8, -0.4, -0.1, 0.1, 0.4, 0.8])
    curve = speed_rate_curve(recurrent_spec, grid, n_levels=1500, seed=0,
                             analysis=an)
    assert np.abs(curve.values - curve.values[::-1]).max() < 1e-8


def test_duality_roundtrip(p075_spec, p075_analysis, p075_evaluator):
    # sup_t { lambda t - J(t) } recovers Lambda(lambda) on a fine grid
    grid = np.linspace(1.0, 12.0, 140)
    curve = hitting_rate_curve(p075_spec, grid, n_levels=2000, seed=0,
                               analysis=p075_analysis)
    for lam in (-0.5, 0.0, 0.1):
        rec = (lam * grid - curve.values).max()
        assert rec == pytest.approx(p075_evaluator.value(lam).value, abs=2e-3)


def test_tilted_measure_entropy():
    tm = TiltedMeasure(weights=(0.5, 0.5), base_weights=(0.5, 0.5))
    assert tm.entropy == 0.0
    tm2 = TiltedMeasure(weights=(0.7, 0.3), base_weights=(0.5, 0.5))
    assert tm2.entropy > 0.0
    with pytest.raises(ValueError):
        TiltedMeasure(weights=(0.7, 0.2), base_weights=(0.5, 0.5))


def test_averaged_point_mass_equals_quenched():
    spec = two_point_d1_spec([0.75], [1.0])
    grid = np.array([1.8, 2.5, 3.5])
    up = averaged_rate_upper(spec, grid, n_levels=1200, seed=0)
    q = hitting_rate_curve(spec, grid, n_levels=1200, seed=0)
    assert np.abs(up.values - q.values).max() <= 1e-9


def test_averaged_two_point_bounds():
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    an = analyze_environment(spec, n_levels=2000, seed=0)
    t0 = an.t0
    grid = np.array([round(t0, 3), 4.0])
    up = averaged_rate_upper(spec, grid, n_levels=2000, seed=0)
    q = hitting_rate_curve(spec, grid, n_levels=2000, seed=0, analysis=an)
    assert (up.values <= q.values + 1e-9).all()
    assert up.values[0] < 1e-6  # zero set shared with the quenched rate
    assert up.warnings == []  # weak duality holds
    # pure environments are feasible points of the variational problem
    for p_pure, w_idx in ((0.7, 0), (0.8, 1)):
        h_point = -math.log(0.5)  # KL(point mass || (1/2,1/2)) per level
        assert up.values[1] <= brute_force_J(p_pure, 4.0) + h_point + 1e-6


def test_averaged_speed_upper_bounds():
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    grid = np.array([-0.4, 0.0, 0.3, 0.5])
    iu = averaged_speed_upper(spec, grid, n_levels=1200, seed=0)
    # share the analysis so both curves carry the same lambda_crit at x=0
    ic = speed_rate_curve(spec, grid, n_levels=1200, seed=0,
                          analysis=iu.metadata)
    assert (iu.values <= ic.values + 1e-9).all()
    assert iu.values[1] == pytest.approx(
        ic.metadata.lambda_crit.lambda_crit, abs=1e-9)
    # zero at the LLN speed
    an = iu.metadata
    v0_grid = np.array([an.v0])
    iu0 = averaged_speed_upper(spec, v0_grid, n_levels=1200, seed=0)
    assert iu0.values[0] < 1e-6


def test_averaged_speed_metadata_is_the_spec_analysis(monkeypatch):
    """With no x > 0 point the curve still reports the spec's own analysis,
    and I(0) is the lambda_crit a grid with an x > 0 point reports. Each
    curve runs that one analysis and none of the reflection."""
    from stripldp import rates

    analyzed = []

    def counted(spec, *args, **kwargs):
        analyzed.append(spec.content_hash())
        return analyze_environment(spec, *args, **kwargs)

    monkeypatch.setattr(rates, "analyze_environment", counted)
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    neg = averaged_speed_upper(spec, [-0.4, 0.0], n_levels=300, seed=0)
    assert analyzed == [spec.content_hash()]
    both = averaged_speed_upper(spec, [-0.4, 0.0, 0.5], n_levels=300, seed=0)
    assert analyzed == [spec.content_hash()] * 2
    md = neg.metadata
    assert md.spec_hash == spec.content_hash() != spec.invert().content_hash()
    assert md.regime == "transient-right" and md.v0 > 0
    assert neg.values[1] == both.values[1]
    assert repr(md.as_dict()) == repr(both.metadata.as_dict())


def test_csv_format_and_metadata(p075_spec, p075_analysis):
    curve = hitting_rate_curve(p075_spec, [1.5, 2.0], n_levels=500, seed=3,
                               analysis=p075_analysis)
    text = curve.to_csv()
    assert "# kind=hitting" in text
    assert "# t0=" in text and "# spec_hash=" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "abscissa,value,argmax_lambda,det_error,stat_error"
    assert len(body) == 3
    first = body[1].split(",")
    assert float(first[0]) == 1.5


def test_refined_grid_clusters():
    g = refined_t_grid(2.0, 1.0, 6.0, 31)
    assert g[0] == 1.0 and g[-1] == 6.0
    assert 2.0 in g
    spacing_near = np.diff(g)[np.argmin(np.abs(g[:-1] - 2.0))]
    assert spacing_near < 0.01


def test_speed_curve_midpoint_convex_through_zero(p075_spec, p075_analysis):
    grid = np.linspace(-0.9, 0.9, 13)
    curve = speed_rate_curve(p075_spec, grid, n_levels=1500, seed=0,
                             analysis=p075_analysis)
    v = curve.values
    for i in range(1, len(grid) - 1):
        assert v[i] <= 0.5 * (v[i - 1] + v[i + 1]) + 1e-6


def test_averaged_dual_check_near_criticality():
    # shorter windows put the top of the dual lambda-grid past the window's
    # own divergence onset; the cross-check must skip uncertifiable points
    # rather than compare against garbage finite values (regression)
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    grid = np.array([2.2, 2.6, 3.0, 3.4])
    up = averaged_rate_upper(spec, grid, n_levels=1200, seed=0)
    q = hitting_rate_curve(spec, grid, n_levels=1200, seed=0)
    assert up.warnings == []
    assert (up.values <= q.values + 1e-9).all()


def test_lambda_memo_one_solve_per_distinct_lambda(p075_spec, p075_analysis, monkeypatch):
    import stripldp.lmgf as lmgf
    from stripldp import rates
    from stripldp.cli import parse_grid

    grid = parse_grid("1:0.1:6")
    solved, asked = [], []
    solve = lmgf.solve_phi_periodic
    value, derivative = LmgfEvaluator.value, LmgfEvaluator.derivative

    def counted_solve(spec, lam, *args, **kwargs):
        solved.append(lam)
        return solve(spec, lam, *args, **kwargs)

    def asking(method):
        def counted(self, lam):
            asked.append(lam)
            return method(self, lam)
        return counted

    monkeypatch.setattr(lmgf, "solve_phi_periodic", counted_solve)
    monkeypatch.setattr(LmgfEvaluator, "value", asking(value))
    monkeypatch.setattr(LmgfEvaluator, "derivative", asking(derivative))
    curve = hitting_rate_curve(p075_spec, grid, n_levels=2000, seed=0,
                               analysis=p075_analysis)
    # one Phi solve per distinct lambda asked of Lambda or Lambda': the two
    # share it, and neither memo nor the last solve answers a lambda unsolved
    assert len(solved) == len(set(solved)) == len(set(asked))
    monkeypatch.setattr(LmgfEvaluator, "value", value)
    monkeypatch.setattr(LmgfEvaluator, "derivative", derivative)

    # a second curve on the same evaluator asks for the same lambdas, and
    # the memo answers every one: it solves nothing
    ev = LmgfEvaluator(p075_spec, n_levels=2000, seed=0)
    first = rates._curve(grid, rates._rate(ev, p075_analysis), "hitting", p075_analysis, 0)
    solved.clear()
    second = rates._curve(grid, rates._rate(ev, p075_analysis), "hitting", p075_analysis, 0)
    assert solved == []
    assert second.to_csv() == first.to_csv() == curve.to_csv()

    # with the memos bypassed every call solves again (a search starts from
    # the lambdas its neighbour evaluated), and the CSV is the same
    monkeypatch.setattr(LmgfEvaluator, "value", LmgfEvaluator._value)
    monkeypatch.setattr(LmgfEvaluator, "derivative", LmgfEvaluator._derivative)
    solved.clear()
    again = hitting_rate_curve(p075_spec, grid, n_levels=2000, seed=0,
                               analysis=p075_analysis)
    assert len(solved) > len(set(solved))
    assert again.to_csv() == curve.to_csv()
    monkeypatch.setattr(LmgfEvaluator, "derivative", derivative)

    # Lambda' likewise: a speed curve analyzes the spec and its reflection on
    # one pair of evaluators, and the reflection's analysis asks the spec's
    # evaluator for Lambda' at lambdas that the spec's analysis solved
    monkeypatch.setattr(LmgfEvaluator, "value", value)
    derived = []
    derive = lmgf.periodic_phi_derivative

    def counted_derivative(spec, lam, *args, **kwargs):
        derived.append((id(spec), lam))
        return derive(spec, lam, *args, **kwargs)

    monkeypatch.setattr(lmgf, "periodic_phi_derivative", counted_derivative)
    x_grid = np.linspace(-0.9, 0.9, 7)
    speed = speed_rate_curve(p075_spec, x_grid, n_levels=2000, seed=0)
    assert derived and len(derived) == len(set(derived))
    monkeypatch.setattr(LmgfEvaluator, "derivative", LmgfEvaluator._derivative)
    derived.clear()
    again = speed_rate_curve(p075_spec, x_grid, n_levels=2000, seed=0)
    assert len(derived) > len(set(derived))
    assert again.to_csv() == speed.to_csv()



def test_tilts_keep_the_bounded_jump_marker():
    """A tilt reweights the support and keeps every other field: the (2,1)
    slices pass validation only as a bounded-jump spec, and alpha = eta is the
    spec itself."""
    kernels = ([0.35, 0.35, 0.0, 0.30], [0.30, 0.40, 0.0, 0.30])
    embedded = [embed_bounded_jump(k, 2, 1) for k in kernels]
    spec = EnvironmentSpec(
        kind="iid", d=2, kappa=min(e.kappa for e in embedded),
        slices=tuple(e.slices[0] for e in embedded), weights=(0.5, 0.5),
        bounded_jump=(2, 1),
    )
    fam = _TiltFamily(spec, 300, 0)
    assert fam.evaluator(fam.base).spec.content_hash() == spec.content_hash()


def test_r_greater_than_l_bounded_jump_speed_is_cramer():
    """The direct (1,2) embedding has zero rows [1, 2) and zero columns
    [0, 1) in q, the mirror of the (2,1) pattern; it validates, and its speed
    rate on x > 0 is Cramér's rate of the kernel."""
    kernel = [0.4, 0.1, 0.25, 0.25]
    spec = embed_bounded_jump(kernel, 1, 2)
    xs = [0.1, 0.3, 0.5, 0.7, 0.9]
    curve = speed_rate_curve(spec, xs)
    for x, got in zip(xs, curve.values):
        assert abs(got - cramer_speed_rate(kernel, 1, spec.d, x)) <= 1e-10


def test_bounded_jump_hitting_rate_at_one_step():
    """On the L = R = 2 kernel, J(1) = -lim (Lambda(lambda) - lambda) as
    lambda -> -inf: the log of the Perron root of p = [[1/4, 0], [1/4, 1/4]],
    log 4. That root is double with one eigenvector, so rolling directions
    around the period until they repeat converges only like 1/n there; the
    Perron vector of the period product gives a finite Lambda at the search's
    lambda = -30 end, and no shape warning."""
    spec = embed_bounded_jump([0.2, 0.2, 0.1, 0.25, 0.25], 2, 2)
    curve = hitting_rate_curve(spec, [1.0, 2.0, 3.0])
    assert math.isfinite(curve.values[0])
    assert abs(curve.values[0] - math.log(4.0)) <= 1e-6
    assert curve.warnings == []


def test_tilt_bound_depends_only_on_t():
    """Tilt searches warm-start from each other within one bound, never
    across bounds: a bound asked again after another t is bit for bit the
    first, as is one from a fresh family."""
    fam = _TiltFamily(_two_point(), 300, 0)
    first = fam.bound(3.0)
    fam.bound(2.0)
    assert repr(fam.bound(3.0)) == repr(first)
    assert repr(_TiltFamily(_two_point(), 300, 0).bound(3.0)) == repr(first)


def full_coordinate_ascent(f, free0, w_floor, rounds=4, xtol=1e-4):
    """The coordinate ascent with neither early stop: every round searches
    every weight, until a round gains less than 1e-9. Returns (free, best)
    and the (weight, kept) of each search, in order."""
    free = free0.copy()
    best = f(free)
    searches = []
    for _ in range(rounds):
        improved = 0.0
        for i in range(len(free)):
            hi = 1.0 - (free.sum() - free[i]) - w_floor
            if hi <= w_floor:
                continue

            def h(u, i=i):
                trial = free.copy()
                trial[i] = u
                return f(trial)

            u_star, val = golden_max(h, w_floor, hi, xtol=xtol)
            kept = bool(val > best + 1e-12)
            searches.append((i, kept))
            if kept:
                improved += val - best
                best = val
                free[i] = u_star
        if improved < 1e-9:
            break
    return (free, best), searches


@pytest.mark.parametrize("weights, coupling, want_searches", [
    ((0.5, 0.5), 0.0, 1),  # one free weight: one golden search, not two
    ((0.2, 0.3, 0.5), 0.3, 7),  # two: the full ascent's 8th search repeats the 6th
])
def test_coordinate_ascent_stops_on_the_last_mover(weights, coupling, want_searches,
                                                   monkeypatch):
    """On a concave objective the ascent returns the full ascent's (free,
    best) bit for bit, and stops on coming back to the weight whose step was
    kept last, with no kept step since."""
    from stripldp import rates

    fam = _TiltFamily(two_point_d1_spec([0.6, 0.7, 0.8][:len(weights)], weights), 10, 0)

    def f(x):
        y = x - np.array([0.3, 0.2])[:len(x)]
        return float(-(y * y).sum() - coupling * y.prod())

    want, searches = full_coordinate_ascent(f, fam.base_free, fam.w_floor)
    last, stop = None, len(searches)
    for k, (i, kept) in enumerate(searches):
        if i == last:
            stop = k
            break
        if kept:
            last = i
    assert stop == want_searches < len(searches)

    searched = []

    def golden_counted(*args, **kwargs):
        searched.append(args)
        return golden_max(*args, **kwargs)

    monkeypatch.setattr(rates, "golden_max", golden_counted)
    got = fam._coordinate_ascent(f, fam.base_free)
    assert len(searched) == want_searches
    assert repr(got) == repr(want)


def test_coordinate_ascent_certified_stop():
    """`certified` is asked after the first evaluation and after each kept
    step; the ascent returns the first point where it holds."""
    fam = _TiltFamily(two_point_d1_spec([0.6, 0.7, 0.8], (0.2, 0.3, 0.5)), 10, 0)

    def f(x):
        y = x - np.array([0.3, 0.2])
        return float(-(y * y).sum() - 0.3 * y.prod())

    asked = []

    def certified(best):
        asked.append(best)
        return len(asked) == 3

    free, best = fam._coordinate_ascent(f, fam.base_free, certified=certified)
    (_, full), searches = full_coordinate_ascent(f, fam.base_free, fam.w_floor)
    assert [kept for _, kept in searches[:2]] == [True, True]
    assert best == asked[-1] == f(free) < full
    assert asked[0] == f(fam.base_free) < asked[1] < asked[2]
    free, best = fam._coordinate_ascent(f, fam.base_free, certified=lambda b: True)
    assert list(free) == list(fam.base_free) and best == asked[0]


def test_two_point_seed16_weak_duality_warning_pinned():
    """The one known weak-duality violation, t = 4 on the two-point spec at
    seed 16 and 300 levels: its dual comes from a lambda whose ascent ran in
    full, so the early stops leave its every digit."""
    curve = averaged_rate_upper(_two_point(), [4.0], n_levels=300, seed=16)
    assert curve.warnings == [
        "weak duality violated at t=4.0: dual 0.13976537287665752 > upper "
        "0.12992461569095948"]


@pytest.mark.parametrize("name", ["averaged-hitting-two-point", "averaged-hitting-d2"])
def test_dual_early_stops_are_certified(name, monkeypatch):
    """On the pinned averaged curves, each envelope value of the weak-duality
    check is at most the full ascent's at its lambda, the full one where the
    ascent did not stop early, and where it did, it passes the check at
    every t of the curve."""
    full_lower = _TiltFamily.lambda_family_lower
    calls = []

    def recorded(fam, lam, certified=None):
        fired = []

        def watched(best):
            fired.append(certified(best))
            return fired[-1]

        env = full_lower(fam, lam, watched)
        calls.append((fam, lam, env, any(fired)))
        return env

    monkeypatch.setattr(_TiltFamily, "lambda_family_lower", recorded)
    curve = PINNED_CURVES[name]()
    assert len(calls) == 12 and any(stopped for *_, stopped in calls)
    for fam, lam, env, stopped in calls:
        full = full_lower(fam, lam)
        if stopped:
            assert env <= full
            assert all(lam * t - env <= upper + 1e-6
                       for t, upper in zip(curve.abscissae, curve.values))
        else:
            assert repr(env) == repr(full)


# ---------------------------------------------------------------------------
# every curve kind pinned: CSV, tilt trace and warnings, byte for byte
# ---------------------------------------------------------------------------


def _two_point():
    return two_point_d1_spec([0.7, 0.8], [0.5, 0.5])


PINNED_CURVES = {
    "hitting-p075": lambda: hitting_rate_curve(
        homogeneous_d1_spec(0.75, kappa=0.25), [1.0, 2.0, 3.0, 5.0], n_levels=300),
    "hitting-two-point": lambda: hitting_rate_curve(
        _two_point(), [1.0, 2.0, 3.0, 5.0], n_levels=300),
    "truncated-hitting": lambda: hitting_rate_curve(
        _two_point(), [1.0, 2.0, 3.0], n_levels=300, M=16),
    "speed": lambda: speed_rate_curve(_two_point(), [-0.5, 0.0, 0.4], n_levels=300),
    "averaged-hitting-two-point": lambda: averaged_rate_upper(
        _two_point(), [2.0, 3.0], n_levels=300),
    "averaged-hitting-d2": lambda: averaged_rate_upper(
        random_d2_iid_spec(1, drift=0.4), [3.0], n_levels=200),
    "averaged-speed": lambda: averaged_speed_upper(
        _two_point(), [-0.4, 0.0, 0.5, 0.5], n_levels=300),
}


def curve_pin(curve) -> dict:
    return {"csv": curve.to_csv(), "tilt_trace": repr(curve.tilt_trace),
            "warnings": list(curve.warnings)}


@pytest.mark.parametrize("name", sorted(PINNED_CURVES))
def test_curves_pinned(name):
    """Every curve kind reproduces its pinned CSV (every value, maximizer and
    error bar as a round-tripping repr), tilt trace and warnings; rewrite the
    pins with tests/record_pins.py."""
    pinned = json.loads(Path(__file__).with_name("pinned_curves.json").read_text())
    assert curve_pin(PINNED_CURVES[name]()) == pinned[name]


# ---------------------------------------------------------------------------
# the Legendre search: the root of Lambda' = t against golden section
# ---------------------------------------------------------------------------

SEARCH_SPECS = {
    "p075": (lambda: homogeneous_d1_spec(0.75, kappa=0.25), 2000),
    "two-point": (_two_point, 3000),
    "d2": (lambda: random_d2_iid_spec(1, drift=0.4), 800),
}
SEARCH_GRID = np.arange(1.5, 6.01, 0.5)  # the step of the bench's two-point curve


@pytest.fixture(scope="module", params=sorted(SEARCH_SPECS))
def search_case(request):
    make, n = SEARCH_SPECS[request.param]
    spec = make()
    ev = LmgfEvaluator(spec, n_levels=n, seed=0)
    return ev, _analyze_pair(ev, LmgfEvaluator(spec.invert(), n_levels=n, seed=0))


def legendre_bracket_lo(t, kappa):
    return max(min(-10.0, math.log(kappa) / (t - 1.0) - 1.0), -37.0)


def counted(fn, calls):
    def wrapped(lam):
        calls.append(lam)
        return fn(lam)
    return wrapped


def test_legendre_root_against_golden(search_case, monkeypatch):
    """Along a grid, each point's search (warm-started from its neighbour)
    makes at most 12 Lambda' calls, its J agrees with golden section on the
    same bracket to 1e-12, and Lambda' misses t at its maximizer by no more
    than at golden's."""
    ev, an = search_case
    calls = []
    monkeypatch.setattr(ev, "derivative", counted(ev.derivative, calls))
    point = _rate(ev, an)
    lc = an.lambda_crit.bracket[0]
    for t in SEARCH_GRID:
        assert t < an.t_star
        calls.clear()
        j, lam, _, _ = point(t)
        assert len(calls) <= 12 and lam in calls

        def g(l):
            v = ev.value(l).value
            return l * t - v if math.isfinite(v) else -math.inf

        lam_g, j_g = golden_max(g, legendre_bracket_lo(t, ev.spec.kappa), lc)
        assert abs(j - j_g) <= 1e-12
        assert abs(ev.derivative(lam).value - t) <= abs(ev.derivative(lam_g).value - t)


def test_legendre_root_below_the_bracket_gives_its_end(p075_evaluator, p075_analysis):
    """With kappa = 1 the bracket starts at -10, above the root of
    Lambda' = 1 + 1e-12: the search returns the end, as golden section's
    maximum would lie there."""
    lc = p075_analysis.lambda_crit.bracket[0]
    t = 1.0 + 1e-12
    j, lam, _, _ = legendre_point(p075_evaluator.value, p075_evaluator.derivative,
                                  t, lc, 1.0)
    assert p075_evaluator.derivative(-10.0).value > t
    assert lam == -10.0
    assert j == -10.0 * t - p075_evaluator.value(-10.0).value


def test_legendre_search_up_to_a_supercritical_cap(search_case):
    """A bracket that ends at the a-priori cap, as over tilts, holds
    supercritical lambdas, whose infinite Lambda' counts as above t: from a
    cold start, and from a start at the cap itself, J is the one searched
    up to lambda_crit, at a lambda with a finite Lambda'."""
    ev, an = search_case
    cap = lambda_crit_cap(ev.spec.kappa)
    lc = an.lambda_crit.bracket[0]
    for t in (3.0, 6.0):
        j_lc, _, _, _ = legendre_point(ev.value, ev.derivative, t, lc, ev.spec.kappa)
        for start in ([], [cap]):
            calls = []
            from_cap = bool(start)
            j, lam, _, _ = legendre_point(ev.value, counted(ev.derivative, calls), t,
                                          cap, ev.spec.kappa, start=start)
            assert ev.derivative(calls[0]).supercritical == from_cap
            assert math.isfinite(ev.derivative(lam).value) and lam < lc
            assert abs(j - j_lc) <= 1e-12


def test_legendre_linear_branch_asks_no_derivative(p075_evaluator, p075_analysis):
    """Past t* the point is lambda_crit t - Lambda(lambda_crit - 1e-7), bit
    for bit, with no search."""
    lc = p075_analysis.lambda_crit.bracket[0]
    calls = []
    ev = p075_evaluator
    for t in (p075_analysis.t_star, 700.0, 800.0):
        got = legendre_point(ev.value, counted(ev.derivative, calls), t, lc, 0.25,
                             t_star=p075_analysis.t_star,
                             value_at_crit=ev.value(lc - 1e-7).value)
        assert repr(got) == repr((lc * t - ev.value(lc - 1e-7).value, lc, 0.0, 0.0))
    assert calls == []
