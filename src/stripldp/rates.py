"""Rate functions via Legendre transforms of the log-MGF.

Hitting-time rate J(t) = sup_lambda { lambda t - Lambda(lambda) }. Its
maximizer is the root of Lambda'(lambda) = t in the feasible bracket
[min(-10, K_t - 1), lambda_crit] with K_t = log(kappa)/(t-1) (the supremum
never lies below K_t), found by safeguarded secant steps on the exact
Lambda' (`_slope_root`). Each search starts from the lambdas that the
neighbouring grid point (or, over tilts, the previous tilt) evaluated last,
and the first grid point from the lambdas at which the analysis evaluated
t0 and t*; it ends on a lambda whose Lambda' was evaluated, so J there
reuses that Phi sweep. Piecewise structure: +infinity for t < 1; the
lambda -> -infinity limit at t = 1 (evaluated at lambda = -30, where the
residual is e^{-60}-scale); the exact linear branch lambda_crit * t -
Lambda(lambda_crit) for t past t*. Golden section remains only for the
coordinate ascent over tilt weights.

The truncated rate J_M(t) = lambda_{t,M} t - Lambda_M(lambda_{t,M}) takes
the tilt that solves Lambda'_M = t (`LmgfEvaluator.solve_tilt`, started
from the previous grid point's tilt), with the same t = 1 limit.

Speed rates come from I(x) = |x| J(1/|x|), read off the spec for x > 0 and
off its reflection for x < 0, and I(0) = lambda_crit (`_speed`).

Averaged rates are computed as certified *upper* bounds by restricting the
variational formula inf_alpha { J_alpha(t) + h(alpha|eta) } to product
measures over the support of an i.i.d. finite-support spec (tilted weights,
entropy = per-level KL). The true infimum runs over all ergodic measures
and is not finitely computable; Monte Carlo supplies independent lower
evidence, and the gap is reported, never reconciled.

Every curve is one `_curve` over its grid of a point function
a -> (value, argmax lambda, det_error, stat_error).
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .env import EnvironmentSpec, SpecValidationError, lambda_crit_cap
from .lmgf import (
    DEFAULT_MARGIN,
    SLOPE_MAX_EVALS,
    SLOPE_RTOL,
    SLOPE_XTOL,
    EnvironmentAnalysis,
    LmgfEvaluator,
    _classify,
    analyze_environment,
)
from .phi import estimate_lambda_crit

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LAMBDA_NEG_LIMIT = -30.0  # lambda used for the t = 1 limit


@dataclass(frozen=True)
class TiltedMeasure:
    """Product tilt of an i.i.d. finite-support spec: reweighted support."""

    weights: tuple[float, ...]
    base_weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights)
        b = np.asarray(self.base_weights)
        if (w <= 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("tilt weights must be positive and sum to 1")
        if w.shape != b.shape:
            raise ValueError("tilt must reweight the base support")

    @property
    def entropy(self) -> float:
        """Specific relative entropy h(tilt | base), nats per level."""
        return _kl(np.asarray(self.weights), np.asarray(self.base_weights))


@dataclass
class RateCurve:
    abscissae: np.ndarray
    values: np.ndarray
    kind: str  # hitting | truncated-hitting | speed | averaged-hitting-upper | averaged-speed-upper
    metadata: EnvironmentAnalysis
    maximizer_trace: np.ndarray  # optimal lambda per point (nan where branch is fixed)
    det_errors: np.ndarray
    stat_errors: np.ndarray
    seed: int | None = None
    M: int | None = None
    warnings: list[str] = field(default_factory=list)
    tilt_trace: list[TiltedMeasure] | None = None  # averaged kinds only
    inf_rate: float | None = None  # inf_t J = -Lambda(0) > 0 for left-transient specs

    def to_csv(self) -> str:
        buf = io.StringIO()
        md = self.metadata
        buf.write(f"# kind={self.kind}\n")
        buf.write(f"# lambda_crit_lo={md.lambda_crit.bracket[0]!r}\n")
        buf.write(f"# lambda_crit_hi={md.lambda_crit.bracket[1]!r}\n")
        buf.write(f"# t0={md.t0!r}\n")
        buf.write(f"# t_star={md.t_star!r}\n")
        buf.write(f"# v0={md.v0!r}\n")
        buf.write(f"# regime={md.regime}\n")
        buf.write(f"# spec_hash={md.spec_hash}\n")
        buf.write(f"# seed={self.seed}\n")
        if self.M is not None:
            buf.write(f"# M={self.M}\n")
        if self.inf_rate is not None:
            buf.write(f"# inf_rate={self.inf_rate!r}\n")
        for w in self.warnings:
            buf.write(f"# warning={w}\n")
        buf.write("abscissa,value,argmax_lambda,det_error,stat_error\n")
        for i in range(len(self.abscissae)):
            buf.write(
                f"{float(self.abscissae[i])!r},{float(self.values[i])!r},"
                f"{float(self.maximizer_trace[i])!r},{float(self.det_errors[i])!r},"
                f"{float(self.stat_errors[i])!r}\n"
            )
        return buf.getvalue()


def golden_max(f, lo: float, hi: float, xtol: float = 1e-9, max_iter: int = 200):
    """Golden-section maximization of a unimodal f on [lo, hi] -> (x*, f(x*))."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def legendre_point(
    value_fn,
    derivative_fn,
    t: float,
    lambda_crit: float,
    kappa: float,
    t_star: float = float("inf"),
    value_at_crit: float | None = None,
    start: list | None = None,
):
    """One point of the Legendre transform: (J(t), argmax lambda, errors).

    value_fn(lambda) and derivative_fn(lambda) -> LmgfEstimate of Lambda and
    Lambda'. The maximizer is the root of Lambda' = t in the bracket
    [lo, lambda_crit] (`_slope_root`, warm-started from `start`), and J is
    evaluated there. For t >= t* the linear branch lambda_crit * t -
    Lambda(lambda_crit) is returned exactly; the t = 1 boundary uses the
    lambda -> -infinity limit evaluated at -30.
    """
    if t < 1.0:
        return float("inf"), float("nan"), 0.0, 0.0
    if t == 1.0:
        est = value_fn(LAMBDA_NEG_LIMIT)
        return (LAMBDA_NEG_LIMIT - est.value, LAMBDA_NEG_LIMIT,
                est.deterministic_error, est.statistical_error)
    if t >= t_star and value_at_crit is not None:
        return lambda_crit * t - value_at_crit, lambda_crit, 0.0, 0.0

    k_t = math.log(kappa) / (t - 1.0)
    # below -37 the e^{2 lambda} corrections to Lambda sit under machine eps
    # and lambda t - Lambda decreases linearly, so the bracket can stop there
    lo = max(min(-10.0, k_t - 1.0), -37.0)
    lam_star = _slope_root(derivative_fn, t, lo, lambda_crit,
                           [] if start is None else start)
    est = value_fn(lam_star)
    return (lam_star * t - est.value, lam_star, est.deterministic_error,
            est.statistical_error)


def _slope_root(derivative_fn, t: float, lo: float, hi: float, start: list) -> float:
    """The lambda in [lo, hi] where Lambda'(lambda) = t: the maximizer of the
    concave lambda t - Lambda(lambda) there.

    Lambda' increases (Lambda is convex), and a non-finite Lambda'
    (supercritical) counts as above t. The lambdas of `start` that lie in
    [lo, hi] are evaluated first. Then each step is the secant through the
    two finite evaluations closest to the root, on u = 1/t^2 - 1/Lambda'^2:
    where Lambda' grows fastest, at a square-root branch point lambda_crit,
    Lambda' ~ c (lambda_crit - lambda)^(-1/2) and u is linear in lambda. A
    step that leaves the bracket [a, b] of the root bisects it instead,
    unless it crosses an end of [lo, hi] not yet evaluated: that end is
    evaluated next, and if the root lies beyond it, the bracket closes on
    that end, where the maximum sits. The search ends on the evaluated
    lambda closest to the root, once its |Lambda' - t| is at rounding level
    or the next secant step or the bracket is below SLOPE_XTOL. `start` is
    overwritten with the two closest evaluations, from which a search at a
    nearby t, or for a nearby Lambda, starts.
    """
    a, b = lo, hi
    a_known = b_known = False
    pts: list[tuple[float, float]] = []  # finite (lambda, u), closest first
    queue = [x for x in start if lo <= x <= hi]
    for _ in range(SLOPE_MAX_EVALS):
        if queue:
            x = queue.pop(0)
        else:
            x = math.nan
            if len(pts) >= 2:
                (x1, u1), (x0, u0) = pts[:2]
                if u1 != u0:
                    x = x1 - u1 * (x1 - x0) / (u1 - u0)
            if a < x < b:
                if abs(x - x1) <= SLOPE_XTOL:
                    break
            elif x <= a and not a_known:
                x = a
            elif x >= b and not b_known:
                x = b
            else:
                x = 0.5 * (a + b)
        v = derivative_fn(x).value
        if math.isfinite(v):
            pts.append((x, 1.0 / (t * t) - 1.0 / (v * v)))
            pts.sort(key=lambda p: abs(p[1]))
        if v < t and x >= a:
            a, a_known = x, True
        elif v > t and x <= b:
            b, b_known = x, True
        if abs(v - t) <= SLOPE_RTOL * t or b - a <= SLOPE_XTOL:
            break
    start[:] = [x for x, _ in pts[:2]]
    return pts[0][0] if pts else a


def _analyze_pair(ev: LmgfEvaluator, ev_inv: LmgfEvaluator) -> EnvironmentAnalysis:
    """analyze_environment(ev.spec, ev.n_levels, ev.seed) on evaluators already
    built; the swapped pair gives the reflection's analysis."""
    return _classify(ev, ev_inv, estimate_lambda_crit(ev.spec, seed=ev.seed))


def _rate(ev: LmgfEvaluator, analysis: EnvironmentAnalysis):
    """t -> legendre_point of J on ev; past t* the linear branch, with
    Lambda(lambda_crit) approached from below (one-sided error)."""
    lc = analysis.lambda_crit.bracket[0]
    v_crit = ev.value(lc - 1e-7).value if math.isfinite(analysis.t_star) else None
    # where the analysis of a transient spec evaluated Lambda' (t0, t*) on ev
    start = [-1e-6, lc - analysis.lambda_crit.tolerance]
    return lambda t: legendre_point(ev.value, ev.derivative, t, lc, ev.spec.kappa,
                                    t_star=analysis.t_star, value_at_crit=v_crit,
                                    start=start)


def _truncated_rate(ev: LmgfEvaluator, M: int):
    """t -> J_M(t) = lambda_{t,M} t - Lambda_M(lambda_{t,M}) on ev, with the
    t = 1 limit at LAMBDA_NEG_LIMIT as in legendre_point. Each tilt's search
    starts from the previous grid point's tilt."""
    start = [0.0]

    def point(t: float):
        if t == 1.0:
            lam = LAMBDA_NEG_LIMIT
        else:
            lam = start[0] = ev.solve_tilt(t, M, start[0])
        est = ev.value_truncated(lam, M)
        return lam * t - est.value, lam, est.deterministic_error, est.statistical_error
    return point


def _speed(rate, rate_inv, at_zero: tuple):
    """x -> |x| J(1/|x|), with J from rate for x > 0 and from the reflection's
    rate_inv for x < 0, and the point at_zero at x = 0."""
    def point(x: float):
        if x == 0.0:
            return at_zero
        ax = abs(x)
        j, lam, de, se = (rate if x > 0 else rate_inv)(1.0 / ax)
        return ax * j, lam, ax * de, ax * se
    return point


def _curve(grid, point, kind: str, analysis: EnvironmentAnalysis, seed, **fields) -> RateCurve:
    """The RateCurve of point(a) -> (value, argmax lambda, det, stat) on grid."""
    rows = np.array([point(float(a)) for a in grid], dtype=float).reshape(-1, 4)
    values, argmax, det, stat = rows.T.copy()
    return RateCurve(
        abscissae=grid, values=values, kind=kind, metadata=analysis,
        maximizer_trace=argmax, det_errors=det, stat_errors=stat, seed=seed,
        **fields,
    )


def hitting_rate_curve(
    spec: EnvironmentSpec,
    t_grid,
    n_levels: int = 3000,
    seed: int | None = 0,
    M: int | None = None,
    analysis: EnvironmentAnalysis | None = None,
) -> RateCurve:
    """J (or J_M) sampled on t_grid, with shape diagnostics as warnings.

    Grid points share one evaluator, so the lambdas that one point's search
    evaluated, from which the next point's search starts, cost it only a
    lookup; so does the analysis, unless a depth M > DEFAULT_MARGIN widens
    the curve's margin. Since a point's search starts from its
    predecessor's iterates, the last bits of J and of its maximizer depend
    on the grid as well as on t.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid < 1.0).any():
        raise ValueError("hitting-time grid must lie in [1, infinity)")
    if M is not None and M <= t_grid.max() + 2:
        raise ValueError(f"need M > max(t_grid) + 2, got M={M}")
    margin = max(M or 0, DEFAULT_MARGIN)
    ev = LmgfEvaluator(spec, n_levels=n_levels, seed=seed, margin=margin)
    if analysis is None:
        base = ev if margin == DEFAULT_MARGIN else LmgfEvaluator(spec, n_levels, seed)
        analysis = _analyze_pair(base, LmgfEvaluator(spec.invert(), n_levels, seed))

    point = _rate(ev, analysis) if M is None else _truncated_rate(ev, M)
    # left-transient, only a weak LDP holds: J never decays below -Lambda(0),
    # recorded separately so tail handling on non-compact sets stays honest
    inf_rate = -analysis.lambda_at_zero if analysis.regime == "transient-left" else None
    curve = _curve(t_grid, point, "hitting" if M is None else "truncated-hitting",
                   analysis, seed, M=M, inf_rate=inf_rate)
    curve.warnings.extend(_hitting_shape_warnings(curve))
    return curve


def _hitting_shape_warnings(curve: RateCurve) -> list[str]:
    out = []
    t, v = curve.abscissae, curve.values
    slack = 1e-6 + curve.det_errors + curve.stat_errors
    for i in range(1, len(t) - 1):
        if t[i + 1] - t[i - 1] <= 0:
            continue
        w = (t[i + 1] - t[i]) / (t[i + 1] - t[i - 1])
        interp = w * v[i - 1] + (1 - w) * v[i + 1]
        if v[i] > interp + slack[i] + slack[i - 1] + slack[i + 1]:
            out.append(f"convexity violated at t={t[i]}")
    if (v < -1e-12).any():
        out.append("negative rate value")
    t0 = curve.metadata.t0
    if math.isfinite(t0):
        left = v[t <= t0]
        if left.size > 1 and (np.diff(left) > slack[t <= t0][1:] + 1e-9).any():
            out.append("J not nonincreasing left of t0")
    return out


def speed_rate_curve(
    spec: EnvironmentSpec,
    x_grid,
    n_levels: int = 3000,
    seed: int | None = 0,
    analysis: EnvironmentAnalysis | None = None,
) -> RateCurve:
    """Speed rate I(x) on x_grid in [-1, 1]: x J(1/x) for x>0, the reflected
    spec for x<0, and lambda_crit at x=0 (with a continuity check near 0).
    One pair of evaluators serves both analyses and every grid point."""
    x_grid = np.asarray(x_grid, dtype=float)
    if (np.abs(x_grid) > 1.0 + 1e-12).any():
        raise ValueError("speed grid must lie in [-1, 1]")
    ev = LmgfEvaluator(spec, n_levels=n_levels, seed=seed)
    ev_inv = LmgfEvaluator(spec.invert(), n_levels=n_levels, seed=seed)
    if analysis is None:
        analysis = _analyze_pair(ev, ev_inv)
    lc = analysis.lambda_crit
    point = _speed(_rate(ev, analysis), _rate(ev_inv, _analyze_pair(ev_inv, ev)),
                   (lc.lambda_crit, float("nan"), lc.tolerance, 0.0))
    curve = _curve(x_grid, point, "speed", analysis, seed)
    if (x_grid == 0.0).any():
        i0 = point(0.02)[0]
        i0m = point(-0.02)[0]
        tol0 = 0.1 * max(1.0, lc.lambda_crit)
        if abs(i0 - lc.lambda_crit) > tol0 or abs(i0m - lc.lambda_crit) > tol0:
            curve.warnings.append("speed rate discontinuity suspected at x=0")
    return curve


# ---------------------------------------------------------------------------
# averaged rates: certified upper bounds over product tilts
# ---------------------------------------------------------------------------


def _tilted_spec(spec: EnvironmentSpec, weights: np.ndarray) -> EnvironmentSpec:
    """spec with its support reweighted; every other field is kept."""
    return dataclasses.replace(spec, weights=tuple(float(w) for w in weights))


def _kl(weights: np.ndarray, base: np.ndarray) -> float:
    return float((weights * np.log(weights / base)).sum())


class _TiltFamily:
    """J_alpha(t) + h(alpha|eta) over product tilts, with shared-seed windows
    (common random numbers) so alpha = eta reproduces the quenched J, up to
    the last bits in which two Legendre searches over different brackets
    (the cap here, the window's lambda_crit there) land.

    The quenched lambda_crit is a property of the support, and tilts keep
    the support, so every tilt shares lambda_crit(eta); only their window
    estimates of it differ. The Legendre search can safely run up to the
    a-priori cap -log(kappa^2/2): a supercritical Lambda' counts as above t
    and is never selected. Each tilt's search starts from the previous
    tilt's two best lambdas (the descent moves the weights a little at a
    time); the first tilt of each bound starts cold. Over a bound's 23 tilts
    on the two-point spec at 300 levels that is about 5.7 Lambda'
    evaluations a tilt at t = 3 (3.8 at t = 2, 7.3 at t = 5), and 4.4 over
    the 65 of random_d2_iid_spec(1, drift=0.4) at 200 levels and t = 3.
    """

    def __init__(self, spec: EnvironmentSpec, n_levels: int, seed, w_floor=1e-6):
        if spec.kind != "iid":
            raise SpecValidationError(
                "averaged bounds need an i.i.d. finite-support spec"
            )
        self.spec = spec
        self.n_levels = n_levels
        self.seed = seed
        self.base = np.asarray(spec.weights, dtype=float)
        self.base_free = self.base[:-1]  # simplex coordinates of alpha = eta
        self.w_floor = w_floor
        self.lambda_cap = lambda_crit_cap(spec.kappa)
        self._ev_cache: dict[tuple, LmgfEvaluator] = {}
        self._start: list = []  # the last Legendre search's iterates

    def evaluator(self, weights: np.ndarray) -> LmgfEvaluator:
        key = tuple(np.round(weights, 15))
        if key not in self._ev_cache:
            self._ev_cache[key] = LmgfEvaluator(
                _tilted_spec(self.spec, weights), self.n_levels, self.seed
            )
        return self._ev_cache[key]

    def base_analysis(self) -> EnvironmentAnalysis:
        return analyze_environment(
            self.spec, n_levels=self.n_levels, seed=self.seed,
            lambda_crit_tol=1e-5, lambda_crit_window=min(self.n_levels, 4000),
        )

    def objective(self, weights: np.ndarray, t: float) -> float:
        ev = self.evaluator(weights)
        j, _, _, _ = legendre_point(ev.value, ev.derivative, t, self.lambda_cap,
                                    self.spec.kappa, start=self._start)
        return j + _kl(weights, self.base)

    def bound(self, t: float) -> tuple[float, TiltedMeasure]:
        """min over tilts of J_alpha(t) + h(alpha|eta), by coordinate descent
        from alpha = eta (so never above J_eta(t) on the shared window), and
        its minimizer. The first search starts cold, so the bound depends
        only on t."""
        self._start.clear()
        free, neg = self._coordinate_ascent(
            lambda free: -self.objective(self._simplex(free), t), self.base_free
        )
        tilt = TiltedMeasure(weights=tuple(self._simplex(free)),
                             base_weights=tuple(self.base))
        return -neg, tilt

    def lambda_family_lower(self, lam: float, certified=None) -> float:
        """max over tilts of Lambda_alpha(lambda) - h(alpha|eta): a lower bound
        on the averaged log-MGF envelope, for the weak-duality cross-check.
        The ascent stops early, on a lower value, once `certified` holds for
        the best value so far.

        Near criticality the sampled window may already diverge; when even the
        base measure cannot be evaluated, no envelope value is certified there
        (+inf, which removes the point from the dual supremum). Finite-window
        values above the true critical tilt would otherwise masquerade as
        small Lambda values and inflate the dual spuriously.
        """
        def f(u_flat):
            w = self._simplex(u_flat)
            v = self.evaluator(w).value(lam).value
            return v - _kl(w, self.base) if math.isfinite(v) else -float("inf")
        if not math.isfinite(f(self.base_free)):
            return float("inf")
        return self._coordinate_ascent(f, self.base_free, certified=certified)[1]

    # simplex parametrization: S-1 free coordinates, last weight implied
    def _simplex(self, free: np.ndarray) -> np.ndarray:
        w = np.empty(len(free) + 1)
        w[:-1] = free
        w[-1] = 1.0 - free.sum()
        return np.clip(w, self.w_floor, 1.0)

    def _coordinate_ascent(self, f, free0, rounds=4, xtol=1e-4, certified=None):
        """(free, f(free)) after golden-section steps along one free weight at
        a time from free0, each kept only if it improves f.

        The sweep ends on coming back to the weight whose step was kept last:
        every search since then ran at the current point, and that one would
        search again the line its kept step searched, with the other weights
        unchanged. It ends too as soon as `certified(best)` holds, asked after
        the first evaluation and after each kept step."""
        free = free0.copy()
        best = f(free)
        if certified is not None and certified(best):
            return free, best
        last = None  # the weight whose step was kept last
        for _ in range(rounds):
            improved = 0.0
            for i in range(len(free)):
                if i == last:
                    return free, best
                hi = 1.0 - (free.sum() - free[i]) - self.w_floor
                if hi <= self.w_floor:
                    continue

                def h(u, i=i):
                    trial = free.copy()
                    trial[i] = u
                    return f(trial)

                u_star, val = golden_max(h, self.w_floor, hi, xtol=xtol)
                if val > best + 1e-12:
                    improved += val - best
                    best = val
                    free[i] = u_star
                    last = i
                    if certified is not None and certified(best):
                        return free, best
            if improved < 1e-9:
                break
        return free, best


def averaged_rate_upper(
    spec: EnvironmentSpec,
    t_grid,
    n_levels: int = 2000,
    seed: int | None = 0,
) -> RateCurve:
    """Certified upper bound on the averaged hitting rate over product tilts.

    Coordinate descent from alpha = eta over the tilted support weights;
    since product measures are ergodic, every evaluation J_alpha + KL is an
    upper bound on the averaged rate, and the start point reproduces the
    quenched J on the same window (so the bound exceeds J by rounding at
    most, as by 5e-17 at t = 2 on the two-point spec at 300 levels).
    Reports the weak-dual cross-check
    sup_lambda { lambda t - Lambda_family(lambda) } <= bound.

    Two stops end the coordinate ascents where going on cannot change the
    output. Every ascent, of a bound and of the check, returns on coming
    back to the weight whose step it kept last (with one free weight, right
    after the first kept step): every search since that step ran at the
    current point, and the next one would search the same line again,
    moving J_alpha only in the last bits of its Legendre searches, far
    below the 1e-12 gain that keeps a step. The check's ascent at each
    lambda of its grid also returns once its best value c gives
    lambda t - c <= upper + 1e-6 at every t of the curve, the float
    expression of the check itself. A full ascent only raises c, so that
    lambda can never warn; a warning's dual is then taken at a lambda whose
    ascent ran in full. The curve, its tilts and its warnings are those of
    the ascents without either stop.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    fam = _TiltFamily(spec, n_levels, seed)
    tilts: list[TiltedMeasure] = []

    def point(t: float):
        value, tilt = fam.bound(t)
        tilts.append(tilt)
        return value, float("nan"), 0.0, 0.0

    curve = _curve(t_grid, point, "averaged-hitting-upper", fam.base_analysis(),
                   seed, tilt_trace=tilts)
    if len(spec.slices) > 1:
        lc = curve.metadata.lambda_crit.bracket[0]
        lam_grid = np.linspace(min(-5.0, lc - 5.0), lc, 12)

        def certified(lam):
            return lambda best: all(lam * t - best <= upper + 1e-6
                                    for t, upper in zip(t_grid, curve.values))

        env = np.array([fam.lambda_family_lower(l, certified(l)) for l in lam_grid])
        for t, upper in zip(t_grid, curve.values):
            dual = float((lam_grid * t - env).max())
            if dual > upper + 1e-6:
                curve.warnings.append(
                    f"weak duality violated at t={t}: dual {dual} > upper {upper}"
                )
    return curve


def averaged_speed_upper(
    spec: EnvironmentSpec,
    x_grid,
    n_levels: int = 2000,
    seed: int | None = 0,
) -> RateCurve:
    """Upper bound on the averaged speed rate, assembled from the averaged
    hitting bounds of the spec (x>0) and of its reflection (x<0);
    lambda_crit at x=0. The metadata is the spec's own analysis."""
    x_grid = np.asarray(x_grid, dtype=float)
    fam = _TiltFamily(spec, n_levels, seed)
    fam_inv = _TiltFamily(spec.invert(), n_levels, seed)
    analysis = fam.base_analysis()

    def rate(family):
        return lambda t: (family.bound(t)[0], float("nan"), 0.0, 0.0)

    point = _speed(rate(fam), rate(fam_inv),
                   (analysis.lambda_crit.lambda_crit, float("nan"), 0.0, 0.0))
    return _curve(x_grid, point, "averaged-speed-upper", analysis, seed)
