"""Rate functions via Legendre transforms of the log-MGF.

Hitting-time rate J(t) = sup_lambda { lambda t - Lambda(lambda) }, computed
by golden-section over the feasible bracket [min(-10, K_t - 1), lambda_crit]
with K_t = log(kappa)/(t-1) (the supremum never lies below K_t). Piecewise
structure: +infinity for t < 1; the lambda -> -infinity limit at t = 1
(evaluated at lambda = -30, where the residual is e^{-60}-scale); the exact
linear branch lambda_crit * t - Lambda(lambda_crit) for t past t*.

Speed rates come from I(x) = x J(1/x) for x > 0, the reflected spec for
x < 0, and I(0) = lambda_crit.

Averaged rates are computed as certified *upper* bounds by restricting the
variational formula inf_alpha { J_alpha(t) + h(alpha|eta) } to product
measures over the support of an i.i.d. finite-support spec (tilted weights,
entropy = per-level KL). The true infimum runs over all ergodic measures
and is not finitely computable; Monte Carlo supplies independent lower
evidence, and the gap is reported, never reconciled.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .env import EnvironmentSpec, SpecValidationError
from .lmgf import DEFAULT_MARGIN, EnvironmentAnalysis, LmgfEvaluator, _classify, analyze_environment
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
    t: float,
    lambda_crit: float,
    kappa: float,
    t_star: float = float("inf"),
    value_at_crit: float | None = None,
    xtol: float = 1e-9,
):
    """One point of the Legendre transform: (J(t), argmax lambda, errors).

    value_fn(lambda) -> LmgfEstimate. For t >= t* the linear branch
    lambda_crit * t - Lambda(lambda_crit) is returned exactly; the t = 1
    boundary uses the lambda -> -infinity limit evaluated at -30.
    """
    if t < 1.0:
        return float("inf"), float("nan"), 0.0, 0.0
    if t == 1.0:
        est = value_fn(LAMBDA_NEG_LIMIT)
        return (LAMBDA_NEG_LIMIT - est.value, LAMBDA_NEG_LIMIT,
                est.deterministic_error, est.statistical_error)
    if t >= t_star and value_at_crit is not None:
        return lambda_crit * t - value_at_crit, lambda_crit, 0.0, 0.0

    def g(lam: float) -> float:
        v = value_fn(lam).value
        return lam * t - v if math.isfinite(v) else -float("inf")

    k_t = math.log(kappa) / (t - 1.0)
    # below -37 the e^{2 lambda} corrections to Lambda sit under machine eps
    # and lambda t - Lambda decreases linearly, so the bracket can stop there
    lo = max(min(-10.0, k_t - 1.0), -37.0)
    lam_star, j = golden_max(g, lo, lambda_crit, xtol=xtol)
    est = value_fn(lam_star)
    return j, lam_star, est.deterministic_error, est.statistical_error


def _analyze_pair(ev: LmgfEvaluator, ev_inv: LmgfEvaluator) -> EnvironmentAnalysis:
    """analyze_environment(ev.spec, ev.n_levels, ev.seed) on evaluators already
    built; the swapped pair gives the reflection's analysis."""
    return _classify(ev, ev_inv, estimate_lambda_crit(ev.spec, seed=ev.seed))


def _rate(ev: LmgfEvaluator, analysis: EnvironmentAnalysis):
    """t -> legendre_point of J on ev; past t* the linear branch, with
    Lambda(lambda_crit) approached from below (one-sided error)."""
    lc = analysis.lambda_crit.bracket[0]
    v_crit = ev.value(lc - 1e-7).value if math.isfinite(analysis.t_star) else None
    return lambda t: legendre_point(ev.value, t, lc, ev.spec.kappa,
                                    t_star=analysis.t_star, value_at_crit=v_crit)


def hitting_rate_curve(
    spec: EnvironmentSpec,
    t_grid,
    n_levels: int = 3000,
    seed: int | None = 0,
    M: int | None = None,
    analysis: EnvironmentAnalysis | None = None,
) -> RateCurve:
    """J (or J_M) sampled on t_grid, with shape diagnostics as warnings.

    Grid points share one evaluator, so a lambda that one point's golden
    search already evaluated costs another point only a lookup; so does the
    analysis, unless a depth M > DEFAULT_MARGIN widens the curve's margin.
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

    values = np.empty(len(t_grid))
    argmax = np.full(len(t_grid), float("nan"))
    det = np.zeros(len(t_grid))
    stat = np.zeros(len(t_grid))

    if M is None:
        rate = _rate(ev, analysis)
        for i, t in enumerate(t_grid):
            values[i], argmax[i], det[i], stat[i] = rate(float(t))
        kind = "hitting"
    else:
        for i, t in enumerate(t_grid):
            t = float(t)
            if t == 1.0:
                est = ev.value_truncated(LAMBDA_NEG_LIMIT, M)
                values[i] = LAMBDA_NEG_LIMIT - est.value
                argmax[i] = LAMBDA_NEG_LIMIT
            else:
                lam_t = ev.solve_tilt(t, M)
                est = ev.value_truncated(lam_t, M)
                values[i] = lam_t * t - est.value
                argmax[i] = lam_t
            det[i], stat[i] = est.deterministic_error, est.statistical_error
        kind = "truncated-hitting"

    curve = RateCurve(
        abscissae=t_grid, values=values, kind=kind, metadata=analysis,
        maximizer_trace=argmax, det_errors=det, stat_errors=stat,
        seed=seed, M=M,
    )
    if analysis.regime == "transient-left":
        # only a weak LDP holds: J never decays below -Lambda(0), recorded
        # separately so tail handling on non-compact sets stays honest
        curve.inf_rate = -analysis.lambda_at_zero
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
    rate, rate_inv = _rate(ev, analysis), _rate(ev_inv, _analyze_pair(ev_inv, ev))
    lc = analysis.lambda_crit

    def point(x: float):
        if x == 0.0:
            return lc.lambda_crit, float("nan"), lc.tolerance, 0.0
        ax = abs(x)
        j, lam, de, se = (rate if x > 0 else rate_inv)(1.0 / ax)
        return ax * j, lam, ax * de, ax * se

    values = np.empty(len(x_grid))
    argmax = np.full(len(x_grid), float("nan"))
    det = np.zeros(len(x_grid))
    stat = np.zeros(len(x_grid))
    for i, x in enumerate(x_grid):
        values[i], argmax[i], det[i], stat[i] = point(float(x))

    curve = RateCurve(
        abscissae=x_grid, values=values, kind="speed", metadata=analysis,
        maximizer_trace=argmax, det_errors=det, stat_errors=stat, seed=seed,
    )
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
    return EnvironmentSpec(
        kind="iid", d=spec.d, kappa=spec.kappa, slices=spec.slices,
        weights=tuple(float(w) for w in weights),
    )


def _kl(weights: np.ndarray, base: np.ndarray) -> float:
    return float((weights * np.log(weights / base)).sum())


class _TiltFamily:
    """J_alpha(t) + h(alpha|eta) over product tilts, with shared-seed windows
    (common random numbers) so alpha = eta reproduces the quenched J exactly.

    The quenched lambda_crit is a property of the support, and tilts keep
    the support, so every tilt shares lambda_crit(eta); only their window
    estimates of it differ. The golden search can safely run up to the
    a-priori cap -log(kappa^2/2): supercritical evaluations contribute -inf
    and are never selected.
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
        self.w_floor = w_floor
        from .env import lambda_crit_cap

        self.lambda_cap = lambda_crit_cap(spec.kappa)
        self._ev_cache: dict[tuple, LmgfEvaluator] = {}
        self._base_analysis: EnvironmentAnalysis | None = None

    def evaluator(self, weights: np.ndarray) -> LmgfEvaluator:
        key = tuple(np.round(weights, 15))
        if key not in self._ev_cache:
            self._ev_cache[key] = LmgfEvaluator(
                _tilted_spec(self.spec, weights), self.n_levels, self.seed
            )
        return self._ev_cache[key]

    def base_analysis(self) -> EnvironmentAnalysis:
        if self._base_analysis is None:
            self._base_analysis = analyze_environment(
                self.spec, n_levels=self.n_levels, seed=self.seed,
                lambda_crit_tol=1e-5,
                lambda_crit_window=min(self.n_levels, 4000),
            )
        return self._base_analysis

    def objective(self, weights: np.ndarray, t: float) -> float:
        ev = self.evaluator(weights)
        j, _, _, _ = legendre_point(
            ev.value, t, self.lambda_cap, self.spec.kappa,
        )
        return j + _kl(weights, self.base)

    def lambda_family_lower(self, lam: float) -> float:
        """max over tilts of Lambda_alpha(lambda) - h(alpha|eta): a lower bound
        on the averaged log-MGF envelope, for the weak-duality cross-check.

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
        best = f(self._free(self.base))
        if not math.isfinite(best):
            return float("inf")
        u, val = self._coordinate_descent(f, self._free(self.base), maximize=True)
        return max(best, val)

    # simplex parametrization: S-1 free coordinates, last weight implied
    def _simplex(self, free: np.ndarray) -> np.ndarray:
        w = np.empty(len(free) + 1)
        w[:-1] = free
        w[-1] = 1.0 - free.sum()
        return np.clip(w, self.w_floor, 1.0)

    def _free(self, w: np.ndarray) -> np.ndarray:
        return np.asarray(w[:-1], dtype=float).copy()

    def _coordinate_descent(self, f, free0, maximize=False, rounds=4, xtol=1e-4):
        sign = -1.0 if maximize else 1.0

        def g(free):
            return sign * f(free)

        free = free0.copy()
        best = g(free)
        nfree = len(free)
        for _ in range(rounds):
            improved = 0.0
            for i in range(nfree):
                others = free.sum() - free[i]
                hi = 1.0 - others - self.w_floor
                lo = self.w_floor
                if hi <= lo:
                    continue

                def h(u, i=i):
                    trial = free.copy()
                    trial[i] = u
                    return -g(trial)

                u_star, neg = golden_max(h, lo, hi, xtol=xtol)
                if -neg < best - 1e-12:
                    improved += best - (-neg)
                    best = -neg
                    free[i] = u_star
            if improved < 1e-9:
                break
        return free, sign * best


def _averaged_values(fam: _TiltFamily, t_grid):
    """Upper bounds min_alpha J_alpha(t) + h(alpha|eta) on t_grid, by
    coordinate descent from alpha = eta, and the minimizing tilts."""
    base_free = fam._free(fam.base)
    values = np.empty(len(t_grid))
    tilts: list[TiltedMeasure] = []
    for i, t in enumerate(t_grid):
        t = float(t)
        def f(free):
            return fam.objective(fam._simplex(free), t)
        start_val = f(base_free)
        if len(fam.base) == 1:
            best_free, best = base_free, start_val
        else:
            best_free, best = fam._coordinate_descent(f, base_free)
            if start_val < best:
                best_free, best = base_free, start_val
        values[i] = best
        w = fam._simplex(best_free)
        tilts.append(TiltedMeasure(weights=tuple(w), base_weights=tuple(fam.base)))
    return values, tilts


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
    quenched J exactly (so the bound never exceeds J). Reports the weak-dual
    cross-check sup_lambda { lambda t - Lambda_family(lambda) } <= bound.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    fam = _TiltFamily(spec, n_levels, seed)
    values, tilts = _averaged_values(fam, t_grid)
    analysis = fam.base_analysis()
    curve = RateCurve(
        abscissae=t_grid, values=values, kind="averaged-hitting-upper",
        metadata=analysis, maximizer_trace=np.full(len(t_grid), float("nan")),
        det_errors=np.zeros(len(t_grid)), stat_errors=np.zeros(len(t_grid)),
        seed=seed, tilt_trace=tilts,
    )
    if len(spec.slices) > 1:
        lc = analysis.lambda_crit.bracket[0]
        lam_grid = np.linspace(min(-5.0, lc - 5.0), lc, 12)
        env = np.array([fam.lambda_family_lower(l) for l in lam_grid])
        for i, t in enumerate(t_grid):
            dual = float((lam_grid * t - env).max())
            if dual > values[i] + 1e-6:
                curve.warnings.append(
                    f"weak duality violated at t={t_grid[i]}: dual {dual} > upper {values[i]}"
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
    pos = sorted({1.0 / x for x in x_grid if x > 0})
    neg = sorted({1.0 / abs(x) for x in x_grid if x < 0})
    fam = _TiltFamily(spec, n_levels, seed)
    j_pos, _ = _averaged_values(fam, pos)
    j_neg, _ = _averaged_values(_TiltFamily(spec.invert(), n_levels, seed), neg)
    analysis = fam.base_analysis()

    values = np.empty(len(x_grid))
    for i, x in enumerate(x_grid):
        x = float(x)
        if x == 0.0:
            values[i] = analysis.lambda_crit.lambda_crit
        elif x > 0:
            values[i] = x * j_pos[pos.index(1.0 / x)]
        else:
            values[i] = abs(x) * j_neg[neg.index(1.0 / abs(x))]
    return RateCurve(
        abscissae=x_grid, values=values, kind="averaged-speed-upper",
        metadata=analysis, maximizer_trace=np.full(len(x_grid), float("nan")),
        det_errors=np.zeros(len(x_grid)), stat_errors=np.zeros(len(x_grid)),
        seed=seed,
    )


def refined_t_grid(t0: float, lo: float, hi: float, n: int = 41) -> np.ndarray:
    """Grid on [lo, hi] geometrically clustered around t0, where J is flat."""
    if not (lo < t0 < hi) or not math.isfinite(t0):
        return np.linspace(lo, hi, n)
    n_left = max(2, int(n * (t0 - lo) / (hi - lo)))
    n_right = max(2, n - n_left)
    left = t0 - (t0 - lo) * np.geomspace(1.0, 1e-3, n_left)
    right = t0 + (hi - t0) * np.geomspace(1e-3, 1.0, n_right)
    return np.unique(np.concatenate([[lo], left, [t0], right, [hi]]))
