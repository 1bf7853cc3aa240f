"""Asymptotic quenched log-MGF of hitting times per level.

For lambda up to the critical exponent,

    Lambda(lambda) = E[ log( mu_0(lambda) Phi_0(lambda) 1 ) ],

with derivative E[ mu_0 Phi'_0 nu_1 / (mu_0 Phi_0 nu_1) ].

Two evaluation paths:

* periodic specs — exact: the periodic Phi fixed point plus periodic
  direction eigenvectors, averaged over one period (the Birkhoff average of
  a periodic sequence is its one-period mean). Statistical error is zero.

* i.i.d. specs — one sampled window; the estimate is
  (1/n) log( pi Phi_[0,n-1] 1 ) with a *fixed* uniform start pi at level 0.
  The matching derivative estimator rolls left directions from the same pi
  and right directions from the all-ones vector at level n, which makes it
  the exact lambda-derivative of the value estimate (finite-difference
  consistency holds to truncation error). The distance to the bi-infinite
  Lambda is controlled by the geometric-forgetting window bound
  2 / ((1-c^4) c^10 n) with c measured from the factors.

Every estimator, full or truncated, takes its directions from the two rolls
of `products` (`_roll_left` for mu, `_roll_right` for nu), rolled once:
over a window from uniform starts, over one period from mu_0 and nu_0, the
left and right Perron vectors of the period product (`_cycle_starts`; at
d = 2 the 2x2 product is formed on floats and both vectors come in closed
form, with no cancellation). The value terms are the logs of the forward
roll's normalizers mu_k Phi_k 1; the derivative terms are one batched
product mu_k Phi'_k nu_{k+1} over all levels. Every periodic estimate,
full or truncated, builds its terms in one place, `_period_terms`, from
flat float lists (the periodic solvers return them; a truncated Phi_M is
flattened): at d <= 2 its rolls are `products._roll_2x2`, its terms and
mean are formed on floats, and it calls no np.linalg; from d = 3 it takes
the window's array builders with the Perron starts. On a 2-core x86-64
Xeon Lambda' and Lambda at one lambda take about 35-40 us on p = 0.75 and
110-125 us on the bench's period-3 d = 2 spec (70 and 320-370 us with
the numpy estimates and the LAPACK Newton step; 60 and 140-145 us with
the generated Newton step but the numpy estimates).

`LmgfEvaluator` forms every estimate in one place: the mean of the
per-level terms, with a 95% CLT bar over a window's n levels (0 on a
period, whose one-period mean is exact). The estimators differ only
in their Phi source (periodic fixed point, window sweep, or the depth-M
kernels of the truncated versions) and their det formula; `value` and
`derivative` share one memo, which turns a diverging solve into the
infinite estimate, and the last Phi solve, so Lambda and Lambda' at one
lambda (a Legendre search's last iterate) take one sweep.

The truncated tilt lambda_{t,M}, the root of Lambda'_M = t behind J_M and
the importance sampler, is found by safeguarded Newton (`solve_tilt`):
each step is one pass over the depth-M kernels that forms Phi_M, Phi'_M
and Phi''_M, and gives Lambda'_M with its slope.

The scalars derived from Lambda: t0 = Lambda'(0-) (the hitting-time LLN
constant, 1/v0 for right-transient walks), t* = Lambda'(lambda_crit-), and
the transience regime read off the sign of Lambda(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import truediv

import numpy as np

from .env import EnvironmentSpec, EnvironmentWindow, n_kappa, sample_window
from .phi import (
    ConvergenceError,
    CriticalExponent,
    SupercriticalError,
    estimate_lambda_crit,
    periodic_phi_derivative,
    solve_phi_periodic,
    solve_phi_window,
    phi_derivative,
    truncated_kernels_range,
    truncated_phis,
)
from .products import _roll_2x2, _roll_left, _roll_right

DEFAULT_MARGIN = 320
REGIME_TOL = 1e-8  # floor of _classify's regime threshold on |Lambda(0)|
SLOPE_RTOL = 1e-13  # |Lambda' - t| / t that ends a root search for Lambda' = t
SLOPE_XTOL = 1e-12  # step or bracket width in lambda that ends it
SLOPE_MAX_EVALS = 100  # bounds the loop; bisection alone ends it in under 70


@dataclass(frozen=True)
class LmgfEstimate:
    lam: float
    value: float
    deterministic_error: float
    statistical_error: float
    n: int
    kind: str = "full"  # full | truncated | derivative | truncated-derivative
    M: int | None = None
    supercritical: bool = False
    boundary_bias: float = 0.0  # measured left-boundary influence (part of det error)

    def total_error(self) -> float:
        return self.deterministic_error + self.statistical_error


def _paper_window_bound(c: float, n: int) -> float:
    c = min(c, 1.0 - 1e-9)
    return 2.0 / ((1.0 - c**4) * c**10 * n)


def _det_cap(kappa: float, lam: float, d: int) -> float:
    """Rigorous cap on |estimate - Lambda|: both lie in the sandwich interval
    [lam + log kappa, lam] for lam <= 0, resp. a log(2d/kappa^2)-wide band for
    0 < lam <= lambda_crit, so the window formula never needs to exceed this."""
    if lam <= 0:
        return -math.log(kappa)
    return math.log(2.0 * d / (kappa * kappa))


def _measured_c(entries) -> float:
    """min(lo, 1/hi) over the entries of an array or of a flat float list,
    floored at 1e-12 (and 1e-12 when an entry is 0)."""
    if isinstance(entries, list):
        lo, hi = min(entries), max(entries)
    else:
        lo, hi = float(entries.min()), float(entries.max())
    if lo <= 0:
        return 1e-12
    return max(min(lo, 1.0 / hi), 1e-12)


def _mean(terms) -> float:
    """np.mean's bits on a sequence of floats: below 8 terms numpy adds
    them in order from 0.0, past that it sums pairwise (numpy's own
    call)."""
    if len(terms) >= 8:
        return float(np.mean(terms))
    total = 0.0
    for x in terms:
        total += x
    return float(total / len(terms))


def _sandwich_check(lam: float, value: float, kappa: float, slack: float) -> None:
    # kappa^n e^{lam n} <= E[e^{lam T_n}; T_n < inf] <= e^{lam n} for lam <= 0
    if lam <= 0 and not (lam + math.log(kappa) - slack <= value <= lam + slack):
        raise RuntimeError(
            f"log-MGF sandwich violated: lambda={lam}, value={value}, "
            f"bounds [{lam + math.log(kappa)}, {lam}]"
        )


# ---------------------------------------------------------------------------
# per-level terms from the shared direction rolls of `products`
# ---------------------------------------------------------------------------


def _perron(m: np.ndarray) -> np.ndarray:
    """The eigenvector of m's eigenvalue with the largest real part, taken
    entrywise in absolute value and scaled to sum 1: the Perron vector of a
    nonnegative irreducible m."""
    w, v = np.linalg.eig(m)
    x = np.abs(v[:, np.argmax(w.real)])
    return x / x.sum()


def _perron_2x2(a: float, b: float, c: float, d: float) -> list:
    """The right Perron vector of the nonnegative [[a, b], [c, d]], scaled to
    sum 1, in closed form: with h = (a - d) / 2 and s = sqrt(h^2 + b c),
    rho = (a + d) / 2 + s, and (rho - d, c) = (h + s, c) and
    (b, rho - a) = (b, s - h) both solve (P - rho) v = 0. The one taken,
    the first for h >= 0, the second below, adds nonnegative terms only,
    so nothing cancels, and an exact zero entry (a zero column's) stays
    0.0."""
    h = 0.5 * (a - d)
    s = math.sqrt(h * h + b * c)
    v0, v1 = (h + s, c) if h >= 0.0 else (b, s - h)
    t = v0 + v1
    return [v0 / t, v1 / t]


def _cycle_starts(vals: list, d: int, nu: bool = True):
    """(mu_0, nu_0) as lists of floats: the left and right Perron vectors
    of the period product P = Phi_0 ... Phi_{n-1} (Seneta, Non-negative
    Matrices and Markov Chains, ch. 1 and 3) of the flat, row-major levels
    `vals`, so one period's forward roll from mu_0 and backward roll from
    nu_0 come back to them. P is formed one factor at a time and
    normalized to entry sum 1 after each product; nu_0 is None unless
    `nu`. At d = 1 both are the unit vector; at d = 2 P is formed on
    floats and both vectors are _perron_2x2's closed form, 1.7 us on the
    bench's period-3 spec against 42 us with numpy's products and two
    np.linalg.eig (2-core x86-64 Xeon); from d = 3 one np.linalg.eig
    each."""
    if d == 1:
        return [1.0], ([1.0] if nu else None)
    if d == 2:
        p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
        it = iter(vals)
        for a00, a01, a10, a11 in zip(it, it, it, it):
            p00, p01, p10, p11 = (p00 * a00 + p01 * a10, p00 * a01 + p01 * a11,
                                  p10 * a00 + p11 * a10, p10 * a01 + p11 * a11)
            t = p00 + p01 + p10 + p11
            p00, p01, p10, p11 = p00 / t, p01 / t, p10 / t, p11 / t
        return (_perron_2x2(p00, p10, p01, p11),
                _perron_2x2(p00, p01, p10, p11) if nu else None)
    P = np.eye(d)
    for phi in np.reshape(vals, (-1, d, d)):
        P = P @ phi
        P /= P.sum()
    return _perron(P.T).tolist(), (_perron(P).tolist() if nu else None)


def _bilinear(Z: np.ndarray, phis: np.ndarray, R: np.ndarray) -> np.ndarray:
    """z_k Phi_k r_k at every level k, as one batched product."""
    return ((Z[:, None, :] @ phis) @ R[:, :, None])[:, 0, 0]


def _log_terms(phis: np.ndarray, mu0: np.ndarray | None = None):
    """log(mu_k Phi_k 1) at every level: the logs of the normalizers of the
    forward roll from mu0 (uniform when omitted), which at d = 2 sums on
    Python floats (see `products._roll_left`). numpy's vectorized log
    (d = 1) and libm's `math.log` (d > 1, one level at a time) differ in the
    last bit on a few inputs in a thousand; the split keeps each reported
    window value the same to the last bit."""
    s = _roll_left(phis, mu0)[1]
    if phis.shape[1] == 1:
        return np.log(s)
    return np.fromiter(map(math.log, s.tolist()), float, len(s))


def _directions(phis: np.ndarray, mu0: np.ndarray | None = None,
                nu0: np.ndarray | None = None):
    """(mu_k, nu_{k+1}) at every level, mu rolled forward from mu0 and nu
    backward from nu0 at level n (both uniform when omitted)."""
    return _roll_left(phis, mu0)[0][:-1], _roll_right(phis, nu0)[0][1:]


def _m_weighted(ker: np.ndarray, lam: float, power: int) -> np.ndarray:
    """sum_m m^power e^{lam m} W_k[m-1] at every level of a (K, M, d, d)
    kernel stack: Phi'_M (power 1) and Phi''_M (power 2)."""
    m = np.arange(1, ker.shape[1] + 1)
    return np.einsum("m,kmij->kij", m**power * np.exp(lam * m), ker)


def _derivative_terms(phis: np.ndarray, dphis: np.ndarray, mu0: np.ndarray | None = None,
                      nu0: np.ndarray | None = None) -> np.ndarray:
    """mu_k Phi'_k nu_{k+1} / (mu_k Phi_k nu_{k+1}) at every level, with the
    directions of `_directions`. On a window the uniform starts make the
    mean the exact lambda-derivative of the value estimate."""
    Z, R = _directions(phis, mu0, nu0)
    return _bilinear(Z, dphis, R) / _bilinear(Z, phis, R)


def _period_terms(vals: list, d: int, dvals: list | None = None) -> list:
    """One period's value terms log(mu_k Phi_k 1) or, given its Phi'
    `dvals`, its derivative terms mu_k Phi'_k nu_{k+1} / (mu_k Phi_k
    nu_{k+1}), as floats, from flat, row-major levels (the periodic
    solvers' lists, or a period's Phi_M and Phi'_M flattened), with mu
    and nu rolled from _cycle_starts: the one term builder of every
    periodic estimate, full or truncated. At d = 1
    every direction is 1: the value terms are np.log's (as `_log_terms`'),
    the derivative terms Phi'_k / Phi_k. At d = 2 both rolls are
    `_roll_2x2`'s (nu's over the transposed levels in reverse order) and
    each bilinear form is (mu_k Phi_k) nu_{k+1} on floats, as
    `_bilinear` groups it; from d = 3 the array path of `_log_terms` and
    `_derivative_terms`."""
    if d == 1:
        return np.log(vals).tolist() if dvals is None else list(map(truediv, dvals, vals))
    mu0, nu0 = _cycle_starts(vals, d, nu=dvals is not None)
    if d > 2:
        phis = np.reshape(vals, (-1, d, d))
        if dvals is None:
            return _log_terms(phis, mu0).tolist()
        return _derivative_terms(phis, np.reshape(dvals, phis.shape), mu0, nu0).tolist()
    it = iter(vals)
    rows = list(zip(it, it, it, it))
    Z, s = _roll_2x2(rows, *mu0)
    if dvals is None:
        return list(map(math.log, s))
    R = _roll_2x2([(a, c, b, e) for a, b, c, e in reversed(rows)], *nu0)[0]
    nus = list(zip(R[0::2], R[1::2]))[-2::-1]  # nu_1 .. nu_n (R holds nu_n first)
    terms = []
    it = iter(dvals)
    for (a00, a01, a10, a11), (z0, z1), (r0, r1), g00, g01, g10, g11 in zip(
            rows, zip(Z[0::2], Z[1::2]), nus, it, it, it, it):
        num = (z0 * g00 + z1 * g10) * r0 + (z0 * g01 + z1 * g11) * r1
        terms.append(num / ((z0 * a00 + z1 * a10) * r0 + (z0 * a01 + z1 * a11) * r1))
    return terms


# ---------------------------------------------------------------------------
# evaluator: shared window, kernel cache and Lambda memo across lambda sweeps
# ---------------------------------------------------------------------------


class LmgfEvaluator:
    """Evaluates Lambda, Lambda' and their truncated versions for one spec.

    i.i.d. specs get one window sampled at construction (levels
    [-margin, n_levels)); every lambda is evaluated on that same window, so
    sweeps and finite differences see a common realization. Caches live as
    long as the evaluator: truncated kernels per depth M, the estimates of
    `value` and `derivative` per lambda (every grid point of a rate curve,
    every Legendre search of an averaged bound, and the analyses of a spec
    and of its reflection on the same pair of evaluators share them), and
    the last Phi solve, so an evaluator, unlike the specs and windows it
    holds, is not immutable.
    """

    def __init__(
        self,
        spec: EnvironmentSpec,
        n_levels: int = 3000,
        seed: int | None = 0,
        margin: int = DEFAULT_MARGIN,
    ):
        self.spec = spec
        self.n_levels = n_levels
        self.seed = seed
        self.margin = margin if spec.kind != "periodic" else 0
        self.window: EnvironmentWindow | None = None
        self._kernel_cache: dict[int, np.ndarray] = {}
        self._memo: dict[tuple[str, float], LmgfEstimate] = {}
        self._last_phi: tuple = (None, None)  # (lambda, its Phi source)
        if spec.kind != "periodic":
            self.window = sample_window(spec, -margin, n_levels, seed=seed)

    def _estimate(self, lam: float, terms, det: float, kind: str,
                  M: int | None = None, bias: float = 0.0) -> LmgfEstimate:
        """The mean of the per-level terms and its 95% CLT bar over a
        window's n levels; a period's mean is exact, so its bar is 0. One
        level has no spread to measure, so a one-level window's bar is
        unmeasured: inf."""
        n = self.n_levels
        if self.window is None:
            stat, value = 0.0, _mean(terms)
        else:
            stat = 1.96 * float(np.std(terms, ddof=1)) / math.sqrt(n) if n > 1 else math.inf
            value = float(np.mean(terms))
        return LmgfEstimate(
            lam=lam, value=value, deterministic_error=det,
            statistical_error=stat, n=n, kind=kind, M=M, boundary_bias=bias,
        )

    def _memoized(self, kind: str, lam: float, estimator) -> LmgfEstimate:
        """estimator(lam), once per kind and lambda: the window is fixed, so a
        repeated lambda (a Legendre search that starts from a neighbouring
        grid point's iterates, or one analysis shared by two curves) is a
        lookup.
        A solve that diverges gives the infinite estimate; lambda <= 0 is
        feasible a priori, so a failure there is a convergence breakdown
        (recurrent boundary), not supercriticality."""
        est = self._memo.get((kind, lam))
        if est is None:
            try:
                est = estimator(lam)
            except (SupercriticalError, ConvergenceError):
                est = LmgfEstimate(
                    lam=lam, value=float("inf"), deterministic_error=float("inf"),
                    statistical_error=0.0, n=self.n_levels, kind=kind,
                    supercritical=lam > 0,
                )
            self._memo[kind, lam] = est
        return est

    # -- full ---------------------------------------------------------------

    def value(self, lam: float) -> LmgfEstimate:
        """Lambda(lam), memoized per evaluator."""
        return self._memoized("full", lam, self._value)

    def _phi(self, lam: float, derivative: bool = False):
        """The PeriodicPhi or window PhiSolution of lam, a window's with its
        Phi' from the same pass when `derivative` asks. The last one is
        kept, so a Legendre search's final value reuses the pass of the
        Lambda' evaluated at the same lambda."""
        if self._last_phi[0] != lam:
            if self.window is None:
                sol = solve_phi_periodic(self.spec, lam)
            else:
                sol = solve_phi_window(self.window, lam, shift=self.margin or None,
                                       kappa=self.spec.kappa, derivative=derivative)
            self._last_phi = (lam, sol)
        return self._last_phi[1]

    def _value(self, lam: float) -> LmgfEstimate:
        if self.window is None:
            pp = self._phi(lam)
            c = _measured_c(pp.vals)
            bias = 2.0 * pp.tail / c
            terms = _period_terms(pp.vals, self.spec.d)
        else:
            sol = self._phi(lam)
            i0 = self.window.index_of(0)
            phis = sol.phis[i0:]
            c = _measured_c(phis)
            gaps = sol.boundary_gap[i0:]
            gaps = gaps[np.isfinite(gaps)]
            bias = 2.0 * float(gaps.sum()) / (c * len(gaps)) if gaps.size else 0.0
            terms = _log_terms(phis)
        det = min(_paper_window_bound(c, self.n_levels),
                  _det_cap(self.spec.kappa, lam, self.spec.d)) + bias
        est = self._estimate(lam, terms, det, "full", bias=bias)
        _sandwich_check(lam, est.value, self.spec.kappa,
                        slack=1e-10 + 4 * est.statistical_error)
        return est

    # -- derivative -----------------------------------------------------------

    def derivative(self, lam: float) -> LmgfEstimate:
        """Lambda'(lam), memoized per evaluator like `value`."""
        return self._memoized("derivative", lam, self._derivative)

    def _derivative(self, lam: float) -> LmgfEstimate:
        sol = self._phi(lam, derivative=True)
        if self.window is None:
            dvals = periodic_phi_derivative(self.spec, lam, sol)
            terms = _period_terms(sol.vals, self.spec.d, dvals)
            return self._estimate(lam, terms, _paper_window_bound(_measured_c(sol.vals),
                                                                  self.n_levels), "derivative")
        i0 = self.window.index_of(0)
        phis, dphis = sol.phis[i0:], phi_derivative(self.window, lam, phi_solution=sol)[i0:]
        terms = _derivative_terms(phis, dphis)
        det = _paper_window_bound(_measured_c(phis), self.n_levels)
        det *= 1.0 + abs(float(terms.mean()))
        return self._estimate(lam, terms, det, "derivative")

    # -- truncated ------------------------------------------------------------

    def _kernels(self, M: int) -> np.ndarray:
        """The depth-M hitting kernels of levels 0..n_levels-1, or of one
        period on a periodic spec; (levels, M, d, d)."""
        if M not in self._kernel_cache:
            if self.window is None:
                n = self.spec.period
                window = sample_window(self.spec, -M, n)
            elif self.window.lo > -M:
                raise ValueError("window margin too small for truncation depth M")
            else:
                n, window = self.n_levels, self.window
            self._kernel_cache[M] = truncated_kernels_range(window, M, 0, n)
        return self._kernel_cache[M]

    def value_truncated(self, lam: float, M: int) -> LmgfEstimate:
        return self._truncated(lam, M, "truncated")

    def derivative_truncated(self, lam: float, M: int) -> LmgfEstimate:
        return self._truncated(lam, M, "truncated-derivative")

    def _truncated_phis(self, lam: float, M: int):
        """(kernels, Phi_M(lam)) of depth M, with Phi_M's positivity enforced."""
        ker = self._kernels(M)
        phis = truncated_phis(ker, lam)
        # M >= N_kappa guarantees positive truncated matrices; rather than a
        # hard depth gate (which would reject the perfectly well defined d=1,
        # M=1 case) the positivity itself is enforced
        if (phis <= 0).any() and self.spec.bounded_jump is None:
            raise ValueError(
                f"M={M} too small: truncated matrices lose strict positivity "
                f"(M >= N_kappa = {n_kappa(self.spec.kappa)} guarantees it)"
            )
        return ker, phis

    def _truncated(self, lam: float, M: int, kind: str) -> LmgfEstimate:
        """Lambda_M (kind 'truncated') or Lambda'_M from the depth-M kernels,
        weighted by e^{lam m} (Phi_M) and by m e^{lam m} (Phi'_M)."""
        ker, phis = self._truncated_phis(lam, M)
        if self.window is None:
            dvals = None if kind == "truncated" else _m_weighted(ker, lam, 1).ravel().tolist()
            terms = _period_terms(phis.ravel().tolist(), self.spec.d, dvals)
        elif kind == "truncated":
            terms = _log_terms(phis)
        else:
            terms = _derivative_terms(phis, _m_weighted(ker, lam, 1))
        return self._estimate(lam, terms, _paper_window_bound(_measured_c(phis), self.n_levels),
                              kind, M)

    def _tilt_pass(self, lam: float, M: int) -> tuple[float, float]:
        """(Lambda'_M(lam), its slope) from one pass over the depth-M kernels.

        Lambda'_M is `derivative_truncated(lam, M).value` bit for bit. The
        slope is the mean over levels of mu Phi''_M nu / mu Phi_M nu -
        (mu Phi'_M nu / mu Phi_M nu)^2 on the same directions, Phi''_M
        weighted by m^2 e^{lam m}: exact at d = 1, where Lambda_M is a mean
        of logs; at d >= 2, where the directions move with lam too, an
        estimate."""
        ker, phis = self._truncated_phis(lam, M)
        if self.window is None:  # the directions of _period_terms, rolled twice
            vals, d = phis.ravel().tolist(), self.spec.d
            g, h = (np.array(_period_terms(vals, d, _m_weighted(ker, lam, k).ravel().tolist()))
                    for k in (1, 2))
        else:
            Z, R = _directions(phis)
            den = _bilinear(Z, phis, R)
            g = _bilinear(Z, _m_weighted(ker, lam, 1), R) / den
            h = _bilinear(Z, _m_weighted(ker, lam, 2), R) / den
        return float(np.mean(g)), float(np.mean(h - g * g))

    def solve_tilt(self, t: float, M: int, start: float = 0.0) -> float:
        """lambda_{t,M}: the root of Lambda'_M(lambda) = t (exists for
        1 < t < M-2), by safeguarded Newton from `start`.

        Lambda'_M increases in lambda. Each step is one `_tilt_pass`, which
        gives Lambda'_M and its slope, and then a Newton step on
        log Lambda'_M. The evaluated lambdas keep a sign bracket [a, b] of
        the root; an end not yet evaluated is a trial end, at first -2 and
        2, which doubles past each evaluated lambda beyond it on the wrong
        side of the root. A Newton step that leaves (a, b), or a slope
        <= 0, gives way to the trial end on the root's side if there is one,
        else to the midpoint of [a, b]. The search ends on the evaluated
        lambda closest to the root once |Lambda'_M - t| <= SLOPE_RTOL t or
        the last step was at most SLOPE_XTOL. A trial end past +-700 raises
        ConvergenceError, and lambda M above TRUNCATED_EXP_CAP the
        ValueError of `truncated_phis`.
        """
        if not 1.0 < t < M - 2:
            raise ValueError(f"need 1 < t < M-2 (t={t}, M={M})")
        a, b = -2.0, 2.0
        a_known = b_known = False
        x, step, best = float(start), math.inf, None
        for _ in range(SLOPE_MAX_EVALS):
            v, slope = self._tilt_pass(x, M)
            if best is None or abs(v - t) < abs(best[1] - t):
                best = (x, v)
            if v < t:
                a, a_known = x, True
                b = b if x < b else 2.0 * x
            else:
                b, b_known = x, True
                a = a if x > a else 2.0 * x
            if a < -700 or b > 700:
                raise ConvergenceError(float("nan"), 0)
            if abs(v - t) <= SLOPE_RTOL * t or abs(step) <= SLOPE_XTOL:
                break
            # Newton on log Lambda'_M = log t (Lambda'_M >= 1, a mean excursion
            # length): from lambda = 0 up to a root above it Lambda'_M rises
            # convexly, and plain Newton overshoots further than on the log
            y = x + math.log(t / v) * v / slope if slope > 0 else math.nan
            if not a < y < b:
                if v < t and not b_known:
                    y = b
                elif v > t and not a_known:
                    y = a
                else:
                    y = 0.5 * (a + b)
            step, x = y - x, y
        return best[0]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentAnalysis:
    t0: float
    t_star: float
    v0: float
    lambda_crit: CriticalExponent
    regime: str  # transient-right | recurrent | transient-left
    ambiguous: bool = False
    lambda_at_zero: float = 0.0
    spec_hash: str = ""

    def as_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t_star": self.t_star,
            "v0": self.v0,
            "lambda_crit": list(self.lambda_crit.bracket),
            "regime": self.regime,
            "ambiguous": self.ambiguous,
            "lambda_at_zero": self.lambda_at_zero,
            "spec_hash": self.spec_hash,
        }


def analyze_environment(
    spec: EnvironmentSpec,
    n_levels: int = 3000,
    seed: int | None = 0,
    lambda_crit_tol: float = 1e-6,
    lambda_crit_window: int = 6000,
) -> EnvironmentAnalysis:
    """Regime, LLN constants and critical exponent of a spec.

    Regime detection: Lambda(0) < 0 means transient-left (the walk fails to
    hit the next level with positive probability); otherwise the reflected
    spec decides between transient-right and recurrent. Thresholds widen by
    the measured boundary-forgetting bias so slowly-mixing (near-recurrent)
    windows are reported recurrent-with-flag rather than misclassified.
    """
    lc = estimate_lambda_crit(spec, window_len=lambda_crit_window, tol=lambda_crit_tol, seed=seed)
    return _classify(LmgfEvaluator(spec, n_levels, seed),
                     LmgfEvaluator(spec.invert(), n_levels, seed), lc)


def _classify(ev: LmgfEvaluator, ev_inv: LmgfEvaluator,
              lc: CriticalExponent) -> EnvironmentAnalysis:
    """analyze_environment of `ev.spec` from its evaluator, its reflection's
    (same n_levels and seed) and its lambda_crit; the swapped pair analyzes
    the reflection."""
    at0 = ev.value(0.0)
    at0_inv = ev_inv.value(0.0)
    # the measured boundary bias widens the decision floor so that slowly
    # forgetting (near-recurrent) windows are not misread as transient-left
    floor = max(REGIME_TOL, 3 * at0.statistical_error, 20 * at0.boundary_bias)
    floor_inv = max(REGIME_TOL, 3 * at0_inv.statistical_error, 20 * at0_inv.boundary_bias)

    if at0.value < -floor:
        regime = "transient-left"
    elif at0_inv.value < -floor_inv:
        regime = "transient-right"
    else:
        regime = "recurrent"
    ambiguous = regime == "recurrent" and (
        abs(at0.value) > REGIME_TOL or abs(at0_inv.value) > REGIME_TOL
    )

    if regime == "recurrent":
        t0 = float("inf")
        v0 = 0.0
    else:
        fwd = ev if regime == "transient-right" else ev_inv
        d1 = fwd.derivative(-1e-6).value
        d2 = fwd.derivative(-1e-4).value
        stable = abs(d1 - d2) <= 0.05 * max(abs(d1), 1.0)
        t0 = d1 if stable else float("inf")
        if regime == "transient-right":
            v0 = 1.0 / t0 if math.isfinite(t0) else 0.0
        else:
            v0 = -1.0 / t0 if math.isfinite(t0) else 0.0
            t0 = ev.derivative(-1e-6).value  # definitional limit on the spec itself

    lam_star = lc.bracket[0] - lc.tolerance
    # t* >= t0 on every walk, so an infinite t0 leaves no linear branch
    if lam_star <= -1e-6 or not math.isfinite(t0):
        t_star = t0
    else:
        ts = ev.derivative(lam_star).value
        t_star = ts if ts <= 1.0 / lc.tolerance else float("inf")

    return EnvironmentAnalysis(
        t0=t0, t_star=t_star, v0=v0, lambda_crit=lc, regime=regime,
        ambiguous=ambiguous, lambda_at_zero=at0.value,
        spec_hash=ev.spec.content_hash(),
    )
