import dataclasses
import math

import numpy as np
import pytest

from stripldp.env import EnvironmentSlice, EnvironmentSpec, n_kappa


def d1_phi_closed(p, lam, r=0.0):
    """Smaller root of e^l q phi^2 - (1 - e^l r) phi + e^l p = 0 in the
    cancellation-stable form (the probabilistic excursion MGF for d=1)."""
    q = 1.0 - p - r
    el = math.exp(lam)
    disc = (1.0 - r * el) ** 2 - 4.0 * p * q * el * el
    if disc < 0:
        return math.inf
    return 2.0 * p * el / ((1.0 - r * el) + math.sqrt(disc))


def d1_phi_prime_closed(p, lam, r=0.0):
    """dphi/dlambda from differentiating phi = e^l (p + r phi + q phi^2):
    phi' = phi / (1 - e^l (r + 2 q phi)), phi from d1_phi_closed."""
    q = 1.0 - p - r
    phi = d1_phi_closed(p, lam, r)
    return phi / (1.0 - math.exp(lam) * (r + 2.0 * q * phi))


def d1_lambda_crit(p, r=0.0):
    q = 1.0 - p - r
    # discriminant zero: (1 - r e^l)^2 = 4 p q e^{2l}; for r=0 this is -log(4pq)/2
    if r == 0.0:
        return -0.5 * math.log(4.0 * p * q)
    return math.log(1.0 / (r + 2.0 * math.sqrt(p * q)))


def qbd_lambda_crit(slice_):
    """lambda_crit of the homogeneous spec of one slice, -log min_{c>0}
    rho(p/c + r + c q): rho is log-convex in log c, and a golden-section
    search on log c over [-20, 20] finds its minimum."""
    def rho(t):
        c = math.exp(t)
        return float(np.abs(np.linalg.eigvals(slice_.p / c + slice_.r + c * slice_.q)).max())

    g = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -20.0, 20.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = rho(a), rho(b)
    while hi - lo > 1e-12:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = rho(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = rho(b)
    return -math.log(min(fa, fb))


def d1_lambda_prime(p, lam, h=1e-7):
    lo = math.log(d1_phi_closed(p, lam - h))
    hi = math.log(d1_phi_closed(p, lam + h))
    return (hi - lo) / (2.0 * h)


def d1_truncated_excursion_law(p, M):
    """w[m] = P(tau = m, tau <= M) for m = 0..M, d=1 with r = 0.

    A first passage from level k to k+1 in 2j+1 steps is a path with j
    down-steps that never returns below its start before the last step;
    there are Catalan C_j of them, so P(tau = 2j+1) = C_j p^{j+1} q^j.
    """
    q = 1.0 - p
    w = np.zeros(M + 1)
    for j in range((M - 1) // 2 + 1):
        w[2 * j + 1] = math.comb(2 * j, j) / (j + 1) * p ** (j + 1) * q ** j
    return w


@dataclasses.dataclass(frozen=True)
class TruncatedLdp:
    """LDP data of T_n = tau_1 + ... + tau_n, truncated at M, at rate point t."""

    law: np.ndarray  # P(tau = m, tau <= M), m = 0..M
    t: float
    lam: float  # lambda_{t,M}: the tilted mean of the law equals t
    j: float  # J_M(t) = lam t - log sum_m law[m] e^{lam m}
    sigma2: float  # variance of the lam-tilted law
    span: int  # lattice span of the law's support

    def finite_n_rate(self, n):
        """-(1/n) log P(T_n >= t n, all tau_k <= M) to O(1/n^2).

        Lattice Bahadur-Rao (Bahadur & Ranga Rao 1960): T_n lives on
        n a + span Z (a the least support point); with s0 the first such
        point >= t n, P = e^{-n J - lam (s0 - t n)} span
        / (sigma sqrt(2 pi n) (1 - e^{-lam span})) (1 + O(1/n)).
        """
        a = int(np.flatnonzero(self.law)[0])
        s0 = n * a + self.span * math.ceil((self.t * n - n * a) / self.span)
        prefactor = (math.sqrt(2.0 * math.pi * n * self.sigma2)
                     * (1.0 - math.exp(-self.lam * self.span)) / self.span)
        return self.j + (math.log(prefactor) + self.lam * (s0 - self.t * n)) / n


def d1_truncated_ldp(p, t, M):
    """Closed-form TruncatedLdp for the d=1 walk, from the Catalan law:
    lambda_{t,M} by bisection on the tilted mean (increasing in lambda)."""
    law = d1_truncated_excursion_law(p, M)
    m = np.arange(M + 1)
    support = np.flatnonzero(law)
    if not support[0] < t < support[-1]:
        raise ValueError(f"t={t} outside the support's interior ({support[0]}, {support[-1]})")

    def tilted(lam):
        e = law * np.exp(lam * (m - M))  # scaled by e^{-lam M}: no overflow
        z = e.sum()
        mean = float((m * e).sum() / z)
        return math.log(z) + lam * M, mean, float(((m - mean) ** 2 * e).sum() / z)

    lo, hi = -1.0, 1.0
    while tilted(lo)[1] > t:
        lo *= 2.0
    while tilted(hi)[1] < t:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tilted(mid)[1] < t:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    log_mgf, _, sigma2 = tilted(lam)
    span = int(np.gcd.reduce(np.diff(support)))
    return TruncatedLdp(law=law, t=t, lam=lam, j=lam * t - log_mgf,
                        sigma2=sigma2, span=span)


def random_d2_slice(rng, kappa=0.08, drift=0.0, d=2):
    """Elliptic slice (d=2 unless given): q and p entries floored at kappa
    (so the entry conditions hold), remaining mass spread randomly; drift > 0
    shifts the random remainder toward p."""
    q = np.full((d, d), kappa)
    p = np.full((d, d), kappa)
    r = np.zeros((d, d))
    rem = 1.0 - 2 * d * kappa
    for i in range(d):
        extra = rng.dirichlet(np.ones(3 * d)) * rem
        q_share = extra[:d] * (1.0 - drift)
        p_share = extra[2 * d:] + extra[:d] * drift
        q[i] += q_share
        r[i] += extra[d:2 * d]
        p[i] += p_share
    return EnvironmentSlice(q=q, r=r, p=p)


def random_d2_iid_spec(seed, kappa=0.08, n_support=3, drift=0.0, d=2):
    rng = np.random.default_rng(seed)
    slices = tuple(random_d2_slice(rng, kappa, drift, d) for _ in range(n_support))
    w = rng.dirichlet(np.ones(n_support))
    return EnvironmentSpec(
        kind="iid", d=d, kappa=kappa, slices=slices, weights=tuple(w)
    )


def c_lambda(kappa, lam):
    """Uniform lower bound on Phi entries: (kappa/2) * min(e^(lam*N_kappa), 1)."""
    return 0.5 * kappa * min(math.exp(lam * n_kappa(kappa)), 1.0)


def residual_norm(solution):
    """Max-norm defect of the fixed-point equation over all levels of a
    PhiSolution."""
    w, el = solution.window, math.exp(solution.lam)
    prev = np.zeros((w.d, w.d))
    worst = 0.0
    for k in range(len(solution)):
        cur = solution.phis[k]
        rhs = el * (w.p[k] + w.r[k] @ cur + w.q[k] @ prev @ cur)
        worst = max(worst, float(np.abs(cur - rhs).max()))
        prev = cur
    return worst


def refined_t_grid(t0, lo, hi, n=41):
    """Grid on [lo, hi] geometrically clustered around t0, where J is flat."""
    if not (lo < t0 < hi) or not math.isfinite(t0):
        return np.linspace(lo, hi, n)
    n_left = max(2, int(n * (t0 - lo) / (hi - lo)))
    n_right = max(2, n - n_left)
    left = t0 - (t0 - lo) * np.geomspace(1.0, 1e-3, n_left)
    right = t0 + (hi - t0) * np.geomspace(1e-3, 1.0, n_right)
    return np.unique(np.concatenate([[lo], left, [t0], right, [hi]]))


# ---------------------------------------------------------------------------
# reference transfer sweeps: the plain per-level loops the kernels in
# stripldp.phi must reproduce bit for bit (np.linalg.solve on every level,
# full boundary re-solves, one loop per periodic solver)
# ---------------------------------------------------------------------------

REF_NEG_ENTRY_TOL = -1e-12


def ref_solve_2x2(m, b):
    """(I - m)^{-1} b for 2x2 nested lists of Python floats, m >= 0, by
    eliminating the first column (no row exchange); None unless the pivot
    1 - m00 and the Schur complement are positive."""
    (m00, m01), (m10, m11) = m
    pivot = 1.0 - m00
    if not pivot > 0.0:
        return None
    mult = m10 / pivot
    schur = (1.0 - m11) - mult * m01
    if not schur > 0.0:
        return None
    x1 = [(b[1][j] + mult * b[0][j]) / schur for j in range(2)]
    x0 = [(b[0][j] + m01 * x1[j]) / pivot for j in range(2)]
    return [x0, x1]


def ref_matmul_2x2(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def ref_sweep(window, lam, phi0, bound, lapack=False):
    """(phis, bad level index or -1) of one zero-start pass over the window:
    one division a level at d = 1, one 2x2 elimination on Python floats at
    d = 2, np.linalg.solve at d >= 3 (and at every d with `lapack`)."""
    el = math.exp(lam)
    n, d = window.n_levels, window.d
    out = np.empty((n, d, d))
    if d == 1 and not lapack:
        q, r, p = (a[:, 0, 0].tolist() for a in (window.q, window.r, window.p))
        f = float(phi0[0, 0])
        for k in range(n):
            m = el * (r[k] + q[k] * f)
            if m >= 1.0:
                return out, k
            f = el * p[k] / (1.0 - m)
            if f > bound:
                return out, k
            out[k, 0, 0] = f
        return out, -1
    if d == 2 and not lapack:
        f = phi0.tolist()
        for k in range(n):
            qf = ref_matmul_2x2(window.q[k].tolist(), f)
            r, p = window.r[k].tolist(), window.p[k].tolist()
            m = [[el * (r[i][j] + qf[i][j]) for j in range(2)] for i in range(2)]
            f = ref_solve_2x2(m, [[el * x for x in row] for row in p])
            if f is None or any(x > bound for row in f for x in row):
                return out, k
            out[k] = f
        return out, -1
    eye = np.eye(d)
    rhs = np.empty((d, 2 * d))
    f = phi0
    for k in range(n):
        m = el * (window.r[k] + window.q[k] @ f)
        rhs[:, :d] = el * window.p[k]
        rhs[:, d:] = eye
        try:
            sol = np.linalg.solve(eye - m, rhs)
        except np.linalg.LinAlgError:
            return out, k
        f = sol[:, :d]
        if (sol[:, d:] < REF_NEG_ENTRY_TOL).any() or (f < REF_NEG_ENTRY_TOL).any():
            return out, k
        if f.max() > bound:
            return out, k
        np.maximum(f, 0.0, out=out[k])
        f = out[k]
    return out, -1


def ref_derivative_sweep(window, lam, phis, dphi0, lapack=False):
    """The Phi' recursion over `phis`: the 2x2 elimination of ref_sweep at
    d = 2, np.linalg.solve at every other d (and at d = 2 with `lapack`)."""
    el = math.exp(lam)
    n, d = window.n_levels, window.d
    eye = np.eye(d)
    out = np.empty((n, d, d))
    prev_phi = np.zeros((d, d))
    prev_d = dphi0
    for k in range(n):
        cur = phis[k]
        if d == 2 and not lapack:
            q, r, c = window.q[k].tolist(), window.r[k].tolist(), cur.tolist()
            qf = ref_matmul_2x2(q, prev_phi.tolist())
            m = [[el * (r[i][j] + qf[i][j]) for j in range(2)] for i in range(2)]
            h = ref_matmul_2x2(ref_matmul_2x2(q, prev_d.tolist()), c)
            out[k] = ref_solve_2x2(m, [[c[i][j] + el * h[i][j] for j in range(2)]
                                       for i in range(2)])
        else:
            m = el * (window.r[k] + window.q[k] @ prev_phi)
            rhs = cur + el * (window.q[k] @ prev_d @ cur)
            out[k] = np.linalg.solve(eye - m, rhs)
        prev_phi, prev_d = cur, out[k]
    return out


def ref_solve_phi_window(window, lam, tol=1e-12, shift=None, kappa=None, lapack=False):
    """solve_phi_window with the boundary re-solve run over every level
    (ref_sweep's passes, LAPACK at every d with `lapack`)."""
    from stripldp.phi import PhiSolution, SupercriticalError, _infer_kappa, divergence_bound

    n = window.n_levels
    bound = divergence_bound(_infer_kappa(window) if kappa is None else kappa, lam, tol)
    phi0 = np.zeros((window.d, window.d))
    phis, bad = ref_sweep(window, lam, phi0, bound, lapack)
    if bad >= 0:
        raise SupercriticalError(lam, level=window.lo + bad)
    if shift is None:
        shift = min(max(n // 4, 1), 256)
    gap = np.full(n, np.nan)
    warmup = shift
    if shift < n:
        sub = window.sub(window.lo + shift, window.hi)
        phis2, bad2 = ref_sweep(sub, lam, phi0, bound, lapack)
        if bad2 >= 0:
            raise SupercriticalError(lam, level=sub.lo + bad2)
        diffs = np.abs(phis[shift:] - phis2).max(axis=(1, 2))
        gap[shift:] = diffs
        above = np.nonzero(diffs > 0.5 * tol)[0]
        warmup = n if above.size and (shift + above[-1] + 1 >= n) else (
            shift + above[-1] + 1 if above.size else shift
        )
    return PhiSolution(window=window, lam=lam, phis=phis, warmup_levels=warmup,
                       boundary_gap=gap, shift=shift)


def ref_phi_derivative(window, lam, tol=1e-12, phi_solution=None, kappa=None, lapack=False):
    """phi_derivative as the reference sweep over the reference Phi solve."""
    if phi_solution is None:
        phi_solution = ref_solve_phi_window(window, lam, tol=tol, kappa=kappa, lapack=lapack)
    return ref_derivative_sweep(window, lam, phi_solution.phis,
                                np.zeros((window.d, window.d)), lapack)


def _tail_estimate(change, prev_change):
    """Richardson estimate of a monotone iteration's remaining distance,
    extrapolated from its last two changes (inf when they do not shrink)."""
    if change <= 0.0:
        return 0.0
    if prev_change <= 0.0 or change >= prev_change:
        return float("inf")
    ratio = change / prev_change
    return change * ratio / (1.0 - ratio)


def ref_solve_phi_periodic(spec, lam, tol=1e-13, max_iter=200_000):
    """The cyclic sweep (position 0 fed by position period-1) iterated from
    zero, one level at a time, until one cycle changes no entry by more
    than tol; `tail` extrapolates the remaining distance."""
    from stripldp.phi import (ConvergenceError, PeriodicPhi, SupercriticalError,
                              divergence_bound)

    bound = divergence_bound(spec.kappa, lam, tol)
    el = math.exp(lam)
    per, d = spec.period, spec.d
    prev_change = float("inf")
    eye = np.eye(d)
    rhs = np.empty((d, 2 * d))
    f = np.zeros((per, d, d))
    for it in range(1, max_iter + 1):
        change = 0.0
        carry = f[-1]
        for k in range(per):
            s = spec.slices[k]
            m = el * (s.r + s.q @ carry)
            rhs[:, :d] = el * s.p
            rhs[:, d:] = eye
            try:
                sol = np.linalg.solve(eye - m, rhs)
            except np.linalg.LinAlgError:
                raise SupercriticalError(lam, level=k)
            new = sol[:, :d]
            if (sol[:, d:] < REF_NEG_ENTRY_TOL).any() or (new < REF_NEG_ENTRY_TOL).any():
                raise SupercriticalError(lam, level=k)
            if new.max() > bound:
                raise SupercriticalError(lam, level=k)
            change = max(change, float(np.abs(new - f[k]).max()))
            f[k] = np.maximum(new, 0.0)
            carry = f[k]
        if change <= tol:
            return PeriodicPhi(phis=f, lam=lam, iterations=it,
                               tail=_tail_estimate(change, prev_change))
        prev_change = change
    raise ConvergenceError(change, max_iter)


def ref_estimate_lambda_crit(spec, window_len=6000, tol=1e-6, seed=0):
    """estimate_lambda_crit as the plain bisection: at every midpoint one
    LAPACK window sweep (ref_sweep with `lapack`), or the reference cyclic
    sweep."""
    from stripldp.env import lambda_crit_cap, sample_window
    from stripldp.phi import (ConvergenceError, CriticalExponent, SupercriticalError,
                              divergence_bound)

    if spec.kind == "periodic":
        def feasible(lam):
            try:
                ref_solve_phi_periodic(spec, lam, tol=min(1e-13, tol * 1e-4))
                return True
            except (SupercriticalError, ConvergenceError):
                return False
    else:
        window = sample_window(spec, 0, window_len, seed=seed)
        phi0 = np.zeros((spec.d, spec.d))

        def feasible(lam):
            return ref_sweep(window, lam, phi0, divergence_bound(spec.kappa, lam),
                             lapack=True)[1] < 0

    lo, hi = 0.0, lambda_crit_cap(spec.kappa)
    if feasible(hi):
        return CriticalExponent(lambda_crit=hi, bracket=(hi - tol, hi), tolerance=tol)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return CriticalExponent(lambda_crit=0.5 * (lo + hi), bracket=(lo, hi), tolerance=tol)


def ref_periodic_phi_derivative(spec, lam, periodic, tol=1e-13, max_iter=200_000,
                                changes=None):
    """The cyclic Phi' recursion iterated from zero until one cycle changes
    no entry by more than tol * max(1, max|Phi'|); each cycle's change is
    appended to `changes` when a list is given."""
    el = math.exp(lam)
    per, d = periodic.period, spec.d
    eye = np.eye(d)
    dph = np.zeros((per, d, d))
    for _ in range(max_iter):
        change = 0.0
        carry_phi = periodic.phis[-1]
        carry_d = dph[-1]
        for k in range(per):
            s = spec.slices[k]
            cur = periodic.phis[k]
            m = el * (s.r + s.q @ carry_phi)
            rhs = cur + el * (s.q @ carry_d @ cur)
            new = np.linalg.solve(eye - m, rhs)
            change = max(change, float(np.abs(new - dph[k]).max()))
            dph[k] = new
            carry_phi, carry_d = cur, new
        if changes is not None:
            changes.append(change)
        if change <= tol * max(1.0, float(np.abs(dph).max())):
            return dph
    raise AssertionError("reference periodic derivative did not converge")


# ---------------------------------------------------------------------------
# reference direction loops: the per-level rolls that lmgf, montecarlo and
# products wrote out before they shared stripldp.products' two rolls; the
# estimators must reproduce them bit for bit
# ---------------------------------------------------------------------------


def ref_periodic_directions(phis, tol=1e-14, max_iter=100_000):
    """Cyclic power iteration for one period's (mu, nu), one level at a time."""
    per, d, _ = phis.shape
    mu = np.full((per, d), 1.0 / d)
    for _ in range(max_iter):
        prev = mu.copy()
        v = mu[0]
        for k in range(per):
            mu[k] = v
            v = v @ phis[k]
            v = v / v.sum()
        mu[0] = v  # direction after a full cycle feeds the next one
        if np.abs(mu - prev).max() <= tol:
            break
    else:
        raise AssertionError("reference mu cycle did not converge")
    nu = np.full((per, d), 1.0 / d)
    for _ in range(max_iter):
        prev = nu.copy()
        v = nu[0]
        for k in range(per - 1, -1, -1):
            w = phis[k] @ v
            v = w / w.sum()
            nu[k] = v
        if np.abs(nu - prev).max() <= tol:
            break
    else:
        raise AssertionError("reference nu cycle did not converge")
    return mu, nu


def ref_roll_2x2(factors, start=None, side="left"):
    """One direction roll over 2x2 factors on Python floats, a level at a
    time: forward (side 'left') v_{k+1} = v_k Phi_k / (v_k Phi_k 1) from
    v_0 = start, or backward (side 'right') v_k = Phi_k v_{k+1} /
    (1 Phi_k v_{k+1}) from v_n = start (uniform when omitted). Returns the
    directions, (n+1, 2), and the normalizers, (n,), level k's at index k."""
    mats = [np.asarray(f, dtype=float).tolist() for f in factors]
    v = [0.5, 0.5] if start is None else [float(x) for x in start]
    dirs, norms = [v], []
    levels = range(len(mats)) if side == "left" else reversed(range(len(mats)))
    for k in levels:
        a = mats[k]
        if side == "left":
            w = [v[0] * a[0][j] + v[1] * a[1][j] for j in range(2)]
        else:
            w = [a[i][0] * v[0] + a[i][1] * v[1] for i in range(2)]
        t = w[0] + w[1]
        v = [w[0] / t, w[1] / t]
        dirs.append(v)
        norms.append(t)
    if side == "right":
        dirs.reverse()
        norms.reverse()
    return np.array(dirs), np.array(norms)


def ref_log_terms(phis, periodic):
    """Value terms log(mu_k Phi_k 1): the forward z loop (uniform start) on a
    window, the plain float roll at d = 2, the cyclic directions on a
    period."""
    per, d, _ = phis.shape
    if periodic:
        mu, _ = ref_periodic_directions(phis)
        return [math.log(float(mu[k] @ phis[k] @ np.ones(d))) for k in range(per)]
    if d == 1:
        return np.log(phis[:, 0, 0])
    if d == 2:
        return np.array([math.log(s) for s in ref_roll_2x2(phis)[1]])
    terms = np.empty(per)
    z = np.full(d, 1.0 / d)
    ones = np.ones(d)
    for k in range(per):
        w = z @ phis[k]
        s = float(w @ ones)
        terms[k] = math.log(s)
        z = w / s
    return terms


def ref_derivative_terms(phis, dphis, periodic):
    """Derivative terms mu_k Phi'_k nu_{k+1} / (mu_k Phi_k nu_{k+1}): on a
    window the backward R loop from the uniform vector at level n, then the
    forward z loop (both the plain float roll at d = 2)."""
    n, d, _ = phis.shape
    if periodic:
        mu, nu = ref_periodic_directions(phis)
        return [float(mu[k] @ dphis[k] @ nu[(k + 1) % n])
                / float(mu[k] @ phis[k] @ nu[(k + 1) % n]) for k in range(n)]
    if d == 1:
        return dphis[:, 0, 0] / phis[:, 0, 0]
    if d == 2:
        Z, R = ref_roll_2x2(phis)[0], ref_roll_2x2(phis, side="right")[0]
    else:
        R = np.empty((n + 1, d))
        R[n] = 1.0 / d
        for k in range(n - 1, -1, -1):
            w = phis[k] @ R[k + 1]
            R[k] = w / w.sum()
        Z = np.empty((n + 1, d))
        Z[0] = 1.0 / d
        for k in range(n):
            w = Z[k] @ phis[k]
            Z[k + 1] = w / w.sum()
    return np.array([float(Z[k] @ dphis[k] @ R[k + 1]) / float(Z[k] @ phis[k] @ R[k + 1])
                     for k in range(n)])


def ref_tilted_sampler_tables(evaluator, lam, M, n, start_pi):
    """(log_Z, cdfs) of build_tilted_sampler with its backward h loop (the
    plain float roll at d = 2) and running log scale."""
    ker_all = evaluator._kernels(M)
    if evaluator.spec.kind == "periodic":
        ker = ker_all[np.arange(n) % ker_all.shape[0]]
    else:
        ker = ker_all[:n]
    d = ker.shape[2]
    weights = np.exp(lam * np.arange(1, M + 1))[None, :, None, None] * ker
    hs = np.empty((n + 1, d))
    hs[n] = np.ones(d) / d
    logscales = np.empty(n + 1)
    logscales[n] = math.log(d)
    if d == 2:
        hs, norms = ref_roll_2x2([weights[k].sum(axis=0) for k in range(n)], side="right")
    for k in range(n - 1, -1, -1):
        if d == 2:
            s = float(norms[k])
        else:
            w = weights[k].sum(axis=0) @ hs[k + 1]
            s = w.sum()
            hs[k] = w / s
        logscales[k] = logscales[k + 1] + math.log(s)
    log_Z = math.log(float(start_pi @ hs[0])) + logscales[0]
    cdfs = np.empty((n, d, M * d))
    for k in range(n):
        flat = (weights[k] * hs[k + 1][None, None, :]).transpose(1, 0, 2).reshape(d, M * d)
        cdfs[k] = np.cumsum(flat / flat.sum(axis=1, keepdims=True), axis=1)
    return log_Z, cdfs


def ref_trial_uniforms(seed, tag, trial, k):
    """Uniform stream of one trial from its own SeedSequence and generator."""
    ss = np.random.SeedSequence(seed if seed is not None else 0,
                                spawn_key=(tag, trial))
    return np.random.default_rng(ss).random(k)


def ref_choose(rows, u):
    """Moves by inverse CDF on whole cumulative rows (trials, 3d): the number
    of partial sums at or below u (searchsorted's side="right"), clamped to
    3d - 1."""
    return np.minimum((u[:, None] >= rows).sum(axis=1), rows.shape[1] - 1)


def ref_move_cdf(q, r, p):
    return np.cumsum(np.concatenate([q, r, p], axis=-1), axis=-1)


def ref_window_lookup(window):
    """Lookup (li, h, u, trial) -> move of montecarlo._window_cdf from the
    (n, d, 3d) cumulative rows gathered per trial."""
    cdf = ref_move_cdf(window.q, window.r, window.p)
    return lambda li, h, u, trial: ref_choose(cdf[li, h], u)


def ref_averaged_lookup(spec, env_uniforms):
    """Lookup of montecarlo._averaged_lookups(spec)(env_uniforms) from the
    (S, d, 3d) cumulative support rows gathered per trial."""
    support = ref_move_cdf(*spec.stacks)
    cum = np.cumsum(np.asarray(spec.weights))
    env = np.minimum(np.searchsorted(cum, env_uniforms, side="right"), len(cum) - 1)
    return lambda li, h, u, trial: ref_choose(support[env[trial, li], h], u)


class BlockLanes:
    """The two operations of montecarlo's trial lanes on a fixed (trials,
    steps) block U: `_column` gives the next column of U for the live
    trials, `_keep` drops trials by a mask over the live ones."""

    def __init__(self, U):
        self.U, self.live, self.step = U, np.arange(len(U)), 0

    def _column(self):
        self.step += 1
        return self.U[self.live, self.step - 1]

    def _keep(self, keep):
        self.live = self.live[keep]


def ref_batch_walk(lookup, lo, target, U, d, h0, M=None):
    """(T, ok) of montecarlo._batch_walk from an active mask over all trials,
    indexing every array with the active trials at each step."""
    from stripldp.env import WindowExhaustedError

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
        choice = lookup(li, h[idx], U[idx, step - 1], idx)
        lev[idx] += choice // d - 1
        h[idx] = choice % d
        if M is not None:
            bad = idx[(step - last_adv[idx]) > M]
            if bad.size:
                ok[bad] = False
                active[bad] = False
        adv = idx[(lev[idx] > best[idx]) & ok[idx]]
        if adv.size:
            best[adv] += 1
            last_adv[adv] = step
        hit = idx[(lev[idx] == target) & ok[idx]]
        if hit.size:
            T[hit] = step
            active[hit] = False
    return T, ok


def ref_positive_product_direction(arr, side):
    """(v, error_radius) of one product roll with its running rho certificate
    (v from the plain float roll at d = 2)."""
    def rho_pair(A, B):
        terms = A[:, :, None] * B[None, :, :]
        return float((terms.min(axis=1) / terms.sum(axis=1)).min())

    n, d, _ = arr.shape
    v = np.full(d, 1.0 / d)
    eps = 1.0
    if side == "left":
        for k in range(n):
            v = v @ arr[k]
            v = v / v.sum()
            if k > 0:
                eps *= 1.0 - d * rho_pair(arr[k - 1], arr[k])
    else:
        for k in range(n - 1, -1, -1):
            v = arr[k] @ v
            v = v / v.sum()
            if k < n - 1:
                eps *= 1.0 - d * rho_pair(arr[k + 1].T, arr[k].T)
    if d == 2:
        v = ref_roll_2x2(arr, side=side)[0][-1 if side == "left" else 0]
    return v, (float("inf") if eps >= 1.0 else 2.0 * eps / (1.0 - eps))


# ---------------------------------------------------------------------------
# reference truncated-kernel DP: the per-level loop that
# stripldp.phi.truncated_kernels_range batches over start levels and must
# reproduce bit for bit
# ---------------------------------------------------------------------------


def ref_hitting_kernels(window, k, M):
    """W[m-1](i,j) = P^{(k,i)}(T_{k+1} = m, Y_{T_{k+1}} = j), m = 1..M, by
    the DP over time steps on levels (k-M, k], one level block at a time
    (all-zero blocks skipped)."""
    d = window.d
    base = window.index_of(k - M + 1)
    q = window.q[base:base + M]
    r = window.r[base:base + M]
    p = window.p[base:base + M]
    cur = np.zeros((M, d, d))
    cur[M - 1] = np.eye(d)
    W = np.zeros((M, d, d))
    for m in range(1, M + 1):
        W[m - 1] = cur[M - 1] @ p[M - 1]
        if m == M:
            break
        nxt = np.zeros_like(cur)
        for l in range(M):
            block = cur[l]
            if not block.any():
                continue
            nxt[l] += block @ r[l]
            if l > 0:
                nxt[l - 1] += block @ q[l]
            if l + 1 < M:
                nxt[l + 1] += block @ p[l]
        cur = nxt
    return W


def enumerate_truncated_phi(window, k, M, lam):
    """Exhaustive path enumeration oracle for Phi_{k,M}(lambda).

    Walks every path of length <= M from (k, i) until first arrival at level
    k+1, accumulating e^{lambda * steps} * P(path). Independent of the DP:
    literally sums over paths of the chain.
    """
    d = window.d
    el = math.exp(lam)
    out = np.zeros((d, d))
    for i0 in range(d):
        stack = [(k, i0, 0, 1.0)]
        while stack:
            lev, h, steps, prob = stack.pop()
            if steps == M or prob == 0.0:
                continue
            wk = window.index_of(lev)
            for j in range(d):
                pq = window.q[wk, h, j]
                if pq > 0:
                    stack.append((lev - 1, j, steps + 1, prob * pq))
                pr = window.r[wk, h, j]
                if pr > 0:
                    stack.append((lev, j, steps + 1, prob * pr))
                pp = window.p[wk, h, j]
                if pp > 0:
                    if lev + 1 == k + 1:
                        out[i0, j] += prob * pp * el ** (steps + 1)
                    else:
                        stack.append((lev + 1, j, steps + 1, prob * pp))
    return out


def enumerate_hitting_distribution(window, n, M, start_height=0, max_steps=None):
    """P(T_n = s, all tau_k <= M) by exhaustive path enumeration (d=1 only
    needed at desk scale, but written for any d). Returns {s: prob}."""
    d = window.d
    cap = max_steps if max_steps is not None else n * M
    out: dict[int, float] = {}
    # state: (level, height, steps, steps_at_last_advance, best_level, prob)
    stack = [(0, start_height, 0, 0, 0, 1.0)]
    while stack:
        lev, h, steps, last_adv, best, prob = stack.pop()
        if steps == cap or prob == 0.0:
            continue
        wk = window.index_of(lev)
        for j in range(d):
            for dlev, mat in ((-1, window.q), (0, window.r), (1, window.p)):
                pr = mat[wk, h, j]
                if pr == 0.0:
                    continue
                nlev = lev + dlev
                nsteps = steps + 1
                nbest, nlast = best, last_adv
                if nlev > best:
                    nbest = nlev
                    if nsteps - last_adv > M:
                        continue  # excursion cap violated
                    nlast = nsteps
                elif nsteps - last_adv >= M and nbest < n:
                    continue  # current excursion can no longer finish in time
                if nlev == n:
                    out[nsteps] = out.get(nsteps, 0.0) + prob * pr
                else:
                    stack.append((nlev, j, nsteps, nlast, nbest, prob * pr))
    return out


def cramer_speed_rate(kernel, L, d, x, iters=200):
    """Cramér's rate of a walk on Z with step kernel `kernel` on [-L, R], in
    strip levels of width d: sup_theta {theta d x - log sum_z k(z) e^{theta z}},
    for d x strictly between the least and the largest step. The supremum
    sits where the tilted mean step sum_z z k(z) e^{theta z} / sum_z k(z)
    e^{theta z} (increasing in theta) equals d x; theta is bisected on that."""
    z = np.arange(-L, len(kernel) - L)
    k = np.asarray(kernel, dtype=float)

    def log_mgf(theta):
        return math.log(float((k * np.exp(theta * z)).sum()))

    def tilted_mean(theta):
        w = k * np.exp(theta * z)
        return float((w * z).sum() / w.sum())

    target = d * x
    lo, hi = -1.0, 1.0
    while tilted_mean(lo) > target:
        lo *= 2.0
    while tilted_mean(hi) < target:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if tilted_mean(mid) < target:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return theta * target - log_mgf(theta)


def power_iteration_direction(mat, iters=400):
    """Dominant left-eigenvector direction of a positive matrix."""
    v = np.full(mat.shape[0], 1.0 / mat.shape[0])
    for _ in range(iters):
        v = v @ mat
        v = v / v.sum()
    return v


@pytest.fixture(scope="session")
def p075_spec():
    from stripldp.env import homogeneous_d1_spec

    return homogeneous_d1_spec(0.75, kappa=0.25)


@pytest.fixture(scope="session")
def p025_spec():
    from stripldp.env import homogeneous_d1_spec

    return homogeneous_d1_spec(0.25, kappa=0.25)


@pytest.fixture(scope="session")
def recurrent_spec():
    from stripldp.env import homogeneous_d1_spec

    return homogeneous_d1_spec(0.5, kappa=0.4)
