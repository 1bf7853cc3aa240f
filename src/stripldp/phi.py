"""Quenched excursion MGF matrices Phi_k(lambda) and relatives.

Phi_k(lambda)(i,j) = E^{(k,i)}[ e^{lambda * T_{k+1}} ; T_{k+1} < inf, Y_{T_{k+1}} = j ]
solves the one-step fixed point

    Phi_k = e^lambda ( p_k + r_k Phi_k + q_k Phi_{k-1} Phi_k ).

Given Phi_{k-1} the equation is linear in Phi_k, so a window is solved by a
single left-to-right pass of small linear solves starting from the zero
matrix at the left boundary (the minimal, probabilistic solution). Validity
of each solve is certified by an M-matrix check: for the nonnegative
M = e^lambda (r + q Phi_{k-1}), the Neumann series converges iff
(I - M)^{-1} >= 0 entrywise, and a failure (or an entry above the a-priori
bound (1/kappa) e^{-lambda} for lambda > 0) certifies supercriticality.

Six loops do all the sweeping: a scalar, a 2x2 and a general Phi loop,
and a scalar, a 2x2 and a general Phi' loop over a solved Phi. A window
pass (the Phi solve, its boundary re-solve and each lambda_crit midpoint)
takes the Phi loop of its d: at d = 1 one division a level, bit for bit
the 1x1 LAPACK solve with one right-hand side (with two, such as the
general loop's [e^l p_k | I], OpenBLAS multiplies by the reciprocal
instead, which rounds differently); at d = 2 one closed-form 2x2
elimination a level on Python floats, whose positive pivot and Schur
complement are the whole M-matrix certificate; at d >= 3 one LAPACK
solve a level. Each Phi loop forms the window's Phi' on request in the
same level iteration, from the same m, pivot, multiplier and Schur
complement (at d >= 3 by a second solve on the same matrix), bit for bit
the separate Phi' recursion over the solved Phi. The d <= 2 loops read
the window's levels from `EnvironmentWindow.rows`, tuples of Python
floats made once per support slice, call no numpy function inside the
loop and, for a lambda_crit midpoint, make no level array. On a 2-core
x86-64 Xeon a level costs about 0.12 us of Phi and 0.24 us of Phi and
Phi' together at d = 1, 0.62 us and 1.25 us at d = 2, against 10-14 us
for a LAPACK level. The Phi' loops over a solved Phi serve the periodic
solvers alone, and run one Phi' recursion for several starts (lanes) at
once: each Newton step's Jacobian and the passes around the periodic
Phi' solve. The periodic solvers take the loops of their d, as windows
do, and at d <= 2 read the spec's float rows (`EnvironmentSpec.rows`):
at d = 1 the scalar loops, with no numpy call but the result array; at
d = 2 the 2x2 loops, whose Phi' loop forms each level's elimination once
for all five lanes of a Jacobian (about 6 us a level on the host above
where the stacked LAPACK solve takes 19 us), and one 4x4 LAPACK solve a
Newton step; at d >= 3 the general loops. Level k of the
Phi sweep depends only on level k-1, so once the boundary re-solve from
a later start equals the main sweep at one level, it equals it at every
later level. The re-solve runs in blocks of RESOLVE_BLOCK levels and
stops after the first block that ends on the main sweep's bits; the
boundary gap it measures past the meeting level is exactly 0.

The periodic Phi is the minimal fixed point of the cyclic sweep, found by
Newton's method on Phi_{-1}: one Phi pass over the period, its Jacobian
from the Phi' lanes of one more pass (_period_map, shared with the
periodic Phi'), and one d^2 x d^2 solve whose nonnegative inverse is the
step's M-matrix certificate; at d = 1 that solve is the division
res / (1 - T), certified by 1 - T > 0. One Newton loop serves every d;
_cycle_loops hands it the passes and the step of the spec's d.

Truncated matrices Phi_{k,M} are computed exactly: one dynamic program
over time steps gives the hitting kernels of a whole range of start levels
at once, a (K, M, d, d) stack, and truncated_phis weights them into
Phi_{k,M}(lambda). The term-by-term derivatives Phi'_k come from the
forward sensitivity of the same fixed point.

Every Phi sequence leaves this module as one (n, d, d) array, level k at
row k - lo: PhiSolution.phis over a window, PeriodicPhi.phis over a
period, and the arrays of phi_derivative, periodic_phi_derivative and
truncated_phis.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .env import (
    EnvironmentSpec,
    EnvironmentWindow,
    lambda_crit_cap,
    sample_window,
)

NEG_ENTRY_TOL = -1e-12  # roundoff slack for the M-matrix inverse positivity
WINDOW_TOL = 1e-12  # solve_phi_window's tolerance; warm-up is a boundary gap above half of it


class SupercriticalError(RuntimeError):
    """lambda exceeds the (estimated) critical exponent; Phi diverges."""

    def __init__(self, lam: float, level: int | None = None, detail: str = ""):
        self.lam = lam
        self.level = level
        super().__init__(
            f"Phi(lambda={lam}) diverges"
            + (f" at level {level}" if level is not None else "")
            + (f": {detail}" if detail else "")
        )


class ConvergenceError(RuntimeError):
    """No fixed point: the steps ran out (at `residual`), or a solve's certificate failed."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations, residual {residual:.3e}"
        )


def divergence_bound(kappa: float, lam: float, tol: float = 1e-12) -> float:
    """Entry threshold whose crossing certifies lambda > lambda_crit.

    (1/kappa) e^{-lambda} bounds every true Phi entry for lambda in
    (0, lambda_crit]; window values only ever undershoot the true ones.
    For lambda <= 0 every entry is a subprobability, so 1 is the bound.
    """
    if lam > 0:
        return (1.0 / kappa) * math.exp(-lam) * (1.0 + 10.0 * tol)
    return 1.0 + 10.0 * tol


def _sweep_d1(rows, el: float, f: float, bound: float, vals: list, dvals=None) -> int:
    """The scalar Phi levels of _sweep and of every d = 1 periodic Newton
    pass over (q, r, p) float rows, from Phi_{-1} = f: one division a
    level. Appends each Phi_k to `vals` and, given the list `dvals`, each
    Phi'_k from Phi'_{-1} = 0; returns -1, or the failing level's index:
    the number of levels appended."""
    g = 0.0
    for q, r, p in rows:
        m = el * (r + q * f)
        if m >= 1.0:
            return len(vals)
        f = el * p / (1.0 - m)
        if f > bound:
            return len(vals)
        vals.append(f)
        if dvals is not None:
            g = (f + el * ((q * g) * f)) / (1.0 - m)
            dvals.append(g)
    return -1


def _sweep_d2(rows, el: float, f: list, bound: float, vals: list, dvals=None) -> int:
    """_sweep's 2x2 levels, and those of every d = 2 periodic Newton pass,
    on Python floats by closed-form elimination.

    I - M with M = e^l (r_k + q_k Phi_{k-1}) >= 0 is a Z-matrix, and a 2x2
    Z-matrix is a nonsingular M-matrix iff its leading principal minors are
    positive (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6): the pivot 1 - m00 and the Schur complement, the whole
    certificate. The elimination needs no row exchange, and every entry of
    Phi_k is a sum of nonnegative terms, so none is clamped. A level also
    fails when an entry of Phi_k exceeds `bound`. Phi'_k takes the same
    multiplier, pivot and Schur complement, applied to the right side
    Phi_k + e^l q_k Phi'_{k-1} Phi_k. Level values go to the lists as in
    _sweep_d1, row-major, and a failing level's index is a quarter of
    len(vals).
    """
    f00, f01, f10, f11 = f
    g00 = g01 = g10 = g11 = 0.0
    for q00, q01, q10, q11, r00, r01, r10, r11, p00, p01, p10, p11 in rows:
        m00 = el * (r00 + (q00 * f00 + q01 * f10))
        m01 = el * (r01 + (q00 * f01 + q01 * f11))
        m10 = el * (r10 + (q10 * f00 + q11 * f10))
        m11 = el * (r11 + (q10 * f01 + q11 * f11))
        pivot = 1.0 - m00
        if not pivot > 0.0:
            return len(vals) // 4
        mult = m10 / pivot
        schur = (1.0 - m11) - mult * m01
        if not schur > 0.0:
            return len(vals) // 4
        b00, b01 = el * p00, el * p01
        f10 = (el * p10 + mult * b00) / schur
        f11 = (el * p11 + mult * b01) / schur
        f00 = (b00 + m01 * f10) / pivot
        f01 = (b01 + m01 * f11) / pivot
        if f00 > bound or f01 > bound or f10 > bound or f11 > bound:
            return len(vals) // 4
        vals += f00, f01, f10, f11
        if dvals is not None:
            h00, h01 = q00 * g00 + q01 * g10, q00 * g01 + q01 * g11  # q_k Phi'_{k-1}
            h10, h11 = q10 * g00 + q11 * g10, q10 * g01 + q11 * g11
            b00 = f00 + el * (h00 * f00 + h01 * f10)
            b01 = f01 + el * (h00 * f01 + h01 * f11)
            b10 = f10 + el * (h10 * f00 + h11 * f10)
            b11 = f11 + el * (h10 * f01 + h11 * f11)
            g10 = (b10 + mult * b00) / schur
            g11 = (b11 + mult * b01) / schur
            g00 = (b00 + m01 * g10) / pivot
            g01 = (b01 + m01 * g11) / pivot
            dvals += g00, g01, g10, g11
    return -1


def _levels(vals: list, d: int) -> np.ndarray:
    """The (n, d, d) stack of a float loop's flat, row-major level values."""
    return np.fromiter(vals, float, len(vals)).reshape(-1, d, d)


try:
    # the gufunc under np.linalg.solve; the sweeps call it once per level
    # inside one errstate block rather than paying the wrapper's checks and
    # errstate each time (same LAPACK call on the same arrays, same bits)
    from numpy.linalg import _umath_linalg

    _solve = functools.partial(_umath_linalg.solve, signature="dd->d")
except (ImportError, AttributeError):  # pragma: no cover - numpy moved it
    _solve = np.linalg.solve


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _linalg_errstate():
    """np.linalg.solve's error state: a singular matrix raises LinAlgError.

    Held over a whole sweep. With a finite e^lambda and finite, bounded
    inputs the solve is the only operation in the loop that can raise a
    floating-point flag, so the wider block changes nothing else.
    """
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _right_sides(el: float, p: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """[e^l p_k | I] for every level k: the right-hand sides of _sweep_levels."""
    n, d, _ = p.shape
    rhs = np.empty((n, d, 2 * d))
    np.multiply(el, p, out=rhs[:, :, :d])
    rhs[:, :, d:] = eye
    return rhs


def _sweep_general(q, r, p, el: float, phi0: np.ndarray, bound: float, derivative=False):
    """One pass of Phi_k = (I - e^l (r_k + q_k Phi_{k-1}))^{-1} e^l p_k, d > 2;
    returns (phis, dphis or None, bad level index or -1).

    Each level solves for [Phi_k | (I - M)^{-1}] at once; one test covers
    the M-matrix certificate (no negative entry in the inverse or in Phi_k)
    and the a-priori entry bound. With `derivative`, a second solve on the
    same I - M gives Phi'_k.
    """
    eye = np.eye(q.shape[1])
    dout = np.empty(q.shape) if derivative else None
    with _linalg_errstate():
        phis, bad = _sweep_levels(q, r, _right_sides(el, p, eye), eye, el, phi0, bound, dout)
    return phis, dout, bad


def _sweep_levels(q, r, rhs, eye, el: float, f: np.ndarray, bound: float, dout=None):
    """The level loop of _sweep_general and of every periodic Newton pass at
    d >= 3; runs inside _linalg_errstate. Given `dout` (n, d, d), level k also
    solves (I - M) Phi'_k = Phi_k + e^l q_k Phi'_{k-1} Phi_k into dout[k],
    from Phi'_{-1} = 0."""
    n, d, _ = q.shape
    out = np.empty((n, d, d))
    g = np.zeros((d, d))
    for k in range(n):
        a = eye - el * (r[k] + q[k] @ f)
        try:
            sol = _solve(a, rhs[k])
        except np.linalg.LinAlgError:
            return out, k
        f = sol[:, :d]
        # inverse nonnegativity <=> spectral radius of M < 1 (M-matrix)
        if sol.min() < NEG_ENTRY_TOL or f.max() > bound:
            return out, k
        f = np.maximum(f, 0.0, out=out[k])
        if dout is not None:
            g = dout[k] = _solve(a, f + el * (q[k] @ g @ f))
    return out, -1


def _sweep(window: EnvironmentWindow, lam: float, phi0, bound: float, start: int = 0,
           stop: int | None = None, derivative: bool = False, keep: bool = True):
    """One exact pass over the window's levels start..stop-1 (row indices)
    from Phi_{start-1} = phi0 (d, d); returns (phis, dphis, bad), bad the
    failing level's index from `start`, or -1.

    With `derivative`, dphis holds every level's Phi' from Phi'_{start-1} =
    0, formed in the same level iteration as its Phi; else it is None. At
    d <= 2 a pass without `keep` converts its float list to no array
    (phis is None): only its verdict counts. The loop is the d = 1
    division, the d = 2 elimination on floats or, at d >= 3, the LAPACK
    solve.
    """
    el = math.exp(lam)
    d = window.d
    if d > 2:
        return _sweep_general(window.q[start:stop], window.r[start:stop],
                              window.p[start:stop], el, phi0, bound, derivative)
    vals, dvals = [], [] if derivative else None
    rows = window.rows[start:stop]
    if d == 1:
        bad = _sweep_d1(rows, el, float(phi0[0, 0]), bound, vals, dvals)
    else:
        bad = _sweep_d2(rows, el, phi0.ravel().tolist(), bound, vals, dvals)
    return (_levels(vals, d) if keep else None,
            None if dvals is None else _levels(dvals, d), bad)


@dataclass
class PhiSolution:
    """Per-level Phi matrices over a window, with measured boundary forgetting.

    Levels before `warmup_levels` (relative to window.lo) still feel the zero
    initialization at the left edge; `boundary_gap` is the measured influence
    of the first `shift` levels at each position, a proxy certificate for the
    geometric forgetting of the left boundary. Only Phi measures it. `dphis`
    is the window's Phi' (phi_derivative's array) when the solve was asked
    for it, formed in the Phi pass itself, else None.
    """

    window: EnvironmentWindow
    lam: float
    phis: np.ndarray  # (n, d, d)
    warmup_levels: int = 0
    boundary_gap: np.ndarray | None = None
    shift: int = 0
    dphis: np.ndarray | None = None  # (n, d, d)

    def __len__(self) -> int:
        return self.phis.shape[0]

    def at_level(self, level: int) -> np.ndarray:
        return self.phis[self.window.index_of(level)]


RESOLVE_BLOCK = 64  # levels per block of solve_phi_window's boundary re-solve


def solve_phi_window(
    window: EnvironmentWindow,
    lam: float,
    shift: int | None = None,
    kappa: float | None = None,
    derivative: bool = False,
) -> PhiSolution:
    """Solve the Phi fixed point over the window from the zero left boundary.

    The pass is the exact limit of the monotone sweep iteration (each level's
    equation is linear given its left neighbor). With `derivative` the same
    pass also gives phi_derivative's Phi' (`dphis`), bit for bit. Boundary
    forgetting is measured by re-solving Phi from `shift` levels in and
    flagging as warm-up every level where the two solutions differ by more
    than WINDOW_TOL / 2. The re-solve runs in blocks of RESOLVE_BLOCK
    levels, each from the last Phi of the block before, and stops after the
    first block whose last level equals the main sweep bit for bit: each
    level is computed from the one before alone, so from there on it
    repeats the main sweep exactly, and its gap is 0.
    `kappa` is the spec's ellipticity constant (measured from the window's
    entry-height conditions when omitted); it calibrates the a-priori
    divergence threshold certifying supercriticality.
    """
    n = window.n_levels
    if kappa is None:
        kappa = _infer_kappa(window)
    kappa_bound = divergence_bound(kappa, lam, WINDOW_TOL)
    phi0 = np.zeros((window.d, window.d))
    phis, dphis, bad = _sweep(window, lam, phi0, kappa_bound, derivative=derivative)
    if bad >= 0:
        raise SupercriticalError(lam, level=window.lo + bad)

    if shift is None:
        shift = min(max(n // 4, 1), 256)
    gap = np.full(n, np.nan)
    warmup = shift
    if shift < n:
        resolved = []
        for a in range(shift, n, RESOLVE_BLOCK):
            block, _, bad = _sweep(window, lam, phi0 if a == shift else block[-1],
                                   kappa_bound, a, a + RESOLVE_BLOCK)
            if bad >= 0:
                raise SupercriticalError(lam, level=window.lo + a + bad)
            resolved.append(block)
            if block[-1].tobytes() == phis[a + len(block) - 1].tobytes():
                break
        gap, warmup = _boundary_gap(phis, np.concatenate(resolved), shift, 0.5 * WINDOW_TOL)
    return PhiSolution(
        window=window, lam=lam, phis=phis,
        warmup_levels=warmup, boundary_gap=gap, shift=shift, dphis=dphis,
    )


def _boundary_gap(main: np.ndarray, resolved: np.ndarray, shift: int, threshold: float):
    """How far a sweep still feels its left boundary, from its re-solve
    `shift` levels in: the gap max|main - resolved| at every level (NaN
    before `shift`, 0 past the re-solve's last level, where it equals
    `main`), and the level after the last gap above `threshold` (`shift`
    when there is none)."""
    gap = np.full(len(main), np.nan)
    gap[shift:] = 0.0
    gap[shift:shift + len(resolved)] = np.abs(
        main[shift:shift + len(resolved)] - resolved).max(axis=(1, 2))
    above = np.nonzero(gap[shift:] > threshold)[0]
    return gap, shift + above[-1] + 1 if above.size else shift


def _infer_kappa(window: EnvironmentWindow) -> float:
    """Largest ellipticity level the window certifiably supports.

    The a-priori entry bound (1/kappa) e^{-lambda} is derived from the
    entry-height conditions ((I-r)^{-1} q)(i,j) >= kappa (and mirrored for p),
    so kappa must be measured from those, not from one-step sums. Capped
    below 1/2 to stay inside N_kappa's domain.
    """
    d = window.d
    eye = np.eye(d)
    worst = 0.499
    for k in range(window.n_levels):
        try:
            sol = np.linalg.solve(eye - window.r[k],
                                  np.concatenate([window.q[k], window.p[k]], axis=1))
        except np.linalg.LinAlgError:
            return 1e-9
        worst = min(worst, float(sol.min()))
    return max(worst, 1e-9)


# ---------------------------------------------------------------------------
# periodic environments: cyclic fixed point
# ---------------------------------------------------------------------------


NEWTON_MAX_STEPS = 100  # Newton steps of solve_phi_periodic before it gives up


@dataclass
class PeriodicPhi:
    """Phi values for one period of a periodic spec (position k = level k mod period).

    `iterations` counts Newton steps; `tail` is the size of the last one,
    which bounds the remaining distance to the fixed point both where
    Newton converges quadratically and where it halves the distance each
    step (at a singular root, the recurrent boundary).
    """

    phis: np.ndarray  # (period, d, d)
    lam: float
    iterations: int
    tail: float

    @property
    def period(self) -> int:
        return self.phis.shape[0]


def _cycle_loops(spec: EnvironmentSpec, lam: float) -> tuple:
    """(zero, sweep, newton, derivative): the periodic solvers' loops at
    lambda, those of the spec's d.

    `zero` is Newton's start x = Phi_{-1} = 0. sweep(x, bound, vals)
    appends the Phi pass from Phi_{-1} = x to `vals` (flat, row-major) and
    returns the failing level's index or -1. newton(vals, x) ->
    (x', |delta|, |res|) is Newton's step from x given that pass:
    res = Phi_{period-1} - x, T the pass's Jacobian in x,
    (I - T) delta = res and x' = max(x + delta, 0), with the norms the
    largest entries in absolute value; it raises SupercriticalError when
    I - T is singular or (I - T)^{-1} has a negative entry. derivative(vals)
    is the periodic Phi' over the solved Phi `vals`, flat, and raises
    ConvergenceError on the same failures.

    At d = 1, x is a float, every pass a _sweep_d1 pass over the spec's
    float rows (`EnvironmentSpec.rows`), T comes from _period_map_d1's two
    lanes and each solve is the division by 1 - T, refused unless
    1 - T > 0. At d >= 2, x is a flat list of d^2 floats, T comes from one
    pass of the zero and the d^2 unit lanes (_period_map) and each solve is
    one d^2 x d^2 LAPACK solve (_affine_solve); the passes are _sweep_d2
    and _derivative_d2 on the float rows at d = 2, and the LAPACK loops
    _sweep_levels and _derivative_levels on the stacks at d >= 3, their
    arrays converted to and from lists, which is exact.
    """
    el = math.exp(lam)
    d = spec.d
    if d == 1:
        rows = spec.rows

        def newton(vals, x):
            res = vals[-1] - x
            a = 1.0 - _period_map_d1(rows, el, vals, x)[1]  # I - T; a^{-1} >= 0 iff T < 1
            if a == 0.0:
                raise SupercriticalError(lam, detail="singular Newton step")
            if not a > 0.0:
                raise SupercriticalError(lam, detail="period map expands")
            delta = res / a
            return max(x + delta, 0.0), abs(delta), abs(res)

        def derivative(vals):
            s, T = _period_map_d1(rows, el, vals, vals[-1])
            if not 1.0 - T > 0.0:
                raise ConvergenceError(float("inf"), 1)
            out = []
            _derivative_d1(rows, el, vals, vals[-1], s / (1.0 - T), 0.0, out)
            return out

        return 0.0, functools.partial(_sweep_d1, rows, el), newton, derivative

    dd = d * d
    if d == 2:
        rows = spec.rows
        sweep = functools.partial(_sweep_d2, rows, el)
        derive = functools.partial(_derivative_d2, rows, el)
    else:
        q, r, p = spec.stacks
        eye = np.eye(d)
        rhs = _right_sides(el, p, eye)

        def sweep(x, bound, vals):
            with _linalg_errstate():
                phis, bad = _sweep_levels(q, r, rhs, eye, el, np.reshape(x, (d, d)), bound)
            vals += phis.ravel().tolist()
            return bad

        def derive(vals, prev, lanes, out=None):
            with _linalg_errstate():
                levels = _derivative_levels(q, r, eye, el, _levels(vals, d), np.reshape(prev, (d, d)),
                                            np.reshape(lanes, (-1, d, d)))
            if out is not None:
                out += levels.ravel().tolist()
            return levels[-1].ravel().tolist()

    def newton(vals, x):
        res = list(map(operator.sub, vals[-dd:], x))
        delta, failure = _affine_solve(_period_map(derive, vals, x)[1], res)
        if failure:
            raise SupercriticalError(lam, detail=failure)
        return ([max(a + b, 0.0) for a, b in zip(x, delta)],
                max(map(abs, delta)), max(map(abs, res)))

    def derivative(vals):
        prev = vals[-dd:]
        s, T = _period_map(derive, vals, prev)
        y, failure = _affine_solve(T, s)
        if failure:
            raise ConvergenceError(float("inf"), 1)
        out = []
        derive(vals, prev, y, out)
        return out

    return [0.0] * dd, sweep, newton, derivative


def solve_phi_periodic(spec: EnvironmentSpec, lam: float, tol: float = 1e-13) -> PeriodicPhi:
    """The minimal fixed point of the cyclic sweep (position 0 fed by
    position period-1), equal to the bi-infinite Phi of the periodic
    environment, by Newton's method on x = Phi_{-1}.

    One sweep pass from x over the period gives Phi_0..Phi_{period-1} (with
    the sweeps' per-level certificate and entry bound); the Phi' lanes of
    one more pass give its Jacobian T in x, and one solve of
    (I - T) delta = Phi_{period-1} - x the step, x <- max(x + delta, 0). As
    T >= 0, (I - T)^{-1} >= 0 iff rho(T) < 1; a singular I - T or a
    negative entry of its inverse raises SupercriticalError. From the zero
    start on this monotone, order-convex map the steps rise to the minimal
    solution (Latouche 1994, Newton's iteration for non-linear equations in
    Markov chains). Newton stops when |delta| <= tol, or when |delta| stops
    shrinking while the period residual is <= tol (the rounding floor at a
    nearly singular root); one more pass from the last x gives every
    position. If NEWTON_MAX_STEPS steps run out first, ConvergenceError is
    raised, at every lambda.

    The passes and the step are those of the spec's d (_cycle_loops): at
    d <= 2 on Python floats, with the step one division at d = 1 and one
    4x4 LAPACK solve at d = 2. Their Phi differs from the LAPACK loops' by
    rounding alone (a LAPACK solve with two right-hand sides multiplies by
    a reciprocal where the float loops divide).
    """
    if spec.kind != "periodic":
        raise ValueError("solve_phi_periodic needs a periodic spec")
    bound = divergence_bound(spec.kappa, lam, tol)
    x, sweep, newton, _ = _cycle_loops(spec, lam)
    step = math.inf
    done = False
    for it in range(NEWTON_MAX_STEPS + 1):
        vals = []
        bad = sweep(x, bound, vals)
        if bad >= 0:
            raise SupercriticalError(lam, level=bad)
        if done or it == NEWTON_MAX_STEPS:
            break
        x, delta, res = newton(vals, x)
        last, step = step, delta
        done = step <= tol or (step >= last and res <= tol)
    if not done:
        raise ConvergenceError(step, it)
    return PeriodicPhi(phis=_levels(vals, spec.d), lam=lam, iterations=it, tail=step)


def _affine_solve(T: list, b: list):
    """(y, None) with (I - T) y = b, for T >= 0 given row-major as a flat
    list, by one LAPACK solve of (I - T)[y | Y] = [b | I], when
    Y = (I - T)^{-1} >= 0, that is rho(T) < 1; else (None, why): I - T is
    singular, or Y has an entry below NEG_ENTRY_TOL."""
    n = len(b)
    eye2 = np.eye(n)
    try:
        with _linalg_errstate():
            sol = _solve(eye2 - np.reshape(T, (n, n)), np.column_stack((b, eye2)))
    except np.linalg.LinAlgError:
        return None, "singular Newton step"
    if sol[:, 1:].min() < NEG_ENTRY_TOL:
        return None, "period map expands"
    return sol[:, 0].tolist(), None


# ---------------------------------------------------------------------------
# term-by-term derivative Phi'_k (forward sensitivity of the fixed point)
# ---------------------------------------------------------------------------


def _derivative_levels(q, r, eye, el: float, phis, prev_phi, prev_d):
    """The Phi' level loop of the periodic solvers at d >= 3 over a solved
    `phis`, fed by Phi_{-1} = prev_phi, for one start prev_d or a stack of
    them; runs inside _linalg_errstate."""
    n = phis.shape[0]
    out = np.empty((n, *prev_d.shape))
    for k in range(n):
        cur = phis[k]
        out[k] = _solve(eye - el * (r[k] + q[k] @ prev_phi),
                        cur + el * (q[k] @ prev_d @ cur))
        prev_phi, prev_d = cur, out[k]
    return out


def _derivative_d1(rows, el: float, phis, f: float, s: float, t: float, out=None):
    """_derivative_levels at d = 1 on Python floats, for two lanes:
    phi_derivative's recursion over the solved float levels `phis`, fed by
    Phi_{-1} = f, from Phi'_{-1} = s and t. Each level forms
    1 - e^l (r + q Phi_{k-1}) once and divides each lane by it (the 1x1
    solve with one right-hand side). Returns both lanes' last Phi'; given
    the list `out`, appends each level's Phi' of the first lane."""
    for (q, r, _), cur in zip(rows, phis):
        a = 1.0 - el * (r + q * f)
        s = (cur + el * ((q * s) * cur)) / a
        t = (cur + el * ((q * t) * cur)) / a
        if out is not None:
            out.append(s)
        f = cur
    return s, t


def _derivative_d2(rows, el: float, phis, prev, lanes, out=None) -> list:
    """phi_derivative's recursion at d = 2 on Python floats over the solved
    float levels `phis`, fed by Phi_{-1} = prev, from each lane's Phi'_{-1};
    levels and lanes are flat row-major 2x2 matrices, and `lanes` their
    concatenation. At each level, _sweep_d2's elimination of
    I - e^l (r_k + q_k Phi_{k-1}), that is m, the pivot, the multiplier and
    the Schur complement, is formed once and applied to every lane's right
    side Phi_k + e^l q_k Phi'_{k-1} Phi_k; the Phi given is solved, so its
    pass certified the pivots. Returns the lanes' last Phi'; given `out`,
    appends each level's lanes."""
    f00, f01, f10, f11 = prev
    cur = iter(phis)
    for (q00, q01, q10, q11, r00, r01, r10, r11, *_), c00, c01, c10, c11 in zip(
            rows, cur, cur, cur, cur):
        m00 = el * (r00 + (q00 * f00 + q01 * f10))
        m01 = el * (r01 + (q00 * f01 + q01 * f11))
        m10 = el * (r10 + (q10 * f00 + q11 * f10))
        m11 = el * (r11 + (q10 * f01 + q11 * f11))
        pivot = 1.0 - m00
        mult = m10 / pivot
        schur = (1.0 - m11) - mult * m01
        g = iter(lanes)
        lanes = []
        for g00, g01, g10, g11 in zip(g, g, g, g):
            h00, h01 = q00 * g00 + q01 * g10, q00 * g01 + q01 * g11  # q_k Phi'_{k-1}
            h10, h11 = q10 * g00 + q11 * g10, q10 * g01 + q11 * g11
            b00 = c00 + el * (h00 * c00 + h01 * c10)
            b01 = c01 + el * (h00 * c01 + h01 * c11)
            b10 = c10 + el * (h10 * c00 + h11 * c10)
            b11 = c11 + el * (h10 * c01 + h11 * c11)
            g10 = (b10 + mult * b00) / schur
            g11 = (b11 + mult * b01) / schur
            lanes += (b00 + m01 * g10) / pivot, (b01 + m01 * g11) / pivot, g10, g11
        if out is not None:
            out += lanes
        f00, f01, f10, f11 = c00, c01, c10, c11
    return lanes


# unit starts of the period maps, scaled by 2^40 (exact), keep T's own
# digits through the subtraction of s: 1e-6 below lambda_crit on p = 0.75,
# where I - T is nearly singular, the error of Phi' falls from 1.5e-13 to
# 3.3e-14
LANE_SCALE = 2.0 ** 40


@functools.cache
def _unit_lanes(dd: int) -> tuple:
    """The zero lane and the dd unit lanes, scaled by LANE_SCALE, run
    together."""
    return (0.0,) * dd + tuple(LANE_SCALE if i == j else 0.0
                               for j in range(dd) for i in range(dd))


def _period_map(derive, vals, prev):
    """(s, T): one period of phi_derivative's recursion over the solved
    levels `vals`, fed by Phi_{-1} = prev, is the affine map y -> T y + s of
    y = vec Phi'_{-1} (row-major). T alone is the Jacobian of the Phi pass
    in Phi_{-1} = prev. One `derive` pass (_cycle_loops) of the zero lane
    and the d^2 unit lanes gives both, T row-major as a flat list."""
    dd = len(prev)
    ends = derive(vals, prev, _unit_lanes(dd))
    s = ends[:dd]
    return s, [(e - si) / LANE_SCALE for i, si in enumerate(s) for e in ends[dd + i::dd]]


def _period_map_d1(rows, el: float, phis, prev: float):
    """(s, T): _period_map at d = 1 on Python floats, its two lanes, from
    Phi'_{-1} = 0 and LANE_SCALE, one _derivative_d1 pass."""
    s, t = _derivative_d1(rows, el, phis, prev, 0.0, LANE_SCALE)
    return s, (t - s) / LANE_SCALE


def phi_derivative(
    window: EnvironmentWindow,
    lam: float,
    phi_solution: PhiSolution | None = None,
    kappa: float | None = None,
) -> np.ndarray:
    """Exact lambda-derivative of the window-solved Phi matrices; (n, d, d).

    Differentiating Phi_k = (I - e^l (r + q Phi_{k-1}))^{-1} e^l p with the
    zero boundary gives the linear recursion

        (I - e^l (r_k + q_k Phi_{k-1})) Phi'_k = Phi_k + e^l q_k Phi'_{k-1} Phi_k,

    solved left to right with Phi'_{lo-1} = 0. Its matrix is the Phi
    sweep's own, so the Phi pass forms Phi'_k right after Phi_k, from the
    same elimination at d <= 2 and by a second solve on the same matrix at
    d >= 3. The result is `phi_solution.dphis` when that solution was
    solved with `derivative`; else one such pass over the window of
    `phi_solution` (whose Phi it repeats bit for bit, already certified),
    or, without one, solve_phi_window(..., derivative=True) with `kappa`.
    Verified elsewhere against central finite differences of the Phi solve.
    Phi' has no boundary re-solve of its own: the left boundary's influence
    is measured on Phi alone, by solve_phi_window.
    """
    if phi_solution is None:
        return solve_phi_window(window, lam, kappa=kappa, derivative=True).dphis
    if phi_solution.dphis is not None:
        return phi_solution.dphis
    _, dphis, bad = _sweep(window, lam, np.zeros((window.d, window.d)), math.inf,
                           derivative=True, keep=False)
    if bad >= 0:
        raise SupercriticalError(lam, level=window.lo + bad)
    return dphis


def periodic_phi_derivative(
    spec: EnvironmentSpec,
    lam: float,
    periodic: PeriodicPhi,
) -> np.ndarray:
    """Cyclic analogue of phi_derivative; returns (period, d, d).

    With Phi fixed, one period of phi_derivative's recursion is an affine map
    x -> T x + s of x = vec Phi'_{-1} = vec Phi'_{period-1}. One pass of the
    zero and the d^2 (scaled) unit lanes gives s and T (_period_map); one
    _affine_solve, a d^2 x d^2 solve, O(d^6), gives x and certifies
    (I - T)^{-1} >= 0, that is rho(T) < 1 (the sweeps' M-matrix
    certificate); one pass from x gives every position. A singular I - T
    or a negative entry of its inverse raises ConvergenceError: there is no
    finite fixed point. The passes are the Phi' loops of the spec's d over
    the given Phi (_cycle_loops): at d <= 2 on Python floats, with x =
    s / (1 - T) at d = 1 and one 4x4 LAPACK solve at d = 2.
    """
    return _levels(_cycle_loops(spec, lam)[3](periodic.phis.ravel().tolist()), spec.d)


# ---------------------------------------------------------------------------
# truncated MGFs Phi_{k,M} via exact dynamic programming
# ---------------------------------------------------------------------------


KERNEL_BLOCK_ENTRIES = 1 << 18  # entries of one (levels, M, d, d) stack per DP block


def truncated_kernels_range(
    window: EnvironmentWindow, M: int, k0: int, k1: int
) -> np.ndarray:
    """Stacked hitting kernels for levels k0..k1-1; shape (k1-k0, M, d, d).

    Row k-k0 holds W[m-1](i,j) = P^{(k,i)}( T_{k+1} = m, Y_{T_{k+1}} = j ),
    m = 1..M: one exact DP over time steps for every start level at once, on
    levels (k-M, k] with absorption at level k+1 (levels below k-M are
    unreachable before time M). Requires the window to cover (k0-M, k1-1].
    Start levels go in blocks of at most KERNEL_BLOCK_ENTRIES entries per
    stack; rows are independent, so the blocking moves no bit.
    """
    if M < 1:
        raise ValueError("need M >= 1")
    if not (window.lo <= k0 - M + 1 and k1 <= window.hi):
        raise ValueError(
            f"window [{window.lo},{window.hi}) must cover levels ({k0 - M}, {k1 - 1}]"
        )
    d = window.d
    out = np.empty((k1 - k0, M, d, d))
    rows = max(1, KERNEL_BLOCK_ENTRIES // (M * d * d))
    for a in range(0, k1 - k0, rows):
        _kernel_block(window, M, k0 + a, out[a:a + rows])
    return out


def _kernel_block(window: EnvironmentWindow, M: int, k0: int, W: np.ndarray) -> None:
    """Fill W (K, M, d, d) with the hitting kernels of levels k0..k0+K-1."""
    K, d = W.shape[0], window.d
    base = window.index_of(k0 - M + 1)
    # (K, M, d, d) views: row k holds the slices of levels (k-M, k]
    q, r, p = (
        np.moveaxis(np.lib.stride_tricks.sliding_window_view(
            a[base:base + K + M - 1], M, axis=0), -1, 1)
        for a in (window.q, window.r, window.p)
    )
    # cur[k, l, i, j]: mass of paths from (k, i) now at level k-M+1+l, height j
    cur = np.zeros((K, M, d, d))
    cur[:, M - 1] = np.eye(d)
    for m in range(1, M + 1):
        W[:, m - 1] = cur[:, M - 1] @ p[:, M - 1]
        if m == M:
            break
        # into each level: the p-term from below, then the r-term, then the
        # q-term from above, the order of a loop over one start level's
        # blocks; the all-zero blocks such a loop skips add exact zeros
        # here, so every row is that loop's result bit for bit
        nxt = np.zeros_like(cur)
        nxt[:, 1:] += cur[:, :-1] @ p[:, :-1]
        nxt += cur @ r
        nxt[:, :-1] += cur[:, 1:] @ q[:, 1:]
        cur = nxt


TRUNCATED_EXP_CAP = 400.0  # linear-domain DP refuses e^{lam*M} beyond this exponent


def _check_truncated_range(lam: float, M: int) -> None:
    # exactness beats range: the DP stays in linear doubles, so weights
    # e^{lam m} with lam*M past ~400 are refused rather than overflowed
    if lam > 0 and lam * M > TRUNCATED_EXP_CAP:
        raise ValueError(
            f"truncated evaluation refuses lambda*M = {lam * M:.0f} > "
            f"{TRUNCATED_EXP_CAP:.0f}: the linear-domain DP would overflow"
        )


def truncated_phis(ker: np.ndarray, lam: float) -> np.ndarray:
    """Exact Phi_{k,M}(lambda) = sum_m e^{lam m} W_k[m-1] for every level of
    a (K, M, d, d) kernel stack; shape (K, d, d). Finite for every real
    lambda, but lambda * M above TRUNCATED_EXP_CAP raises ValueError."""
    M = ker.shape[1]
    _check_truncated_range(lam, M)
    return np.einsum("m,kmij->kij", np.exp(lam * np.arange(1, M + 1)), ker)


# ---------------------------------------------------------------------------
# critical exponent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalExponent:
    lambda_crit: float
    bracket: tuple[float, float]
    tolerance: float

    def __post_init__(self):
        lo, hi = self.bracket
        if not (lo <= self.lambda_crit <= hi):
            raise ValueError("lambda_crit must lie inside its bracket")


CERTIFICATE_HALF_WIDTH = 128  # levels either side of the binding site in a certificate pass


def estimate_lambda_crit(
    spec: EnvironmentSpec,
    window_len: int = 6000,
    tol: float = 1e-6,
    seed: int | None = 0,
) -> CriticalExponent:
    """Bisect [0, -log(kappa^2/2)] on Phi-solver feasibility.

    lambda = 0 is feasible a priori (entries of Phi(0) are probabilities)
    and is never asked. A window solve that diverges, exceeds the a-priori
    entry bound, or fails to converge counts as infeasible, shrinking the
    verdict conservatively. The exact verdict at lambda is one Newton solve
    on a periodic spec, else one zero-start _sweep over the window, the
    loop of its d, of which only the failing level's index is read: at
    d <= 2 no pass makes a level array. The bracket is the plain
    bisection's, which asks the exact verdict at every midpoint, bit for
    bit; on a d <= 2 window most verdicts come cheaper, by three facts
    about the float loops _sweep_d1 and _sweep_d2:

    F1, monotone in the tilt. Let two passes run at the computed pairs
    (el', bound') <= (el, bound) in el and >= in bound. Every level forms
    nonnegative floats from nonnegative inputs by +, x and /, and uses
    1 - m, the pivot and the Schur complement only as subtrahend or
    divisor; rounding to nearest is monotone, so by induction on the level,
    as long as the upper pass passes, the lower one's m are entrywise <=,
    its pivot and Schur complement >= (and so positive), and its Phi_k <=
    (and so within bound' >= bound). The lower pass passes every level the
    upper one passes. The pairs are compared as computed, e^lambda by
    math.exp and the bound by divergence_bound, so nothing rests on libm's
    exp being monotone.
    F2, monotone in the start. The same induction, with a zero Phi_{j-1}
    below the full pass's, shows that a zero-start pass over levels
    [j, stop) stays below the full pass: if it fails at a level, the full
    pass fails at or before that level, an exact infeasible verdict.
    F3, deterministic. _sweep(window, lam, phi0, bound, start, stop,
    keep=False) is both passes, and the same arguments give the same bits.

    So a midpoint's verdict is a lookup when F1 implies it from `ok`, the
    largest exactly feasible pair, or `no`, the smallest infeasible one;
    else a zero-start pass over CERTIFICATE_HALF_WIDTH levels either side of
    `site`, the last infeasible pass's failing level, certifies it
    infeasible when it fails (F2), and passes it tentatively when it does
    not. A bisection's lo never falls, so every tentative midpoint is <= the
    final lo; one full pass confirms lo, after which F1 makes every
    tentative verdict exact and the path the plain bisection's. When the
    confirmation fails, its failing level becomes the site (the half-width
    doubles when the failure lies within it of the old site, where the
    zero start was too close), and the bisection reruns, asking again only
    the midpoints no verdict implies. It ends: each rerun adds an exact
    infeasible verdict below the last, and a certificate pass that covers
    the window is the full pass. Periodic specs and d >= 3, where F1 is not
    shown, ask the exact verdict at every midpoint, once.
    """
    cap = lambda_crit_cap(spec.kappa)
    exact = {}  # lambda -> its exact verdict
    certified = spec.kind != "periodic" and spec.d <= 2
    ok = no = site = None
    half = CERTIFICATE_HALF_WIDTH
    if spec.kind == "periodic":
        ptol = min(1e-13, tol * 1e-4)

        def solve(lam: float) -> int:
            try:
                solve_phi_periodic(spec, lam, tol=ptol)
                return -1
            except (SupercriticalError, ConvergenceError):
                return 0
    else:
        window = sample_window(spec, 0, window_len, seed=seed)
        phi0 = np.zeros((spec.d, spec.d))

        def solve(lam: float, start: int = 0, stop: int | None = None) -> int:
            return _sweep(window, lam, phi0, divergence_bound(spec.kappa, lam), start, stop,
                          keep=False)[2]

    def verdict(lam: float, confirm: bool) -> bool | None:
        """Exact feasibility of lam, or None for a tentative pass (unless
        `confirm`)."""
        nonlocal ok, no, site, half
        if lam in exact:
            return exact[lam]
        if not certified:
            exact[lam] = solve(lam) < 0
            return exact[lam]
        key = math.exp(lam), divergence_bound(spec.kappa, lam)
        if ok is not None and key[0] <= ok[0] and key[1] >= ok[1]:
            return True
        if no is not None and key[0] >= no[0] and key[1] <= no[1]:
            return False
        if not confirm:
            start, stop = max(site - half, 0), site + half
            if start > 0 or stop < window.n_levels:
                bad = solve(lam, start, stop)
                if bad < 0:
                    return None
                site, no = start + bad, key
                return False
        bad = solve(lam)
        exact[lam] = bad < 0
        if bad < 0:
            ok = key
            return True
        if site is not None and abs(bad - site) < half:
            half *= 2
        site, no = bad, key
        return False

    if verdict(cap, True):
        # cannot happen for kappa < 1/2 unless degenerate; report the cap
        return CriticalExponent(lambda_crit=cap, bracket=(cap - tol, cap), tolerance=tol)
    while True:
        lo, hi, tentative = 0.0, cap, []
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            feasible = verdict(mid, False)
            if feasible is None:
                tentative.append(mid)
            if feasible is False:
                hi = mid
            else:
                lo = mid
        if all(verdict(lam, True) for lam in reversed(tentative)):
            return CriticalExponent(lambda_crit=0.5 * (lo + hi), bracket=(lo, hi), tolerance=tol)
