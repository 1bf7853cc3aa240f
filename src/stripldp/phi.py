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

One generated elimination does the sweeping at small d. _level_source(d)
writes out, as Python source, the straight-line Gaussian elimination of
one d x d level with no row exchange, in the order of its docstring, and
_level_loop compiles it once per d on first use, in two kinds: the Phi
pass, which forms a window's Phi' in the same level iteration on
request, from the same m, pivots and multipliers, and the Phi' lanes over
a solved Phi, unrolled for a fixed number of starts (lanes). Positive
pivots are the whole M-matrix certificate; every entry of Phi_k is a sum
of nonnegative terms, so none is clamped. At d = 1 a level is one
division and at d = 2 the closed-form 2x2 elimination. The loops read
levels as tuples of Python floats (`EnvironmentWindow.rows`,
`EnvironmentSpec.rows`), made once per support slice, and call no numpy
function inside the loop; a lambda_crit midpoint makes no level array.
On a 2-core x86-64 Xeon a level of Phi costs about 0.1 us at d = 1,
0.55-0.6 us at d = 2 and 1.5-1.8 us at d = 3, and of Phi and Phi'
together 0.2, 1.1-1.3 and 3.4-4.1 us. The written-out work grows as
(2 k + 1) d^3 for k lanes; past GENERATED_LEVEL_WORK (a Phi pass at
d >= 6, the Newton lanes at d >= 4) _level_loop hands out the LAPACK
loops of the same signatures instead, one solve a level, with row
exchanges, certified by a tolerance on the inverse's entries; they read
the levels' row arrays (_row_arrays), made once per window pass and once
per periodic solve.

Level k of the Phi sweep depends only on level k-1, so once the boundary
re-solve from a later start equals the main sweep at one level, it
equals it at every later level. The re-solve runs in blocks of
RESOLVE_BLOCK levels and stops after the first block that ends on the
main sweep's bits; the boundary gap it measures past the meeting level
is exactly 0.

The periodic Phi is the minimal fixed point of the cyclic sweep, found by
Newton's method on Phi_{-1}: one Phi pass over the period, its Jacobian T
from the d^2 + 1 Phi' lanes of one more pass (whose affine map the
periodic Phi' solves too), and one solve of (I - T) delta = res. The
step is generated like the levels (_affine_source), at every d one
text: res, the solve, the clamped update and the norms. At d <= 2 the
solve is written out in it, the same elimination, with no row exchange,
of the 4 x 4 I - T on Python floats (one division at d = 1), whose
positive pivots certify rho(T) < 1; from d = 3 the step calls one
d^2 x d^2 LAPACK solve, certified by its nonnegative inverse. So the
d <= 2 periodic path makes no numpy call but the result array. One
Newton loop serves every d; _cycle_loops hands it the passes and the
step of the spec's d, over the spec's period or over a word of its
slices (solve_phi_periodic).

Truncated matrices Phi_{k,M} are computed exactly: one dynamic program
over time steps gives the hitting kernels of a whole range of start levels
at once, a (K, M, d, d) stack, and truncated_phis weights them into
Phi_{k,M}(lambda). The term-by-term derivatives Phi'_k come from the
forward sensitivity of the same fixed point.

Every Phi sequence leaves this module as one (n, d, d) array, level k at
row k - lo: PhiSolution.phis over a window, PeriodicPhi.phis over a
period, and the arrays of phi_derivative and truncated_phis. The periodic
ones also leave as the level loops' flat, row-major float lists, which
the periodic estimates read: PeriodicPhi.vals and the periodic Phi' of
periodic_phi_derivative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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


def _names(x: str, n: int) -> list:
    """The n x n matrix of source names x{i}_{j}."""
    return [[f"{x}{i}_{j}" for j in range(n)] for i in range(n)]


def _flat(m: list) -> list:
    return [x for row in m for x in row]


def _plus(terms) -> str:
    return " + ".join(terms)


def _u(i: int, j: int) -> str:
    """The name of u_ij after stage i of _elimination: row 0 keeps m's."""
    return f"m0_{j}" if i == 0 else f"u{i}_{j}"


def _elimination(level: list, fail: str | None = None) -> list:
    """Source lines of the stages of _level_source's elimination of I - M,
    for the n x n M given entrywise by the expressions `level`. With
    `fail`, a pivot not > 0 returns it."""
    n = len(level)
    m = _names("m", n)
    # m_ii is used once, in the pivot a_i, so it is written there
    lines = [f"{m[i][j]} = {level[i][j]}" for i in range(n) for j in range(n) if i != j]
    for i in range(n):
        for j in range(i):
            num = _plus([m[i][j]] + [f"t{i}_{k} * {_u(k, j)}" for k in range(j)])
            lines.append(f"t{i}_{j} = ({num}) / a{j}")
        lines.append(" - ".join([f"a{i} = 1.0 - {level[i][i]}"]
                                + [f"t{i}_{k} * {_u(k, i)}" for k in range(i)]))
        if fail is not None:
            lines += [f"if not a{i} > 0.0:", f"    return {fail}"]
        if i:
            lines += [f"u{i}_{j} = "
                      + _plus([m[i][j]] + [f"t{i}_{k} * {_u(k, j)}" for k in range(i)])
                      for j in range(i + 1, n)]
    return lines


def _substitution(rhs: list, x: list) -> list:
    """Source lines solving (I - M) x = rhs after _elimination: the right
    side's columns (rows of expressions `rhs`) forward, then back into the
    names `x`."""
    n, cols = len(rhs), range(len(rhs[0]))
    b, lines = {}, []
    for i in range(n):
        for j in cols:
            b[i, j] = _plus([rhs[i][j]] + [f"t{i}_{k} * {b[k, j]}" for k in range(i)])
            if i < n - 1:
                lines.append(f"b{i}_{j} = {b[i, j]}")
                b[i, j] = f"b{i}_{j}"
    for i in reversed(range(n)):
        for j in cols:
            num = _plus([b[i, j]] + [f"{_u(i, l)} * {x[l][j]}" for l in range(i + 1, n)])
            lines.append(f"{x[i][j]} = ({num}) / a{i}")
    return lines


def _level_source(d: int, lanes: int | None = None) -> str:
    """Python source of the level loop at d: one straight-line Gaussian
    elimination of I - M, M = e^l (r_k + q_k Phi_{k-1}), written out for
    d x d levels with no row exchange, as _level_loop compiles it.

    Without `lanes`, the Phi pass level_loop(rows, el, f, bound, vals,
    dvals=None) over (q, r, p) float rows from Phi_{-1} = f (flat,
    row-major): it appends each Phi_k to `vals` (flat, row-major) and,
    given the list `dvals`, each Phi'_k from Phi'_{-1} = 0, and returns the
    failing level's index (len(vals) // d^2), or -1. A level fails when a
    pivot is not > 0 or an entry of Phi_k exceeds `bound`. With `lanes`
    = k, the Phi' lanes level_loop(rows, el, phis, f, starts, out=None)
    over the solved flat levels `phis` fed by Phi_{-1} = f, for k starts
    Phi'_{-1} given flat in `starts`: each level's elimination is formed
    once and applied to every lane; it returns the lanes' last Phi' as one
    flat list and, given `out`, appends each level's lanes to it.

    The operations, in this order (sums left to right; el = e^l):
    m_ij = el * (r_ij + (q_i0 * f_0j + q_i1 * f_1j + ...)); the stages
    k = 0..d-1 of the elimination keep the pivots a_i (from 1.0 - m_ii)
    and the off-diagonal entries' magnitudes u_ij (from m_ij): stage k
    checks a_k, and for each row i > k takes the multiplier
    t_ik = u_ik / a_k, then a_i = a_i - t_ik * u_ki and, for j > k, j != i,
    u_ij = u_ij + t_ik * u_kj. A right side B goes forward as
    b_i = b_i + t_ik * b_k at each stage k < i, from b = B, and back as
    x_i = (b_i + u_i,i+1 * x_i+1 + ... + u_i,d-1 * x_d-1) / a_i for
    i = d-1..0. B is el * p_k for Phi_k, and
    Phi_k + el * (h Phi_k) with h = q_k Phi'_{k-1} (both products summed
    as m's) for Phi'_k. The source computes each entry once, by one
    expression over its updates in stage order, so it has these bits; at
    d = 1 a level is one division and at d = 2 the closed-form 2x2
    elimination.

    I - M is a Z-matrix, and a Z-matrix is a nonsingular M-matrix iff its
    leading principal minors are positive (Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, ch. 6), that is iff this
    elimination meets only positive pivots: they are the whole
    certificate. Multipliers, u, right sides and Phi_k are then sums and
    quotients of nonnegative terms, so nothing is clamped.
    """
    ix = range(d)

    def product(a, b):
        return [[_plus(f"{a[i][l]} * {b[l][j]}" for l in ix) for j in ix] for i in ix]

    q, r, p, f, h = (_names(x, d) for x in "qrpfh")
    fail = "len(vals)" if d == 1 else f"len(vals) // {d * d}"
    qf = product(q, f)
    level = [[f"el * ({r[i][j]} + ({qf[i][j]}))" for j in ix] for i in ix]  # M, entrywise
    factor = _elimination(level, fail if lanes is None else None)

    def derivative(cur, g):
        qg = product(q, g)
        if d == 1:  # h is used once: written where it is used
            hs, lines = [[f"({qg[0][0]})"]], []
        else:
            hs, lines = h, [f"{h[i][j]} = {e}" for i, row in enumerate(qg)
                            for j, e in enumerate(row)]
        rhs = [[f"{cur[i][j]} + el * ({e})" for j, e in enumerate(row)]
               for i, row in enumerate(product(hs, cur))]
        return lines + _substitution(rhs, g)

    def extend(target, names):
        return f"{target}.append({names[0]})" if d == 1 else f"{target} += {', '.join(names)}"

    row = ", ".join(_flat(q) + _flat(r) + _flat(p))
    if lanes is None:
        g = _names("g", d)
        head = ["def level_loop(rows, el, f, bound, vals, dvals=None):",
                f"    {', '.join(_flat(f))}, = f",
                f"    {' = '.join(_flat(g))} = 0.0",
                f"    for {row} in rows:"]
        body = (factor + _substitution([[f"el * {x}" for x in line] for line in p], f)
                + [f"if {' or '.join(x + ' > bound' for x in _flat(f))}:",
                   f"    return {fail}", extend("vals", _flat(f)), "if dvals is not None:"]
                + ["    " + x for x in derivative(f, g) + [extend("dvals", _flat(g))]])
        tail = "    return -1"
    else:
        c, gs = _names("c", d), [_names(f"g{k}_", d) for k in range(lanes)]
        every = [x for g in gs for x in _flat(g)]
        levels = "phis" if d == 1 else ", ".join(["it"] * (d * d))
        head = ["def level_loop(rows, el, phis, f, starts, out=None):",
                f"    {', '.join(_flat(f))}, = f",
                f"    {', '.join(every)}, = starts"] + ["    it = iter(phis)"] * (d > 1) + [
                f"    for ({row}), {', '.join(_flat(c))} in zip(rows, {levels}):"]
        body = (factor + [x for g in gs for x in derivative(c, g)]
                + ["if out is not None:", "    " + extend("out", every)]
                + [f"{a} = {b}" for a, b in zip(_flat(f), _flat(c))])
        tail = f"    return [{', '.join(every)}]"
    return "\n".join(head + ["        " + x for x in body] + [tail]) + "\n"


# the most multiply-adds, about (2 k + 1) d^3 for k Phi' lanes (k = 1 for the
# Phi pass, whose fused Phi' is one lane), a generated level writes out; past
# it LAPACK costs less a level. On a 2-core x86-64 Xeon (600-level windows,
# best of 5) the generated Phi / fused pass takes 7.4-7.9 / 15.4-17.0 us at
# d = 5 against LAPACK's 10.3-11.7 / 16.4-18.8, and 13.3 / 29.2 at d = 6
# against 11.5-12.8 / 17.7-19.6; with the d^2 + 1 Newton lanes generated a
# period-3 solve takes 0.41 ms against 0.67 at d = 3, 1.33 against 0.84 at d = 4.
GENERATED_LEVEL_WORK = 600


def _generated(d: int, lanes: int | None = None) -> bool:
    """Whether the level loop of (d, lanes) is generated, not LAPACK's."""
    return (2 * (lanes or 1) + 1) * d ** 3 <= GENERATED_LEVEL_WORK


@functools.cache
def _level_loop(d: int, lanes: int | None = None):
    """The level loop of _level_source(d, lanes), compiled on first use, or
    past GENERATED_LEVEL_WORK the LAPACK loop of the same signature
    (_sweep takes _lapack_levels itself there)."""
    if not _generated(d, lanes):
        return _lapack_pass if lanes is None else _lapack_lanes
    return _compiled(_level_source(d, lanes), f"level loop d={d} lanes={lanes}")["level_loop"]


def _compiled(source: str, label: str, scope: dict | None = None) -> dict:
    """The names that `source` defines, compiled, in a copy of `scope`."""
    scope = dict(scope or {})
    exec(compile(source, f"<phi {label}>", "exec"), scope)
    return scope


# the most unknowns of a generated affine solve: n = d^2 <= 4, d <= 2. On a
# 2-core x86-64 Xeon (random 0.9-contractive T, best of 5) the generated
# solve takes 1.4-2 us at n = 4 against 15-17 us for _affine_solve's LAPACK
# call, and 9 us at n = 9 (d = 3) against 20 us. The cut is not the
# crossover: from d = 3 the LAPACK solve stays, so that every d >= 3
# periodic output keeps its bits.
GENERATED_AFFINE_UNKNOWNS = 4


def _affine_source(n: int) -> str:
    """Python source of the periodic Newton step's solves over n unknowns:
    newton_step(ends, f, x) -> (x', |y|, |c|), with c = f - x,
    (I - T) y = c and x' = max(x + y, 0) (the norms the largest entries in
    absolute value), returning None where the solve refuses; and, up to
    GENERATED_AFFINE_UNKNOWNS, the solve itself, affine_solve(ends, c) -> y,
    which newton_step writes out in place. Past it newton_step calls the
    affine_solve of its scope, the LAPACK one (_affine_loop), so the step's
    update is this one text at every n.

    T is the n x n Jacobian that the lanes' ends give, T_ij = (the j-th
    unit lane's entry i - s_i) / LANE_SCALE with s the zero lane's ends,
    and the written-out solve is _level_source's elimination of I - T (no
    row exchange, the same stage order) with one right side, returning
    None at the first pivot not > 0. T >= 0 as computed (a lane's entries
    are monotone in its start, like F1 of estimate_lambda_crit), so I - T
    is a Z-matrix, whose pivots are all positive iff it is a nonsingular
    M-matrix, that is iff (I - T)^{-1} >= 0, iff rho(T) < 1: they are the
    whole certificate. At n = 1 the solve is the division c / (1 - T)."""
    ix = range(n)
    c, f, x, y = ([f"{v}{i}" for i in ix] for v in "cfxy")
    if n <= GENERATED_AFFINE_UNKNOWNS:
        s = [f"s{i}" for i in ix]
        lane = [[f"l{j}_{i}" for i in ix] for j in ix]  # lane j from LANE_SCALE e_j
        level = [[f"({lane[j][i]} - {s[i]}) / {LANE_SCALE!r}" for j in ix] for i in ix]
        solve = ([f"{', '.join(s + _flat(lane))}, = ends"] + _elimination(level, "None")
                 + _substitution([[v] for v in c], [[v] for v in y]))
        head = (["def affine_solve(ends, c):", f"    {', '.join(c)}, = c"]
                + ["    " + v for v in solve] + [f"    return [{', '.join(y)}]", "", ""])
    else:
        solve = [f"y = affine_solve(ends, [{', '.join(c)}])", "if y is None:",
                 "    return None", f"{', '.join(y)}, = y"]
        head = []

    def largest(names):
        return f"max({', '.join(f'abs({v})' for v in names)})" if n > 1 else f"abs({names[0]})"

    return "\n".join(
        head + ["def newton_step(ends, f, x):", f"    {', '.join(f)}, = f",
                f"    {', '.join(x)}, = x"]
        + [f"    {a} = {b} - {v}" for a, b, v in zip(c, f, x)] + ["    " + v for v in solve]
        + [f"    return [{', '.join(f'max({v} + {w}, 0.0)' for v, w in zip(x, y))}], "
           f"{largest(y)}, {largest(c)}"]) + "\n"


@functools.cache
def _affine_loop(n: int) -> tuple:
    """(affine_solve, newton_step) of _affine_source(n), compiled on first
    use; past GENERATED_AFFINE_UNKNOWNS affine_solve is the LAPACK solve of
    the same signature (_affine_solve), which newton_step calls."""
    lapack = {} if n <= GENERATED_AFFINE_UNKNOWNS else {"affine_solve": _affine_solve}
    scope = _compiled(_affine_source(n), f"affine solve n={n}", lapack)
    return scope["affine_solve"], scope["newton_step"]


def _levels(vals: list, d: int) -> np.ndarray:
    """The (n, d, d) stack of a level loop's flat, row-major level values."""
    return np.fromiter(vals, float, len(vals)).reshape(-1, d, d)


def _row_arrays(rows, d: int, el: float) -> list:
    """(q, r, [e^l p | I]) as arrays for each level of `rows`, formed once
    per distinct row tuple (a sampled window's levels share their slice's):
    the rows of the LAPACK level loops."""
    eye = np.eye(d)
    seen = {}
    out = []
    for row in rows:
        arrays = seen.get(id(row))
        if arrays is None:
            q, r, p = np.array(row).reshape(3, d, d)
            arrays = seen[id(row)] = q, r, np.concatenate((el * p, eye), axis=1)
        out.append(arrays)
    return out


def _lapack_levels(arrays: list, el: float, f: np.ndarray, bound: float,
                   derivative: bool = False):
    """The Phi pass past GENERATED_LEVEL_WORK over the row arrays of its
    levels (_row_arrays at the same e^l), from Phi_{-1} = f (d, d):
    each level one LAPACK solve (with row exchanges) of
    (I - M)[Phi_k | Y] = [e^l p_k | I], certified by no entry of Phi_k or
    Y = (I - M)^{-1} below NEG_ENTRY_TOL and then clamped at 0; with
    `derivative`, one more solve on the same I - M gives Phi'_k. Returns
    (phis, dphis or None, bad) as _sweep does."""
    d = f.shape[0]
    eye = np.eye(d)
    out = np.empty((len(arrays), d, d))
    dout = np.empty_like(out) if derivative else None
    g = np.zeros((d, d))
    bad = -1
    with _linalg_errstate():
        for k, (q, r, rhs) in enumerate(arrays):
            a = eye - el * (r + q @ f)
            try:
                sol = _solve(a, rhs)
            except np.linalg.LinAlgError:
                sol = None
            if sol is None or sol.min() < NEG_ENTRY_TOL or sol[:, :d].max() > bound:
                bad = k
                break
            f = np.maximum(sol[:, :d], 0.0, out=out[k])
            if derivative:
                g = dout[k] = _solve(a, f + el * (q @ g @ f))
    n = len(out) if bad < 0 else bad
    return out[:n], None if dout is None else dout[:n], bad


def _lapack_pass(arrays: list, el: float, f: list, bound: float, vals: list) -> int:
    """_lapack_levels with the generated Phi pass's signature (no fused
    Phi'), for the periodic Newton passes: row arrays in the rows' place."""
    d = math.isqrt(len(f))
    phis, _, bad = _lapack_levels(arrays, el, np.array(f).reshape(d, d), bound)
    vals += phis.ravel().tolist()
    return bad


def _lapack_lanes(arrays: list, el: float, phis: list, f: list, starts, out=None) -> list:
    """The Phi' lanes past GENERATED_LEVEL_WORK, with the generated lanes'
    signature (row arrays in the rows' place): each level one LAPACK solve
    for every lane at once."""
    d = math.isqrt(len(f))
    eye = np.eye(d)
    prev, g = np.array(f).reshape(d, d), np.array(starts).reshape(-1, d, d)
    with _linalg_errstate():
        for (q, r, _), cur in zip(arrays, _levels(phis, d)):
            g = _solve(eye - el * (r + q @ prev), cur + el * (q @ g @ cur))
            if out is not None:
                out += g.ravel().tolist()
            prev = cur
    return g.ravel().tolist()


def _sweep(window: EnvironmentWindow, lam: float, phi0, bound: float, start: int = 0,
           stop: int | None = None, derivative: bool = False, keep: bool = True):
    """One exact pass over the window's levels start..stop-1 (row indices)
    from Phi_{start-1} = phi0 (d, d); returns (phis, dphis, bad), bad the
    failing level's index from `start`, or -1.

    With `derivative`, dphis holds every level's Phi' from Phi'_{start-1} =
    0, formed in the same level iteration as its Phi; else it is None. A
    pass without `keep` converts its float list to no array (phis is
    None): only its verdict counts. The pass is the level loop of the
    window's d over its float rows, past GENERATED_LEVEL_WORK the LAPACK
    loop on arrays, which always returns phis.
    """
    d, rows, el = window.d, window.rows[start:stop], math.exp(lam)
    if not _generated(d):
        return _lapack_levels(_row_arrays(rows, d, el), el, phi0, bound, derivative)
    vals, dvals = [], [] if derivative else None
    bad = _level_loop(d)(rows, el, phi0.ravel().tolist(), bound, vals, dvals)
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
    step (at a singular root, the recurrent boundary). `vals` is `phis`
    flat and row-major, as the level loops return it; `loops` are the
    _cycle_loops that solved it, which periodic_phi_derivative reuses at
    the same spec, lambda and word.
    """

    phis: np.ndarray  # (period, d, d)
    lam: float
    iterations: int
    tail: float
    vals: list = field(repr=False)
    loops: tuple | None = field(default=None, repr=False)

    @property
    def period(self) -> int:
        return self.phis.shape[0]


def _cycle_loops(spec: EnvironmentSpec, lam: float, word: tuple | None = None) -> tuple:
    """(key, zero, sweep, newton, derivative): the periodic solvers' passes
    and steps at lambda over the word's float rows (`EnvironmentSpec.rows`
    indexed by `word`; all of them, in order, when it is None), and
    key = (spec, lam, word).

    `zero` is Newton's start x = Phi_{-1} = 0. sweep(x, bound, vals)
    appends the Phi pass from Phi_{-1} = x to `vals` (flat, row-major) and
    returns the failing level's index or -1. newton(vals, x) ->
    (x', |delta|, |res|) is Newton's step from x given that pass:
    res = Phi_{period-1} - x, T the pass's Jacobian in x,
    (I - T) delta = res and x' = max(x + delta, 0), with the norms the
    largest entries in absolute value; it raises SupercriticalError when
    the solve refuses. derivative(vals) is the periodic Phi' over the
    solved Phi `vals`, flat, and raises ConvergenceError when it refuses.

    Every pass is a level loop of the spec's d (_level_loop): the Phi
    pass, the d^2 + 1 Phi' lanes whose ends give T (the zero lane and the
    LANE_SCALE unit lanes, _unit_lanes), and the one lane of the periodic
    Phi'. x is a flat list of d^2 floats. The LAPACK loops past
    GENERATED_LEVEL_WORK share one list of the word's row arrays
    (_row_arrays), built here once. Each solve of (I - T) y = b, and the
    Newton step around it, is _affine_loop(d^2)'s: at d <= 2 the
    generated elimination on floats, which refuses at a pivot not > 0
    (rho(T) >= 1), one division at d = 1; from d = 3 one LAPACK solve
    (_affine_solve). On a 2-core x86-64 Xeon a d = 2 Newton step on the
    bench's period-3 spec costs 11-14 us, most of it the lanes' pass; the
    generated step, solve and update, takes 2.3-2.5 us of it, against
    3.4-3.7 us for the same update written in Python around the generated
    solve and 18-20 us around the LAPACK solve (0.4 against 1.45 us at
    d = 1).
    """
    el = math.exp(lam)
    d = spec.d
    rows = spec.rows if word is None else [spec.rows[i] for i in word]
    dd = d * d
    arrays = None if _generated(d, dd + 1) else _row_arrays(rows, d, el)

    def loop(lanes=None):
        return functools.partial(_level_loop(d, lanes),
                                 rows if _generated(d, lanes) else arrays, el)

    sweep, jacobian = loop(), loop(dd + 1)
    affine, newton_step = _affine_loop(dd)
    lanes = _unit_lanes(dd)

    def newton(vals, x):
        step = newton_step(jacobian(vals, x, lanes), vals[-dd:], x)
        if step is None:
            raise SupercriticalError(lam, detail="period map expands")
        return step

    def derivative(vals):
        prev = vals[-dd:]
        ends = jacobian(vals, prev, lanes)
        y = affine(ends, ends[:dd])
        if y is None:
            raise ConvergenceError(float("inf"), 1)
        out = []
        loop(1)(vals, prev, y, out)
        return out

    return (spec, lam, word), [0.0] * dd, sweep, newton, derivative


def _word(spec: EnvironmentSpec, word) -> tuple | None:
    """`word` as a tuple of indices into spec.slices, at least one; None
    (the spec's own period) needs a periodic spec."""
    if word is None:
        if spec.kind != "periodic":
            raise ValueError("a periodic solve needs a periodic spec or a word")
        return None
    word = tuple(word)
    if not word or min(word) < 0 or max(word) >= len(spec.slices):
        raise ValueError(f"a word needs at least one letter, each in 0..{len(spec.slices) - 1}")
    return word


def solve_phi_periodic(spec: EnvironmentSpec, lam: float, tol: float = 1e-13,
                       word=None) -> PeriodicPhi:
    """The minimal fixed point of the cyclic sweep (position 0 fed by
    position period-1), equal to the bi-infinite Phi of the periodic
    environment, by Newton's method on x = Phi_{-1}.

    The environment is the periodic spec's period, or, given `word`, the
    slices spec.slices[i] for i in word, read cyclically, on any spec: a
    word builds and validates no spec, and the identity word is the spec
    call bit for bit.

    One sweep pass from x over the period gives Phi_0..Phi_{period-1} (with
    the sweeps' per-level certificate and entry bound); the Phi' lanes of
    one more pass give its Jacobian T in x, and one solve of
    (I - T) delta = Phi_{period-1} - x the step, x <- max(x + delta, 0). As
    T >= 0, (I - T)^{-1} >= 0 iff rho(T) < 1; a solve that refuses (a pivot
    not > 0 at d <= 2, a singular I - T or a negative entry of its inverse
    past that) raises SupercriticalError. From the zero
    start on this monotone, order-convex map the steps rise to the minimal
    solution (Latouche 1994, Newton's iteration for non-linear equations in
    Markov chains). Newton stops when |delta| <= tol, or when |delta| stops
    shrinking while the period residual is <= tol (the rounding floor at a
    nearly singular root); one more pass from the last x gives every
    position. If NEWTON_MAX_STEPS steps run out first, ConvergenceError is
    raised, at every lambda.

    The passes are the level loops of the spec's d over its float rows,
    and the step the generated elimination of I - T on floats at d <= 2
    (one division at d = 1) and one d^2 x d^2 LAPACK solve from d = 3
    (_cycle_loops). On a 2-core x86-64 Xeon a solve takes 15-19 us on
    p = 0.75 (4-5 steps) and 48-76 us on the bench's period-3 d = 2 spec
    (3-5 steps), against 100-157 us with the LAPACK step; the 1374
    necklaces of that spec's slices up to length 8 solve as words at
    lambda = -0.5 in 0.12 s, against 0.64 s for a loop that builds a
    periodic spec for each and solves it with the LAPACK step.
    """
    word = _word(spec, word)
    bound = divergence_bound(spec.kappa, lam, tol)
    loops = _cycle_loops(spec, lam, word)
    _, x, sweep, newton, _ = loops
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
    return PeriodicPhi(phis=_levels(vals, spec.d), lam=lam, iterations=it, tail=step,
                       vals=vals, loops=loops)


try:
    # the gufunc under np.linalg.solve: the same LAPACK call on the same
    # arrays, without the wrapper's checks and errstate, which the LAPACK
    # level loops would pay at every level
    from numpy.linalg import _umath_linalg

    _solve = functools.partial(_umath_linalg.solve, signature="dd->d")
except (ImportError, AttributeError):  # pragma: no cover - numpy moved it
    _solve = np.linalg.solve


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _linalg_errstate():
    """np.linalg.solve's error state for _solve calls: a singular matrix
    raises LinAlgError. The LAPACK level loops hold it over a whole pass:
    with a finite e^lambda and finite, bounded inputs the solve is the only
    operation there that can raise a floating-point flag."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _affine_solve(ends: list, b: list):
    """_affine_loop's solve from d = 3: y with (I - T) y = b, T formed from
    the lanes' ends as in _affine_source, by one LAPACK solve of
    (I - T)[y | Y] = [b | I], when Y = (I - T)^{-1} >= 0, that is
    rho(T) < 1; else None: I - T is singular, or Y has an entry below
    NEG_ENTRY_TOL."""
    n = len(b)
    s = np.array(ends[:n])
    T = (np.reshape(ends[n:], (n, n)).T - s[:, None]) / LANE_SCALE
    eye2 = np.eye(n)
    try:
        with _linalg_errstate():
            sol = _solve(eye2 - T, np.column_stack((b, eye2)))
    except np.linalg.LinAlgError:
        return None
    if sol[:, 1:].min() < NEG_ENTRY_TOL:
        return None
    return sol[:, 0].tolist()


# ---------------------------------------------------------------------------
# term-by-term derivative Phi'_k (forward sensitivity of the fixed point)
# ---------------------------------------------------------------------------


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
    same elimination. The result is `phi_solution.dphis` when that solution was
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
    word=None,
) -> list:
    """Cyclic analogue of phi_derivative; returns the period's Phi' as the
    level loops return it, a flat, row-major list of period * d^2 floats.

    With Phi fixed, one period of phi_derivative's recursion is an affine map
    x -> T x + s of x = vec Phi'_{-1} = vec Phi'_{period-1}. One pass of the
    zero and the d^2 (scaled) unit lanes gives s and T (_affine_source
    reads T off the lanes' ends); one solve of (I - T) x = s gives x and
    certifies (I - T)^{-1} >= 0, that is
    rho(T) < 1 (the sweeps' M-matrix certificate); one pass from x gives
    every position. A solve that refuses raises ConvergenceError: there is
    no finite fixed point. The solve is _cycle_loops': the generated
    elimination on floats at d <= 2 (at d = 1 the division s / (1 - T)),
    certified by its positive pivots, and one d^2 x d^2 LAPACK solve from
    d = 3. The passes are the Phi' lanes of the spec's d over the given
    Phi, through the loops that solved `periodic` when it was solved at
    this spec, lambda and `word` (solve_phi_periodic's): no loop is built
    twice for one lambda. At d = 2 it takes about 14 us on the bench's
    period-3 spec (31-49 us with the LAPACK solve and arrays) on a 2-core
    x86-64 Xeon.
    """
    word = _word(spec, word)
    loops = periodic.loops
    if loops is None or loops[0] != (spec, lam, word):
        loops = _cycle_loops(spec, lam, word)
    return loops[4](periodic.vals)


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
    stack; rows are independent, so the blocking moves no bit. Time step m
    moves only the levels the walk can reach by then, (k-m, k]: the
    blocks below hold exact zeros. On a 2-core x86-64 Xeon this halves
    the DP's cost at d = 2, M = 24 (200 start levels: 11.2 -> 6.4 ms) and
    takes 5.1 -> 3.2 ms at d = 1, M = 16 (1000 start levels).
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
        # after m - 1 steps from l = M - 1 the paths stand at l >= lo, so
        # only those blocks move: into each level the p-term from below,
        # then the r-term, then the q-term from above, the order of a loop
        # over one start level's blocks; the all-zero blocks such a loop
        # skips add exact zeros here, so every row is that loop's result
        # bit for bit
        lo = M - m
        nxt = np.zeros_like(cur)
        nxt[:, lo + 1:] += cur[:, lo:-1] @ p[:, lo:-1]
        nxt[:, lo:] += cur[:, lo:] @ r[:, lo:]
        nxt[:, lo - 1:-1] += cur[:, lo:] @ q[:, lo:]
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


QBD_NEWTON_STEPS = 100  # steps of periodic_lambda_crit's safeguarded Newton


def periodic_lambda_crit(slices) -> float:
    """lambda_crit of the periodic environment that reads `slices` in turn.

    Read n = len(slices) levels at a time, the strip is a level-independent
    quasi-birth-death walk on n d phases: A_0 holds position j's r on its
    diagonal block, p_j above it and q_j below it; A_1 holds p_{n-1} from the
    last position to the first of the block above, A_{-1} q_0 from the first
    position to the last of the block below. Its critical exponent is
    -min_s g(s), g(s) = log rho(A_1 e^{-s} + A_0 + A_{-1} e^{s}) (Neuts 1981;
    Latouche & Ramaswami 1999), and g(0) = 0, the matrix being stochastic.

    g is convex (Kingman 1961), so a safeguarded Newton finds its minimum:
    the s where g' < 0 and > 0 so far bracket it, a Newton step that leaves
    the bracket or meets g'' <= 0 bisects it instead, and while one side is
    open the steps towards it are at most 1, 2, 4, ... long. g' and g''
    come from one np.linalg.eig and the inverse of its eigenvector matrix,
    by first- and second-order perturbation of the Perron root rho. It
    starts from s_0 = sum_j 1/2 log(sum p_j / sum q_j), exact for a d = 1
    spec of one slice, and stops when Newton's predicted decrease of g
    falls to 1e-16.
    """
    n, d = len(slices), slices[0].d
    up, stay, down = (np.zeros((n * d, n * d)) for _ in range(3))
    for j, s in enumerate(slices):
        at, above, below = (slice(k % n * d, k % n * d + d) for k in (j, j + 1, j - 1))
        stay[at, at] = s.r
        (up if j == n - 1 else stay)[at, above] = s.p
        (down if j == 0 else stay)[at, below] = s.q
    lo, hi, reach, best = -math.inf, math.inf, 1.0, math.inf
    s = sum(0.5 * math.log(x.p.sum() / x.q.sum()) for x in slices)
    for _ in range(QBD_NEWTON_STEPS):
        a, b = up * math.exp(-s), down * math.exp(s)
        w, vec = np.linalg.eig(a + stay + b)
        k = int(np.argmax(w.real))
        left = np.linalg.inv(vec)
        dm = left @ (b - a) @ vec  # dm[i, j] = u_i M' v_j
        rho, r1 = w[k].real, dm[k, k].real
        r2 = (left[k] @ (a + b) @ vec[:, k]
              + 2.0 * (np.delete(dm[k] * dm[:, k], k) / np.delete(w[k] - w, k)).sum()).real
        g1 = r1 / rho
        g2 = r2 / rho - g1 * g1
        best = min(best, math.log(rho))
        if g1 < 0:
            lo = s
        elif g1 > 0:
            hi = s
        else:
            break
        step = -g1 / g2 if 0 < g2 < math.inf else math.copysign(math.inf, -g1)
        if -g1 * step <= 2e-16:
            break
        if math.isinf(hi - lo) and abs(step) > reach:
            step = math.copysign(reach, step)
            reach *= 2.0
        elif not lo < s + step < hi:
            step = 0.5 * (lo + hi) - s
        if s + step in (lo, hi):
            break
        s += step
    return -best


CERTIFICATE_HALF_WIDTH = 128  # levels either side of the binding site in a certificate pass
# a certificate pass runs only while the window holds CERTIFICATE_SPAN of
# them. On 41 windows (40 random d = 2 and d = 3 specs of 300 to 6000
# levels, and the two-point spec) certificate passes of any width short of
# the window swept more levels than the plain bisection on 16, up to 2.7
# times; passes of at most an eighth of the window on 2, up to 1.35 times,
# and kept every 6000-level gain
CERTIFICATE_SPAN = 8


def estimate_lambda_crit(
    spec: EnvironmentSpec,
    window_len: int = 6000,
    tol: float = 1e-6,
    seed: int | None = 0,
) -> CriticalExponent:
    """The critical exponent of `spec`, in a bracket of width tol.

    A periodic spec takes the closed form (periodic_lambda_crit), capped at
    -log(kappa^2/2), and the bracket (lambda* - tol/2, lambda* + tol/2), its
    lower end clamped at 0 and its upper end nudged down until the width is
    at most tol. Two Newton solves (solve_phi_periodic) certify it: one that
    succeeds at the lower end (unless that is 0, feasible a priori and never
    asked) and one that fails at the upper end. If either disagrees, the
    half-width doubles and both are asked again, so a reported bracket is
    always certified, and wider than tol only where the closed form missed.

    Else the bracket bisects [0, -log(kappa^2/2)] on Phi-solver feasibility
    over a sampled window. lambda = 0 is feasible a priori and is never
    asked. A window solve that diverges, exceeds the a-priori entry bound,
    or fails to converge counts as infeasible, shrinking the verdict
    conservatively. The exact verdict at lambda is one zero-start _sweep
    over the window, of which only the failing level's index is read: no
    pass makes a level array. The bracket is the plain bisection's, which
    asks the exact verdict at every midpoint, bit for bit; on a window of
    d <= 2 most verdicts come cheaper, by three facts about the generated
    level loop (_level_source), which hold at every d:

    F1, monotone in the tilt. Let two passes run at the computed pairs
    (el', bound') <= (el, bound) in el and >= in bound. Every level forms
    m, the multipliers, the off-diagonal updates, the right sides and
    Phi_k as sums, products and quotients of nonnegative floats, and uses
    a pivot only as what is subtracted from (1.0 - m_ii, a_i - t u) or as
    a divisor; rounding to nearest is monotone, so by induction on the
    level and, within it, on the elimination's steps, as long as the upper
    pass passes, the lower one's m, multipliers and updates are entrywise
    <=, its pivots >= (and so positive), and its Phi_k <= (and so within
    bound' >= bound). The lower pass passes every level the upper one
    passes. The pairs are compared as computed, e^lambda by math.exp and
    the bound by divergence_bound, so nothing rests on libm's exp being
    monotone.
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
    the midpoints no verdict implies. Certificate passes run only while the
    window holds CERTIFICATE_SPAN of them; past that every verdict is
    exact, as in the plain bisection. It ends: each rerun adds an exact
    infeasible verdict below the last. Windows of d >= 3 ask the exact
    verdict at every midpoint, once: F1 and F2 hold for the generated loop
    at d = 3 too, but there the certified path swept more levels than the
    plain bisection on 10 of 16 random windows of 3000 and 6000 levels (up
    to 1.48 times), against 6 of 16 at d = 2, the bench's two specs not
    among them; past GENERATED_LEVEL_WORK the loop is LAPACK's, with row
    exchanges, a tolerance and a clamp, for which F1 is not shown.
    """
    cap = lambda_crit_cap(spec.kappa)
    if spec.kind == "periodic":
        def feasible(lam: float) -> bool:
            try:
                solve_phi_periodic(spec, lam)
                return True
            except (SupercriticalError, ConvergenceError):
                return False

        lam, radius = min(max(0.0, periodic_lambda_crit(spec.slices)), cap), 0.5 * tol
        while True:
            lo, hi = max(lam - radius, 0.0), lam + radius
            while hi - lo > 2.0 * radius:
                hi = math.nextafter(hi, lo)
            if not feasible(hi):
                if lo == 0.0 or feasible(lo):
                    return CriticalExponent(lambda_crit=lam, bracket=(lo, hi), tolerance=tol)
            elif lo == 0.0 and hi >= cap:
                # feasible past the a-priori bound: degenerate; report the cap
                return CriticalExponent(lambda_crit=cap, bracket=(cap - tol, cap),
                                        tolerance=tol)
            radius *= 2.0
    exact = {}  # lambda -> its exact verdict
    certified = spec.d <= 2
    ok = no = site = None
    half = CERTIFICATE_HALF_WIDTH
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
        if not confirm and 2 * half * CERTIFICATE_SPAN <= window.n_levels:
            start = max(site - half, 0)
            bad = solve(lam, start, site + half)
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
