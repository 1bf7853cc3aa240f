"""Normalized products of Phi matrices: direction vectors with certificates.

Left vectors mu_n(lambda) are the limiting directions of pi Phi_m ... Phi_{n-1}
as m -> -infinity; right vectors nu_k(lambda) the limiting directions of
Phi_k ... Phi_m 1 as m -> +infinity. Products of matrices with entries in
[c, 1/c] contract directions geometrically; the per-step contraction
coefficient is measured from the actual factors

    rho(A, B) = min_{i,j,k} A(i,j) B(j,k) / (A B)(i,k)

(adjacent factors, earlier one on the left) and certified via
||eps_m|| <= prod (1 - d rho), giving an l1 (mu) / l-infinity (nu) radius
2 eps / (1 - eps). The measured radius is never looser than the closed form
(2/c^4)(1-c^4)^(m-1) with c the measured entrywise bound.

All direction rolling in the package goes through `_roll_left` (the mu
recurrence) and `_roll_right` (its nu mirror): the vectors here, the Lambda
estimators of `lmgf` and the backward vectors of the tilted sampler. At
d = 2 both run on Python floats (`_roll_2x2`, about 0.4 us a level against
2.6 us for numpy's per-level calls on a 2-core x86-64 Xeon); each entry of
w = z Phi is the plain sum of two products, which is not always numpy's
result: numpy's vector-matrix product rounds otherwise in the last bit
(one entry of w or both differ on about 30% of random 2x2 inputs with
numpy 2.4 and OpenBLAS), and without a fused multiply-add in Python
3.11's math module no float loop can follow it. The two agree within
1e-15 relative. At d >= 3 the rolls keep numpy's products.

Appendix-style environments from (L, R) embeddings with L > R have Phi with
zero columns [R+1, L]. The two rolls take such factors as they are, and the
exact zeros survive: every Lambda estimator and the tilted sampler use them
so. Only `mu_vectors` and `nu_vectors`, whose radii need strictly positive
factors, refuse them; `block_mu_vectors` and `block_nu_vectors` give their
directions and radii from the positive R x R upper-left blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phi import PhiSolution


class NonPositiveFactorError(ValueError):
    """A product factor has a nonpositive entry; route through block reduction."""


@dataclass(frozen=True)
class DirectionVector:
    """Probability vector on heights with a certified distance to the limit.

    side 'left' -> mu (l1 radius), side 'right' -> nu (l-infinity radius).
    """

    v: np.ndarray
    level: int
    lam: float
    side: str
    error_radius: float
    warmup: bool = False
    factors_consumed: int = 0

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1 or (v < -1e-15).any() or abs(v.sum() - 1.0) > 1e-12:
            raise ValueError("direction vector must be a probability vector")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


def _factor_stack(phis) -> tuple[np.ndarray, int, float]:
    """(array, lo, lam) of a PhiSolution, or of an (n, d, d) stack of
    factors (levels from 0, lambda unknown)."""
    if isinstance(phis, PhiSolution):
        return phis.phis, phis.window.lo, phis.lam
    arr = np.asarray(phis, dtype=float)
    if arr.ndim != 3 or not len(arr):
        raise ValueError("need an (n, d, d) stack of at least one factor")
    return arr, 0, float("nan")


def _roll_left(factors: np.ndarray, start: np.ndarray | None = None):
    """Forward roll z_{k+1} = z_k Phi_k / s_k with s_k = z_k Phi_k 1.

    `factors` has shape (n, d, d); `start` is the probability vector z_0
    (uniform when omitted). Returns the directions Z, shape (n+1, d), and
    the normalizers s, shape (n,). At d = 1 every direction is 1 and s is
    the factor itself; at d = 2 the roll runs on Python floats (_roll_2x2).
    """
    n, d, _ = factors.shape
    if d == 1:
        return np.ones((n + 1, 1)), factors[:, 0, 0]
    z = np.full(d, 1.0 / d) if start is None else np.asarray(start, dtype=float)
    if d == 2:
        Z, s = _roll_2x2(factors.reshape(n, 4).tolist(), *z.tolist())
        return np.array(Z).reshape(-1, 2), np.array(s)
    ones, w = np.ones(d), np.empty(d)
    Z = np.empty((n + 1, d))
    s = np.empty(n)
    Z[0] = z
    for k, phi in enumerate(factors):
        np.matmul(z, phi, out=w)
        s[k] = t = np.dot(w, ones)
        z = np.divide(w, t, out=Z[k + 1])
    return Z, s


def _roll_right(factors: np.ndarray, start: np.ndarray | None = None):
    """Backward roll r_k = Phi_k r_{k+1} / s_k with s_k = 1 Phi_k r_{k+1}.

    The mirror of `_roll_left`: `start` is r_n, R has shape (n+1, d) with
    R[k] the direction of Phi_k ... Phi_{n-1} start, and s[k] is level k's
    normalizer. At d = 2 it is the forward float roll over the transposed
    factors in reverse order.
    """
    n, d, _ = factors.shape
    if d == 1:
        return np.ones((n + 1, 1)), factors[:, 0, 0]
    r = np.full(d, 1.0 / d) if start is None else np.asarray(start, dtype=float)
    if d == 2:
        R, s = _roll_2x2(factors[::-1].transpose(0, 2, 1).reshape(n, 4).tolist(), *r.tolist())
        return np.array(R).reshape(-1, 2)[::-1].copy(), np.array(s[::-1])
    ones, w = np.ones(d), np.empty(d)
    R = np.empty((n + 1, d))
    s = np.empty(n)
    R[n] = r
    for k in range(n - 1, -1, -1):
        np.matmul(factors[k], r, out=w)
        s[k] = t = np.dot(w, ones)
        r = np.divide(w, t, out=R[k])
    return R, s


def _roll_2x2(rows, z0: float, z1: float):
    """The forward roll of `_roll_left` over 2x2 factors given as row-major
    float rows, from the direction (z0, z1): w_j = z0 a_0j + z1 a_1j, then
    t = w0 + w1 and z = w / t, with no numpy call. Returns the directions
    as one flat list (z0, z1 of each of the n + 1) and the n normalizers t.
    This is the plain float recurrence, not numpy's `z @ phi` to the last
    bit (module docstring)."""
    Z = [z0, z1]
    s = []
    for a00, a01, a10, a11 in rows:
        w0 = z0 * a00 + z1 * a10
        w1 = z0 * a01 + z1 * a11
        t = w0 + w1
        z0 = w0 / t
        z1 = w1 / t
        Z += z0, z1
        s.append(t)
    return Z, s


def _contractions(arr: np.ndarray) -> np.ndarray:
    """1 - d rho(Phi_k, Phi_{k+1}) for every adjacent pair of factors, with

    rho(A, B) = min_{i,j,k} A(i,j) B(j,k) / (A B)(i,k).
    """
    terms = arr[:-1, :, :, None] * arr[1:, None, :, :]  # (pair, i, j, k)
    rho = (terms.min(axis=2) / terms.sum(axis=2)).min(axis=(1, 2))
    return 1.0 - arr.shape[1] * rho


def _radius_from_eps(eps: float) -> float:
    if eps >= 1.0:
        return float("inf")
    return 2.0 * eps / (1.0 - eps)


def measured_c(factors: np.ndarray) -> float:
    """Largest c with c <= entries <= 1/c over all factors."""
    lo = float(factors.min())
    hi = float(factors.max())
    if lo <= 0:
        raise NonPositiveFactorError("factors must have strictly positive entries")
    return min(lo, 1.0 / hi)


def closed_form_radius(c: float, m: int) -> float:
    """(2/c^4)(1-c^4)^(m-1): the certificate with the measured uniform bound c."""
    return 2.0 / c**4 * (1.0 - c**4) ** (m - 1)


def _positive_stack(phis, block_routine: str):
    stack = _factor_stack(phis)
    if (stack[0] <= 0).any():
        raise NonPositiveFactorError(
            f"nonpositive factor entry; use {block_routine} for zero-column matrices"
        )
    return stack


def mu_vectors(phis, warmup: int = 1) -> list[DirectionVector]:
    """Rolling left directions mu for levels lo..hi of the factor window.

    mu at level lo+m consumes the m factors lo..lo+m-1 via
    mu_{k+1} = mu_k Phi_k / (mu_k Phi_k 1); the first max(warmup, 1) vectors
    are flagged unreliable. Radii shrink with the measured rho products.
    """
    arr, lo, lam = _positive_stack(phis, "block_mu_vectors")
    Z, _ = _roll_left(arr)
    eps = np.cumprod(_contractions(arr))  # eps[m-2]: after m factors
    return [
        DirectionVector(
            v=Z[m], level=lo + m, lam=lam, side="left",
            error_radius=_radius_from_eps(float(eps[m - 2])) if m >= 2 else float("inf"),
            warmup=m < max(warmup, 1), factors_consumed=m,
        )
        for m in range(len(arr) + 1)
    ]


def nu_vectors(phis, warmup: int = 1) -> list[DirectionVector]:
    """Rolling right directions nu for levels lo..hi (nu_k consumes factors k..hi-1)."""
    arr, lo, lam = _positive_stack(phis, "block_nu_vectors")
    n = len(arr)
    R, _ = _roll_right(arr)
    eps = np.cumprod(_contractions(arr)[::-1])  # eps[m-2]: after the last m factors
    return [
        DirectionVector(
            v=R[k], level=lo + k, lam=lam, side="right",
            error_radius=_radius_from_eps(float(eps[n - k - 2])) if n - k >= 2 else float("inf"),
            warmup=n - k < max(warmup, 1), factors_consumed=n - k,
        )
        for k in range(n + 1)
    ]


# ---------------------------------------------------------------------------
# block reduction for (L, R) embeddings with L > R
# ---------------------------------------------------------------------------


def _check_block_pattern(arr: np.ndarray, R: int) -> None:
    if arr.shape[1] <= R:
        raise ValueError("block reduction needs d > R")
    if arr[:, :, R:].any():
        raise ValueError("wrong zero pattern: columns beyond R must be exactly zero")
    if (arr[:, :, :R] <= 0).any():
        raise ValueError("wrong zero pattern: first R columns must be positive")


def block_mu_vectors(phis, R: int, warmup: int = 1) -> list[DirectionVector]:
    """Left directions for zero-column Phi stacks: roll the R x R A-blocks,
    pad with d-R exact zeros."""
    arr, lo, lam = _factor_stack(phis)
    _check_block_pattern(arr, R)
    d = arr.shape[1]
    out = []
    for dv in mu_vectors(arr[:, :R, :R], warmup=warmup):
        padded = np.zeros(d)
        padded[:R] = dv.v
        out.append(DirectionVector(
            v=padded, level=lo + dv.factors_consumed, lam=lam, side="left",
            error_radius=dv.error_radius, warmup=dv.warmup,
            factors_consumed=dv.factors_consumed,
        ))
    return out


def block_nu_vectors(phis, R: int, warmup: int = 1) -> list[DirectionVector]:
    """Right directions via the sigma construction: sigma_k is the direction of
    A_{[k,n]} 1 (`nu_vectors` on the A-blocks);
    nu_k = Phi_k sigma~_{k+1} / (1^t Phi_k sigma~_{k+1})."""
    arr, lo, lam = _factor_stack(phis)
    _check_block_pattern(arr, R)
    n, d, _ = arr.shape
    sigmas = nu_vectors(arr[:, :R, :R])
    out = []
    for k in range(n):
        w = arr[k, :, :R] @ sigmas[k + 1].v
        total = w.sum()
        # measured Lipschitz closure mapping the sigma radius through Phi_k
        scale = float(arr[k, :, :R].max()) * d / total
        out.append(DirectionVector(
            v=w / total, level=lo + k, lam=lam, side="right",
            error_radius=sigmas[k + 1].error_radius * max(scale, 1.0),
            warmup=(n - k) < max(warmup, 1), factors_consumed=n - k,
        ))
    return out


def raw_normalized_left(factors, pi: np.ndarray | None = None) -> np.ndarray:
    """pi G_1 ... G_m normalized, with no positivity requirement (oracle helper)."""
    arr = _factor_stack(factors)[0]
    v = np.full(arr.shape[1], 1.0 / arr.shape[1]) if pi is None else np.asarray(pi, float)
    for k in range(arr.shape[0]):
        v = v @ arr[k]
        v = v / v.sum()
    return v


def raw_normalized_right(factors) -> np.ndarray:
    """G_1 ... G_m 1 normalized (oracle helper)."""
    arr = _factor_stack(factors)[0]
    v = np.ones(arr.shape[1])
    v = v / v.sum()
    for k in range(arr.shape[0] - 1, -1, -1):
        v = arr[k] @ v
        v = v / v.sum()
    return v
