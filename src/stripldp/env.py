"""Environment model for random walks on the strip Z x {1..d}.

A level's transition data is a triple (q, r, p) of nonnegative d x d
matrices: q(i,j), r(i,j), p(i,j) are the probabilities of stepping from
height i of the current level to height j of the level to the left, the
same level, or the level to the right. Row sums of q+r+p must be 1.

Environments are generated from finite-support specs (deterministic-
periodic or i.i.d.) as finite windows of consecutive levels. Bounded-jump
walks on Z with steps in [-L, R] embed into a strip of width max(L, R) via
x = k*d + i - 1.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

STOCH_TOL = 1e-12  # row-stochasticity tolerance; renormalization is refused
SINGULAR_RESIDUAL = 1e-10  # residual above which (I - r) is declared singular


class SpecValidationError(ValueError):
    """A slice or spec violates its invariants (bad rows, kappa, weights...)."""


class WindowExhaustedError(RuntimeError):
    """A walk left the sampled window; the caller must widen it."""


def _as_matrix(m, d: int | None = None) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecValidationError(f"expected a square matrix, got shape {a.shape}")
    if d is not None and a.shape[0] != d:
        raise SpecValidationError(f"matrix dimension {a.shape[0]} != d={d}")
    return a


@dataclass(frozen=True, eq=False)
class EnvironmentSlice:
    """One level's transition triple (q, r, p), each d x d."""

    q: np.ndarray
    r: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _as_matrix(self.q)
        d = q.shape[0]
        r = _as_matrix(self.r, d)
        p = _as_matrix(self.p, d)
        for name, m in (("q", q), ("r", r), ("p", p)):
            if (m < 0).any() or (m > 1).any():
                raise SpecValidationError(f"{name} entries must lie in [0, 1]")
        rows = (q + r + p).sum(axis=1)
        if np.abs(rows - 1.0).max() > STOCH_TOL:
            raise SpecValidationError(
                f"rows of q+r+p must sum to 1 within {STOCH_TOL:g}; "
                f"worst deviation {np.abs(rows - 1.0).max():.3e}"
            )
        for m in (q, r, p):
            m.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.q.shape[0]

    def swapped(self) -> "EnvironmentSlice":
        """Slice with the left/right matrices exchanged (reflection)."""
        return EnvironmentSlice(q=self.p.copy(), r=self.r.copy(), p=self.q.copy())


@dataclass(frozen=True)
class StartDistribution:
    """Probability vector over heights {1..d} for the walk's start."""

    pi: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.pi, dtype=float)
        if v.ndim != 1 or (v < 0).any() or abs(v.sum() - 1.0) > STOCH_TOL:
            raise SpecValidationError("start distribution must be a probability vector")
        v.setflags(write=False)
        object.__setattr__(self, "pi", v)

    @classmethod
    def uniform(cls, d: int) -> "StartDistribution":
        return cls(np.full(d, 1.0 / d))


@dataclass(frozen=True)
class EllipticityReport:
    """Per-condition outcome of the uniform ellipticity check at level kappa."""

    kappa: float
    one_step_left_ok: bool  # every row: sum_j q(i,j) >= kappa
    one_step_right_ok: bool  # every row: sum_j p(i,j) >= kappa
    entry_left_ok: bool  # ((I-r)^-1 q)(i,j) >= kappa for all i,j
    entry_right_ok: bool  # ((I-r)^-1 p)(i,j) >= kappa for all i,j
    n_kappa: int  # smallest N with kappa - (1-2kappa)^N >= kappa/2
    singular_stay: bool = False  # (I - r) not solvable: walk can be trapped in a level
    min_one_step_left: float = float("nan")
    min_one_step_right: float = float("nan")
    min_entry_left: float = float("nan")
    min_entry_right: float = float("nan")

    @property
    def passed(self) -> bool:
        return (
            not self.singular_stay
            and self.one_step_left_ok
            and self.one_step_right_ok
            and self.entry_left_ok
            and self.entry_right_ok
        )


def n_kappa(kappa: float) -> int:
    """Number of steps after which level exit in either direction has mass >= kappa/2."""
    if not 0 < kappa < 0.5:
        raise SpecValidationError(f"kappa must lie in (0, 1/2), got {kappa}")
    return math.ceil(math.log(kappa / 2.0) / math.log(1.0 - 2.0 * kappa))


def lambda_crit_cap(kappa: float) -> float:
    """A-priori upper bound -log(kappa^2 / 2) on the critical exponent."""
    return -math.log(kappa * kappa / 2.0)


def validate_ellipticity(slice_: EnvironmentSlice, kappa: float) -> EllipticityReport:
    """Check the one-step and entry-height ellipticity conditions at level kappa.

    A singular (I - r) — some row of r summing to 1, so the walk can be
    trapped inside a level — is reported as a failed condition, not raised.
    """
    nk = n_kappa(kappa)
    q, r, p = slice_.q, slice_.r, slice_.p
    d = slice_.d
    left = q.sum(axis=1)
    right = p.sum(axis=1)

    eye = np.eye(d)
    try:
        exit_left = np.linalg.solve(eye - r, q)
        exit_right = np.linalg.solve(eye - r, p)
        residual = max(
            np.abs((eye - r) @ exit_left - q).max(),
            np.abs((eye - r) @ exit_right - p).max(),
        )
        singular = residual > SINGULAR_RESIDUAL
    except np.linalg.LinAlgError:
        singular = True
        exit_left = exit_right = np.full((d, d), np.nan)

    return EllipticityReport(
        kappa=kappa,
        one_step_left_ok=bool(left.min() >= kappa),
        one_step_right_ok=bool(right.min() >= kappa),
        entry_left_ok=bool(not singular and exit_left.min() >= kappa),
        entry_right_ok=bool(not singular and exit_right.min() >= kappa),
        n_kappa=nk,
        singular_stay=singular,
        min_one_step_left=float(left.min()),
        min_one_step_right=float(right.min()),
        min_entry_left=float(exit_left.min()) if not singular else float("nan"),
        min_entry_right=float(exit_right.min()) if not singular else float("nan"),
    )


@dataclass(frozen=True, eq=False)
class EnvironmentSpec:
    """Generative law for environment slices, on a finite support `slices`.

    kind:
      "periodic" — slices read cyclically from `slices`
      "iid"      — each level drawn independently from `slices` with `weights`

    `bounded_jump` marks specs built by the (L,R)-walk embedding; when L != R
    the standard ellipticity conditions are structurally violated with a
    documented zero pattern, so validation flags rather than rejects them.

    Averaged-rate machinery takes i.i.d. specs: their level marginals
    factorize and every tilted product law stays on the support, the
    regularity the variational bounds rely on.

    Specs, like slices and windows, compare and hash by identity (their
    fields hold arrays); `content_hash` compares content.
    """

    kind: str
    d: int
    kappa: float
    slices: tuple[EnvironmentSlice, ...] = ()
    weights: tuple[float, ...] = ()
    bounded_jump: tuple[int, int] | None = None  # (L, R) when embedded

    def __post_init__(self):
        if not 0 < self.kappa < 0.5:
            raise SpecValidationError(f"kappa must lie in (0, 1/2), got {self.kappa}")
        if not 1 <= self.d <= 64:
            raise SpecValidationError("strip width is capped at d <= 64")
        if self.kind not in ("periodic", "iid"):
            raise SpecValidationError(f"unknown spec kind {self.kind!r}")
        if not self.slices:
            raise SpecValidationError("spec needs at least one slice (period >= 1)")
        for s in self.slices:
            if s.d != self.d:
                raise SpecValidationError("all slices must share the spec's d")
            rep = validate_ellipticity(s, self.kappa)
            if not rep.passed and not self._is_documented_block_pattern(s, rep):
                raise SpecValidationError(
                    f"slice fails ellipticity at kappa={self.kappa}: {rep}"
                )
        if self.kind == "iid":
            w = np.asarray(self.weights, dtype=float)
            if len(w) != len(self.slices):
                raise SpecValidationError("need one weight per support slice")
            if (w <= 0).any() or abs(w.sum() - 1.0) > STOCH_TOL:
                raise SpecValidationError(
                    "support weights must be positive and sum to 1"
                )
        elif self.weights:
            raise SpecValidationError("a periodic spec reads its slices in turn: no weights")

    def _is_documented_block_pattern(self, s: EnvironmentSlice, rep) -> bool:
        # (L,R) embedding with L != R, k = |L-R|, m = min(L, R): p (L > R) or
        # q (R > L) has zero rows [0, k) and columns [m, d) (an L > R embedding)
        # or zero rows [m, d) and columns [0, k) (an R > L one), each pattern
        # also that of the other's reflection; only those conditions may fail.
        if self.bounded_jump is None:
            return False
        L, R = self.bounded_jump
        if L == R:
            return False
        k, m = abs(L - R), min(L, R)
        mat = s.p if L > R else s.q

        def zero(rows: slice, cols: slice) -> bool:
            return not mat[rows].any() and not mat[:, cols].any()

        ok = zero(slice(0, k), slice(m, None)) or zero(slice(m, None), slice(0, k))
        return ok and not rep.singular_stay

    @property
    def period(self) -> int:
        if self.kind != "periodic":
            raise SpecValidationError("period is only defined for periodic specs")
        return len(self.slices)

    @functools.cached_property
    def stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, r, p) of the support as read-only (S, d, d) arrays, row k from
        slices[k]."""
        out = tuple(np.stack([getattr(s, m) for s in self.slices]) for m in "qrp")
        for m in out:
            m.setflags(write=False)
        return out

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """Each support slice as one tuple of Python floats (its q, r and p,
        each row-major), held in a 1-d object array: a sampled window
        gathers its levels' rows from it by slice index."""
        out = np.empty(len(self.slices), dtype=object)
        for k, row in enumerate(_level_rows(*self.stacks)):
            out[k] = row
        out.setflags(write=False)
        return out

    def invert(self) -> "EnvironmentSpec":
        """Spec of the reflected environment (q and p swapped, levels negated)."""
        slices = self.slices
        if self.kind == "periodic":
            # level -n of the original is read at position n of the reflection
            slices = slices[:1] + slices[:0:-1]
        bj = self.bounded_jump
        return dataclasses.replace(
            self, slices=tuple(s.swapped() for s in slices),
            bounded_jump=None if bj is None else bj[::-1],
        )

    def content_hash(self) -> str:
        """Digest of the canonicalized spec content, for output provenance."""
        blob = json.dumps(spec_to_json_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _level_rows(q: np.ndarray, r: np.ndarray, p: np.ndarray) -> list:
    """One tuple of Python floats a level of the (n, d, d) stacks: q, r and
    p, each row-major."""
    n = len(q)
    return list(map(tuple, np.concatenate(
        [m.reshape(n, -1) for m in (q, r, p)], axis=1).tolist()))


@dataclass(frozen=True, eq=False)
class EnvironmentWindow:
    """Contiguous slice sequence for levels [lo, hi), stored as stacked arrays.

    `rows[k]` holds level lo+k as one tuple of Python floats (q, r and p,
    each row-major): the sweeps at d <= 2 read these and never convert the
    arrays. A sampled window's levels share their support slice's tuple, so
    the rows cost one reference a level; a window built from arrays alone
    gets rows of its own.
    """

    q: np.ndarray  # (n, d, d)
    r: np.ndarray
    p: np.ndarray
    lo: int
    hi: int
    seed: int | None = None
    spec_hash: str | None = None
    rows: list | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.hi - self.lo
        if n <= 0:
            raise SpecValidationError("window needs hi > lo")
        for m in (self.q, self.r, self.p):
            if m.shape != (n, self.d, self.d):
                raise SpecValidationError("window arrays must be (n, d, d)")
            m.setflags(write=False)
        if self.rows is None:
            object.__setattr__(self, "rows", _level_rows(self.q, self.r, self.p))
        elif len(self.rows) != n:
            raise SpecValidationError("window needs one row a level")

    @property
    def d(self) -> int:
        return self.q.shape[1]

    @property
    def n_levels(self) -> int:
        return self.hi - self.lo

    def index_of(self, level: int) -> int:
        if not self.lo <= level < self.hi:
            raise IndexError(f"level {level} outside window [{self.lo}, {self.hi})")
        return level - self.lo

    def slice_at(self, level: int) -> EnvironmentSlice:
        k = self.index_of(level)
        return EnvironmentSlice(self.q[k].copy(), self.r[k].copy(), self.p[k].copy())

    def sub(self, lo: int, hi: int) -> "EnvironmentWindow":
        a, b = self.index_of(lo), self.index_of(hi - 1) + 1
        return EnvironmentWindow(
            q=self.q[a:b], r=self.r[a:b], p=self.p[a:b],
            lo=lo, hi=hi, seed=self.seed, spec_hash=self.spec_hash, rows=self.rows[a:b],
        )


def sample_window(
    spec: EnvironmentSpec, lo: int, hi: int, seed: int | None = None
) -> EnvironmentWindow:
    """Realize levels [lo, hi) from the spec; deterministic in (spec, lo, hi, seed).

    Periodic specs are read cyclically (slice for level k is slices[k mod period]),
    so the same absolute levels always see the same slices regardless of lo.
    """
    if hi <= lo:
        raise SpecValidationError("need lo < hi")
    n = hi - lo
    if spec.kind == "periodic":
        idx = (lo + np.arange(n)) % spec.period
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # draw one uniform per level; cumulative-weight inversion keeps the
        # draw monotone in the weights (common random numbers across tilts)
        u = rng.random(n)
        cum = np.cumsum(np.asarray(spec.weights, dtype=float))
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, len(spec.slices) - 1)
    q, r, p = (m[idx] for m in spec.stacks)
    return EnvironmentWindow(
        q=q, r=r, p=p, lo=lo, hi=hi, seed=seed, spec_hash=spec.content_hash(),
        rows=spec.rows[idx].tolist(),
    )


def invert_window(window: EnvironmentWindow) -> EnvironmentWindow:
    """Reflect the window through level 0: slice n' of the result is
    (p, r, q) of slice -n' of the input; levels [lo, hi) map to (-hi, -lo].

    Applying twice returns the original window bit-exactly.
    """
    return EnvironmentWindow(
        q=window.p[::-1].copy(),
        r=window.r[::-1].copy(),
        p=window.q[::-1].copy(),
        lo=1 - window.hi,
        hi=1 - window.lo,
        seed=window.seed,
        spec_hash=window.spec_hash,
    )


# ---------------------------------------------------------------------------
# bounded-jump embedding (steps in [-L, R] on Z -> strip of width max(L, R))
# ---------------------------------------------------------------------------


def embed_bounded_jump(
    kernel: Sequence[float], L: int, R: int, kappa: float | None = None
) -> EnvironmentSpec:
    """Embed a walk on Z with i.i.d.-per-site step kernel on [-L, R] into a strip.

    `kernel[z + L]` is the probability of a step of size z. Site x of Z is
    identified with (k, i), x = k*d + i - 1, d = max(L, R). The homogeneous
    kernel yields a single strip slice (period-1 spec): height i's row maps
    step z to the left/stay/right matrix via the level offset of x + z.

    When L > R the resulting p matrices have zero rows i in [1, L-R] and zero
    columns j in [R+1, L]; when R > L the q matrices have zero rows i in
    [L+1, R] and zero columns j in [1, R-L]. The spec is flagged bounded-jump
    so validation accepts that documented pattern.
    """
    if L < 1 or R < 1:
        raise SpecValidationError("need L >= 1 and R >= 1")
    ker = np.asarray(kernel, dtype=float)
    if ker.shape != (L + R + 1,):
        raise SpecValidationError(f"kernel must have length L+R+1 = {L + R + 1}")
    if (ker < 0).any() or abs(ker.sum() - 1.0) > STOCH_TOL:
        raise SpecValidationError("kernel must be a probability vector on [-L, R]")
    nonzero_steps = np.concatenate([ker[:L], ker[L + 1:]])
    if kappa is not None and nonzero_steps.min() < kappa:
        raise SpecValidationError(
            f"kernel(z) >= kappa={kappa} violated on a nonzero step"
        )

    d = max(L, R)
    q = np.zeros((d, d))
    r = np.zeros((d, d))
    p = np.zeros((d, d))
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for mat, off in ((q, -d), (r, 0), (p, d)):
                z = (j - i) + off
                if -L <= z <= R:
                    mat[i - 1, j - 1] += ker[z + L]
    slice_ = EnvironmentSlice(q=q, r=r, p=p)

    if kappa is None and L != R:
        # the zero pattern fails the strip conditions; the step kernel's own
        # floor is the level
        kappa = min(0.499, max(1e-9, nonzero_steps.min() * (1.0 - 1e-9)))
    elif kappa is None:
        # largest level the constructed slice certifiably supports, capped
        # below 1/2
        rep = validate_ellipticity(slice_, min(0.499, max(nonzero_steps.min(), 1e-6)))
        candidates = [rep.min_one_step_left, rep.min_one_step_right]
        if not rep.singular_stay:
            for v in (rep.min_entry_left, rep.min_entry_right):
                if v > 0:
                    candidates.append(v)
        kappa = min(0.499, max(1e-9, min(candidates) * (1.0 - 1e-9)))

    return EnvironmentSpec(
        kind="periodic", d=d, kappa=kappa, slices=(slice_,),
        bounded_jump=(L, R),
    )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def spec_to_json_dict(spec: EnvironmentSpec) -> dict:
    out = {
        "d": spec.d,
        "kappa": spec.kappa,
        "kind": spec.kind,
        "slices": [],
    }
    weights = spec.weights if spec.kind == "iid" else [None] * len(spec.slices)
    for s, w in zip(spec.slices, weights):
        entry = {"q": s.q.tolist(), "r": s.r.tolist(), "p": s.p.tolist()}
        if w is not None:
            entry["weight"] = w
        out["slices"].append(entry)
    if spec.bounded_jump is not None:
        out["bounded_jump"] = list(spec.bounded_jump)
    return out


def spec_from_json_dict(doc: dict) -> EnvironmentSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecValidationError("spec document must be an object with a 'kind'")
    kind = doc["kind"]
    if kind == "bounded-jump":
        for key in ("L", "R", "kernel"):
            if key not in doc:
                raise SpecValidationError(f"bounded-jump spec missing '{key}'")
        return embed_bounded_jump(
            doc["kernel"], int(doc["L"]), int(doc["R"]), doc.get("kappa")
        )
    if kind not in ("periodic", "iid"):
        raise SpecValidationError(f"unknown spec kind {kind!r}")
    for key in ("d", "kappa", "slices"):
        if key not in doc:
            raise SpecValidationError(f"spec missing '{key}'")
    slices = []
    weights = []
    for k, entry in enumerate(doc["slices"]):
        try:
            slices.append(
                EnvironmentSlice(
                    q=np.asarray(entry["q"], dtype=float),
                    r=np.asarray(entry["r"], dtype=float),
                    p=np.asarray(entry["p"], dtype=float),
                )
            )
        except KeyError as e:
            raise SpecValidationError(f"slice {k} missing matrix {e}") from e
        if kind == "iid":
            if "weight" not in entry:
                raise SpecValidationError(f"iid slice {k} missing 'weight'")
            weights.append(float(entry["weight"]))
    bj = tuple(doc["bounded_jump"]) if "bounded_jump" in doc else None
    return EnvironmentSpec(
        kind=kind,
        d=int(doc["d"]),
        kappa=float(doc["kappa"]),
        slices=tuple(slices),
        weights=tuple(weights),
        bounded_jump=bj,
    )


def load_spec(path: str) -> EnvironmentSpec:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpecValidationError(
                f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e
    return spec_from_json_dict(doc)


def window_to_json_dict(window: EnvironmentWindow) -> dict:
    return {
        "lo": window.lo,
        "hi": window.hi,
        "seed": window.seed,
        "spec_hash": window.spec_hash,
        "slices": [
            {"q": window.q[k].tolist(), "r": window.r[k].tolist(),
             "p": window.p[k].tolist()}
            for k in range(window.n_levels)
        ],
    }


def window_from_json_dict(doc: dict) -> EnvironmentWindow:
    n = len(doc["slices"])
    if n == 0:
        raise SpecValidationError("window document has no slices")
    d = len(doc["slices"][0]["q"])
    q = np.empty((n, d, d))
    r = np.empty((n, d, d))
    p = np.empty((n, d, d))
    for k, entry in enumerate(doc["slices"]):
        q[k] = entry["q"]
        r[k] = entry["r"]
        p[k] = entry["p"]
    return EnvironmentWindow(
        q=q, r=r, p=p, lo=int(doc["lo"]), hi=int(doc["hi"]),
        seed=doc.get("seed"), spec_hash=doc.get("spec_hash"),
    )


# convenience constructors used throughout the tests and CLI docs


def homogeneous_d1_spec(p: float, r: float = 0.0, kappa: float | None = None) -> EnvironmentSpec:
    """Width-1 strip with constant step probabilities (q = 1 - p - r)."""
    qv = 1.0 - p - r
    if kappa is None:
        kappa = min(0.499, min(p, qv) * (1.0 - 1e-12))
    s = EnvironmentSlice(q=[[qv]], r=[[r]], p=[[p]])
    return EnvironmentSpec(kind="periodic", d=1, kappa=kappa, slices=(s,))


def two_point_d1_spec(
    p_values: Sequence[float], weights: Sequence[float], kappa: float | None = None
) -> EnvironmentSpec:
    """i.i.d. width-1 spec mixing homogeneous slices with the given p values."""
    if kappa is None:
        kappa = min(0.499, min(min(pv, 1.0 - pv) for pv in p_values) * (1 - 1e-12))
    slices = tuple(
        EnvironmentSlice(q=[[1.0 - pv]], r=[[0.0]], p=[[pv]]) for pv in p_values
    )
    return EnvironmentSpec(
        kind="iid", d=1, kappa=kappa, slices=slices, weights=tuple(weights)
    )
