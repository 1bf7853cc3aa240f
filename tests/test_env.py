import dataclasses
import json
import math

import numpy as np
import pytest

from stripldp.env import (
    EnvironmentSlice,
    EnvironmentSpec,
    SpecValidationError,
    StartDistribution,
    embed_bounded_jump,
    homogeneous_d1_spec,
    invert_window,
    n_kappa,
    sample_window,
    spec_from_json_dict,
    spec_to_json_dict,
    two_point_d1_spec,
    validate_ellipticity,
    window_from_json_dict,
    window_to_json_dict,
)

from conftest import random_d2_iid_spec


def test_slice_rejects_bad_rows():
    with pytest.raises(SpecValidationError):
        EnvironmentSlice(q=[[0.3]], r=[[0.0]], p=[[0.6]])  # sums to 0.9
    with pytest.raises(SpecValidationError):
        EnvironmentSlice(q=[[-0.1]], r=[[0.0]], p=[[1.1]])


def test_no_silent_renormalization():
    # off by more than 1e-12 must raise, not be scaled back
    with pytest.raises(SpecValidationError):
        EnvironmentSlice(q=[[0.25 + 1e-9]], r=[[0.0]], p=[[0.75]])
    # within tolerance passes untouched
    s = EnvironmentSlice(q=[[0.25 + 1e-13]], r=[[0.0]], p=[[0.75]])
    assert s.q[0, 0] == 0.25 + 1e-13


def test_ellipticity_d1_pass_and_fail():
    s = EnvironmentSlice(q=[[0.25]], r=[[0.0]], p=[[0.75]])
    rep = validate_ellipticity(s, 0.25)
    assert rep.passed
    assert rep.min_entry_right == pytest.approx(0.75)
    rep_fail = validate_ellipticity(s, 0.3)
    assert not rep_fail.passed and not rep_fail.one_step_left_ok


def test_ellipticity_d2_uniform_and_n_kappa():
    J = np.full((2, 2), 0.25)
    s = EnvironmentSlice(q=J, r=np.zeros((2, 2)), p=J)
    rep = validate_ellipticity(s, 0.2)
    assert rep.passed
    # ceil(log(0.1)/log(0.6)) = 5, frozen from the formula
    assert rep.n_kappa == 5
    assert n_kappa(0.2) == 5


def test_singular_stay_reported_not_raised():
    # height 1 self-loops forever: (I - r) is singular, the walk is trapped
    s = EnvironmentSlice(
        q=np.array([[0.0, 0.0], [0.3, 0.2]]),
        r=np.array([[1.0, 0.0], [0.1, 0.1]]),
        p=np.array([[0.0, 0.0], [0.2, 0.1]]),
    )
    rep = validate_ellipticity(s, 0.1)
    assert rep.singular_stay and not rep.passed


def test_sample_window_periodic_cyclic():
    spec = homogeneous_d1_spec(0.75, kappa=0.25)
    w = sample_window(spec, -3, 3)
    assert w.n_levels == 6
    assert (w.p == 0.75).all()


def test_sample_window_seed_determinism():
    spec = two_point_d1_spec([0.7, 0.8], [0.5, 0.5])
    w1 = sample_window(spec, -5, 100, seed=42)
    w2 = sample_window(spec, -5, 100, seed=42)
    assert (w1.p == w2.p).all() and (w1.q == w2.q).all()
    w3 = sample_window(spec, -5, 100, seed=43)
    assert not (w1.p == w3.p).all()


def _period3_d2_spec():
    iid = random_d2_iid_spec(1, drift=0.4)
    return EnvironmentSpec(kind="periodic", d=2, kappa=iid.kappa, slices=iid.slices)


@pytest.mark.parametrize("spec", [
    two_point_d1_spec([0.7, 0.8], [0.3, 0.7]),
    random_d2_iid_spec(1, drift=0.4),
    _period3_d2_spec(),
], ids=["d1-iid", "d2-iid", "d2-period3"])
def test_sample_window_matches_per_level_loop(spec):
    """Levels [lo, hi) equal, bit for bit, the per-level slice loop: cyclic
    slices for periodic specs, one inverted uniform per level for i.i.d.
    ones. Sub-windows are read-only views of the same levels. The spec's
    (q, r, p) stacks, which windows gather from, hold its slices in order,
    are computed once and cannot be written."""
    assert spec.stacks is spec.stacks
    for name, m in zip("qrp", spec.stacks):
        assert m.tobytes() == np.array([getattr(s, name) for s in spec.slices]).tobytes()
        assert m.shape == (len(spec.slices), spec.d, spec.d)
        with pytest.raises(ValueError):
            m[0, 0, 0] = 0.5
    lo, hi, seed = -7, 40, 11
    if spec.kind == "periodic":
        idx = [(lo + k) % spec.period for k in range(hi - lo)]
    else:
        u = np.random.default_rng(np.random.SeedSequence(seed)).random(hi - lo)
        cum = np.cumsum(spec.weights)
        idx = [min(int(np.searchsorted(cum, x, side="right")), len(cum) - 1) for x in u]
    w = sample_window(spec, lo, hi, seed=seed)
    for name in "qrp":
        ref = np.empty((hi - lo, spec.d, spec.d))
        for k, i in enumerate(idx):
            ref[k] = getattr(spec.slices[i], name)
        assert getattr(w, name).tobytes() == ref.tobytes()
    sub = w.sub(-2, 5)
    assert sub.lo == -2 and sub.hi == 5
    assert sub.p.tobytes() == w.p[5:12].tobytes()
    assert np.shares_memory(sub.q, w.q) and not sub.q.flags.writeable


def test_sample_window_frequencies_binomial():
    n = 10_000
    spec = two_point_d1_spec([0.7, 0.8], [0.3, 0.7])
    w = sample_window(spec, 0, n, seed=7)
    frac_07 = float((w.p[:, 0, 0] == 0.7).mean())
    bound = 3.0 * math.sqrt(0.3 * 0.7 / n)
    assert abs(frac_07 - 0.3) < bound


def test_invert_window_homogeneous():
    spec = homogeneous_d1_spec(0.75, kappa=0.25)
    w = sample_window(spec, -4, 4)
    wi = invert_window(w)
    assert (wi.p == 0.25).all() and (wi.q == 0.75).all()
    assert wi.lo == 1 - w.hi and wi.hi == 1 - w.lo


def test_invert_window_involution_bit_exact():
    spec = random_d2_iid_spec(3)
    w = sample_window(spec, -7, 11, seed=5)
    wii = invert_window(invert_window(w))
    assert wii.lo == w.lo and wii.hi == w.hi
    assert (wii.q == w.q).all() and (wii.r == w.r).all() and (wii.p == w.p).all()


def test_invert_window_period2_entrywise():
    a = EnvironmentSlice(q=[[0.3]], r=[[0.1]], p=[[0.6]])
    b = EnvironmentSlice(q=[[0.2]], r=[[0.0]], p=[[0.8]])
    spec = EnvironmentSpec(kind="periodic", d=1, kappa=0.15, slices=(a, b))
    w = sample_window(spec, 0, 4)  # a b a b at levels 0..3
    wi = invert_window(w)  # levels -3..0
    # level -n of the inverted window carries (p, r, q) of level n
    for n in range(0, 4):
        src = w.slice_at(n)
        dst = wi.slice_at(-n)
        assert dst.q[0, 0] == src.p[0, 0]
        assert dst.r[0, 0] == src.r[0, 0]
        assert dst.p[0, 0] == src.q[0, 0]


def test_row_stochasticity_preserved():
    spec = random_d2_iid_spec(11)
    w = sample_window(spec, -10, 10, seed=2)
    rows = (w.q + w.r + w.p).sum(axis=2)
    assert np.abs(rows - 1.0).max() < 1e-12
    wi = invert_window(w)
    rows_i = (wi.q + wi.r + wi.p).sum(axis=2)
    assert np.abs(rows_i - 1.0).max() < 1e-12


def test_spec_validates_all_support_slices():
    good = EnvironmentSlice(q=[[0.25]], r=[[0.0]], p=[[0.75]])
    bad = EnvironmentSlice(q=[[0.05]], r=[[0.0]], p=[[0.95]])  # fails kappa=0.2
    with pytest.raises(SpecValidationError):
        EnvironmentSpec(kind="iid", d=1, kappa=0.2, slices=(good, bad),
                        weights=(0.5, 0.5))


def test_embed_nearest_neighbor_identity():
    spec = embed_bounded_jump([0.25, 0.0, 0.75], 1, 1)
    assert spec.d == 1
    s = spec.slices[0]
    assert s.q[0, 0] == 0.25 and s.p[0, 0] == 0.75 and s.r[0, 0] == 0.0


def test_embed_22_uniform_full_ellipticity():
    kernel = [0.25, 0.25, 0.0, 0.25, 0.25]  # uniform on {-2,-1,1,2}
    spec = embed_bounded_jump(kernel, 2, 2)
    assert spec.d == 2
    rep = validate_ellipticity(spec.slices[0], spec.kappa)
    assert rep.passed


def test_embed_21_zero_pattern():
    # steps in {-2,-1,0,1}: hand-mapping x = 2k + i - 1 gives p with a zero
    # first row and a zero second column on the width-2 strip
    kernel = [0.35, 0.35, 0.0, 0.30]
    spec = embed_bounded_jump(kernel, 2, 1)
    s = spec.slices[0]
    assert s.p[0].sum() == 0.0  # zero row i=1
    assert s.p[:, 1].sum() == 0.0  # zero column j=2
    rep = validate_ellipticity(s, spec.kappa)
    assert not rep.passed  # documented Appendix-pattern violation, flagged
    assert spec.bounded_jump == (2, 1)  # spec construction accepted it


def test_embed_kernel_validation():
    with pytest.raises(SpecValidationError):
        embed_bounded_jump([0.5, 0.0, 0.4], 1, 1)  # sums to 0.9
    with pytest.raises(SpecValidationError):
        embed_bounded_jump([0.05, 0.0, 0.95], 1, 1, kappa=0.1)  # kernel(-1) < kappa


def test_spec_json_roundtrip():
    spec = two_point_d1_spec([0.7, 0.8], [0.4, 0.6])
    doc = spec_to_json_dict(spec)
    back = spec_from_json_dict(json.loads(json.dumps(doc)))
    assert back.content_hash() == spec.content_hash()
    assert back.weights == spec.weights


def test_bounded_jump_json_kind():
    doc = {"kind": "bounded-jump", "L": 1, "R": 1, "kernel": [0.25, 0.0, 0.75]}
    spec = spec_from_json_dict(doc)
    assert spec.d == 1 and spec.bounded_jump == (1, 1)


def test_window_json_roundtrip():
    spec = random_d2_iid_spec(1)
    w = sample_window(spec, -3, 5, seed=9)
    back = window_from_json_dict(json.loads(json.dumps(window_to_json_dict(w))))
    assert back.lo == w.lo and back.hi == w.hi
    assert np.abs(back.q - w.q).max() == 0.0


@pytest.mark.parametrize("spec", [
    random_d2_iid_spec(5),
    _period3_d2_spec(),
    embed_bounded_jump([0.35, 0.35, 0.0, 0.30], 2, 1),
], ids=["d2-iid", "d2-period3", "bj21"])
def test_invert_spec_roundtrip(spec):
    """Reflecting twice gives the spec back: its hash and its (q, r, p)
    stacks, bit for bit. The reflection swaps q and p, and (L, R); a
    periodic one reads position k from the original's position -k mod
    period, so its windows are the reflected windows of the original."""
    inv = spec.invert()
    twice = inv.invert()
    assert twice.content_hash() == spec.content_hash()
    assert (twice.kind, twice.weights, twice.bounded_jump) == (
        spec.kind, spec.weights, spec.bounded_jump)
    for got, want in zip(twice.stacks, spec.stacks):
        assert got.tobytes() == want.tobytes()
    assert inv.bounded_jump == (None if spec.bounded_jump is None else spec.bounded_jump[::-1])
    n = len(spec.slices)
    idx = [(-k) % n for k in range(n)] if spec.kind == "periodic" else list(range(n))
    q, r, p = spec.stacks
    for got, want in zip(inv.stacks, (p, r, q)):
        assert got.tobytes() == want[idx].tobytes()
    if spec.kind == "periodic":
        w = invert_window(sample_window(spec, -7, 40))
        wi = sample_window(inv, w.lo, w.hi)
        for name in "qrp":
            assert getattr(wi, name).tobytes() == getattr(w, name).tobytes()


def test_spec_kinds_have_finite_support():
    iid = random_d2_iid_spec(5)
    with pytest.raises(SpecValidationError, match="unknown spec kind"):
        EnvironmentSpec(kind="iid-parametric", d=2, kappa=iid.kappa,
                        slices=iid.slices, weights=iid.weights)


def test_periodic_spec_takes_no_weights():
    """A periodic spec reads its slices in turn; weights on it would be
    ignored (also by its content hash), so they are refused."""
    iid = two_point_d1_spec([0.7, 0.8], [0.3, 0.7])
    with pytest.raises(SpecValidationError, match="no weights"):
        dataclasses.replace(iid, kind="periodic")


def test_start_distribution():
    StartDistribution.uniform(3)
    with pytest.raises(SpecValidationError):
        StartDistribution(pi=np.array([0.5, 0.6]))


def test_kappa_range_enforced():
    with pytest.raises(SpecValidationError):
        homogeneous_d1_spec(0.5, kappa=0.5)
    with pytest.raises(SpecValidationError):
        n_kappa(0.7)


# ---------------------------------------------------------------------------
# float rows: one tuple of Python floats a level, shared per support slice
# ---------------------------------------------------------------------------


def level_row(w, k):
    """Level lo+k of the window's arrays as the row layout: q, r, p row-major."""
    return tuple(w.q[k].ravel().tolist() + w.r[k].ravel().tolist() + w.p[k].ravel().tolist())


ROW_SPECS = {
    "d1-iid": lambda: two_point_d1_spec([0.7, 0.8], [0.3, 0.7]),
    "d2-iid": lambda: random_d2_iid_spec(4),
    "d2-period3": _period3_d2_spec,
}


@pytest.mark.parametrize("name", sorted(ROW_SPECS))
def test_window_rows_are_the_levels_as_floats(name):
    """Every level's row holds the window's q, r and p bit for bit, as
    Python floats; levels of one support slice share one row object, the
    spec's; and a sub-window reuses its parent's rows."""
    spec = ROW_SPECS[name]()
    w = sample_window(spec, -40, 300, seed=3)
    assert len(w.rows) == w.n_levels
    for k, row in enumerate(w.rows):
        assert row == level_row(w, k) and all(type(x) is float for x in row)
    assert len({id(row) for row in w.rows}) == len(spec.slices)
    assert {id(row) for row in w.rows} == {id(row) for row in spec.rows}
    sub = w.sub(-5, 100)
    assert all(a is b for a, b in zip(sub.rows, w.rows[35:140], strict=True))


@pytest.mark.parametrize("name", sorted(ROW_SPECS))
def test_built_windows_take_rows_from_their_arrays(name):
    """Windows built from arrays (a reflection, a JSON document) get rows
    equal to their own q, r and p, level by level."""
    w = sample_window(ROW_SPECS[name](), -20, 60, seed=1)
    for built in (invert_window(w),
                  window_from_json_dict(json.loads(json.dumps(window_to_json_dict(w))))):
        assert [tuple(row) for row in built.rows] == [
            level_row(built, k) for k in range(built.n_levels)]
    assert invert_window(invert_window(w)).rows == w.rows


def test_specs_slices_and_windows_compare_by_identity():
    """Their fields hold arrays, so == is identity and hash works; equal
    content shows in content_hash and in the arrays."""
    a, b = random_d2_iid_spec(1), random_d2_iid_spec(1)
    assert a == a and a != b and len({a, b, a}) == 2
    assert a.content_hash() == b.content_hash()
    assert a.slices[0] != b.slices[0] and len({*a.slices, *b.slices}) == 2 * len(a.slices)
    w1, w2 = sample_window(a, 0, 5, seed=0), sample_window(a, 0, 5, seed=0)
    assert w1 == w1 and w1 != w2 and len({w1, w2}) == 2
    assert all(np.array_equal(getattr(w1, m), getattr(w2, m)) for m in "qrp")
