import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripldp.env import embed_bounded_jump, homogeneous_d1_spec, sample_window
from stripldp.phi import solve_phi_window, truncated_kernels_range, truncated_phis
from stripldp.products import (
    NonPositiveFactorError,
    _roll_left,
    _roll_right,
    block_mu_vectors,
    block_nu_vectors,
    closed_form_radius,
    measured_c,
    mu_vectors,
    nu_vectors,
    raw_normalized_left,
    raw_normalized_right,
)

from conftest import (
    power_iteration_direction,
    random_d2_iid_spec,
    ref_positive_product_direction,
    ref_roll_2x2,
)


def solved_factors(spec, lam, lo=-40, hi=40, seed=5):
    w = sample_window(spec, lo, hi, seed=seed)
    return solve_phi_window(w, lam)


def test_d1_direction_trivial(p075_spec):
    sol = solved_factors(p075_spec, -0.2)
    dv = mu_vectors(sol)[-1]
    assert dv.v[0] == pytest.approx(1.0)
    for m in mu_vectors(sol):
        assert m.v[0] == pytest.approx(1.0)


def test_doubly_stochastic_one_step():
    G = np.full((3, 3), 1.0 / 3.0)
    dv = mu_vectors([G, G])[-1]
    assert np.abs(dv.v - 1.0 / 3.0).max() < 1e-15


def test_power_iteration_oracle():
    rng = np.random.default_rng(0)
    A = rng.uniform(0.2, 1.0, (2, 2))
    B = rng.uniform(0.2, 1.0, (2, 2))
    dv = mu_vectors([A, B] * 30)[-1]
    lead = power_iteration_direction(np.linalg.matrix_power(A @ B, 12))
    assert np.abs(dv.v - lead).max() < 1e-10
    # right side against the column direction of the same product
    dvr = nu_vectors([A, B] * 30)[0]
    P = np.linalg.matrix_power(A @ B, 12)
    col = P @ np.ones(2)
    col = col / col.sum()
    assert np.abs(dvr.v - col).max() < 1e-10


def test_rejects_nonpositive():
    G = np.array([[0.5, 0.0], [0.4, 0.6]])
    with pytest.raises(NonPositiveFactorError):
        nu_vectors([G, G])
    with pytest.raises(NonPositiveFactorError):
        mu_vectors([G, G])


def test_mu_homogeneous_shift_invariance():
    spec = random_d2_iid_spec(1)  # use one fixed slice repeated: periodic d=2
    from stripldp.env import EnvironmentSpec

    per = EnvironmentSpec(kind="periodic", d=2, kappa=spec.kappa,
                          slices=spec.slices[:1])
    sol = solved_factors(per, -0.3)
    mus = mu_vectors(sol, warmup=12)
    tail = [m for m in mus if not m.warmup]
    for m in tail[1:]:
        assert np.abs(m.v - tail[0].v).sum() <= 2 * max(m.error_radius,
                                                        tail[0].error_radius)


def test_mu_period2_alternation():
    from stripldp.env import EnvironmentSlice, EnvironmentSpec

    rng = np.random.default_rng(7)
    s = []
    for _ in range(2):
        q = rng.uniform(0.1, 0.2, (2, 2))
        p = rng.uniform(0.15, 0.25, (2, 2))
        r = np.zeros((2, 2))
        scale = (q.sum(1) + p.sum(1))[:, None]
        q, p = q / scale, p / scale
        s.append(EnvironmentSlice(q=q, r=r, p=p))
    spec = EnvironmentSpec(kind="periodic", d=2, kappa=0.05, slices=tuple(s))
    sol = solved_factors(spec, -0.1, lo=-70, hi=70)
    mus = mu_vectors(sol, warmup=40)
    # direct 60-factor product evaluation at two consecutive levels
    for offset in (60, 61):
        direct = raw_normalized_left(sol.phis[offset - 60:offset])
        dv = mus[offset]
        assert np.abs(dv.v - direct).sum() < max(dv.error_radius, 1e-12)
    # alternation: mu at even levels differs from odd levels
    assert np.abs(mus[60].v - mus[61].v).sum() > 1e-3


def test_nu_uniform_at_zero_right_transient(p075_spec):
    # Phi(0) stochastic => nu_k(0) = uniform; judged past the Phi warm-up
    # (left-boundary factors are not yet stochastic) and away from the right edge
    spec = random_d2_iid_spec(17, drift=0.6)
    w = sample_window(spec, -250, 40, seed=3)
    sol = solve_phi_window(w, 0.0)
    nus = nu_vectors(sol, warmup=12)
    mid = nus[max(sol.warmup_levels + 1, 150)]
    assert not mid.warmup
    assert np.abs(mid.v - 0.5).max() < 1e-9
    # d=1 right vectors are trivially [1.0]
    nus1 = nu_vectors(solve_phi_window(sample_window(p075_spec, -20, 20), 0.0))
    assert all(n.v[0] == pytest.approx(1.0) for n in nus1)


def test_nu_homogeneous_power_oracle():
    from stripldp.env import EnvironmentSpec

    spec = random_d2_iid_spec(2)
    per = EnvironmentSpec(kind="periodic", d=2, kappa=spec.kappa,
                          slices=spec.slices[:1])
    sol = solved_factors(per, -0.3, lo=-30, hi=30)
    nus = nu_vectors(sol, warmup=5)
    phi = sol.phis[40]  # a boundary-forgotten factor, equal to the fixed point
    direct = np.linalg.matrix_power(phi, 40) @ np.ones(2)
    direct = direct / direct.sum()
    dv = nus[10]
    assert np.abs(dv.v - direct).max() < max(dv.error_radius, 1e-10)


def test_certificate_honesty_and_decay():
    spec = random_d2_iid_spec(42)
    sol = solved_factors(spec, -0.3, lo=-40, hi=40, seed=5)
    target = 70  # approximate mu at this window index with varying history depth
    for m in (12, 20, 30):
        a = raw_normalized_left(sol.phis[target - m:target])
        b = raw_normalized_left(sol.phis[target - m - 10:target])
        gap = np.abs(a - b).sum()
        radius_m = mu_vectors(sol.phis[target - m:target])[-1].error_radius
        assert gap < radius_m
        c = measured_c(sol.phis[target - m:target])
        assert radius_m <= closed_form_radius(c, m) + 1e-12


def test_start_distribution_independence():
    spec = random_d2_iid_spec(6)
    sol = solved_factors(spec, -0.2, lo=-30, hi=30, seed=9)
    m = 25
    from_e0 = raw_normalized_left(sol.phis[:m], pi=np.array([1.0, 0.0]))
    from_e1 = raw_normalized_left(sol.phis[:m], pi=np.array([0.0, 1.0]))
    mus = mu_vectors(sol)
    assert np.abs(from_e0 - from_e1).sum() <= 2 * mus[m].error_radius


def test_rolling_matches_fresh_product():
    spec = random_d2_iid_spec(3)
    sol = solved_factors(spec, -0.15, seed=2)
    mus = mu_vectors(sol)
    for m in (5, 17, 40):
        fresh = raw_normalized_left(sol.phis[:m])
        assert np.abs(mus[m].v - fresh).max() < 1e-12


def test_truncated_mu_converges_to_full():
    # mu_{n,M} -> mu_n at a fixed level as the truncation depth grows
    spec = random_d2_iid_spec(11)
    w = sample_window(spec, -200, 40, seed=4)
    lam = -0.2
    full = mu_vectors(solve_phi_window(w, lam), warmup=20)
    target = full[220].v  # mu at level 20 with the full 220-factor history
    gaps = []
    for j in (1, 2, 3, 4, 5):
        M = 2 ** j
        mats = truncated_phis(truncated_kernels_range(w, M, -30, 20), lam)
        mus_m = mu_vectors(mats, warmup=10)
        gaps.append(np.abs(mus_m[50].v - target).sum())
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


# ---- Appendix-style block reduction ------------------------------------


@pytest.fixture(scope="module")
def block_solution():
    kernel = [0.35, 0.35, 0.0, 0.30]  # (L, R) = (2, 1)
    spec = embed_bounded_jump(kernel, 2, 1)
    w = sample_window(spec, -40, 40)
    return solve_phi_window(w, -0.2)


def test_block_zero_pattern_exact(block_solution):
    assert (block_solution.phis[:, :, 1] == 0.0).all()
    mus = block_mu_vectors(block_solution, R=1)
    assert all(m.v[1] == 0.0 for m in mus)
    # a nonzero entry in a column beyond R is refused
    spoiled = block_solution.phis.copy()
    spoiled[5, 0, 1] = 1e-300
    with pytest.raises(ValueError, match="columns beyond R must be exactly zero"):
        block_mu_vectors(spoiled, R=1)


def test_block_mu_matches_full_product(block_solution):
    mus = block_mu_vectors(block_solution, R=1, warmup=10)
    for m in (30, 50):
        direct = raw_normalized_left(block_solution.phis[:m])
        assert np.abs(mus[m].v - direct).sum() < 1e-8


@pytest.fixture(scope="module")
def block_32_solution():
    kernel = [0.18, 0.18, 0.18, 0.0, 0.23, 0.23]  # (L, R) = (3, 2)
    w = sample_window(embed_bounded_jump(kernel, 3, 2), -30, 30)
    return solve_phi_window(w, -0.15)


def test_block_nu_matches_full_product(block_solution, block_32_solution):
    for sol, R in ((block_solution, 1), (block_32_solution, 2)):
        nus = block_nu_vectors(sol, R=R, warmup=10)
        for k in range(len(sol) - 30):  # every level with 30 factors or more ahead
            direct = raw_normalized_right(sol.phis[k:])
            dv = nus[k]
            assert np.abs(dv.v - direct).max() < 1e-8
            assert np.abs(dv.v - direct).max() < max(dv.error_radius, 1e-12)


def test_positive_rejects_block_pattern(block_solution):
    with pytest.raises(NonPositiveFactorError):
        mu_vectors(block_solution)


def test_block_32_embedding():
    # (L, R) = (3, 2): width-3 strip, two positive columns, one zero column
    kernel = [0.18, 0.18, 0.18, 0.0, 0.23, 0.23]
    spec = embed_bounded_jump(kernel, 3, 2)
    assert spec.d == 3
    s = spec.slices[0]
    assert s.p[0].sum() == 0.0 and s.p[:, 2].sum() == 0.0
    w = sample_window(spec, -30, 30)
    sol = solve_phi_window(w, -0.15)
    assert (sol.phis[:, :, 2] == 0.0).all()
    mus = block_mu_vectors(sol, R=2, warmup=8)
    nus = block_nu_vectors(sol, R=2, warmup=8)
    for m in (25, 40):
        direct = raw_normalized_left(sol.phis[:m])
        assert np.abs(mus[m].v - direct).sum() < 1e-8
    for k in (5, 20):
        direct = raw_normalized_right(sol.phis[k:])
        assert np.abs(nus[k].v - direct).max() < 1e-8


# ---- the two direction rolls ----------------------------------------------


def numpy_roll(factors, start, side):
    """Either roll with numpy's vector-matrix product, its sum and a
    division a level (the d > 2 form of the rolls, at every d)."""
    n, d, _ = factors.shape
    v = np.full(d, 1.0 / d) if start is None else start
    V, s = [v], []
    for k in (range(n) if side == "left" else range(n - 1, -1, -1)):
        w = v @ factors[k] if side == "left" else factors[k] @ v
        s.append(w.sum())
        v = w / s[-1]
        V.append(v)
    if side == "right":
        V.reverse()
        s.reverse()
    return np.array(V), np.array(s)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 60), spread=st.floats(1.0, 1e4),
       with_start=st.booleans())
def test_d2_rolls_are_the_plain_float_roll(seed, n, spread, with_start):
    """At d = 2 both rolls, from the uniform start or a given one, are the
    plain float recurrence of ref_roll_2x2 bit for bit, and lie within
    1e-15 relative of numpy's vector-matrix roll at every level."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(1.0, spread, (n, 2, 2)) / spread
    start = rng.dirichlet(np.ones(2)) if with_start else None
    for side, roll in (("left", _roll_left), ("right", _roll_right)):
        V, s = roll(f, start)
        want_V, want_s = ref_roll_2x2(f, start, side)
        assert bitwise_equal(V, want_V) and bitwise_equal(s, want_s), side
        np_V, np_s = numpy_roll(f, start, side)
        assert (np.abs(V - np_V) <= 1e-15 * np.abs(np_V)).all(), side
        assert (np.abs(s - np_s) <= 1e-15 * np_s).all(), side


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_roll(got, want, d):
    """Bitwise at d != 2; at d = 2, where the rolls sum on Python floats
    and numpy's products may round otherwise, within 1e-15 relative."""
    if d != 2:
        return bitwise_equal(got, want)
    return np.abs(np.asarray(got) - want).max() <= 1e-15 * np.abs(want).max()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 3), n=st.integers(2, 40),
       spread=st.floats(1.0, 1e3))
def test_rolls_match_raw_products(seed, d, n, spread):
    """Both rolls against numpy's normalized products, prefix by prefix: to
    the bit, except at d = 2, where they agree within 1e-15 and equal the
    plain float roll of ref_roll_2x2 to the bit."""
    f = np.random.default_rng(seed).uniform(1.0, spread, (n, d, d)) / spread
    Z, s = _roll_left(f)
    R, t = _roll_right(f)
    assert bitwise_equal(Z[0], np.full(d, 1.0 / d)) and bitwise_equal(R[n], Z[0])
    for m in range(1, n + 1):  # every prefix, and every suffix
        assert same_roll(Z[m], raw_normalized_left(f[:m]), d)
        assert same_roll(R[n - m], raw_normalized_right(f[n - m:]), d)
    assert same_roll(s, [(Z[k] @ f[k]).sum() for k in range(n)], d)
    assert same_roll(t, [(f[k] @ R[k + 1]).sum() for k in range(n)], d)
    if d == 2:
        want = (*ref_roll_2x2(f), *ref_roll_2x2(f, side="right"))
        assert all(map(bitwise_equal, (Z, s, R, t), want))
    pi = np.random.default_rng(seed + 1).dirichlet(np.ones(d))
    assert same_roll(_roll_left(f, pi)[0][-1], raw_normalized_left(f, pi=pi), d)

    mus, nus = mu_vectors(f), nu_vectors(f)
    for m in range(2, n + 1):  # radii against the running rho product
        v, radius = ref_positive_product_direction(f[:m], "left")
        assert bitwise_equal(mus[m].v, v) and mus[m].error_radius == radius
        v, radius = ref_positive_product_direction(f[n - m:], "right")
        assert bitwise_equal(nus[n - m].v, v) and nus[n - m].error_radius == radius

