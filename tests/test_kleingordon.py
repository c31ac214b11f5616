import numpy as np
import pytest

from pseudoherm import (
    GridMismatch,
    InvalidGrid,
    KGState,
    OperatorClass,
    TimeMismatch,
    classify,
    d_power,
    eig_full,
    evolve,
    fv_components,
    fv_hamiltonian,
    fv_modes,
    indefinite_physical_set,
    kg_inner,
    make_grid,
    norm_signs,
    pd_inner,
    position_fields,
    random_state,
    sector_decompose,
    sigma3_metric,
    verify_intertwining,
)

from oracles import (
    direct_fields,
    fv_mode_eigenvectors,
    fv_sign_table,
    mode_sum_kg,
    mode_sum_pd,
    quadrature_kg_inner,
    quadrature_pd_inner,
    spectra_mismatch,
)


def single_mode(grid, index, positive=True, amp=1.0):
    a = np.zeros(grid.N, dtype=complex)
    b = np.zeros(grid.N, dtype=complex)
    (a if positive else b)[index] = amp
    return KGState(grid=grid, a=a, b=b, t=0.0)


# ---------------------------------------------------------------------------
# grid

def test_make_grid_small_example():
    grid = make_grid(4, 2 * np.pi, 1.0)
    assert np.allclose(grid.k, [0.0, 1.0, -2.0, -1.0])
    assert np.allclose(grid.omega, [1.0, np.sqrt(2), np.sqrt(5), np.sqrt(2)])


def test_make_grid_dispersion_formula():
    grid = make_grid(64, 20 * np.pi, 1.0)
    assert np.allclose(grid.omega, np.sqrt(grid.k**2 + 1.0))
    assert np.all(grid.omega >= grid.m)
    # momenta closed under negation except the even-N Nyquist mode
    unpaired = [k for k in grid.k if -k not in grid.k]
    assert unpaired == [grid.k[grid.N // 2]]


def test_make_grid_rejects_bad_parameters():
    for bad in [(1, 1.0, 1.0), (4, 0.0, 1.0), (4, 1.0, 0.0), (4, -2.0, 1.0), (4, 1.0, -1.0)]:
        with pytest.raises(InvalidGrid):
            make_grid(*bad)


# ---------------------------------------------------------------------------
# functional calculus

def test_d_power_pure_mode():
    grid = make_grid(8, 2 * np.pi, 1.0)
    field = np.zeros(8, dtype=complex)
    field[3] = 1.0
    out = d_power(grid, 1.0, field)
    assert out[3] == pytest.approx(grid.k[3] ** 2 + 1.0)
    assert np.count_nonzero(out) == 1


def test_d_power_inverse_powers_cancel():
    grid = make_grid(16, 5.0, 0.7)
    rng = np.random.default_rng(1)
    field = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    back = d_power(grid, -0.5, d_power(grid, 0.5, field))
    assert np.max(np.abs(back - field)) < 1e-14


def test_d_power_constant_field_sees_mass():
    grid = make_grid(8, 2 * np.pi, 1.3)
    field = np.zeros(8, dtype=complex)
    field[0] = 2.0   # k = 0 mode
    out = d_power(grid, 0.5, field)
    assert out[0] == pytest.approx(1.3 * 2.0)


# ---------------------------------------------------------------------------
# two-component Hamiltonian

def test_fv_hamiltonian_sigma3_intertwining():
    for N, L, m in [(4, 2 * np.pi, 1.0), (16, 10.0, 0.5), (64, 20 * np.pi, 1.0)]:
        grid = make_grid(N, L, m)
        H = fv_hamiltonian(grid)
        assert verify_intertwining(H, sigma3_metric(grid)) <= 1e-12


def test_fv_hamiltonian_spectrum_is_dispersion():
    grid = make_grid(8, 7.0, 0.8)
    H = fv_hamiltonian(grid)
    expected = np.concatenate([grid.omega, -grid.omega])
    assert spectra_mismatch(np.linalg.eigvals(H), expected) < 1e-10


def test_fv_hamiltonian_is_quasi_hermitian():
    grid = make_grid(8, 2 * np.pi, 1.0)
    assert classify(fv_hamiltonian(grid)).kind is OperatorClass.QUASI_HERMITIAN


def scatter(blocks):
    """Dense 2N x 2N matrix with block k on rows and columns (k, N + k)."""
    N = len(blocks)
    dense = np.zeros((2, N, 2, N), dtype=complex)
    dense[:, np.arange(N), :, np.arange(N)] = blocks
    return dense.reshape(2 * N, 2 * N)


@pytest.mark.parametrize("N, L, m", [(8, 7.0, 0.8), (16, 20 * np.pi, 1.0), (64, 10.0, 0.5)])
def test_fv_modes_match_dense_oracle(N, L, m):
    grid = make_grid(N, L, m)
    H = fv_hamiltonian(grid)
    modes = fv_modes(grid)
    assert np.array_equal(scatter(modes.blocks), H)
    # eigenvalues: +/- omega_k exactly, and the dense eigensolver's spectrum
    assert np.array_equal(modes.eigenvalues, np.stack([grid.omega, -grid.omega], axis=-1))
    S = eig_full(H)
    assert spectra_mismatch(modes.eigenvalues.ravel(), S.eigenvalues) <= 1e-12 * np.abs(H).max()
    # eigenvectors: parallel to the oracle's, and biorthonormal to the left system
    for k in range(N):
        for j, ref in enumerate(fv_mode_eigenvectors(grid.omega[k], grid.m)):
            psi = modes.right[k, :, j]
            cross = psi[0] * ref[1] - psi[1] * ref[0]
            assert abs(cross) <= 1e-14 * np.linalg.norm(psi) * np.linalg.norm(ref)
    gram = modes.left.conj().swapaxes(-1, -2) @ modes.right
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-13
    # eta_+ blocks: a positive-definite metric of the dense H
    eta = scatter(modes.eta_plus)
    assert np.linalg.eigvalsh(eta).min() > 0
    assert verify_intertwining(H, eta) <= 1e-12
    # sigma3-norm signs: + on +omega_k, - on -omega_k, as on the dense spectrum
    signs = norm_signs(modes.right, np.diag([1.0, -1.0]) @ modes.right, 1.0)
    assert signs.tolist() == [[1, -1]] * N
    dense = indefinite_physical_set(S, sigma3_metric(grid))
    assert [s for _, s in dense] == np.sign(S.eigenvalues.real).astype(int).tolist()
    assert set(fv_sign_table(grid).values()) == {(1.0, -1.0)}


def test_fv_components_follow_matrix_dynamics():
    # per-mode exact phases against the diagonalized 2N x 2N propagator
    grid = make_grid(8, 6.0, 1.1)
    H = fv_hamiltonian(grid)
    S = eig_full(H)
    state = random_state(grid, seed=4)
    dt = 0.37
    U = (S.right * np.exp(-1j * S.eigenvalues * dt)) @ S.left.conj().T
    lhs = fv_components(evolve(state, dt))
    rhs = U @ fv_components(state)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# inner products

def test_pd_inner_single_mode_value():
    grid = make_grid(8, 2 * np.pi, 1.0)
    for idx in (0, 2, 5):
        state = single_mode(grid, idx)
        want = grid.omega[idx] / grid.m
        assert pd_inner(state, state, grid.m) == pytest.approx(want, rel=1e-12)
        assert quadrature_pd_inner(state, state, grid.m) == pytest.approx(want, rel=1e-12)


def test_pd_inner_matches_quadrature_oracle_and_mode_sum():
    grid = make_grid(32, 11.0, 0.9)
    rng = np.random.default_rng(8)
    for _ in range(5):
        s1 = random_state(grid, rng=rng)
        s2 = random_state(grid, rng=rng)
        got = pd_inner(s1, s2, 1.3)
        assert got == pytest.approx(quadrature_pd_inner(s1, s2, 1.3), rel=1e-10)
        assert got == pytest.approx(mode_sum_pd(s1, s2, 1.3), rel=1e-10)


def test_pd_inner_positive_definite():
    grid = make_grid(16, 9.0, 1.0)
    rng = np.random.default_rng(3)
    lowest = np.inf
    for _ in range(100):
        s = random_state(grid, rng=rng)
        val = pd_inner(s, s)
        assert abs(val.imag) < 1e-12 * abs(val.real)
        lowest = min(lowest, val.real / float(np.sum(np.abs(s.a) ** 2 + np.abs(s.b) ** 2)))
    assert lowest > 0


def test_pd_inner_conserved_under_evolution():
    grid = make_grid(16, 9.0, 1.0)
    s = random_state(grid, seed=10)
    base = pd_inner(s, s)
    moved = evolve(s, 5.0 / grid.m)
    assert abs(pd_inner(moved, moved) - base) <= 1e-10 * abs(base)


def test_pd_inner_mu_scaling_and_validation():
    grid = make_grid(8, 2 * np.pi, 1.0)
    s = random_state(grid, seed=0)
    assert pd_inner(s, s, 2.0) == pytest.approx(pd_inner(s, s, 1.0) / 2.0)
    with pytest.raises(ValueError):
        pd_inner(s, s, 0.0)


def test_inner_products_reject_mismatched_frames():
    g1 = make_grid(8, 2 * np.pi, 1.0)
    g2 = make_grid(8, 2 * np.pi, 2.0)
    for size in ((), 3):   # one state and a stack
        s = random_state(g1, seed=1, size=size)
        for inner in (pd_inner, kg_inner):
            with pytest.raises(GridMismatch):
                inner(s, random_state(g2, seed=0, size=size))
            with pytest.raises(TimeMismatch):
                inner(s, evolve(s, 1.0))


def test_kg_inner_sector_signs():
    grid = make_grid(8, 2 * np.pi, 1.0)
    for idx in (0, 3, 6):
        plus = single_mode(grid, idx, positive=True)
        minus = single_mode(grid, idx, positive=False)
        assert kg_inner(plus, plus) == pytest.approx(2 * grid.omega[idx], rel=1e-12)
        assert kg_inner(minus, minus) == pytest.approx(-2 * grid.omega[idx], rel=1e-12)
        assert quadrature_kg_inner(plus, plus) == pytest.approx(2 * grid.omega[idx], rel=1e-12)


def test_kg_inner_null_vector():
    grid = make_grid(8, 2 * np.pi, 1.0)
    a = np.zeros(8, dtype=complex)
    a[2] = 1.0
    state = KGState(grid=grid, a=a, b=a.copy(), t=0.0)
    assert abs(kg_inner(state, state)) < 1e-12   # nonzero state, zero self-norm


def test_kg_inner_matches_oracles():
    grid = make_grid(32, 11.0, 0.9)
    rng = np.random.default_rng(18)
    for _ in range(5):
        s1 = random_state(grid, rng=rng)
        s2 = random_state(grid, rng=rng)
        got = kg_inner(s1, s2)
        assert got == pytest.approx(quadrature_kg_inner(s1, s2), rel=1e-10)
        assert got == pytest.approx(mode_sum_kg(s1, s2), rel=1e-10)


def test_kg_inner_conserved_under_evolution():
    grid = make_grid(16, 9.0, 1.0)
    s = random_state(grid, seed=11)
    base = kg_inner(s, s)
    scale = 2 * float(np.sum(grid.omega * (np.abs(s.a) ** 2 + np.abs(s.b) ** 2)))
    for t in np.linspace(0.5, 10.0, 7):
        moved = evolve(s, float(t))
        assert abs(kg_inner(moved, moved) - base) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# stacks of states

def _members(stack):
    """The single states of a stack, in row-major order of its leading shape."""
    return [KGState(grid=stack.grid, a=stack.a[i], b=stack.b[i], t=stack.t)
            for i in np.ndindex(stack.a.shape[:-1])]


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("dt", [0.0, 3.7])
def test_stacked_inner_products_match_single_state_calls(N, shape, dt):
    grid = make_grid(N, 13.0, 0.8)
    rng = np.random.default_rng(N + len(shape))
    s1 = evolve(random_state(grid, rng=rng, size=shape), dt)
    s2 = evolve(random_state(grid, rng=rng, size=shape), dt)
    for inner, args in ((pd_inner, (1.7,)), (kg_inner, ())):
        for left, right in ((s1, s1), (s1, s2)):
            got = inner(left, right, *args)
            assert isinstance(got, np.ndarray) and got.shape == shape
            want = [inner(x, y, *args) for x, y in zip(_members(left), _members(right))]
            assert all(isinstance(w, complex) for w in want)
            want = np.reshape(want, shape)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        # one state against a stack broadcasts over the stack
        first = _members(s1)[0]
        got = inner(first, s2, *args)
        want = np.reshape([inner(first, y, *args) for y in _members(s2)], shape)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def fft_pd_inner(psi1, psi2, mu):
    """pd_inner as written before the fields were cached: every field through
    position_fields, and D^{+/-1/2} applied after an FFT back to mode space."""
    grid = psi1.grid
    f1, g1 = position_fields(psi1)
    f2, g2 = position_fields(psi2)
    half = np.fft.ifft(d_power(grid, 0.5, np.fft.fft(f2)))
    minus_half = np.fft.ifft(d_power(grid, -0.5, np.fft.fft(g2)))
    total = np.sum(np.conj(f1) * half, axis=-1) + np.sum(np.conj(g1) * minus_half, axis=-1)
    return total * grid.dx / (2 * mu)


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
@pytest.mark.parametrize("dt", [0.0, 3.7])
def test_pd_inner_matches_fft_round_trip_oracle(N, shape, dt):
    grid = make_grid(N, 13.0, 0.8)
    rng = np.random.default_rng(3 * N + len(shape))
    s1 = evolve(random_state(grid, rng=rng, size=shape), dt)
    s2 = evolve(random_state(grid, rng=rng, size=shape), dt)
    for left, right in ((s1, s1), (s1, s2), (s2, s1)):
        got = np.asarray(pd_inner(left, right, 1.7))
        want = fft_pd_inner(left, right, 1.7)
        assert got.shape == want.shape == shape
        assert got == pytest.approx(want, rel=1e-13, abs=0)


def sum_kg_inner(psi1, psi2):
    """kg_inner as written before the fused reductions: explicit conjugate
    products of the position fields, summed over the last axis.  Also returns
    the sums' forward-error scale dx * sum(|f1||g2| + |g1||f2|)."""
    f1, g1 = position_fields(psi1)
    f2, g2 = position_fields(psi2)
    total = np.sum(np.conj(f1) * g2, axis=-1) - np.sum(np.conj(g1) * f2, axis=-1)
    scale = np.sum(np.abs(f1 * g2) + np.abs(g1 * f2), axis=-1)
    return 1j * psi1.grid.dx * total, psi1.grid.dx * scale


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
@pytest.mark.parametrize("dt", [0.0, 3.7])
def test_kg_inner_matches_field_sum_oracle(N, shape, dt):
    grid = make_grid(N, 13.0, 0.8)
    rng = np.random.default_rng(5 * N + len(shape))
    s1 = evolve(random_state(grid, rng=rng, size=shape), dt)
    s2 = evolve(random_state(grid, rng=rng, size=shape), dt)
    for left, right in ((s1, s1), (s1, s2), (s2, s1)):
        got = np.asarray(kg_inner(left, right))
        want, scale = sum_kg_inner(left, right)
        assert got.shape == want.shape == shape
        # relative to the terms, not the value: kg_inner has null vectors, and
        # a self-product can cancel to a small fraction of its terms
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_random_state_stack_equals_successive_draws():
    grid = make_grid(16, 9.0, 1.0)
    for size in (4, (2, 3)):
        stack = random_state(grid, rng=np.random.default_rng(21), size=size)
        rng = np.random.default_rng(21)
        singles = [random_state(grid, rng=rng) for _ in range(int(np.prod(size)))]
        assert stack.a.shape == np.empty(size).shape + (grid.N,)
        for member, single in zip(_members(stack), singles):
            assert np.array_equal(member.a, single.a)
            assert np.array_equal(member.b, single.b)
    one = random_state(grid, seed=5)
    assert one.a.shape == (grid.N,)
    assert np.array_equal(random_state(grid, seed=5, size=1).a[0], one.a)


def test_states_and_grids_compare_by_identity():
    grid = make_grid(8, 5.0, 1.0)
    s1, s2 = random_state(grid, seed=1), random_state(grid, seed=2)
    assert (s1 == s2) is False
    assert s1 == s1
    assert hash(s1) == hash(s1)
    assert len({s1, s2, s1}) == 2
    twin = make_grid(8, 5.0, 1.0)
    assert grid == grid and (grid != twin) and grid.compatible(twin)
    assert len({grid, twin}) == 2


def test_kg_state_rejects_mismatched_shapes():
    grid = make_grid(8, 2 * np.pi, 1.0)
    z = np.zeros((3, 8), dtype=complex)
    for a, b in ((z, z[:2]), (z, z[0]), (z[:, :4], z[:, :4]), (z[0, 0], z[0, 0])):
        with pytest.raises(ValueError):
            KGState(grid=grid, a=a, b=b)


# ---------------------------------------------------------------------------
# evolution

def test_evolve_zero_is_identity():
    grid = make_grid(8, 2 * np.pi, 1.0)
    s = random_state(grid, seed=2)
    same = evolve(s, 0.0)
    assert same.t == s.t
    assert np.array_equal(same.a, s.a) and np.array_equal(same.b, s.b)


def test_evolve_group_property():
    grid = make_grid(8, 2 * np.pi, 1.0)
    s = random_state(grid, seed=2)
    once = evolve(evolve(s, 0.25), 0.5)
    direct = evolve(s, 0.75)
    assert once.t == direct.t
    assert np.array_equal(once.a, direct.a)


def test_single_mode_acquires_phase():
    grid = make_grid(8, 2 * np.pi, 1.0)
    idx, dt = 3, 0.9
    s = single_mode(grid, idx)
    f0, _ = position_fields(s)
    f1, _ = position_fields(evolve(s, dt))
    assert np.max(np.abs(f1 - f0 * np.exp(-1j * grid.omega[idx] * dt))) < 1e-14


def test_reconstruction_solves_field_equation():
    # exact second time derivative of the reconstruction equals -D psi
    grid = make_grid(16, 7.0, 1.2)
    s = random_state(grid, seed=9)
    state_t = evolve(s, 0.6)
    psi, _ = direct_fields(state_t)
    w = grid.omega
    ddA = -(w**2) * (s.a * np.exp(-1j * w * state_t.t) + s.b * np.exp(1j * w * state_t.t))
    phases = np.exp(1j * np.outer(grid.x, grid.k)) / np.sqrt(grid.L)
    ddpsi = phases @ ddA
    Dpsi = phases @ d_power(grid, 1.0, np.fft.fft(psi) * np.sqrt(grid.L) / grid.N)
    assert np.max(np.abs(ddpsi + Dpsi)) < 1e-10


# ---------------------------------------------------------------------------
# sector decomposition

def test_sector_decompose_pure_state():
    grid = make_grid(8, 2 * np.pi, 1.0)
    s = single_mode(grid, 2, positive=True)
    pos, neg = sector_decompose(s)
    assert np.array_equal(pos.a, s.a)
    assert not np.any(neg.a) and not np.any(neg.b)


def test_sector_decompose_additivity():
    grid = make_grid(16, 9.0, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = random_state(grid, rng=rng)
        pos, neg = sector_decompose(s)
        assert np.array_equal(pos.a + neg.a, s.a)
        assert np.array_equal(pos.b + neg.b, s.b)
        total = pd_inner(s, s)
        parts = pd_inner(pos, pos) + pd_inner(neg, neg)
        assert abs(total - parts) <= 1e-12 * abs(total)
        assert kg_inner(pos, pos).real >= 0
        assert kg_inner(neg, neg).real < 0   # b is generically nonzero


# ---------------------------------------------------------------------------
# cached fields

def test_cached_fields_are_read_only():
    grid = make_grid(8, 2 * np.pi, 1.0)
    for size in ((), 3):
        s = random_state(grid, seed=7, size=size)
        base = pd_inner(s, s), kg_inner(s, s)
        f, g = position_fields(s)
        assert position_fields(s)[0] is f   # computed once per state
        for field in (f, g):
            with pytest.raises(ValueError):
                field[...] = 1.0
        assert np.array_equal(pd_inner(s, s), base[0])
        assert np.array_equal(kg_inner(s, s), base[1])


def test_derived_states_recompute_their_fields():
    grid = make_grid(16, 7.0, 1.2)
    s = random_state(grid, seed=12)
    f0, g0 = position_fields(s)   # fill the cache of s first
    phi0 = fv_components(s)
    moved = evolve(s, 0.9)
    pos, neg = sector_decompose(s)
    for derived in (moved, pos, neg):
        f, g = position_fields(derived)
        assert f is not f0 and g is not g0
        want_f, want_g = direct_fields(derived)
        assert np.max(np.abs(f - want_f)) < 1e-12
        assert np.max(np.abs(g - want_g)) < 1e-12
        assert np.max(np.abs(f - f0)) > 1e-3   # not the parent's values
    assert np.max(np.abs(fv_components(moved) - phi0)) > 1e-3
    # the two sectors add up to the parent's fields
    assert np.max(np.abs(position_fields(pos)[0] + position_fields(neg)[0] - f0)) < 1e-12
