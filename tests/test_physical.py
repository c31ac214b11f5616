import numpy as np
import pytest

from pseudoherm import (
    EmptyPhysicalSpace,
    EnsembleSpec,
    NonDiagonalizableError,
    build_general_metric,
    build_positive_metric,
    classify,
    eig_full,
    eta_inner,
    generate,
    herm_residual,
    hermitize,
    indefinite_physical_set,
    jordan_block,
    pair_spectrum,
    pt2x2,
    restrict_to_physical,
    spectral_norm,
    transform_metric,
    verify_intertwining,
)
from pseudoherm.kleingordon import fv_hamiltonian, make_grid, sigma3_metric

from oracles import block_diag, fv_sign_table, spectra_mismatch

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def _projector(columns):
    Q, _ = np.linalg.qr(columns)
    return Q @ Q.conj().T


def test_restrict_basis_full_for_real_spectrum():
    H, _, _ = generate(EnsembleSpec(4, 1, "quasi"))
    B = restrict_to_physical(H).basis
    assert B.shape == (4, 4)
    assert np.linalg.cond(B, 2) < 1e6  # square and invertible


def test_real_span_empty_raises():
    # the real span is picked from a given classification's spectrum and pairing
    H = np.diag([1j, -1j])
    cls = classify(H)
    assert cls.pairing is not None and not np.any(cls.pairing == np.arange(2))
    with pytest.raises(EmptyPhysicalSpace):
        restrict_to_physical(H, cls)


def test_restrict_basis_block_embedding():
    H = block_diag(SIGMA1, np.diag([1j, -1j]))
    B = restrict_to_physical(H).basis
    assert B.shape == (4, 2)
    # spanned by sigma1's eigenvectors embedded in the first two coordinates
    expect = np.zeros((4, 2), dtype=complex)
    expect[:2, 0] = [1, 1]
    expect[:2, 1] = [1, -1]
    assert spectral_norm(_projector(B) - _projector(expect)) < 1e-12


def test_restrict_full_space_for_quasi_hermitian():
    H, lam, _ = generate(EnsembleSpec(5, 8, "quasi"))
    sub = restrict_to_physical(H)
    assert sub.dim == 5
    assert spectra_mismatch(np.linalg.eigvals(sub.restricted_op), lam) < 1e-9


def test_restrict_discards_complex_pair_block():
    H = block_diag(pt2x2(1, np.pi / 6, 1), pt2x2(1, np.pi / 2, 0.5))
    sub = restrict_to_physical(H)
    assert sub.dim == 2
    assert spectra_mismatch(np.linalg.eigvals(sub.restricted_op), [0.0, np.sqrt(3)]) < 1e-9


@pytest.mark.parametrize("H", [
    generate(EnsembleSpec(5, 8, "quasi"))[0],
    generate(EnsembleSpec(40, 3, "quasi"))[0],
    block_diag(pt2x2(1, np.pi / 6, 1), pt2x2(1, np.pi / 2, 0.5)),
], ids=["quasi5", "quasi40", "pt_blocks"])
def test_restriction_is_the_parent_metric_on_k(H):
    cls = classify(H)
    sub = restrict_to_physical(H, cls)
    B = sub.basis
    # eta_plus is the canonical metric Phi M Phi^dag of H seen through B: I_k
    parent = build_general_metric(cls.spectrum, cls.pairing).matrix
    assert np.array_equal(sub.eta_plus.matrix, np.eye(sub.dim))
    assert spectral_norm(B.conj().T @ parent @ B - sub.eta_plus.matrix) <= 1e-10
    lam = cls.spectrum.eigenvalues[cls.pairing == np.arange(len(cls.pairing))]
    drift = spectral_norm(sub.restricted_op - np.diag(lam))
    assert drift / spectral_norm(H) <= 1e-10


def test_restrict_invariants():
    H = block_diag(pt2x2(1, np.pi / 6, 1), pt2x2(1, np.pi / 2, 0.5))
    sub = restrict_to_physical(H)
    # K is invariant: H B = B R
    drift = spectral_norm(H @ sub.basis - sub.basis @ sub.restricted_op)
    assert drift / spectral_norm(H) <= 1e-8
    # the restriction is quasi-Hermitian for its positive metric
    assert sub.eta_plus.positive_definite
    assert verify_intertwining(sub.restricted_op, sub.eta_plus) <= 1e-8
    lam = np.linalg.eigvals(sub.restricted_op)
    assert np.all(np.abs(lam.imag) <= 1e-9 * (1 + np.abs(lam)))


def test_restrict_empty_raises():
    with pytest.raises(EmptyPhysicalSpace):
        restrict_to_physical(np.diag([1j, -1j]))


def test_restrict_defective_raises():
    with pytest.raises(NonDiagonalizableError):
        restrict_to_physical(jordan_block(3, 0.5))


def test_restriction_always_hermitizable():
    # for any diagonalizable input with nonempty K the restricted pair
    # (R, eta_plus) admits the similarity map to a Hermitian matrix
    cases = [
        generate(EnsembleSpec(4, 31, "quasi"))[0],
        block_diag(pt2x2(1, np.pi / 6, 1), pt2x2(1, np.pi / 2, 0.5)),
        block_diag(np.diag([1.0, 2.0]).astype(complex), np.diag([2j, -2j])),
    ]
    for H in cases:
        sub = restrict_to_physical(H)
        rho, h, _ = hermitize(sub.restricted_op, sub.eta_plus)
        assert herm_residual(h) <= 1e-8


def test_hermitized_spectrum_independent_of_metric_choice():
    H, _, _ = generate(EnsembleSpec(5, 77, "quasi"))
    eta = build_positive_metric(eig_full(H))
    moved = transform_metric(eta, H @ H + np.eye(5), H)
    _, h1, _ = hermitize(H, eta)
    _, h2, _ = hermitize(H, moved)
    lam1 = np.sort(np.linalg.eigvalsh(0.5 * (h1 + h1.conj().T)))
    lam2 = np.sort(np.linalg.eigvalsh(0.5 * (h2 + h2.conj().T)))
    assert np.max(np.abs(lam1 - lam2) / (1 + np.abs(lam1))) <= 1e-8


def _sign_loop(S, E, zero_tol=1e-10):
    """One eta_inner per eigenvector: the reference for indefinite_physical_set."""
    scale = spectral_norm(E)
    out = []
    for n in range(S.dim):
        psi = S.right[:, n]
        norm = eta_inner(E, psi, psi).real
        if abs(norm) <= zero_tol * float(np.vdot(psi, psi).real) * scale:
            out.append((n, 0))
        else:
            out.append((n, 1 if norm > 0 else -1))
    return out


def _random_indefinite_diagonal(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return np.diag(rng.permutation(d)).astype(complex)


@pytest.mark.parametrize("S, E, occurring", [
    (eig_full(fv_hamiltonian(make_grid(8, 2 * np.pi, 1.0))),
     sigma3_metric(make_grid(8, 2 * np.pi, 1.0)), {1, -1}),
    (eig_full(generate(EnsembleSpec(6, 0, "quasi"))[0]), _random_indefinite_diagonal(6, seed=0), {1, -1}),
    (eig_full(np.diag([1.0, 2.0]).astype(complex)), SIGMA1, {0}),
    # norms of +/-1e-13, inside the zero band
    (eig_full(np.diag([1.0, 2.0]).astype(complex)), SIGMA1 + 1e-13 * SIGMA3, {0}),
    # norms of +/-1e-9: inside the band only through the factor ||eta|| = 100
    (eig_full(np.diag([1.0, 2.0]).astype(complex)), 100 * SIGMA1 + 1e-9 * SIGMA3, {0}),
    # norms of +/-1e-11, outside the band, which scales with ||eta|| = 1e-11
    (eig_full(np.diag([1.0, 2.0]).astype(complex)), 1e-11 * SIGMA3, {1, -1}),
], ids=["kg8_sigma3", "quasi6_diagonal", "zero_norm_sigma1", "near_zero_sigma1",
        "scaled_sigma1", "small_sigma3"])
def test_indefinite_set_matches_per_vector_loop(S, E, occurring):
    signs = indefinite_physical_set(S, E)
    assert signs == _sign_loop(S, E)
    assert all(type(n) is int and type(s) is int for n, s in signs)
    assert {s for _, s in signs} == occurring


def test_indefinite_set_identity_metric_all_positive():
    H, _, _ = generate(EnsembleSpec(4, 5, "quasi"))
    S = eig_full(H)
    signs = indefinite_physical_set(S, np.eye(4, dtype=complex))
    assert [s for _, s in signs] == [1, 1, 1, 1]


def test_indefinite_set_diagonal_case():
    S = eig_full(np.diag([1.0, 2.0]).astype(complex))
    signs = dict(indefinite_physical_set(S, SIGMA3))
    by_eig = {round(S.eigenvalues[n].real): s for n, s in signs.items()}
    assert by_eig == {1: 1, 2: -1}


def test_indefinite_set_kg_signs_follow_energy():
    grid = make_grid(8, 2 * np.pi, 1.0)
    H = fv_hamiltonian(grid)
    S = eig_full(H)
    signs = indefinite_physical_set(S, sigma3_metric(grid))
    table = fv_sign_table(grid)
    assert all(t == (1, -1) for t in table.values())  # closed-form expectation
    for n, s in signs:
        energy = S.eigenvalues[n].real
        assert s == (1 if energy > 0 else -1)


def test_positive_norm_span_is_positive_energy_space():
    grid = make_grid(8, 2 * np.pi, 1.0)
    H = fv_hamiltonian(grid)
    S = eig_full(H)
    signs = indefinite_physical_set(S, sigma3_metric(grid))
    span = S.right[:, [n for n, s in signs if s > 0]]
    assert span.shape == (16, 8)
    keep = S.eigenvalues.real > 0
    assert spectral_norm(_projector(span) - _projector(S.right[:, keep])) < 1e-10


def test_sector_contrast_dimensions():
    # the fixed-metric physical space is strictly smaller than the
    # real-spectrum one: N positive-energy directions versus all 2N
    grid = make_grid(6, 2 * np.pi, 1.0)
    H = fv_hamiltonian(grid)
    S = eig_full(H)
    signs = indefinite_physical_set(S, sigma3_metric(grid))
    n_positive = sum(1 for _, s in signs if s > 0)
    sub = restrict_to_physical(H)
    assert n_positive == grid.N
    assert sub.dim == 2 * grid.N
    assert sub.dim > n_positive


def test_classification_consistency_for_restriction():
    H = block_diag(pt2x2(1, np.pi / 6, 1), pt2x2(1, np.pi / 2, 0.5))
    assert classify(H).kind.value == "PseudoHermitianOnly"
    sub = restrict_to_physical(H)
    assert classify(sub.restricted_op).kind.value in ("QuasiHermitian", "Hermitian")
