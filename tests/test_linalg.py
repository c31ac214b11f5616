import numpy as np
import pytest

from pseudoherm import (
    DegenerateSystem,
    NotPositiveDefinite,
    biorthonormalize,
    build_positive_metric,
    classify,
    eig_full,
    herm_residual,
    herm_sqrt,
    spectral_norm,
)
from pseudoherm.linalg import KAPPA_MAX, _cluster_indices
from pseudoherm.models import pt2x2, random_hermitian, random_quasi

EPS = np.finfo(float).eps


def test_eig_identity():
    S = eig_full(np.eye(2, dtype=complex))
    assert np.allclose(S.eigenvalues, [1, 1])
    assert S.diag_score == pytest.approx(1.0)


def test_eig_pauli_x():
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    S = eig_full(sigma1)
    assert np.allclose(np.sort(S.eigenvalues.real), [-1, 1])
    assert np.max(np.abs(S.eigenvalues.imag)) < 1e-12
    # eigenvectors are (1, +-1)/sqrt(2) up to phase
    for n, lam in enumerate(S.eigenvalues):
        v = S.right[:, n]
        assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-12
        assert np.allclose(sigma1 @ v, lam * v, atol=1e-12)


def test_eig_recovers_planted_spectrum():
    H, lam, _ = random_quasi(6, seed=7)
    S = eig_full(H)
    got = np.sort(S.eigenvalues.real)
    assert np.max(np.abs(got - lam.real) / (1 + np.abs(lam.real))) < 1e-9
    assert np.max(np.abs(S.eigenvalues.imag)) < 1e-9


def test_biorthonormality_defect_at_machine_level():
    for seed in range(8):
        H, _, _ = random_quasi(5 + seed % 3, seed=seed)
        S = eig_full(H)
        assert S.gram_deviation() <= 10 * EPS * S.dim


def test_biorthonormality_holds_with_degenerate_clusters():
    # +k/-k lattice modes give exactly degenerate eigenvalues; the
    # within-cluster orthonormalization must keep the Gram defect tiny
    from pseudoherm.kleingordon import fv_hamiltonian, make_grid

    H = fv_hamiltonian(make_grid(16, 9.0, 1.0))
    S = eig_full(H)
    assert S.gram_deviation() <= 10 * EPS * S.dim


def test_resolution_of_identity():
    H, _, _ = random_quasi(6, seed=2)
    S = eig_full(H)
    ident = S.right @ S.left.conj().T
    assert spectral_norm(ident - np.eye(6)) < 1e-12


def test_reconstruction_from_eigensystem():
    for seed in range(10):
        H, _, _ = random_quasi(2 + seed % 7, seed=100 + seed)
        S = eig_full(H)
        assert S.diag_score <= KAPPA_MAX
        err = spectral_norm(S.reconstruct() - H) / spectral_norm(H)
        assert err <= 1e-8


def test_selfadjoint_input_gives_real_eigenvalues():
    for seed in range(6):
        H = random_hermitian(4 + seed % 4, seed=seed)
        S = eig_full(H)
        assert np.all(np.abs(S.eigenvalues.imag) <= 1e-10 * (1 + np.abs(S.eigenvalues)))


def test_eig_validates_input():
    with pytest.raises(ValueError):
        eig_full(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eig_full(np.array([[np.nan, 0], [0, 1]]))


def test_biorthonormalize_identity_unchanged():
    eye = np.eye(3, dtype=complex)
    right, left = biorthonormalize(eye, eye)
    assert np.allclose(right, eye)
    assert np.allclose(left, eye)


def test_biorthonormalize_rescales_left_only():
    right = 2 * np.eye(3, dtype=complex)
    left = np.eye(3, dtype=complex)
    right2, left2 = biorthonormalize(right, left)
    assert np.allclose(right2, right)          # right untouched
    assert np.allclose(left2, np.eye(3) / 2)   # left absorbs the scale
    assert np.allclose(left2.conj().T @ right2, np.eye(3))


def test_biorthonormalize_eigensystem_gram():
    H = pt2x2(1.0, np.pi / 6, 1.0)
    w, V = np.linalg.eig(H)
    left = np.linalg.inv(V).conj().T
    right, left = biorthonormalize(V, left)
    gram = left.conj().T @ right
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def test_biorthonormalize_rejects_singular_pairing():
    right = np.eye(2, dtype=complex)
    left = np.array([[1, 1], [0, 0]], dtype=complex)  # rank deficient
    with pytest.raises(DegenerateSystem):
        biorthonormalize(right, left)


def test_herm_sqrt_identity_and_diagonal():
    assert np.allclose(herm_sqrt(np.eye(3, dtype=complex)), np.eye(3))
    Q = herm_sqrt(np.diag([4.0, 9.0]).astype(complex))
    assert np.allclose(Q, np.diag([2.0, 3.0]))


def test_herm_sqrt_planted_residual():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    P = B.conj().T @ B + 0.1 * np.eye(5)
    Q = herm_sqrt(P)
    assert spectral_norm(Q - Q.conj().T) < 1e-12
    assert spectral_norm(Q @ Q - P) / spectral_norm(P) <= 1e-10


def test_herm_sqrt_is_involutive_on_squares():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Q = herm_sqrt(B.conj().T @ B + 0.5 * np.eye(4))
    back = herm_sqrt(Q @ Q)
    assert spectral_norm(back - Q) / spectral_norm(Q) <= 1e-9


def test_herm_sqrt_rejects_bad_input():
    with pytest.raises(NotPositiveDefinite):
        herm_sqrt(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NotPositiveDefinite):
        herm_sqrt(np.array([[1, 1], [0, 1]], dtype=complex))  # not self-adjoint


def test_herm_residual_of_exactly_self_adjoint_input_needs_no_svd(monkeypatch):
    import pseudoherm.linalg as linalg

    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H, _, _ = random_quasi(5, seed=2)
    cls = classify(H)
    inputs = {"hermitian": X + X.conj().T,   # Hermitian bit for bit
              "built metric": build_positive_metric(cls.spectrum, cls.pairing).matrix}
    calls = []
    monkeypatch.setattr(linalg, "spectral_norm", lambda A: calls.append(A) or spectral_norm(A))
    for name, A in inputs.items():
        assert herm_residual(A) == 0.0, name
        assert calls == [], name
        # Off the diagonal by 1e-14 i: the two-SVD formula, bit for bit.
        perturbed = A.copy()
        perturbed[0, 1] += 1e-14j
        expected = spectral_norm(perturbed - perturbed.conj().T) / spectral_norm(perturbed)
        assert expected > 0.0, name
        assert herm_residual(perturbed) == expected, name
        assert herm_residual(perturbed, spectral_norm(perturbed)) == expected, name
        calls.clear()


def _pairwise_clusters(eigenvalues, tol):
    """Reference: the union-find over an explicit double loop of pairs."""
    n = len(eigenvalues)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            size = max(abs(eigenvalues[i]), abs(eigenvalues[j]))
            if abs(eigenvalues[i] - eigenvalues[j]) <= tol * (1.0 + size):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def _partition(clusters, labels):
    return sorted(sorted(labels[i] for i in c) for c in clusters)


def test_cluster_indices_matches_pairwise_loop():
    rng = np.random.default_rng(14)
    tol = 1e-8
    for trial in range(20):
        # chains of 5e-9 steps: neighbours are close, chain ends are not
        starts = rng.standard_normal(4) + 1j * rng.standard_normal(4) * (trial % 2)
        chains = [z + 5e-9 * np.arange(rng.integers(2, 16)) for z in starts]
        loose = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = np.concatenate(chains + [loose, loose[:2]])
        got = _cluster_indices(w, tol)
        assert got == _pairwise_clusters(w, tol)
        # some cluster joins ends that are not close to each other
        assert any(abs(w[c[-1]] - w[c[0]]) > tol * (1.0 + max(abs(w[c[0]]), abs(w[c[-1]])))
                   for c in got)
        perm = rng.permutation(len(w))
        assert (_partition(_cluster_indices(w[perm], tol), perm)
                == _partition(got, np.arange(len(w))))
    assert _cluster_indices(np.array([2.5 + 1j]), tol) == [[0]]
    # closeness is symmetric in the pair: the gap 2 is within 0.6 * (1 + 3) in either order
    assert _cluster_indices(np.array([1.0, 3.0]), 0.6) == [[0, 1]]
    assert _cluster_indices(np.array([3.0, 1.0]), 0.6) == [[0, 1]]
