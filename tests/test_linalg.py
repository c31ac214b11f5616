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
from pseudoherm.linalg import CLUSTER_TOL, KAPPA_MAX, _cluster_indices, dagger
from pseudoherm.models import jordan_block, pt2x2, random_hermitian, random_quasi

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


@pytest.mark.parametrize("k", [3, 4], ids=["k=n", "k!=n"])
def test_stacked_spectrum_methods_match_per_matrix(k):
    # With k = n a whole-array transpose would also reverse the stack axis
    # without a shape error; with k != n it would raise.
    n = 3
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    S = eig_full(stack)
    singles = [eig_full(M) for M in stack]
    deviation, rebuilt = S.gram_deviation(), S.reconstruct()
    assert deviation.shape == (k,) and rebuilt.shape == (k, n, n)
    for i, one in enumerate(singles):
        assert deviation[i] == one.gram_deviation(), i
        assert np.array_equal(rebuilt[i], one.reconstruct()), i
        assert np.max(np.abs(rebuilt[i] - stack[i])) <= 1e-12, i


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


def test_herm_sqrt_is_scale_covariant():
    # The positivity test is relative to lambda_max: sqrt(c P) = sqrt(c) sqrt(P).
    P = np.diag([1.0, 4.0]).astype(complex)
    for c in (1e-14, 1e-11, 1e6):
        assert np.allclose(herm_sqrt(c * P), np.sqrt(c) * np.diag([1.0, 2.0]), rtol=1e-14, atol=0)
    with pytest.raises(NotPositiveDefinite):
        herm_sqrt(1e-14 * np.diag([1e-11, 1.0]).astype(complex))


def test_herm_sqrt_rejects_bad_input():
    with pytest.raises(NotPositiveDefinite):
        herm_sqrt(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NotPositiveDefinite):
        herm_sqrt(np.array([[1, 1], [0, 1]], dtype=complex))  # not self-adjoint


@pytest.mark.parametrize("n", [1, 4, 8])
def test_stacked_herm_sqrt_matches_per_matrix(n):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    P = dagger(B) @ B + 0.1 * np.eye(n)
    roots = herm_sqrt(P)
    assert roots.shape == (5, n, n)
    for i, one in enumerate(P):
        assert np.array_equal(roots[i], herm_sqrt(one)), i


@pytest.mark.parametrize("bad, message", [
    (np.diag([1.0, -1.0]), r"minimum eigenvalue -1\.000e\+00 "),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), "not self-adjoint"),
], ids=["indefinite", "not self-adjoint"])
def test_stacked_herm_sqrt_refuses_one_bad_matrix(bad, message):
    stack = np.stack([np.diag([1.0, 2.0]), bad, np.diag([3.0, 4.0])]).astype(complex)
    with pytest.raises(NotPositiveDefinite, match=message):
        herm_sqrt(stack)


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


# ---------------------------------------------------------------------------
# eig_full against a per-matrix reference

def _reference_biorthonormalize(right, left):
    """The single-matrix polish: at most three passes, each kept only while
    the Gram defect falls."""
    n = right.shape[0]
    eye = np.eye(n)
    best = left
    best_dev = float(np.max(np.abs(best.conj().T @ right - eye)))
    for _ in range(3):
        if best_dev <= 10 * EPS * n:
            break
        G = best.conj().T @ right
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise DegenerateSystem("singular pairing")
        candidate = best @ np.linalg.inv(G).conj().T
        dev = float(np.max(np.abs(candidate.conj().T @ right - eye)))
        if dev >= best_dev:
            break
        best, best_dev = candidate, dev
    return best


def _reference_eig_full(M):
    """(eigenvalues, right, left, diag_score) of one matrix, step by step:
    eig, cond of the raw V, QR of each degenerate cluster, inv (pinv for a
    singular V) and the polish when diag_score <= 1e12."""
    w, V = np.linalg.eig(M)
    diag_score = float(np.linalg.cond(V, 2))
    if not np.isfinite(diag_score):
        diag_score = np.inf
    for cluster in _pairwise_clusters(w, CLUSTER_TOL):
        if len(cluster) > 1:
            V[:, cluster] = np.linalg.qr(V[:, cluster])[0]
    try:
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        W = np.linalg.pinv(V)
        diag_score = np.inf
    left = W.conj().T
    if diag_score <= 1e12:
        left = _reference_biorthonormalize(V, left)
    return w, V, left, diag_score


def _planted(rng, eigenvalues, kappa):
    """S diag(eigenvalues) S^-1 with S = U diag(sigma) W, U and W unitary and
    sigma log-spaced on [1, kappa], so cond(S) = kappa."""
    n = len(eigenvalues)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    S = (U * np.geomspace(1.0, kappa, n)) @ W
    return (S * eigenvalues) @ np.linalg.inv(S)


def _planted_spectrum(rng, n, paired):
    """n reals, one per cell of [-1, 1]; paired turns the first max(1, n // 4)
    into conjugate pairs."""
    lam = (-1.0 + 2.0 * (np.arange(n) + rng.uniform(0.25, 0.75, n)) / n).astype(complex)
    if paired:
        p = max(1, n // 4)
        lam[p:2 * p] = lam[:p] - 1j * rng.uniform(0.1, 1.0, p)
        lam[:p] = lam[p:2 * p].conj()
    return lam


def _reference_sweep():
    """name -> stack: planted real and paired inputs at every kappa for
    n = 2, 6 and 32; n = 6 stacks with a degenerate cluster, a Jordan block
    (one cluster, raw cond(V) past 1e12) and an input whose left system the
    polish corrects; and an n = 7 stack with an input past the polish cutoff,
    eigenvalues 3e-3 apart on a unit superdiagonal."""
    rng = np.random.default_rng(23)
    stacks = {f"planted_n{n}": np.stack([
        _planted(rng, _planted_spectrum(rng, n, paired), kappa)
        for kappa in (1e1, 1e2, 1e3, 1e5, 1e7) for paired in (False, True)]) for n in (2, 6, 32)}
    cluster = _planted(rng, np.array([1.0, 1.0, 2.0, -0.5, 3.0, 4.0]), 10.0)
    polish = _planted(rng, _planted_spectrum(rng, 6, False), 1e5)
    stacks["cluster_polish"] = np.stack([cluster, polish])
    stacks["cluster_jordan_polish"] = np.stack([cluster, jordan_block(6, 0.3 - 0.2j), polish])
    cutoff = np.diag(3e-3 * np.arange(7)).astype(complex) + np.eye(7, k=1)
    stacks["cutoff"] = np.stack([cutoff, _planted(rng, _planted_spectrum(rng, 7, False), 1e3)])
    return stacks


REFERENCE_SWEEP = _reference_sweep()


def test_reference_sweep_takes_every_step():
    cluster, jordan, polish = REFERENCE_SWEEP["cluster_jordan_polish"]
    cutoff = REFERENCE_SWEEP["cutoff"][0]
    assert max(map(len, _cluster_indices(np.linalg.eigvals(cluster), CLUSTER_TOL))) > 1
    assert _cluster_indices(np.linalg.eigvals(jordan), CLUSTER_TOL) == [list(range(6))]
    assert _reference_eig_full(jordan)[3] > 1e12
    assert 1e12 < _reference_eig_full(cutoff)[3] < np.inf
    for M in (cutoff, polish):   # the polish changes the left system of both
        V = np.linalg.eig(M)[1]
        left = np.linalg.inv(V).conj().T
        assert not np.array_equal(_reference_biorthonormalize(V, left), left)


def _assert_matches_reference(stack):
    stacked = eig_full(stack)
    for i, M in enumerate(stack):
        w, right, left, diag_score = _reference_eig_full(M.copy())
        one = eig_full(M)
        assert type(one.diag_score) is float and one.diag_score == diag_score, i
        assert stacked.diag_score[i] == diag_score, i
        for got in ((one.eigenvalues, one.right, one.left),
                    (stacked.eigenvalues[i], stacked.right[i], stacked.left[i])):
            assert np.array_equal(got[0], w), i
            assert np.array_equal(got[1], right), i
            assert np.array_equal(got[2], left), i


@pytest.mark.parametrize("name", sorted(REFERENCE_SWEEP))
def test_eig_full_matches_per_matrix_reference(name):
    _assert_matches_reference(REFERENCE_SWEEP[name])


def test_eig_full_inverts_a_refused_v_alone(monkeypatch):
    # No input was found that reaches LAPACK's exact-singularity refusal once
    # clusters are orthonormalized, so refuse one planted V: that matrix alone
    # takes pinv, with diag_score inf, in a stack as on its own.
    stack = REFERENCE_SWEEP["planted_n6"][2:6]
    refused = np.linalg.eig(stack[1])[1]
    inv = np.linalg.inv

    def refusing_inv(A):
        if np.all(A == refused, axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(A)

    monkeypatch.setattr(np.linalg, "inv", refusing_inv)
    _assert_matches_reference(stack)
    assert eig_full(stack).diag_score.tolist().count(np.inf) == 1


def test_stacked_eig_full_polishes_in_one_call(monkeypatch):
    import pseudoherm.linalg as linalg

    rng = np.random.default_rng(11)
    n = 6
    stack = np.stack([_planted(rng, _planted_spectrum(rng, n, i % 2), 1e3) for i in range(48)])
    V = np.linalg.eig(stack)[1]
    defect = np.max(np.abs(np.linalg.inv(V) @ V - np.eye(n)), axis=(-2, -1))
    # Most matrices need the polish; they share one call.
    assert np.count_nonzero(defect > 10 * EPS * n) >= 40
    calls = []
    monkeypatch.setattr(linalg, "biorthonormalize",
                        lambda right, left: calls.append(len(right)) or biorthonormalize(right, left))
    eig_full(stack)
    assert calls == [48]


def test_stacked_biorthonormalize_matches_per_matrix_calls():
    rng = np.random.default_rng(3)
    n = 5
    right = np.stack([np.linalg.eig(_planted(rng, _planted_spectrum(rng, n, False), kappa))[1]
                      for kappa in (1.0, 1e1, 1e3, 1e5, 1e7)])
    # A perturbed inverse: the five matrices take 0, 1, 3, 2 and 3 polish passes.
    noise = rng.standard_normal(right.shape) + 1j * rng.standard_normal(right.shape)
    left = dagger(np.linalg.inv(right)) * (1.0 + 1e-6 * noise * np.arange(5)[:, None, None])
    before = left.copy()
    out_right, stacked = biorthonormalize(right, left)
    assert out_right is right and np.array_equal(left, before)
    for i in range(len(right)):
        _, one = biorthonormalize(right[i], left[i])
        assert np.array_equal(stacked[i], one), i
        assert np.array_equal(one, _reference_biorthonormalize(right[i], left[i])), i

    left[2][:, -1] = left[2][:, 0]   # rank-deficient pairing in one matrix of the stack
    with pytest.raises(DegenerateSystem):
        biorthonormalize(right, left)
