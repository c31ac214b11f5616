import numpy as np
import pytest

from pseudoherm import (
    MetricOperator,
    NotInvertible,
    NotPositiveDefinite,
    build_positive_metric,
    classify,
    eig_full,
    herm_residual,
    herm_sqrt,
    norm_lower_bound,
    spectral_norm,
)
from pseudoherm.linalg import KAPPA_MAX, biorthonormalize, dagger, frobenius_norm
from pseudoherm.models import EnsembleSpec, generate, jordan_block, pt2x2

from oracles import gram_deviation, reconstruct

EPS = np.finfo(float).eps


def test_eig_identity():
    S = eig_full(np.eye(2, dtype=complex))
    assert np.allclose(S.eigenvalues, [1, 1])
    assert S.diag_score == pytest.approx(2.0)   # ||I||_F ||I^-1||_F


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
    H, lam, _ = generate(EnsembleSpec(6, 7, "quasi"))
    S = eig_full(H)
    got = np.sort(S.eigenvalues.real)
    assert np.max(np.abs(got - lam.real) / (1 + np.abs(lam.real))) < 1e-9
    assert np.max(np.abs(S.eigenvalues.imag)) < 1e-9


def test_biorthonormality_defect_at_machine_level():
    for seed in range(8):
        H, _, _ = generate(EnsembleSpec(5 + seed % 3, seed, "quasi"))
        S = eig_full(H)
        assert gram_deviation(S) <= 10 * EPS * S.dim


def test_biorthonormality_holds_with_degenerate_clusters():
    # +k/-k lattice modes give exactly degenerate eigenvalues; the inverse of
    # the eigensolver's V keeps the Gram defect tiny there too
    from pseudoherm.kleingordon import fv_hamiltonian, make_grid

    H = fv_hamiltonian(make_grid(16, 9.0, 1.0))
    S = eig_full(H)
    assert gram_deviation(S) <= 10 * EPS * S.dim


def test_resolution_of_identity():
    H, _, _ = generate(EnsembleSpec(6, 2, "quasi"))
    S = eig_full(H)
    ident = S.right @ S.left.conj().T
    assert spectral_norm(ident - np.eye(6)) < 1e-12


def test_reconstruction_from_eigensystem():
    for seed in range(10):
        H, _, _ = generate(EnsembleSpec(2 + seed % 7, 100 + seed, "quasi"))
        S = eig_full(H)
        assert S.diag_score <= KAPPA_MAX
        err = spectral_norm(reconstruct(S) - H) / spectral_norm(H)
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
    deviation, rebuilt = gram_deviation(S), reconstruct(S)
    assert deviation.shape == (k,) and rebuilt.shape == (k, n, n)
    for i, one in enumerate(singles):
        assert deviation[i] == gram_deviation(one), i
        assert np.array_equal(rebuilt[i], reconstruct(one)), i
        assert np.max(np.abs(rebuilt[i] - stack[i])) <= 1e-12, i


def test_selfadjoint_input_gives_real_eigenvalues():
    for seed in range(6):
        H = generate(EnsembleSpec(4 + seed % 4, seed, "hermitian"))
        S = eig_full(H)
        assert np.all(np.abs(S.eigenvalues.imag) <= 1e-10 * (1 + np.abs(S.eigenvalues)))


def test_eig_validates_input():
    with pytest.raises(ValueError):
        eig_full(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eig_full(np.array([[np.nan, 0], [0, 1]]))


def test_biorthonormalize_identity_unchanged():
    eye = np.eye(3, dtype=complex)[None]
    W, refused = biorthonormalize(eye)
    assert np.array_equal(W, eye) and refused.tolist() == [False]


def test_biorthonormalize_rescales_left_only():
    right = 2 * np.eye(3, dtype=complex)[None]
    before = right.copy()
    left = dagger(biorthonormalize(right)[0])
    assert np.array_equal(right, before)        # right untouched
    assert np.allclose(left, np.eye(3) / 2)     # left absorbs the scale
    assert np.allclose(dagger(left) @ right, np.eye(3))


def test_biorthonormalize_eigensystem_gram():
    H = pt2x2(1.0, np.pi / 6, 1.0)
    w, V = np.linalg.eig(H)
    left = dagger(biorthonormalize(V[None])[0][0])
    gram = left.conj().T @ V
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def test_biorthonormalize_rejects_singular_pairing():
    # An exactly singular V is refused: LAPACK's inv raises, pinv stands in.
    V = np.array([[[1, 1], [0, 0]]], dtype=complex)   # rank deficient
    W, refused = biorthonormalize(V)
    assert refused.tolist() == [True]
    assert np.array_equal(W, np.linalg.pinv(V))


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
        herm_sqrt(1e-14 * np.diag([1e-13, 1.0]).astype(complex))


def test_herm_sqrt_rejects_bad_input():
    with pytest.raises(NotPositiveDefinite):
        herm_sqrt(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NotPositiveDefinite):
        herm_sqrt(np.array([[1, 1], [0, 1]], dtype=complex))  # not self-adjoint


def test_herm_sqrt_refuses_where_from_matrix_is_not_invertible():
    # One ceiling for a metric the caller supplies: the root of the positive metric
    # diag(r, 1) is refused, in a stack by a NaN root, exactly where
    # MetricOperator.from_matrix refuses it alone.
    ladder = [1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14]
    stack = np.stack([np.diag([r, 1.0]) for r in ladder]).astype(complex)
    invertible = ~np.isnan(herm_sqrt(stack)).all(axis=(-2, -1))
    assert invertible.tolist() == [True, True, True, False, False, False]
    for P, accepted in zip(stack, invertible):
        if accepted:
            MetricOperator.from_matrix(P)
            herm_sqrt(P)
            continue
        with pytest.raises(NotInvertible):
            MetricOperator.from_matrix(P)
        with pytest.raises(NotPositiveDefinite, match="INVERTIBILITY_TOL = 1e-12"):
            herm_sqrt(P)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_stacked_herm_sqrt_matches_per_matrix(n):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    P = dagger(B) @ B + 0.1 * np.eye(n)
    roots = herm_sqrt(P)
    assert roots.shape == (5, n, n)
    for i, one in enumerate(P):
        assert np.array_equal(roots[i], herm_sqrt(one)), i


@pytest.mark.parametrize("bad, message, marked", [
    (np.diag([1.0, -1.0]), r"minimum eigenvalue -1\.000e\+00 ", True),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), "not self-adjoint", False),
], ids=["indefinite", "not self-adjoint"])
def test_stacked_herm_sqrt_refuses_one_bad_matrix(bad, message, marked):
    # Alone the bad matrix raises.  In a stack, one that is not positive-definite
    # gets an all-NaN root and the others keep their own roots bit for bit;
    # a stack that is not self-adjoint still raises.
    stack = np.stack([np.diag([1.0, 2.0]), bad, np.diag([3.0, 4.0])]).astype(complex)
    with pytest.raises(NotPositiveDefinite, match=message):
        herm_sqrt(stack[1])
    if not marked:
        with pytest.raises(NotPositiveDefinite, match=message):
            herm_sqrt(stack)
        return
    roots = herm_sqrt(stack)
    assert np.all(np.isnan(roots[1]))
    for i in (0, 2):
        assert np.array_equal(roots[i], herm_sqrt(stack[i])), i


def test_spectral_norm_of_empty_matrices():
    assert spectral_norm(np.zeros((0, 0))) == 0.0
    stacked = spectral_norm(np.zeros((3, 0, 0)))
    assert stacked.shape == (3,) and not stacked.any()


def test_herm_residual_of_exactly_self_adjoint_input_needs_no_svd(monkeypatch):
    import pseudoherm.linalg as linalg

    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H, _, _ = generate(EnsembleSpec(5, 2, "quasi"))
    cls = classify(H)
    inputs = {"hermitian": X + X.conj().T,   # Hermitian bit for bit
              "built metric": build_positive_metric(cls.spectrum, cls.pairing).matrix}
    calls = []
    monkeypatch.setattr(linalg, "spectral_norm", lambda A: calls.append(A) or spectral_norm(A))
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    for name, A in inputs.items():
        assert herm_residual(A) == 0.0, name
        assert calls == [], name
        # Off the diagonal by 1e-14 i: the bound's closed form, bit for bit.
        perturbed = A.copy()
        perturbed[0, 1] += 1e-14j
        skew = frobenius_norm(perturbed - perturbed.conj().T)
        expected = skew / norm_lower_bound(perturbed)
        assert expected > 0.0, name
        assert herm_residual(perturbed) == expected, name
        assert herm_residual(perturbed, 2.0) == skew / 2.0, name
        assert calls == [], name


# ---------------------------------------------------------------------------
# eig_full against a per-matrix reference

def _reference_eig_full(M):
    """(eigenvalues, right, left, diag_score) of one matrix, step by step:
    eig, inv of V (pinv for a singular V), left = V^{-dag} and diag_score
    ||V||_F ||V^-1||_F (inf after a pinv)."""
    w, V = np.linalg.eig(M)
    try:
        W = np.linalg.inv(V)
        diag_score = float(frobenius_norm(V) * frobenius_norm(W))
    except np.linalg.LinAlgError:
        W, diag_score = np.linalg.pinv(V), np.inf
    if not np.isfinite(diag_score):
        diag_score = np.inf
    return w, V, W.conj().T, diag_score


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
    n = 2, 6 and 32; n = 6 stacks with a repeated eigenvalue, a Jordan block
    (cond(V) past 1e12) and a planted input at kappa 1e5 whose inverse has a
    Gram defect past 10 eps n; and an n = 7 stack with an input of
    diag_score between 1e12 and inf, eigenvalues 3e-3 apart on a unit
    superdiagonal."""
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
    # Jordan blocks of n = 2 to 6 and the 2x2 nilpotent do not reach LAPACK's
    # exact-singularity refusal (their V is singular only up to roundoff), so
    # refuse one planted V: that matrix alone takes pinv, with diag_score inf,
    # in a stack as on its own.
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


def _bracket_inputs():
    """name -> matrix: planted inputs at n = 2 to 256 and cond(S) = 1e2 to 1e7,
    pt2x2(1, 0.7, s) on both sides of its exceptional point s = sin 0.7, and
    Jordan blocks."""
    rng = np.random.default_rng(29)
    cases = {f"planted_n{n}_kappa{kappa:.0e}": _planted(
        rng, _planted_spectrum(rng, n, paired=kappa == 1e4), kappa)
        for n in (2, 8, 32, 256) for kappa in (1e2, 1e4, 1e7)}
    for delta in (1e-2, 1e-6, 1e-10, 1e-14, 1e-16, 0.0, -1e-16, -1e-12, -1e-6):
        cases[f"pt2x2_{delta:g}"] = pt2x2(1.0, 0.7, np.sin(0.7) * (1 + delta))
    for n in (2, 3, 5, 8):
        cases[f"jordan_n{n}"] = jordan_block(n, 0.3 - 0.2j)
    return cases


BRACKET = _bracket_inputs()


@pytest.mark.parametrize("name", list(BRACKET))
def test_diag_score_brackets_cond_of_v(name):
    # cond_2(V) <= ||V||_F ||V^-1||_F <= n cond_2(V), cond_2 by an SVD of the raw V.
    # Both sides come from a nearly singular V: the lower side has slack 10 eps cond_2(V).
    H = BRACKET[name]
    sv = np.linalg.svd(np.linalg.eig(H)[1], compute_uv=False)
    cond = sv[0] / sv[-1]
    score = eig_full(H).diag_score
    assert cond * (1 - 10 * EPS * cond) <= score <= len(H) * cond
    if name.startswith("jordan"):
        assert score > KAPPA_MAX


def test_stacked_eig_full_inverts_in_one_call(monkeypatch):
    import pseudoherm.linalg as linalg

    rng = np.random.default_rng(11)
    n = 6
    stack = np.stack([_planted(rng, _planted_spectrum(rng, n, i % 2), 1e3) for i in range(48)])
    calls = []
    monkeypatch.setattr(linalg, "biorthonormalize",
                        lambda V: calls.append(len(V)) or biorthonormalize(V))
    eig_full(stack)
    assert calls == [48]


def test_stacked_biorthonormalize_matches_per_matrix_calls():
    rng = np.random.default_rng(3)
    n = 5
    V = np.stack([np.linalg.eig(_planted(rng, _planted_spectrum(rng, n, False), kappa))[1]
                  for kappa in (1.0, 1e1, 1e3, 1e5, 1e7)])
    before = V.copy()
    W, refused = biorthonormalize(V)
    assert np.array_equal(V, before) and not refused.any()
    for i in range(len(V)):
        one, alone = biorthonormalize(V[i:i + 1])
        assert np.array_equal(W[i], one[0]) and not alone[0], i

    V[2][:, -1] = 0.0   # an exactly singular V in one matrix of the stack
    W, refused = biorthonormalize(V)
    assert refused.tolist() == [False, False, True, False, False]
    for i in range(len(V)):
        assert np.array_equal(W[i], biorthonormalize(V[i:i + 1])[0][0]), i
