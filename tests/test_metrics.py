import numpy as np
import pytest

from pseudoherm import (
    NoPositiveMetric,
    NotAMetric,
    NotCommuting,
    NotInvertible,
    OperatorClass,
    UnpairedEigenvalue,
    antilinear_residual,
    antilinear_symmetry,
    build_general_metric,
    build_positive_metric,
    classify,
    eig_full,
    eta_inner,
    herm_residual,
    hermitize,
    pair_spectrum,
    pt2x2,
    random_hermitian,
    random_pseudo_nonquasi,
    random_quasi,
    spectral_norm,
    transform_metric,
    verify_intertwining,
)
from pseudoherm.kleingordon import fv_modes, make_grid
from pseudoherm.linalg import Spectrum
from pseudoherm.metrics import MetricOperator
from pseudoherm.physical import restrict_to_physical
from pseudoherm.suites import classify_group

from oracles import signature_by_eigenvalues, spectra_mismatch

EPS = np.finfo(float).eps
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# pairing

def test_pair_spectrum_all_real():
    P = pair_spectrum(eig_full(np.diag([1.0, 2.0]).astype(complex)))
    assert sorted(P.real_indices) == [0, 1]
    assert P.pairs == ()
    assert P.all_real


def test_pair_spectrum_one_pair():
    S = eig_full(np.diag([1j, -1j]))
    P = pair_spectrum(S)
    assert P.real_indices == ()
    assert len(P.pairs) == 1
    n, nbar = P.pairs[0]
    assert S.eigenvalues[n].imag > 0
    assert abs(S.eigenvalues[nbar] - np.conj(S.eigenvalues[n])) < 1e-12
    assert P.partner(n) == nbar and P.partner(nbar) == n


def test_pair_spectrum_pt_complex_pair():
    # closed form: eigenvalues +-i sqrt(3)/2
    S = eig_full(pt2x2(1.0, np.pi / 2, 0.5))
    P = pair_spectrum(S)
    assert len(P.pairs) == 1
    n, _ = P.pairs[0]
    assert abs(S.eigenvalues[n] - 1j * np.sqrt(3) / 2) < 1e-12


def test_pair_spectrum_unpaired_raises():
    S = eig_full(np.array([[1, 1], [0, 2j]], dtype=complex))
    with pytest.raises(UnpairedEigenvalue) as info:
        pair_spectrum(S)
    assert abs(info.value.eigenvalue - 2j) < 1e-12


def test_pair_spectrum_tolerance_scales_with_magnitude():
    # |Im| = 1e-4 is above tol = 1e-9 but within tol * (1 + |lambda|) ~ 1e-3.
    P = pair_spectrum(np.array([1e6 + 1e-4j, 2.0]), tol=1e-9)
    assert P.all_real and P.real_indices == (0, 1)
    # A partner 1e-4 off conj(lambda) is matched under the same scaling.
    P = pair_spectrum(np.array([1e6 + 1j, 1e6 - 1j + 1e-4]), tol=1e-9)
    assert P.pairs == ((0, 1),)


def test_pairing_partitions_indices():
    for seed in range(6):
        H, _, _ = random_pseudo_nonquasi(6, seed=seed)
        S = eig_full(H)
        P = pair_spectrum(S)
        covered = sorted(P.real_indices)
        for n, nbar in P.pairs:
            covered.extend([n, nbar])
            lam = S.eigenvalues[n]
            assert abs(S.eigenvalues[nbar] - np.conj(lam)) <= P.tol * (1 + abs(lam))
        assert sorted(covered) == list(range(6))   # partition, no overlap


def test_metric_operator_signature_counts_fill_dimension():
    for seed in range(4):
        H, _, _ = random_quasi(5, seed=seed)
        S = eig_full(H)
        eta = build_general_metric(S, pair_spectrum(S), signs=[1, 1, -1, 1, -1])
        assert sum(eta.signature) == 5
        assert eta.min_abs_eigenvalue > 0
        assert eta.selfadjoint_residual <= 1e-10


# ---------------------------------------------------------------------------
# classification

def test_classify_examples():
    assert classify(SIGMA1).kind is OperatorClass.HERMITIAN
    assert classify(pt2x2(1, np.pi / 6, 1)).kind is OperatorClass.QUASI_HERMITIAN
    assert classify(pt2x2(1, np.pi / 2, 0.5)).kind is OperatorClass.PSEUDO_HERMITIAN_ONLY
    assert classify(np.array([[0, 1], [0, 0]], dtype=complex)).kind is OperatorClass.NON_DIAGONALIZABLE
    assert classify(np.array([[1, 1], [0, 2j]], dtype=complex)).kind is OperatorClass.NOT_PSEUDO_HERMITIAN


def test_classify_reports_diagnostics():
    cls = classify(pt2x2(1, np.pi / 6, 1))
    assert cls.diagnostics["hermiticity_residual"] > 1e-9  # genuinely non-Hermitian
    assert cls.diagnostics["diag_score"] < 1e3
    assert cls.diagnostics["n_real"] == 2


def test_inclusion_chain_hermitian_passes_quasi_checks():
    for seed in range(5):
        H = random_hermitian(4, seed=seed)
        S = eig_full(H)
        eta = build_positive_metric(S)
        assert eta.positive_definite
        assert verify_intertwining(H, eta) <= 1e-8
        rho, h, _ = hermitize(H, eta)
        assert herm_residual(h) <= 1e-8


def test_inclusion_chain_quasi_passes_pseudo_checks():
    for seed in range(5):
        H, _, _ = random_quasi(5, seed=seed)
        S = eig_full(H)
        P = pair_spectrum(S)
        eta = build_general_metric(S, P)
        assert verify_intertwining(H, eta) <= 1e-8
        tau = antilinear_symmetry(S, P)
        assert antilinear_residual(H, tau) <= 1e-8


# ---------------------------------------------------------------------------
# positive metric

def test_positive_metric_is_identity_for_orthonormal_eigensystem():
    H = np.diag([1.0, 2.0, 3.0]).astype(complex)
    eta = build_positive_metric(eig_full(H))
    assert np.allclose(eta.matrix, np.eye(3), atol=1e-12)


def test_positive_metric_pt_real_phase():
    H = pt2x2(1, np.pi / 6, 1)
    eta = build_positive_metric(eig_full(H))
    assert verify_intertwining(H, eta) <= 1e-10
    assert eta.min_abs_eigenvalue > 0
    assert eta.positive_definite
    assert eta.selfadjoint_residual <= 1e-10


def test_positive_metric_refused_for_complex_pair():
    with pytest.raises(NoPositiveMetric):
        build_positive_metric(eig_full(pt2x2(1, np.pi / 2, 0.5)))


# ---------------------------------------------------------------------------
# general metric

def test_general_metric_with_plus_signs_equals_positive():
    H, _, _ = random_quasi(4, seed=9)
    S = eig_full(H)
    P = pair_spectrum(S)
    eta_gen = build_general_metric(S, P, signs=[1] * 4)
    eta_pos = build_positive_metric(S)
    assert spectral_norm(eta_gen.matrix - eta_pos.matrix) < 1e-10


def test_pairing_products_match_outer_product_sums():
    # Reference: eta and tau summed term by term over the pairing.
    H, _, _ = random_pseudo_nonquasi(9, seed=5)
    S = eig_full(H)
    P = pair_spectrum(S)
    signs = [(-1) ** k for k in range(len(P.real_indices))]
    phi, psi = S.left, S.right
    eta_ref = sum(s * np.outer(phi[:, n], phi[:, n].conj())
                  for s, n in zip(signs, P.real_indices))
    tau_ref = sum(np.outer(psi[:, n], phi[:, n]) for n in P.real_indices)
    for n, nbar in P.pairs:
        for a, b in ((n, nbar), (nbar, n)):
            eta_ref = eta_ref + np.outer(phi[:, a], phi[:, b].conj())
            tau_ref = tau_ref + np.outer(psi[:, a], phi[:, b])
    eta = build_general_metric(S, P, signs=signs).matrix
    tau = antilinear_symmetry(S, P)
    assert spectral_norm(eta - eta_ref) <= 1e-12 * spectral_norm(eta_ref)
    assert spectral_norm(tau - tau_ref) <= 1e-12 * spectral_norm(tau_ref)


def test_general_metric_antidiagonal_for_imaginary_pair():
    H = np.diag([1j, -1j])
    S = eig_full(H)
    eta = build_general_metric(S, pair_spectrum(S))
    assert np.allclose(eta.matrix, SIGMA1, atol=1e-14)
    # sigma1 H sigma1^{-1} = H^dag holds exactly
    assert np.array_equal(SIGMA1 @ H @ SIGMA1, H.conj().T)


def test_general_metric_mixed_signs_signature():
    S = eig_full(SIGMA1)
    P = pair_spectrum(S)
    eta = build_general_metric(S, P, signs=[1, -1])
    assert eta.signature == (1, 1)
    assert eta.signature == signature_by_eigenvalues(eta.matrix)
    assert verify_intertwining(SIGMA1, eta) <= 1e-12


def test_general_metric_signature_matches_sign_pattern():
    # Sylvester: signature = (#plus + #pairs, #minus + #pairs)
    H, _, _ = random_quasi(5, seed=21)
    S = eig_full(H)
    P = pair_spectrum(S)
    eta = build_general_metric(S, P, signs=[1, -1, 1, -1, 1])
    assert eta.signature == (3, 2)
    assert signature_by_eigenvalues(eta.matrix) == (3, 2)


def test_general_metric_validates_signs():
    H, _, _ = random_quasi(3, seed=0)
    S = eig_full(H)
    P = pair_spectrum(S)
    with pytest.raises(ValueError):
        build_general_metric(S, P, signs=[1, 1])
    with pytest.raises(ValueError):
        build_general_metric(S, P, signs=[1, 2, 1])


def test_quasi_but_indefinite_metrics_exist():
    # mixed signs give indefinite members of the metric family for any dim >= 2
    for seed in range(5):
        H, _, _ = random_quasi(4, seed=40 + seed)
        S = eig_full(H)
        P = pair_spectrum(S)
        signs = [1, -1, 1, -1]
        eta = build_general_metric(S, P, signs=signs)
        assert eta.indefinite
        assert verify_intertwining(H, eta) <= 1e-8


# ---------------------------------------------------------------------------
# intertwining residual and signature

def test_verify_intertwining_values():
    assert verify_intertwining(SIGMA1, np.eye(2, dtype=complex)) == 0.0
    H = np.diag([1j, -1j])
    assert verify_intertwining(H, np.eye(2, dtype=complex)) == pytest.approx(2.0)


def test_metric_signature_values():
    assert MetricOperator.from_matrix(np.eye(4, dtype=complex)).signature == (4, 0)
    assert MetricOperator.from_matrix(SIGMA3).signature == (1, 1)
    S = eig_full(pt2x2(1, np.pi / 2, 0.5))
    eta = build_general_metric(S, pair_spectrum(S))
    assert eta.signature == (1, 1)


def test_metric_signature_rejects_singular():
    with pytest.raises(NotInvertible):
        MetricOperator.from_matrix(np.diag([1.0, 0.0]).astype(complex))


def test_metric_operator_rejects_nonselfadjoint():
    with pytest.raises(NotAMetric):
        MetricOperator.from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# metric inner product

def test_eta_inner_standard_and_indefinite():
    psi = np.array([1, 1]) / np.sqrt(2)
    assert eta_inner(np.eye(2), psi, psi) == pytest.approx(1.0)
    assert eta_inner(SIGMA3, psi, psi) == pytest.approx(0.0, abs=1e-15)   # null vector
    assert eta_inner(SIGMA3, [0, 1], [0, 1]) == pytest.approx(-1.0)


def test_eta_inner_hermitian_symmetry():
    rng = np.random.default_rng(77)
    H, _, _ = random_quasi(5, seed=13)
    eta = build_positive_metric(eig_full(H))
    for _ in range(20):
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        chi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = eta_inner(eta, psi, chi)
        rhs = np.conj(eta_inner(eta, chi, psi))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_eta_inner_conjugate_linear_first_slot():
    eta = np.eye(2, dtype=complex)
    psi = np.array([1.0, 1j])
    chi = np.array([2.0, 1.0])
    assert eta_inner(eta, 2j * psi, chi) == pytest.approx(-2j * eta_inner(eta, psi, chi))


def test_stacked_eta_inner_matches_per_pair():
    rng = np.random.default_rng(21)
    k, pairs, n = 4, 6, 8
    G = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    eta = MetricOperator.from_matrix(G + np.swapaxes(G.conj(), -1, -2))   # indefinite
    psi, chi = rng.standard_normal((2, k, pairs, n)) + 1j * rng.standard_normal((2, k, pairs, n))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    chi /= np.linalg.norm(chi, axis=-1, keepdims=True)
    stacked = eta_inner(eta, psi, chi)                    # one eta per row of pairs
    shared = eta_inner(eta.matrix[0], psi, chi)           # one eta for every pair
    assert stacked.shape == shared.shape == (k, pairs)
    for i in range(k):
        for j in range(pairs):
            one = eta_inner(eta.matrix[i], psi[i, j], chi[i, j])
            assert isinstance(one, complex)
            assert abs(stacked[i, j] - one) <= 4 * EPS * eta.norm[i], (i, j)
            one = eta_inner(eta.matrix[0], psi[i, j], chi[i, j])
            assert abs(shared[i, j] - one) <= 4 * EPS * eta.norm[0], (i, j)


# ---------------------------------------------------------------------------
# hermitization

def test_hermitize_identity_metric_is_identity_map():
    H = random_hermitian(3, seed=4)
    rho, h, _ = hermitize(H, np.eye(3, dtype=complex))
    assert np.allclose(rho, np.eye(3))
    assert np.allclose(h, H)


def test_hermitize_pt_real_phase():
    H = pt2x2(1, np.pi / 6, 1)
    eta = build_positive_metric(eig_full(H))
    rho, h, _ = hermitize(H, eta)
    assert herm_residual(h) <= 1e-8
    assert spectra_mismatch(np.linalg.eigvals(h), [0.0, np.sqrt(3)]) < 1e-10


def test_hermitize_preserves_planted_spectrum():
    H, lam, _ = random_quasi(6, seed=3)
    eta = build_positive_metric(eig_full(H))
    rho, h, _ = hermitize(H, eta)
    assert herm_residual(h) <= 1e-8
    assert spectra_mismatch(np.linalg.eigvals(h), lam) <= 1e-8 * (1 + np.max(np.abs(lam)))


def test_hermitize_is_scale_free_in_eta():
    # c eta_+ is as good a metric as eta_+, and rho H rho^{-1} does not see c;
    # from_matrix accepts 1e-11 eta_+, so hermitize must too.
    H, lam, _ = random_quasi(4, seed=3)
    eta = build_positive_metric(eig_full(H))
    _, h, _ = hermitize(H, eta)
    for c in (1e-11, 1e-14):
        small = MetricOperator.from_matrix(c * eta.matrix)
        assert small.positive_definite
        _, h_small, residual = hermitize(H, small)
        assert residual <= 1e-12 and herm_residual(h_small) <= 1e-8
        assert spectral_norm(h_small - h) <= 1e-10 * spectral_norm(h)


def test_hermitize_rejects_non_metric():
    H = pt2x2(1, np.pi / 6, 1)   # non-normal, identity does not intertwine
    with pytest.raises(NotAMetric):
        hermitize(H, np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# antilinear symmetry

def test_antilinear_real_symmetric_case():
    H = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    S = eig_full(H)
    tau = antilinear_symmetry(S, pair_spectrum(S))
    assert antilinear_residual(H, tau) <= 1e-12
    # tau = identity is itself a valid symmetry here since conj(H) = H
    assert antilinear_residual(H, np.eye(2, dtype=complex)) == 0.0


def test_antilinear_imaginary_pair_gives_swap():
    H = np.diag([1j, -1j])
    S = eig_full(H)
    tau = antilinear_symmetry(S, pair_spectrum(S))
    assert np.allclose(tau, SIGMA1, atol=1e-14)
    assert np.array_equal(H @ SIGMA1, SIGMA1 @ H.conj())


def test_antilinear_pt_complex_pair():
    H = pt2x2(1, np.pi / 2, 0.5)
    S = eig_full(H)
    tau = antilinear_symmetry(S, pair_spectrum(S))
    assert antilinear_residual(H, tau) <= 1e-10
    assert np.linalg.cond(tau, 2) < 1e6


# ---------------------------------------------------------------------------
# metric family transformations

def test_transform_metric_identity_and_scaling():
    H, _, _ = random_quasi(4, seed=17)
    eta = build_positive_metric(eig_full(H))
    same = transform_metric(eta, np.eye(4, dtype=complex), H)
    assert np.allclose(same.matrix, eta.matrix)
    scaled = transform_metric(eta, 3.0 * np.eye(4, dtype=complex), H)
    assert np.allclose(scaled.matrix, 9.0 * eta.matrix)


def test_transform_metric_polynomial_commutant():
    for seed in range(5):
        H, _, _ = random_quasi(5, seed=60 + seed)
        eta = build_positive_metric(eig_full(H))
        A = H @ H + np.eye(5)
        moved = transform_metric(eta, A, H)
        assert verify_intertwining(H, moved) <= 1e-8
        assert moved.positive_definite


def test_transform_metric_rejects_noncommuting():
    H, _, _ = random_quasi(4, seed=2)
    eta = build_positive_metric(eig_full(H))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NotCommuting):
        transform_metric(eta, A, H)


def test_transform_metric_rejects_singular():
    H = np.diag([1.0, 2.0]).astype(complex)
    eta = build_positive_metric(eig_full(H))
    with pytest.raises(NotInvertible):
        transform_metric(eta, np.zeros((2, 2), dtype=complex), H)


# ---------------------------------------------------------------------------
# negative control: generic complex matrices are not pseudo-Hermitian

def test_generic_matrix_fails_all_equivalence_legs():
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(10):
        H = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        cls = classify(H)
        if cls.kind is OperatorClass.NOT_PSEUDO_HERMITIAN:
            hits += 1
            with pytest.raises(UnpairedEigenvalue):
                pair_spectrum(eig_full(H))
    assert hits >= 8  # unpaired spectra are generic for Gaussian matrices


# ---------------------------------------------------------------------------
# stacks: the same steps as single calls, matrix by matrix

def test_stacked_metrics_functions_match_single_calls():
    n = 4
    quasi, _, _ = random_quasi(n, seed=2)
    paired, _, _ = random_pseudo_nonquasi(n, seed=3)
    unpaired = np.diag([1 + 1j, 2.0, 3.0, 4 - 0.5j])
    stack = np.stack([quasi, paired, random_hermitian(n, seed=1), unpaired, quasi.T])
    cls = classify(stack)
    singles = [classify(M) for M in stack]
    assert [one.kind for one in singles] == [
        OperatorClass.QUASI_HERMITIAN, OperatorClass.PSEUDO_HERMITIAN_ONLY,
        OperatorClass.HERMITIAN, OperatorClass.NOT_PSEUDO_HERMITIAN,
        OperatorClass.QUASI_HERMITIAN]
    for i, one in enumerate(singles):
        assert cls.kind[i] is one.kind and cls.pairing[i] == one.pairing, i
        assert cls.diagnostics[i] == one.diagnostics, i
        assert np.array_equal(cls.spectrum.left[i], one.spectrum.left), i

    keep = [0, 1, 2, 4]
    S = Spectrum(n, *(a[keep] for a in (cls.spectrum.eigenvalues, cls.spectrum.right,
                                        cls.spectrum.left, cls.spectrum.diag_score)))
    pairings = [cls.pairing[i] for i in keep]
    assert [len(p.real_indices) for p in pairings] == [4, 0, 4, 4]
    signs = [[1, -1, 1, 1], [], [-1, -1, 1, -1], [1, 1, -1, 1]]   # one per real eigenvalue
    norms = np.array([cls.diagnostics[i]["norm"] for i in keep])
    eta = build_general_metric(S, pairings)
    signed = build_general_metric(S, pairings, [s for row in signs for s in row])
    tau = antilinear_symmetry(S, pairings)
    residual = verify_intertwining(stack[keep], eta, norms)
    commutation = antilinear_residual(stack[keep], tau, norms)
    for j, i in enumerate(keep):
        one, H = singles[i], stack[i]
        for got, want in ((eta, build_general_metric(one.spectrum, one.pairing)),
                          (signed, build_general_metric(one.spectrum, one.pairing, signs[j]))):
            assert np.array_equal(got.matrix[j], want.matrix), i
            assert tuple(got.signature[j].tolist()) == want.signature, i
            assert got.selfadjoint_residual[j] == want.selfadjoint_residual, i
            assert got.min_abs_eigenvalue[j] == want.min_abs_eigenvalue, i
            assert got.norm[j] == want.norm and got.invertible[j], i
        single_eta = build_general_metric(one.spectrum, one.pairing)
        assert residual[j] == verify_intertwining(H, single_eta, one.diagnostics["norm"]), i
        assert (verify_intertwining(stack[keep], eta.matrix)[j]
                == verify_intertwining(H, single_eta.matrix)), i
        single_tau = antilinear_symmetry(one.spectrum, one.pairing)
        assert np.array_equal(tau[j], single_tau), i
        assert commutation[j] == antilinear_residual(H, single_tau, one.diagnostics["norm"]), i
        assert antilinear_residual(stack[keep], tau)[j] == antilinear_residual(H, single_tau), i

    # A group with no paired matrix is a (0, n, n) stack.
    none = np.zeros((0, n, n), dtype=complex)
    empty = classify(none)
    assert empty.kind == empty.pairing == empty.diagnostics == []
    eta = build_general_metric(empty.spectrum, [])
    tau = antilinear_symmetry(empty.spectrum, [])
    assert eta.matrix.shape == tau.shape == (0, n, n)
    assert eta.signature.shape == (0, 2) and eta.invertible.shape == (0,)
    assert verify_intertwining(none, eta, np.zeros(0)).shape == (0,)
    assert antilinear_residual(none, tau, np.zeros(0)).shape == (0,)


def test_stacked_from_matrix_marks_what_a_single_call_refuses():
    singular = np.diag([1.0, 0.0]).astype(complex)
    metric = MetricOperator.from_matrix(np.stack([SIGMA3, singular, np.eye(2)]))
    assert metric.invertible.tolist() == [True, False, True]
    assert metric.signature.tolist() == [[1, 1], [1, 0], [2, 0]]
    assert metric.positive_definite.tolist() == [False, True, True]
    assert metric.indefinite.tolist() == [True, False, False]
    single = MetricOperator.from_matrix(SIGMA3)
    assert (metric.min_abs_eigenvalue[0], metric.norm[0]) == (single.min_abs_eigenvalue,
                                                              single.norm)
    with pytest.raises(NotInvertible):
        MetricOperator.from_matrix(singular)
    # Not self-adjoint is no metric at all, for a stack as for one matrix.
    with pytest.raises(NotAMetric):
        MetricOperator.from_matrix(np.stack([SIGMA3, np.array([[0, 1], [0, 0]], dtype=complex)]))


def test_array_records_compare_by_identity():
    # Equal-valued records hold equal arrays; a generated __eq__ would
    # compare those arrays and raise on their ambiguous truth value.
    eta1, eta2 = MetricOperator.from_matrix(np.eye(2)), MetricOperator.from_matrix(np.eye(2))
    H = pt2x2(1.0, np.pi / 6, 1.0)
    cls1, cls2 = classify(H), classify(H)
    grid = make_grid(4, 5.0, 1.0)
    D = np.diag([1.0, 2.0])
    stack = np.stack([H, D])
    for one, two in ((eta1, eta2), (cls1, cls2), (cls1.spectrum, cls2.spectrum),
                     (fv_modes(grid), fv_modes(grid)),
                     (restrict_to_physical(D), restrict_to_physical(D)),
                     (classify_group(stack), classify_group(stack))):
        assert (one == two) is False and one != two
        assert one == one
        assert len({one, two, one}) == 2
