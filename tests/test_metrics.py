import re

import numpy as np
import pytest

from pseudoherm import (
    EnsembleSpec,
    NoPositiveMetric,
    NotAMetric,
    NotCommuting,
    NotInvertible,
    NotPositiveDefinite,
    OperatorClass,
    UnpairedEigenvalue,
    antilinear_residual,
    antilinear_symmetry,
    build_general_metric,
    build_positive_metric,
    classify,
    decide_class,
    eig_full,
    eta_inner,
    generate,
    herm_residual,
    hermitize,
    jordan_block,
    pair_spectrum,
    pt2x2,
    spectral_norm,
    transform_metric,
    verify_intertwining,
)
from pseudoherm.cli import main, save_matrix
from pseudoherm.kleingordon import fv_modes, make_grid
from pseudoherm.linalg import KAPPA_MAX, Spectrum
from pseudoherm.metrics import REALITY_TOL, MetricOperator, similarity_residual
from pseudoherm.models import KINDS, EnsembleSpec, generate
from pseudoherm.physical import restrict_to_physical
from pseudoherm.suites import classify_group

from oracles import greedy_pairing, planted, signature_by_eigenvalues, spectra_mismatch

EPS = np.finfo(float).eps
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# pairing

def test_pair_spectrum_all_real():
    P = pair_spectrum(eig_full(np.diag([1.0, 2.0]).astype(complex)))
    assert P.tolist() == [0, 1]   # every eigenvalue its own partner


def test_pair_spectrum_one_pair():
    S = eig_full(np.diag([1j, -1j]))
    P = pair_spectrum(S)
    assert np.all(P != np.arange(2))   # no real eigenvalue
    n = int(np.argmax(S.eigenvalues.imag))
    nbar = P[n]
    assert S.eigenvalues[n].imag > 0
    assert abs(S.eigenvalues[nbar] - np.conj(S.eigenvalues[n])) < 1e-12
    assert P[nbar] == n


def test_pair_spectrum_pt_complex_pair():
    # closed form: eigenvalues +-i sqrt(3)/2
    S = eig_full(pt2x2(1.0, np.pi / 2, 0.5))
    P = pair_spectrum(S)
    assert np.count_nonzero(P != np.arange(2)) == 2   # one pair
    n = int(np.argmax(S.eigenvalues.imag))
    assert abs(S.eigenvalues[n] - 1j * np.sqrt(3) / 2) < 1e-12


def test_pair_spectrum_unpaired_raises():
    S = eig_full(np.array([[1, 1], [0, 2j]], dtype=complex))
    with pytest.raises(UnpairedEigenvalue) as info:
        pair_spectrum(S)
    assert abs(info.value.eigenvalue - 2j) < 1e-12


def test_pair_spectrum_tolerance_scales_with_magnitude():
    # |Im| = 1e-4 is above tol = 1e-9 but within tol * (1 + |lambda|) ~ 1e-3.
    P = pair_spectrum(np.array([1e6 + 1e-4j, 2.0]), tol=1e-9)
    assert P.tolist() == [0, 1]
    # A partner 1e-4 off conj(lambda) is matched under the same scaling.
    P = pair_spectrum(np.array([1e6 + 1j, 1e6 - 1j + 1e-4]), tol=1e-9)
    assert P.tolist() == [1, 0]


def test_pairing_partitions_indices():
    for seed in range(6):
        H, _, _ = generate(EnsembleSpec(6, seed, "pseudo_nonquasi"))
        S = eig_full(H)
        P = pair_spectrum(S)
        assert sorted(P.tolist()) == list(range(6))   # a permutation
        assert np.array_equal(P[P], np.arange(6))     # an involution: real or in pairs
        for n, nbar in enumerate(P.tolist()):
            lam = S.eigenvalues[n]
            assert abs(S.eigenvalues[nbar] - np.conj(lam)) <= 1e-9 * (1 + abs(lam))


# Exactly degenerate conjugate pairs: both copies of 1+i are nearest to the
# same 1-i, which a plain mutual-nearest rule leaves unpaired.
DEGENERATE = ([1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j], [1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j, 0.5])


def _similar_spectrum(lam, kappa, seed):
    """eig_full's eigenvalues of S diag(lam) S^{-1}, S with cond_2(S) = kappa."""
    rng = np.random.default_rng(seed)
    n = len(lam)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    S = (U * np.geomspace(1.0, 1.0 / kappa, n)) @ W
    return eig_full((S * np.asarray(lam)) @ np.linalg.inv(S)).eigenvalues


def _oracle_spectra():
    """Eigenvalues of generated instances of every kind at dims 1-12, as they
    come, with exact duplicates, and with the duplicates moved 0.1-10 times
    the reality tolerance; then the degenerate spectra, alone and under a
    kappa = 10 similarity; then planted n = 64 and 256 spectra with n // 4
    conjugate pairs in random order, with distinct pairs, with pairs drawn
    again from the same centres, and with exact duplicates of any entry."""
    rng = np.random.default_rng(17)
    for kind in KINDS:
        for n in range(2 if kind in ("pseudo_nonquasi", "defective") else 1, 13):
            for seed in range(3):
                out = generate(EnsembleSpec(n, seed, kind))
                w = eig_full(out[0] if isinstance(out, tuple) else out).eigenvalues
                yield w
                at = rng.permutation(n)[:max(n // 2, 1)]
                dup = w.copy()
                dup[at] = w[rng.integers(0, n, len(at))]
                yield dup
                step = REALITY_TOL * (1 + np.abs(dup[at])) * 10 ** rng.uniform(-1, 1, len(at))
                near = dup.copy()
                near[at] += step * np.exp(2j * np.pi * rng.uniform(size=len(at)))
                yield near
    for lam in DEGENERATE:
        yield np.array(lam)
        yield _similar_spectrum(lam, 10.0, 3)
    for n in (64, 256):
        for seed in range(3):
            centres = rng.uniform(-1, 1, n // 4) + 1j * rng.uniform(1e-2, 1, n // 4)
            fill = rng.uniform(-1, 1, n - n // 2)
            for pairs in (centres, centres[rng.integers(0, n // 4, n // 4)]):
                yield rng.permutation(np.concatenate([pairs, pairs.conj(), fill]))
            dup = rng.permutation(np.concatenate([centres, centres.conj(), fill]))
            dup[rng.permutation(n)[:n // 8]] = dup[rng.integers(0, n, n // 8)]
            yield dup


def test_pair_spectrum_matches_the_frozen_greedy_loop():
    by_dim = {}
    for w in _oracle_spectra():
        want = greedy_pairing(w, REALITY_TOL)
        if isinstance(want, complex):
            with pytest.raises(UnpairedEigenvalue) as info:
                pair_spectrum(w)
            assert info.value.eigenvalue == want
        else:
            assert np.array_equal(pair_spectrum(w), want), w
        by_dim.setdefault(len(w), []).append((w, want))
    unpaired = 0
    for cases in by_dim.values():
        stacked = pair_spectrum(np.stack([w for w, _ in cases]))
        for row, (w, want) in zip(stacked, cases):
            if isinstance(want, complex):   # -1 at the unpaired eigenvalue, n -> n elsewhere
                unpaired += 1
                lost = np.flatnonzero(row < 0)
                assert len(lost) == 1 and w[lost[0]] == want
                assert np.array_equal(np.delete(row, lost), np.delete(np.arange(len(w)), lost))
            else:
                assert np.array_equal(row, want)
    assert 0 < unpaired < sum(map(len, by_dim.values()))   # both outcomes are exercised


def test_degenerate_conjugate_pairs_pair_in_greedy_order():
    # Largest Im first, then the lowest index: the first copy of 1+i takes the first 1-i.
    assert pair_spectrum(np.array(DEGENERATE[0])).tolist() == [2, 3, 0, 1]
    assert pair_spectrum(np.array(DEGENERATE[1])).tolist() == [1, 0, 3, 2, 4]
    for lam in DEGENERATE:
        H = np.diag(lam).astype(complex)
        assert classify(H).kind is OperatorClass.PSEUDO_HERMITIAN_ONLY


def test_metric_operator_signature_counts_fill_dimension():
    for seed in range(4):
        H, _, _ = generate(EnsembleSpec(5, seed, "quasi"))
        S = eig_full(H)
        eta = build_general_metric(S, pair_spectrum(S), signs=[1, 1, -1, 1, -1])
        assert sum(eta.signature) == 5
        assert eta.min_abs_eigenvalue > 0
        assert herm_residual(eta.matrix) <= 1e-10


# ---------------------------------------------------------------------------
# classification

def test_classify_examples():
    assert classify(SIGMA1).kind is OperatorClass.HERMITIAN
    assert classify(pt2x2(1, np.pi / 6, 1)).kind is OperatorClass.QUASI_HERMITIAN
    assert classify(pt2x2(1, np.pi / 2, 0.5)).kind is OperatorClass.PSEUDO_HERMITIAN_ONLY
    assert classify(np.array([[0, 1], [0, 0]], dtype=complex)).kind is OperatorClass.NON_DIAGONALIZABLE
    assert classify(np.array([[1, 1], [0, 2j]], dtype=complex)).kind is OperatorClass.NOT_PSEUDO_HERMITIAN


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-10, 1e-200])
def test_the_class_band_scales_with_h(c):
    # Eigenvalues +/- i sqrt(3)/2 c: the band's floor tol ||H|| scales with them, so
    # the pair stays a pair where a band of tol (1 + |lambda|) swallowed it (c <= 1e-10).
    assert classify(c * pt2x2(1, np.pi / 2, 0.5)).kind is OperatorClass.PSEUDO_HERMITIAN_ONLY


def test_the_class_band_follows_each_eigenvalues_conditioning():
    # A planted real spectrum at n = 256, cond(S) = 1e5 (diag_score 1.2e6): the Im
    # parts eig leaves lie within kappa_n eps ||H||, not within tol (1 + |lambda|).
    H, _ = planted(np.random.default_rng([11, 5]), 256, "real", 1e5)
    assert classify(H).kind is OperatorClass.QUASI_HERMITIAN


def test_a_pair_within_the_bands_of_a_real_eigenvalue_is_indeterminate(tmp_path):
    # U diag(2, 1, 1 + d i, 1 - d i) U^dag, U a random unitary: ||H|| = 2 and kappa_n = 1,
    # so each band is 2e-9.  d = 3e-9 puts 1 + d i past its band but 1 within both
    # bands of its conjugate: a pair and two reals are equally consistent, and classify
    # refuses with Indeterminate, alone, in a stack and through the CLI (exit 3).
    # d = 5e-9 is a pair and d = 1e-9 a real spectrum.
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    stack = np.stack([(U * np.array([2, 1, 1 + d * 1j, 1 - d * 1j])) @ U.conj().T
                      for d in (3e-9, 5e-9, 1e-9)])
    cls = classify(stack)
    assert cls.kind.tolist() == ["Indeterminate", "PseudoHermitianOnly", "QuasiHermitian"]
    assert cls.pairing[0].tolist() == [-1] * 4 and cls.diagnostics["n_real"][0] == -1
    one = classify(stack[0])
    assert one.kind is OperatorClass.INDETERMINATE and one.pairing is None
    path = tmp_path / "indeterminate.json"
    save_matrix(stack[0], path)
    for argv in (["classify"], ["classify", "--emit-metric"], ["metric"], ["hermitize"],
                 ["symmetry"]):
        assert main([*argv, str(path)]) == 3, argv


def test_classify_reports_diagnostics():
    cls = classify(pt2x2(1, np.pi / 6, 1))
    assert cls.diagnostics["hermiticity_residual"] > 1e-9  # genuinely non-Hermitian
    assert cls.diagnostics["diag_score"] < 1e3
    assert cls.diagnostics["n_real"] == 2


def test_classify_refuses_an_overflowing_norm():
    # At 5e307 ||H - H^dag||_F overflows, at 1e308 ||H|| itself.  On the 2x2,
    # an inf ||H|| would divide the finite 2e300 skew part down to a Hermitian 0.0.
    H = generate(EnsembleSpec(6, 4, "quasi"))[0]
    skewed = np.array([[1e308, 1e308 + 1e300], [1e308 - 1e300, 1e308]])
    for M in (5e307 * H, 1e308 * H, skewed, np.stack([H, 1e308 * H]), np.stack([SIGMA1, skewed])):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflows"):
                classify(M)
    near = classify(1e307 * H)
    assert near.kind is OperatorClass.QUASI_HERMITIAN
    assert np.isfinite(near.diagnostics["hermiticity_residual"])


def test_classify_refuses_an_overflowing_norm_with_only_overflow_silenced():
    # At 1e308 ||H|| overflows: the Hermiticity residual is not formed from it, since
    # inf / inf would warn (an error here) before the refusal, alone or in a stack.
    H = generate(EnsembleSpec(6, 4, "quasi"))[0]
    for M in (1e308 * H, np.stack([H, 1e308 * H])):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflows"):
                classify(M)


def test_decide_class_takes_the_first_class_that_holds():
    # Rows 0 and 1 also have an unpaired eigenvalue, row 0 a Hermitian residual too,
    # and row 3 too: 1 + 1.5e-9 i is past its band of 1e-9, but 1 lies within the two
    # bands of its conjugate.  The first class of the precedence list that holds wins.
    # Row 6's kappa_n = 1e10 widens its band to 2.2e-6, past the 1e-6 Im part.
    w = np.array([[1j, 2.0], [1j, 2.0], [1j, 2.0], [1.0, 1.0 + 1.5e-9j], [1.0, 2.0],
                  [1 + 1j, 1 - 1j], [1.0, 2.0 + 1e-6j]])
    score = np.array([10 * KAPPA_MAX, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    residual = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    kappa = np.ones(w.shape)
    kappa[6, 1] = 1e10
    norm = np.ones(len(w))
    kind, pairing, diagnostics = decide_class(w, score, residual, kappa, norm)
    assert kind.tolist() == ["NonDiagonalizable", "Hermitian", "NotPseudoHermitian",
                             "Indeterminate", "QuasiHermitian", "PseudoHermitianOnly",
                             "QuasiHermitian"]
    assert pairing.tolist() == [[-1, -1], [0, 1], [-1, -1], [-1, -1], [0, 1], [1, 0], [0, 1]]
    assert diagnostics["n_real"].tolist() == [-1, 2, -1, -1, 2, 0, 2]
    for i in range(len(w)):
        one = decide_class(w[i], score[i], residual[i], kappa[i], norm[i])
        assert one[0] == kind[i] and np.array_equal(one[1], pairing[i]), i
        for key, value in one[2].items():
            assert np.array_equal(value, diagnostics[key][i], equal_nan=True), (i, key)
    kappa[6, 1] = 1.0
    assert decide_class(w[6], score[6], residual[6], kappa[6], norm[6])[0] == "NotPseudoHermitian"


def test_inclusion_chain_hermitian_passes_quasi_checks():
    for seed in range(5):
        H = generate(EnsembleSpec(4, seed, "hermitian"))
        S = eig_full(H)
        eta = build_positive_metric(S)
        assert eta.positive_definite
        assert verify_intertwining(H, eta) <= 1e-8
        rho, h, _ = hermitize(H, eta)
        assert herm_residual(h) <= 1e-8


def test_inclusion_chain_quasi_passes_pseudo_checks():
    for seed in range(5):
        H, _, _ = generate(EnsembleSpec(5, seed, "quasi"))
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
    assert herm_residual(eta.matrix) <= 1e-10


def test_positive_metric_refused_for_complex_pair():
    with pytest.raises(NoPositiveMetric):
        build_positive_metric(eig_full(pt2x2(1, np.pi / 2, 0.5)))


def test_a_spectrum_alone_is_paired_at_any_scale():
    # Eigenvalues +/-0.866e-10 i.  A Spectrum with a float tol gets decide_class's band,
    # max |lambda| standing in for ||H||, so the pair stays a pair at 1e-10 as at 1;
    # a bare array keeps tol (1 + |lambda|) and reads the pair as real.
    for scale in (1.0, 1e-10):
        S = eig_full(scale * pt2x2(1, np.pi / 2, 0.5))
        assert pair_spectrum(S).tolist() == [1, 0], scale
        with pytest.raises(NoPositiveMetric):
            build_positive_metric(S)
    assert pair_spectrum(S.eigenvalues).tolist() == [0, 1]
    stacked = eig_full(1e-10 * np.stack([pt2x2(1, np.pi / 2, 0.5), pt2x2(1, np.pi / 6, 1)]))
    assert pair_spectrum(stacked).tolist() == [[1, 0], [0, 1]]
    H = 1e-10 * pt2x2(1, np.pi / 6, 1)   # a real spectrum keeps its positive metric
    assert verify_intertwining(H, build_positive_metric(eig_full(H))) <= 1e-10


# ---------------------------------------------------------------------------
# general metric

def test_general_metric_with_plus_signs_equals_positive():
    H, _, _ = generate(EnsembleSpec(4, 9, "quasi"))
    S = eig_full(H)
    P = pair_spectrum(S)
    eta_gen = build_general_metric(S, P, signs=[1] * 4)
    eta_pos = build_positive_metric(S)
    assert spectral_norm(eta_gen.matrix - eta_pos.matrix) < 1e-10


def test_pairing_products_match_outer_product_sums():
    # Reference: eta and tau summed term by term over the pairing.
    H, _, _ = generate(EnsembleSpec(9, 5, "pseudo_nonquasi"))
    S = eig_full(H)
    P = pair_spectrum(S)
    real = np.flatnonzero(P == np.arange(9))
    pairs = [(n, nbar) for n, nbar in enumerate(P.tolist()) if n < nbar]
    signs = [(-1) ** k for k in range(len(real))]
    phi, psi = S.left, S.right
    eta_ref = sum(s * np.outer(phi[:, n], phi[:, n].conj())
                  for s, n in zip(signs, real))
    tau_ref = sum(np.outer(psi[:, n], phi[:, n]) for n in real)
    for n, nbar in pairs:
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
    H, _, _ = generate(EnsembleSpec(5, 21, "quasi"))
    S = eig_full(H)
    P = pair_spectrum(S)
    eta = build_general_metric(S, P, signs=[1, -1, 1, -1, 1])
    assert eta.signature == (3, 2)
    assert signature_by_eigenvalues(eta.matrix) == (3, 2)


def test_general_metric_validates_signs():
    H, _, _ = generate(EnsembleSpec(3, 0, "quasi"))
    S = eig_full(H)
    P = pair_spectrum(S)
    with pytest.raises(ValueError):
        build_general_metric(S, P, signs=[1, 1])
    with pytest.raises(ValueError):
        build_general_metric(S, P, signs=[1, 2, 1])


def test_quasi_but_indefinite_metrics_exist():
    # mixed signs give indefinite members of the metric family for any dim >= 2
    for seed in range(5):
        H, _, _ = generate(EnsembleSpec(4, 40 + seed, "quasi"))
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
    # ||H^dag - H||_F = ||diag(-2i, 2i)||_F = 2 sqrt 2 over the exact ||H|| ||I|| = 1.
    assert verify_intertwining(H, np.eye(2, dtype=complex)) == pytest.approx(2 * np.sqrt(2))


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
    H, _, _ = generate(EnsembleSpec(5, 13, "quasi"))
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
    eta = G + np.swapaxes(G.conj(), -1, -2)   # indefinite
    norm = spectral_norm(eta)
    psi, chi = rng.standard_normal((2, k, pairs, n)) + 1j * rng.standard_normal((2, k, pairs, n))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    chi /= np.linalg.norm(chi, axis=-1, keepdims=True)
    stacked = eta_inner(eta, psi, chi)                    # one eta per row of pairs
    shared = eta_inner(eta[0], psi, chi)                  # one eta for every pair
    assert stacked.shape == shared.shape == (k, pairs)
    for i in range(k):
        for j in range(pairs):
            one = eta_inner(eta[i], psi[i, j], chi[i, j])
            assert isinstance(one, complex)
            assert abs(stacked[i, j] - one) <= 4 * EPS * norm[i], (i, j)
            one = eta_inner(eta[0], psi[i, j], chi[i, j])
            assert abs(shared[i, j] - one) <= 4 * EPS * norm[0], (i, j)


# ---------------------------------------------------------------------------
# hermitization

def test_hermitize_identity_metric_is_identity_map():
    H = generate(EnsembleSpec(3, 4, "hermitian"))
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
    H, lam, _ = generate(EnsembleSpec(6, 3, "quasi"))
    eta = build_positive_metric(eig_full(H))
    rho, h, _ = hermitize(H, eta)
    assert herm_residual(h) <= 1e-8
    assert spectra_mismatch(np.linalg.eigvals(h), lam) <= 1e-8 * (1 + np.max(np.abs(lam)))


def test_hermitize_is_scale_free_in_eta():
    # c eta_+ is as good a metric as eta_+, and rho H rho^{-1} does not see c;
    # from_matrix accepts 1e-11 eta_+, so hermitize must too, and match the polar route.
    H, lam, _ = generate(EnsembleSpec(4, 3, "quasi"))
    S = eig_full(H)
    eta = build_positive_metric(S)
    _, h, _ = hermitize(H, S)
    for c in (1e-11, 1e-14):
        small = MetricOperator.from_matrix(c * eta.matrix)
        assert small.positive_definite
        _, h_small, residuals = hermitize(H, small)
        assert residuals["intertwining"] <= 1e-12 and herm_residual(h_small) <= 1e-8
        assert spectral_norm(h_small - h) <= 1e-10 * spectral_norm(h)


def test_hermitize_rejects_non_metric():
    H = pt2x2(1, np.pi / 6, 1)   # non-normal, identity does not intertwine
    with pytest.raises(NotAMetric):
        hermitize(H, np.eye(2, dtype=complex))


def test_hermitize_refuses_a_nan_residual():
    # 100 I does not intertwine H (residual 1.67 at scale 1).  At 1e307 the
    # commutator overflows and the residual is NaN, which must refuse too.
    H = generate(EnsembleSpec(6, 4, "quasi"))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(verify_intertwining(H * 1e307, 100 * np.eye(6)))
        for c in (1.0, 1e307):
            with pytest.raises(NotAMetric):
                hermitize(H * c, 100 * np.eye(6))
        rho, h, _ = hermitize(H[None] * 1e307, 100 * np.eye(6)[None])
    assert np.all(np.isnan(rho)) and np.all(np.isnan(h))


def test_stacked_hermitize_marks_what_a_single_call_refuses():
    # Alone, a metric that does not intertwine raises NotAMetric and an
    # indefinite one NotPositiveDefinite.  In a stack those get all-NaN rho
    # and h, and every other matrix keeps its own hermitize bit for bit.
    quasi, _, _ = generate(EnsembleSpec(4, 2, "quasi"))
    eta_plus = build_positive_metric(eig_full(quasi))
    H = np.stack([quasi, quasi, np.diag([1.0, 2.0, 3.0, 4.0]),
                  generate(EnsembleSpec(4, 1, "hermitian"))])
    eta = np.stack([eta_plus.matrix, np.eye(4), np.diag([1.0, -1.0, 1.0, 1.0]), np.eye(4)])
    refused = {1: NotAMetric, 2: NotPositiveDefinite}
    rho, h, residuals = hermitize(H, eta)
    for i, (one_H, one_eta) in enumerate(zip(H, eta)):
        assert residuals["intertwining"][i] == verify_intertwining(one_H, one_eta), i
        if i in refused:
            with pytest.raises(refused[i]):
                hermitize(one_H, one_eta)
            assert np.all(np.isnan(rho[i])) and np.all(np.isnan(h[i])), i
        else:
            one_rho, one_h, _ = hermitize(one_H, one_eta)
            assert np.array_equal(rho[i], one_rho) and np.array_equal(h[i], one_h), i
    # A stacked MetricOperator, built from a stacked Spectrum, gives its norms, and
    # the same roots as its plain matrices, which take herm_sqrt's route as it does.
    metric = build_positive_metric(eig_full(H[[0, 3]]))
    assert np.array_equal(metric.matrix[0], eta_plus.matrix)
    rho, h, _ = hermitize(H[[0, 3]], metric)
    assert np.array_equal(rho[0], hermitize(quasi, eta_plus.matrix)[0])
    assert np.array_equal(h[1], hermitize(H[3], metric.matrix[1])[1])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_one_metric_serves_a_stack_of_h(k):
    # One (n, n) metric for a (k, n, n) stack: each row gets its own single call
    # bit for bit, and a NaN row where that call raises (the diagonal H, which
    # eta does not intertwine), whatever k is next to n = 3.
    H, _, _ = generate(EnsembleSpec(3, 2, "quasi"))
    eta = build_positive_metric(eig_full(H))
    stack = np.stack([H] * k + [np.diag([1.0, 2.0, 3.0])])
    for metric in (eta.matrix, eta):
        one_rho, one_h, one = hermitize(H, metric)
        rho, h, residuals = hermitize(stack, metric)
        for i in range(k):
            assert np.array_equal(rho[i], one_rho) and np.array_equal(h[i], one_h), i
            assert [residuals[key][i] for key in one] == list(one.values()), i
        with pytest.raises(NotAMetric):
            hermitize(stack[k], metric)
        assert np.all(np.isnan(rho[k])) and np.all(np.isnan(h[k]))


def test_one_metric_for_a_stack_is_rooted_and_inverted_once(monkeypatch):
    # rho depends on the metric alone: one eigh and one inv, of one n x n matrix
    # each, serve every row of the stack.
    H, _, _ = generate(EnsembleSpec(3, 2, "quasi"))
    eta = build_positive_metric(eig_full(H))
    calls = []
    for name in ("eigh", "inv"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda A, name=name, original=original:
                            calls.append((name, np.shape(A))) or original(A))
    rho, h, _ = hermitize(np.stack([H] * 4), eta)
    assert calls == [("eigh", (1, 3, 3)), ("inv", (1, 3, 3))]
    assert not np.isnan(h).any()
    # A refused root is NaN in every row, with nothing to invert.
    indefinite = build_general_metric(eig_full(H), np.arange(3), [1.0, -1.0, 1.0])
    calls.clear()
    rho, h, _ = hermitize(np.stack([H] * 4), indefinite)
    assert calls == [("eigh", (1, 3, 3))] and np.isnan(rho).all() and np.isnan(h).all()


def test_hermitize_refuses_a_metric_that_does_not_broadcast_to_h():
    H, _, _ = generate(EnsembleSpec(3, 2, "quasi"))
    eta = build_positive_metric(eig_full(H)).matrix
    for one_H, metric in ((H, np.stack([eta] * 2)), (H, eta[None]),
                          (np.stack([H] * 3), np.stack([eta] * 2)),
                          (H, build_positive_metric(eig_full(np.stack([H] * 2))))):
        shapes = f"{np.shape(getattr(metric, 'matrix', metric))} cannot broadcast to H's {one_H.shape}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            hermitize(one_H, metric)


def test_single_hermitize_keeps_the_square_root_refusal():
    # One matrix runs as a stack of one, yet an indefinite eta that intertwines H
    # still raises herm_sqrt's own NotPositiveDefinite with its message.
    with pytest.raises(NotPositiveDefinite, match="minimum eigenvalue"):
        hermitize(np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([1.0, -1.0, 1.0, 1.0]))


def test_polar_route_agrees_with_the_square_root_and_refuses_an_indefinite_metric(monkeypatch):
    # A Spectrum takes the polar route.  A built metric is used as given, as its
    # plain matrix is: both take herm_sqrt's route, to the same rho and h bit for
    # bit.  Both routes give the same rho and h to roundoff, both Hermitian bit for
    # bit.  A built metric with a negative sign intertwines H too, but has no
    # positive root: herm_sqrt refuses it, one matrix by raising, a stack by a NaN row.
    H, lam, _ = generate(EnsembleSpec(4, 2, "quasi"))
    S = eig_full(H)
    eta = build_positive_metric(S)
    assert not hasattr(eta, "spectrum")
    with monkeypatch.context() as patch:   # the polar route inverts and eigensolves nothing
        for name in ("inv", "eig", "eigh", "eigvals", "eigvalsh"):
            patch.setattr(np.linalg, name, lambda *args, **kwargs: pytest.fail("decomposed"))
        rho, h, residuals = hermitize(H, S)
    # The gate divides by ||rho|| = sigma_max of Phi, from the SVD it took.
    sigma_max = np.linalg.svd(S.left[None])[1][0, 0]
    assert residuals["similarity"] == similarity_residual(H, rho, h, rho_norm=sigma_max)
    bounded = similarity_residual(H, rho, h)   # over norm_lower_bound(rho), up to rho's roundoff
    assert residuals["similarity"] <= bounded * (1 + 4 * len(H) * np.finfo(float).eps)
    plain_rho, plain_h, _ = hermitize(H, eta.matrix)
    built_rho, built_h, _ = hermitize(H, eta)
    assert np.array_equal(built_rho, plain_rho) and np.array_equal(built_h, plain_h)
    for A in (rho, h, plain_rho, plain_h):
        assert np.array_equal(A, A.conj().T)
    assert spectral_norm(rho - plain_rho) <= 1e-12 * spectral_norm(rho)
    assert spectral_norm(h - plain_h) <= 1e-12 * spectral_norm(h)
    assert similarity_residual(H, rho, h) <= 1e-14
    assert spectra_mismatch(np.linalg.eigvalsh(h), lam) <= 1e-12
    signs = [1.0, -1.0, 1.0, 1.0]
    indefinite = build_general_metric(S, np.arange(4), signs)
    assert verify_intertwining(H, indefinite) <= 1e-12
    with pytest.raises(NotPositiveDefinite, match="minimum eigenvalue"):
        hermitize(H, indefinite)
    stacked = build_general_metric(eig_full(np.stack([H, H])), np.tile(np.arange(4), (2, 1)),
                                   [1.0] * 4 + signs)
    rho, h, _ = hermitize(np.stack([H, H]), stacked)
    assert np.array_equal(rho[0], built_rho) and np.array_equal(h[0], built_h)
    assert np.all(np.isnan(rho[1])) and np.all(np.isnan(h[1]))


def test_hermitize_gives_the_h_of_the_h_it_is_given_or_refuses():
    # The eta_+ of H intertwines H + 3 I and 2 H as well, so they pass the
    # intertwining gate.  A metric, built or plain, is used as given: its root rho
    # maps them to their own h.  The polar route reads h off H's Spectrum, so only
    # the similarity gate rho H = h rho can refuse them: one matrix raises
    # NotAMetric, a stack gets a NaN row beside the right one.
    H, lam, _ = generate(EnsembleSpec(4, 2, "quasi"))
    S = eig_full(H)
    eta = build_positive_metric(S)
    for wrong, wrong_lam in ((H + 3 * np.eye(4), lam + 3), (2 * H, 2 * lam)):
        assert verify_intertwining(wrong, eta) <= 1e-12
        with pytest.raises(NotAMetric, match=r"rho H != h rho: similarity \S+ > INTERTWINE_TOL"):
            hermitize(wrong, S)
        for metric in (eta, eta.matrix):
            rho, h, _ = hermitize(wrong, metric)
            assert similarity_residual(wrong, rho, h) <= 1e-12
            assert spectra_mismatch(np.linalg.eigvalsh(h), wrong_lam) <= 1e-12 * np.max(wrong_lam)
        rho, h, _ = hermitize(np.stack([H, wrong]), eig_full(np.stack([H, H])))
        one_rho, one_h, _ = hermitize(H, S)
        assert np.array_equal(rho[0], one_rho) and np.array_equal(h[0], one_h)
        assert np.all(np.isnan(rho[1])) and np.all(np.isnan(h[1]))


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
    H, _, _ = generate(EnsembleSpec(4, 17, "quasi"))
    eta = build_positive_metric(eig_full(H))
    same = transform_metric(eta, np.eye(4, dtype=complex), H)
    assert np.allclose(same.matrix, eta.matrix)
    scaled = transform_metric(eta, 3.0 * np.eye(4, dtype=complex), H)
    assert np.allclose(scaled.matrix, 9.0 * eta.matrix)


def test_transform_metric_polynomial_commutant():
    for seed in range(5):
        H, _, _ = generate(EnsembleSpec(5, 60 + seed, "quasi"))
        eta = build_positive_metric(eig_full(H))
        A = H @ H + np.eye(5)
        moved = transform_metric(eta, A, H)
        assert verify_intertwining(H, moved) <= 1e-8
        assert moved.positive_definite


def test_transform_metric_rejects_noncommuting():
    H, _, _ = generate(EnsembleSpec(4, 2, "quasi"))
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


def test_transform_metric_refuses_a_singular_commutant_by_from_matrix():
    # The spectral projector psi_0 phi_0^dag commutes with H and has rank 1, so
    # A^dag eta A is singular and from_matrix refuses it.
    H, _, _ = generate(EnsembleSpec(4, 17, "quasi"))
    S = eig_full(H)
    with pytest.raises(NotInvertible):
        transform_metric(build_positive_metric(S), np.outer(S.right[:, 0], S.left[:, 0].conj()), H)


def test_transform_metric_refuses_a_singular_noncommutant_by_the_commutator():
    # psi_0 phi_1^dag has rank 1 and [A, H] = (lambda_0 - lambda_1) A.
    H, _, _ = generate(EnsembleSpec(4, 17, "quasi"))
    S = eig_full(H)
    with pytest.raises(NotCommuting):
        transform_metric(build_positive_metric(S), np.outer(S.right[:, 0], S.left[:, 1].conj()), H)


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
    quasi, _, _ = generate(EnsembleSpec(n, 2, "quasi"))
    paired, _, _ = generate(EnsembleSpec(n, 3, "pseudo_nonquasi"))
    unpaired = np.diag([1 + 1j, 2.0, 3.0, 4 - 0.5j])
    stack = np.stack([quasi, paired, generate(EnsembleSpec(n, 1, "hermitian")), unpaired, quasi.T,
                      jordan_block(n, 0.3)])
    cls = classify(stack)
    singles = [classify(M) for M in stack]
    assert [one.kind for one in singles] == [
        OperatorClass.QUASI_HERMITIAN, OperatorClass.PSEUDO_HERMITIAN_ONLY,
        OperatorClass.HERMITIAN, OperatorClass.NOT_PSEUDO_HERMITIAN,
        OperatorClass.QUASI_HERMITIAN, OperatorClass.NON_DIAGONALIZABLE]
    for i, one in enumerate(singles):
        assert cls.kind[i] == one.kind, i
        if one.pairing is None:
            assert np.all(cls.pairing[i] == -1), i
        else:
            assert np.array_equal(cls.pairing[i], one.pairing), i
        assert {key: value[i].item() for key, value in cls.diagnostics.items()
                if key in one.diagnostics} == one.diagnostics, i
        assert np.array_equal(cls.spectrum.left[i], one.spectrum.left), i
    # The stacked names compare as data: elementwise, against every class.
    for member in OperatorClass:
        assert (cls.kind == member).tolist() == [one.kind is member for one in singles], member
    assert np.isin(cls.kind, [OperatorClass.HERMITIAN, OperatorClass.QUASI_HERMITIAN]).tolist() \
        == [True, False, True, False, True, False]

    keep = [0, 1, 2, 4]
    S = Spectrum(n, *(a[keep] for a in (cls.spectrum.eigenvalues, cls.spectrum.right,
                                        cls.spectrum.left, cls.spectrum.diag_score)))
    pairings = cls.pairing[keep]
    assert np.count_nonzero(pairings == np.arange(n), axis=-1).tolist() == [4, 0, 4, 4]
    signs = [[1, -1, 1, 1], [], [-1, -1, 1, -1], [1, 1, -1, 1]]   # one per real eigenvalue
    norms = cls.diagnostics["norm"][keep]
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
            assert herm_residual(got.matrix)[j] == herm_residual(want.matrix), i
            assert got.min_abs_eigenvalue[j] == want.min_abs_eigenvalue, i
            assert got.norm[j] == want.norm, i
        single_eta = build_general_metric(one.spectrum, one.pairing)
        assert residual[j] == verify_intertwining(H, single_eta, one.diagnostics["norm"]), i
        assert (verify_intertwining(stack[keep], eta.matrix)[j]
                == verify_intertwining(H, single_eta.matrix)), i
        single_tau = antilinear_symmetry(one.spectrum, one.pairing)
        assert np.array_equal(tau[j], single_tau), i
        assert commutation[j] == antilinear_residual(H, single_tau, one.diagnostics["norm"]), i
        assert antilinear_residual(stack[keep], tau)[j] == antilinear_residual(H, single_tau), i
    # One h_norm for the whole stack broadcasts over it.
    assert verify_intertwining(stack[keep], eta, 1.0).shape == (4,)
    assert antilinear_residual(stack[keep], tau, 1.0).shape == (4,)

    # A group with no paired matrix is a (0, n, n) stack.
    none = np.zeros((0, n, n), dtype=complex)
    empty = classify(none)
    assert empty.kind.shape == (0,) and empty.pairing.shape == (0, n)
    assert all(value.shape == (0,) for value in empty.diagnostics.values())
    eta = build_general_metric(empty.spectrum, empty.pairing)
    tau = antilinear_symmetry(empty.spectrum, empty.pairing)
    assert eta.matrix.shape == tau.shape == (0, n, n)
    assert eta.signature.shape == (0, 2) and eta.norm.shape == (0,)
    assert verify_intertwining(none, eta, np.zeros(0)).shape == (0,)
    assert antilinear_residual(none, tau, np.zeros(0)).shape == (0,)


def test_from_matrix_takes_one_matrix_and_a_built_stack_carries_its_signatures():
    # from_matrix serves one metric the caller supplies, and eigensolves it; a stack
    # of metrics comes from build_general_metric, whose Sylvester signatures are arrays.
    with pytest.raises(ValueError, match="expected a square matrix"):
        MetricOperator.from_matrix(np.stack([SIGMA3, np.eye(2)]))
    with pytest.raises(NotInvertible):
        MetricOperator.from_matrix(np.diag([1.0, 0.0]).astype(complex))
    S = eig_full(np.stack([SIGMA1, SIGMA1, np.diag([1j, -1j])]))
    metric = build_general_metric(S, pair_spectrum(S), [1, -1, 1, 1])
    assert metric.signature.tolist() == [[1, 1], [2, 0], [1, 1]]
    assert metric.positive_definite.tolist() == [False, True, False]
    assert metric.indefinite.tolist() == [True, False, True]
    for i, M in enumerate(metric.matrix):
        given = MetricOperator.from_matrix(M)
        assert given.signature == signature_by_eigenvalues(M) == tuple(metric.signature[i]), i
        assert metric.min_abs_eigenvalue[i] == given.min_abs_eigenvalue > 0, i
        assert metric.norm[i] <= given.norm * (1 + 4 * EPS), i


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
