"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion including elapsed time.  Every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from pseudoherm import (
    NoPositiveMetric,
    OperatorClass,
    antilinear_residual,
    antilinear_symmetry,
    build_general_metric,
    build_positive_metric,
    classify,
    eig_full,
    eta_inner,
    evolve,
    fv_hamiltonian,
    herm_residual,
    hermitize,
    indefinite_physical_set,
    kg_inner,
    make_grid,
    pair_spectrum,
    pd_inner,
    pt2x2,
    random_state,
    restrict_to_physical,
    sigma3_metric,
    spectral_norm,
    transform_metric,
    verify_intertwining,
)
from pseudoherm.models import EnsembleSpec, generate
from pseudoherm.suites import make_ensemble

from oracles import (
    mode_sum_pd,
    pt2x2_eigenvalues,
    quadrature_pd_inner,
    spectra_mismatch,
)

RESIDUAL_TOL = 1e-8


def _run(num, label, limit, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        if limit is not None:
            assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit}s budget"
    except Exception:
        print(f"[acceptance] criterion {num} ({label}): FAIL "
              f"after {time.perf_counter() - t0:.2f}s")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def ensemble500():
    return make_ensemble(["quasi", "pseudo_nonquasi", "hermitian"],
                         500, range(2, 9), base_seed=20_000)


def _matrix_of(spec):
    out = generate(spec)
    return out[0] if isinstance(out, tuple) else out


def test_criterion_1_conjugation_equivalence(ensemble500):
    """Paired spectrum <=> intertwining metric <=> antilinear symmetry,
    leg agreement on all 500 instances."""

    def body():
        for spec in ensemble500:
            H = _matrix_of(spec)
            S = eig_full(H)
            assert S.diag_score <= 1e8, spec
            try:
                pairing = pair_spectrum(S)
                leg_a = True
            except Exception:
                pairing, leg_a = None, False

            if pairing is None:
                leg_b = leg_c = False
            else:
                eta = build_general_metric(S, pairing)
                leg_b = verify_intertwining(H, eta) <= RESIDUAL_TOL
                tau = antilinear_symmetry(S, pairing)
                sv = np.linalg.svd(tau, compute_uv=False)
                leg_c = (antilinear_residual(H, tau) <= RESIDUAL_TOL
                         and sv[-1] > 1e-12 * sv[0])
            assert leg_a == leg_b == leg_c, (spec, leg_a, leg_b, leg_c)
            assert leg_a, spec   # these ensembles are all conjugate-paired

    _run(1, "conjugation/metric/antilinear equivalence, 500 instances", 30.0, body)


def test_criterion_2_positive_metric_equivalence(ensemble500):
    """Real spectrum <=> positive metric + Hermitization + metric
    Hermiticity; refusal on every conjugate-paired instance."""

    def body():
        expected_kind = {
            "quasi": OperatorClass.QUASI_HERMITIAN,
            "hermitian": OperatorClass.HERMITIAN,
            "pseudo_nonquasi": OperatorClass.PSEUDO_HERMITIAN_ONLY,
        }
        for spec in ensemble500:
            H = _matrix_of(spec)
            assert classify(H).kind is expected_kind[spec.kind], spec
            S = eig_full(H)

            if spec.kind == "pseudo_nonquasi":
                with pytest.raises(NoPositiveMetric):
                    build_positive_metric(S)
                continue

            eta = build_positive_metric(S)
            assert eta.min_abs_eigenvalue > 0 and eta.positive_definite, spec

            rho, h, _ = hermitize(H, eta)
            assert herm_residual(h) <= RESIDUAL_TOL, spec
            lam_in = np.linalg.eigvals(H)
            drift = spectra_mismatch(np.linalg.eigvals(h), lam_in)
            assert drift <= RESIDUAL_TOL * (1 + np.max(np.abs(lam_in))), spec

            rng = np.random.default_rng([spec.seed, 2])
            scale = spectral_norm(H) * spectral_norm(eta.matrix)
            for _ in range(20):
                psi = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
                chi = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
                psi /= np.linalg.norm(psi)
                chi /= np.linalg.norm(chi)
                dev = abs(eta_inner(eta, psi, H @ chi)
                          - np.conj(eta_inner(eta, chi, H @ psi)))
                assert dev <= RESIDUAL_TOL * scale, spec

    _run(2, "real spectrum/positive metric equivalence, 500 instances", None, body)


def test_criterion_3_reality_threshold():
    """Classification flips at s = sin(pi/4), located within one 1e-3 step."""

    def body():
        r, theta, step = 1.0, np.pi / 4, 1e-3
        crossing = r * np.sin(theta)
        # closed-form oracle agrees that the discriminant changes sign there
        lo, _ = pt2x2_eigenvalues(r, theta, crossing - step)
        hi, _ = pt2x2_eigenvalues(r, theta, crossing + step)
        assert abs(lo.imag) > 0 and abs(hi.imag) < 1e-12

        svals = np.arange(0.650, 0.7601, step)
        kinds = [classify(pt2x2(r, theta, s)).kind for s in svals]
        pseudo = [s for s, k in zip(svals, kinds)
                  if k is OperatorClass.PSEUDO_HERMITIAN_ONLY]
        quasi = [s for s, k in zip(svals, kinds)
                 if k is OperatorClass.QUASI_HERMITIAN]
        last_pseudo, first_quasi = max(pseudo), min(quasi)
        assert last_pseudo < first_quasi
        assert first_quasi - last_pseudo <= 2 * step   # at most one ambiguous point
        assert abs(last_pseudo - crossing) <= step
        assert abs(first_quasi - crossing) <= step
        # monotone on both sides of the transition
        assert all(s <= last_pseudo for s in pseudo)
        assert all(s >= first_quasi for s in quasi)

    _run(3, "reality threshold at s = sin(pi/4) +- 1e-3", 5.0, body)


def test_criterion_4_metric_family_closure():
    """Commutant transport preserves membership and positivity; mixed signs
    give indefinite metrics that still intertwine."""

    def body():
        for seed in range(100):
            H, _, _ = generate(EnsembleSpec(dim=2 + seed % 7, seed=40_000 + seed,
                                            kind="quasi"))
            n = H.shape[0]
            S = eig_full(H)
            eta = build_positive_metric(S)

            moved = transform_metric(eta, H @ H + np.eye(n), H)
            assert verify_intertwining(H, moved) <= RESIDUAL_TOL, seed
            assert moved.positive_definite, seed

            if n >= 2:
                signs = [(-1) ** i for i in range(n)]
                mixed = build_general_metric(S, pair_spectrum(S), signs=signs)
                assert mixed.indefinite, seed
                assert verify_intertwining(H, mixed) <= RESIDUAL_TOL, seed

    _run(4, "metric family closure and indefinite members, 100 instances", None, body)


def test_criterion_5_klein_gordon_pipeline():
    """N=64, L=20pi, m=1, mu=m: intertwining, conservation, positivity,
    mode-sum identity against the quadrature oracle, sector signs."""

    def body():
        grid = make_grid(64, 20 * np.pi, 1.0)
        mu = grid.m
        H = fv_hamiltonian(grid)
        assert verify_intertwining(H, sigma3_metric(grid)) <= 1e-12

        rng = np.random.default_rng(7)
        checkpoints = np.linspace(0.0, 10.0, 9)[1:]
        for _ in range(10):
            state = random_state(grid, rng=rng)
            pd0, kg0 = pd_inner(state, state, mu), kg_inner(state, state)
            scale = 2 * float(np.sum(grid.omega * (np.abs(state.a) ** 2
                                                   + np.abs(state.b) ** 2)))
            for t in checkpoints:
                moved = evolve(state, float(t))
                assert abs(pd_inner(moved, moved, mu) - pd0) <= 1e-10 * abs(pd0)
                assert abs(kg_inner(moved, moved) - kg0) <= 1e-10 * scale

        lowest = np.inf
        for _ in range(100):
            state = random_state(grid, rng=rng)
            val = pd_inner(state, state, mu)
            amps = float(np.sum(np.abs(state.a) ** 2 + np.abs(state.b) ** 2))
            lowest = min(lowest, val.real / amps)
            want = mode_sum_pd(state, state, mu)
            assert abs(val - want) <= 1e-10 * abs(want)
            oracle = quadrature_pd_inner(state, state, mu)
            assert abs(val - oracle) <= 1e-10 * abs(oracle)
        assert lowest > 0

        zero = np.zeros(grid.N, dtype=complex)
        one = np.zeros(grid.N, dtype=complex)
        one[5] = 1.0
        from pseudoherm import KGState
        pure_a = KGState(grid=grid, a=one, b=zero, t=0.0)
        pure_b = KGState(grid=grid, a=zero, b=one, t=0.0)
        null = KGState(grid=grid, a=one, b=one, t=0.0)
        assert kg_inner(pure_a, pure_a).real > 0
        assert kg_inner(pure_b, pure_b).real < 0
        assert abs(kg_inner(null, null)) <= 1e-10 * (4 * grid.omega[5])

    _run(5, "lattice Klein-Gordon pipeline (N=64, L=20pi, m=1)", 10.0, body)


def test_criterion_6_sector_contrast():
    """Fixed sigma3 metric keeps exactly the positive-energy half (projector
    match to 1e-10); the real-spectrum construction keeps the whole space."""

    def body():
        grid = make_grid(64, 20 * np.pi, 1.0)
        H = fv_hamiltonian(grid)
        S = eig_full(H)

        signs = indefinite_physical_set(S, sigma3_metric(grid))
        positive = [n for n, s in signs if s > 0]
        assert len(positive) == grid.N
        assert not any(s == 0 for _, s in signs)   # no zero-energy modes for m > 0

        Qp, _ = np.linalg.qr(S.right[:, positive])
        proj_metric = Qp @ Qp.conj().T
        energy_idx = [n for n in range(S.dim) if S.eigenvalues[n].real > 0]
        Qe, _ = np.linalg.qr(S.right[:, energy_idx])
        proj_energy = Qe @ Qe.conj().T
        assert spectral_norm(proj_metric - proj_energy) <= 1e-10

        sub = restrict_to_physical(H)
        assert sub.dim == 2 * grid.N       # strictly larger: both energy signs kept
        assert sub.dim > len(positive)

    _run(6, "positive-energy sector vs full real-spectrum space", None, body)
