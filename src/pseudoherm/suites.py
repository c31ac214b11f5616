"""Ensemble verification suites behind the `verify` command.

Two spectral equivalences are exercised per generated instance.  The first:
a diagonalizable matrix admits a metric operator iff its spectrum is closed
under complex conjugation iff it commutes with an invertible antilinear map;
the three legs must succeed or fail together.  The second: a positive metric
exists iff the spectrum is real, in which case Hermitization by the metric
square root works and the operator is Hermitian in the metric inner product.

The suite runs by dimension.  Instances of one size are stacked as a
(k, n, n) array, and every numeric step of both checks (eig, cond, inv,
norms, the canonical metric and its eigvalsh, the residuals, the eigh square
root, eigvals of h, the inner products) runs once over the stack.  The legs,
thresholds and refusals are those of a per-instance check; generation, the
class decision and the pairing still run instance by instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (INVERTIBILITY_TOL, POSITIVITY_TOL, Spectrum, dagger, eig_full,
                     herm_residual, ratio, spectral_norm)
from .metrics import INTERTWINE_TOL, OperatorClass, decide_class
from .models import EnsembleSpec, generate

INNER_PAIRS = 20
CONJUGATION_LEGS = ("pair_ok", "metric_ok", "antilinear_ok")
POSITIVE_LEGS = ("real_spectrum", "positive_ok", "hermitize_ok", "inner_ok")


def make_ensemble(kinds, count, dims, base_seed=0, conditioning_cap=1e3):
    """Deterministic instance list: round-robin over kinds and dims."""
    kinds = list(kinds)
    dims = list(dims)
    specs = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        dim = dims[(i // len(kinds)) % len(dims)]
        if kind in ("pseudo_nonquasi", "defective"):
            dim = max(dim, 2)
        specs.append(EnsembleSpec(dim=dim, seed=base_seed + i, kind=kind,
                                  conditioning_cap=conditioning_cap))
    return specs


def _instance_matrix(spec: EnsembleSpec) -> np.ndarray:
    out = generate(spec)
    return out[0] if isinstance(out, tuple) else out


@dataclass(frozen=True)
class Group:
    """Instances of one size as a stack, classified as classify would:
    H (k, n, n), its stacked Spectrum, ||H|| per matrix (k,), and the class
    and PairingMap (None when unpaired) of each matrix."""

    H: np.ndarray
    spectrum: Spectrum
    norm: np.ndarray
    kinds: list
    pairings: list


def classify_group(H) -> Group:
    """classify over a (k, n, n) stack: one eig_full, ||H|| and Hermiticity
    residual for the stack, decide_class matrix by matrix."""
    S = eig_full(H)
    norm = spectral_norm(H)
    decisions = [decide_class(w, score, residual) for w, score, residual in
                 zip(S.eigenvalues, S.diag_score.tolist(), herm_residual(H, norm).tolist())]
    return Group(H, S, norm, [d[0] for d in decisions], [d[1] for d in decisions])


@dataclass(frozen=True)
class CanonicalMetrics:
    """build_general_metric's eta = Phi M Phi^dag (all signs +1) for the
    paired matrices of a group, with what MetricOperator.from_matrix and
    verify_intertwining derive from it."""

    index: np.ndarray       # (m,) positions of the paired matrices in the group
    partner: np.ndarray     # (m, n, n) Phi[:, p], the left system in partner order
    eta: np.ndarray         # (m, n, n)
    evals: np.ndarray       # (m, n) eigvalsh(eta)
    invertible: np.ndarray  # (m,) from_matrix's invertibility test
    norm: np.ndarray        # (m,) ||eta|| = max |eigenvalue|
    residual: np.ndarray    # (m,) ||H^dag eta - eta H|| / (||H|| ||eta||)


def canonical_metrics(group: Group) -> CanonicalMetrics:
    """The canonical metric of every paired matrix in the group, in one
    product over the stack."""
    n = group.H.shape[-1]
    index = np.array([i for i, p in enumerate(group.pairings) if p is not None], dtype=int)
    perm = np.array([group.pairings[i].permutation for i in index], dtype=int).reshape(-1, n)
    partner = np.take_along_axis(group.spectrum.left[index], perm[:, None, :], axis=2)
    eta = group.spectrum.left[index] @ dagger(partner)
    eta = 0.5 * (eta + dagger(eta))    # Hermitian bit for bit, so from_matrix's
    evals = np.linalg.eigvalsh(eta)     # self-adjointness residual is 0.0
    size = np.abs(evals)
    scale = size.max(axis=-1)
    invertible = (scale != 0.0) & (size.min(axis=-1) > INVERTIBILITY_TOL * scale)
    H = group.H[index]
    residual = ratio(spectral_norm(dagger(H) @ eta - eta @ H), group.norm[index] * scale)
    return CanonicalMetrics(index, partner, eta, evals, invertible, scale, residual)


def check_conjugation_equivalence(group: Group, metrics: CanonicalMetrics) -> list[dict]:
    """Legs of the metric-existence equivalence for each matrix of a group.

    a: spectrum closed under conjugation; b: the canonical metric is
    invertible and intertwines within 1e-8; c: the antilinear symmetry
    tau = Psi M Phi^T is invertible and commutes within 1e-8.  A failed
    pairing leaves no construction to attempt, so legs b and c fail
    alongside leg a.
    """
    results = []
    for score, kind, pairing in zip(group.spectrum.diag_score.tolist(), group.kinds,
                                    group.pairings):
        result = {"diag_score": score, "skipped": kind is OperatorClass.NON_DIAGONALIZABLE}
        if not result["skipped"] and pairing is None:
            result.update(pair_ok=False, metric_ok=False, antilinear_ok=False, agree=True)
        results.append(result)

    index = metrics.index
    H = group.H[index]
    tau = group.spectrum.right[index] @ np.swapaxes(metrics.partner, -1, -2)
    sv = np.linalg.svd(tau, compute_uv=False)   # sv[:, 0] is ||tau||
    antilinear = ratio(spectral_norm(H @ tau - tau @ H.conj()), group.norm[index] * sv[:, 0])
    antilinear_ok = (antilinear <= INTERTWINE_TOL) & (sv[:, -1] > INVERTIBILITY_TOL * sv[:, 0])
    for i, invertible, residual, commutation, commutes in zip(
            index.tolist(), metrics.invertible.tolist(), metrics.residual.tolist(),
            antilinear.tolist(), antilinear_ok.tolist()):
        result = results[i]
        result["pair_ok"] = True
        result["metric_ok"] = False
        if invertible:
            result["metric_residual"] = residual
            result["metric_ok"] = residual <= INTERTWINE_TOL
        result["antilinear_residual"] = commutation
        result["antilinear_ok"] = commutes
        result["agree"] = result["pair_ok"] == result["metric_ok"] == commutes
    return results


def check_positive_metric_equivalence(group: Group, metrics: CanonicalMetrics,
                                      seeds) -> list[dict]:
    """Legs of the real-spectrum/positive-metric equivalence for each matrix
    of a group; seeds holds one inner-product seed per matrix.

    a: classified (quasi-)Hermitian; b: the canonical metric of an all-real
    pairing is invertible and positive-definite (eta_+); c: eta_+ intertwines
    within 1e-8, its eigh square root rho is positive-definite, and
    h = rho H rho^{-1} is Hermitian and isospectral with H within 1e-8; d:
    Hermiticity of H in the eta_+ inner product on random vector pairs.
    """
    results = []
    for kind in group.kinds:
        result = {"skipped": kind is OperatorClass.NON_DIAGONALIZABLE,
                  "classification": kind.value}
        if not result["skipped"]:
            result["real_spectrum"] = kind in (OperatorClass.HERMITIAN,
                                               OperatorClass.QUASI_HERMITIAN)
            result.update(positive_ok=False, hermitize_ok=False, inner_ok=False)
        results.append(result)

    all_real = np.array([group.pairings[i].all_real for i in metrics.index], dtype=bool)
    built = np.flatnonzero(all_real & metrics.invertible & ~(metrics.evals < 0).any(axis=-1))
    index = metrics.index[built]
    eta, eta_norm = metrics.eta[built], metrics.norm[built]
    H = group.H[index]
    n = H.shape[-1]

    # Leg c, as hermitize: the intertwining gate is leg b's residual, then
    # herm_sqrt's positivity test on the eigh of eta_+.
    mapped = np.flatnonzero(metrics.residual[built] <= INTERTWINE_TOL)
    w, U = np.linalg.eigh(eta[mapped])
    rooted = w[:, 0] > POSITIVITY_TOL * np.maximum(1.0, w[:, -1])
    mapped, w, U = mapped[rooted], w[rooted], U[rooted]
    Q = (U * np.sqrt(w)[:, None, :]) @ dagger(U)
    rho = 0.5 * (Q + dagger(Q))
    h = rho @ H[mapped] @ np.linalg.inv(rho)
    hermiticity = herm_residual(h)
    spec_in = np.sort_complex(group.spectrum.eigenvalues[index[mapped]])
    spec_out = np.sort_complex(np.linalg.eigvals(h))
    drift = np.max(np.abs(spec_out - spec_in) / (1.0 + np.abs(spec_in)), axis=-1)

    # Leg d: one block per seed holds the numbers of the INNER_PAIRS successive
    # draws (psi.re, psi.im, chi.re, chi.im); all pairs go through one product.
    draws = np.array([np.random.default_rng([seeds[i], 0xA5]).standard_normal(INNER_PAIRS * 4 * n)
                      for i in index]).reshape(-1, INNER_PAIRS, 4, n)
    psi = draws[:, :, 0] + 1j * draws[:, :, 1]
    chi = draws[:, :, 2] + 1j * draws[:, :, 3]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    chi /= np.linalg.norm(chi, axis=-1, keepdims=True)
    HT, etaT = np.swapaxes(H, -1, -2), np.swapaxes(eta, -1, -2)
    lhs = np.sum(psi.conj() * (chi @ HT @ etaT), axis=-1)          # <psi, eta H chi>
    rhs = np.sum(chi.conj() * (psi @ HT @ etaT), axis=-1).conj()   # <chi, eta H psi>*
    inner = np.max(np.abs(lhs - rhs), axis=-1) / (group.norm[index] * eta_norm)

    min_eig = np.abs(metrics.evals[built]).min(axis=-1)
    for i, smallest, deviation in zip(index.tolist(), min_eig.tolist(), inner.tolist()):
        results[i].update(positive_ok=True, metric_min_eig=smallest,
                          inner_deviation=deviation, inner_ok=deviation <= INTERTWINE_TOL)
    for i, residual, shift in zip(index[mapped].tolist(), hermiticity.tolist(), drift.tolist()):
        results[i].update(hermiticity_residual=residual, spectrum_drift=shift,
                          hermitize_ok=residual <= INTERTWINE_TOL and shift <= INTERTWINE_TOL)
    for result in results:
        if not result["skipped"]:
            result["agree"] = len({result[leg] for leg in POSITIVE_LEGS}) == 1
    return results


def failed_legs(kind: str, conjugation: dict, positive: dict) -> list[str]:
    """Names of the legs in which an instance of the planted kind fails;
    empty when it passes.  Every conjugation leg must hold, and every
    positive-metric leg must be true exactly for the quasi and hermitian
    kinds; only the defective kind may be skipped."""
    if conjugation["skipped"] or positive["skipped"]:
        return [] if kind == "defective" else ["skipped"]
    expected_positive = kind in ("quasi", "hermitian")
    return ([leg for leg in CONJUGATION_LEGS if not conjugation[leg]]
            + [leg for leg in POSITIVE_LEGS if positive[leg] != expected_positive])


def run_equivalence_suite(specs) -> dict:
    """Run both equivalence checks over an ensemble; aggregate per-leg stats.

    A suite passes when every non-skipped instance has internally agreeing
    legs and matches its planted kind (quasi/hermitian instances must admit
    the positive metric, pseudo_nonquasi ones must be refused).
    failed_instances names (kind, dim, seed, failed legs) of every failure,
    enough to regenerate and re-check it.
    """
    specs = list(specs)
    by_dim: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        by_dim.setdefault(spec.dim, []).append(i)
    records = [None] * len(specs)
    for positions in by_dim.values():
        group = classify_group(np.stack([_instance_matrix(specs[i]) for i in positions]))
        metrics = canonical_metrics(group)
        one = check_conjugation_equivalence(group, metrics)
        two = check_positive_metric_equivalence(group, metrics, [specs[i].seed for i in positions])
        for i, conjugation, positive in zip(positions, one, two):
            spec = specs[i]
            records[i] = {"kind": spec.kind, "dim": spec.dim, "seed": spec.seed,
                          "conjugation": conjugation, "positive": positive}

    skipped = 0
    failed = []
    worst = {"metric_residual": 0.0, "antilinear_residual": 0.0,
             "hermiticity_residual": 0.0, "spectrum_drift": 0.0,
             "inner_deviation": 0.0}
    counts = {"pair_ok": 0, "metric_ok": 0, "antilinear_ok": 0,
              "positive_ok": 0, "hermitize_ok": 0, "inner_ok": 0}
    for rec in records:
        one, two = rec["conjugation"], rec["positive"]
        legs = failed_legs(rec["kind"], one, two)
        rec["ok"] = not legs
        if legs:
            failed.append({"kind": rec["kind"], "dim": rec["dim"], "seed": rec["seed"],
                           "legs": legs})
        if one["skipped"] or two["skipped"]:
            skipped += 1
            continue
        for key in counts:
            src = one if key in one else two
            counts[key] += bool(src.get(key))
        for key in worst:
            for src in (one, two):
                if key in src:
                    worst[key] = max(worst[key], src[key])

    return {
        "instances": len(specs),
        "skipped": skipped,
        "failures": len(failed),
        "passed": not failed,
        "leg_counts": counts,
        "worst_residuals": worst,
        "failed_instances": failed,
        "records": records,
    }
