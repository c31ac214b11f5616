"""Ensemble verification suites behind the `verify` command.

Two spectral equivalences are exercised per generated instance.  The first:
a diagonalizable matrix admits a metric operator iff its spectrum is closed
under complex conjugation iff it commutes with an invertible antilinear map;
the three legs must succeed or fail together.  The second: a positive metric
exists iff the spectrum is real, in which case Hermitization by the metric
square root works and the operator is Hermitian in the metric inner product.

The suite runs by dimension.  models builds the instances of one size as
one (k, n, n) stack, which goes once through the metrics functions:
classify, whose classes and partner permutations are arrays decided in one
pass, then build_general_metric, verify_intertwining, antilinear_symmetry
and antilinear_residual on the stack of paired matrices, and the positive
legs' herm_sqrt and eta_inner on the stack of positive metrics.  One seeded
generator per instance draws its matrix and then the vectors of leg d, so
(kind, dim, seed) pins every number of an instance in any stack.  What is
left here is the bookkeeping of the legs and the eigvals of h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import INVERTIBILITY_TOL, POSITIVITY_TOL, Spectrum, herm_residual, herm_sqrt
from .metrics import (INTERTWINE_TOL, Classification, MetricOperator, OperatorClass,
                      antilinear_residual, antilinear_symmetry, build_general_metric,
                      classify, eta_inner, verify_intertwining)
from .models import EnsembleSpec, _generate

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


@dataclass(frozen=True, eq=False)
class Group:
    """Instances of one size: their stacked Classification and, for those
    with a pairing (at positions paired), H, Spectrum, the (k, n) partner
    permutations, ||H||, the canonical metric (all signs +1) and its
    intertwining residual."""

    cls: Classification
    paired: np.ndarray
    H: np.ndarray
    spectrum: Spectrum
    pairing: np.ndarray
    norm: np.ndarray
    metric: MetricOperator
    residual: np.ndarray


def classify_group(H) -> Group:
    """classify a stack and build the canonical metric of its paired matrices."""
    cls = classify(H)
    paired = np.flatnonzero(np.all(cls.pairing >= 0, axis=-1))
    S = cls.spectrum
    S = Spectrum(S.dim, *(a[paired] for a in (S.eigenvalues, S.right, S.left, S.diag_score)))
    pairing, norm = cls.pairing[paired], cls.diagnostics["norm"][paired]
    metric = build_general_metric(S, pairing)
    return Group(cls, paired, H[paired], S, pairing, norm, metric,
                 verify_intertwining(H[paired], metric, norm))


def check_conjugation_equivalence(group: Group) -> list[dict]:
    """Legs of the metric-existence equivalence for each matrix of a group.

    a: spectrum closed under conjugation; b: the canonical metric is
    invertible and intertwines within 1e-8; c: the antilinear symmetry
    tau = Psi M Phi^T is invertible and commutes within 1e-8.  A failed
    pairing leaves no construction to attempt, so legs b and c fail
    alongside leg a.
    """
    results = []
    for score, kind in zip(group.cls.spectrum.diag_score.tolist(), group.cls.kind.tolist()):
        result = {"diag_score": score, "skipped": kind is OperatorClass.NON_DIAGONALIZABLE}
        if kind is OperatorClass.NOT_PSEUDO_HERMITIAN:
            result.update(pair_ok=False, metric_ok=False, antilinear_ok=False, agree=True)
        results.append(result)

    tau = antilinear_symmetry(group.spectrum, group.pairing)
    sv = np.linalg.svd(tau, compute_uv=False)   # invertibility only: ||tau|| is a lower bound
    antilinear = antilinear_residual(group.H, tau, group.norm)
    antilinear_ok = (antilinear <= INTERTWINE_TOL) & (sv[:, -1] > INVERTIBILITY_TOL * sv[:, 0])
    for i, invertible, residual, commutation, commutes in zip(
            group.paired.tolist(), group.metric.invertible.tolist(), group.residual.tolist(),
            antilinear.tolist(), antilinear_ok.tolist()):
        result = results[i]
        result.update(pair_ok=True, metric_ok=invertible and residual <= INTERTWINE_TOL)
        if invertible:
            result["metric_residual"] = residual
        result.update(antilinear_residual=commutation, antilinear_ok=commutes,
                      agree=result["metric_ok"] and commutes)   # pair_ok == metric_ok == commutes
    return results


def check_positive_metric_equivalence(group: Group, rngs) -> list[dict]:
    """Legs of the real-spectrum/positive-metric equivalence for each matrix
    of a group; rngs holds one generator per matrix, which draws leg d's
    vectors.

    a: classified (quasi-)Hermitian; b: the canonical metric of an all-real
    pairing is invertible and positive-definite (eta_+); c: eta_+ intertwines
    within 1e-8, its square root rho = herm_sqrt(eta_+) exists, and
    h = rho H rho^{-1} is Hermitian and isospectral with H within 1e-8; d:
    Hermiticity of H in the eta_+ inner product on random vector pairs.
    """
    results = []
    for kind in group.cls.kind.tolist():
        result = {"skipped": kind is OperatorClass.NON_DIAGONALIZABLE,
                  "classification": kind.value}
        if not result["skipped"]:
            result["real_spectrum"] = kind in (OperatorClass.HERMITIAN,
                                               OperatorClass.QUASI_HERMITIAN)
            result.update(positive_ok=False, hermitize_ok=False, inner_ok=False)
        results.append(result)

    metric = group.metric
    all_real = np.all(group.pairing == np.arange(group.spectrum.dim), axis=-1)
    built = np.flatnonzero(all_real & metric.invertible & metric.positive_definite)
    index = group.paired[built]
    eta, eta_norm, H = metric.matrix[built], metric.norm[built], group.H[built]
    n = H.shape[-1]

    # Leg c, as hermitize: the intertwining gate is leg b's residual, then
    # herm_sqrt's positivity test on leg b's eigenvalues of eta_+.
    mapped = np.flatnonzero((group.residual[built] <= INTERTWINE_TOL)
                            & (metric.min_abs_eigenvalue[built] > POSITIVITY_TOL * eta_norm))
    rho = herm_sqrt(eta[mapped])
    h = rho @ H[mapped] @ np.linalg.inv(rho)
    hermiticity = herm_residual(h)
    spec_in = np.sort_complex(group.spectrum.eigenvalues[built[mapped]])
    spec_out = np.sort_complex(np.linalg.eigvals(h))
    drift = np.max(np.abs(spec_out - spec_in) / (1.0 + np.abs(spec_in)), axis=-1)

    # Leg d: one block per generator holds the numbers of the INNER_PAIRS successive
    # draws (psi.re, psi.im, chi.re, chi.im); all pairs go through one product.
    draws = np.array([rngs[i].standard_normal(INNER_PAIRS * 4 * n)
                      for i in index]).reshape(-1, INNER_PAIRS, 4, n)
    psi = draws[:, :, 0] + 1j * draws[:, :, 1]
    chi = draws[:, :, 2] + 1j * draws[:, :, 3]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    chi /= np.linalg.norm(chi, axis=-1, keepdims=True)
    HT = np.swapaxes(H, -1, -2)
    lhs = eta_inner(eta, psi, chi @ HT)          # <psi, eta H chi>
    rhs = eta_inner(eta, chi, psi @ HT).conj()   # <chi, eta H psi>*
    inner = np.max(np.abs(lhs - rhs), axis=-1) / (group.norm[built] * eta_norm)

    for i, smallest, deviation in zip(index.tolist(), metric.min_abs_eigenvalue[built].tolist(),
                                      inner.tolist()):
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
        H, _, _, rngs = _generate([specs[i] for i in positions])
        group = classify_group(H)
        one = check_conjugation_equivalence(group)
        two = check_positive_metric_equivalence(group, rngs)
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
