"""Ensemble verification suites behind the `verify` command.

Two spectral equivalences are exercised per generated instance.  The first:
a diagonalizable matrix admits a metric operator iff its spectrum is closed
under complex conjugation iff it commutes with an invertible antilinear map;
the three legs must succeed or fail together.  The second: a positive metric
exists iff the spectrum is real, in which case Hermitization by the metric
square root works and the operator is Hermitian in the metric inner product.
"""

from __future__ import annotations

import numpy as np

from .errors import PseudohermError
from .linalg import herm_residual
from .metrics import (
    INTERTWINE_TOL,
    Classification,
    OperatorClass,
    antilinear_residual,
    antilinear_symmetry,
    build_general_metric,
    build_positive_metric,
    classify,
    eta_inner,
    hermitize,
    verify_intertwining,
)
from .models import EnsembleSpec, generate

INNER_PAIRS = 20


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


def check_conjugation_equivalence(H, cls: Classification) -> dict:
    """Legs of the metric-existence equivalence for one matrix.

    cls is classify(H).  a: spectrum closed under conjugation; b:
    constructed metric intertwines within 1e-8; c: constructed antilinear
    symmetry commutes within 1e-8.  A failed pairing leaves no construction
    to attempt, so legs b and c fail alongside leg a.
    """
    S, pairing = cls.spectrum, cls.pairing
    result = {"diag_score": S.diag_score, "skipped": False}
    if cls.kind is OperatorClass.NON_DIAGONALIZABLE:
        result["skipped"] = True
        return result

    result["pair_ok"] = pairing is not None
    if not result["pair_ok"]:
        result.update(metric_ok=False, antilinear_ok=False, agree=True)
        return result

    try:
        eta = build_general_metric(S, pairing)
        result["metric_residual"] = verify_intertwining(H, eta, cls.diagnostics["norm"])
        result["metric_ok"] = result["metric_residual"] <= INTERTWINE_TOL
    except PseudohermError:
        result["metric_ok"] = False

    tau = antilinear_symmetry(S, pairing)
    sv = np.linalg.svd(tau, compute_uv=False)
    result["antilinear_residual"] = antilinear_residual(H, tau, cls.diagnostics["norm"])
    result["antilinear_ok"] = (result["antilinear_residual"] <= INTERTWINE_TOL
                               and sv[-1] > 1e-12 * sv[0])
    result["agree"] = (result["pair_ok"] == result["metric_ok"] == result["antilinear_ok"])
    return result


def check_positive_metric_equivalence(H, cls: Classification, seed=0) -> dict:
    """Legs of the real-spectrum/positive-metric equivalence for one matrix.

    cls is classify(H).  a: classified (quasi-)Hermitian; b: positive metric
    built with positive spectrum; c: Hermitization residual and spectrum
    preservation within 1e-8; d: Hermiticity in the metric inner product on
    random vector pairs.
    """
    result = {"skipped": False, "classification": cls.kind.value}
    if cls.kind is OperatorClass.NON_DIAGONALIZABLE:
        result["skipped"] = True
        return result
    result["real_spectrum"] = cls.kind in (OperatorClass.HERMITIAN,
                                           OperatorClass.QUASI_HERMITIAN)

    eta = None
    if cls.pairing is not None:
        try:
            eta = build_positive_metric(cls.spectrum, cls.pairing)
        except PseudohermError:
            pass
    if eta is None:
        result.update(positive_ok=False, hermitize_ok=False, inner_ok=False)
        result["agree"] = (result["real_spectrum"] == result["positive_ok"])
        return result
    result["positive_ok"] = eta.positive_definite
    result["metric_min_eig"] = eta.min_abs_eigenvalue

    try:
        rho, h, _ = hermitize(H, eta, cls.diagnostics["norm"])
        result["hermiticity_residual"] = herm_residual(h)
        spec_in = np.sort_complex(cls.spectrum.eigenvalues)
        spec_out = np.sort_complex(np.linalg.eigvals(h))
        result["spectrum_drift"] = float(np.max(np.abs(spec_out - spec_in)
                                                / (1.0 + np.abs(spec_in))))
        result["hermitize_ok"] = (result["hermiticity_residual"] <= INTERTWINE_TOL
                                  and result["spectrum_drift"] <= INTERTWINE_TOL)
    except PseudohermError:
        result["hermitize_ok"] = False

    rng = np.random.default_rng([seed, 0xA5])
    n = H.shape[0]
    scale = cls.diagnostics["norm"] * eta.norm
    worst = 0.0
    for _ in range(INNER_PAIRS):
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        chi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        chi /= np.linalg.norm(chi)
        lhs = eta_inner(eta, psi, H @ chi)
        rhs = np.conj(eta_inner(eta, chi, H @ psi))
        worst = max(worst, abs(lhs - rhs) / scale)
    result["inner_deviation"] = worst
    result["inner_ok"] = worst <= INTERTWINE_TOL

    legs = (result["real_spectrum"], result["positive_ok"],
            result["hermitize_ok"], result["inner_ok"])
    result["agree"] = len(set(legs)) == 1
    return result


def run_equivalence_suite(specs) -> dict:
    """Run both equivalence checks over an ensemble; aggregate per-leg stats.

    A suite passes when every non-skipped instance has internally agreeing
    legs and matches its planted kind (quasi/hermitian instances must admit
    the positive metric, pseudo_nonquasi ones must be refused).
    """
    records = []
    skipped = 0
    failures = 0
    worst = {"metric_residual": 0.0, "antilinear_residual": 0.0,
             "hermiticity_residual": 0.0, "spectrum_drift": 0.0,
             "inner_deviation": 0.0}
    counts = {"pair_ok": 0, "metric_ok": 0, "antilinear_ok": 0,
              "positive_ok": 0, "hermitize_ok": 0, "inner_ok": 0}

    for spec in specs:
        H = _instance_matrix(spec)
        cls = classify(H)
        one = check_conjugation_equivalence(H, cls)
        two = check_positive_metric_equivalence(H, cls, seed=spec.seed)
        rec = {"kind": spec.kind, "dim": spec.dim, "seed": spec.seed,
               "conjugation": one, "positive": two}
        records.append(rec)

        if one["skipped"] or two["skipped"]:
            skipped += 1
            rec["ok"] = spec.kind == "defective"
            if not rec["ok"]:
                failures += 1
            continue

        for key in counts:
            src = one if key in one else two
            counts[key] += bool(src.get(key))
        for key in worst:
            for src in (one, two):
                if key in src:
                    worst[key] = max(worst[key], src[key])

        expected_positive = spec.kind in ("quasi", "hermitian")
        rec["ok"] = (one["agree"] and two["agree"]
                     and one["pair_ok"]
                     and two["positive_ok"] == expected_positive)
        if not rec["ok"]:
            failures += 1

    return {
        "instances": len(specs),
        "skipped": skipped,
        "failures": failures,
        "passed": failures == 0,
        "leg_counts": counts,
        "worst_residuals": worst,
        "records": records,
    }
