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
pass, then build_general_metric, eigvalsh, verify_intertwining,
antilinear_symmetry and antilinear_residual (over sigma_max of tau, from the
SVD that tests its invertibility) on the stack of paired matrices, then
hermitize on the Spectrum rows of the positive metrics (the polar route: one
SVD of their stacked left systems, whose sigma_max is rho's norm) and
eta_inner on those metrics.
Refusals and residuals are read off the stacked results (a pairing row of -1,
a NaN h, hermitize's similarity), never re-derived here; leg b measures the
built metrics by that eigvalsh, whose max |lambda|, each metric's exact norm,
is the eta_norm of verify_intertwining and leg d's scale.  One seeded
generator per instance draws its matrix and then the vectors of leg d, so
(kind, dim, seed) pins every number of an instance in any stack.  Each leg
and residual is one array over the instances (equivalence_columns), which
run_equivalence_suite reduces to counts, worst residuals and failing
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .linalg import INVERTIBILITY_TOL, Spectrum
from .metrics import (INTERTWINE_TOL, Classification, MetricOperator, OperatorClass,
                      antilinear_residual, antilinear_symmetry, build_general_metric,
                      classify, eta_inner, hermitize, verify_intertwining)
from .models import EnsembleSpec, generate

INNER_PAIRS = 20
CONJUGATION_LEGS = ("pair_ok", "metric_ok", "antilinear_ok")
POSITIVE_LEGS = ("real_spectrum", "positive_ok", "hermitize_ok", "inner_ok")
LEGS = CONJUGATION_LEGS + POSITIVE_LEGS
RESIDUALS = ("metric_residual", "antilinear_residual", "similarity_residual",
             "spectrum_drift", "inner_deviation")


def make_ensemble(kinds, count, dims, base_seed=0):
    """Deterministic instance list: round-robin over kinds and dims."""
    kinds = list(kinds)
    dims = list(dims)
    specs = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        dim = dims[(i // len(kinds)) % len(dims)]
        if kind in ("pseudo_nonquasi", "defective"):
            dim = max(dim, 2)
        specs.append(EnsembleSpec(dim=dim, seed=base_seed + i, kind=kind))
    return specs


@dataclass(frozen=True, eq=False)
class Group:
    """Instances of one size: their stacked Classification and, for those
    with a pairing (at positions paired), H, Spectrum, the (k, n) partner
    permutations, ||H||, the canonical metric (all signs +1), its eigvalsh and
    its intertwining residual over ||eta|| = max |eigvalsh|."""

    cls: Classification
    paired: np.ndarray
    H: np.ndarray
    spectrum: Spectrum
    pairing: np.ndarray
    norm: np.ndarray
    metric: MetricOperator
    eigenvalues: np.ndarray
    residual: np.ndarray


def _rows(stack, at):
    """A stacked Spectrum cut to the matrices at positions at."""
    return replace(stack, **{f.name: getattr(stack, f.name)[at] for f in fields(stack)
                             if f.name != "dim"})


def classify_group(H) -> Group:
    """classify a stack and build the canonical metric of its paired matrices."""
    cls = classify(H)
    paired = np.flatnonzero(np.all(cls.pairing >= 0, axis=-1))
    S = _rows(cls.spectrum, paired)
    pairing, norm = cls.pairing[paired], cls.diagnostics["norm"][paired]
    metric = build_general_metric(S, pairing)
    eigenvalues = np.linalg.eigvalsh(metric.matrix)
    return Group(cls, paired, H[paired], S, pairing, norm, metric, eigenvalues,
                 verify_intertwining(H[paired], metric, norm,
                                     np.max(np.abs(eigenvalues), axis=-1)))   # ||eta||, exactly


def _spread(k, at, values):
    """A (k,) array holding values at positions at, False or NaN elsewhere."""
    out = np.zeros(k, dtype=bool) if values.dtype == bool else np.full(k, np.nan)
    out[at] = values
    return out


def check_conjugation_equivalence(group: Group) -> dict:
    """Legs of the metric-existence equivalence for a group, as (k,) arrays.

    a: spectrum closed under conjugation; b: the canonical metric is
    invertible (by its eigvalsh) and intertwines within 1e-8; c: the antilinear
    symmetry tau = Psi M Phi^T is invertible and commutes within 1e-8.  A failed
    pairing leaves no construction to attempt, so legs b and c fail
    alongside leg a.  skipped marks the NonDiagonalizable matrices, whose
    legs all read False; a residual not computed reads NaN.
    """
    k, at, size = len(group.cls.kind), group.paired, np.abs(group.eigenvalues)
    invertible = size.min(axis=-1) > INVERTIBILITY_TOL * size.max(axis=-1)
    tau = antilinear_symmetry(group.spectrum, group.pairing)
    sv = np.linalg.svd(tau, compute_uv=False)   # invertibility, and ||tau|| = sigma_max exactly
    antilinear = antilinear_residual(group.H, tau, group.norm, sv[:, 0])
    antilinear_ok = (antilinear <= INTERTWINE_TOL) & (sv[:, -1] > INVERTIBILITY_TOL * sv[:, 0])
    return {"skipped": group.cls.kind == OperatorClass.NON_DIAGONALIZABLE,
            "pair_ok": _spread(k, at, np.ones(len(at), dtype=bool)),
            "metric_ok": _spread(k, at, invertible & (group.residual <= INTERTWINE_TOL)),
            "antilinear_ok": _spread(k, at, antilinear_ok),
            "metric_residual": _spread(k, at[invertible], group.residual[invertible]),
            "antilinear_residual": _spread(k, at, antilinear)}


def check_positive_metric_equivalence(group: Group, rngs) -> dict:
    """Legs of the real-spectrum/positive-metric equivalence for a group, as
    (k,) arrays as in check_conjugation_equivalence; rngs holds one
    generator per matrix, which draws leg d's vectors.

    a: classified (quasi-)Hermitian; b: the canonical metric of an all-real
    pairing is invertible and positive-definite by its eigvalsh (eta_+); c:
    hermitize maps H by eta_+'s polar route (not NaN: past its gates) to an h,
    Hermitian by construction, with rho H = h rho and h isospectral with H within 1e-8;
    d: Hermiticity of H in the eta_+ inner product on random vector pairs.
    """
    k, n = len(group.cls.kind), group.spectrum.dim
    all_real = np.all(group.pairing == np.arange(n), axis=-1)
    low, top = group.eigenvalues[:, 0], group.eigenvalues[:, -1]   # ascending
    built = np.flatnonzero(all_real & (low > INVERTIBILITY_TOL * top))
    index = group.paired[built]
    eta, eta_norm = group.metric.matrix[built], top[built]   # ||eta_+||: its eigenvalues are > 0
    H = group.H[built]

    # Leg c: hermitize's h is NaN where it refuses eta_+ or h (its similarity gate).
    _, h, residuals = hermitize(H, _rows(group.spectrum, built), group.norm[built])
    mapped = np.flatnonzero(~np.isnan(h[:, 0, 0]))
    spec_in = np.sort_complex(group.spectrum.eigenvalues[built[mapped]])
    drift = np.max(np.abs(np.linalg.eigvalsh(h[mapped]) - spec_in) / (1.0 + np.abs(spec_in)),
                   axis=-1)

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

    hermitized = index[mapped]
    return {"real_spectrum": group.cls.diagnostics["n_real"] == n,
            "positive_ok": _spread(k, index, np.ones(len(index), dtype=bool)),
            "hermitize_ok": _spread(k, hermitized, drift <= INTERTWINE_TOL),
            "inner_ok": _spread(k, index, inner <= INTERTWINE_TOL),
            "similarity_residual": _spread(k, hermitized, residuals["similarity"][mapped]),
            "spectrum_drift": _spread(k, hermitized, drift),
            "inner_deviation": _spread(k, index, inner)}


def equivalence_columns(specs) -> dict:
    """Both checks over an ensemble, run by dimension: every leg and residual
    of check_conjugation_equivalence and check_positive_metric_equivalence as
    one array over the instances, in spec order."""
    specs = list(specs)
    by_dim: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        by_dim.setdefault(spec.dim, []).append(i)
    columns = ({key: np.zeros(len(specs), dtype=bool) for key in ("skipped",) + LEGS}
               | {key: np.full(len(specs), np.nan) for key in RESIDUALS})
    for positions in by_dim.values():
        H, _, _, rngs = generate([specs[i] for i in positions])
        group = classify_group(H)
        checks = check_conjugation_equivalence(group)
        for key, value in (checks | check_positive_metric_equivalence(group, rngs)).items():
            columns[key][positions] = value
    return columns


def run_equivalence_suite(specs) -> dict:
    """Run both equivalence checks over an ensemble; aggregate per-leg stats.

    A suite passes when every non-skipped instance matches its planted kind
    in every leg: each conjugation leg holds, and each positive-metric leg
    holds exactly for the quasi and hermitian kinds; only the defective kind
    may be skipped.  failed_instances names (kind, dim, seed, failed legs) of
    every failure, enough to regenerate and re-check it.
    """
    specs = list(specs)
    columns = equivalence_columns(specs)
    kinds = np.array([spec.kind for spec in specs])
    skipped, kept = columns["skipped"], ~columns["skipped"]
    expected = np.isin(kinds, ("quasi", "hermitian"))
    wrong = np.stack([~columns[leg] for leg in CONJUGATION_LEGS]
                     + [columns[leg] != expected for leg in POSITIVE_LEGS], axis=-1)
    failed = []
    for i in np.flatnonzero(np.where(skipped, kinds != "defective", wrong.any(axis=-1))).tolist():
        legs = ["skipped"] if skipped[i] else [leg for leg, bad in zip(LEGS, wrong[i]) if bad]
        failed.append({"kind": specs[i].kind, "dim": specs[i].dim, "seed": specs[i].seed,
                       "legs": legs})
    return {
        "instances": len(specs),
        "skipped": int(np.count_nonzero(skipped)),
        "failures": len(failed),
        "passed": not failed,
        "leg_counts": {leg: int(np.count_nonzero(columns[leg][kept]))
                       for leg in LEGS if leg != "real_spectrum"},
        "worst_residuals": {key: float(np.fmax.reduce(columns[key][kept], initial=0.0))
                            for key in RESIDUALS},
        "failed_instances": failed,
    }
