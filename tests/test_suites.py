"""The batched equivalence suite against the per-instance loop it replaced.

The oracle below is that loop: one classify and one pair of checks per
instance, each built from the single-matrix metrics functions, on the
matrix models.generate builds for the instance's spec alone.  The batched
suite, which generates each dimension group as one stack, must give the
same records; every residual whose arithmetic did not change is compared
bit for bit.
"""

import json

import numpy as np
import pytest

import pseudoherm.linalg as linalg
import pseudoherm.metrics as metrics
import pseudoherm.suites as suites
from pseudoherm.cli import EXIT_SUITE_FAIL, main
from pseudoherm.errors import PseudohermError
from pseudoherm.linalg import _cluster_indices, eig_full, herm_residual
from pseudoherm.metrics import (
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
from pseudoherm.models import EnsembleSpec, generate, jordan_block
from pseudoherm.suites import INNER_PAIRS, make_ensemble, run_equivalence_suite

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# reference oracle: the per-instance loop

def oracle_conjugation(H, cls):
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
        result["metric_ok"] = result["metric_residual"] <= metrics.INTERTWINE_TOL
    except PseudohermError:
        result["metric_ok"] = False
    tau = antilinear_symmetry(S, pairing)
    sv = np.linalg.svd(tau, compute_uv=False)
    result["antilinear_residual"] = antilinear_residual(H, tau, cls.diagnostics["norm"])
    result["antilinear_ok"] = (result["antilinear_residual"] <= metrics.INTERTWINE_TOL
                               and sv[-1] > 1e-12 * sv[0])
    result["agree"] = result["pair_ok"] == result["metric_ok"] == result["antilinear_ok"]
    return result


def oracle_positive(H, cls, seed):
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
        result["agree"] = result["real_spectrum"] == result["positive_ok"]
        return result
    result["positive_ok"] = eta.positive_definite
    result["metric_min_eig"] = eta.min_abs_eigenvalue
    try:
        _, h, _ = hermitize(H, eta, cls.diagnostics["norm"])
        result["hermiticity_residual"] = herm_residual(h)
        spec_in = np.sort_complex(cls.spectrum.eigenvalues)
        spec_out = np.sort_complex(np.linalg.eigvals(h))
        result["spectrum_drift"] = float(np.max(np.abs(spec_out - spec_in)
                                                / (1.0 + np.abs(spec_in))))
        result["hermitize_ok"] = (result["hermiticity_residual"] <= metrics.INTERTWINE_TOL
                                  and result["spectrum_drift"] <= metrics.INTERTWINE_TOL)
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
    result["inner_ok"] = worst <= metrics.INTERTWINE_TOL
    legs = (result["real_spectrum"], result["positive_ok"],
            result["hermitize_ok"], result["inner_ok"])
    result["agree"] = len(set(legs)) == 1
    return result


def oracle_record(spec):
    out = generate(spec)
    H = out[0] if isinstance(out, tuple) else out
    cls = classify(H)
    one = oracle_conjugation(H, cls)
    two = oracle_positive(H, cls, spec.seed)
    if one["skipped"] or two["skipped"]:
        ok = spec.kind == "defective"
    else:
        ok = (one["agree"] and two["agree"] and one["pair_ok"]
              and two["positive_ok"] == (spec.kind in ("quasi", "hermitian")))
    return {"kind": spec.kind, "dim": spec.dim, "seed": spec.seed,
            "conjugation": one, "positive": two, "ok": ok}


def oracle_leg_counts(records):
    counts = dict.fromkeys(("pair_ok", "metric_ok", "antilinear_ok",
                            "positive_ok", "hermitize_ok", "inner_ok"), 0)
    for rec in records:
        one, two = rec["conjugation"], rec["positive"]
        if not (one["skipped"] or two["skipped"]):
            for key in counts:
                counts[key] += bool((one if key in one else two).get(key))
    return counts


# ---------------------------------------------------------------------------
# batched suite == oracle

ENSEMBLES = {
    "mixed dims 1-8": make_ensemble(["quasi", "pseudo_nonquasi", "hermitian"], 480,
                                    range(1, 9), base_seed=31),
    "defective": make_ensemble(["defective"], 40, range(2, 9), base_seed=32),
    "pseudo_nonquasi": make_ensemble(["pseudo_nonquasi"], 80, range(2, 9), base_seed=33),
    "hermitian": make_ensemble(["hermitian"], 80, range(1, 9), base_seed=34),
}


@pytest.mark.parametrize("name", list(ENSEMBLES))
def test_batched_suite_matches_per_instance_oracle(name):
    specs = ENSEMBLES[name]
    suite = run_equivalence_suite(specs)
    expected = [oracle_record(spec) for spec in specs]
    assert len(suite["records"]) == len(expected)
    for got, want in zip(suite["records"], expected):
        # Everything but the inner-product deviation is bit-identical: legs,
        # ok, skipped, diag_score, every residual, metric_min_eig, key sets.
        got_inner = got["positive"].pop("inner_deviation", None)
        want_inner = want["positive"].pop("inner_deviation", None)
        assert got == want, (got["kind"], got["dim"], got["seed"])
        # The 20 pairs are summed in another order (one product over the
        # stack, E(H chi) by matmul, vdot by sum).  Both values are roundoff
        # of an exactly zero difference, at most 1.6e-15 over these
        # ensembles; the two differ by at most 2.0e-16 (measured).
        assert (got_inner is None) == (want_inner is None)
        if got_inner is not None:
            assert abs(got_inner - want_inner) <= 10 * EPS
    assert suite["leg_counts"] == oracle_leg_counts(expected)
    assert suite["failures"] == sum(not rec["ok"] for rec in expected)
    assert suite["skipped"] == sum(rec["conjugation"]["skipped"] for rec in expected)


def test_refused_roots_match_the_oracle(monkeypatch):
    # A positivity cutoff of 1e-2 refuses the square root of 59 of the 320
    # positive metrics of "mixed dims 1-8"; no lambda_min/lambda_max lies within
    # 1% of it.  The oracle's hermitize refuses the same ones, one at a time.
    monkeypatch.setattr(linalg, "POSITIVITY_TOL", 1e-2)
    monkeypatch.setattr(suites, "POSITIVITY_TOL", 1e-2)
    specs = ENSEMBLES["mixed dims 1-8"]
    refused = 0
    for got, spec in zip(run_equivalence_suite(specs)["records"], specs):
        want = oracle_record(spec)
        got_inner = got["positive"].pop("inner_deviation", None)
        want_inner = want["positive"].pop("inner_deviation", None)
        assert got == want, (spec.kind, spec.dim, spec.seed)
        assert (got_inner is None) == (want_inner is None)
        if got_inner is not None:
            assert abs(got_inner - want_inner) <= 10 * EPS
        refused += bool(got["positive"].get("positive_ok")) and not got["positive"]["hermitize_ok"]
    assert refused == 59


def test_stacked_eig_full_matches_per_matrix():
    rng = np.random.default_rng(5)
    n = 5

    def similar(eigenvalues, kappa):
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        W, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        S = (U * np.geomspace(1.0, 1.0 / kappa, n)) @ W
        return (S * eigenvalues) @ np.linalg.inv(S)

    stack = np.stack([
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),   # generic
        similar([1.0, 1.0, 2.0, -0.5, 3.0], 10.0),     # repeated eigenvalue: cluster QR
        jordan_block(n, 0.3 - 0.2j),                    # defective: no polish past 1e12
        similar([1.0, 2.0, 3.0, 4.0, 5.0], 1e5),        # left system the polish corrects
    ])
    S = eig_full(stack)
    singles = [eig_full(M) for M in stack]
    # each path is exercised
    assert max(map(len, _cluster_indices(singles[1].eigenvalues, 1e-8))) > 1
    # The Jordan block is one cluster, so the cluster QR makes its V unitary and
    # inv succeeds; only test_eig_full_inverts_a_refused_v_alone reaches pinv.
    assert singles[2].diag_score > 1e12
    V = np.linalg.eig(stack[3])[1]
    assert np.max(np.abs(np.linalg.inv(V) @ V - np.eye(n))) > 10 * EPS * n
    assert S.eigenvalues.shape == (4, n) and S.diag_score.shape == (4,)
    for i, one in enumerate(singles):
        assert np.array_equal(S.eigenvalues[i], one.eigenvalues), i
        assert np.array_equal(S.right[i], one.right), i
        assert np.array_equal(S.left[i], one.left), i
        assert S.diag_score[i] == one.diag_score, i


# ---------------------------------------------------------------------------
# failed instances in the verify report

def test_verify_report_lists_failed_instances(capsys, monkeypatch):
    # No residual is exactly zero, so a zero tolerance fails the residual legs.
    monkeypatch.setattr(suites, "INTERTWINE_TOL", 0.0)
    monkeypatch.setattr(metrics, "INTERTWINE_TOL", 0.0)
    code = main(["verify", "--count", "9", "--dims", "2-4", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    suite = report["suite"]
    assert code == EXIT_SUITE_FAIL
    assert "records" not in suite
    failed = suite["failed_instances"]
    assert len(failed) == suite["failures"] > 0
    for entry in failed:
        assert set(entry) == {"kind", "dim", "seed", "legs"} and entry["legs"]
        # Reproduce from the report alone: regenerate, re-check by the oracle.
        spec = EnsembleSpec(entry["dim"], entry["seed"], entry["kind"])
        rec = oracle_record(spec)
        legs = suites.failed_legs(spec.kind, rec["conjugation"], rec["positive"])
        assert legs == entry["legs"], entry
        assert not rec["ok"]


def test_verify_report_lists_no_instance_on_a_pass(capsys):
    assert main(["verify", "--count", "9", "--dims", "2-4", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["suite"]["failed_instances"] == []
