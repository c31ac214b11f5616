"""The batched equivalence suite against the per-instance loop it replaced.

The oracle below is that loop: one classify and one pair of checks per
instance, each built from the single-matrix metrics functions, on the
matrix models.generate builds for the instance's spec alone.  The batched
suite, which generates each dimension group as one stack and keeps each
leg and residual as one column over the instances, must give the same
legs and residuals; every residual whose arithmetic did not change is
compared bit for bit.
"""

import json

import numpy as np
import pytest

import pseudoherm.metrics as metrics
import pseudoherm.suites as suites
from pseudoherm.cli import EXIT_OK, EXIT_SUITE_FAIL, main, save_matrix
from pseudoherm.errors import NotAMetric, PseudohermError
from pseudoherm.linalg import eig_full, herm_residual
from pseudoherm.metrics import (
    MetricOperator,
    OperatorClass,
    antilinear_residual,
    antilinear_symmetry,
    build_general_metric,
    build_positive_metric,
    classify,
    eta_inner,
    hermitize,
    similarity_residual,
    verify_intertwining,
)
from pseudoherm.models import KINDS, EnsembleSpec, generate, jordan_block
from pseudoherm.suites import (
    CONJUGATION_LEGS,
    INNER_PAIRS,
    LEGS,
    POSITIVE_LEGS,
    RESIDUALS,
    equivalence_columns,
    make_ensemble,
    run_equivalence_suite,
)

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# reference oracle: the per-instance loop

def exact_norm(eta):
    """||eta||_2 of a built metric as max |eigvalsh|, as legs b and d read it."""
    return float(np.max(np.abs(np.linalg.eigvalsh(eta.matrix))))


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
        # Its eigvalsh measures its invertibility and gives ||eta||, as leg b reads them.
        MetricOperator.from_matrix(eta.matrix)
        result["metric_residual"] = verify_intertwining(H, eta, cls.diagnostics["norm"],
                                                        exact_norm(eta))
        result["metric_ok"] = result["metric_residual"] <= metrics.INTERTWINE_TOL
    except PseudohermError:
        result["metric_ok"] = False
    tau = antilinear_symmetry(S, pairing)
    sv = np.linalg.svd(tau, compute_uv=False)   # ||tau|| = sigma_max, as leg c reads it
    result["antilinear_residual"] = antilinear_residual(H, tau, cls.diagnostics["norm"], sv[0])
    result["antilinear_ok"] = (result["antilinear_residual"] <= metrics.INTERTWINE_TOL
                               and sv[-1] > 1e-12 * sv[0])
    result["agree"] = result["pair_ok"] == result["metric_ok"] == result["antilinear_ok"]
    return result


def instance_stream(spec):
    """default_rng(spec.seed) past the draws of spec's matrix, in the order
    models.generate makes them: the planted spectrum's uniforms (quasi), or
    the pair count, pair centres, imaginary parts and real fill
    (pseudo_nonquasi), then the two Gaussian n x n blocks of the similarity
    or of the Hermitian G; for defective, the Jordan block's eigenvalue."""
    rng, n = np.random.default_rng(spec.seed), spec.dim
    if spec.kind == "quasi":
        rng.uniform(size=n)
    elif spec.kind == "pseudo_nonquasi":
        rng.integers(1, n // 2 + 1)
        rng.uniform(size=n)   # 2 * pairs uniforms for the pairs, n - 2 * pairs for the fill
    elif spec.kind == "defective":
        rng.uniform(size=2)
        return rng
    rng.standard_normal((2, n, n))
    return rng


def oracle_positive(H, cls, rng):
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
            measured = MetricOperator.from_matrix(eta.matrix)   # as leg b measures it
        except PseudohermError:
            pass
    if eta is None:
        result.update(positive_ok=False, hermitize_ok=False, inner_ok=False)
        result["agree"] = result["real_spectrum"] == result["positive_ok"]
        return result
    result["positive_ok"] = measured.positive_definite
    result["metric_min_eig"] = eta.min_abs_eigenvalue
    try:
        # eta_+'s polar route, whose similarity divides by ||rho|| = sigma_max of Phi
        rho, h, residuals = hermitize(H, cls.spectrum, cls.diagnostics["norm"])
        assert herm_residual(h) == 0.0   # h is Hermitian by construction
        result["similarity_residual"] = residuals["similarity"]
        # sigma_max is ||rho|| up to rho's roundoff, so at most norm_lower_bound(rho)'s
        # residual to within that roundoff.
        assert result["similarity_residual"] <= similarity_residual(
            H, rho, h, cls.diagnostics["norm"]) * (1 + 4 * len(H) * EPS)
        spec_in = np.sort_complex(cls.spectrum.eigenvalues)
        spec_out = np.linalg.eigvalsh(h)
        result["spectrum_drift"] = float(np.max(np.abs(spec_out - spec_in)
                                                / (1.0 + np.abs(spec_in))))
        result["hermitize_ok"] = (result["similarity_residual"] <= metrics.INTERTWINE_TOL
                                  and result["spectrum_drift"] <= metrics.INTERTWINE_TOL)
    except PseudohermError:
        result["hermitize_ok"] = False
    n = H.shape[0]
    scale = cls.diagnostics["norm"] * exact_norm(eta)   # ||eta|| by eigvalsh, as leg d reads it
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
    two = oracle_positive(H, cls, instance_stream(spec))
    if one["skipped"] or two["skipped"]:
        ok = spec.kind == "defective"
    else:
        ok = (one["agree"] and two["agree"] and one["pair_ok"]
              and two["positive_ok"] == (spec.kind in ("quasi", "hermitian")))
    return {"kind": spec.kind, "dim": spec.dim, "seed": spec.seed,
            "conjugation": one, "positive": two, "ok": ok}


def oracle_failed_legs(kind, conjugation, positive):
    """Names of the legs in which an instance of the planted kind fails;
    empty when it passes.  Every conjugation leg must hold, and every
    positive-metric leg must be true exactly for the quasi and hermitian
    kinds; only the defective kind may be skipped."""
    if conjugation["skipped"] or positive["skipped"]:
        return [] if kind == "defective" else ["skipped"]
    expected_positive = kind in ("quasi", "hermitian")
    return ([leg for leg in CONJUGATION_LEGS if not conjugation[leg]]
            + [leg for leg in POSITIVE_LEGS if positive[leg] != expected_positive])


def assert_columns_match(columns, records):
    """The suite's columns against the oracle's records, instance by
    instance: a leg the oracle leaves out (a skipped instance) reads False
    and a residual it leaves out reads NaN.  Everything is bit-identical but
    the inner-product deviation: the 20 pairs are summed in another order
    (one product over the stack, E(H chi) by matmul, vdot by sum).  Both
    values are roundoff of an exactly zero difference, at most 1.6e-15 over
    these ensembles; the two differ by at most 2.0e-16 (measured)."""
    assert set(columns) == {"skipped", *LEGS, *RESIDUALS}
    for i, rec in enumerate(records):
        one, two = rec["conjugation"], rec["positive"]
        where = (rec["kind"], rec["dim"], rec["seed"])
        assert columns["skipped"][i] == one["skipped"] == two["skipped"], where
        for leg in LEGS:
            assert columns[leg][i] == (one if leg in CONJUGATION_LEGS else two).get(leg, False), \
                (leg, where)
        for key in RESIDUALS:
            got, want = columns[key][i], {**one, **two}.get(key, np.nan)
            if key == "inner_deviation" and not np.isnan(want):
                assert abs(got - want) <= 10 * EPS, where
            else:
                assert np.array_equal(got, want, equal_nan=True), (key, where)


def oracle_leg_counts(records):
    counts = dict.fromkeys(("pair_ok", "metric_ok", "antilinear_ok",
                            "positive_ok", "hermitize_ok", "inner_ok"), 0)
    for rec in records:
        one, two = rec["conjugation"], rec["positive"]
        if not (one["skipped"] or two["skipped"]):
            for key in counts:
                counts[key] += bool((one if key in one else two).get(key))
    return counts


def oracle_worst_residuals(records):
    worst = dict.fromkeys(RESIDUALS, 0.0)
    for rec in records:
        for src in (rec["conjugation"], rec["positive"]):
            for key in worst:
                if key in src:
                    worst[key] = max(worst[key], src[key])
    return worst


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
    columns = equivalence_columns(specs)
    assert all(len(column) == len(expected) for column in columns.values())
    assert_columns_match(columns, expected)
    assert suite["leg_counts"] == oracle_leg_counts(expected)
    worst = oracle_worst_residuals(expected)
    assert abs(suite["worst_residuals"].pop("inner_deviation") - worst.pop("inner_deviation")) \
        <= 10 * EPS
    assert suite["worst_residuals"] == worst
    assert suite["failures"] == sum(not rec["ok"] for rec in expected)
    assert suite["skipped"] == sum(rec["conjugation"]["skipped"] for rec in expected)


def test_refused_roots_match_the_oracle(monkeypatch):
    # hermitize's gates decide its refusals.  Handed H + I with the Spectrum of H at
    # the odd dimensions of "mixed dims 1-8", it passes the intertwining gate (eta_+
    # intertwines H + I too) and refuses at the similarity gate, rho (H + I) != h rho:
    # a NaN row of the stacked hermitize in leg c, and the oracle's single hermitize
    # raising NotAMetric, for the same instances.
    original = hermitize

    def shifted(H, S, h_norm):
        n = H.shape[-1]
        return original(H + (n % 2) * np.eye(n), S, h_norm)

    monkeypatch.setattr(suites, "hermitize", shifted)
    monkeypatch.setitem(globals(), "hermitize", shifted)
    specs = ENSEMBLES["mixed dims 1-8"]
    columns = equivalence_columns(specs)
    assert_columns_match(columns, [oracle_record(spec) for spec in specs])
    odd = np.array([spec.dim % 2 == 1 for spec in specs])
    refused = columns["positive_ok"] & ~columns["hermitize_ok"]
    assert np.array_equal(refused, columns["positive_ok"] & odd) and refused.any()
    assert np.all(np.isnan(columns["similarity_residual"][refused]))
    H = generate(specs[np.flatnonzero(refused)[0]])[0]
    with pytest.raises(NotAMetric, match=r"rho H != h rho: similarity \S+ > INTERTWINE_TOL"):
        shifted(H, classify(H).spectrum, None)


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
        similar([1.0, 1.0, 2.0, -0.5, 3.0], 10.0),     # repeated eigenvalue
        jordan_block(n, 0.3 - 0.2j),                    # defective: diag_score past 1e12
        similar([1.0, 2.0, 3.0, 4.0, 5.0], 1e5),        # inverse with a Gram defect past 10 eps n
    ])
    S = eig_full(stack)
    singles = [eig_full(M) for M in stack]
    # The Jordan block's V is singular only up to roundoff: inv succeeds, and
    # the score is finite.
    assert np.isfinite(singles[2].diag_score) and singles[2].diag_score > 1e12
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
        legs = oracle_failed_legs(spec.kind, rec["conjugation"], rec["positive"])
        assert legs == entry["legs"], entry
        assert not rec["ok"]
    # ... and the oracle fails no instance the report leaves out.
    listed = {(entry["kind"], entry["dim"], entry["seed"]) for entry in failed}
    for spec in make_ensemble(["quasi", "pseudo_nonquasi", "hermitian"], 9, [2, 3, 4], 5):
        assert oracle_record(spec)["ok"] == ((spec.kind, spec.dim, spec.seed) not in listed)


def test_a_failed_instance_reproduces_from_its_report(tmp_path, capsys, monkeypatch):
    # A gate below roundoff, in suites only, fails verify's residual legs; classify
    # on the matrix regenerated from the report's entry shows the metric leg's
    # residual above the same gate.
    gate = 1e-30
    monkeypatch.setattr(suites, "INTERTWINE_TOL", gate)
    code = main(["verify", "--count", "9", "--dims", "2-4", "--seed", "5"])
    failed = json.loads(capsys.readouterr().out)["suite"]["failed_instances"]
    assert code == EXIT_SUITE_FAIL
    entry = next(entry for entry in failed if "metric_ok" in entry["legs"])
    H = generate(EnsembleSpec(entry["dim"], entry["seed"], entry["kind"]))
    path = tmp_path / "failed.json"
    save_matrix(H[0] if isinstance(H, tuple) else H, path)
    code = main(["classify", "--emit-metric", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and report["metric"] is not None
    assert report["residuals"]["intertwining"] > gate, entry


def test_verify_names_skipped_instances_of_diagonalizable_kinds(capsys, monkeypatch):
    # diag_score >= n >= 1, so KAPPA_MAX = 0.5 takes every matrix for
    # NonDiagonalizable: an instance of a diagonalizable kind that is
    # skipped fails as "skipped", and a skipped defective one passes.
    monkeypatch.setattr(metrics, "KAPPA_MAX", 0.5)
    code = main(["verify", "--count", "9", "--dims", "2-4", "--seed", "5"])
    suite = json.loads(capsys.readouterr().out)["suite"]
    assert code == EXIT_SUITE_FAIL
    assert suite["skipped"] == suite["failures"] == 9
    assert [entry["legs"] for entry in suite["failed_instances"]] == 9 * [["skipped"]]
    code = main(["verify", "--ensemble", "defective", "--count", "4", "--dims", "2-3"])
    suite = json.loads(capsys.readouterr().out)["suite"]
    assert code == 0 and suite["passed"]
    assert suite["skipped"] == 4 and suite["failed_instances"] == []


def test_verify_report_lists_no_instance_on_a_pass(capsys):
    assert main(["verify", "--count", "9", "--dims", "2-4", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["suite"]["failed_instances"] == []


def test_leg_d_does_not_depend_on_the_stack():
    # One generator per instance draws its matrix, then its inner-product
    # vectors: every leg and residual is the same alone and inside a mixed
    # stack, bit for bit.
    stack = make_ensemble(["quasi", "pseudo_nonquasi", "hermitian", "defective"], 24, [5],
                          base_seed=41)
    columns = equivalence_columns(stack)
    for i, spec in enumerate(stack):
        alone = equivalence_columns([spec])
        for key, column in columns.items():
            assert np.array_equal(alone[key], column[i:i + 1], equal_nan=True), (key, spec)
    assert np.count_nonzero(~np.isnan(columns["inner_deviation"])) == 12


def test_oracle_continues_each_instance_stream():
    # The oracle's leg d draws from where generation left each generator.
    for n in range(1, 9):
        specs = [EnsembleSpec(n, 60 + i, kind) for i, kind in enumerate(KINDS * 3)
                 if n >= 2 or kind in ("quasi", "hermitian")]
        for spec, rng in zip(specs, generate(specs)[3]):
            assert rng.bit_generator.state == instance_stream(spec).bit_generator.state, spec
