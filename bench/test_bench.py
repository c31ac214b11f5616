"""Tests of the benchmark itself: planted inputs, output checks, tracer and
the names BENCHMARK.json declares.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from planted import PAIRS, REAL, planted_matrix, planted_similarity  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Call, write_matrix  # noqa: E402

from pseudoherm import cli  # noqa: E402


def _as_report_spectrum(eigenvalues):
    return [[float(v.real), float(v.imag)] for v in eigenvalues]


@pytest.mark.parametrize("n", [6, 32, 128])
@pytest.mark.parametrize("kappa", [1e2, 1e5, 1e7])
def test_similarity_has_exactly_the_planted_condition_number(n, kappa):
    S = planted_similarity(np.random.default_rng([n, int(kappa)]), n, kappa)
    assert np.linalg.cond(S) == pytest.approx(kappa, rel=1e-6)


@pytest.mark.parametrize("kind", [REAL, PAIRS])
@pytest.mark.parametrize("n", [6, 32, 256])
def test_generator_plants_the_spectrum(kind, n):
    p = planted_matrix(np.random.default_rng([n, 7]), n, kind, 1e3)
    assert p.dim == n and p.n_real + 2 * p.n_pairs == n
    lam = p.eigenvalues
    assert np.sum(np.abs(lam.imag) > 0) == 2 * p.n_pairs
    assert np.allclose(np.sort_complex(lam), np.sort_complex(lam.conj()))
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(n)
    assert gaps.min() >= 1.0 / n - 1e-12
    computed = np.linalg.eigvals(p.H)
    assert checks.spectrum_problems(_as_report_spectrum(computed), lam) == []


def test_inputs_follow_the_seed_alone():
    a = planted_matrix(np.random.default_rng([5, 1]), 16, PAIRS, 1e3)
    b = planted_matrix(np.random.default_rng([5, 1]), 16, PAIRS, 1e3)
    c = planted_matrix(np.random.default_rng([6, 1]), 16, PAIRS, 1e3)
    assert np.array_equal(a.H, b.H)
    assert not np.allclose(a.H, c.H)


@pytest.fixture(scope="module")
def matrix_reports(tmp_path_factory):
    """Real CLI reports for every matrix command on both planted classes."""
    out = {}
    for kind in (REAL, PAIRS):
        planted = planted_matrix(np.random.default_rng([3, len(kind)]), 12, kind, 1e2)
        workdir = tmp_path_factory.mktemp("inputs")
        path = workdir / f"{kind}.json"
        write_matrix(planted.H, path)
        for command, extra in (("classify", ["--emit-metric"]), ("metric", []),
                               ("symmetry", []), ("hermitize", [])):
            result = run.run_cli(cli, [command, str(path), *extra], workdir)
            out[command, kind] = (result, planted)
    return out


def test_correct_reports_pass_every_check(matrix_reports):
    for (command, kind), (result, planted) in matrix_reports.items():
        assert checks.matrix_problems(command, result.code, result.report, planted) == []
    refusal, _ = matrix_reports["hermitize", PAIRS]
    assert refusal.code == checks.EXIT_NUMERIC


def _corruptions(report, planted):
    yield "class", {**report, "classification": "NotPseudoHermitian"}
    spectrum = [list(v) for v in report["spectrum"]]
    spectrum[0][0] += 1e-3
    yield "spectrum", {**report, "spectrum": spectrum}
    yield "dropped eigenvalue", {**report, "spectrum": report["spectrum"][1:]}
    if report.get("signature") is not None:
        yield "signature", {**report, "signature": [planted.dim - 1, 1]}
    for key in report["residuals"]:
        if key in ("intertwining", "hermiticity_of_h", "antilinear_commutation"):
            yield key, {**report, "residuals": {**report["residuals"], key: 1e-6}}


@pytest.mark.parametrize("command", ["classify", "metric", "symmetry", "hermitize"])
def test_a_corrupted_report_counts_as_a_failure(matrix_reports, command):
    result, planted = matrix_reports[command, REAL]
    check = lambda code, report: checks.matrix_problems(command, code, report, planted)
    corruptions = list(_corruptions(result.report, planted))
    assert len(corruptions) >= 4
    for what, bad in corruptions:
        tally = run.Tally()
        tally.record(check, run.CliResult(result.code, 0.0, bad, ""), command)
        assert (tally.attempted, tally.failed) == (1, 1), what
    tally = run.Tally()
    tally.record(check, run.CliResult(None, 0.0, None, "Traceback\nBoom"), command)
    assert tally.failed == 1


def test_a_missing_refusal_counts_as_a_failure(matrix_reports):
    result, planted = matrix_reports["hermitize", PAIRS]
    assert checks.matrix_problems("hermitize", checks.EXIT_OK, result.report, planted)


def test_kg_and_verify_checks(tmp_path):
    kg = run.run_cli(cli, ["kg", "--n", "8", "--samples", "3", "--seed", "1"], tmp_path)
    assert checks.kg_problems(kg.code, kg.report, 8) == []
    assert checks.kg_problems(kg.code, {**kg.report, "sector_dims": {
        "indefinite_metric": 8, "pseudo_hermitian": 8}}, 8)
    drift = {**kg.report["residuals"], "pd_conservation_drift": 1e-6}
    assert checks.kg_problems(kg.code, {**kg.report, "residuals": drift}, 8)

    verify = run.run_cli(cli, ["verify", "--count", "6", "--seed", "1"], tmp_path)
    assert checks.verify_problems(verify.code, verify.report, 6) == []
    bad = {**verify.report, "suite": {**verify.report["suite"], "failures": 1}}
    assert checks.verify_problems(1, bad, 6)


def test_sweep_outcomes():
    planted = planted_matrix(np.random.default_rng(0), 6, REAL, 1e2)
    assert checks.sweep_outcome(0, {"classification": "QuasiHermitian"}, planted) == "right"
    assert checks.sweep_outcome(0, {"classification": "NonDiagonalizable"}, planted) == "refused"
    assert checks.sweep_outcome(3, None, planted) == "refused"
    assert checks.sweep_outcome(0, {"classification": "NotPseudoHermitian"}, planted) == "wrong"


def test_tracer_self_time_and_exact_counts():
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.002)
        lib.inner()
        lib.inner()

    lib.inner, lib.outer = inner, outer
    user.inner = inner          # a second name through which inner is called
    tracer = Tracer()
    with tracer:
        tracer.install([lib, user], [(lib, "outer", "outer"), (lib, "inner", "inner")])
        assert user.inner is lib.inner is not inner
        lib.outer()
        user.inner()
    assert lib.inner is inner and user.inner is inner and lib.outer is outer
    own, counts = tracer.self_times()
    assert counts == {"outer": 1, "inner": 3}
    assert tracer.requests() == 2
    name, start, end, parent, request = tracer.spans[0]
    assert own["outer"] + sum(s[2] - s[1] for s in tracer.spans[1:3]) == pytest.approx(end - start)
    assert own["outer"] >= 0.002 and own["inner"] >= 0.006
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert [s[4] for s in tracer.spans] == [0, 0, 0, 3]


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["paths"] == ["bench"]


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "kg",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
