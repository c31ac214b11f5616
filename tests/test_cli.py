import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudoherm.cli import (
    DEFAULT_SEED,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    load_matrix,
    main,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
)
from pseudoherm.errors import ParseError
from pseudoherm.kleingordon import (
    evolve,
    fv_hamiltonian,
    fv_modes,
    kg_inner,
    make_grid,
    pd_inner,
    random_state,
    sigma3_metric,
)
from pseudoherm.linalg import eig_full, norm_lower_bound, spectral_norm
from pseudoherm.metrics import (
    OperatorClass,
    antilinear_symmetry,
    build_general_metric,
    build_positive_metric,
    classify,
    hermitize,
)
from pseudoherm.physical import indefinite_physical_set, restrict_to_physical
from pseudoherm.models import EnsembleSpec, generate, jordan_block, pt2x2

from oracles import planted, propagator_bound

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture
def matrix_file(tmp_path):
    def write(M, name="matrix.json"):
        path = tmp_path / name
        save_matrix(M, path)
        return str(path)
    return write


def _reject_constant(name):
    raise ValueError(f"report holds the non-standard JSON constant {name}")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant) if out.strip() else None


# ---------------------------------------------------------------------------
# matrix file format

def test_matrix_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.json"
    save_matrix(M, path)
    first = path.read_text()
    back, _ = load_matrix(path)
    save_matrix(back, path)
    assert path.read_text() == first          # decimal serialization is stable
    assert np.array_equal(back, M)


def test_matrix_from_json_validation():
    with pytest.raises(ParseError):
        matrix_from_json([1, 2, 3])
    with pytest.raises(ParseError):
        matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})   # im missing
    with pytest.raises(ParseError):
        matrix_from_json({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})


def test_save_matrix_bytes_are_pinned(tmp_path):
    path = tmp_path / "m.json"
    save_matrix([[1, 0.5j], [2, 3]], path)
    assert path.read_text() == ('{"dim": 2, "re": [[1.0, 0.0], [2.0, 3.0]], '
                                '"im": [[0.0, 0.5], [0.0, 0.0]]}\n')
    M = np.array([[2, 1j], [0, 3]])
    M[1, 0] = M[0, 1].conjugate()
    save_matrix(M, path)
    assert path.read_text() == ('{"dim": 2, "hermitian": true, "re": [[2.0, 0.0], [3.0]], '
                                '"im": [[0.0, 1.0], [0.0]]}\n')


# ---------------------------------------------------------------------------
# packed Hermitian layout

def _reread(block):
    return matrix_from_json(json.loads(json.dumps(block)))


@pytest.mark.parametrize("n", [1, 2, 64])
def test_hermitian_matrix_round_trips_packed(tmp_path, n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = X + X.conj().T
    block = matrix_to_json(M)
    assert block["hermitian"] is True
    assert [len(row) for row in block["re"]] == [len(row) for row in block["im"]] == list(
        range(n, 0, -1))
    assert _reread(block).tobytes() == M.tobytes()
    path = tmp_path / "h.json"
    save_matrix(M, path)
    assert load_matrix(path)[0].tobytes() == M.tobytes()


def test_report_blocks_read_back_bit_identical(matrix_file, capsys):
    # eta, rho and hermitize's h are built as 0.5 (A + A^dag): packed, and read back
    # bit for bit.  tau is not Hermitian and keeps the full layout.
    quasi = generate(EnsembleSpec(6, 4, "quasi"))[0]
    paired = generate(EnsembleSpec(6, 4, "pseudo_nonquasi"))[0]
    for H in (quasi, paired):
        cls = classify(H)
        if cls.kind is OperatorClass.QUASI_HERMITIAN:
            eta = build_positive_metric(cls.spectrum, cls.pairing).matrix
        else:
            eta = build_general_metric(cls.spectrum, cls.pairing).matrix
        path = matrix_file(H)
        for argv in (["classify", path, "--emit-metric"], ["metric", path]):
            code, report = run_cli(capsys, argv)
            assert code == EXIT_OK and report["metric"]["hermitian"] is True
            assert matrix_from_json(report["metric"]).tobytes() == eta.tobytes()
        code, report = run_cli(capsys, ["symmetry", path])
        assert code == EXIT_OK and "hermitian" not in report["antilinear"]
        tau = antilinear_symmetry(cls.spectrum, cls.pairing)
        assert matrix_from_json(report["antilinear"]).tobytes() == tau.tobytes()
    rho, h, _ = hermitize(quasi, classify(quasi).spectrum)   # the command's polar route
    code, report = run_cli(capsys, ["hermitize", matrix_file(quasi)])
    assert code == EXIT_OK and report["rho"]["hermitian"] is True
    assert matrix_from_json(report["rho"]).tobytes() == rho.tobytes()
    assert report["hermitized"]["hermitian"] is True
    assert matrix_from_json(report["hermitized"]).tobytes() == h.tobytes()


PACKED = {"dim": 2, "hermitian": True, "re": [[1, 2], [3]], "im": [[0, 0.5], [0]]}


@pytest.mark.parametrize("change, message", [
    ({"re": [[1, 2], [3, 4]]}, "rows of 2, 1"),
    ({"im": [[0, 0.5]]}, "rows of 2, 1"),
    ({"re": [1, 2, 3]}, "rows of 2, 1"),
    ({"im": [[0, 0.5], [0.25]]}, "diagonal entry that is not real"),
    ({"hermitian": "yes"}, "hermitian must be true or false"),
    ({"hermitian": 1}, "hermitian must be true or false"),
    ({"hermitian": None}, "hermitian must be true or false"),
    ({"re": [[1, True], [3]]}, "true/false entries"),
    ({"im": [[False, 0.5], [0]]}, "true/false entries"),
    ({"re": [[1, "2"], [3]]}, "'re' has entries"),
    ({"im": [[0, None], [0]]}, "'im' has entries"),
    ({"re": [[1, [2]], [3]]}, "'re' has entries"),
    ({"re": [[1, float("inf")], [3]]}, "non-finite"),
    ({"im": [[0, float("nan")], [0]]}, "non-finite"),
    ({"dim": 0, "re": [], "im": []}, "dim must be an integer of at least 1, got 0"),
    ({"dim": -1, "re": [], "im": []}, "dim must be an integer of at least 1, got -1"),
], ids=["full_rows", "missing_row", "flat", "complex_diagonal", "string_flag", "int_flag",
        "null_flag", "true", "false", "string", "null", "nested", "inf", "nan", "zero_dim",
        "negative_dim"])
def test_packed_layout_refusals(change, message):
    assert np.array_equal(matrix_from_json(PACKED), [[1, 2 + 0.5j], [2 - 0.5j, 3]])
    with pytest.raises(ParseError, match=message):
        matrix_from_json({**PACKED, **change})


# ---------------------------------------------------------------------------
# classify

def test_classify_hermitian(matrix_file, capsys):
    code, report = run_cli(capsys, ["classify", matrix_file(SIGMA1)])
    assert code == EXIT_OK
    assert report["schema"] == 6
    assert report["classification"] == "Hermitian"
    assert len(report["spectrum"]) == 2


def test_classify_defective_reports_null_diag_score(matrix_file, capsys):
    # The eigenvector matrix of a Jordan block is singular: no finite score.
    code, report = run_cli(capsys, ["classify", matrix_file(jordan_block(3, 0))])
    assert code == EXIT_OK
    assert report["classification"] == "NonDiagonalizable"
    assert report["residuals"]["diag_score"] is None


def test_classify_emit_metric_for_complex_pair(matrix_file, capsys):
    code, report = run_cli(
        capsys, ["classify", matrix_file(pt2x2(1, np.pi / 2, 0.5)), "--emit-metric"])
    assert code == EXIT_OK
    assert report["classification"] == "PseudoHermitianOnly"
    assert report["signature"] == [1, 1]
    assert report["residuals"]["intertwining"] <= 1e-8
    assert report["metric"]["dim"] == 2


def test_classify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_classify_missing_file(capsys):
    assert main(["classify", "/nonexistent/nowhere.json"]) == EXIT_INPUT


def test_classify_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}))
    assert main(["classify", str(path)]) == EXIT_INPUT


@pytest.mark.parametrize("matrix, message", [
    ({"dim": 2, "re": [[{}, 1], [0, 0]], "im": [[0, 0], [0, 0]]}, "'re' has entries"),
    ({"dim": 2, "re": [["1", "2"], [0, 0]], "im": [[0, 0], [0, 0]]}, "'re' has entries"),
    ({"dim": 2, "re": [[1, 2], [0, 0]], "im": [[0, None], [0, 0]]}, "'im' has entries"),
    ({"dim": "2", "re": [[1, 2], [0, 0]], "im": [[0, 0], [0, 0]]}, "dim must be an integer"),
    ({"dim": 2.0, "re": [[1, 2], [0, 0]], "im": [[0, 0], [0, 0]]}, "dim must be an integer"),
    ({"dim": 0, "re": [], "im": []}, "dim must be an integer of at least 1, got 0"),
    ({"dim": -1, "re": [], "im": []}, "dim must be an integer of at least 1, got -1"),
    # numpy converts these to int64 and float64: true would read as 1.
    ({"dim": 2, "re": [[True, 1], [0, 0]], "im": [[0, 0], [0, 0]]}, "true/false entries"),
    ({"dim": 2, "re": [[0, 1.5], [0, 0]], "im": [[0, 0], [False, 0]]}, "true/false entries"),
], ids=["object", "strings", "null", "string_dim", "float_dim", "zero_dim", "negative_dim",
        "bool_int", "bool_float"])
def test_classify_refuses_entries_that_are_not_numbers(tmp_path, capsys, matrix, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix))
    assert main(["classify", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    with pytest.raises(ParseError, match=message):
        matrix_from_json(matrix)


def test_true_under_another_key_still_loads(tmp_path, capsys):
    # The file holds a t byte, so the entries are scanned, and hold no boolean.
    path = tmp_path / "flagged.json"
    path.write_text(json.dumps({"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]],
                                "comment": True}))
    M, _ = load_matrix(path)
    assert np.array_equal(M, [[0, 1], [1, 0]])
    code, report = run_cli(capsys, ["classify", str(path)])
    assert code == EXIT_OK and report["classification"] == "Hermitian"


def test_matrix_from_json_reads_integer_entries():
    M = matrix_from_json({"dim": 2, "re": [[1, 2], [0, 0]], "im": [[0, 0.5], [0, 0]]})
    assert np.array_equal(M, np.array([[1, 2 + 0.5j], [0, 0]]))


def test_classify_report_is_reproducible(matrix_file, capsys):
    H, _, _ = generate(EnsembleSpec(4, 12, "quasi"))
    path = matrix_file(H)
    code1 = main(["classify", path, "--emit-metric"])
    out1 = capsys.readouterr().out
    code2 = main(["classify", path, "--emit-metric"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_metric_commands_use_the_classification_tolerance(matrix_file, capsys):
    # One eigenvalue 1e-7 off the real axis: real at --tol 1e-6, unpaired at 1e-9.
    rng = np.random.default_rng(1)
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = S @ np.diag([-1, -0.3 + 1e-7j, 0.4, 0.9]) @ np.linalg.inv(S)
    path = matrix_file(H)
    for argv in (["classify", path, "--tol", "1e-6", "--emit-metric"],
                 ["metric", path, "--tol", "1e-6"]):
        code, report = run_cli(capsys, argv)
        assert code == EXIT_OK, argv
        assert report["classification"] == "QuasiHermitian"
        assert report["signature"] == [4, 0]


# ---------------------------------------------------------------------------
# metric / hermitize / symmetry

def test_metric_command_quasi(matrix_file, capsys):
    H, _, _ = generate(EnsembleSpec(4, 3, "quasi"))
    code, report = run_cli(capsys, ["metric", matrix_file(H)])
    assert code == EXIT_OK
    assert report["signature"] == [4, 0]
    assert report["residuals"]["intertwining"] <= 1e-8


def test_scaled_input_keeps_its_metric(matrix_file, capsys):
    # c H has the eigenvectors of H, so metric and hermitize must hold at every
    # power of ten c from 1e-300 to 1e150, the class unchanged from c = 1.
    H = generate(EnsembleSpec(6, 4, "quasi"))[0]
    kind = run_cli(capsys, ["classify", matrix_file(H)])[1]["classification"]
    failed = []
    for e in range(-300, 151):
        path = matrix_file(H * 10.0 ** e)
        code, report = run_cli(capsys, ["metric", path])
        hermitized = main(["hermitize", path])
        capsys.readouterr()
        if not (code == EXIT_OK and report["residuals"]["intertwining"] <= 1e-8
                and report["classification"] == kind and hermitized == EXIT_OK):
            failed.append(e)
    assert failed == []


def test_near_overflow_input_keeps_a_nonzero_residual(matrix_file, capsys):
    # At 1e307, ||H|| ||eta|| overflows: the residual divides by one norm at a
    # time, so it reads about 1e-15, not 0.0.
    H = generate(EnsembleSpec(6, 4, "quasi"))[0]
    path = matrix_file(H * 1e307)
    for command in ("metric", "hermitize"):
        code, report = run_cli(capsys, [command, path])
        assert code == EXIT_OK
        assert 0.0 < report["residuals"]["intertwining"] <= 1e-8, command


@pytest.mark.parametrize("scale", [5e307, 1e308])
def test_overflowing_input_is_refused(matrix_file, capsys, scale):
    # At 5e307 ||H - H^dag||_F overflows, at 1e308 ||H|| itself: each matrix
    # command exits 3 and names the overflow, with no report and no warning.
    path = matrix_file(generate(EnsembleSpec(6, 4, "quasi"))[0] * scale)
    for command in ("classify", "metric", "hermitize", "symmetry"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, path])
        out, err = capsys.readouterr()
        assert code == EXIT_NUMERIC and out == "" and "overflow" in err, command


def test_largest_representable_norm_is_not_refused(matrix_file, capsys):
    # The largest entry is past 2^1023, where 2^e alone overflows; the norm is a float.
    path = matrix_file(np.diag([1.5e308, 1.0]))
    for command in ("classify", "metric", "hermitize", "symmetry"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_cli(capsys, [command, path])
        assert code == EXIT_OK, command
        assert report["spectrum"] == [[1.0, 0.0], [1.5e308, 0.0]]
        assert all(value == 0.0 for key, value in report["residuals"].items()
                   if key != "diag_score")


def test_metric_command_refuses_unpaired(matrix_file, capsys):
    M = np.array([[1, 1], [0, 2j]], dtype=complex)
    code = main(["metric", matrix_file(M)])
    capsys.readouterr()
    assert code == EXIT_NUMERIC
    # classify --emit-metric answers the same input, with no metric.
    code, report = run_cli(capsys, ["classify", matrix_file(M), "--emit-metric"])
    assert code == EXIT_OK
    assert report["classification"] == "NotPseudoHermitian" and report["metric"] is None
    assert "NotPseudoHermitian" in report["notes"]


def test_hermitize_command(matrix_file, capsys):
    code, report = run_cli(capsys, ["hermitize", matrix_file(pt2x2(1, np.pi / 6, 1))])
    assert code == EXIT_OK
    assert report["residuals"]["hermiticity_of_h"] <= 1e-8
    h = matrix_from_json(report["hermitized"])
    lam = np.sort(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))
    assert np.allclose(lam, [0.0, np.sqrt(3)], atol=1e-9)


def test_hermitize_reports_rho_and_h_but_not_eta(matrix_file, capsys):
    # eta = rho^2 is what metric emits; hermitize keeps its signature only.
    code, report = run_cli(capsys, ["hermitize", matrix_file(pt2x2(1, np.pi / 6, 1))])
    assert code == EXIT_OK
    assert report["schema"] == 6 and report["metric"] is None
    assert report["signature"] == [2, 0]
    rho = matrix_from_json(report["rho"])
    assert np.allclose(rho, rho.conj().T) and np.all(np.linalg.eigvalsh(rho) > 0)
    assert report["hermitized"]["dim"] == 2


def test_schema_6_drops_the_residuals_fixed_by_construction(matrix_file, capsys):
    # metric_selfadjoint (of a metric built as 0.5 (A + A^dag)) and sigma3_intertwining
    # (of closed-form blocks) read 0.0 by construction, and are gone.  hermiticity_of_h
    # reads 0.0 for the same reason, but the benchmark's checks still read it.
    path = matrix_file(generate(EnsembleSpec(4, 3, "quasi"))[0])
    for argv in (["classify", path, "--emit-metric"], ["metric", path],
                 ["kg", "--n", "8", "--samples", "2"]):
        code, report = run_cli(capsys, argv)
        assert code == EXIT_OK and report["schema"] == 6, argv
        assert not {"metric_selfadjoint", "sigma3_intertwining"} & set(report["residuals"]), argv
    code, report = run_cli(capsys, ["hermitize", path])
    assert code == EXIT_OK and report["schema"] == 6
    assert report["residuals"]["hermiticity_of_h"] == 0.0


@pytest.mark.parametrize("n, exponent, shift", [
    (256, 2, 0.0), (32, 5, 0.0), (64, 4, 0.0), (256, 5, 0.0), (32, 2, 3.0), (256, 5, 3.0),
], ids=["n256-kappa1e2", "n32-kappa1e5", "n64-kappa1e4", "n256-kappa1e5",
        "n32-kappa1e2-shifted", "n256-kappa1e5-shifted"])
def test_hermitize_exits_3_exactly_when_h_is_past_its_gate(matrix_file, capsys, monkeypatch,
                                                           n, exponent, shift):
    # h is Hermitian by construction, so hermiticity_of_h reads 0.0 and the gate is
    # the similarity residual ||rho H - h rho||: on planted real n = 256 inputs it
    # reads about 1e-14 at kappa = 1e2 and 1e-13 at kappa = 1e5.  The eta_+ of
    # H + 3 I intertwines H as well, and its h is that of H + 3 I: classifying the
    # shifted matrix leaves the similarity gate alone to refuse it.
    import pseudoherm.cli as cli

    H, _ = planted(np.random.default_rng([7, n, exponent]), n, "real", 10.0 ** exponent)
    monkeypatch.setattr(cli, "classify", lambda M, tol: classify(M + shift * np.eye(n), tol))
    code = main(["hermitize", matrix_file(H)])
    out, err = capsys.readouterr()
    if shift:
        # A refused h: exit 3, the gate named in the error, and no report, so no rho and no h.
        assert code == EXIT_NUMERIC and out == ""
        assert "rho H != h rho: similarity" in err and "> INTERTWINE_TOL = 1e-08" in err
        return
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == EXIT_OK and report["notes"] == ""
    assert report["classification"] == "QuasiHermitian" and report["signature"] == [n, 0]
    assert len(report["spectrum"]) == n and report["residuals"]["intertwining"] <= 1e-8
    assert report["residuals"]["hermiticity_of_h"] == 0.0
    assert report["residuals"]["similarity"] <= 1e-8
    assert report["rho"]["hermitian"] is True and report["hermitized"]["hermitian"] is True


@pytest.mark.parametrize("exponent", [3, 4, 5])
def test_polar_hermitize_matches_the_planted_truth(matrix_file, capsys, exponent):
    # The planted real n = 256 inputs of the gate test above, where the square-root
    # route's h was skew past the gate from kappa = 1e4 on: the polar h is Hermitian,
    # rho H = h rho holds to roundoff, h has the planted spectrum, and rho^2 is
    # metric's eta.
    H, lam = planted(np.random.default_rng([7, 256, exponent]), 256, "real", 10.0 ** exponent)
    path = matrix_file(H)
    code, report = run_cli(capsys, ["hermitize", path])
    assert code == EXIT_OK and report["residuals"]["hermiticity_of_h"] == 0.0
    assert report["residuals"]["similarity"] <= 1e-8
    h, rho = (matrix_from_json(report[key]) for key in ("hermitized", "rho"))
    assert report["hermitized"]["hermitian"] is True
    lam = np.sort(lam.real)
    assert np.all(np.abs(np.linalg.eigvalsh(h) - lam) <= 1e-8 * (1 + np.abs(lam)))
    code, report = run_cli(capsys, ["metric", path])
    assert code == EXIT_OK
    eta = matrix_from_json(report["metric"])
    assert np.linalg.norm(rho @ rho - eta) <= 1e-12 * np.linalg.norm(eta)


def test_hermitize_command_refuses_complex_pair(matrix_file, capsys):
    code = main(["hermitize", matrix_file(pt2x2(1, np.pi / 2, 0.5))])
    capsys.readouterr()
    assert code == EXIT_NUMERIC


def test_metric_and_hermitize_agree_at_the_ceiling(matrix_file, capsys):
    # A real spectrum whose eta_+ = Phi Phi^dag has lambda_min/lambda_max = 2.5e-11,
    # above INVERTIBILITY_TOL: metric accepts it, and so does hermitize's square root.
    S = np.array([[1.0, 1.0], [0.0, 1e-5]])
    path = matrix_file(S @ np.diag([1.0, 2.0]) @ np.linalg.inv(S))
    code, report = run_cli(capsys, ["metric", path])
    assert code == EXIT_OK and report["residuals"]["intertwining"] <= 1e-8
    code, report = run_cli(capsys, ["hermitize", path])
    assert code == EXIT_OK
    assert report["residuals"]["intertwining"] <= 1e-8
    assert report["residuals"]["hermiticity_of_h"] <= 1e-8


def test_symmetry_command(matrix_file, capsys):
    code, report = run_cli(capsys, ["symmetry", matrix_file(pt2x2(1, np.pi / 2, 0.5))])
    assert code == EXIT_OK
    assert report["residuals"]["antilinear_commutation"] <= 1e-8


def test_symmetry_command_refuses_defective(matrix_file, capsys):
    J = np.array([[0, 1], [0, 0]], dtype=complex)
    code = main(["symmetry", matrix_file(J)])
    capsys.readouterr()
    assert code == EXIT_NUMERIC


# ---------------------------------------------------------------------------
# kg

def test_kg_command_small(capsys):
    code, report = run_cli(capsys, ["kg", "--n", "16", "--samples", "10", "--t-final", "10"])
    assert code == EXIT_OK
    res = report["residuals"]
    assert res["pd_conservation_drift"] <= 1e-10
    assert res["kg_conservation_drift"] <= 1e-10
    assert res["pd_positivity_min"] > 0
    assert res["pd_mode_sum_deviation"] <= 1e-10
    assert report["sector_dims"] == {"indefinite_metric": 16, "pseudo_hermitian": 32}


@pytest.mark.parametrize("argv", [
    ["kg", "--n", "8", "--samples", "5"],
    ["kg", "--n", "16", "--samples", "3", "--t-final", "3"],
], ids=" ".join)
def test_kg_report_matches_per_sample_loop(capsys, argv):
    code, report = run_cli(capsys, argv)
    assert code == EXIT_OK
    # Reference: one state at a time, as the command sampled before batching.
    opts = dict(zip(argv[1::2], argv[2::2]))
    grid = make_grid(int(opts["--n"]), 20 * np.pi, 1.0)
    mu = grid.m
    rng = np.random.default_rng(DEFAULT_SEED)
    pd_drift = kg_drift = mode_sum_dev = 0.0
    pd_min = np.inf
    for _ in range(int(opts["--samples"])):
        state = random_state(grid, rng=rng)
        weight = np.abs(state.a) ** 2 + np.abs(state.b) ** 2
        scale = float(np.sum(grid.omega * weight))
        pd0 = pd_inner(state, state, mu)
        kg0 = kg_inner(state, state)
        pd_min = min(pd_min, pd0.real / float(np.sum(weight)))
        mode_sum_dev = max(mode_sum_dev, abs(pd0 - scale / mu) / (scale / mu))
        # the command samples its drifts at its last checkpoint, t_final
        moved = evolve(state, float(opts.get("--t-final", 10.0)))
        pd_drift = max(pd_drift, abs(pd_inner(moved, moved, mu) - pd0) / (scale / mu))
        kg_drift = max(kg_drift, abs(kg_inner(moved, moved) - kg0) / (2 * scale))
    res = report["residuals"]
    assert res["pd_positivity_min"] == pytest.approx(pd_min, rel=1e-12, abs=0)
    assert res["pd_mode_sum_deviation"] == pytest.approx(mode_sum_dev, rel=1e-12, abs=0)
    assert res["pd_conservation_drift"] <= 1e-14 and pd_drift <= 1e-14
    assert res["kg_conservation_drift"] <= 1e-14 and kg_drift <= 1e-14


def test_kg_fft_count(capsys, monkeypatch):
    # 2 checkpoints (t = 0 and t_final) x 4 FFTs: psi and d_t psi once per state,
    # and D^{+/-1/2} applied in mode space for pd_inner; the fields are shared
    # with kg_inner.  The propagator check at the other checkpoints makes none.
    calls = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(args[0].shape)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    code, report = run_cli(capsys, ["kg", "--n", "8", "--samples", "2"])
    assert code == EXIT_OK
    assert len(calls) == 8
    assert set(calls) == {(2, 8)}


def test_kg_makes_no_svd(capsys, monkeypatch):
    # classify's inputs are closed forms of the 2x2 blocks.
    calls = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append("norm")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append("svd")
                        or svd(*args, **kwargs))
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    code, report = run_cli(capsys, ["kg", "--n", "64", "--samples", "2"])
    assert code == EXIT_OK
    assert report["classification"] == "QuasiHermitian"
    assert calls == []


@pytest.mark.parametrize("n", [8, 64, 256])
def test_kg_diag_score_is_the_largest_block_score(capsys, monkeypatch, n):
    # kg's max_k ||V_k||_F ||V_k^-1||_F against eig_full on each 2x2 block;
    # it bounds cond_2 of the block-diagonal eigenvector matrix and does not grow with N.
    import pseudoherm.cli as cli

    scores, decide = [], cli.decide_class
    monkeypatch.setattr(cli, "decide_class", lambda w, score, *a: scores.append(score)
                        or decide(w, score, *a))
    code, _ = run_cli(capsys, ["kg", "--n", str(n), "--samples", "2"])
    assert code == EXIT_OK and len(scores) == 1
    modes = fv_modes(make_grid(n, 20 * np.pi, 1.0))
    blocks = eig_full(modes.blocks)
    assert scores[0] == pytest.approx(np.max(blocks.diag_score), rel=1e-12)
    sv = np.linalg.svd(blocks.right, compute_uv=False)
    assert np.max(sv) / np.min(sv) <= scores[0] <= 2 * np.max(sv[:, 0] / sv[:, 1])


def test_kg_refuses_a_non_diagonalizable_grid(capsys):
    # m = 1e-9: the k_max block's eigenvectors have cond ~ k_max/m = 3.2e9 > 1e8.
    assert main(["kg", "--n", "64", "--mass", "1e-9", "--samples", "2"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the diagonalizability cutoff" in captured.err
    dense = classify(fv_hamiltonian(make_grid(64, 20 * np.pi, 1e-9)))
    assert dense.kind is OperatorClass.NON_DIAGONALIZABLE


def test_kg_reports_hermitian_on_a_long_period(capsys):
    # L = 1e10: ||h_k - h_k^dag|| / ||h_k|| = 2t/(2t + m) ~ 6e-18, t = k^2/(2m).
    code, report = run_cli(capsys, ["kg", "--n", "8", "--length", "1e10"])
    assert code == EXIT_OK
    dense = classify(fv_hamiltonian(make_grid(8, 1e10, 1.0)))
    assert report["classification"] == dense.kind.value == "Hermitian"


def test_kg_command_rejects_massless(capsys):
    assert main(["kg", "--n", "8", "--mass", "0"]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value", [
    ("--mass", "1e155"),     # m**2 overflows
    ("--mass", "1e-200"),    # m**2 underflows to 0
    ("--length", "1e-300"),  # k**2 overflows
])
def test_kg_command_rejects_unrepresentable_dispersion(capsys, flag, value):
    assert main(["kg", "--n", "8", flag, value]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dispersion of N=8")
    assert "not representable" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("n, t_final", [
    # t_final = 10 is the default run; the ids of the others name their time.
    pytest.param(n, t, id=str(n) if t == 10 else f"{n}-t{t:g}")
    for t in (10.0, -10.0, 0.0) for n in (8, 64, 256, 4096)])
def test_kg_propagator_deviation_within_bound(capsys, n, t_final):
    code, report = run_cli(capsys, ["kg", "--n", str(n), "--samples", "2",
                                    "--t-final", str(t_final)])
    assert code == EXIT_OK
    res = report["residuals"]
    if t_final == 0:   # every checkpoint is t = 0: nothing moves
        assert [res[key] for key in ("fv_propagator_deviation", "pd_conservation_drift",
                                     "kg_conservation_drift")] == [0.0] * 3
    else:
        grid = make_grid(n, 20 * np.pi, 1.0)
        assert 0 < res["fv_propagator_deviation"] <= propagator_bound(grid, t_final)


def test_kg_propagates_at_every_nonzero_checkpoint(capsys, monkeypatch):
    import pseudoherm.cli as cli

    times = []
    propagate = cli.fv_propagate
    monkeypatch.setattr(cli, "fv_propagate",
                        lambda modes, psi, t: times.append(t) or propagate(modes, psi, t))
    code, _ = run_cli(capsys, ["kg", "--n", "8", "--samples", "2", "--t-final", "3"])
    assert code == EXIT_OK
    assert times == list(np.linspace(0.0, 3.0, 9)[1:])


def test_kg_propagator_deviation_catches_a_wrong_time(capsys, monkeypatch):
    # evolve to t(1 + 1e-3): every state is still an exact solution, so both
    # quadrature drifts stay at roundoff; only the propagator check sees it.
    import pseudoherm.cli as cli

    exact = cli.evolve
    monkeypatch.setattr(cli, "evolve", lambda state, dt: exact(state, dt * (1 + 1e-3)))
    code, report = run_cli(capsys, ["kg", "--n", "64", "--samples", "10"])
    assert code == EXIT_OK
    res = report["residuals"]
    bound = propagator_bound(make_grid(64, 20 * np.pi, 1.0), 10.0)
    assert res["fv_propagator_deviation"] > 1e6 * bound
    assert res["pd_conservation_drift"] <= 1e-14
    assert res["kg_conservation_drift"] <= 1e-14


# ---------------------------------------------------------------------------
# verify

def test_verify_quasi_ensemble(capsys):
    code, report = run_cli(
        capsys, ["verify", "--ensemble", "quasi", "--count", "20", "--dims", "2-5"])
    assert code == EXIT_OK
    suite = report["suite"]
    assert suite["passed"] and suite["failures"] == 0
    assert suite["leg_counts"]["positive_ok"] == 20


def test_verify_pseudo_nonquasi_ensemble(capsys):
    code, report = run_cli(
        capsys, ["verify", "--ensemble", "pseudo_nonquasi", "--count", "15", "--dims", "3,4,5"])
    assert code == EXIT_OK
    suite = report["suite"]
    assert suite["leg_counts"]["pair_ok"] == 15       # spectra conjugate-paired
    assert suite["leg_counts"]["positive_ok"] == 0    # uniformly refused


def test_verify_defective_ensemble_skips(capsys):
    code, report = run_cli(
        capsys, ["verify", "--ensemble", "defective", "--count", "8", "--dims", "2-4"])
    assert code == EXIT_OK
    assert report["suite"]["skipped"] == 8


def test_verify_seeds_past_two_to_the_64_and_refuses_a_negative_seed(capsys):
    # Instance i is seeded as default_rng(--seed + i): any non-negative size of seed
    # works, and a negative one is refused as default_rng refuses it, with exit 2.
    assert main(["verify", "--seed", "-1"]) == EXIT_INPUT
    assert "expected non-negative integer" in capsys.readouterr().err
    code, report = run_cli(capsys, ["verify", "--count", "12", "--seed", "18446744073709551610"])
    assert code == EXIT_OK
    assert report["suite"]["failures"] == 0 and report["suite"]["instances"] == 12


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random takes 10-16 ms to import; generate loads it when it first seeds,
    # so no command pays for it at start-up.
    code = "import sys, pseudoherm.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr or "numpy.random was imported"


def test_verify_reports_failure_exit_code(capsys, monkeypatch):
    # force a failed suite to confirm the suite-failure exit path
    import pseudoherm.suites as suites

    def failing(specs):
        out = suites.run_equivalence_suite(specs)
        return {**out, "passed": False, "failures": 1}

    monkeypatch.setattr("pseudoherm.cli.run_equivalence_suite", failing)
    code = main(["verify", "--ensemble", "quasi", "--count", "2", "--dims", "2"])
    capsys.readouterr()
    assert code == 1


def test_dims_parsing(capsys):
    code, report = run_cli(capsys, ["verify", "--ensemble", "quasi",
                                    "--count", "4", "--dims", "3"])
    assert code == EXIT_OK
    # Every malformed value names the flag, never int()'s "invalid literal".
    for value in ("0-3", "3-", "a-b", "-3", "2-8-9"):
        code = main(["verify", "--dims", value])
        assert code == EXIT_INPUT, value
        assert capsys.readouterr().err == f"error: bad --dims value {value!r}\n", value


# ---------------------------------------------------------------------------
# flags and decompositions per command

@pytest.mark.parametrize("argv", [
    [cmd, "MATRIX", "--format", "json"] for cmd in ("classify", "metric", "hermitize", "symmetry")
] + [
    [cmd, "MATRIX", "--seed", "1"] for cmd in ("classify", "metric", "hermitize", "symmetry")
] + [
    [cmd, flag, value] for cmd in ("kg", "verify")
    for flag, value in (("--tol", "1e-9"), ("--kappa-max", "1e8"), ("--format", "json"))
] + [
    ["kg", "--n", "8", "--samples", "0"],     # counts must be at least 1
    ["verify", "--count", "0"],
    ["verify", "--count", "x"],               # and integers
] + [
    ["classify", "MATRIX", "--tol", value] for value in ("nan", "-1")  # finite and > 0
] + [
    ["metric", "MATRIX", "--kappa-max", "inf"],
    ["classify", "MATRIX", "--kappa-max", "1e8"],   # the cutoff is KAPPA_MAX alone
    ["kg", "--t-final", "nan"],
    ["kg", "--t-final", "inf"],
    ["kg", "--length", "inf"],
    ["kg", "--mass", "inf"],
    ["kg", "--mu", "1"],                      # pd_inner's scale is the mass
], ids=" ".join)
def test_unread_flags_are_rejected(matrix_file, capsys, argv):
    argv = [matrix_file(SIGMA1) if arg == "MATRIX" else arg for arg in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    capsys.readouterr()
    assert info.value.code == 2


def count_calls(monkeypatch, original):
    """Replace original wherever a pseudoherm module binds it; returns the call log."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pseudoherm" or name.startswith("pseudoherm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


VERIFY_12 = ["verify", "--count", "12", "--dims", "2-4"]


@pytest.mark.parametrize("argv, counted, decompositions, matrices", [
    (["classify", "MATRIX", "--emit-metric"], "linalg.eig_full", 1, 1),
    (["metric", "MATRIX"], "linalg.eig_full", 1, 1),
    (["hermitize", "MATRIX"], "linalg.eig_full", 1, 1),
    (["hermitize", "MATRIX"], "metrics.build_positive_metric", 0, 0),   # eta_+ from the SVD
    (["symmetry", "MATRIX"], "linalg.eig_full", 1, 1),
    (["kg", "--n", "8", "--samples", "2"], "linalg.eig_full", 0, 0),   # closed-form 2x2 blocks
    (VERIFY_12, "linalg.eig_full", 3, 12),                 # one stack per dim
    (VERIFY_12, "metrics.classify", 3, 12),                # verify routes each stack through
    (VERIFY_12, "metrics.build_general_metric", 3, 12),    # the metrics functions, once each
    (VERIFY_12, "metrics.hermitize", 3, 8),                # leg c: the 8 positive metrics
    (VERIFY_12, "linalg.herm_sqrt", 0, 0),                 # leg c takes the polar route
    (["hermitize", "MATRIX"], "metrics.similarity_residual", 1, 1),   # the report reads
    (VERIFY_12, "metrics.similarity_residual", 3, 8),      # hermitize's, as leg c does
    # Bounded norms: ||H|| and a built eta's or tau's.  rho's is sigma_max of Phi's
    # SVD, leg c's tau's is sigma_max of its invertibility SVD, and verify's eta's is
    # the max |lambda| of leg b's eigvalsh.
    (["metric", "MATRIX"], "linalg.norm_lower_bound", 2, 2),
    (["symmetry", "MATRIX"], "linalg.norm_lower_bound", 2, 2),
    (["hermitize", "MATRIX"], "linalg.norm_lower_bound", 1, 1),
    (VERIFY_12, "linalg.norm_lower_bound", 3, 12),         # H alone, one stack per dim
], ids=["classify", "metric", "hermitize", "hermitize-build_positive_metric", "symmetry", "kg",
        "verify", "verify-classify", "verify-build_general_metric", "verify-hermitize",
        "verify-herm_sqrt", "hermitize-similarity_residual", "verify-similarity_residual",
        "metric-norm_lower_bound", "symmetry-norm_lower_bound", "hermitize-norm_lower_bound",
        "verify-norm_lower_bound"])
def test_one_decomposition_per_matrix(matrix_file, capsys, monkeypatch, argv, counted,
                                      decompositions, matrices):
    import pseudoherm

    module, name = counted.split(".")
    calls = count_calls(monkeypatch, getattr(getattr(pseudoherm, module), name))
    H, _, _ = generate(EnsembleSpec(4, 3, "quasi"))
    argv = [matrix_file(H) if arg == "MATRIX" else arg for arg in argv]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == decompositions
    stacks = [getattr(M, "left", M) for M, *_ in calls]   # a matrix, a stack or a Spectrum
    assert sum(len(M) if np.ndim(M) == 3 else 1 for M in stacks) == matrices


@pytest.mark.parametrize("argv", [
    ["metric", "MATRIX"],
    ["classify", "MATRIX", "--emit-metric"],
    ["hermitize", "MATRIX"],
], ids=["metric", "classify", "hermitize"])
def test_built_metrics_take_no_hermitian_eigensolve(matrix_file, capsys, monkeypatch, argv):
    # A built eta = Phi M Phi^dag is invertible, of Sylvester's signature, by
    # construction: the one eigendecomposition is H's eig.
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, original=original, **k:
                            calls.append(name) or original(*a, **k))
    H, _, _ = generate(EnsembleSpec(4, 3, "quasi"))
    code, report = run_cli(capsys, [matrix_file(H) if arg == "MATRIX" else arg for arg in argv])
    assert code == EXIT_OK and report["signature"] == [4, 0]
    assert calls == ["eig"]


@pytest.mark.parametrize("argv, checks", [
    (["hermitize", "MATRIX"], 1),     # the residual hermitize measured is the one reported
], ids=["hermitize"])
def test_one_intertwining_check_per_command(matrix_file, capsys, monkeypatch, argv, checks):
    import pseudoherm.metrics as metrics

    calls = count_calls(monkeypatch, metrics.verify_intertwining)
    H, _, _ = generate(EnsembleSpec(4, 3, "quasi"))
    argv = [matrix_file(H) if arg == "MATRIX" else arg for arg in argv]
    code, report = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert len(calls) == checks
    assert report["residuals"]["intertwining"] <= 1e-8


@pytest.mark.parametrize("argv", [
    ["classify", "MATRIX", "--emit-metric"],
    ["metric", "MATRIX"],
    ["symmetry", "MATRIX"],
    ["hermitize", "MATRIX"],
], ids=["classify", "metric", "symmetry", "hermitize"])
def test_norms_computed_once(matrix_file, capsys, monkeypatch, argv):
    import pseudoherm.linalg as linalg

    H, _, _ = generate(EnsembleSpec(4, 3, "quasi"))
    argv = [matrix_file(H) if arg == "MATRIX" else arg for arg in argv]
    exact = count_calls(monkeypatch, linalg.spectral_norm)
    svds, svd, cond = [], np.linalg.svd, np.linalg.cond   # cond takes its SVD inside numpy
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append("svd") or svd(*a, **k))
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: svds.append("cond") or cond(*a, **k))
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    monkeypatch.undo()
    assert exact == []
    # diag_score and every residual are O(n^2) past eig and inv; hermitize's one SVD is
    # the polar factorization of Phi.
    assert svds == (["svd"] if argv[0] == "hermitize" else [])
    assert out.count("\n") == 1 and out.endswith("\n")   # one compact line
    report = json.loads(out, parse_constant=_reject_constant)

    # Every residual by the bound's closed form: ||X||_F over norm_lower_bound
    # of each factor, the built eta's too, as the MetricOperator carries it; the
    # polar route's eta_+ and rho carry sigma_max^2 and sigma_max, their exact norms.
    def bound(numerator, *factors):
        return np.linalg.norm(numerator) / np.prod(factors)

    H, _ = load_matrix(argv[1])
    E, T, h, rho = (matrix_from_json(report[key]) if report.get(key) else None
                    for key in ("metric", "antilinear", "hermitized", "rho"))
    if argv[0] == "hermitize":
        # hermitize emits rho, not eta_+ = rho^2: rebuild the eta_+ = U Sigma^2 U^dag
        # of Phi's SVD that its intertwining gate checks.
        U, sigma, _ = np.linalg.svd(classify(H).spectrum.left)
        E = 0.5 * (U * sigma ** 2) @ U.conj().T
        E = E + E.conj().T
        assert np.linalg.norm(rho @ rho - E) <= 1e-12 * np.linalg.norm(E)
    lb = norm_lower_bound
    formulas = {
        "hermiticity": lambda: bound(H - H.conj().T, lb(H)),
        "intertwining": lambda: bound(H.conj().T @ E - E @ H, lb(H),
                                      spectral_norm(E) if argv[0] == "hermitize" else lb(E)),
        "antilinear_commutation": lambda: bound(H @ T - T @ H.conj(), lb(H), lb(T)),
        "hermiticity_of_h": lambda: bound(h - h.conj().T, lb(h)),
        "similarity": lambda: bound(rho @ H - h @ rho, lb(H), spectral_norm(rho)),
    }
    residuals = {k: v for k, v in report["residuals"].items() if k != "diag_score"}
    assert residuals
    for key, value in residuals.items():
        assert value == pytest.approx(formulas[key](), rel=1e-12, abs=0), key


def test_verify_makes_no_residual_svd(capsys, monkeypatch):
    # Per dimension group: generate's two, tau's invertibility test and leg c's
    # polar factorization of the stacked left systems in hermitize.
    import pseudoherm.linalg as linalg

    exact = count_calls(monkeypatch, linalg.spectral_norm)
    callers, svd, cond = [], np.linalg.svd, np.linalg.cond
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: callers.append(
        sys._getframe(1).f_code.co_name) or svd(*a, **k))
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: callers.append(
        "cond in " + sys._getframe(1).f_code.co_name) or cond(*a, **k))
    code, report = run_cli(capsys, ["verify", "--count", "60", "--dims", "2-4", "--seed", "11"])
    assert code == EXIT_OK and report["suite"]["failures"] == 0
    assert exact == []
    assert sorted(callers) == sorted(3 * ["_similar", "_similar",
                                          "check_conjugation_equivalence", "hermitize"])


@pytest.mark.parametrize("n", [8, 16, 64])
def test_kg_report_matches_dense_oracle(capsys, monkeypatch, n):
    import pseudoherm.linalg as linalg
    import pseudoherm.physical as physical

    # The dense route the command took before the per-mode path: classify the
    # 2N x 2N Hamiltonian, sigma3 signs of its eigenvectors, restriction to K.
    grid = make_grid(n, 20 * np.pi, 1.0)
    H = fv_hamiltonian(grid)
    cls = classify(H)
    signs = indefinite_physical_set(cls.spectrum, sigma3_metric(grid))
    positive = sum(1 for _, s in signs if s > 0)
    kept = restrict_to_physical(H, cls).dim
    dense_calls = [count_calls(monkeypatch, fn) for fn in (
        linalg.eig_full, linalg.spectral_norm, physical.restrict_to_physical,
        physical.indefinite_physical_set)]
    code, report = run_cli(capsys, ["kg", "--n", str(n), "--samples", "3", "--seed", "11"])
    assert code == EXIT_OK
    assert [len(calls) for calls in dense_calls] == [0, 0, 0, 0]
    assert list(report) == ["schema", "input_digest", "classification", "residuals",
                            "metric", "signature", "spectrum", "notes", "sector_dims"]
    assert list(report["residuals"]) == [
        "pd_conservation_drift", "kg_conservation_drift", "pd_positivity_min",
        "pd_mode_sum_deviation", "fv_propagator_deviation"]
    assert report["classification"] == cls.kind.value == "QuasiHermitian"
    assert report["sector_dims"] == {"indefinite_metric": positive, "pseudo_hermitian": kept}
    assert report["notes"] == (
        f"indefinite-metric physical space keeps {positive} of {2 * n} directions "
        f"(positive-energy only); the real-spectrum construction keeps all {kept}")


def test_kg_forms_no_dense_matrix(capsys):
    # fv_hamiltonian at N = 2048 alone is a 4096 x 4096 complex array, 268 MB.
    tracemalloc.start()
    try:
        code = main(["kg", "--n", "2048", "--samples", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    assert peak < 64 * 2**20
