"""The advertised range as one table: every matrix command on planted inputs.

Each cell is one planted input (oracles.planted: H = S diag(lam) S^-1 with
cond_2(S) = kappa exactly) of size n, conditioning kappa, a real or a paired
spectrum, times a scale.  The four matrix commands run on it through
cli.main, and each call is judged

- right: the planted class; where a signature is reported, Sylvester's
  (n - p, p) for p conjugate pairs; every reported gate residual <= 1e-8;
  and hermitize on a paired input exits 3 with the planted class;
- refused: exit 3 with an error or with a named gate (an ..._TOL in the
  notes), or a refusal class at any exit code;
- wrong: anything else.  A class that is neither the planted one nor a
  refusal class is wrong whatever the exit code.

KNOWN_WRONG lists the calls that are wrong today, by the ROADMAP item that
fixes them.  A cell's test fails when a call outside the list goes wrong,
and also when a listed call turns right or refused, so the list can only
shrink and each fix shows in its diff.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest

from pseudoherm.cli import main, save_matrix
from pseudoherm.metrics import build_general_metric, classify
from pseudoherm.models import pt2x2

from oracles import planted

COMMANDS = {"classify": ["classify", "--emit-metric"], "metric": ["metric"],
            "hermitize": ["hermitize"], "symmetry": ["symmetry"]}
PLANTED_CLASS = {"real": "QuasiHermitian", "pairs": "PseudoHermitianOnly"}
REFUSAL_CLASSES = ("NonDiagonalizable", "Indeterminate")
GATED = ("intertwining", "hermiticity_of_h", "similarity", "antilinear_commutation")
GATE = 1e-8

# (n, log10 kappa, kind, scale): n in {2, 6, 32} over kappa 1e1 ... 1e7 and three
# scales, and n = 256 at three kappas and scale 1.
CELLS = [(n, e, kind, scale) for n in (2, 6, 32) for e in range(1, 8)
         for kind in ("real", "pairs") for scale in (1e-300, 1.0, 1e300)]
CELLS += [(256, e, kind, 1.0) for e in (2, 5, 7) for kind in ("real", "pairs")]


def planted_input(n, e, kind, scale):
    """The cell's matrix: one seed per (n, kappa, kind), shared by the scales."""
    H, _ = planted(np.random.default_rng([n, e, kind == "real", 0]), n, kind, 10.0 ** e)
    return H * scale


def judge(n, kind, command, code, out):
    """'right', 'refused' or 'wrong' for one call's exit code and stdout."""
    if not out:   # an error on stderr and no report
        return "refused" if code == 3 else "wrong"
    report = json.loads(out)
    found = report["classification"]
    if found in REFUSAL_CLASSES:
        return "refused"
    if found != PLANTED_CLASS[kind]:
        return "wrong"
    if code == 3:
        if re.search(r"\b[A-Z_]+_TOL\b", report["notes"]):
            return "refused"
        return "right" if command == "hermitize" and kind == "pairs" else "wrong"
    pairs = 0 if kind == "real" else max(1, n // 4)
    signature_ok = report["signature"] in (None, [n - pairs, pairs])
    residuals = [report["residuals"][key] for key in GATED if key in report["residuals"]]
    gates_ok = all(value is not None and value <= GATE for value in residuals)
    return "right" if code == 0 and signature_ok and gates_ok else "wrong"


def run_cell(path, n, kind):
    """{command: verdict} of the four commands on the matrix file at path."""
    verdicts = {}
    for command, argv in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        verdicts[command] = judge(n, kind, command, code, out.getvalue())
    return verdicts


# Each entry would map a cell (n, log10 kappa, kind, scale) to the commands that
# are wrong there, under the ROADMAP item that fixes them.  Every call of the table
# is right or refused since the class band of ROADMAP item 2 and the built metric's
# invertibility by construction (item 3).
KNOWN_WRONG: dict = {}


def known_wrong(cell):
    """The set of commands that KNOWN_WRONG lists for cell, over every item."""
    return {command for entries in KNOWN_WRONG.values() for command in entries.get(cell, ())}


def test_known_wrong_names_only_cells_of_the_table():
    assert {cell for entries in KNOWN_WRONG.values() for cell in entries} <= set(CELLS)


@pytest.mark.parametrize("cell", CELLS,
                         ids=lambda cell: "n{}-kappa1e{}-{}-scale{:g}".format(*cell))
def test_each_command_is_right_or_refused(tmp_path, cell):
    n, e, kind, scale = cell
    path = tmp_path / "matrix.json"
    save_matrix(planted_input(*cell), path)
    verdicts = run_cell(path, n, kind)
    wrong = {command for command, verdict in verdicts.items() if verdict == "wrong"}
    assert wrong == known_wrong(cell), verdicts
    if e == 7 and scale < 1e300:   # a built metric needs no ceiling but KAPPA_MAX's
        assert [verdicts[command] for command in ("classify", "metric", "hermitize")] \
            == ["right"] * 3, verdicts


def transformed(H, seed):
    """H and six maps of it that cannot change its class or its metric's signature:
    2H, H + ||H||_2 I, H^T, U H U^dag (U a unitary drawn from seed), -H and conj(H)."""
    rng = np.random.default_rng(seed)
    n = H.shape[-1]
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return np.stack([H, 2 * H, H + np.linalg.norm(H, 2) * np.eye(n), H.T, U @ H @ U.conj().T,
                     -H, H.conj()])


def assert_invariant(stack):
    """Every matrix of a transformed stack has the class of the first, and, where
    that class has a pairing, its metric the signature of the first's."""
    cls = classify(stack)
    assert (cls.kind == cls.kind[0]).all(), cls.kind
    if np.all(cls.pairing >= 0):
        signature = build_general_metric(cls.spectrum, cls.pairing).signature
        assert (signature == signature[0]).all(), signature


@pytest.mark.parametrize("cell", [cell for cell in CELLS if cell[3] == 1.0],
                         ids=lambda cell: "n{}-kappa1e{}-{}".format(*cell))
def test_class_is_invariant_on_the_table(cell):
    n, e, kind, _ = cell
    assert_invariant(transformed(planted_input(*cell), [n, e, kind == "real", 1]))


def test_class_is_invariant_on_the_pt2x2_walk():
    # Acceptance criterion 3's walk across the exceptional point at s = sin(pi/4).
    for s in np.arange(0.650, 0.7601, 1e-3):
        assert_invariant(transformed(pt2x2(1.0, np.pi / 4, s), 0))
