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

from oracles import planted

COMMANDS = {"classify": ["classify", "--emit-metric"], "metric": ["metric"],
            "hermitize": ["hermitize"], "symmetry": ["symmetry"]}
PLANTED_CLASS = {"real": "QuasiHermitian", "pairs": "PseudoHermitianOnly"}
REFUSAL_CLASSES = ("NonDiagonalizable", "Indeterminate")
GATED = ("intertwining", "metric_selfadjoint", "hermiticity_of_h", "similarity",
         "antilinear_commutation")
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


ALL = ("classify", "metric", "hermitize", "symmetry")
NOT_HERMITIZE = ("classify", "metric", "symmetry")


def cells(n, kind, scale, exponents, commands):
    """{(n, e, kind, scale): commands} for each log10 kappa e in exponents."""
    return {(n, e, kind, scale): commands for e in exponents}


# Each entry maps a cell (n, log10 kappa, kind, scale) to the commands that
# are wrong there, under the ROADMAP item that fixes them.
KNOWN_WRONG = {
    # Item 2, the class rule.  From kappa = 1e4 (n = 2), 1e5 (n = 6 and 32) or
    # 1e7 (n = 256) the band tol (1 + |lambda|) reads planted inputs as
    # NotPseudoHermitian.  At scale 1e-300 the same band swallows every Im
    # part, so paired inputs read QuasiHermitian (the tol ||H|| floor fixes
    # both); hermitize raises an error there instead (at n = 2, kappa = 1e5
    # and 1e6, its similarity gate: h = Q diag(Re lambda) Q^dag drops the Im
    # parts), and at kappa = 1e7 so do classify and metric, while symmetry
    # still reports the wrong class.
    "item 2": {
        **cells(2, "real", 1.0, (4, 5, 6, 7), ALL),
        **cells(2, "real", 1e300, (4, 5, 6, 7), ALL),
        **cells(2, "pairs", 1e-300, (1, 2, 3, 4, 5, 6), NOT_HERMITIZE),
        **cells(2, "pairs", 1e-300, (7,), ("symmetry",)),
        **cells(2, "pairs", 1.0, (5, 6, 7), ALL),
        **cells(2, "pairs", 1e300, (4, 5, 6, 7), ALL),
        **cells(6, "real", 1.0, (5, 6, 7), ALL),
        **cells(6, "real", 1e300, (5, 6, 7), ALL),
        **cells(6, "pairs", 1e-300, (1, 2, 3, 4, 5, 6), NOT_HERMITIZE),
        **cells(6, "pairs", 1e-300, (7,), ("symmetry",)),
        **cells(6, "pairs", 1.0, (5, 6, 7), ALL),
        **cells(6, "pairs", 1e300, (4, 5, 6, 7), ALL),
        **cells(32, "real", 1.0, (6, 7), ALL),
        **cells(32, "real", 1e300, (5, 6, 7), ALL),
        **cells(32, "pairs", 1e-300, (1, 2, 3, 4, 5, 6), NOT_HERMITIZE),
        **cells(32, "pairs", 1e-300, (7,), ("symmetry",)),
        **cells(32, "pairs", 1.0, (5, 6, 7), ALL),
        **cells(32, "pairs", 1e300, (5, 6, 7), ALL),
        **cells(256, "real", 1.0, (7,), ALL),
        **cells(256, "pairs", 1.0, (7,), ALL),
    },
}


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
