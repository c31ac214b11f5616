"""Output checks for every CLI report the benchmark collects.

Each check takes the exit code and the parsed report of one CLI call plus
the ground truth the benchmark planted, and returns a list of problems;
an empty list means the output is correct.  Tolerances are fixed here, not
read from the package, so a change to the package cannot loosen them.
"""

from __future__ import annotations

import numpy as np

# The package's INTERTWINE_TOL at the time the benchmark was written.
RESIDUAL_TOL = 1e-8
# Reported eigenvalues must sit within this relative distance of the planted
# ones.  Planted eigenvalues are at least 1/n apart, so the nearest-neighbour
# matching below is unambiguous.
SPECTRUM_TOL = 1e-6
# Conservation drifts the kg report must stay under.
DRIFT_TOL = 1e-10

EXIT_OK = 0
EXIT_NUMERIC = 3

# Answers that count as an explicit refusal rather than a classification.
REFUSALS = ("NonDiagonalizable", "Indeterminate")


def spectrum_problems(reported, planted: np.ndarray) -> list[str]:
    """The reported [[re, im], ...] list must match the planted eigenvalues
    one to one within SPECTRUM_TOL * (1 + |lambda|)."""
    rep = np.asarray(reported, dtype=float)
    if rep.shape != (len(planted), 2):
        return [f"spectrum has shape {rep.shape}, expected ({len(planted)}, 2)"]
    lam = rep[:, 0] + 1j * rep[:, 1]
    dist = np.abs(lam[:, None] - planted[None, :])
    nearest = np.argmin(dist, axis=1)
    if len(set(nearest.tolist())) != len(planted):
        return ["reported spectrum does not match the planted one one-to-one"]
    err = dist[np.arange(len(lam)), nearest] / (1.0 + np.abs(planted[nearest]))
    if err.max() > SPECTRUM_TOL:
        return [f"eigenvalue off the planted spectrum by {err.max():.3e}"]
    return []


def _residual_problems(report, keys) -> list[str]:
    residuals = report.get("residuals") or {}
    out = []
    for key in keys:
        value = residuals.get(key)
        if not isinstance(value, (int, float)) or not value <= RESIDUAL_TOL:
            out.append(f"residual {key} = {value!r} exceeds {RESIDUAL_TOL:g}")
    return out


def matrix_problems(command: str, code, report, planted) -> list[str]:
    """Check one classify/metric/symmetry/hermitize report on a planted input.

    hermitize on a paired spectrum must refuse with exit code 3 and the
    planted class; every other call must succeed with the planted class and
    spectrum, the Sylvester signature and residuals within RESIDUAL_TOL.
    """
    if report is None:
        return [f"{command}: no report (exit code {code!r})"]
    problems = []
    if report.get("classification") != planted.expected_class:
        problems.append(f"class {report.get('classification')!r}, "
                        f"planted {planted.expected_class!r}")
    if command == "hermitize" and planted.n_pairs:
        if code != EXIT_NUMERIC:
            problems.append(f"hermitize on a paired spectrum exited {code!r}, expected refusal")
        return problems
    if code != EXIT_OK:
        problems.append(f"{command} exited {code!r}")
    problems += spectrum_problems(report.get("spectrum") or [], planted.eigenvalues)
    if command == "symmetry":
        return problems + _residual_problems(report, ["antilinear_commutation"])
    signature = report.get("signature")
    if signature != list(planted.signature):
        problems.append(f"signature {signature!r}, Sylvester count {list(planted.signature)}")
    keys = ["intertwining"]
    if command == "hermitize":
        keys.append("hermiticity_of_h")
    return problems + _residual_problems(report, keys)


def verify_problems(code, report, count: int) -> list[str]:
    """The verify suite must run every instance and report no failure."""
    if report is None:
        return [f"verify: no report (exit code {code!r})"]
    suite = report.get("suite") or {}
    problems = []
    if code != EXIT_OK:
        problems.append(f"verify exited {code!r}")
    if suite.get("instances") != count:
        problems.append(f"verify ran {suite.get('instances')!r} instances, expected {count}")
    if suite.get("failures") != 0:
        problems.append(f"verify reports {suite.get('failures')!r} failures")
    return problems


def kg_problems(code, report, n: int) -> list[str]:
    """Sector dimensions {N, 2N}, conserved inner products, positive pd norm."""
    if report is None:
        return [f"kg: no report (exit code {code!r})"]
    problems = []
    if code != EXIT_OK:
        problems.append(f"kg exited {code!r}")
    dims = report.get("sector_dims")
    if dims != {"indefinite_metric": n, "pseudo_hermitian": 2 * n}:
        problems.append(f"sector_dims {dims!r}, expected {n} and {2 * n}")
    residuals = report.get("residuals") or {}
    for key in ("pd_conservation_drift", "kg_conservation_drift"):
        value = residuals.get(key)
        if not isinstance(value, (int, float)) or not value <= DRIFT_TOL:
            problems.append(f"{key} = {value!r} exceeds {DRIFT_TOL:g}")
    positivity = residuals.get("pd_positivity_min")
    if not isinstance(positivity, (int, float)) or not positivity > 0:
        problems.append(f"pd_positivity_min = {positivity!r} is not positive")
    return problems


def sweep_outcome(code, report, planted) -> str:
    """'right' for the planted class, 'refused' for an explicit refusal
    (a refusal class or a numerical-failure exit), 'wrong' otherwise."""
    if code == EXIT_NUMERIC:
        return "refused"
    answer = (report or {}).get("classification")
    if code == EXIT_OK and answer == planted.expected_class:
        return "right"
    if code == EXIT_OK and answer in REFUSALS:
        return "refused"
    return "wrong"
