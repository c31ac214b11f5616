"""The benchmark's three workloads: inputs, timed CLI calls and checks.

matrix    Dense n = 256 planted inputs, half with a real spectrum and half
          with conjugate pairs, planted cond(S) in [1e2, 1e3].  classify
          --emit-metric, metric and symmetry run on every input, hermitize
          on the real ones; hermitize on a paired input is an untimed probe
          that must refuse.  Bound by floating-point work and JSON I/O in
          cli, linalg and metrics.
ensemble  verify on the 500-instance mixed ensemble over dims 2-8: the same
          linalg/metrics calls on tiny matrices, where per-call overhead
          dominates, plus suites and models.  An untimed sweep classifies
          planted n = 6 and 32 inputs at cond(S) = 1e2 ... 1e7 and counts
          misclassifications, the conditioning defect of the classifier;
          its inputs are not part of set-up.
kg        The Klein-Gordon pipeline twice: N = 256 with 100 samples (a dense
          512 x 512 eigenproblem with degenerate +/-k clusters, loading
          physical and linalg) and N = 64 with 1000 samples (FFT inner
          products in kleingordon).

Every input follows from the workload seed alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from planted import PAIRS, REAL, planted_matrix

MATRIX_DIM = 256
MATRIX_INPUTS_PER_KIND = 4
MATRIX_KAPPA = (1e2, 1e3)

VERIFY_COUNT = 500

KG_RUNS = (("kg_dense", 256, 100), ("kg_sample", 64, 1000))   # (label, sites, samples)

SWEEP_DIMS = (6, 32)
SWEEP_EXPONENTS = (2, 3, 4, 5, 6, 7)  # planted cond(S) = 10**exponent
SWEEP_SEEDS = 30

# Per-workload tag mixed into the seed so workloads draw independent inputs.
_TAGS = {"matrix": 1, "ensemble": 2}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its output must pass."""

    argv: list
    check: object   # check(code, report) -> list of problems


@dataclass
class Cell:
    """One timed command kind on one input class; pass k runs calls[k % len]."""

    label: str
    command: str
    calls: list


@dataclass
class Plan:
    cells: list
    probes: list = field(default_factory=list)   # untimed checked calls
    sweep: object = ()   # iterable of (argv, Planted), its inputs written lazily


def write_matrix(H, path: Path):
    """Write H in the CLI's documented {"dim", "re", "im"} format."""
    H = np.asarray(H, dtype=complex)
    text = json.dumps({"dim": H.shape[0], "re": H.real.tolist(), "im": H.imag.tolist()})
    path.write_text(text + "\n", encoding="utf-8")


def _matrix_check(command, planted):
    return lambda code, report: checks.matrix_problems(command, code, report, planted)


def prepare_matrix(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng([seed, _TAGS["matrix"]])
    inputs = {REAL: [], PAIRS: []}
    for i in range(MATRIX_INPUTS_PER_KIND):
        for kind in (REAL, PAIRS):
            kappa = 10.0 ** rng.uniform(*np.log10(MATRIX_KAPPA))
            planted = planted_matrix(rng, MATRIX_DIM, kind, kappa)
            path = workdir / f"{kind}{i}.json"
            write_matrix(planted.H, path)
            inputs[kind].append((str(path), planted))

    def cell(command, kind, extra=()):
        calls = [Call([command, path, *extra], _matrix_check(command, planted))
                 for path, planted in inputs[kind]]
        return Cell(f"{command}/{kind}", command, calls)

    cells = []
    for kind in (REAL, PAIRS):
        cells.append(cell("classify", kind, ["--emit-metric"]))
        cells.append(cell("metric", kind))
        cells.append(cell("symmetry", kind))
    cells.append(cell("hermitize", REAL))
    probes = cell("hermitize", PAIRS).calls
    return Plan(cells=cells, probes=probes)


def sweep_inputs(seed: int, workdir: Path):
    """Planted classify inputs over SWEEP_DIMS x SWEEP_EXPONENTS x both
    classes x SWEEP_SEEDS, each written just before it is yielded."""
    path = workdir / "sweep.json"
    for n in SWEEP_DIMS:
        for exponent in SWEEP_EXPONENTS:
            for k, kind in enumerate((REAL, PAIRS)):
                for s in range(SWEEP_SEEDS):
                    rng = np.random.default_rng([seed, _TAGS["ensemble"], n, exponent, k, s])
                    planted = planted_matrix(rng, n, kind, 10.0 ** exponent)
                    write_matrix(planted.H, path)
                    yield ["classify", str(path)], planted


def prepare_ensemble(seed: int, workdir: Path) -> Plan:
    argv = ["verify", "--ensemble", "mixed", "--count", str(VERIFY_COUNT),
            "--dims", "2-8", "--seed", str(seed)]
    check = lambda code, report: checks.verify_problems(code, report, VERIFY_COUNT)
    return Plan(cells=[Cell("verify", "verify", [Call(argv, check)])],
                sweep=sweep_inputs(seed, workdir))


def prepare_kg(seed: int, workdir: Path) -> Plan:
    cells = []
    for label, n, samples in KG_RUNS:
        argv = ["kg", "--n", str(n), "--samples", str(samples), "--seed", str(seed)]
        check = lambda code, report, n=n: checks.kg_problems(code, report, n)
        cells.append(Cell(label, label, [Call(argv, check)]))
    return Plan(cells=cells)


PREPARE = {"matrix": prepare_matrix, "ensemble": prepare_ensemble, "kg": prepare_kg}
