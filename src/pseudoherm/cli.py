"""Command-line front end: classification reports, metric emission, the
Klein-Gordon demonstration pipeline, and ensemble verification runs.

Matrices travel as JSON {"dim": n, "re": [[...]], "im": [[...]]} with both
parts mandatory (row-major).  A matrix that its upper triangle rebuilds bit
for bit (eta, rho and h, built as 0.5 (A + A^dag)) is written as that
triangle alone, {"dim": n, "hermitian": true, "re": rows, "im": rows}, row
i holding columns i..n-1; tau is the only full-layout matrix, and
matrix_from_json reads both.  Reports are schema-versioned JSON on stdout,
one line each; an overflowing norm or residual refuses the input, and a
gate residual past INTERTWINE_TOL (NaN too) withholds the matrix and names
the gate in notes, exit 3 (hermitize's gates raise: the error names them).
Exit codes: 0 success / full pass, 1 property-suite failure, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .errors import (
    InvalidGrid,
    NonDiagonalizableError,
    ParseError,
    PseudohermError,
)
from .kleingordon import (
    KGState,
    fv_components,
    fv_modes,
    fv_propagate,
    make_grid,
    pd_inner,
    kg_inner,
    random_state,
    evolve,
)
from .linalg import frobenius_norm, herm_residual
from .metrics import (
    INTERTWINE_TOL,
    OperatorClass,
    REALITY_TOL,
    antilinear_residual,
    antilinear_symmetry,
    build_general_metric,
    classify,
    decide_class,
    hermitize,
    verify_intertwining,
)
from .physical import norm_signs
from .suites import make_ensemble, run_equivalence_suite

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 1729
SCHEMA_VERSION = 6


# ---------------------------------------------------------------------------
# matrix file I/O

def _from_upper(n, re, im) -> np.ndarray:
    """The n x n matrix whose upper triangle, row by row, is re + i im, mirrored
    conjugate below and on the diagonal; the mirror's imaginary part is
    0.0 - im, so a real entry keeps the +0.0 that 0.5 (A + A^dag) gives it."""
    M = np.empty((n, n), dtype=complex)
    i, j = np.triu_indices(n)
    M.real[i, j], M.imag[i, j] = re, im
    M.real[j, i], M.imag[j, i] = re, 0.0 - im
    return M


def matrix_to_json(M) -> dict:
    """The matrix file object of M: its upper triangle when that rebuilds M bit
    for bit (so M is Hermitian), the full layout otherwise."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    upper = M[np.triu_indices(n)]
    if _from_upper(n, upper.real, upper.imag).tobytes() != M.tobytes():
        return {"dim": n, "re": M.real.tolist(), "im": M.imag.tolist()}
    return {"dim": n, "hermitian": True, "re": [M.real[k, k:].tolist() for k in range(n)],
            "im": [M.imag[k, k:].tolist() for k in range(n)]}


def matrix_from_json(data, booleans: bool = True) -> np.ndarray:
    """The matrix of a decoded object in either layout; booleans=False skips
    the true/false scan."""
    if not isinstance(data, dict):
        raise ParseError("matrix file must hold a JSON object")
    for key in ("dim", "re", "im"):
        if key not in data:
            raise ParseError(f"matrix object is missing the mandatory key {key!r}")
    n = data["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"dim must be an integer of at least 1, got {n!r}")
    packed = data.get("hermitian", False)
    if type(packed) is not bool:
        raise ParseError(f"hermitian must be true or false, got {packed!r}")
    parts = []
    for key in ("re", "im"):
        rows = data[key]
        if packed:
            if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
                    and [len(row) for row in rows] == list(range(n, 0, -1))):
                raise ParseError(
                    f"hermitian matrix {key!r} needs rows of {n}, {n - 1}, ..., 1 entries")
            rows = [x for row in rows for x in row]
        # No dtype on conversion: strings, objects and nulls then show in the array's dtype.
        try:
            part = np.asarray(rows)
        except ValueError:   # lists nested to uneven depths: refused as objects
            part = np.asarray(None)
        if part.dtype.kind not in "iuf":
            raise ParseError(f"matrix {key!r} has entries that are not JSON numbers")
        parts.append(part)
    re, im = parts
    shape = (n * (n + 1) // 2,) if packed else (n, n)
    if re.shape != shape or im.shape != shape:
        raise ParseError(
            f"dimension mismatch: dim={n} but re has shape {re.shape} and im {im.shape}"
        )
    # numpy reads true/false among numbers as 1/0: only the decoded entries show them.
    if booleans and any(type(x) is bool for key in ("re", "im") for row in data[key] for x in row):
        raise ParseError("matrix has true/false entries, which are not JSON numbers")
    M = _from_upper(n, re, im) if packed else re + 1j * im
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ParseError("matrix has non-finite entries")
    if packed and M.imag.diagonal().any():   # the mirror would conjugate it silently
        raise ParseError("hermitian matrix has a diagonal entry that is not real")
    return M


def load_matrix(path) -> tuple[np.ndarray, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    # A JSON true or false needs a t or f byte; numbers and dim/re/im have none
    # (the packed layout's "hermitian": true has both, so its entries are scanned).
    return matrix_from_json(data, booleans=b"t" in raw or b"f" in raw), digest


def save_matrix(M, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(matrix_to_json(M)) + "\n")   # the C encoder, as in _emit


# ---------------------------------------------------------------------------
# report assembly

def _new_report(digest=None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "input_digest": digest,
        "classification": None,
        "residuals": {},
        "metric": None,
        "signature": None,
        "spectrum": None,
        "notes": "",
    }


def _params_digest(params: dict) -> str:
    payload = json.dumps(params, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _spectrum_list(eigenvalues) -> list:
    order = np.argsort(eigenvalues.real + 1e-12 * eigenvalues.imag)
    return [[float(lam.real), float(lam.imag)] for lam in eigenvalues[order]]


def _emit(report) -> None:
    # One line: json.dumps is the C encoder; json.dump or indent are pure Python.
    print(json.dumps(report))


def _gated(report, residuals: dict, **matrices) -> int:
    """Record residuals, and write matrices into the report unless one exceeds
    INTERTWINE_TOL (NaN too): then exit 3, with that gate named in notes."""
    report["residuals"].update(residuals)
    for key, value in residuals.items():
        if not value <= INTERTWINE_TOL:
            report["notes"] = f"{key} {value:.3e} > INTERTWINE_TOL = {INTERTWINE_TOL:g}"
            return EXIT_NUMERIC
    report.update({key: matrix_to_json(M) for key, M in matrices.items()})
    return EXIT_OK


def _attach_metric(report, H, cls) -> int:
    eta = build_general_metric(cls.spectrum, cls.pairing)   # eta_+ on a real spectrum
    report["signature"] = list(eta.signature)
    return _gated(report, {"intertwining": verify_intertwining(H, eta, cls.diagnostics["norm"])},
                  metric=eta.matrix)


# ---------------------------------------------------------------------------
# commands

def _classified(args):
    """Load the matrix argument and classify it: (H, classification, report)."""
    H, digest = load_matrix(args.path)
    report = _new_report(digest)
    cls = classify(H, tol=args.tol)
    report["classification"] = cls.kind.value
    return H, cls, report


def cmd_classify(args) -> tuple[dict, int]:
    H, cls, report = _classified(args)
    report["residuals"]["hermiticity"] = cls.diagnostics["hermiticity_residual"]
    score = cls.diagnostics["diag_score"]
    # A singular eigenvector matrix has no finite score; JSON has no infinity.
    report["residuals"]["diag_score"] = score if np.isfinite(score) else None
    report["spectrum"] = _spectrum_list(cls.spectrum.eigenvalues)
    if args.emit_metric:
        if cls.pairing is None:
            report["notes"] = f"no metric emitted: operator is {cls.kind.value}"
        else:
            return report, _attach_metric(report, H, cls)
    return report, EXIT_NUMERIC if cls.kind is OperatorClass.INDETERMINATE else EXIT_OK


def cmd_metric(args) -> tuple[dict, int]:
    H, cls, report = _classified(args)
    if cls.pairing is None:
        report["notes"] = f"no metric operator constructed: {cls.kind.value}"
        return report, EXIT_NUMERIC
    report["spectrum"] = _spectrum_list(cls.spectrum.eigenvalues)
    return report, _attach_metric(report, H, cls)


def cmd_hermitize(args) -> tuple[dict, int]:
    H, cls, report = _classified(args)
    if cls.kind not in (OperatorClass.HERMITIAN, OperatorClass.QUASI_HERMITIAN):
        report["notes"] = ("Hermitization needs a real diagonalizable spectrum; "
                           f"operator is {cls.kind.value}")
        return report, EXIT_NUMERIC
    # The Spectrum stands for eta_+ = Phi Phi^dag, whose root hermitize reads off one
    # SVD of Phi (the polar route); it raises past either of its two gates.
    rho, h, residuals = hermitize(H, cls.spectrum, cls.diagnostics["norm"])
    report["spectrum"] = _spectrum_list(cls.spectrum.eigenvalues)
    report["signature"] = [len(h), 0]   # of eta_+ = rho^2, metric's output
    # h is built Hermitian, so hermiticity_of_h reads 0.0 (bench/checks.py still reads
    # the key); h's error shows in similarity.
    return report, _gated(report, {"intertwining": residuals["intertwining"],
                                   "hermiticity_of_h": herm_residual(h),
                                   "similarity": residuals["similarity"]},
                          rho=rho, hermitized=h)


def cmd_symmetry(args) -> tuple[dict, int]:
    H, cls, report = _classified(args)
    if cls.pairing is None:
        report["notes"] = f"no antilinear symmetry constructed: {cls.kind.value}"
        return report, EXIT_NUMERIC
    tau = antilinear_symmetry(cls.spectrum, cls.pairing)
    report["spectrum"] = _spectrum_list(cls.spectrum.eigenvalues)
    return report, _gated(report, {"antilinear_commutation": antilinear_residual(
        H, tau, cls.diagnostics["norm"])}, antilinear=tau)


def cmd_kg(args) -> tuple[dict, int]:
    params = {"n": args.n, "length": args.length, "mass": args.mass,
              "t_final": args.t_final, "samples": args.samples, "seed": args.seed}
    report = _new_report(_params_digest(params))
    grid = make_grid(args.n, args.length, args.mass)
    mu = grid.m
    # H = fv_hamiltonian(grid) one 2x2 mode block h_k = [[t + m, t], [-t, -t - m]] at a time,
    # t = k^2/(2m); a block-diagonal matrix's norm is its largest block norm.  Closed forms:
    # ||h_k|| = 2t + m and ||h_k - h_k^dag|| = 2t.  diag_score is linalg's ||V||_F ||V^-1||_F
    # per block, whose two eigenvectors share a norm as eig_full's unit columns do: its max
    # over k bounds cond_2 of the whole V, for any N.  kappa_n = ||psi_n|| ||phi_n|| by hypot.
    modes = fv_modes(grid)
    psi, sigma3, t_max = modes.right, np.diag([1.0, -1.0]), float(np.max(modes.blocks[:, 0, 1]))
    diag_score = float(np.max(frobenius_norm(psi) * frobenius_norm(modes.left)))
    kappa = np.hypot(psi[:, 0], psi[:, 1]) * np.hypot(modes.left[:, 0], modes.left[:, 1])
    norm = 2 * t_max + mu   # ||H||
    kind, _, diagnostics = decide_class(modes.eigenvalues.ravel(), diag_score, 2 * t_max / norm,
                                        kappa.ravel(), norm)
    if kind == OperatorClass.NON_DIAGONALIZABLE:   # +/- omega_k are real: the only refusal
        raise NonDiagonalizableError(
            f"diag_score {diag_score:.3e} exceeds the diagonalizability cutoff")
    report["classification"] = str(kind)

    # The dynamics at 8 checkpoints: evolve against e^{-ih_k t} on the mode basis
    # (a, b) = (1, 0) and (0, 1), in O(N); both are linear, so this covers every state.
    basis = KGState(grid, *np.broadcast_to(np.eye(2, dtype=complex)[..., None], (2, 2, grid.N)))
    start, gap = fv_components(basis), 0.0
    for t in np.linspace(0.0, args.t_final, 9)[1:]:
        miss = fv_components(evolve(basis, float(t))) - fv_propagate(modes, start, float(t))
        gap = max(gap, float(np.max(np.abs(miss)) / np.max(np.abs(start))))
    # The quadrature at t = 0 and t_final, all samples as one stack: 8 FFTs.
    states = random_state(grid, rng=np.random.default_rng(args.seed), size=args.samples)
    weight = np.abs(states.a) ** 2 + np.abs(states.b) ** 2
    scale = np.sum(grid.omega * weight, axis=-1)
    pd0, kg0 = pd_inner(states, states, mu), kg_inner(states, states)
    end = evolve(states, args.t_final)
    report["residuals"].update(
        pd_conservation_drift=float(np.max(np.abs(pd_inner(end, end, mu) - pd0) / (scale / mu))),
        kg_conservation_drift=float(np.max(np.abs(kg_inner(end, end) - kg0) / (2 * scale))),
        pd_positivity_min=float(np.min(pd0.real / np.sum(weight, axis=-1))),
        pd_mode_sum_deviation=float(np.max(np.abs(pd0 - scale / mu) / (scale / mu))),
        fv_propagator_deviation=gap)

    signs = norm_signs(psi, sigma3 @ psi, 1.0)   # sigma3-norms; ||sigma3|| = 1
    positive_dim = int(np.sum(signs > 0))
    real_dim = int(diagnostics["n_real"])
    report["sector_dims"] = {"indefinite_metric": positive_dim,
                             "pseudo_hermitian": real_dim}
    report["notes"] = (
        f"indefinite-metric physical space keeps {positive_dim} of {2 * grid.N} "
        f"directions (positive-energy only); the real-spectrum construction keeps all {real_dim}"
    )
    return report, EXIT_OK


def _parse_dims(text) -> list[int]:
    try:
        if "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(part) for part in text.split(",") if part]
    except ValueError:   # int()'s own message would not name --dims
        dims = []
    if not dims or any(d < 1 for d in dims):
        raise ParseError(f"bad --dims value {text!r}")
    return dims


def cmd_verify(args) -> tuple[dict, int]:
    dims = _parse_dims(args.dims)
    if args.ensemble == "mixed":
        kinds = ["quasi", "pseudo_nonquasi", "hermitian"]
    else:
        kinds = [args.ensemble]
    params = {"ensemble": args.ensemble, "count": args.count,
              "dims": dims, "seed": args.seed}
    report = _new_report(_params_digest(params))
    specs = make_ensemble(kinds, args.count, dims, base_seed=args.seed)
    suite = run_equivalence_suite(specs)
    report["suite"] = suite
    report["residuals"] = suite["worst_residuals"]
    report["notes"] = (f"{suite['instances']} instances, {suite['skipped']} skipped, "
                       f"{suite['failures']} failures")
    return report, EXIT_OK if suite["passed"] else EXIT_SUITE_FAIL


# ---------------------------------------------------------------------------
# parser / entry point

def _positive_int(text) -> int:
    """argparse type of the counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(positive: bool):
    """argparse type of a float flag that must be finite, and > 0 if positive."""
    def number(text) -> float:
        value = float(text)   # argparse reports a ValueError as an invalid number
        if not np.isfinite(value) or (positive and not value > 0):
            rule = "finite and positive" if positive else "finite"
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="Classify non-Hermitian matrices, build metric operators, "
                    "and run the lattice Klein-Gordon demonstration.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    matrix_args = argparse.ArgumentParser(add_help=False)
    matrix_args.add_argument("path", help="matrix file (JSON with dim/re/im)")
    matrix_args.add_argument("--tol", type=_finite_float(True), default=REALITY_TOL,
                             help="reality/hermiticity tolerance (default %(default)g)")
    seed_args = argparse.ArgumentParser(add_help=False)
    seed_args.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("classify", parents=[matrix_args], help="classify a matrix")
    p.add_argument("--emit-metric", action="store_true",
                   help="attach a metric operator and its signature")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("metric", parents=[matrix_args], help="construct a metric operator")
    p.set_defaults(handler=cmd_metric)

    p = sub.add_parser("hermitize", parents=[matrix_args],
                       help="map to a Hermitian matrix via the positive metric")
    p.set_defaults(handler=cmd_hermitize)

    p = sub.add_parser("symmetry", parents=[matrix_args],
                       help="construct an antilinear symmetry")
    p.set_defaults(handler=cmd_symmetry)

    p = sub.add_parser("kg", parents=[seed_args], help="run the lattice Klein-Gordon pipeline")
    p.add_argument("--n", type=int, default=64, help="lattice sites")
    p.add_argument("--length", type=_finite_float(True), default=20 * np.pi, help="spatial period")
    p.add_argument("--mass", type=_finite_float(False), default=1.0)
    p.add_argument("--t-final", type=_finite_float(False), default=10.0)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.set_defaults(handler=cmd_kg)

    p = sub.add_parser("verify", parents=[seed_args], help="run the ensemble equivalence suites")
    p.add_argument("--ensemble", default="mixed",
                   choices=["mixed", "quasi", "pseudo_nonquasi", "hermitian", "defective"])
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--dims", default="2-8")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise"):   # so that no report holds an overflowed inf or NaN
            report, code = args.handler(args)
    except ParseError as exc:
        where = "" if exc.line is None else f" (line {exc.line}, column {exc.column})"
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_INPUT
    except (InvalidGrid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PseudohermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FloatingPointError as exc:
        print(f"error: {exc}: the input is too large for its norms and residuals",
              file=sys.stderr)
        return EXIT_NUMERIC
    _emit(report)
    return code


def entrypoint():  # console script
    raise SystemExit(main())
