"""Dense complex linear algebra for non-Hermitian eigenproblems.

Provides the full (two-sided) eigendecomposition with a biorthonormal
left/right eigenvector system, the Hermitian positive-definite square root,
and the small validation/norm helpers the rest of the package builds on.

Conventions. Right eigenvectors psi_n are the columns of ``right``; left
eigenvectors phi_n are the columns of ``left`` and satisfy
phi_m^dag psi_n = delta_mn, so that sum_n lambda_n psi_n phi_n^dag
reconstructs the matrix.  The left system is left = V^{-dag}, the conjugated
inverse of the right eigenvector matrix V: never a second eigensolve, so the
two systems never need eigenvalue re-matching; the inverse also scores V as
||V||_F ||V^-1||_F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, NotPositiveDefinite

# ||V||_F ||V^-1||_F of the right-eigenvector matrix V beyond which a matrix
# is treated as numerically defective.
KAPPA_MAX = 1e8

# The ceiling of a metric the caller supplies (MetricOperator.from_matrix, herm_sqrt)
# and of verify's invertibility legs: singular at min |lambda| <= this times max |lambda|.
INVERTIBILITY_TOL = 1e-12

# Largest self-adjointness residual ||A - A^dag|| / ||A|| of a metric or of
# herm_sqrt's input.
SELFADJOINT_TOL = 1e-10

# Power-iteration steps on A^dag A in norm_lower_bound.
POWER_STEPS = 8


def as_square_matrix(M, stack: bool = False) -> np.ndarray:
    """Validate and return M as a square complex128 array with n >= 1 and finite
    entries; with stack, a (k, n, n) stack of square matrices passes too (k = 0 too)."""
    A = np.asarray(M, dtype=complex)
    if A.ndim not in ((2, 3) if stack else (2,)) or A.shape[-1] != A.shape[-2] or not A.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix has non-finite entries")
    return A


def dagger(A):
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(A.conj(), -1, -2)


def ratio(numerator, denominator):
    """numerator / denominator elementwise, 0.0 where the denominator is 0;
    a float for scalars."""
    shape = np.broadcast_shapes(np.shape(numerator), np.shape(denominator))
    out = np.divide(numerator, denominator, out=np.zeros(shape), where=denominator != 0.0)
    return float(out) if out.ndim == 0 else out


def spectral_norm(A):
    """Largest singular value, by a values-only SVD: the exact ||A||_2.
    A (k, n, n) stack gives the (k,) array of its norms."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0 if A.ndim == 2 else np.zeros(A.shape[0])
    norms = np.linalg.svd(A, compute_uv=False)[..., 0]
    return float(norms) if norms.ndim == 0 else norms


def _unit_scale(A):
    """(e, A / 2^e) per matrix of A, the largest |Re| or |Im| then in [0.5, 1)
    (e = 0 for a zero matrix): an exact rescaling under which no sum of
    squares in a norm overflows or underflows.  A norm n of A / 2^e is
    ldexp(n, e) for A, which overflows only where that norm does (2^e
    alone would from a peak of 2^1023 up).  The peak is one abs/max pass over
    each matrix's 2 n^2 floats (an explicit length: an empty stack reshapes)."""
    A = np.ascontiguousarray(A, dtype=complex)
    parts = A.view(float).reshape(A.shape[:-2] + (2 * A.shape[-2] * A.shape[-1],))
    e = np.frexp(np.max(np.abs(parts), axis=-1, initial=0.0))[1]
    # ldexp on the real view: 1 / 2^e would overflow for a subnormal peak.
    return e, np.ldexp(A.view(float), -e[..., None, None]).view(complex)


def frobenius_norm(A):
    """||A||_F, an upper bound on ||A||_2 in O(n^2); a (k, n, n) stack gives
    the (k,) array of norms."""
    e, B = _unit_scale(A)
    flat = B.reshape(B.shape[:-2] + (B.shape[-2] * B.shape[-1],))
    return np.ldexp(np.sqrt(np.vecdot(flat, flat).real), e)


def norm_lower_bound(A):
    """A lower bound on ||A||_2 in O(n^2): POWER_STEPS steps of power iteration
    on A^dag A from A's largest column (Golub & Van Loan, Matrix Computations,
    sec. 2.3).  The growth ||op v|| / ||v|| of a half step, op = A^dag or A,
    is at most ||A||_2, and in exact arithmetic no less than any earlier
    half step's, the first of which is at least the column's norm; the
    result is the last growth, or the largest column norm when that is more.
    A zero matrix gives 0.0; a (k, n, n) stack gives the (k,) array of bounds.
    Each half step grows v by a factor in [0.5, sqrt(2) n] (B's entries are below
    1, its largest column at least 0.5), so v needs no renormalization, and no
    square in the last growth's plain 2-norms overflows or underflows."""
    e, B = _unit_scale(A)
    columns = np.sqrt(np.vecdot(B, B, axis=-2).real)
    top = np.max(columns, axis=-1, initial=0.0)
    if B.shape[-1]:
        v = np.take_along_axis(B, np.argmax(columns, axis=-1)[..., None, None], axis=-1)
        for op in (dagger(B), B) * POWER_STEPS:
            last, v = v, op @ v
        grown, prior = (np.sqrt(np.vecdot(x[..., 0], x[..., 0]).real) for x in (v, last))
        top = np.maximum(top, ratio(grown, prior))
    bound = np.ldexp(top, e)
    return float(bound) if bound.ndim == 0 else bound


def herm_residual(A, norm=None):
    """Certified bound ||A - A^dag||_F / norm_lower_bound(A) on the relative
    deviation from self-adjointness ||A - A^dag||_2 / ||A||_2; norm replaces
    the denominator when the caller has it.  Exactly self-adjoint A gives 0.0.
    A (k, n, n) stack gives the (k,) array of residuals."""
    A = np.asarray(A, dtype=complex)
    skew = A - dagger(A)
    if not skew.any():
        return 0.0 if A.ndim == 2 else np.zeros(A.shape[0])
    return ratio(frobenius_norm(skew), norm_lower_bound(A) if norm is None else norm)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues with a biorthonormal right/left eigenvector system.

    right is the eigensolver's V and left = V^{-dag}.  diag_score is
    ||V||_F ||V^-1||_F >= cond_2(V); it stays huge for defective matrices
    and is the diagnostic classify() cuts on.  For a stack every field but
    dim leads with (k,).
    """

    dim: int
    eigenvalues: np.ndarray   # shape (dim,)
    right: np.ndarray         # columns psi_n
    left: np.ndarray          # columns phi_n, phi_m^dag psi_n = delta_mn
    diag_score: float


def biorthonormalize(V):
    """(V^{-1}, refused) over a stack, with pinv where LAPACK refuses a singular V.

    The conjugated inverse V^{-dag} is the left system biorthonormal to the
    right system V, left^dag V = I up to roundoff."""
    try:
        return np.linalg.inv(V), np.zeros(len(V), dtype=bool)
    except np.linalg.LinAlgError:   # invert matrix by matrix
        if len(V) == 1:
            return np.linalg.pinv(V), np.ones(1, dtype=bool)
        W, refused = zip(*map(biorthonormalize, V[:, None]))
        return np.concatenate(W), np.concatenate(refused)


def eig_full(M) -> Spectrum:
    """Two-sided eigendecomposition of a general complex matrix.

    Right vectors V come from the dense eigensolver and the left system is
    V^{-dag}, from one inverse per stack.  diag_score is
    ||V||_F ||V^-1||_F in [cond_2(V), n cond_2(V)] (inf for a singular V).

    M may be a (k, n, n) stack: a single matrix runs as a stack of one, each
    step runs once over the stack, and each matrix's entries are
    bit-identical to its own eig_full.
    """
    M = as_square_matrix(M, stack=True)
    n = M.shape[-1]
    try:
        w, V = np.linalg.eig(M.reshape(-1, n, n))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigFailure(f"eigensolver failed: {exc}") from exc
    W, refused = biorthonormalize(V)
    diag_score = frobenius_norm(V) * frobenius_norm(W)
    diag_score[refused | ~np.isfinite(diag_score)] = np.inf
    left = dagger(W)
    if M.ndim == 2:   # unwrap the stack of one
        w, V, left, diag_score = w[0], V[0], left[0], float(diag_score[0])
    return Spectrum(dim=n, eigenvalues=w, right=V, left=left, diag_score=diag_score)


def herm_sqrt(P) -> np.ndarray:
    """Positive-definite square root of a Hermitian positive-definite matrix.

    Standard spectral functional calculus: eigendecompose, take sqrt of the
    (strictly positive) eigenvalues.  It refuses a smallest eigenvalue at or
    below INVERTIBILITY_TOL times the largest, as MetricOperator.from_matrix
    does: one matrix raises NotPositiveDefinite, and in a (k, n, n) stack that
    matrix's root is all NaN, every other root bit-identical to its own
    herm_sqrt.  Input that is not self-adjoint raises.
    """
    P = as_square_matrix(P, stack=True)
    residual = herm_residual(P)
    if not np.all(residual <= SELFADJOINT_TOL):
        raise NotPositiveDefinite(f"matrix is not self-adjoint within {SELFADJOINT_TOL:g} "
                                  f"(residual {np.max(residual):.3e})")
    evals, U = np.linalg.eigh(0.5 * (P + dagger(P)))
    refused = evals[..., 0] <= INVERTIBILITY_TOL * evals[..., -1]
    if P.ndim == 2 and refused:
        raise NotPositiveDefinite(
            f"minimum eigenvalue {evals[0]:.3e} is at most INVERTIBILITY_TOL = "
            f"{INVERTIBILITY_TOL:g} times the maximum {evals[-1]:.3e} "
            f"(ratio {ratio(evals[0], evals[-1]):.3e})")
    evals[refused] = np.nan   # before the sqrt, which warns on a negative eigenvalue
    Q = (U * np.sqrt(evals)[..., None, :]) @ dagger(U)
    return 0.5 * (Q + dagger(Q))
