"""Dense complex linear algebra for non-Hermitian eigenproblems.

Provides the full (two-sided) eigendecomposition with a biorthonormal
left/right eigenvector system, the Hermitian positive-definite square root,
and the small validation/norm helpers the rest of the package builds on.

Conventions. Right eigenvectors psi_n are the columns of ``right``; left
eigenvectors phi_n are the columns of ``left`` and satisfy
phi_m^dag psi_n = delta_mn, so that sum_n lambda_n psi_n phi_n^dag
reconstructs the matrix.  The left system is obtained from the inverse of
the right eigenvector matrix, never from a second eigensolve, so the two
systems never need eigenvalue re-matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystem, EigFailure, NotPositiveDefinite

# Condition number of the right-eigenvector matrix beyond which a matrix is
# treated as numerically defective.
KAPPA_MAX = 1e8

# Eigenvalues closer than CLUSTER_TOL*(1+|lambda|), the larger |lambda| of the
# two, are one degenerate cluster when building the biorthonormal system.
CLUSTER_TOL = 1e-8

# A matrix is singular when sigma_min <= INVERTIBILITY_TOL * sigma_max.
INVERTIBILITY_TOL = 1e-12

# Largest self-adjointness residual ||A - A^dag|| / ||A|| of a metric or of
# herm_sqrt's input.
SELFADJOINT_TOL = 1e-10

# herm_sqrt refuses lambda_min <= POSITIVITY_TOL * lambda_max.
POSITIVITY_TOL = 1e-10


def as_square_matrix(M, stack: bool = False) -> np.ndarray:
    """Validate and return M as a square complex128 array with finite entries;
    with stack, a (k, n, n) stack of square matrices passes too."""
    A = np.asarray(M, dtype=complex)
    if A.ndim not in ((2, 3) if stack else (2,)) or A.shape[-1] != A.shape[-2]:
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
    out = np.divide(numerator, denominator, out=np.zeros(np.shape(denominator)),
                    where=denominator != 0.0)
    return float(out) if out.ndim == 0 else out


def spectral_norm(A):
    """Largest singular value; the operator norm used for all residuals.
    A (k, n, n) stack gives the (k,) array of its norms."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0 if A.ndim == 2 else np.zeros(A.shape[0])
    norms = np.linalg.svd(A, compute_uv=False)[..., 0]
    return float(norms) if norms.ndim == 0 else norms


def herm_residual(A, norm=None):
    """Relative deviation from self-adjointness, ||A - A^dag|| / ||A||; norm is
    ||A|| when the caller has it.  Exactly self-adjoint A gives 0.0 with no SVD.
    A (k, n, n) stack gives the (k,) array of residuals."""
    A = np.asarray(A, dtype=complex)
    skew = A - dagger(A)
    if not skew.any():
        return 0.0 if A.ndim == 2 else np.zeros(A.shape[0])
    return ratio(spectral_norm(skew), spectral_norm(A) if norm is None else norm)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues with a biorthonormalized right/left eigenvector system.

    diag_score is the condition number of the raw right-eigenvector matrix
    (before any within-cluster orthonormalization); it stays huge for
    defective matrices and is the diagnostic classify() cuts on.  For a
    stack every field but dim, and every method's result, leads with (k,).
    """

    dim: int
    eigenvalues: np.ndarray   # shape (dim,)
    right: np.ndarray         # columns psi_n
    left: np.ndarray          # columns phi_n, phi_m^dag psi_n = delta_mn
    diag_score: float

    def gram_deviation(self):
        """max |phi_m^dag psi_n - delta_mn|, the biorthonormality defect."""
        G = dagger(self.left) @ self.right
        return np.max(np.abs(G - np.eye(self.dim)), axis=(-2, -1))

    def reconstruct(self) -> np.ndarray:
        """sum_n lambda_n psi_n phi_n^dag; equals the original matrix when
        diag_score is moderate."""
        return (self.right * self.eigenvalues[..., None, :]) @ dagger(self.left)


def _close_pairs(w: np.ndarray, tol: float) -> np.ndarray:
    """(..., n, n) booleans over the last axis of w: |lambda_i - lambda_j| <=
    tol*(1 + max(|lambda_i|, |lambda_j|))."""
    size = np.abs(w)
    gap = np.abs(w[..., :, None] - w[..., None, :])
    return gap <= tol * (1.0 + np.maximum(size[..., :, None], size[..., None, :]))


def _cluster_indices(eigenvalues: np.ndarray, tol: float) -> list[list[int]]:
    """Group eigenvalue indices whose values coincide within
    tol*(1 + max(|lambda_i|, |lambda_j|)), a rule symmetric in the pair.

    Closeness is not transitive, so take the transitive closure: each index
    takes the smallest label among its close partners until no label moves.
    Cluster membership must not depend on eigenvalue ordering.
    """
    close = _close_pairs(np.asarray(eigenvalues), tol)
    label = np.arange(len(close))
    while True:
        moved = np.where(close, label, len(close)).min(axis=1)
        moved = moved[moved]   # pointer jumping: a chain of m closes in O(log m) rounds
        if np.array_equal(moved, label):
            return [np.flatnonzero(label == m).tolist() for m in np.unique(label)]
        label = moved


def biorthonormalize(right: np.ndarray, left: np.ndarray):
    """Rescale the left system so that left^dag . right = identity.

    Only the left factor is adjusted (left' = left . G^{-dag} with
    G = left^dag right), so both column spans are unchanged.  Iterates the
    correction, at most three times, until the Gram defect stops improving;
    one pass already gives a defect of order machine epsilon times the
    conditioning of G.  A (k, n, n) stack runs each matrix by its own stop
    rule, every pass one product over the matrices still improving.

    Raises DegenerateSystem when G is singular beyond tolerance, which
    signals a defective or mis-paired system.
    """
    right = as_square_matrix(right, stack=True)
    left = as_square_matrix(left, stack=True)
    if right.shape != left.shape:
        raise ValueError("left/right shape mismatch")
    n = right.shape[-1]
    R = right.reshape(-1, n, n)
    best = left.reshape(-1, n, n).copy()
    eye = np.eye(n)
    floor = 10 * np.finfo(float).eps * n

    best_dev = np.max(np.abs(dagger(best) @ R - eye), axis=(-2, -1))
    idx = np.flatnonzero(best_dev > floor)   # the matrices still to polish
    for _ in range(3):
        if idx.size == 0:
            break
        G = dagger(best[idx]) @ R[idx]
        sv = np.linalg.svd(G, compute_uv=False)
        singular = sv[:, -1] <= INVERTIBILITY_TOL * sv[:, 0]
        if singular.any():
            raise DegenerateSystem(f"left^dag.right of matrix {idx[singular][0]} is singular "
                                   f"within tolerance (sigma_min {sv[singular][0, -1]:.3e})")
        candidate = best[idx] @ dagger(np.linalg.inv(G))
        dev = np.max(np.abs(dagger(candidate) @ R[idx] - eye), axis=(-2, -1))
        improved = dev < best_dev[idx]
        idx = idx[improved]
        best[idx], best_dev[idx] = candidate[improved], dev[improved]
        idx = idx[best_dev[idx] > floor]
    return right, best.reshape(left.shape)


def eig_full(M) -> Spectrum:
    """Two-sided eigendecomposition of a general complex matrix.

    Right vectors come from the dense eigensolver; degenerate clusters are
    orthonormalized among themselves (stabilizes everything built from
    near-degenerate systems, e.g. +k/-k lattice modes); the left system is
    the conjugated inverse of the right matrix, polished by
    ``biorthonormalize`` unless diag_score is past 1e12.  diag_score is the
    condition number of the *raw* eigenvector matrix so defective inputs
    keep their tell-tale blow-up.

    M may be a (k, n, n) stack: a single matrix runs as a stack of one, each
    step runs once over the stack, and each matrix's entries are
    bit-identical to its own eig_full.
    """
    M = as_square_matrix(M, stack=True)
    n = M.shape[-1]
    try:
        w, V = np.linalg.eig(M.reshape(-1, n, n))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigFailure(str(exc)) from exc
    diag_score = np.linalg.cond(V, 2)
    diag_score[~np.isfinite(diag_score)] = np.inf

    for i in np.flatnonzero(np.count_nonzero(_close_pairs(w, CLUSTER_TOL), axis=(-2, -1)) > n):
        for cluster in _cluster_indices(w[i], CLUSTER_TOL):
            if len(cluster) > 1:
                V[i][:, cluster] = np.linalg.qr(V[i][:, cluster])[0]

    try:
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:   # an exactly singular V: invert matrix by matrix
        W = np.empty_like(V)
        for i, Vi in enumerate(V):
            try:
                W[i] = np.linalg.inv(Vi)
            except np.linalg.LinAlgError:
                W[i] = np.linalg.pinv(Vi)
                diag_score[i] = np.inf
    left = dagger(W)

    polish = diag_score <= 1e12
    _, left[polish] = biorthonormalize(V[polish], left[polish])
    if M.ndim == 2:   # unwrap the stack of one
        w, V, left, diag_score = w[0], V[0], left[0], float(diag_score[0])
    return Spectrum(dim=n, eigenvalues=w, right=V, left=left, diag_score=diag_score)


def herm_sqrt(P) -> np.ndarray:
    """Positive-definite square root of a Hermitian positive-definite matrix.

    Standard spectral functional calculus: eigendecompose, take sqrt of the
    (strictly positive) eigenvalues.  Raises NotPositiveDefinite when the
    smallest eigenvalue is at or below tolerance, which flags a failed
    positive-metric construction upstream.  A (k, n, n) stack gives the stack
    of roots, each bit-identical to its own herm_sqrt, and raises when any
    matrix is refused.
    """
    P = as_square_matrix(P, stack=True)
    residual = herm_residual(P)
    if np.any(residual > SELFADJOINT_TOL):
        raise NotPositiveDefinite(f"matrix is not self-adjoint within {SELFADJOINT_TOL:g} "
                                  f"(residual {np.max(residual):.3e})")
    evals, U = np.linalg.eigh(0.5 * (P + dagger(P)))
    refused = evals[..., 0] <= POSITIVITY_TOL * evals[..., -1]
    if np.any(refused):
        raise NotPositiveDefinite(
            f"minimum eigenvalue {np.min(evals[..., 0][refused]):.3e} is not positive")
    Q = (U * np.sqrt(evals)[..., None, :]) @ dagger(U)
    return 0.5 * (Q + dagger(Q))
