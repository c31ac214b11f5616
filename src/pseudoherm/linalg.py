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


def as_square_matrix(M, stack: bool = False) -> np.ndarray:
    """Validate and return M as a square complex128 array with finite entries;
    with stack, a (k, n, n) stack of square matrices passes too."""
    A = np.asarray(M, dtype=complex)
    if A.ndim not in ((2, 3) if stack else (2,)) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix has non-finite entries")
    return A


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
    skew = A - np.swapaxes(A.conj(), -1, -2)
    if not skew.any():
        return 0.0 if A.ndim == 2 else np.zeros(A.shape[0])
    nrm = np.asarray(spectral_norm(A) if norm is None else norm)
    residual = np.divide(spectral_norm(skew), nrm, out=np.zeros(nrm.shape), where=nrm != 0.0)
    return float(residual) if residual.ndim == 0 else residual


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with a biorthonormalized right/left eigenvector system.

    diag_score is the condition number of the raw right-eigenvector matrix
    (before any within-cluster orthonormalization); it stays huge for
    defective matrices and is the diagnostic classify() cuts on.
    """

    dim: int
    eigenvalues: np.ndarray   # shape (dim,)
    right: np.ndarray         # columns psi_n
    left: np.ndarray          # columns phi_n, phi_m^dag psi_n = delta_mn
    diag_score: float

    # eig_full of a (k, n, n) stack gives (k, n) eigenvalues, (k, n, n)
    # systems and (k,) diag_scores; the methods below take a single spectrum.

    def gram_deviation(self) -> float:
        """max |phi_m^dag psi_n - delta_mn|, the biorthonormality defect."""
        G = self.left.conj().T @ self.right
        return float(np.max(np.abs(G - np.eye(self.dim))))

    def reconstruct(self) -> np.ndarray:
        """sum_n lambda_n psi_n phi_n^dag; equals the original matrix when
        diag_score is moderate."""
        return (self.right * self.eigenvalues) @ self.left.conj().T


def _close_pairs(w: np.ndarray, tol: float) -> np.ndarray:
    """(..., n, n) booleans over the last axis of w: |lambda_i - lambda_j| <=
    tol*(1 + max(|lambda_i|, |lambda_j|))."""
    size = np.abs(w)
    gap = np.abs(w[..., :, None] - w[..., None, :])
    return gap <= tol * (1.0 + np.maximum(size[..., :, None], size[..., None, :]))


def _cluster_indices(eigenvalues: np.ndarray, tol: float) -> list[list[int]]:
    """Group eigenvalue indices whose values coincide within
    tol*(1 + max(|lambda_i|, |lambda_j|)), a rule symmetric in the pair.

    Closeness is not transitive, so take the transitive closure (union-find
    over close pairs); cluster membership must not depend on eigenvalue ordering.
    """
    n = len(eigenvalues)
    close = _close_pairs(np.asarray(eigenvalues), tol)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(np.triu(close, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def biorthonormalize(right: np.ndarray, left: np.ndarray, tol: float = 1e-10):
    """Rescale the left system so that left^dag . right = identity.

    Only the left factor is adjusted (left' = left . G^{-dag} with
    G = left^dag right), so both column spans are unchanged.  Iterates the
    correction until the Gram defect stops improving; one pass already gives
    a defect of order machine epsilon times the conditioning of G.

    Raises DegenerateSystem when G is singular beyond tolerance, which
    signals a defective or mis-paired system.
    """
    right = as_square_matrix(right)
    left = as_square_matrix(left)
    if right.shape != left.shape:
        raise ValueError("left/right shape mismatch")
    n = right.shape[0]
    eye = np.eye(n)

    best = left
    best_dev = float(np.max(np.abs(best.conj().T @ right - eye)))
    for _ in range(3):
        if best_dev <= 10 * np.finfo(float).eps * n:
            break
        G = best.conj().T @ right
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise DegenerateSystem(
                f"left^dag.right is singular within tolerance (sigma_min/sigma_max = {sv[-1] / sv[0]:.3e})"
            )
        candidate = best @ np.linalg.inv(G).conj().T
        dev = float(np.max(np.abs(candidate.conj().T @ right - eye)))
        if dev >= best_dev:
            break
        best, best_dev = candidate, dev
    return right, best


def _left_system(w: np.ndarray, V: np.ndarray, cluster_tol: float):
    """The single-matrix steps of eig_full after the eigensolve: returns
    (left, diag_score) and orthonormalizes V's degenerate clusters in place."""
    diag_score = float(np.linalg.cond(V, 2))
    if not np.isfinite(diag_score):
        diag_score = np.inf

    for cluster in _cluster_indices(w, cluster_tol):
        if len(cluster) > 1:
            Q, _ = np.linalg.qr(V[:, cluster])
            V[:, cluster] = Q

    try:
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        W = np.linalg.pinv(V)
        diag_score = np.inf
    left = W.conj().T

    if diag_score <= 1e12:
        _, left = biorthonormalize(V, left)
    return left, diag_score


def eig_full(M, cluster_tol: float = CLUSTER_TOL) -> Spectrum:
    """Two-sided eigendecomposition of a general complex matrix.

    Right vectors come from the dense eigensolver; degenerate clusters are
    orthonormalized among themselves (stabilizes everything built from
    near-degenerate systems, e.g. +k/-k lattice modes); the left system is
    the conjugated inverse of the right matrix, polished by
    ``biorthonormalize``.  diag_score is the condition number of the *raw*
    eigenvector matrix so defective inputs keep their tell-tale blow-up.

    M may be a (k, n, n) stack; each matrix's entries of the stacked
    Spectrum are bit-identical to its own eig_full.  eig, cond and inv run
    once over the stack, and only a matrix with a degenerate cluster, a
    diag_score past 1e12 or a left system the polish must correct takes the
    single-matrix steps.
    """
    M = as_square_matrix(M, stack=True)
    n = M.shape[-1]
    try:
        w, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigFailure(str(exc)) from exc
    if M.ndim == 2:
        left, diag_score = _left_system(w, V, cluster_tol)
        return Spectrum(dim=n, eigenvalues=w, right=V, left=left, diag_score=diag_score)

    diag_score = np.linalg.cond(V, 2)
    diag_score[~np.isfinite(diag_score)] = np.inf
    clustered = np.count_nonzero(_close_pairs(w, cluster_tol), axis=(-2, -1)) > n
    single = clustered | (diag_score > 1e12)
    left = np.empty_like(V)
    plain = np.flatnonzero(~single)
    try:
        W = np.linalg.inv(V[plain])
    except np.linalg.LinAlgError:   # an exactly singular V: every matrix goes alone
        single[:] = True
    else:
        left[plain] = np.swapaxes(W.conj(), -1, -2)
        defect = np.max(np.abs(W @ V[plain] - np.eye(n)), axis=(-2, -1))
        single[plain] = defect > 10 * np.finfo(float).eps * n   # biorthonormalize's own test
    for i in np.flatnonzero(single):
        left[i], diag_score[i] = _left_system(w[i], V[i], cluster_tol)
    return Spectrum(dim=n, eigenvalues=w, right=V, left=left, diag_score=diag_score)


def herm_sqrt(P, tol: float = 1e-10) -> np.ndarray:
    """Positive-definite square root of a Hermitian positive-definite matrix.

    Standard spectral functional calculus: eigendecompose, take sqrt of the
    (strictly positive) eigenvalues.  Raises NotPositiveDefinite when the
    smallest eigenvalue is at or below tolerance, which flags a failed
    positive-metric construction upstream.
    """
    P = as_square_matrix(P)
    residual = herm_residual(P)
    if residual > tol:
        raise NotPositiveDefinite(
            f"matrix is not self-adjoint within {tol:g} (residual {residual:.3e})")
    evals, U = np.linalg.eigh(0.5 * (P + P.conj().T))
    if evals[0] <= tol * max(1.0, evals[-1]):
        raise NotPositiveDefinite(
            f"minimum eigenvalue {evals[0]:.3e} is not positive"
        )
    Q = (U * np.sqrt(evals)) @ U.conj().T
    return 0.5 * (Q + Q.conj().T)
