"""Physical subspaces of a non-Hermitian Hamiltonian, two ways.

Construction one keeps every eigenvector with a real eigenvalue: the span K
is invariant, the restriction of H to K is quasi-Hermitian, and a positive
metric on K turns it into a genuine Hilbert space.  Construction two fixes
an indefinite metric eta up front and keeps only eigenvectors of positive
eta-norm.  The two generally differ, which is the point of comparing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPhysicalSpace, NonDiagonalizableError, UnpairedEigenvalue
from .linalg import Spectrum, as_square_matrix, eig_full, spectral_norm
from .metrics import (
    Classification,
    MetricOperator,
    OperatorClass,
    PairingMap,
    build_positive_metric,
    classify,
    eta_inner,
)


@dataclass(frozen=True)
class PhysicalSubspace:
    """Span of the real-eigenvalue eigenvectors, with the restricted operator
    and a positive metric making that restriction Hermitian."""

    parent_dim: int
    basis: np.ndarray          # parent_dim x k, columns span K
    restricted_op: np.ndarray  # k x k coordinates of H on K
    eta_plus: MetricOperator   # positive metric on K

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def real_span(S: Spectrum, pairing: PairingMap) -> np.ndarray:
    """Columns: the right eigenvectors whose eigenvalues are real.

    Raises EmptyPhysicalSpace when the spectrum has no real eigenvalue at
    all, since the construction would yield the zero space.
    """
    if not pairing.real_indices:
        raise EmptyPhysicalSpace("no real eigenvalues: physical span is {0}")
    return S.right[:, list(pairing.real_indices)]


def restrict_to_physical(H, cls: Classification | None = None) -> PhysicalSubspace:
    """Restrict H to the span of its real-eigenvalue eigenvectors.

    cls is H's classification (classify(H) when not given); its spectrum
    and pairing pick the span.  The restricted operator solves H B = B R in
    the least-squares sense (exact for an invariant subspace); it is
    quasi-Hermitian by construction and eta_plus is the positive metric of
    its own spectrum, paired within the same tolerance.
    """
    H = as_square_matrix(H)
    if cls is None:
        cls = classify(H)
    if cls.kind is OperatorClass.NON_DIAGONALIZABLE:
        raise NonDiagonalizableError(
            f"diag_score {cls.spectrum.diag_score:.3e} exceeds the diagonalizability cutoff"
        )
    if cls.pairing is None:
        raise UnpairedEigenvalue(cls.diagnostics["unpaired_eigenvalue"])
    basis = real_span(cls.spectrum, cls.pairing)
    restricted, *_ = np.linalg.lstsq(basis, H @ basis, rcond=None)
    eta_plus = build_positive_metric(eig_full(restricted), tol=cls.pairing.tol)
    return PhysicalSubspace(parent_dim=H.shape[0], basis=basis,
                            restricted_op=restricted, eta_plus=eta_plus)


def indefinite_physical_set(S: Spectrum, eta, zero_tol: float = 1e-10):
    """Sign of the eta-norm of every eigenvector: list of (index, sign).

    sign is +1 / 0 / -1; |norm| <= zero_tol * ||psi||^2 * ||eta|| counts as
    zero.  Under a fixed indefinite metric only the +1 eigenvectors span the
    physical space; zero-norm vectors are excluded along with the negative
    ones.
    """
    E = eta.matrix if isinstance(eta, MetricOperator) else as_square_matrix(eta)
    scale = spectral_norm(E)
    out = []
    for n in range(S.dim):
        psi = S.right[:, n]
        norm = eta_inner(E, psi, psi).real
        cutoff = zero_tol * float(np.vdot(psi, psi).real) * max(scale, 1.0)
        if abs(norm) <= cutoff:
            out.append((n, 0))
        else:
            out.append((n, 1 if norm > 0 else -1))
    return out


def positive_norm_span(S: Spectrum, eta, zero_tol: float = 1e-10) -> np.ndarray:
    """Basis (columns) of the span of positive-eta-norm eigenvectors."""
    signs = indefinite_physical_set(S, eta, zero_tol)
    keep = [n for n, s in signs if s > 0]
    if not keep:
        raise EmptyPhysicalSpace("no eigenvector has positive eta-norm")
    return S.right[:, keep]
