"""Physical subspaces of a non-Hermitian Hamiltonian, two ways.

Construction one keeps every eigenvector with a real eigenvalue: the span K
of the columns Psi_K is invariant, and the biorthonormal left system gives
the restriction of H to K as R = Phi_K^dag H Psi_K (diag(lambda_K) up to
roundoff).  The canonical metric Phi M Phi^dag of H restricted to K is
Psi_K^dag Phi M Phi^dag Psi_K = I, since Phi^dag Psi = I and M is +1 on
every real eigenvalue: in eigenvector coordinates K is already a genuine
Hilbert space, with eta_+ = MetricOperator.from_matrix(I).  Construction
two fixes an indefinite metric eta up front and keeps only eigenvectors of
positive eta-norm.  The two generally differ, which is the point of
comparing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPhysicalSpace, NonDiagonalizableError, UnpairedEigenvalue
from .linalg import Spectrum, as_square_matrix, spectral_norm
from .metrics import Classification, MetricOperator, OperatorClass, classify

# An eta-norm within ZERO_NORM_TOL * ||psi||^2 * ||eta|| of zero is zero.
ZERO_NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PhysicalSubspace:
    """Span of the real-eigenvalue eigenvectors, with the restricted operator
    and a positive metric making that restriction Hermitian."""

    basis: np.ndarray          # n x k, columns span K
    restricted_op: np.ndarray  # k x k coordinates of H on K
    eta_plus: MetricOperator   # positive metric on K

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def restrict_to_physical(H, cls: Classification | None = None) -> PhysicalSubspace:
    """Restrict H to the span of its real-eigenvalue eigenvectors.

    cls is H's classification (classify(H) when not given); its spectrum
    and the fixed points of its partner permutation pick the span K with
    basis B = Psi_K.  The restricted operator is the oblique projection
    R = Phi_K^dag H Psi_K through the biorthonormal left system, exact for
    the invariant K and diag(lambda_K) up to roundoff.  eta_plus is the
    identity: the restriction of the canonical metric Phi M Phi^dag to K,
    B^dag Phi M Phi^dag B = I.
    Raises EmptyPhysicalSpace when the spectrum has no real eigenvalue,
    since K would be the zero space.
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
    real = np.flatnonzero(cls.pairing == np.arange(H.shape[0]))
    if not real.size:
        raise EmptyPhysicalSpace("no real eigenvalues: physical span is {0}")
    basis = cls.spectrum.right[:, real]
    left = cls.spectrum.left[:, real]
    restricted = left.conj().T @ (H @ basis)
    return PhysicalSubspace(basis=basis, restricted_op=restricted,
                            eta_plus=MetricOperator.from_matrix(np.eye(len(real))))


def indefinite_physical_set(S: Spectrum, eta):
    """Sign of the eta-norm of every eigenvector: list of (index, sign).

    sign is +1 / 0 / -1 from diag(Psi^dag eta Psi); |norm| <=
    ZERO_NORM_TOL * ||psi||^2 * ||eta|| counts as zero.  Under a fixed
    indefinite metric only the +1 eigenvectors span the physical space;
    zero-norm vectors are excluded along with the negative ones.
    """
    E = eta.matrix if isinstance(eta, MetricOperator) else as_square_matrix(eta)
    signs = norm_signs(S.right, E @ S.right, spectral_norm(E))
    return list(enumerate(signs.tolist()))


def norm_signs(psi, eta_psi, eta_norm: float) -> np.ndarray:
    """Signs of the eta-norms psi^dag eta psi of the columns of psi (stacks allowed),
    given eta_psi = eta psi and ||eta||, under indefinite_physical_set's zero band."""
    norms = np.sum(psi.conj() * eta_psi, axis=-2).real
    cutoff = ZERO_NORM_TOL * np.sum(np.abs(psi) ** 2, axis=-2) * eta_norm
    return np.where(np.abs(norms) <= cutoff, 0, np.sign(norms)).astype(int)

