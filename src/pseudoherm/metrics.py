"""Metric operators for non-Hermitian matrices.

Implements the finite-dimensional theory: a matrix H is pseudo-Hermitian
when some invertible self-adjoint eta satisfies H^dag = eta H eta^{-1};
it is quasi-Hermitian when eta can be chosen positive-definite, which for
diagonalizable matrices happens exactly when the spectrum is real.

classify decomposes H once and returns its Spectrum (right system Psi,
biorthonormal left system Phi) with the PairingMap of its eigenvalues.
Every metric and tau is a factor times the signed pairing M = diag(s) P,
P the partner permutation (n -> index of conj(lambda_n)), s_n = +/-1 on
real eigenvalues and +1 on pairs: eta = Phi M Phi^dag (eta_+ is the
all-+1 case on a real spectrum) and tau = Psi M Phi^T with all s = +1.
hermitize still maps through the square root of eta_+.

classify, MetricOperator.from_matrix, build_general_metric,
verify_intertwining, antilinear_symmetry, antilinear_residual and eta_inner
take a (k, n, n) stack too, as eig_full and herm_sqrt do, and give
per-matrix lists or arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSystem,
    NoPositiveMetric,
    NotAMetric,
    NotCommuting,
    NotInvertible,
    NotPositiveDefinite,
    UnpairedEigenvalue,
)
from .linalg import (
    INVERTIBILITY_TOL,
    KAPPA_MAX,
    SELFADJOINT_TOL,
    Spectrum,
    as_square_matrix,
    dagger,
    eig_full,
    frobenius_norm,
    herm_residual,
    herm_sqrt,
    norm_lower_bound,
    ratio,
)

# lambda is treated as real iff |Im lambda| <= REALITY_TOL*(1+|lambda|).
REALITY_TOL = 1e-9

INTERTWINE_TOL = 1e-8


class OperatorClass(str, enum.Enum):
    HERMITIAN = "Hermitian"
    QUASI_HERMITIAN = "QuasiHermitian"
    PSEUDO_HERMITIAN_ONLY = "PseudoHermitianOnly"
    NOT_PSEUDO_HERMITIAN = "NotPseudoHermitian"
    NON_DIAGONALIZABLE = "NonDiagonalizable"


@dataclass(frozen=True)
class PairingMap:
    """Partition of eigenvalue indices into real ones and conjugate pairs.

    pairs hold (n, nbar) with Im lambda_n > 0 and lambda_nbar ~ conj(lambda_n).
    """

    real_indices: tuple
    pairs: tuple
    tol: float

    @property
    def all_real(self) -> bool:
        return len(self.pairs) == 0

    @cached_property
    def permutation(self) -> np.ndarray:
        """Partner permutation p: p[n] carries conj(lambda_n), p[n] = n when real."""
        p = np.arange(len(self.real_indices) + 2 * len(self.pairs))
        if self.pairs:
            a, b = np.array(self.pairs).T
            p[a], p[b] = b, a
        return p

    def partner(self, n: int) -> int:
        """Index carrying the conjugate of eigenvalue n (n itself when real)."""
        if not 0 <= n < len(self.permutation):
            raise KeyError(f"index {n} not covered by the pairing map")
        return int(self.permutation[n])


@dataclass(frozen=True, eq=False)
class Classification:
    """Class of H with the decomposition and pairing that decided it;
    pairing is None exactly for NonDiagonalizable and NotPseudoHermitian.
    For a stack, kind, pairing and diagnostics are lists, one per matrix."""

    kind: OperatorClass
    spectrum: Spectrum
    pairing: PairingMap | None
    diagnostics: dict


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """Invertible self-adjoint eta with cached signature and diagnostics.  For
    a stack the fields are arrays, and invertible marks the matrices that
    from_matrix refuses as NotInvertible when given one alone."""

    matrix: np.ndarray
    signature: tuple            # (n_plus, n_minus)
    selfadjoint_residual: float
    min_abs_eigenvalue: float
    norm: float                 # ||eta|| = max |eigenvalue|
    invertible: bool = True

    @classmethod
    def from_matrix(cls, eta) -> "MetricOperator":
        eta = as_square_matrix(eta, stack=True)
        residual = herm_residual(eta)
        if np.any(residual > SELFADJOINT_TOL):
            raise NotAMetric(f"not self-adjoint: residual {np.max(residual):.3e}")
        evals = np.linalg.eigvalsh(0.5 * (eta + dagger(eta)))
        size = np.abs(evals)
        scale, smallest = size.max(axis=-1), size.min(axis=-1)
        invertible = (scale != 0.0) & (smallest > INVERTIBILITY_TOL * scale)
        signature = np.stack([np.sum(evals > 0, axis=-1), np.sum(evals < 0, axis=-1)], axis=-1)
        if eta.ndim == 2:   # a single matrix: refuse a singular metric
            if not invertible:
                raise NotInvertible(
                    f"metric has an eigenvalue within {INVERTIBILITY_TOL:g} of zero")
            return cls(eta, tuple(signature.tolist()), residual, float(smallest), float(scale))
        return cls(eta, signature, residual, smallest, scale, invertible)

    @property
    def positive_definite(self):
        return np.asarray(self.signature)[..., 1] == 0

    @property
    def indefinite(self):
        return np.all(np.asarray(self.signature) > 0, axis=-1)


def _metric_matrix(eta) -> np.ndarray:
    """Accept MetricOperator or a plain array wherever a metric is consumed."""
    if isinstance(eta, MetricOperator):
        return eta.matrix
    return as_square_matrix(eta, stack=True)


def pair_spectrum(S: Spectrum | np.ndarray, tol: float = REALITY_TOL) -> PairingMap:
    """Split a Spectrum, or an array of eigenvalues, into real ones and conjugate pairs.

    Eigenvalues with |Im| <= tol*(1+|lambda|) count as real; the rest are
    matched greedily to the nearest conjugate within the same scaled
    tolerance.  Failure to match raises UnpairedEigenvalue rather than
    forcing a pairing: an unpaired complex eigenvalue certifies that no
    metric operator exists.
    """
    w = S.eigenvalues if isinstance(S, Spectrum) else np.asarray(S)
    real_indices = []
    upper = []   # Im > 0
    lower = []   # Im < 0
    # Python scalars: the loop costs less than array calls on small spectra.
    for n, lam in enumerate(w.tolist()):
        if abs(lam.imag) <= tol * (1.0 + abs(lam)):
            real_indices.append(n)
        elif lam.imag > 0:
            upper.append(n)
        else:
            lower.append(n)

    pairs = []
    remaining = list(lower)
    # Largest imaginary parts first: they have the least tolerance slack.
    for n in sorted(upper, key=lambda i: -abs(w[i].imag)):
        if not remaining:
            raise UnpairedEigenvalue(w[n])
        target = np.conj(w[n])
        best = min(remaining, key=lambda j: abs(w[j] - target))
        if abs(w[best] - target) > tol * (1.0 + abs(w[n])):
            raise UnpairedEigenvalue(w[n])
        remaining.remove(best)
        pairs.append((n, best))
    if remaining:
        raise UnpairedEigenvalue(w[remaining[0]])
    return PairingMap(real_indices=tuple(real_indices), pairs=tuple(pairs), tol=tol)


def decide_class(eigenvalues, diag_score: float, hermiticity_residual: float,
                 tol: float = REALITY_TOL, kappa_max: float = KAPPA_MAX):
    """The class rule of classify from its three inputs: (kind, pairing, diagnostics).

    NonDiagonalizable (pairing None) when diag_score, the eigenvector
    conditioning, exceeds kappa_max; Hermitian by direct residual;
    QuasiHermitian for a real spectrum; PseudoHermitianOnly when the spectrum
    is closed under conjugation with at least one genuine pair;
    NotPseudoHermitian (pairing None) otherwise.
    """
    diagnostics = {"diag_score": diag_score, "hermiticity_residual": hermiticity_residual}
    if diag_score > kappa_max:
        return OperatorClass.NON_DIAGONALIZABLE, None, diagnostics
    if hermiticity_residual <= tol:
        # A Hermitian spectrum is real: every eigenvalue is its own partner.
        pairing = PairingMap(tuple(range(len(eigenvalues))), (), tol)
        return OperatorClass.HERMITIAN, pairing, diagnostics
    try:
        pairing = pair_spectrum(eigenvalues, tol)
    except UnpairedEigenvalue as exc:
        diagnostics["unpaired_eigenvalue"] = exc.eigenvalue
        return OperatorClass.NOT_PSEUDO_HERMITIAN, None, diagnostics
    diagnostics["n_real"] = len(pairing.real_indices)
    diagnostics["n_pairs"] = len(pairing.pairs)
    if pairing.all_real:
        return OperatorClass.QUASI_HERMITIAN, pairing, diagnostics
    return OperatorClass.PSEUDO_HERMITIAN_ONLY, pairing, diagnostics


def classify(H, tol: float = REALITY_TOL, kappa_max: float = KAPPA_MAX) -> Classification:
    """Place H in the chain Hermitian < quasi-Hermitian < pseudo-Hermitian
    by decide_class.  The Classification carries the Spectrum and PairingMap
    of the one decomposition, so callers never decompose H again, and
    norm_lower_bound(H) <= ||H|| as diagnostics["norm"] for the residual
    helpers.  A (k, n, n) stack is decomposed and normed once and decided
    matrix by matrix."""
    H = as_square_matrix(H, stack=True)
    S = eig_full(H)
    norm = norm_lower_bound(H)
    decisions = [decide_class(w, score, residual, tol, kappa_max) for w, score, residual in zip(
        S.eigenvalues.reshape(-1, S.dim), np.reshape(S.diag_score, -1).tolist(),
        np.reshape(herm_residual(H, norm), -1).tolist())]
    for (_, _, diagnostics), size in zip(decisions, np.reshape(norm, -1).tolist()):
        diagnostics["norm"] = size
    kind, pairing, diagnostics = ([d[j] for d in decisions] for j in range(3))
    if H.ndim == 2:   # a single matrix
        return Classification(kind[0], S, pairing[0], diagnostics[0])
    return Classification(kind, S, pairing, diagnostics)


def build_positive_metric(S: Spectrum, pairing: PairingMap | None = None) -> MetricOperator:
    """Positive metric eta_+ = Phi Phi^dag = sum_n phi_n phi_n^dag.

    The all-+1 case of build_general_metric on a real spectrum.  pairing is
    the spectrum's PairingMap, computed here when not given.
    Raises NoPositiveMetric when any conjugate pair is present.  The result
    is self-adjoint positive-definite and intertwines H with H^dag.
    """
    if pairing is None:
        pairing = pair_spectrum(S)
    if not pairing.all_real:
        raise NoPositiveMetric(
            f"spectrum has {len(pairing.pairs)} complex pair(s); no positive metric exists"
        )
    metric = build_general_metric(S, pairing)
    if not metric.positive_definite:
        raise NotPositiveDefinite("constructed metric is not positive-definite")
    return metric


def _partner(A, pairings) -> np.ndarray:
    """A[..., :, p]: the columns of each matrix of A in the partner order p of
    its PairingMap in pairings (one for a single matrix)."""
    perm = np.array([p.permutation for p in pairings], dtype=int)
    return np.take_along_axis(A, perm.reshape(A.shape[:-2] + (1, A.shape[-1])), axis=-1)


def build_general_metric(S: Spectrum, pairing: PairingMap | list, signs=None) -> MetricOperator:
    """Canonical member of the metric family for a paired spectrum.

    eta = Phi M Phi^dag = sum_n s_n phi_n phi_{p(n)}^dag
        = sum_{n real} s_n phi_n phi_n^dag
        + sum_{(n,nbar)} (phi_n phi_nbar^dag + phi_nbar phi_n^dag),

    p the partner permutation, one sign s_n = +/-1 per real eigenvalue (all
    +1 by default: the positive metric on a real spectrum), s = +1 on pairs.
    Pair blocks carry no free phase; the rest of the metric family is
    reachable through transform_metric.  By Sylvester's law the signature is
    (#positive signs + #pairs, #negative signs + #pairs).

    On a stack, pairing holds one PairingMap per matrix, signs run over the
    real eigenvalues matrix by matrix, and a singular metric is not raised.
    """
    pairings = [pairing] if isinstance(pairing, PairingMap) else pairing
    s = np.ones((len(pairings), S.dim))
    if signs is not None:
        real = [(i, n) for i, p in enumerate(pairings) for n in p.real_indices]
        if len(signs) != len(real):
            raise ValueError("need exactly one sign per real eigenvalue")
        if any(x not in (-1, 1) for x in signs):
            raise ValueError("signs must be +1 or -1")
        s[[i for i, _ in real], [n for _, n in real]] = signs
    eta = (S.left * s.reshape(S.left.shape[:-2] + (1, S.dim))) @ dagger(_partner(S.left, pairings))
    eta = 0.5 * (eta + dagger(eta))
    try:
        return MetricOperator.from_matrix(eta)
    except NotInvertible as exc:
        raise DegenerateSystem(f"constructed metric is singular: {exc}") from exc


def verify_intertwining(H, eta, h_norm=None):
    """Certified bound on the relative residual ||H^dag eta - eta H|| / (||H|| ||eta||):
    the Frobenius norm of the numerator over lower bounds of the two norms.

    Zero (up to roundoff) certifies eta as a metric operator for H;
    membership is declared at <= 1e-8.  h_norm is ||H|| when the caller has
    it (classify's diagnostics["norm"]), else norm_lower_bound(H); a
    MetricOperator supplies ||eta||, a plain array its norm_lower_bound.
    A float for a single H, the (k,) array of residuals for a (k, n, n) stack.
    """
    H = as_square_matrix(H, stack=True)
    E = _metric_matrix(eta)
    eta_norm = eta.norm if isinstance(eta, MetricOperator) else norm_lower_bound(E)
    denom = (norm_lower_bound(H) if h_norm is None else h_norm) * eta_norm
    return ratio(frobenius_norm(dagger(H) @ E - E @ H), denom)


def eta_inner(eta, psi, chi):
    """Metric inner product <psi, eta chi>, conjugate-linear in psi.

    Positive-definite exactly when eta is; for indefinite eta nonzero
    vectors of zero or negative self-norm exist.  Vectors lie on the last
    axis and stacks broadcast, with eta's (k, n, n) stack too: a complex for
    one pair, an array of the broadcast leading shape otherwise.
    """
    E = _metric_matrix(eta)
    inner = np.vecdot(psi, np.asarray(chi) @ np.swapaxes(E, -1, -2))
    return complex(inner) if inner.ndim == 0 else inner


def hermitize(H, eta_plus, h_norm: float | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """Similarity map to a Hermitian matrix: rho = eta_+^{1/2}, h = rho H rho^{-1}.

    Requires eta_plus positive-definite and intertwining for H (checked);
    h is Hermitian up to conditioning roundoff and isospectral with H.
    Returns (rho, h, the residual of verify_intertwining(H, eta_plus, h_norm)).
    """
    H = as_square_matrix(H)
    residual = verify_intertwining(H, eta_plus, h_norm)
    if residual > INTERTWINE_TOL:
        raise NotAMetric(
            f"eta does not intertwine H (residual {residual:.3e} > {INTERTWINE_TOL:g})"
        )
    rho = herm_sqrt(_metric_matrix(eta_plus))
    h = rho @ H @ np.linalg.inv(rho)
    return rho, h, residual


def antilinear_symmetry(S: Spectrum, pairing: PairingMap | list) -> np.ndarray:
    """Matrix tau of an invertible antilinear map commuting with H.

    The antilinear operator is x -> tau conj(x); commutation with H reads
    H tau = tau conj(H) as matrices.  Construction: tau sends conj(phi_n)
    coordinates onto the eigenvector of the partner eigenvalue,

        tau = Psi M Phi^T = sum_n psi_n phi_{p(n)}^T
            = sum_{n real} psi_n phi_n^T
            + sum_{(n,nbar)} (psi_n phi_nbar^T + psi_nbar phi_n^T),

    which satisfies the commutation relation on a full basis by the pairing
    property and is invertible because it is (right vectors) x permutation x
    (left vectors)^T.  For a stacked Spectrum, pairing holds one PairingMap
    per matrix and tau is the (k, n, n) stack.
    """
    pairings = [pairing] if isinstance(pairing, PairingMap) else pairing
    return S.right @ np.swapaxes(_partner(S.left, pairings), -1, -2)


def antilinear_residual(H, tau, h_norm=None):
    """Certified bound on the relative residual ||H tau - tau conj(H)|| / (||H|| ||tau||):
    the Frobenius norm over norm_lower_bound of tau and h_norm, which is ||H||
    when the caller has it, else norm_lower_bound(H).  A float for a single
    H, the (k,) array of residuals for a (k, n, n) stack."""
    H = as_square_matrix(H, stack=True)
    tau = as_square_matrix(tau, stack=True)
    denom = (norm_lower_bound(H) if h_norm is None else h_norm) * norm_lower_bound(tau)
    return ratio(frobenius_norm(H @ tau - tau @ H.conj()), denom)


def transform_metric(eta, A, H) -> MetricOperator:
    """Move along the metric family: eta' = A^dag eta A for A commuting with H.

    Checks that A is invertible and commutes with H within tolerance, the
    commutator by ||AH - HA||_F / (||A|| norm_lower_bound(H)); the
    congruence preserves the signature, so positive metrics stay positive.
    """
    H = as_square_matrix(H)
    A = as_square_matrix(A)
    E = _metric_matrix(eta)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= INVERTIBILITY_TOL * sv[0]:
        raise NotInvertible("transformation A is singular within tolerance")
    comm = ratio(frobenius_norm(A @ H - H @ A), sv[0] * norm_lower_bound(H))
    if comm > INTERTWINE_TOL:
        raise NotCommuting(f"[A, H] residual {comm:.3e} exceeds {INTERTWINE_TOL:g}")
    return MetricOperator.from_matrix(A.conj().T @ E @ A)
