"""Metric operators for non-Hermitian matrices.

Implements the finite-dimensional theory: a matrix H is pseudo-Hermitian
when some invertible self-adjoint eta satisfies H^dag = eta H eta^{-1};
it is quasi-Hermitian when eta can be chosen positive-definite, which for
diagonalizable matrices happens exactly when the spectrum is real.

classify decomposes H once and returns its Spectrum (right system Psi,
biorthonormal left system Phi) with the pairing of its eigenvalues: the
partner permutation p, an integer array with p[n] the index of
conj(lambda_n) and p[n] = n on real eigenvalues.  Every metric and tau is a
factor times the signed pairing M = diag(s) P, P the permutation matrix of
p, s_n = +/-1 on real eigenvalues and +1 on pairs: eta = Phi M Phi^dag
(eta_+ is the all-+1 case on a real spectrum) and tau = Psi M Phi^T with
all s = +1.  hermitize still maps through the square root of eta_+.

classify, pair_spectrum, decide_class, MetricOperator.from_matrix,
build_general_metric, verify_intertwining, hermitize, antilinear_symmetry,
antilinear_residual and eta_inner take a (k, n, n) stack too (its (k, n)
eigenvalues or permutations where they take those), as eig_full and
herm_sqrt do, and give per-matrix arrays.  The class of a stack is decided
over arrays, with no Python loop over matrices: pair_spectrum's greedy loop
runs once per Im > 0 eigenvalue of the widest row, each step covering every
matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
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
    __str__ = str.__str__   # the name, as in 3.11's StrEnum: numpy stores members as names


@dataclass(frozen=True, eq=False)
class Classification:
    """Class of H with the decomposition and the partner permutation
    (pair_spectrum) that decided it; pairing is None exactly for
    NonDiagonalizable and NotPseudoHermitian.  For a (k, n, n) stack, kind is
    the (k,) array of class names (kind == OperatorClass.X is elementwise),
    pairing the (k, n) permutations with rows of -1 where one matrix would
    have None, and diagnostics a dict of (k,) arrays (decide_class's, and norm)."""

    kind: OperatorClass | np.ndarray
    spectrum: Spectrum
    pairing: np.ndarray | None
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
        if not np.all(residual <= SELFADJOINT_TOL):
            raise NotAMetric(f"not self-adjoint: residual {np.max(residual):.3e}")
        evals = np.linalg.eigvalsh(0.5 * (eta + dagger(eta)))
        size = np.abs(evals)
        scale, smallest = size.max(axis=-1), size.min(axis=-1)
        invertible = smallest > INVERTIBILITY_TOL * scale
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


def pair_spectrum(S: Spectrum | np.ndarray, tol: float = REALITY_TOL) -> np.ndarray:
    """The partner permutation p of a Spectrum's, or an array's, (..., n)
    eigenvalues: lambda_{p[n]} ~ conj(lambda_n), and p[n] = n on real ones.

    lambda is real when |Im lambda| <= tol*(1+|lambda|).  The greedy loop:
    largest Im first, lowest index among ties, each lambda_n with Im > 0 (an
    upper) takes the nearest remaining conj(lambda) with Im lambda < 0 (the
    first among ties), within tol*(1+|lambda_n|).  An eigenvalue left without
    a partner certifies that no metric operator exists: one matrix raises
    UnpairedEigenvalue with it, and a stack's row holds -1 there and n
    elsewhere.  Step j of the loop pairs the j-th upper of every row at
    once, at O(n) per upper; a row whose upper misses stops there.  A real
    spectrum skips the loop and costs O(n).
    """
    w = S.eigenvalues if isinstance(S, Spectrum) else np.asarray(S)
    flat = w.reshape(-1, w.shape[-1])
    k, n = flat.shape
    p = np.arange(n) + np.zeros((k, 1), dtype=int)
    nonreal = np.abs(flat.imag) > tol * (1.0 + np.abs(flat))
    if nonreal.any():
        lost = np.full(k, -1)   # the unpaired eigenvalue of each row
        at = np.argsort(~nonreal, axis=-1, kind="stable")[:, :nonreal.sum(axis=-1).max()]
        v = np.take_along_axis(flat, at, axis=-1)   # non-real first, by index
        live = np.take_along_axis(nonreal, at, axis=-1)
        upper, lower = live & (v.imag > 0), live & (v.imag < 0)
        order = np.argsort(np.where(upper, -v.imag, np.inf), axis=-1, kind="stable")
        count = np.count_nonzero(upper, axis=-1)
        for j in range(count.max()):
            r = np.flatnonzero((lost < 0) & (count > j))
            a = order[r, j]
            gap = np.where(lower[r], np.abs(v[r] - v[r, a].conj()[:, None]), np.inf)
            b = np.argmin(gap, axis=-1)
            hit = gap[np.arange(len(r)), b] <= tol * (1.0 + np.abs(v[r, a]))
            lost[r[~hit]] = at[r[~hit], a[~hit]]
            r, a, b = r[hit], at[r[hit], a[hit]], b[hit]
            lower[r, b] = False
            p[r, a], p[r, at[r, b]] = at[r, b], a
        # With every upper matched, the first lower left over is unpaired.
        r = np.flatnonzero((lost < 0) & lower.any(axis=-1))
        lost[r] = at[r, lower[r].argmax(axis=-1)]
        r = np.flatnonzero(lost >= 0)
        if w.ndim == 1 and r.size:
            raise UnpairedEigenvalue(w[lost[0]])
        p[r] = np.arange(n)
        p[r, lost[r]] = -1
    return p.reshape(w.shape)


def decide_class(eigenvalues, diag_score, hermiticity_residual,
                 tol: float = REALITY_TOL, kappa_max: float = KAPPA_MAX):
    """The class rule of classify from its three inputs, for one matrix's
    (n,) eigenvalues or a stack's (..., n): (kind, pairing, diagnostics).

    kind holds each matrix's class name: NonDiagonalizable when diag_score, the
    eigenvector score ||V||_F ||V^-1||_F, exceeds kappa_max; Hermitian by direct
    residual (every eigenvalue its own partner); QuasiHermitian for a real
    spectrum; PseudoHermitianOnly when it is closed under conjugation with at
    least one pair; NotPseudoHermitian otherwise.  pairing is pair_spectrum's,
    -1 throughout for NonDiagonalizable and NotPseudoHermitian.  diagnostics
    holds arrays: diag_score, hermiticity_residual, n_real (-1 without a
    pairing), unpaired_eigenvalue (nan unless NotPseudoHermitian).
    """
    w = np.asarray(eigenvalues)
    lead, n = w.shape[:-1], w.shape[-1]
    w = w.reshape(-1, n)
    score, residual = np.ravel(diag_score), np.ravel(hermiticity_residual)
    pairing = pair_spectrum(w, tol)
    nondiag = score > kappa_max
    hermitian = ~nondiag & (residual <= tol)
    pairing[hermitian] = np.arange(n)
    lost = pairing < 0
    unpaired = ~nondiag & lost.any(axis=-1)
    culprit = w[np.arange(len(w)), lost.argmax(axis=-1)]
    none = nondiag | unpaired
    pairing[none] = -1
    n_real = (pairing == np.arange(n)).sum(axis=-1)
    n_real[none] = -1
    # Sized for the longest name, so that no assignment below truncates one.
    kind = np.where(n_real == n, OperatorClass.QUASI_HERMITIAN,
                    OperatorClass.PSEUDO_HERMITIAN_ONLY).astype(f"U{max(map(len, OperatorClass))}")
    kind[unpaired] = OperatorClass.NOT_PSEUDO_HERMITIAN
    kind[hermitian] = OperatorClass.HERMITIAN
    kind[nondiag] = OperatorClass.NON_DIAGONALIZABLE
    diagnostics = {"diag_score": score, "hermiticity_residual": residual, "n_real": n_real,
                   "unpaired_eigenvalue": np.where(unpaired, culprit, np.nan)}
    return (kind.reshape(lead), pairing.reshape(lead + (n,)),
            {key: value.reshape(lead) for key, value in diagnostics.items()})


def classify(H, tol: float = REALITY_TOL, kappa_max: float = KAPPA_MAX) -> Classification:
    """Place H in the chain Hermitian < quasi-Hermitian < pseudo-Hermitian
    by decide_class.  The Classification carries the Spectrum and pairing
    of the one decomposition, so callers never decompose H again, and
    norm_lower_bound(H) <= ||H|| as diagnostics["norm"] for the residual
    helpers.  A (k, n, n) stack is decomposed, normed and decided once."""
    H = as_square_matrix(H, stack=True)
    S = eig_full(H)
    norm = norm_lower_bound(H)
    kind, pairing, diagnostics = decide_class(S.eigenvalues, S.diag_score,
                                              herm_residual(H, norm), tol, kappa_max)
    diagnostics["norm"] = np.asarray(norm)
    if H.ndim == 3:
        return Classification(kind, S, pairing, diagnostics)
    # A single matrix: an OperatorClass, scalars, and only the diagnostics that apply.
    kind = OperatorClass(kind.item())
    single = {key: value.item() for key, value in diagnostics.items()}
    if kind is not OperatorClass.NOT_PSEUDO_HERMITIAN:
        del single["unpaired_eigenvalue"]
    if single["n_real"] < 0:
        del single["n_real"]
    return Classification(kind, S, None if np.any(pairing < 0) else pairing, single)


def build_positive_metric(S: Spectrum, pairing=None) -> MetricOperator:
    """Positive metric eta_+ = Phi Phi^dag = sum_n phi_n phi_n^dag.

    The all-+1 case of build_general_metric on a real spectrum.  pairing is
    the spectrum's partner permutation, computed here when not given.
    Raises NoPositiveMetric when any conjugate pair is present.  The result
    is self-adjoint positive-definite and intertwines H with H^dag.
    """
    if pairing is None:
        pairing = pair_spectrum(S)
    pairs = np.count_nonzero(pairing != np.arange(S.dim)) // 2
    if pairs:
        raise NoPositiveMetric(f"spectrum has {pairs} complex pair(s); no positive metric exists")
    metric = build_general_metric(S, pairing)
    if not np.all(metric.positive_definite):
        raise NotPositiveDefinite("constructed metric is not positive-definite")
    return metric


def _partner(A, pairing) -> np.ndarray:
    """A[..., :, p]: the columns of each matrix of A in the partner order p,
    pairing's (..., n) permutation."""
    return np.take_along_axis(A, np.asarray(pairing)[..., None, :], axis=-1)


def build_general_metric(S: Spectrum, pairing, signs=None) -> MetricOperator:
    """Canonical member of the metric family for a paired spectrum.

    eta = Phi M Phi^dag = sum_n s_n phi_n phi_{p(n)}^dag
        = sum_{n real} s_n phi_n phi_n^dag
        + sum_{(n,nbar)} (phi_n phi_nbar^dag + phi_nbar phi_n^dag),

    p the partner permutation, one sign s_n = +/-1 per real eigenvalue (all
    +1 by default: the positive metric on a real spectrum), s = +1 on pairs.
    Pair blocks carry no free phase; the rest of the metric family is
    reachable through transform_metric.  By Sylvester's law the signature is
    (#positive signs + #pairs, #negative signs + #pairs).

    pairing is the (n,) partner permutation, or (k, n) for a stacked
    Spectrum; on a stack signs run over the real eigenvalues matrix by
    matrix.  A singular metric raises from_matrix's NotInvertible for one
    matrix and is marked not invertible in a stack.
    """
    p = np.asarray(pairing)
    s = np.ones(p.shape)
    if signs is not None:
        real = p == np.arange(S.dim)
        signs = np.asarray(signs)
        if signs.shape != (np.count_nonzero(real),):
            raise ValueError("need exactly one sign per real eigenvalue")
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("signs must be +1 or -1")
        s[real] = signs
    eta = (S.left * s[..., None, :]) @ dagger(_partner(S.left, p))
    return MetricOperator.from_matrix(0.5 * (eta + dagger(eta)))


def verify_intertwining(H, eta, h_norm=None):
    """Certified bound on the relative residual ||H^dag eta - eta H|| / (||H|| ||eta||):
    the Frobenius norm of the numerator over lower bounds of the two norms,
    divided by one at a time so that their product never overflows.

    Zero (up to roundoff) certifies eta as a metric operator for H;
    membership is declared at <= 1e-8.  h_norm is ||H|| when the caller has
    it (classify's diagnostics["norm"]), else norm_lower_bound(H); a
    MetricOperator supplies ||eta||, a plain array its norm_lower_bound.
    A float for a single H, the (k,) array of residuals for a (k, n, n) stack.
    """
    H = as_square_matrix(H, stack=True)
    E = _metric_matrix(eta)
    eta_norm = eta.norm if isinstance(eta, MetricOperator) else norm_lower_bound(E)
    h_norm = norm_lower_bound(H) if h_norm is None else h_norm
    return ratio(ratio(frobenius_norm(dagger(H) @ E - E @ H), h_norm), eta_norm)


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


def hermitize(H, eta_plus, h_norm=None):
    """Similarity map to a Hermitian matrix: rho = eta_+^{1/2}, h = rho H rho^{-1}.

    Requires eta_plus positive-definite and intertwining for H (checked);
    h is Hermitian up to conditioning roundoff and isospectral with H.
    Returns (rho, h, the residual of verify_intertwining(H, eta_plus, h_norm)).
    One matrix raises NotAMetric past the intertwining gate (a NaN residual
    too) or herm_sqrt's NotPositiveDefinite.  In a (k, n, n) stack such a
    matrix gets all-NaN rho and h and every other one its own bits; only a
    gated eta_plus that is not self-adjoint raises, as in herm_sqrt.
    """
    H = as_square_matrix(H, stack=True)
    E = _metric_matrix(eta_plus)
    residual = verify_intertwining(H, eta_plus, h_norm)
    if H.ndim == 2:
        if not residual <= INTERTWINE_TOL:
            raise NotAMetric(
                f"eta does not intertwine H (residual {residual:.3e} > {INTERTWINE_TOL:g})")
        rho = herm_sqrt(E)
        return rho, rho @ H @ np.linalg.inv(rho), residual
    rho, h = np.full(E.shape, np.nan, dtype=complex), np.full(H.shape, np.nan, dtype=complex)
    gated = np.flatnonzero(residual <= INTERTWINE_TOL)
    rho[gated] = herm_sqrt(E[gated])
    root = gated[~np.isnan(rho[gated, 0, 0])]
    h[root] = rho[root] @ H[root] @ np.linalg.inv(rho[root])
    return rho, h, residual


def antilinear_symmetry(S: Spectrum, pairing) -> np.ndarray:
    """Matrix tau of an invertible antilinear map commuting with H.

    The antilinear operator is x -> tau conj(x); commutation with H reads
    H tau = tau conj(H) as matrices.  Construction: tau sends conj(phi_n)
    coordinates onto the eigenvector of the partner eigenvalue,

        tau = Psi M Phi^T = sum_n psi_n phi_{p(n)}^T
            = sum_{n real} psi_n phi_n^T
            + sum_{(n,nbar)} (psi_n phi_nbar^T + psi_nbar phi_n^T),

    which satisfies the commutation relation on a full basis by the pairing
    property and is invertible because it is (right vectors) x permutation x
    (left vectors)^T.  pairing is the partner permutation; for a stacked
    Spectrum it is (k, n) and tau is the (k, n, n) stack.
    """
    return S.right @ np.swapaxes(_partner(S.left, pairing), -1, -2)


def antilinear_residual(H, tau, h_norm=None):
    """Certified bound on the relative residual ||H tau - tau conj(H)|| / (||H|| ||tau||):
    the Frobenius norm over h_norm, which is ||H|| when the caller has it,
    else norm_lower_bound(H), then over norm_lower_bound of tau.  A float
    for a single H, the (k,) array of residuals for a (k, n, n) stack."""
    H = as_square_matrix(H, stack=True)
    tau = as_square_matrix(tau, stack=True)
    h_norm = norm_lower_bound(H) if h_norm is None else h_norm
    return ratio(ratio(frobenius_norm(H @ tau - tau @ H.conj()), h_norm), norm_lower_bound(tau))


def transform_metric(eta, A, H) -> MetricOperator:
    """Move along the metric family: eta' = A^dag eta A for A commuting with H.

    Checks that A commutes with H within tolerance, by ||AH - HA||_F over
    norm_lower_bound(H) and norm_lower_bound(A); a singular A then makes
    A^dag eta A fail from_matrix with NotInvertible.  The congruence
    preserves the signature, so positive metrics stay positive.
    """
    H = as_square_matrix(H)
    A = as_square_matrix(A)
    E = _metric_matrix(eta)
    comm = ratio(ratio(frobenius_norm(A @ H - H @ A), norm_lower_bound(H)), norm_lower_bound(A))
    if comm > INTERTWINE_TOL:
        raise NotCommuting(f"[A, H] residual {comm:.3e} exceeds {INTERTWINE_TOL:g}")
    return MetricOperator.from_matrix(A.conj().T @ E @ A)
