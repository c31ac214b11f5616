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
(eta_+ is the all-+1 case on a real spectrum; each eta is invertible, of
Sylvester's signature, by construction) and tau = Psi M Phi^T with all
s = +1.  hermitize, handed a Spectrum for its eta_+, reads rho and h off
one SVD of Phi: the polar route, with no inverse and no eigensolve.  A
MetricOperator is eta and its signature alone: each residual helper takes the
norms it divides by as arguments (h_norm, eta_norm, rho_norm, tau_norm), and
bounds a norm not given by norm_lower_bound.

classify, pair_spectrum, decide_class, build_general_metric,
verify_intertwining, hermitize, similarity_residual, antilinear_symmetry,
antilinear_residual and eta_inner take a (k, n, n) stack too, as eig_full
and herm_sqrt do, and give per-matrix arrays.  The class rule is written
once, for every matrix of a stack at once: one band array and one
precedence list in decide_class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveMetric, NotAMetric, NotCommuting, NotInvertible, UnpairedEigenvalue
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

# The floor REALITY_TOL ||H|| of decide_class's bands; pair_spectrum's own band.
REALITY_TOL = 1e-9

INTERTWINE_TOL = 1e-8


class OperatorClass(str, enum.Enum):
    HERMITIAN = "Hermitian"
    QUASI_HERMITIAN = "QuasiHermitian"
    PSEUDO_HERMITIAN_ONLY = "PseudoHermitianOnly"
    NOT_PSEUDO_HERMITIAN = "NotPseudoHermitian"
    NON_DIAGONALIZABLE = "NonDiagonalizable"
    INDETERMINATE = "Indeterminate"
    __str__ = str.__str__   # the name, as in 3.11's StrEnum: numpy stores members as names


@dataclass(frozen=True, eq=False)
class Classification:
    """Class of H with the decomposition and the partner permutation
    (pair_spectrum) that decided it; pairing is None exactly for
    NonDiagonalizable, Indeterminate and NotPseudoHermitian.  For a (k, n, n)
    stack, kind is the (k,) array of class names (kind == OperatorClass.X is
    elementwise), pairing the (k, n) permutations with rows of -1 where one
    matrix would have None, and diagnostics a dict of (k,) arrays (decide_class's, and norm)."""

    kind: OperatorClass | np.ndarray
    spectrum: Spectrum
    pairing: np.ndarray | None
    diagnostics: dict


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """Invertible self-adjoint eta with its signature (arrays for a stack
    built by build_general_metric)."""

    matrix: np.ndarray
    signature: tuple            # (n_plus, n_minus)

    @classmethod
    def from_matrix(cls, eta) -> "MetricOperator":
        """One metric the caller supplies: NotAMetric or NotInvertible past its ceilings."""
        eta = as_square_matrix(eta)
        residual = herm_residual(eta)
        if not residual <= SELFADJOINT_TOL:
            raise NotAMetric(f"not self-adjoint: residual {residual:.3e}")
        evals = np.linalg.eigvalsh(0.5 * (eta + dagger(eta)))
        size = np.abs(evals)
        if not size.min() > INVERTIBILITY_TOL * size.max():
            raise NotInvertible(f"metric has an eigenvalue within {INVERTIBILITY_TOL:g} of zero")
        return cls(eta, (int(np.sum(evals > 0)), int(np.sum(evals < 0))))

    @property
    def min_abs_eigenvalue(self):   # by an eigvalsh when read
        return np.min(np.abs(np.linalg.eigvalsh(self.matrix)), axis=-1)[()]

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


def _kappa(S: Spectrum) -> np.ndarray:
    """kappa_n = ||psi_n|| ||phi_n|| = ||phi_n|| (psi_n of unit norm), or 0 past
    diag_score KAPPA_MAX: no band tells such eigenvalues apart, and a norm could
    overflow (kappa_n <= diag_score below it)."""
    kappa = np.zeros(S.eigenvalues.shape)
    kept = S.diag_score <= KAPPA_MAX
    kappa[kept] = np.linalg.norm(S.left[kept], axis=-2)
    return kappa


def pair_spectrum(S: Spectrum | np.ndarray, tol=REALITY_TOL) -> np.ndarray:
    """The partner permutation p of a Spectrum's, or an array's, (..., n)
    eigenvalues: lambda_{p[n]} ~ conj(lambda_n), and p[n] = n on real ones.

    Each lambda_n has one band: an array tol's [..., n]; with a float tol,
    decide_class's, with max |lambda| in place of ||H||, so that it scales
    with H (on bare eigenvalues kappa_n is unknown: the floor tol max |lambda|).
    lambda_n is real when |Im lambda_n| lies within it, and an upper lambda_n
    (Im > 0) pairs with the nearest remaining lower lambda_m (Im < 0) when
    |lambda_m - conj(lambda_n)| lies within both bands.  Uppers go largest Im
    first; ties go to the lowest index of the row.  An eigenvalue left unpaired
    certifies that no metric exists: one matrix raises UnpairedEigenvalue with
    it, and a stack's row holds -1 there and is the identity elsewhere.  Step j
    pairs the j-th upper of every row at once, in O(n); a row whose upper
    misses stops there.  A real spectrum costs O(n).
    """
    w = S.eigenvalues if isinstance(S, Spectrum) else np.asarray(S)
    if np.ndim(tol) == 0:
        kappa = _kappa(S) if isinstance(S, Spectrum) else 0.0
        tol = np.max(np.abs(w), axis=-1, keepdims=True) * np.maximum(tol, 2.0**-52 * kappa)
    flat = w.reshape(-1, w.shape[-1])
    k, n = flat.shape
    p = np.arange(n) + np.zeros((k, 1), dtype=int)
    band = np.broadcast_to(tol, w.shape).reshape(flat.shape)
    nonreal = np.abs(flat.imag) > band
    if nonreal.any():
        lost = np.full(k, -1)   # the unpaired eigenvalue of each row
        upper, lower = nonreal & (flat.imag > 0), nonreal & (flat.imag < 0)
        order = np.argsort(np.where(upper, -flat.imag, np.inf), axis=-1, kind="stable")
        count = np.count_nonzero(upper, axis=-1)
        for j in range(count.max()):
            r = np.flatnonzero((lost < 0) & (count > j))
            a = order[r, j]
            gap = np.where(lower[r], np.abs(flat[r] - flat[r, a].conj()[:, None]), np.inf)
            b = np.argmin(gap, axis=-1)
            hit = gap[np.arange(len(r)), b] <= band[r, a] + band[r, b]
            lost[r[~hit]] = a[~hit]
            r, a, b = r[hit], a[hit], b[hit]
            lower[r, b] = False
            p[r, a], p[r, b] = b, a
        # With every upper matched, the first lower left over is unpaired.
        r = np.flatnonzero((lost < 0) & lower.any(axis=-1))
        lost[r] = lower[r].argmax(axis=-1)
        r = np.flatnonzero(lost >= 0)
        if w.ndim == 1 and r.size:
            raise UnpairedEigenvalue(w[lost[0]])
        p[r] = np.arange(n)
        p[r, lost[r]] = -1
    return p.reshape(w.shape)


def decide_class(eigenvalues, diag_score, hermiticity_residual, kappa, norm, tol=REALITY_TOL):
    """The class rule of classify for (n,) or (..., n) eigenvalues, each with the
    band max(tol ||H||, kappa_n eps ||H||), kappa_n = ||psi_n|| ||phi_n|| (Golub &
    Van Loan, sec. 7.2.2): (kind, pairing, diagnostics).  kind is the first that
    holds of: NonDiagonalizable if diag_score (||V||_F ||V^-1||_F) exceeds
    KAPPA_MAX; Hermitian if the residual is within tol; Indeterminate if a real
    lambda_n lies within band_m + band_n of conj(lambda_m), lambda_m non-real;
    NotPseudoHermitian if pair_spectrum leaves an eigenvalue unpaired;
    QuasiHermitian if the spectrum is real; else PseudoHermitianOnly.  pairing
    is pair_spectrum's (the identity if Hermitian), -1 throughout for the three
    classes with no metric.  diagnostics holds arrays: diag_score,
    hermiticity_residual, n_real (-1 without a pairing), unpaired_eigenvalue.
    """
    *lead, n = np.shape(eigenvalues)
    w = np.reshape(eigenvalues, (-1, n))
    score, residual = np.ravel(diag_score), np.ravel(hermiticity_residual)
    band = np.reshape(norm, (-1, 1)) * np.maximum(tol, 2.0**-52 * np.reshape(kappa, w.shape))
    pairing = pair_spectrum(w, band)
    nondiag = score > KAPPA_MAX
    hermitian = ~nondiag & (residual <= tol)
    real = np.abs(w.imag) <= band
    indeterminate = ~nondiag & ~hermitian & real.any(axis=-1) & ~real.all(axis=-1)
    r = np.flatnonzero(indeterminate)   # rows with a real and a non-real eigenvalue
    near = np.abs(w[r, :, None] - w[r, None, :].conj()) <= band[r, :, None] + band[r, None, :]
    indeterminate[r] = np.any(near & real[r, :, None] & ~real[r, None, :], axis=(-2, -1))
    pairing[hermitian] = np.arange(n)
    lost = pairing < 0
    unpaired = ~nondiag & ~indeterminate & lost.any(axis=-1)
    culprit = w[np.arange(len(w)), lost.argmax(axis=-1)]
    none = nondiag | indeterminate | unpaired
    pairing[none] = -1
    n_real = np.where(none, -1, (pairing == np.arange(n)).sum(axis=-1))
    kind = np.select([nondiag, hermitian, indeterminate, unpaired, n_real == n],
                     [OperatorClass.NON_DIAGONALIZABLE, OperatorClass.HERMITIAN,
                      OperatorClass.INDETERMINATE, OperatorClass.NOT_PSEUDO_HERMITIAN,
                      OperatorClass.QUASI_HERMITIAN],
                     OperatorClass.PSEUDO_HERMITIAN_ONLY)
    diagnostics = {"diag_score": score, "hermiticity_residual": residual, "n_real": n_real,
                   "unpaired_eigenvalue": np.where(unpaired, culprit, np.nan)}
    return (kind.reshape(lead), pairing.reshape(*lead, n),
            {key: value.reshape(lead) for key, value in diagnostics.items()})


def classify(H, tol: float = REALITY_TOL) -> Classification:
    """Place H in the chain Hermitian < quasi-Hermitian < pseudo-Hermitian
    by decide_class.  The Classification carries the Spectrum and pairing
    of the one decomposition, so callers never decompose H again, and
    norm_lower_bound(H) <= ||H|| as diagnostics["norm"] for the residual
    helpers.  A (k, n, n) stack is decomposed, normed and decided once; a
    norm or Hermiticity residual that overflows raises ValueError."""
    H = as_square_matrix(H, stack=True)
    norm = norm_lower_bound(H)
    residual = herm_residual(H, norm) if np.all(np.isfinite(norm)) else np.inf
    if not np.all(np.isfinite(residual)):
        raise ValueError("H is too large: its norm or Hermiticity residual overflows")
    S = eig_full(H)
    kind, pairing, diagnostics = decide_class(S.eigenvalues, S.diag_score, residual, _kappa(S),
                                              norm, tol)
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
    is self-adjoint, of signature (n, 0), and intertwines H with H^dag.
    """
    if pairing is None:
        pairing = pair_spectrum(S)
    pairs = np.count_nonzero(pairing != np.arange(S.dim)) // 2
    if pairs:
        raise NoPositiveMetric(f"spectrum has {pairs} complex pair(s); no positive metric exists")
    return build_general_metric(S, pairing)


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
    reachable through transform_metric.  eta is invertible as Phi is, and by
    Sylvester's law its signature is (#positive signs + #pairs, #negative signs
    + #pairs), with no eigensolve.

    pairing is the (n,) partner permutation, or (k, n) for a stacked
    Spectrum; on a stack signs run over the real eigenvalues matrix by
    matrix, and signature is an array.
    """
    p = np.asarray(pairing)
    s, real = np.ones(p.shape), p == np.arange(S.dim)
    if signs is not None:
        signs = np.asarray(signs)
        if signs.shape != (np.count_nonzero(real),):
            raise ValueError("need exactly one sign per real eigenvalue")
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("signs must be +1 or -1")
        s[real] = signs
    eta = _hermitian((S.left * s[..., None, :]) @ dagger(_partner(S.left, p)))
    plus = np.count_nonzero(real & (s > 0), axis=-1) + np.count_nonzero(~real, axis=-1) // 2
    signature = np.stack([plus, S.dim - plus], axis=-1)
    return MetricOperator(eta, tuple(signature.tolist()) if p.ndim == 1 else signature)


def verify_intertwining(H, eta, h_norm=None, eta_norm=None):
    """Certified bound on the relative residual ||H^dag eta - eta H|| / (||H|| ||eta||):
    the Frobenius norm of the numerator over lower bounds of the two norms,
    divided by one at a time so that their product never overflows.

    Zero (up to roundoff) certifies eta as a metric operator for H;
    membership is declared at <= 1e-8.  h_norm is ||H|| when the caller has
    it (classify's diagnostics["norm"]), else norm_lower_bound(H); eta_norm
    is ||eta|| when the caller has it (verify's max |eigvalsh|, the polar
    route's sigma_max^2), else norm_lower_bound of eta's matrix.
    A float for a single H, the (k,) array of residuals for a (k, n, n) stack.
    """
    H = as_square_matrix(H, stack=True)
    E = _metric_matrix(eta)
    h_norm = norm_lower_bound(H) if h_norm is None else h_norm
    eta_norm = norm_lower_bound(E) if eta_norm is None else eta_norm
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


def _hermitian(A) -> np.ndarray:
    """0.5 (A + A^dag), Hermitian bit for bit; halved first, so no sum overflows."""
    return 0.5 * A + 0.5 * dagger(A)


def hermitize(H, eta_plus, h_norm=None):
    """Similarity map to a Hermitian matrix: rho = eta_+^{1/2}, h = rho H rho^{-1}.

    eta_plus must intertwine H (checked) and be positive-definite.  A Spectrum
    stands for its eta_+ = Phi Phi^dag and takes the polar route: Phi =
    U Sigma V^dag gives eta_+ = U Sigma^2 U^dag (the matrix the intertwining
    gate checks) and rho = U Sigma U^dag, of norms sigma_max^2 and sigma_max,
    and the unitary rho Psi = Q = U V^dag, so h = Q diag(Re lambda) Q^dag
    (Higham, Functions of Matrices, ch. 8).  herm_sqrt, with an inverse, serves
    any other metric, an array or a MetricOperator broadcast to H, as given:
    once for one (n, n) metric, with its norm and rho's from norm_lower_bound.
    rho and h are built as 0.5 (A + A^dag), and h must pass a second gate,
    similarity_residual: eta_+ intertwines H + c I too, and only rho H = h rho
    ties h to H itself.  Returns (rho, h, residuals), the two gated values as
    residuals["intertwining"] and ["similarity"].  One matrix gets floats, or
    raises NotAMetric past either gate (NaN too) or herm_sqrt's
    NotPositiveDefinite; a stack gets (k,) arrays, and all-NaN rho and h where
    one matrix would raise.
    """
    H = as_square_matrix(H, stack=True)
    stack = H.reshape(-1, *H.shape[-2:])
    S = eta_plus if isinstance(eta_plus, Spectrum) else None
    if S is not None:
        U, sigma, Vh = np.linalg.svd(S.left.reshape(stack.shape))
        eta_plus, eta_norm = _hermitian((U * sigma[:, None, :] ** 2) @ dagger(U)), sigma[:, 0] ** 2
    else:   # one metric for all of H, or one per matrix; its norm is bounded unbroadcast
        E = eta_plus = _metric_matrix(eta_plus)
        eta_norm = None
        try:
            E = np.broadcast_to(E, H.shape)
        except ValueError:
            raise ValueError(f"metric shape {E.shape} cannot broadcast to H's {H.shape}") from None
    intertwining = verify_intertwining(stack, eta_plus, h_norm, eta_norm)
    if H.ndim == 2 and not intertwining[0] <= INTERTWINE_TOL:
        raise NotAMetric(
            f"eta does not intertwine H (residual {intertwining[0]:.3e} > {INTERTWINE_TOL:g})")
    rho, h = np.full((2, *stack.shape), np.nan, dtype=complex)
    gated = np.flatnonzero(intertwining <= INTERTWINE_TOL)
    if S is None:
        shared = H.ndim == 3 and E.strides[0] == 0   # one metric broadcast over the stack
        rho[gated] = root = herm_sqrt(E[:1] if shared else E[gated] if H.ndim == 3 else E)
        ok = gated[~np.isnan(rho[gated, 0, 0])]
        if ok.size:
            h[ok] = rho[ok] @ stack[ok] @ np.linalg.inv(root if shared else rho[ok])
    else:
        Q = U[gated] @ Vh[gated]
        rho[gated] = (U[gated] * sigma[gated, None, :]) @ dagger(U[gated])
        h[gated] = (Q * S.eigenvalues.reshape(sigma.shape)[gated].real[:, None, :]) @ dagger(Q)
    rho, h = _hermitian(rho), _hermitian(h)
    similarity = similarity_residual(stack, rho, h, h_norm, None if S is None else sigma[:, 0])
    if H.ndim == 2 and not similarity[0] <= INTERTWINE_TOL:
        raise NotAMetric(f"rho H != h rho: similarity {similarity[0]:.3e} > "
                         f"INTERTWINE_TOL = {INTERTWINE_TOL:g}")
    rho[similarity > INTERTWINE_TOL] = h[similarity > INTERTWINE_TOL] = np.nan
    if H.ndim == 2:
        rho, h, intertwining, similarity = rho[0], h[0], float(intertwining[0]), float(similarity[0])
    return rho, h, {"intertwining": intertwining, "similarity": similarity}


def similarity_residual(H, rho, h, h_norm=None, rho_norm=None):
    """Certified bound on hermitize's relative residual ||rho H - h rho|| / (||rho|| ||H||):
    the Frobenius norm over h_norm (||H||, else norm_lower_bound(H)), then over
    rho_norm (||rho||, as the polar route's sigma_max of Phi gives it exactly,
    else norm_lower_bound(rho)).  A float for one H, a (k,) array for a stack."""
    H = as_square_matrix(H, stack=True)
    h_norm = norm_lower_bound(H) if h_norm is None else h_norm
    rho_norm = norm_lower_bound(rho) if rho_norm is None else rho_norm
    return ratio(ratio(frobenius_norm(rho @ H - h @ rho), h_norm), rho_norm)


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


def antilinear_residual(H, tau, h_norm=None, tau_norm=None):
    """Certified bound on the relative residual ||H tau - tau conj(H)|| / (||H|| ||tau||):
    the Frobenius norm over h_norm, which is ||H|| when the caller has it,
    else norm_lower_bound(H), then over tau_norm, which is ||tau|| when the
    caller has it (verify's sigma_max of tau), else norm_lower_bound(tau).  A
    float for a single H, the (k,) array of residuals for a (k, n, n) stack."""
    H = as_square_matrix(H, stack=True)
    tau = as_square_matrix(tau, stack=True)
    h_norm = norm_lower_bound(H) if h_norm is None else h_norm
    tau_norm = norm_lower_bound(tau) if tau_norm is None else tau_norm
    return ratio(ratio(frobenius_norm(H @ tau - tau @ H.conj()), h_norm), tau_norm)


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
