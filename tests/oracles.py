"""Independent reference computations the tests check the package against.

Everything here is deliberately implemented through a different route than
the package: closed-form eigenvalue formulas instead of eigensolvers, direct
position-space quadrature sums instead of FFTs, explicit two-component
eigenvectors instead of numerical diagonalization.
"""

import cmath

import numpy as np

import pseudoherm.models as models


def pt2x2_eigenvalues(r, theta, s):
    """Closed form for [[r e^{i th}, s], [s, r e^{-i th}]]:
    r cos(theta) +/- sqrt(s^2 - r^2 sin^2 theta)."""
    root = cmath.sqrt(s**2 - (r * cmath.sin(theta)) ** 2)
    base = r * cmath.cos(theta)
    return base + root, base - root


def block_diag(*blocks):
    """Direct-sum embedding of square blocks."""
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def spectra_mismatch(got, expected):
    """Greedy multiset matching distance between two spectra (max |diff|)."""
    remaining = list(np.asarray(expected, dtype=complex))
    worst = 0.0
    for lam in np.asarray(got, dtype=complex):
        best = min(remaining, key=lambda mu: abs(mu - lam))
        remaining.remove(best)
        worst = max(worst, abs(best - lam))
    return worst


def signature_by_eigenvalues(eta):
    """Sylvester count of positive/negative eigenvalues, straight eigvalsh."""
    evals = np.linalg.eigvalsh(0.5 * (eta + eta.conj().T))
    return int(np.sum(evals > 0)), int(np.sum(evals < 0))


def gram_deviation(S):
    """max |phi_m^dag psi_n - delta_mn| of a Spectrum, the biorthonormality
    defect; a stacked Spectrum gives one per matrix."""
    G = np.swapaxes(S.left.conj(), -1, -2) @ S.right
    return np.max(np.abs(G - np.eye(S.dim)), axis=(-2, -1))


def reconstruct(S):
    """sum_n lambda_n psi_n phi_n^dag of a Spectrum (stacks allowed); equals
    the original matrix when diag_score is moderate."""
    return (S.right * S.eigenvalues[..., None, :]) @ np.swapaxes(S.left.conj(), -1, -2)


# ---------------------------------------------------------------------------
# direct (no-FFT) lattice quadrature

def direct_fields(state):
    """psi and d_t psi on the lattice via explicit plane-wave sums."""
    grid = state.grid
    x = grid.x
    w = grid.omega
    ep = np.exp(-1j * w * state.t)
    em = np.exp(+1j * w * state.t)
    A = state.a * ep + state.b * em
    Adot = -1j * w * (state.a * ep - state.b * em)
    # phases[j, n] = e^{i k_n x_j} / sqrt(L)
    phases = np.exp(1j * np.outer(x, grid.k)) / np.sqrt(grid.L)
    return phases @ A, phases @ Adot


def direct_apply_dpow(grid, s, samples):
    """D^s by quadrature projection onto orthonormal plane waves.

    c_k = dx * sum_j conj(e_k(x_j)) f(x_j) with e_k = e^{ikx}/sqrt(L); then
    resum with (k^2+m^2)^s weights.
    """
    x = grid.x
    basis = np.exp(1j * np.outer(x, grid.k)) / np.sqrt(grid.L)
    coeff = grid.dx * (basis.conj().T @ samples)
    return basis @ ((grid.k**2 + grid.m**2) ** s * coeff)


def quadrature_pd_inner(state1, state2, mu):
    """(1/2mu) * dx-weighted sum of psi1* D^{1/2} psi2 + psidot1* D^{-1/2} psidot2."""
    grid = state1.grid
    f1, g1 = direct_fields(state1)
    f2, g2 = direct_fields(state2)
    total = np.sum(np.conj(f1) * direct_apply_dpow(grid, 0.5, f2))
    total += np.sum(np.conj(g1) * direct_apply_dpow(grid, -0.5, g2))
    return complex(total * grid.dx / (2 * mu))


def quadrature_kg_inner(state1, state2):
    """i * dx-weighted sum of psi1* d_t psi2 - (d_t psi1)* psi2."""
    grid = state1.grid
    f1, g1 = direct_fields(state1)
    f2, g2 = direct_fields(state2)
    return complex(1j * grid.dx * (np.sum(np.conj(f1) * g2) - np.sum(np.conj(g1) * f2)))


def mode_sum_pd(state1, state2, mu):
    """(1/mu) sum_k omega_k (conj(a1) a2 + conj(b1) b2)."""
    w = state1.grid.omega
    return complex(np.sum(w * (np.conj(state1.a) * state2.a
                               + np.conj(state1.b) * state2.b)) / mu)


def mode_sum_kg(state1, state2):
    """2 sum_k omega_k (conj(a1) a2 - conj(b1) b2)."""
    w = state1.grid.omega
    return complex(2 * np.sum(w * (np.conj(state1.a) * state2.a
                                   - np.conj(state1.b) * state2.b)))


# ---------------------------------------------------------------------------
# closed-form two-component eigenvectors

def fv_mode_eigenvectors(omega, m):
    """Unnormalized eigenvectors of [[d+m, d], [-d, -d-m]] (d = (w^2-m^2)/2m):
    (1 + w/m, 1 - w/m)/2 for +w and (1 - w/m, 1 + w/m)/2 for -w."""
    plus = np.array([1 + omega / m, 1 - omega / m]) / 2
    minus = np.array([1 - omega / m, 1 + omega / m]) / 2
    return plus, minus


def fv_sign_table(grid):
    """Expected sigma3-norm sign for each energy sector: + for +omega, - for -omega."""
    signs = {}
    for w in grid.omega:
        plus, minus = fv_mode_eigenvectors(w, grid.m)
        signs[w] = (np.sign(abs(plus[0]) ** 2 - abs(plus[1]) ** 2),
                    np.sign(abs(minus[0]) ** 2 - abs(minus[1]) ** 2))
    return signs


def dense_propagator(H, t):
    """e^{-iHt} of a dense diagonalizable H from np.linalg.eig: V e^{-i lam t} V^{-1}."""
    lam, V = np.linalg.eig(H)
    return (V * np.exp(-1j * lam * t)) @ np.linalg.inv(V)


# The propagator deviations (kleingordon.fv_propagate against the exact
# evolution or the dense e^{-iHt}, relative to the largest component) on the
# m = 1 grids of the tests and the kg command stay below
# c * eps * (1 + omega_max |t|): the phase omega t carries eps * omega t of
# roundoff.  Measured worst ratios to eps * (1 + omega_max |t|) on L = 20 pi,
# m = 1: 3.8 for the dense oracle (N = 64, t = 10, 8 seeds); 0.09 for the kg
# report's basis check over N = 8 to 4096 at t_final = 10; 1.9 for one
# checkpoint alone (N = 4096, t = 0.3).  So c = 10.
PROPAGATOR_C = 10


def propagator_bound(grid, t):
    return PROPAGATOR_C * np.finfo(float).eps * (1 + grid.omega.max() * abs(t))


# ---------------------------------------------------------------------------
# per-instance ensemble samplers

# A frozen copy of the per-instance rejection samplers that models.generate
# replaced by constructive draws.  Each draws from its own default_rng(seed),
# spectrum attempts first, then similarity attempts; redraws counts the
# rejected attempts per (kind, stage), so a test can tell the specs whose
# first attempt was accepted, whose draws generate keeps.

def _random_similarity(rng, dim, redraws, kind):
    while True:
        S = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        S /= np.sqrt(2 * dim)
        if np.linalg.cond(S, 2) <= models.CONDITIONING_CAP:   # read at call time
            return S
        redraws[kind, "similarity"] += 1


def _gap_separated_reals(rng, count, redraws, kind, gap=1e-3):
    while True:
        vals = rng.uniform(-1.0, 1.0, size=count)
        if count < 2 or np.min(np.diff(np.sort(vals))) >= gap:
            return vals
        redraws[kind, "gaps"] += 1


def random_quasi(spec, redraws):
    rng = np.random.default_rng(spec.seed)
    lam = np.sort(_gap_separated_reals(rng, spec.dim, redraws, "quasi"))
    S = _random_similarity(rng, spec.dim, redraws, "quasi")
    H = (S * lam) @ np.linalg.inv(S)
    return H, lam.astype(complex), S


def random_pseudo_nonquasi(spec, redraws):
    dim = spec.dim
    rng = np.random.default_rng(spec.seed)
    n_pairs = int(rng.integers(1, dim // 2 + 1))
    while True:
        re = rng.uniform(-1.0, 1.0, size=n_pairs)
        im = rng.uniform(1e-2, 1.0, size=n_pairs)
        pairs = np.concatenate([re + 1j * im, re - 1j * im])
        reals = _gap_separated_reals(rng, dim - 2 * n_pairs, redraws,
                                     "pseudo_nonquasi").astype(complex)
        lam = np.concatenate([pairs, reals])
        dist = np.abs(lam[:, None] - lam[None, :]) + np.eye(dim)
        if dist.min() >= 1e-3:
            break
        redraws["pseudo_nonquasi", "distances"] += 1
    S = _random_similarity(rng, dim, redraws, "pseudo_nonquasi")
    H = (S * lam) @ np.linalg.inv(S)
    return H, lam, S


def random_hermitian(spec):
    rng = np.random.default_rng(spec.seed)
    G = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal((spec.dim, spec.dim))
    return 0.5 * (G + G.conj().T)


def random_defective(spec):
    rng = np.random.default_rng(spec.seed)
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return lam * np.eye(spec.dim, dtype=complex) + np.eye(spec.dim, k=1, dtype=complex)


def sample_instance(spec, redraws):
    """The per-instance generator of spec.kind: (H, planted eigenvalues, S)
    for quasi and pseudo_nonquasi, H for hermitian and defective."""
    if spec.kind == "quasi":
        return random_quasi(spec, redraws)
    if spec.kind == "pseudo_nonquasi":
        return random_pseudo_nonquasi(spec, redraws)
    if spec.kind == "hermitian":
        return random_hermitian(spec)
    return random_defective(spec)


def svd_capped_similar(rngs, lam):
    """A frozen copy of models._similar before ||S||_F ||S^-1||_F screened the
    cap: a value-only SVD of every S decides it, and S is inverted after the floor."""
    k, n = lam.shape
    Z = np.array([rng.standard_normal((2, n, n)) for rng in rngs]).reshape(k, 2, n, n)
    S = (Z[:, 0] + 1j * Z[:, 1]) / np.sqrt(2 * n)
    cap = models.CONDITIONING_CAP   # read at call time
    sv = np.linalg.svd(S, compute_uv=False)
    over = np.flatnonzero(~(sv[:, 0] / sv[:, -1] <= cap))
    U, sv, Wh = np.linalg.svd(S[over])
    S[over] = (U * np.maximum(sv, sv[:, :1] / cap)[:, None, :]) @ Wh
    return (S * lam[:, None, :]) @ np.linalg.inv(S), S


# ---------------------------------------------------------------------------
# greedy conjugate pairing

def greedy_pairing(w, tol):
    """A frozen copy of the greedy loop metrics.pair_spectrum replaced, as the
    partner permutation: eigenvalues with |Im| <= tol*(1+|lambda|), their
    band, are real; the others with Im > 0, largest |Im| first, each take the
    nearest remaining conj(lambda) among those with Im < 0, when it lies
    within the sum of the two bands.  Returns the permutation, or the
    eigenvalue left unpaired as a complex."""
    w = np.asarray(w, dtype=complex)
    upper, lower = [], []
    for n, lam in enumerate(w.tolist()):
        if abs(lam.imag) <= tol * (1.0 + abs(lam)):
            continue
        (upper if lam.imag > 0 else lower).append(n)
    p = np.arange(len(w))
    remaining = list(lower)
    for n in sorted(upper, key=lambda i: -abs(w[i].imag)):
        if not remaining:
            return complex(w[n])
        target = np.conj(w[n])
        best = min(remaining, key=lambda j: abs(w[j] - target))
        if abs(w[best] - target) > tol * (1.0 + abs(w[n])) + tol * (1.0 + abs(w[best])):
            return complex(w[n])
        remaining.remove(best)
        p[n], p[best] = best, n
    if remaining:
        return complex(w[remaining[0]])
    return p


# ---------------------------------------------------------------------------
# planted inputs of known conditioning

def _haar(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def planted(rng, n, kind, kappa):
    """H = S diag(lam) S^-1 with S = U diag(sigma) W, U and W Haar unitaries and
    sigma log-spaced on [1, kappa], so cond_2(S) = kappa; the benchmark's
    planted construction, drawn in the same order.  kind "real" plants n
    reals in [-1, 1], one per equal cell; "pairs" puts max(1, n // 4)
    conjugate pairs, |Im| in [0.1, 1], among them.  Returns (H, lam)."""
    def spaced(count):
        return -1.0 + 2.0 / count * (np.arange(count) + rng.uniform(0.25, 0.75, size=count))
    if kind == "real":
        lam = spaced(n).astype(complex)
    else:
        pairs = max(1, n // 4)
        centres = rng.permutation(spaced(n - pairs))
        im = rng.uniform(0.1, 1.0, size=pairs)
        lam = np.concatenate([centres[:pairs] + 1j * im, centres[:pairs] - 1j * im,
                              centres[pairs:]])
    S = (_haar(rng, n) * np.logspace(0.0, np.log10(kappa), n)) @ _haar(rng, n)
    return (S * lam) @ np.linalg.inv(S), lam


# ---------------------------------------------------------------------------
# norm helpers

# A frozen copy of the norm helpers before _unit_scale took its peak in one
# pass and norm_lower_bound's last growth dropped its two frobenius_norm
# rescalings; the package's helpers must agree with these bit for bit.

def unit_scale(A):
    A = np.ascontiguousarray(A, dtype=complex)
    peak = np.maximum(np.max(np.abs(A.real), axis=(-2, -1), initial=0.0),
                      np.max(np.abs(A.imag), axis=(-2, -1), initial=0.0))
    e = np.frexp(peak)[1]
    return e, np.ldexp(A.view(float), -e[..., None, None]).view(complex)


def frobenius_norm(A):
    e, B = unit_scale(A)
    flat = B.reshape(B.shape[:-2] + (B.shape[-2] * B.shape[-1],))
    return np.ldexp(np.sqrt(np.vecdot(flat, flat).real), e)


def norm_lower_bound(A, steps=8):
    e, B = unit_scale(A)
    columns = np.sqrt(np.vecdot(B, B, axis=-2).real)
    top = np.max(columns, axis=-1, initial=0.0)
    if B.shape[-1]:
        v = np.take_along_axis(B, np.argmax(columns, axis=-1)[..., None, None], axis=-1)
        for op in (np.swapaxes(B.conj(), -1, -2), B) * steps:
            last, v = v, op @ v
        num, den = frobenius_norm(v), frobenius_norm(last)
        growth = np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0.0)
        top = np.maximum(top, growth)
    bound = np.ldexp(top, e)
    return float(bound) if bound.ndim == 0 else bound
