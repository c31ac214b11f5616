"""Test-operator generators with planted, known ground truth.

Every generator returns enough information to check the downstream
machinery against construction-time facts: planted spectra, planted
similarity transforms, closed-form eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("quasi", "pseudo_nonquasi", "hermitian", "defective")


@dataclass(frozen=True)
class EnsembleSpec:
    """One member of a generated ensemble: (kind, dim, seed) pins the matrix."""

    dim: int
    seed: int
    kind: str = "quasi"
    conditioning_cap: float = 1e3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")


def pt2x2(r: float, theta: float, s: float) -> np.ndarray:
    """2x2 matrix [[r e^{i theta}, s], [s, r e^{-i theta}]].

    Invariant under the combined swap+conjugation symmetry; eigenvalues are
    r cos(theta) +/- sqrt(s^2 - r^2 sin^2 theta), so the spectrum is real
    iff s^2 >= r^2 sin^2 theta.  The closed form is the oracle for the
    classification threshold tests.
    """
    return np.array([[r * np.exp(1j * theta), s],
                     [s, r * np.exp(-1j * theta)]], dtype=complex)


def jordan_block(n: int, lam: complex) -> np.ndarray:
    """Standard upper Jordan block: defective for n >= 2."""
    if n < 2:
        raise ValueError("jordan_block needs n >= 2")
    return lam * np.eye(n, dtype=complex) + np.eye(n, k=1, dtype=complex)


def _spec_args(spec_or_dim, seed, conditioning_cap):
    if isinstance(spec_or_dim, EnsembleSpec):
        return spec_or_dim.dim, spec_or_dim.seed, spec_or_dim.conditioning_cap
    dim = int(spec_or_dim)
    return dim, (0 if seed is None else int(seed)), conditioning_cap


def _random_similarity(rng, dim, conditioning_cap):
    # Rejection keeps the planted conditioning under the cap so 1e-8 residual
    # targets stay reachable at double precision.
    while True:
        S = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        S /= np.sqrt(2 * dim)
        if np.linalg.cond(S, 2) <= conditioning_cap:
            return S


def _gap_separated_reals(rng, count, gap=1e-3):
    while True:
        vals = rng.uniform(-1.0, 1.0, size=count)
        if count < 2 or np.min(np.diff(np.sort(vals))) >= gap:
            return vals


def random_quasi(spec_or_dim, seed=None, conditioning_cap=1e3):
    """Quasi-Hermitian instance H = S Lambda S^{-1} with planted real spectrum.

    Returns (H, planted eigenvalues, planted similarity S).  Eigenvalues are
    uniform on [-1, 1] with pairwise gaps >= 1e-3; the similarity has
    condition number <= conditioning_cap.  Accepts either an EnsembleSpec or
    a plain dimension plus seed.
    """
    dim, seed, cap = _spec_args(spec_or_dim, seed, conditioning_cap)
    rng = np.random.default_rng(seed)
    lam = np.sort(_gap_separated_reals(rng, dim))
    S = _random_similarity(rng, dim, cap)
    H = (S * lam) @ np.linalg.inv(S)
    return H, lam.astype(complex), S


def random_pseudo_nonquasi(spec_or_dim, seed=None, conditioning_cap=1e3):
    """Pseudo- but not quasi-Hermitian instance: planted conjugate pairs.

    The planted spectrum holds at least one pair (lambda, conj(lambda)) with
    Im lambda >= 1e-2, plus real fill; H is built by the same capped
    similarity as random_quasi.  Returns (H, planted eigenvalues, S).
    """
    dim, seed, cap = _spec_args(spec_or_dim, seed, conditioning_cap)
    if dim < 2:
        raise ValueError("need dim >= 2 for a conjugate pair")
    rng = np.random.default_rng(seed)
    n_pairs = int(rng.integers(1, dim // 2 + 1))
    while True:
        re = rng.uniform(-1.0, 1.0, size=n_pairs)
        im = rng.uniform(1e-2, 1.0, size=n_pairs)
        pairs = np.concatenate([re + 1j * im, re - 1j * im])
        reals = _gap_separated_reals(rng, dim - 2 * n_pairs).astype(complex)
        lam = np.concatenate([pairs, reals])
        dist = np.abs(lam[:, None] - lam[None, :]) + np.eye(dim)
        if dist.min() >= 1e-3:
            break
    S = _random_similarity(rng, dim, cap)
    H = (S * lam) @ np.linalg.inv(S)
    return H, lam, S


def random_hermitian(spec_or_dim, seed=None):
    """Hermitian control instance (complex Gaussian, symmetrized)."""
    dim, seed, _ = _spec_args(spec_or_dim, seed, None)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (G + G.conj().T)


def random_defective(spec_or_dim, seed=None):
    """Defective control instance: a Jordan block with a random eigenvalue."""
    dim, seed, _ = _spec_args(spec_or_dim, seed, None)
    if dim < 2:
        raise ValueError("defective instances need dim >= 2")
    rng = np.random.default_rng(seed)
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return jordan_block(dim, lam)


def generate(spec: EnsembleSpec):
    """Dispatch on spec.kind; returns the matrix (plus plantation for the
    similarity-built kinds)."""
    if spec.kind == "quasi":
        return random_quasi(spec)
    if spec.kind == "pseudo_nonquasi":
        return random_pseudo_nonquasi(spec)
    if spec.kind == "hermitian":
        return random_hermitian(spec)
    return random_defective(spec)
