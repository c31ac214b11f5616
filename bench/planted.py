"""Constructive planted inputs for the benchmark.

Every matrix is H = S diag(lam) S^{-1} with S = U diag(sigma) W, U and W
Haar-random unitaries and sigma log-spaced from 1 to kappa, so cond_2(S) is
kappa exactly and the spectrum is lam exactly.  Nothing is rejection-sampled,
so generation terminates at every dimension, and the inputs depend only on
the seed passed in, never on the package's own generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REAL = "real"
PAIRS = "pairs"

# The class a correct classifier reports for each planted spectrum.
PLANTED_CLASS = {REAL: "QuasiHermitian", PAIRS: "PseudoHermitianOnly"}


@dataclass(frozen=True)
class Planted:
    """A planted input and the ground truth it was built from."""

    kind: str             # REAL or PAIRS
    H: np.ndarray
    eigenvalues: np.ndarray
    n_real: int
    n_pairs: int
    kappa: float          # cond_2 of the similarity S

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def expected_class(self) -> str:
        return PLANTED_CLASS[self.kind]

    @property
    def signature(self) -> tuple[int, int]:
        """Sylvester count of the metric the CLI builds for this class:
        (n, 0) for eta_+, (n_real + n_pairs, n_pairs) for the general eta."""
        return (self.n_real + self.n_pairs, self.n_pairs)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phases fixed."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def planted_similarity(rng: np.random.Generator, n: int, kappa: float) -> np.ndarray:
    """S = U diag(sigma) W with singular values log-spaced on [1, kappa]."""
    sigma = np.logspace(0.0, np.log10(kappa), n)
    return (haar_unitary(rng, n) * sigma) @ haar_unitary(rng, n)


def spaced_reals(rng: np.random.Generator, count: int) -> np.ndarray:
    """count values in [-1, 1], one per equal cell and away from its edges,
    so neighbouring values are at least half a cell apart."""
    cell = 2.0 / count
    offsets = rng.uniform(0.25, 0.75, size=count)
    return -1.0 + cell * (np.arange(count) + offsets)


def planted_spectrum(rng: np.random.Generator, n: int, kind: str):
    """(eigenvalues, n_real, n_pairs) for a planted real or paired spectrum.

    A paired spectrum holds n // 4 conjugate pairs with |Im| in [0.1, 1] and
    real fill.  Every eigenvalue gets its own real-part cell, and pair
    partners differ by at least 0.2 in the imaginary part, so eigenvalues
    stay at least half a cell apart.
    """
    if kind == REAL:
        return spaced_reals(rng, n).astype(complex), n, 0
    if kind != PAIRS:
        raise ValueError(f"unknown planted kind {kind!r}")
    if n < 2:
        raise ValueError("a conjugate pair needs n >= 2")
    n_pairs = max(1, n // 4)
    n_real = n - 2 * n_pairs
    centres = rng.permutation(spaced_reals(rng, n_real + n_pairs))
    im = rng.uniform(0.1, 1.0, size=n_pairs)
    pair_re = centres[:n_pairs]
    lam = np.concatenate([pair_re + 1j * im, pair_re - 1j * im,
                          centres[n_pairs:].astype(complex)])
    return lam, n_real, n_pairs


def planted_matrix(rng: np.random.Generator, n: int, kind: str, kappa: float) -> Planted:
    """Planted input of dimension n, class kind and cond(S) = kappa."""
    lam, n_real, n_pairs = planted_spectrum(rng, n, kind)
    S = planted_similarity(rng, n, kappa)
    H = (S * lam) @ np.linalg.inv(S)
    return Planted(kind=kind, H=H, eigenvalues=lam, n_real=n_real,
                   n_pairs=n_pairs, kappa=float(kappa))
