"""Test-operator generators with planted, known ground truth.

Every generator returns enough information to check the downstream
machinery against construction-time facts: planted spectra, planted
similarity transforms, closed-form eigenvalues.  generate builds the
matrices of one dimension as a (k, n, n) stack: each spec draws from its
own generator, bit-identical to default_rng(seed), as it would alone, and
every draw is built into its planted property, with no test and no redraw,
so each spec draws a fixed sequence.  The generators of a stack are seeded
in one array pass: numpy's SeedSequence hash, whose streams NEP 19 keeps
stable, runs on the uint32 words of all the seeds at once.  generate(spec)
is the k = 1 case; the suites draw their test vectors from the same
generators, right after the matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import dagger

KINDS = ("quasi", "pseudo_nonquasi", "hermitian", "defective")

# Smallest distance between two planted eigenvalues of quasi and pseudo_nonquasi.
GAP = 1e-3

# Largest cond_2 of a planted similarity S.
CONDITIONING_CAP = 1e3

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), on uint32 words.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R, XSHIFT = 0xCA01F9DD, 0x4973F715, 16


@dataclass(frozen=True)
class EnsembleSpec:
    """One member of a generated ensemble: (kind, dim, seed) pins the matrix."""

    dim: int
    seed: int
    kind: str = "quasi"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.dim < (2 if self.kind in ("pseudo_nonquasi", "defective") else 1):
            raise ValueError(f"dim {self.dim} is too small for kind {self.kind!r}")
        if self.kind in ("quasi", "pseudo_nonquasi") and (self.dim - 1) * GAP > 2.0:
            raise ValueError(f"dim {self.dim} eigenvalues {GAP:g} apart do not fit in [-1, 1]")


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


def _hasher(const, mult):
    """SeedSequence's hashmix on uint32 arrays, with its running hash constant:
    value ^= const, const *= mult, value *= const, value ^= value >> XSHIFT."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> XSHIFT
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    value = x * np.uint32(MIX_MULT_L) - y * np.uint32(MIX_MULT_R)
    return value ^ value >> XSHIFT


def _default_rngs(seeds):
    """default_rng(seed) for every seed, bit for bit, from one array pass: each
    SeedSequence(seed)'s entropy words (little-endian 32-bit digits), 4-word pool
    and generate_state(4, np.uint64) words, as rows of uint32 arithmetic over
    all seeds; PCG64 takes each row through a seed sequence that hands it back."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    seeds = [operator.index(seed) for seed in seeds]
    if min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    width = max(4, -(-max(seeds).bit_length() // 32))
    entropy = np.frombuffer(b"".join(seed.to_bytes(4 * width, "little") for seed in seeds),
                            dtype="<u4").reshape(-1, width).astype(np.uint32)
    hashmix = _hasher(INIT_A, MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(4)]   # words past a seed's own are 0
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    if width > 4:   # entropy past the pool, where a seed has it (seeds of 2^128 and up)
        words = np.array([-(-seed.bit_length() // 32) for seed in seeds])
        for src in range(4, width):
            for dst in range(4):
                mixed = _mix(pool[dst], hashmix(entropy[:, src]))
                pool[dst] = np.where(words > src, mixed, pool[dst])
    hashmix = _hasher(INIT_B, MULT_B)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=-1)
    state = state.astype("<u4").view("<u8").astype(np.uint64)   # word pairs, low word first
    return [Generator(PCG64(Words(row))) for row in state]


def _spaced(rngs, count):
    """Per generator, count uniforms on [-1, 1] conditioned on pairwise gaps >= GAP:
    draws on [-1, 1 - (count - 1) GAP], each raised by GAP times its rank."""
    top = 1.0 - max(count - 1, 0) * GAP
    u = np.array([rng.uniform(-1.0, top, size=count) for rng in rngs]).reshape(len(rngs), count)
    return u + GAP * np.argsort(np.argsort(u, axis=-1), axis=-1)


def _paired_spectra(rngs, dim):
    """Per generator: n_pairs >= 1 pairs (lambda, conj(lambda)), Im lambda >= 1e-2, and
    real fill; centres and fill are each _spaced, so all are >= GAP apart."""
    n_pairs = np.array([rng.integers(1, dim // 2 + 1) for rng in rngs], dtype=int)
    lam = np.empty((len(rngs), dim), dtype=complex)
    for p in np.unique(n_pairs):
        at = np.flatnonzero(n_pairs == p)
        re = _spaced(rngs[at], p)
        im = np.array([rng.uniform(1e-2, 1.0, size=p) for rng in rngs[at]])
        lam[at] = np.concatenate([re + 1j * im, re - 1j * im, _spaced(rngs[at], dim - 2 * p)],
                                 axis=-1)
    return lam


def _similar(rngs, lam):
    """(S diag(lam) S^{-1}, S) per row of lam: S is G / sqrt(2n), G Gaussian, with
    singular values floored at sigma_max / CONDITIONING_CAP, so cond_2(S) <=
    CONDITIONING_CAP keeps 1e-8 residual targets reachable; S = G where that holds."""
    k, n = lam.shape
    Z = np.array([rng.standard_normal((2, n, n)) for rng in rngs]).reshape(k, 2, n, n)
    S = (Z[:, 0] + 1j * Z[:, 1]) / np.sqrt(2 * n)   # one draw: X's numbers, then Y's
    sv = np.linalg.svd(S, compute_uv=False)
    over = np.flatnonzero(~(sv[:, 0] / sv[:, -1] <= CONDITIONING_CAP))
    U, sv, Wh = np.linalg.svd(S[over])
    S[over] = (U * np.maximum(sv, sv[:, :1] / CONDITIONING_CAP)[:, None, :]) @ Wh
    return (S * lam[:, None, :]) @ np.linalg.inv(S), S


def generate(specs):
    """The matrices of one EnsembleSpec, or the (k, n, n) stack of a sequence
    of specs of one dim, in spec order with kinds mixed.

    One spec returns (H, planted eigenvalues, S) for quasi and
    pseudo_nonquasi, H for hermitian and defective (a Jordan block with a
    random eigenvalue).  A sequence returns (H, planted eigenvalues, NaN in
    hermitian and defective rows, S of the quasi and pseudo_nonquasi specs,
    generators): each spec's default_rng(seed), seeded by _default_rngs, left
    just past the fixed draws of its matrix, so a caller draws on from the
    instance's one stream.  Each matrix of a stack equals its spec's alone.
    A Gaussian X + iY is one (2, n, n) draw: X's numbers, then Y's, as two
    draws give.
    """
    single = isinstance(specs, EnsembleSpec)
    specs = [specs] if single else list(specs)
    if not specs or len({spec.dim for spec in specs}) > 1:
        raise ValueError("generate takes one spec or a nonempty sequence of specs of one dim")
    n = specs[0].dim
    rngs = np.array(_default_rngs([spec.seed for spec in specs]))
    kinds = np.array([spec.kind for spec in specs])
    quasi, paired, hermitian, defective = (np.flatnonzero(kinds == kind) for kind in KINDS)
    similar = np.union1d(quasi, paired)
    lam = np.full((len(specs), n), np.nan, dtype=complex)
    lam[quasi] = np.sort(_spaced(rngs[quasi], n), axis=-1)
    lam[paired] = _paired_spectra(rngs[paired], n)
    H = np.empty((len(specs), n, n), dtype=complex)
    H[similar], S = _similar(rngs[similar], lam[similar])
    G = np.array([rng.standard_normal((2, n, n)) for rng in rngs[hermitian]]).reshape(-1, 2, n, n)
    G = G[:, 0] + 1j * G[:, 1]
    H[hermitian] = 0.5 * (G + dagger(G))
    for i in defective:
        H[i] = jordan_block(n, complex(rngs[i].uniform(-1, 1), rngs[i].uniform(-1, 1)))
    if single:
        return (H[0], lam[0], S[0]) if len(S) else H[0]
    return H, lam, S, rngs
