"""Free Klein-Gordon field on a periodic 1D lattice, spectral form.

The field ``[d_t^2 + D] psi = 0`` with D = -d_x^2 + m^2 (c = hbar = 1) is
stored per Fourier mode as positive/negative-frequency amplitudes, so time
evolution is an exact phase rotation and every inner product can be checked
against its mode-sum form.  The two-component (Feshbach-Villars) reduction

    phi = (psi + (i/m) d_t psi)/2,   chi = (psi - (i/m) d_t psi)/2

turns the field equation into i d_t Psi = H Psi with H = (sigma3 + i sigma2)
p^2/(2m) + m sigma3, Hermitian for the indefinite sigma3 block metric, with
spectrum +/- omega_k, omega_k = sqrt(k^2 + m^2).  fv_modes gives H as 2x2 mode
blocks with closed-form eigenpairs, fv_propagate applies e^{-iHt} with them in
O(N) as a check on evolve, and fv_hamiltonian is their dense oracle.

Conventions: mode amplitudes reconstruct the position-space field as
psi(x, t) = L^{-1/2} sum_k (a_k e^{-i omega_k t} + b_k e^{+i omega_k t})
e^{ikx}; discrete integrals carry the quadrature weight dx = L/N.  With
this normalization the positive-definite inner product reduces exactly to
(1/mu) sum_k omega_k (conj(a1) a2 + conj(b1) b2) and the Klein-Gordon one
to 2 sum_k omega_k (conj(a1) a2 - conj(b1) b2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InvalidGrid, TimeMismatch


@dataclass(frozen=True, eq=False)
class FourierGrid:
    """Periodic lattice of N sites on [0, L) with mass m and dispersion table.
    Grids compare by identity; compatible() compares their parameters."""

    N: int
    L: float
    m: float
    k: np.ndarray      # momenta 2*pi*j/L in FFT ordering
    omega: np.ndarray  # sqrt(k^2 + m^2), >= m

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.N) * self.dx

    def compatible(self, other: "FourierGrid") -> bool:
        return self.N == other.N and self.L == other.L and self.m == other.m


def make_grid(N: int, L: float, m: float) -> FourierGrid:
    """Build the lattice and its dispersion table omega_k = sqrt(k^2 + m^2)."""
    if int(N) != N or N < 2:
        raise InvalidGrid(f"need at least 2 sites, got N={N}")
    if not (L > 0):
        raise InvalidGrid(f"period must be positive, got L={L}")
    if not (m > 0):
        raise InvalidGrid(f"mass must be positive, got m={m} (massless excluded)")
    N = int(N)
    with np.errstate(all="ignore"):   # fv_modes squares entries up to 2 (omega_k + k^2/m)
        k = 2 * np.pi * np.fft.fftfreq(N, d=np.float64(L) / N)   # L/N may underflow to 0
        omega = np.sqrt(k**2 + np.float64(m) ** 2)
        if not (omega[0] > 0 and np.isfinite(np.max(2 * (omega + k**2 / m)) ** 2)):
            raise InvalidGrid(f"dispersion of N={N}, L={L}, m={m} is not representable")
    return FourierGrid(N=N, L=float(L), m=float(m), k=k, omega=omega)


@dataclass(frozen=True, eq=False)
class KGState:
    """Klein-Gordon field as per-mode frequency amplitudes at time t.

    a_k multiplies e^{-i omega_k t} (positive frequency), b_k multiplies
    e^{+i omega_k t} (negative frequency).  a and b share a shape (..., N):
    (N,) is one state, leading axes stack states on one grid at one time t.
    The mode values and position fields are computed once per state and
    returned read-only, so a and b must not be mutated in place: build a new
    state (evolve, sector_decompose, dataclasses.replace) instead.  States
    compare and hash by identity.
    """

    grid: FourierGrid
    a: np.ndarray
    b: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.a.shape != self.b.shape or self.a.shape[-1:] != (self.grid.N,):
            raise ValueError("amplitude arrays must have the same shape (..., N)")

    @cached_property
    def _modes(self):
        """Instantaneous mode coefficients (A_k, dA_k/dt) at time t (last axis k)."""
        w = self.grid.omega
        phase = np.exp(-1j * w * self.t)       # e^{+i omega t} is its conjugate
        a_term, b_term = self.a * phase, self.b * phase.conj()
        A = a_term + b_term
        a_term -= b_term       # a_term becomes dA/dt in place
        a_term *= -1j * w
        return _read_only(A, a_term)

    @cached_property
    def _fields(self):
        """(psi(x), d_t psi(x)) on the lattice at time t (last axis x)."""
        return _read_only(*(_synthesize(self.grid, c) for c in self._modes))


def _read_only(*arrays):
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _synthesize(grid: FourierGrid, coeffs: np.ndarray) -> np.ndarray:
    """Lattice samples L^{-1/2} sum_k c_k e^{ikx} of per-mode coefficients."""
    samples = np.fft.ifft(coeffs, norm="forward")
    samples *= 1 / np.sqrt(grid.L)
    return samples


def random_state(grid: FourierGrid, seed=None, rng=None, size=()) -> KGState:
    """State with standard complex Gaussian amplitudes (for sampling checks);
    size (int or shape) stacks that many successive single draws, row-major."""
    if rng is None:
        rng = np.random.default_rng(seed)
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    z = rng.standard_normal((*shape, 4, grid.N))
    a, b = np.empty((2, *shape, grid.N), dtype=complex)
    a.real, a.imag, b.real, b.imag = (z[..., j, :] for j in range(4))
    return KGState(grid=grid, a=a, b=b, t=0.0)


def _check_same_frame(s1: KGState, s2: KGState):
    if not s1.grid.compatible(s2.grid):
        raise GridMismatch("states live on different grids")
    if abs(s1.t - s2.t) > 1e-12 * (1.0 + max(abs(s1.t), abs(s2.t))):
        raise TimeMismatch(f"states at different times {s1.t} vs {s2.t}")


def position_fields(state: KGState):
    """Samples (psi(x), d_t psi(x)) on the lattice at the state's time (last axis x);
    read-only arrays, computed once per state."""
    return state._fields


def d_power(grid: FourierGrid, s: float, field: np.ndarray) -> np.ndarray:
    """Apply D^s = (-d_x^2 + m^2)^s to per-mode coefficients (last axis).

    Diagonal functional calculus: mode k is multiplied by (k^2 + m^2)^s,
    well-defined for any real s since m > 0.
    """
    field = np.asarray(field, dtype=complex)
    if field.shape[-1:] != (grid.N,):
        raise ValueError(f"field must have length {grid.N} on its last axis")
    return (grid.k**2 + grid.m**2) ** s * field


def fv_hamiltonian(grid: FourierGrid) -> np.ndarray:
    """Two-component Hamiltonian (2N x 2N) in the Fourier basis, dense.

    H = (sigma3 + i sigma2) x p^2/(2m) + m (sigma3 x 1) with p^2 = diag(k^2);
    block layout [[T + m, T], [-T, -T - m]] with T = diag(k^2/(2m)).
    sigma3 x 1 intertwines H with its adjoint exactly, and the eigenvalues
    come in +/- omega_k pairs.  The dense oracle of fv_modes.
    """
    T = np.diag(grid.k**2 / (2 * grid.m)).astype(complex)
    mI = grid.m * np.eye(grid.N, dtype=complex)
    return np.block([[T + mI, T], [-T, -T - mI]])


@dataclass(frozen=True, eq=False)
class FVModes:
    """fv_hamiltonian as (N, ...) stacks of its 2x2 mode blocks; block k acts
    on (phi_k, chi_k), rows and columns (k, N + k) of the dense matrix.  The
    positive metric Phi Phi^dag is not stored: its blocks are left left^dag."""

    blocks: np.ndarray        # (N, 2, 2) h_k = [[t + m, t], [-t, -t - m]], t = k^2/(2m)
    eigenvalues: np.ndarray   # (N, 2) (+omega_k, -omega_k)
    right: np.ndarray         # (N, 2, 2) columns psi_+ = (c, -t), psi_- = (-t, c)
    left: np.ndarray          # (N, 2, 2) right^{-dag} = [[c, t], [t, c]] / (c^2 - t^2)


def fv_modes(grid: FourierGrid) -> FVModes:
    """Closed-form eigensystem of every mode block, all entries real: tr h_k = 0
    and det h_k = -omega_k^2 give +/- omega_k; c = omega_k + t + m >= 2m keeps
    both eigenvectors nonzero at k = 0, and c^2 - t^2 = (omega_k + m)(c + t)."""
    m, w = grid.m, grid.omega
    t = grid.k**2 / (2 * m)
    c = w + t + m
    return FVModes(blocks=np.array([[t + m, t], [-t, -t - m]]).transpose(2, 0, 1),
                   eigenvalues=np.stack([w, -w], axis=-1),
                   right=np.array([[c, -t], [-t, c]]).transpose(2, 0, 1),
                   left=(np.array([[c, t], [t, c]]) / ((w + m) * (c + t))).transpose(2, 0, 1))


def sigma3_metric(grid: FourierGrid) -> np.ndarray:
    """The indefinite block metric sigma3 x identity on the two-component space."""
    return np.diag(np.repeat([1.0, -1.0], grid.N)).astype(complex)


def fv_components(state: KGState) -> np.ndarray:
    """Two-component Fourier coefficients (phi_k, chi_k) of the state.

    Satisfies i d_t Psi = fv_hamiltonian(grid) Psi along the exact evolution.
    """
    A, Adot = state._modes
    phi = 0.5 * (A + 1j * Adot / state.grid.m)
    chi = 0.5 * (A - 1j * Adot / state.grid.m)
    return np.concatenate([phi, chi], axis=-1)


def fv_propagate(modes: FVModes, components: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} on fv_components output (..., 2N), block by block as e^{-i h_k t}."""
    w = modes.eigenvalues[:, :1, None]   # h_k^2 = omega_k^2 I, so e^{-i h_k t} is linear in h_k
    u = (np.cos(w * t) * np.eye(2) - 1j * np.sin(w * t) / w * modes.blocks).transpose(1, 2, 0)
    phi, chi = np.split(components, 2, axis=-1)
    return np.concatenate([u[0, 0] * phi + u[0, 1] * chi, u[1, 0] * phi + u[1, 1] * chi], axis=-1)


def evolve(state: KGState, dt: float) -> KGState:
    """Exact evolution: amplitudes are constants of motion, only t advances.

    The reconstruction phases e^{-/+ i omega_k t} carry the dynamics, so
    evolve(dt1) then evolve(dt2) equals evolve(dt1 + dt2) exactly.
    """
    return replace(state, t=state.t + dt)


def pd_inner(psi1: KGState, psi2: KGState, mu: float | None = None) -> complex | np.ndarray:
    """Positive-definite inner product of two fields at equal time.

    Discrete form of (1/2 mu) * integral of
    [psi1^* D^{1/2} psi2 + d_t psi1^* D^{-1/2} d_t psi2] with dx = L/N;
    mu > 0 only sets the overall scale and defaults to the mass.  Equals
    (1/mu) sum_k omega_k (conj(a1) a2 + conj(b1) b2), hence conserved and
    positive-definite on nonzero states.
    Stacks (..., N) pair elementwise: one pair gives a complex, stacks an
    ndarray of the (broadcast) leading shape.  D^{+/-1/2} acts on psi2's
    mode values, which are its fields' Fourier coefficients up to N/sqrt(L);
    the 1/sqrt(L) of their synthesis is folded into the final scalar.
    """
    _check_same_frame(psi1, psi2)
    grid = psi1.grid
    if mu is None:
        mu = grid.m
    if not (mu > 0):
        raise ValueError("mu must be positive")
    f1, g1 = position_fields(psi1)
    A2, Adot2 = psi2._modes
    half = np.fft.ifft(d_power(grid, 0.5, A2), norm="forward")
    minus_half = np.fft.ifft(d_power(grid, -0.5, Adot2), norm="forward")
    total = np.vecdot(f1, half) + np.vecdot(g1, minus_half)
    total = total * (grid.dx / (2 * mu * np.sqrt(grid.L)))
    return complex(total) if np.ndim(total) == 0 else total


def kg_inner(psi1: KGState, psi2: KGState) -> complex | np.ndarray:
    """Conserved indefinite (Klein-Gordon) inner product at equal time.

    i * integral of [psi1^* d_t psi2 - (d_t psi1)^* psi2] with dx = L/N;
    the sesquilinear form Hermitian for the sigma3 block metric.  Equals
    2 sum_k omega_k (conj(a1) a2 - conj(b1) b2): positive on pure
    positive-frequency states, negative on pure negative-frequency ones,
    and zero on the mixed null vectors that witness indefiniteness.
    Shapes and return type as in pd_inner.
    """
    _check_same_frame(psi1, psi2)
    grid = psi1.grid
    f1, g1 = position_fields(psi1)
    f2, g2 = position_fields(psi2)
    total = 1j * grid.dx * (np.vecdot(f1, g2) - np.vecdot(g1, f2))
    return complex(total) if np.ndim(total) == 0 else total


def sector_decompose(state: KGState) -> tuple[KGState, KGState]:
    """Split into (positive-frequency part, negative-frequency part).

    The parts sum to the state, pd_inner is additive across them, and
    kg_inner is >= 0 on the positive part and <= 0 on the negative part.
    """
    zero = np.zeros_like(state.a)
    positive = replace(state, a=state.a.copy(), b=zero)
    negative = replace(state, a=zero.copy(), b=state.b.copy())
    return positive, negative
