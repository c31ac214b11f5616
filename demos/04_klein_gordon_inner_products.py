"""Two inner products on lattice Klein-Gordon fields.

The free field [d_t^2 + D] psi = 0 (D = -d_x^2 + m^2) becomes, in
two-component form, a Schrodinger equation whose Hamiltonian is Hermitian
for the indefinite sigma3 block metric.  The classical conserved current
gives the indefinite Klein-Gordon inner product; the positive metric route
gives a conserved positive-definite one.  Both are evaluated here on exact
spectral solutions, so conservation holds to roundoff, even at a wrong time.
The per-mode propagator e^{-i h_k t} checks the time itself.
"""

import numpy as np

from pseudoherm import (
    KGState,
    classify,
    evolve,
    fv_components,
    fv_hamiltonian,
    fv_modes,
    fv_propagate,
    kg_inner,
    make_grid,
    pd_inner,
    random_state,
    sector_decompose,
    sigma3_metric,
    verify_intertwining,
)

print(__doc__)

grid = make_grid(64, 20 * np.pi, 1.0)
H = fv_hamiltonian(grid)
print(f"Lattice: N = {grid.N}, L = {grid.L:.3f}, m = {grid.m}")
print(f"    omega range [{grid.omega.min():.3f}, {grid.omega.max():.3f}]")
print(f"    sigma3 intertwining residual : {verify_intertwining(H, sigma3_metric(grid)):.2e}")
print(f"    classification of H          : {classify(H).kind.value}")
print()

state = random_state(grid, seed=1)
pd0 = pd_inner(state, state)
kg0 = kg_inner(state, state)
print("Random field, both inner products along the exact evolution:")
print(f"    {'t':>5}   {'positive-definite':>20}   {'Klein-Gordon':>16}")
for t in (0.0, 2.5, 5.0, 7.5, 10.0):
    moved = evolve(state, t)
    print(f"    {t:5.1f}   {pd_inner(moved, moved).real:20.12f}   "
          f"{kg_inner(moved, moved).real:16.12f}")
print(f"    drift: pd {abs(pd_inner(moved, moved) - pd0):.2e}, "
      f"kg {abs(kg_inner(moved, moved) - kg0):.2e}")
print()

print("Both drifts stay at roundoff for a state evolved to the wrong time; the")
print("two-component propagator e^{-i h_k t} = cos(w t) I - i sin(w t) h_k / w")
print("(one 2x2 block per mode) does not:")
modes, start = fv_modes(grid), fv_components(state)
for label, t_evolved in (("right t = 10", 10.0), ("wrong t = 10.01", 10.01)):
    moved = evolve(state, t_evolved)
    gap = np.max(np.abs(fv_components(moved) - fv_propagate(modes, start, 10.0)))
    print(f"    {label:16}: propagator deviation {gap / np.max(np.abs(start)):.2e}, "
          f"pd drift {abs(pd_inner(moved, moved) - pd0):.2e}")
print()

print("The Klein-Gordon form is indefinite; the frequency sectors show it:")
pos, neg = sector_decompose(state)
print(f"    positive-frequency part : kg = {kg_inner(pos, pos).real:+.4f}")
print(f"    negative-frequency part : kg = {kg_inner(neg, neg).real:+.4f}")
print(f"    whole state             : kg = {kg0.real:+.4f}")
print(f"    pd is additive and positive on both: "
      f"{pd_inner(pos, pos).real:.4f} + {pd_inner(neg, neg).real:.4f} "
      f"= {pd0.real:.4f}")
print()

a = np.zeros(grid.N, dtype=complex)
a[3] = 1.0
null = KGState(grid=grid, a=a, b=a.copy(), t=0.0)
print("Equal-weight mixture of the two frequencies in one mode is a nonzero")
print("null vector of the Klein-Gordon form:")
print(f"    kg norm : {kg_inner(null, null).real:+.2e}")
print(f"    pd norm : {pd_inner(null, null).real:+.4f}  (strictly positive)")
