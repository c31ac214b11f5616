"""Fixed indefinite metric versus free metric choice: the physical spaces differ.

Starting from the same two-component Klein-Gordon Hamiltonian one can build
a physical state space two ways.  Fixing the sigma3 metric up front and
keeping only positive-norm eigenvectors retains the positive-energy half.
Keeping the span of all real-eigenvalue eigenvectors and then choosing a
positive metric on it retains everything, negative energies included.  The
two constructions are therefore inequivalent, and the half-versus-whole
dimension count below is the concrete witness.
"""

import numpy as np

from pseudoherm import (
    eig_full,
    fv_hamiltonian,
    indefinite_physical_set,
    make_grid,
    restrict_to_physical,
    sigma3_metric,
    spectral_norm,
    verify_intertwining,
)

print(__doc__)

grid = make_grid(32, 10 * np.pi, 1.0)
H = fv_hamiltonian(grid)
S = eig_full(H)
eta3 = sigma3_metric(grid)

signs = indefinite_physical_set(S, eta3)
table = {}
for n, s in signs:
    sector = "positive energy" if S.eigenvalues[n].real > 0 else "negative energy"
    table.setdefault(sector, []).append(s)

print(f"Two-component space dimension: {2 * grid.N}")
print("sigma3-norm signs of the energy eigenvectors:")
for sector, vals in sorted(table.items()):
    counts = {v: vals.count(v) for v in (-1, 0, 1)}
    print(f"    {sector:<16} : {counts[1]} positive, {counts[-1]} negative, {counts[0]} null")
print()

span = S.right[:, [n for n, s in signs if s > 0]]
Q, _ = np.linalg.qr(span)
proj_metric = Q @ Q.conj().T
keep = S.eigenvalues.real > 0
Qe, _ = np.linalg.qr(S.right[:, keep])
proj_energy = Qe @ Qe.conj().T
print("Fixed-metric physical space = span of positive-sigma3-norm eigenvectors:")
print(f"    dimension {span.shape[1]} (exactly the positive-energy half)")
print(f"    projector distance to the positive-energy eigenspace: "
      f"{spectral_norm(proj_metric - proj_energy):.2e}")
print()

sub = restrict_to_physical(H)
print("Free-choice construction: restrict to the real-eigenvalue span, then")
print("pick a positive metric on it:")
print(f"    dimension {sub.dim} of {2 * grid.N}  (the whole space: all eigenvalues are real)")
print(f"    restriction is metric-Hermitian: residual "
      f"{verify_intertwining(sub.restricted_op, np.eye(sub.dim)):.2e}")
print()
print(f"Contrast: {span.shape[1]} directions versus {sub.dim}. Fixing the metric in")
print("advance discards every negative-energy solution; choosing the metric")
print("after looking at the operator keeps them all.")
