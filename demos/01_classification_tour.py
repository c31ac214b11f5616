"""Tour of the operator classification chain.

Hermitian matrices sit inside the quasi-Hermitian class (real spectrum,
diagonalizable), which sits inside the pseudo-Hermitian class (spectrum
closed under complex conjugation).  Outside live matrices with unpaired
complex eigenvalues, and defective matrices where the classifier refuses
to decide.  This script walks one example of each.
"""

import numpy as np

from pseudoherm import classify, eig_full, jordan_block, pt2x2


def show(label, H):
    cls = classify(H)
    lam = np.round(eig_full(H).eigenvalues, 6)
    print(f"{label:<34} -> {cls.kind.value}")
    print(f"    eigenvalues: {lam}")
    print(f"    hermiticity residual {cls.diagnostics['hermiticity_residual']:.2e}, "
          f"eigenvector score ||V||_F ||V^-1||_F {cls.diagnostics['diag_score']:.2e}")
    print()


print(__doc__)

sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
show("Pauli sigma1 (Hermitian)", sigma1)

# the balanced-gain-loss 2x2 family: r e^{+-i theta} on the diagonal,
# coupling s off it.  Strong enough coupling keeps the spectrum real.
show("pt2x2(1, pi/6, 1): coupling wins", pt2x2(1, np.pi / 6, 1))
show("pt2x2(1, pi/2, 0.5): gain/loss wins", pt2x2(1, np.pi / 2, 0.5))

show("triangular [[1,1],[0,2i]]", np.array([[1, 1], [0, 2j]], dtype=complex))
show("Jordan block (defective)", jordan_block(2, 0.0))

print("Scanning the coupling strength at theta = pi/4 shows the transition")
print("s* where the two complex eigenvalues merge and turn real:")
for s in (0.69, 0.70, 0.705, 0.708, 0.71, 0.75):
    kind = classify(pt2x2(1.0, np.pi / 4, s)).kind.value
    print(f"    s = {s:<6} {kind}")
print(f"closed form puts the transition at sin(pi/4) = {np.sin(np.pi / 4):.5f}")
