"""Hermitization by the metric square root, and antilinear symmetries.

With a positive metric eta_+ = Phi Phi^dag in hand, rho = eta_+^{1/2} maps H
to the genuinely Hermitian h = rho H rho^{-1} with the same spectrum: the
non-Hermitian problem was an ordinary Hermitian one written in a skewed
basis.  The skew is all in rho: Q = rho Psi, the eigenvectors seen through
rho, is unitary, so h = Q diag(lambda) Q^dag is Hermitian physics, reached
from H by a similarity.  Independently, a conjugation-closed spectrum is
equivalent to an invertible antilinear symmetry tau with H tau = tau conj(H).
"""

import numpy as np

from pseudoherm import (
    EnsembleSpec,
    antilinear_residual,
    antilinear_symmetry,
    eig_full,
    generate,
    herm_residual,
    hermitize,
    pair_spectrum,
    pt2x2,
)

print(__doc__)

H, planted, _ = generate(EnsembleSpec(5, 11, "quasi"))
S = eig_full(H)
rho, h, residuals = hermitize(H, S)   # the Spectrum stands for eta_+ = Phi Phi^dag

print("Random quasi-Hermitian 5x5 with planted real spectrum:")
print(f"    hermiticity residual of H : {herm_residual(H):.3f}   (plainly non-Hermitian)")
print(f"    hermiticity residual of h : {herm_residual(h):.2e}   (built Hermitian)")
Q = rho @ S.right
print(f"    unitarity ||Q^dag Q - I|| of Q = rho Psi : "
      f"{np.linalg.norm(Q.conj().T @ Q - np.eye(5), 2):.2e}")
print(f"    similarity residual ||rho H - h rho||    : {residuals['similarity']:.2e}")
print(f"    planted spectrum  : {np.round(np.sort(planted.real), 6)}")
print(f"    spectrum of h     : {np.round(np.linalg.eigvalsh(h), 6)}")
print()

print("Antilinear symmetry for a real-spectrum matrix (acts like a generalized")
print("time reversal; here conj(H) != H so tau is nontrivial):")
tau = antilinear_symmetry(S, pair_spectrum(S))
print(f"    commutation residual ||H tau - tau conj(H)|| : {antilinear_residual(H, tau):.2e}")
print()

Hc = pt2x2(1, np.pi / 2, 0.5)
Sc = eig_full(Hc)
tau_c = antilinear_symmetry(Sc, pair_spectrum(Sc))
print("The construction also works when the spectrum is a genuine conjugate")
print("pair (+-i sqrt(3)/2), where no positive metric exists:")
print(f"    commutation residual : {antilinear_residual(Hc, tau_c):.2e}")
print(f"    tau is invertible    : condition number {np.linalg.cond(tau_c, 2):.2f}")
print()

Hi = np.diag([1j, -1j])
Si = eig_full(Hi)
tau_i = antilinear_symmetry(Si, pair_spectrum(Si))
print("For diag(i, -i) the symmetry is exactly the swap sigma1:")
print(np.round(tau_i, 6))
