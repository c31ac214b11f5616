"""Hermitization by the metric square root, and antilinear symmetries.

With a positive metric eta_+ in hand, rho = eta_+^{1/2} maps H to the
genuinely Hermitian h = rho H rho^{-1} with the same spectrum: the
non-Hermitian problem was an ordinary Hermitian one written in a skewed
basis.  Independently, a conjugation-closed spectrum is equivalent to an
invertible antilinear symmetry tau with H tau = tau conj(H).
"""

import numpy as np

from pseudoherm import (
    EnsembleSpec,
    antilinear_residual,
    antilinear_symmetry,
    build_positive_metric,
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
eta = build_positive_metric(S)
rho, h, _ = hermitize(H, eta)

print("Random quasi-Hermitian 5x5 with planted real spectrum:")
print(f"    hermiticity residual of H : {herm_residual(H):.3f}   (plainly non-Hermitian)")
print(f"    hermiticity residual of h : {herm_residual(h):.2e}")
print(f"    planted spectrum  : {np.round(np.sort(planted.real), 6)}")
print(f"    spectrum of h     : {np.round(np.sort(np.linalg.eigvalsh(0.5 * (h + h.conj().T))), 6)}")
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
