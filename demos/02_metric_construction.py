"""Building metric operators from biorthonormal eigensystems.

A diagonalizable matrix H with conjugation-closed spectrum admits invertible
self-adjoint eta with H^dag = eta H eta^{-1}.  From the left eigenvectors
phi_n the canonical constructions are

    eta_+  = sum_n phi_n phi_n^dag                  (positive, real spectrum)
    eta    = signed projectors + conjugate-pair blocks   (general, indefinite)

and the whole family is reached by eta -> A^dag eta A with A in the
commutant of H.
"""

import numpy as np

from pseudoherm import (
    EnsembleSpec,
    build_general_metric,
    build_positive_metric,
    eig_full,
    generate,
    pair_spectrum,
    pt2x2,
    transform_metric,
    verify_intertwining,
)

print(__doc__)

H = pt2x2(1, np.pi / 6, 1)
S = eig_full(H)
eta_pos = build_positive_metric(S)
print("pt2x2(1, pi/6, 1), real spectrum {0, sqrt(3)}:")
print(np.round(eta_pos.matrix, 6))
print(f"    intertwining residual : {verify_intertwining(H, eta_pos):.2e}")
print(f"    signature             : {eta_pos.signature} (positive-definite)")
print(f"    smallest |eigenvalue| : {eta_pos.min_abs_eigenvalue:.4f}")
print()

print("Same matrix, mixed signs on the two real eigenvalues -> an indefinite")
print("member of the same metric family:")
eta_mixed = build_general_metric(S, pair_spectrum(S), signs=[1, -1])
print(np.round(eta_mixed.matrix, 6))
print(f"    intertwining residual : {verify_intertwining(H, eta_mixed):.2e}")
print(f"    signature             : {eta_mixed.signature} (indefinite)")
print()

Hc = np.diag([1j, -1j])
Sc = eig_full(Hc)
eta_c = build_general_metric(Sc, pair_spectrum(Sc))
print("diag(i, -i) has a conjugate pair; the pair block produces sigma1:")
print(np.round(eta_c.matrix, 6))
print(f"    signature {eta_c.signature}: no positive metric exists here.")
print()

print("Transporting a positive metric along the commutant (A = H^2 + 1):")
Hq, _, _ = generate(EnsembleSpec(5, 42, "quasi"))
Sq = eig_full(Hq)
eta0 = build_positive_metric(Sq)
eta1 = transform_metric(eta0, Hq @ Hq + np.eye(5), Hq)
print(f"    before: signature {eta0.signature}, residual {verify_intertwining(Hq, eta0):.2e}")
print(f"    after : signature {eta1.signature}, residual {verify_intertwining(Hq, eta1):.2e}")
print("    positivity survives the transport, membership is exactly preserved.")
