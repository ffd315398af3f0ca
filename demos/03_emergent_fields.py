"""Emergent vector and scalar potentials at the tracers, two ways.

Differentiating the log-normalization gives the gauge field A_j and scalar
potential V_j exactly (Jacobi's formula on the Upsilon determinant); the
same fields also come out of conditional-density integrals, each in closed
form: a conditioned orbital combination divided by z - w_j is again a finite
combination, whose coefficients two recurrences over the orbitals give in
O(M n) time and memory, and the integrals are its inner products.  Away from
mergings, A_j tracks N y^perp minus one Aharonov-Bohm flux tube per partner
hole, and V_j flattens to 2N.
"""

import numpy as np

from qhflux import HoleConfig, asymptotic_prediction, emergent_field_derivative
from qhflux.potentials import emergent_field_integral

N = 64
cfg = HoleConfig(w=(0.25 + 0.1j, -0.3 - 0.15j), N=N)

print("== two independent routes to the same fields (N = 64) ==")
for j in (0, 1):
    d = emergent_field_derivative(cfg, j)
    i = emergent_field_integral(cfg, j)
    print(f"  hole {j}: derivative A = ({d.A[0]:+.8f}, {d.A[1]:+.8f})  V = {d.V:.8f}")
    print(f"          integral   A = ({i.A[0]:+.8f}, {i.A[1]:+.8f})  V = {i.V:.8f}")

print("\n== field along a radial line for a single hole ==")
print("  the tangential field grows like N r; V stays pinned at 2N")
for r in (0.1, 0.3, 0.5, 0.7):
    one = HoleConfig(w=(r,), N=N)
    f = emergent_field_derivative(one, 0)
    print(f"  r = {r:3.1f}:  A = ({f.A[0]:+9.4f}, {f.A[1]:+9.4f})   |A|/(N r) = "
          f"{np.linalg.norm(f.A) / (N * r):.6f}   V/2N = {f.V / (2 * N):.6f}")

print("\n== Aharonov-Bohm flux of the partner hole ==")
pair = HoleConfig(w=(0.35, -0.35), N=256)
f = emergent_field_derivative(pair, 0)
pred = asymptotic_prediction(pair)[0][0]
print(f"  measured A  = ({f.A[0]:+.6f}, {f.A[1]:+.6f})")
print(f"  N y^perp - (y_0-y_1)^perp/|y_0-y_1|^2 = ({pred[0]:+.6f}, {pred[1]:+.6f})")
print(f"  gap = {np.linalg.norm(f.A - pred):.2e}")
