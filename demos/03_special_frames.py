"""Normalize scrambled balanced torsion into a special frame.

Any balanced threefold torsion can be rotated so that only the three cyclic
components survive, sorted and nonnegative.  The construction runs through a
Takagi factorization of the symmetric cyclic-component matrix, so the
recovered triple is exactly the singular-value triple, no matter how the
input frame was scrambled.
"""

import numpy as np

from btpgeo import frames, lie
from btpgeo.linalg import takagi_factorize

rng = np.random.default_rng(12)

print("Takagi factorization of a random complex symmetric matrix:")
A = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
A = A + A.T
res = takagi_factorize(A)
print("   singular values:", np.round(res.d, 6))
print("   reconstruction residual:",
      f"{res.reconstruction_residual(A):.2e}")

print("\nround-trip a fully symmetric torsion through random unitary frames:")
g = lie.sl2c(1)
T = frames.dense(g.n, lie.chern_torsion(g), g.kind)
for trial in range(3):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(M)
    scrambled = frames.transform_torsion(T, Q)
    out = frames.build_special_frame(scrambled)
    print(f"   trial {trial}: recovered a = {np.round(out.a, 10)}, "
          f"type = {frames.b_rank_type(out.a)}")

print("\nmiddle-type data lands on an admissible frame:")
mid = np.zeros((3, 3, 3), dtype=complex)
for (i, j, k), v in zip(((0, 1, 2), (1, 2, 0)), (1.5, 1.5)):
    mid[i][j][k] = v
    mid[i][k][j] = -v
M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
Q, _ = np.linalg.qr(M)
out = frames.build_special_frame(frames.transform_torsion(mid, Q))
print("   special triple:", np.round(out.a, 10))
U, Tad = frames.special_to_admissible(out.a)
print("   admissible torsion: T^1_13 =", np.round(Tad[0][0][2], 10),
      " T^2_23 =", np.round(Tad[1][1][2], 10))
