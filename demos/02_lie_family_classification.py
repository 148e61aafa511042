"""Classify the two middle-type families of unimodular Hermitian Lie algebras.

Both families deform the balanced nilmanifold; the sweep shows which members
carry an invariant holomorphic volume form and how the solvability profile
jumps away from the origin.
"""

from fractions import Fraction

from btpgeo import lie
from btpgeo.scalars import EC

print(f"{'algebra':34s} {'balanced':8s} {'btp':4s} {'rank':4s} {'cyt':4s} "
      f"{'cy-type':7s} {'nilp':5s} {'solv':5s} label")
for s, t in [(0, 0), (1, -1), (1, 1), (Fraction(1, 2), Fraction(1, 3)), (2, -2)]:
    rep = lie.classify(lie.family_a(s, t))
    print(f"{rep.label:34s} {str(rep.balanced):8s} {str(rep.btp):4s} "
          f"{rep.b_rank:<4d} {str(rep.cyt):4s} {str(rep.calabi_yau_type):7s} "
          f"{str(rep.nilpotent_steps):5s} {str(rep.solvable_steps):5s} {rep.type_label}")

print()
for z, t in [(0, 0), (1, 1), (EC(1, Fraction(1, 2)), Fraction(1, 3))]:
    rep = lie.classify(lie.family_b(z, t))
    print(f"{rep.label:34s} -> {rep.type_label}, calabi_yau_type={rep.calabi_yau_type}, "
          f"solvable_steps={rep.solvable_steps}")

print("\nthe rank-three algebra:")
rep = lie.classify(lie.sl2c(1))
print(f"{rep.label}: {rep.type_label}, B-rank {rep.b_rank}, "
      f"calabi_yau_type={rep.calabi_yau_type}")

print("\nBismut curvature pattern shared by every middle-type member:")
tb = lie.bismut_curvature(lie.family_a(1, -1))
print("   Theta^b_11 =", tb[0][0])
print("   Theta^b_22 =", tb[1][1])
print("   Theta^b_33 =", tb[2][2])
