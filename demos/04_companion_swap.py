"""Flip one frame direction of a balanced structure and meet its companion.

Conjugating the second frame direction of the balanced nilmanifold produces
the non-balanced companion with d psi_3 = -a (psi_{1 1b} + psi_{2 2b}); both
structures share one Bismut connection, while the Gauduchon 1-form and the
first Bismut Ricci change character completely.
"""

from fractions import Fraction

from btpgeo import lie

a = Fraction(1, 2)
g = lie.nilmanifold_n3(a)
sw = lie.conjugate_swap(g, {1})

print("original  d phi_3 =", g.d_phi(2))
print("swapped   d psi_3 =", sw.d_phi(2))

rep0 = lie.classify(g)
rep1 = lie.classify(sw)
print("\noriginal:", rep0.type_label, "| eta =", rep0.eta,
      "| bismut ricci =", rep0.bismut_ricci)
print("swapped: ", rep1.type_label, "| eta =", rep1.eta,
      "| bismut ricci =", rep1.bismut_ricci)
print("swapped torsion has the companion pattern:", rep1.vaisman_pattern)

print("\nBismut connections agree under the relabeling:",
      lie.bismut_swap_equal(g, sw, {1}))

back = lie.conjugate_swap(sw, {1})
print("swap is an involution:", back.C == g.C and back.D == g.D)

print("\nthe same swap on a solvable family member:")
h = lie.family_a(1, -1)
hs = lie.conjugate_swap(h, {1})
rep = lie.classify(hs)
print(f"   {h.label} -> {rep.type_label}, companion pattern {rep.vaisman_pattern}, "
      f"eta = {rep.eta}")
