"""The exterior algebra behind everything else.

Invariant forms multiply with canonical sign bookkeeping, differentiate via
the structure equation, and split into Dolbeault components.  The
del-delbar of the distinguished (1,1)-form is the obstruction that rules
out pluriclosed partners for the middle-type structures.
"""

from fractions import Fraction

from btpgeo import lie
from btpgeo.forms import InvariantForm, dolbeault_split, exterior_d

g = lie.nilmanifold_n3(1)
phi = lambda i: InvariantForm.phi(3, i)
phibar = lambda i: InvariantForm.phibar(3, i)

print("wedge bookkeeping:")
print("   phi2 ^ phi3 ^ phi1 =", phi(1).wedge(phi(2)).wedge(phi(0)))
print("   phi1 ^ phi1        =", phi(0).wedge(phi(0)))
print("   conj(phi1 ^ phibar1) =", phi(0).wedge(phibar(0)).conj())

print("\nstructure equation:")
for i in range(3):
    print(f"   d phi_{i+1} =", g.d_phi(i))
print("   d^2 phi_3 =", exterior_d(g, g.d_phi(2)))

Phi = phi(2).wedge(phibar(2))
sp = dolbeault_split(g, Phi)
print("\nDolbeault split of phi_{3 3b}:")
print("   del    part:", sp.del_part)
print("   delbar part:", sp.delbar_part)

ddbar = exterior_d(g, sp.delbar_part).bidegree_part(2, 2)
print("   del delbar :", ddbar)
print("   coefficient on phi_{1 1b} ^ phi_{2 2b}:",
      ddbar.coeff((0, 1), (0, 1)).re * -1, "(= 2 a^2)")

print("\nscaling the torsion constant scales the obstruction quadratically:")
for a in (1, Fraction(1, 2), Fraction(3, 4)):
    ob = lie.pluriclosed_obstruction(lie.nilmanifold_n3(a))
    coef = -ob.coeff((0, 1), (0, 1)).re
    print(f"   a = {a}: coefficient = {coef}")
