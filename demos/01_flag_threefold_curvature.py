"""Walk through the flag-threefold metric: jets, torsion, and curvature.

The metric g = gtilde - sigma lives on the hypersurface of P^2 x P^2 cut out
by the incidence relation; at the chart origin its components are exact
rational jets, so every curvature number below is exact.  Each exact table
is a map {index tuple: nonzero entry}; an absent index is a zero.
"""

from btpgeo import charts
from btpgeo.scalars import EC

m = charts.wallach_metric()
at = lambda table, *ix: table.get(ix, EC.zero())       # noqa: E731
print("metric at the base point (identity):")
for i in range(3):
    print("   ", [str(at(m.G, i, j).re) for j in range(3)])

T = charts.chern_torsion_at(m)
print("\nnonzero Chern torsion components:")
for (j, i, k), c in sorted(T.items()):
    if i < k:
        print(f"    T^{j+1}_{{{i+1}{k+1}}} =", c)

Rc = charts.chern_curvature_at(m)
print("\nChern curvature, nonzero entries R^c_(k,lbar,i,jbar):")
for (k, l, i, j), c in sorted(Rc.items()):
    print(f"    ({k+1},{l+1},{i+1},{j+1}) -> {c}")

ric1, ric2, ric3 = charts.ricci_forms_at(m)
print("\nRicci diagonals:",
      *([str(at(ric, i, i).re) for i in range(3)] for ric in (ric1, ric2, ric3)))

r11, r20 = charts.riemannian_curvature_at(m)
print("\nLevi-Civita (1,1) components on index pairs:")
for i in range(3):
    for k in range(i + 1, 3):
        print(f"    R_({i+1},{i+1}b,{k+1},{k+1}b) = {at(r11, i, i, k, k).re}, "
              f"R_({i+1},{k+1}b,{k+1},{i+1}b) = {at(r11, i, k, k, i).re}")

print("\nsectional numerator on the (e1, e2) plane:",
      charts.sectional_numerator(m, (1, 0, 0), (0, 1, 0)))
print("Ricci curvature of e1 + conj(e1):",
      charts.ricci_curvature(m, (1, 0, 0)), "(constant in every direction)")

flat = charts.sectional_numerator(m, (EC(1), EC(1), EC(1)),
                                  (EC(0, 1), EC(0, -1), EC(0, 1)))
print("flat-plane witness value:", flat)
