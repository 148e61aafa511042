"""Walk through the flag-threefold metric: jets, torsion, and curvature.

The metric g = gtilde - sigma lives on the hypersurface of P^2 x P^2 cut out
by the incidence relation; at the chart origin its components are exact
rational jets, so every curvature number below is exact.
"""

from btpgeo import charts

m = charts.wallach_metric()
print("metric at the base point (identity):")
for row in m.G:
    print("   ", [str(v.re) for v in row])

T = charts.chern_torsion_at(m)
print("\nnonzero Chern torsion components:")
for j in range(3):
    for i in range(3):
        for k in range(i + 1, 3):
            if not T[j][i][k].is_zero():
                print(f"    T^{j+1}_{{{i+1}{k+1}}} =", T[j][i][k])

Rc = charts.chern_curvature_at(m)
print("\nChern curvature, nonzero entries R^c_(k,lbar,i,jbar):")
for k in range(3):
    for l in range(3):
        for i in range(3):
            for j in range(3):
                if not Rc[k][l][i][j].is_zero():
                    print(f"    ({k+1},{l+1},{i+1},{j+1}) -> {Rc[k][l][i][j]}")

ric1, ric2, ric3 = charts.ricci_forms_at(m)
print("\nRicci diagonals:",
      [str(ric1[i][i].re) for i in range(3)],
      [str(ric2[i][i].re) for i in range(3)],
      [str(ric3[i][i].re) for i in range(3)])

r11, r20 = charts.riemannian_curvature_at(m)
print("\nLevi-Civita (1,1) components on index pairs:")
for i in range(3):
    for k in range(i + 1, 3):
        print(f"    R_({i+1},{i+1}b,{k+1},{k+1}b) = {r11[i][i][k][k].re}, "
              f"R_({i+1},{k+1}b,{k+1},{i+1}b) = {r11[i][k][k][i].re}")

print("\nsectional numerator on the (e1, e2) plane:",
      charts.sectional_numerator(m, (1, 0, 0), (0, 1, 0)))
print("Ricci curvature of e1 + conj(e1):",
      charts.ricci_curvature(m, (1, 0, 0)), "(constant in every direction)")

from btpgeo.scalars import EC
flat = charts.sectional_numerator(m, (EC(1), EC(1), EC(1)),
                                  (EC(0, 1), EC(0, -1), EC(0, 1)))
print("flat-plane witness value:", flat)
