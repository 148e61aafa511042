"""Acceptance gate: every stated criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing criteria as well).  Criterion 4 is expected to stay red:
its golden Einstein constant 3 contradicts the exact curvature table pinned
by criterion 3, which forces the constant 5/2; the assertion is kept as
stated rather than weakened.
"""

import time
from fractions import Fraction

import numpy as np

from btpgeo import charts, frames, lie
from btpgeo.forms import InvariantForm
from btpgeo.goldens import (RICCI_CLAIMED, expected_wallach_r11,
                            expected_wallach_rc)
from btpgeo.linalg import takagi_factorize
from btpgeo.scalars import EC

from _oracles import arrays, as_array, wallach_metric_values, wirtinger_fd

GRID = [Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")]


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {num}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def phi(i, c=None):
    return InvariantForm.phi(3, i, c)


def phibar(i, c=None):
    return InvariantForm.phibar(3, i, c)


def test_criterion_1_chern_curvature_table():
    t0 = time.perf_counter()
    m = charts.wallach_metric()
    Rc = charts.chern_curvature_at(m)
    elapsed = time.perf_counter() - t0
    Rc = as_array(Rc, 4)
    ok = all(Rc[k][l][i][j] == EC(expected_wallach_rc(k, l, i, j), 0)
             for k in range(3) for l in range(3) for i in range(3) for j in range(3))
    timed = elapsed < 1.0
    assert report(1, ok and timed, f"exact table, {elapsed:.3f}s") and ok and timed


def test_criterion_2_torsion_balanced_parallel(wallach_exact):
    T = arrays(charts.chern_torsion_at, wallach_exact)
    only = all(T[j][i][k].is_zero() or (j, i, k) in ((1, 0, 2), (1, 2, 0))
               for j in range(3) for i in range(3) for k in range(3))
    tors = only and T[1][0][2] == EC(1)
    eta0 = all(sum((T[s][s][i] for s in range(3)), EC.zero()).is_zero()
               for i in range(3))
    res_h, res_a = arrays(charts.btp_residual_at, wallach_exact)
    par = (res_h == 0).all() and (res_a == 0).all()
    ok = tors and eta0 and par
    assert report(2, ok, "torsion T^2_13=1, eta=0, residuals exactly 0") and ok


def test_criterion_3_riemannian_table(wallach_pc):
    r11, r20 = arrays(charts.riemannian_curvature_at, wallach_pc)
    table = all(r11[k][l][i][j] == EC(expected_wallach_r11(k, l, i, j), 0)
                for k in range(3) for l in range(3) for i in range(3) for j in range(3))
    r20 = (r20 == 0).all()
    rel = True
    for i in range(3):
        for k in range(3):
            if i == k:
                continue
            a = r11[i][i][k][k].re
            b = r11[i][k][k][i].re
            rel &= 2 * b - a == Fraction(1, 4)
            rel &= 2 * a - b == (Fraction(-5, 4) if {i, k} == {0, 2} else Fraction(1))
            rel &= a + b == (Fraction(-1) if {i, k} == {0, 2} else Fraction(5, 4))
    ok = table and r20 and rel
    assert report(3, ok, "(1,1) table exact, (2,0) zero, pair relations exact") and ok


def test_criterion_4_einstein_and_sectional(wallach_pc, wallach_float_pc):
    # sectional nonnegativity over 10^4 random planes
    rng = np.random.default_rng(20240801)
    min_sec = float("inf")
    for _ in range(10000):
        X = rng.normal(size=3) + 1j * rng.normal(size=3)
        Y = rng.normal(size=3) + 1j * rng.normal(size=3)
        min_sec = min(min_sec, charts.sectional_numerator(wallach_float_pc, X, Y))
    sec_ok = min_sec >= -1e-12

    flat = charts.sectional_curvature(
        wallach_pc, (EC(1), EC(1), EC(1)), (EC(0, 1), EC(0, -1), EC(0, 1)))
    flat_ok = flat == 0

    frame_vals = []
    for i in range(3):
        for unit in (False, True):
            X = [EC.zero()] * 3
            X[i] = EC.i() if unit else EC.one()
            frame_vals.append(charts.ricci_curvature(wallach_pc, X))
            X2 = list(X)
            X2[i] = -X2[i]
            frame_vals.append(charts.ricci_curvature(wallach_pc, X2))
    ricci_frame_ok = all(v == RICCI_CLAIMED for v in frame_vals)

    ricci_rand_ok = True
    worst = 0.0
    for _ in range(100):
        X = rng.normal(size=3) + 1j * rng.normal(size=3)
        r = charts.ricci_curvature(wallach_float_pc, X)
        worst = max(worst, abs(r - float(RICCI_CLAIMED)))
        ricci_rand_ok = ricci_rand_ok and worst <= 1e-9

    ok = sec_ok and flat_ok and ricci_frame_ok and ricci_rand_ok
    computed = sorted(set(frame_vals))
    report(4, ok, f"sectional min {min_sec:.2e}, flat plane {flat}, "
                  f"ricci computed {computed} vs stated {RICCI_CLAIMED}")
    assert sec_ok, f"sectional numerator dipped to {min_sec}"
    assert flat_ok, f"flat-plane witness gave {flat}"
    assert ricci_frame_ok, (
        f"frame-direction Ricci is {computed}, not {RICCI_CLAIMED}: the stated "
        f"Einstein constant contradicts the criterion-3 curvature table")
    assert ricci_rand_ok, f"random-direction Ricci off by {worst:.3e}"


def test_criterion_5_lie_families():
    t0 = time.perf_counter()
    ok = True
    msg = ""
    for a in (Fraction(1), Fraction(1, 2)):
        want_diag = EC(-2 * a * a, 0)
        want_cross = EC(2 * a * a, 0)
        for fam, mk, cy_rule in (
                ("a", lambda p, q: lie.family_a(p, q, a), lambda p, q: p + q == 0),
                ("b", lambda p, q: lie.family_b(p, q, a), lambda p, q: p == q == 0)):
            for p in GRID:
                for q in GRID:
                    g = mk(p, q)
                    rep = lie.classify(g)
                    tb = lie.bismut_curvature(g)
                    good = (rep.balanced and rep.btp and rep.b_rank == 2 and rep.cyt
                            and rep.chern_ricci.is_zero()
                            and rep.calabi_yau_type == cy_rule(p, q)
                            and tb[0][0].coeff((0,), (0,)) == want_diag
                            and tb[1][1].coeff((1,), (1,)) == want_diag
                            and tb[1][1].coeff((0,), (0,)) == want_cross)
                    if (p, q) != (0, 0):
                        good = good and rep.nilpotent_steps is None \
                            and rep.solvable_steps == 3
                    if not good:
                        ok = False
                        msg = f"{fam}({p},{q}) a={a}"
    n3_rep = lie.classify(lie.nilmanifold_n3(1))
    ok = ok and n3_rep.nilpotent_steps == 2
    elapsed = time.perf_counter() - t0
    timed = elapsed < 10.0
    assert report(5, ok and timed, msg or f"grid {len(GRID)}^2 x 2 families x 2 scales, "
                  f"{elapsed:.1f}s") and ok and timed


def test_criterion_6_rank_three_case():
    g = lie.sl2c(1)
    flat = all(f.is_zero() for row in lie.chern_curvature(g) for f in row)
    B = lie.b_tensor(g)
    b_ok = all(B[i][j] == (EC(2) if i == j else EC.zero())
               for i in range(3) for j in range(3))
    rep = lie.classify(g)
    traces = lie.trace(lie.chern_connection(g)).is_zero()
    rng = np.random.default_rng(99)
    T = np.array(lie.chern_torsion(g), complex)
    worst = 0.0
    for _ in range(100):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        res = frames.build_special_frame(frames.transform_torsion(T, Q))
        worst = max(worst, float(np.max(np.abs(np.array(res.a) - 1.0))))
    frames_ok = worst <= 1e-9
    ok = flat and b_ok and rep.balanced and rep.btp and rep.b_rank == 3 \
        and traces and frames_ok
    assert report(6, ok, f"recovery worst deviation {worst:.2e}") and ok


def test_criterion_7_takagi_property_suite():
    rng = np.random.default_rng(424242)
    worst_res, worst_d = 0.0, 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        A = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        A = A + A.T
        res = takagi_factorize(A)
        worst_res = max(worst_res, res.reconstruction_residual(A))
        sv = np.linalg.svd(A, compute_uv=False)
        worst_d = max(worst_d, float(np.max(np.abs(np.array(res.d) - sv))))
    ok = worst_res <= 1e-10 and worst_d <= 1e-9
    assert report(7, ok, f"500 matrices: residual {worst_res:.2e}, "
                  f"d vs oracle {worst_d:.2e}") and ok


def test_criterion_8_pluriclosed_obstruction():
    ok = True
    p11 = InvariantForm.monomial(3, (0,), (0,), EC.one())
    p22 = InvariantForm.monomial(3, (1,), (1,), EC.one())
    cases = [lie.nilmanifold_n3(1), lie.nilmanifold_n3(Fraction(1, 2))]
    for a in (Fraction(1), Fraction(1, 2)):
        for p in (Fraction(1), Fraction(-1, 2)):
            cases.append(lie.family_a(p, -p, a))
            cases.append(lie.family_b(p, Fraction(1, 3), a))
    for g in cases:
        a = lie.chern_torsion(g)[0][0][2]
        want = p11.wedge(p22).scale(EC(2) * a * a)
        ok = ok and lie.pluriclosed_obstruction(g) == want
    assert report(8, ok, f"{len(cases)} middle-type samples, coefficient 2a^2 exact") and ok


def test_criterion_9_companion_swap():
    a = Fraction(1, 2)
    n3 = lie.nilmanifold_n3(a)
    sw = lie.conjugate_swap(n3, {1})
    d3 = sw.d_phi(2)
    want_d3 = (phi(0).wedge(phibar(0)) + phi(1).wedge(phibar(1))).scale(EC(-a, 0))
    eta = lie.gauduchon_eta(sw)
    ric = lie.classify(sw).bismut_ricci
    want_ric = (phi(0).wedge(phibar(0)) + phi(1).wedge(phibar(1))).scale(EC(0, -4 * a * a))
    bis = lie.bismut_swap_equal(n3, sw, {1})
    invol = True
    for g in (lie.nilmanifold_n3(1), lie.family_a(1, -1),
              lie.family_a(Fraction(1, 2), Fraction(1, 3)),
              lie.family_b(EC(1, 1), 2), lie.vaisman_nilmanifold(1)):
        for S in ({0}, {1}, {0, 1}):
            back = lie.conjugate_swap(lie.conjugate_swap(g, S), S)
            invol = invol and back.C == g.C and back.D == g.D
    ok = (d3 == want_d3 and eta == phi(2, EC(2 * a, 0)) and ric == want_ric
          and bis and invol)
    assert report(9, ok, "swap structure, eta, Ricci, Bismut match, involution") and ok


def test_criterion_10_jet_finite_difference_oracle(wallach_exact):
    h = 1e-4
    worst = 0.0
    ok = True
    for i in range(3):
        for j in range(3):
            fn = lambda z: wallach_metric_values(z)[i, j]
            jet = wallach_exact.g[i][j]
            slots = [((), ())] \
                + [((k,), ()) for k in range(3)] + [((), (k,)) for k in range(3)] \
                + [((k,), (l,)) for k in range(3) for l in range(3)] \
                + [((k, l), ()) for k in range(3) for l in range(k, 3)] \
                + [((), (k, l)) for k in range(3) for l in range(k, 3)]
            for holo, anti in slots:
                fd = wirtinger_fd(fn, [0, 0, 0], holo=holo, anti=anti, h=h)
                want = complex(jet.deriv(holo=holo, anti=anti))
                err = abs(fd - want) / max(1.0, abs(fd))
                worst = max(worst, err)
                ok = ok and err <= 1e-6
    assert report(10, ok, f"all coefficient slots, worst relative error {worst:.2e}") and ok
