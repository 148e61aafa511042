"""Independent oracles shared by the test modules: finite differences, closed
forms, the jet route to point curvature, and sectional and Ricci curvature
by explicit sums."""

from fractions import Fraction

import numpy as np

from btpgeo.charts import ChartMetric, PointCurvature
from btpgeo.jets import Jet2, jet_matrix_inverse
from btpgeo.scalars import EC, conj


def wirtinger_fd(fn, z0, holo=(), anti=(), h=1e-4):
    """Central finite differences in Wirtinger variables (order <= 2)."""
    if not holo and not anti:
        return fn(z0)
    if holo:
        k, rest_h, rest_a = holo[0], holo[1:], anti
        def d(z, step):
            zp = list(z)
            zp[k] += step
            return wirtinger_fd(fn, zp, rest_h, rest_a, h)
        ddx = (d(z0, h) - d(z0, -h)) / (2 * h)
        ddy = (d(z0, 1j * h) - d(z0, -1j * h)) / (2 * h)
        return (ddx - 1j * ddy) / 2
    k, rest = anti[0], anti[1:]
    def d(z, step):
        zp = list(z)
        zp[k] += step
        return wirtinger_fd(fn, zp, (), rest, h)
    ddx = (d(z0, h) - d(z0, -h)) / (2 * h)
    ddy = (d(z0, 1j * h) - d(z0, -1j * h)) / (2 * h)
    return (ddx + 1j * ddy) / 2


def sectional_closed_form(X, Y):
    """Sum-of-squares expression for the flag-metric sectional numerator."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    I = [np.imag(X[i] * np.conj(Y[i])) for i in range(3)]
    return (4 * (I[0] + I[1]) ** 2 + 4 * (I[1] + I[2]) ** 2 + 4 * (I[0] - I[2]) ** 2
            + 0.5 * abs(X[0] * np.conj(Y[1]) - Y[0] * np.conj(X[1])) ** 2
            + 0.5 * abs(X[1] * np.conj(Y[2]) - Y[1] * np.conj(X[2])) ** 2
            + 0.5 * abs(X[0] * Y[2] - Y[0] * X[2]) ** 2)


# ---- the jet route to point curvature ----------------------------------------
# The library extracts torsion, Chern curvature and the parallel-torsion
# residuals from arrays of jet coefficients, with a closed-form torsion
# derivative.  The functions below take the independent route: the torsion
# as a matrix of jets built on the Neumann-series inverse jet_matrix_inverse,
# differentiated through the jet coefficients, and every table summed entry
# by entry.

def _kind(x, exact):
    """A value read from a possibly empty jet, in the metric's scalar kind."""
    return x if exact else complex(x)


def _first_derivs_loop(m):
    n = m.n
    return [[[_kind(m.g[i][j].deriv(holo=(k,)), m.exact) for k in range(n)]
             for j in range(n)] for i in range(n)]


def torsion_jets(m):
    """T^j_{ik} as degree-1 jets: (G_{k l, i} - G_{i l, k}) G^{-1}_{l j}."""
    n = m.n
    G = [[m.g[i][j] for j in range(n)] for i in range(n)]
    Ginv = jet_matrix_inverse(G)
    tj = [[[None] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                acc = Jet2(n)
                for l in range(n):
                    acc = acc + (G[k][l].partial_z(i) - G[i][l].partial_z(k)) * Ginv[l][j]
                tj[j][i][k] = acc.truncate(1)
    return tj


def torsion_loop(m):
    """T[j][i][k], summed entry by entry with the inverse base metric."""
    n = m.n
    dg = _first_derivs_loop(m)
    ginv = m.inverse_value_matrix()
    T = [[[None] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                acc = EC.zero() if m.exact else 0j
                for l in range(n):
                    acc = acc + (dg[k][l][i] - dg[i][l][k]) * ginv[l][j]
                T[j][i][k] = acc
    return T


def chern_curvature_loop(m):
    """Rc[k][l][i][j] = -g_{i jbar, k lbar}
    + sum_{p,q} g_{i pbar, k} conj(g_{j qbar, l}) g^{pbar q}."""
    n = m.n
    dg = _first_derivs_loop(m)
    ginv = m.inverse_value_matrix()
    Rc = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    acc = -_kind(m.g[i][j].deriv(holo=(k,), anti=(l,)), m.exact)
                    for p in range(n):
                        for q in range(n):
                            acc = acc + dg[i][p][k] * conj(dg[j][q][l]) * ginv[p][q]
                    Rc[k][l][i][j] = acc
    return Rc


def btp_residual_loop(m):
    """res_h[l][i][j][k] and res_a[l][i][j][k], from the jets of torsion_jets."""
    n = m.n
    dg = _first_derivs_loop(m)
    tj = torsion_jets(m)
    T = [[[_kind(tj[j][i][k].value(), m.exact) for k in range(n)]
          for i in range(n)] for j in range(n)]
    zero = EC.zero() if m.exact else 0j
    res_h = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    res_a = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    rhs = zero
                    for r in range(n):
                        rhs = rhs + dg[l][r][i] * T[j][r][k] \
                            + dg[l][r][k] * T[j][i][r] \
                            - dg[l][j][r] * T[r][i][k]
                    res_h[l][i][j][k] = _kind(tj[j][i][k].deriv(holo=(l,)), m.exact) - rhs
                    rhs = zero
                    for r in range(n):
                        rhs = rhs + T[j][i][r] * conj(T[k][l][r]) \
                            - T[j][k][r] * conj(T[i][l][r]) \
                            + T[r][i][k] * conj(T[r][j][l])
                    res_a[l][i][j][k] = _kind(tj[j][i][k].deriv(anti=(l,)), m.exact) - rhs
    return res_h, res_a


def random_chart_metric(rng, exact, base=None, n=3):
    """A Hermitian metric whose jets carry every monomial of degree 1 and 2.

    The coefficients are complex Gaussians (float kind) or small rationals
    (exact kind).  ``base`` is the value matrix at the base point, the
    identity by default.  Such metrics are generic: their torsion is not
    parallel and the derivative of the inverse metric does not vanish.
    """
    def draw():
        if exact:
            part = lambda: Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            return EC(part(), part())
        return complex(rng.normal(), rng.normal())

    monos = [(v,) for v in range(2 * n)] + \
        [(v, w) for v in range(2 * n) for w in range(v, 2 * n)]
    half = EC(Fraction(1, 2)) if exact else 0.5
    one, zero = (EC.one(), EC.zero()) if exact else (1 + 0j, 0j)
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            jet = Jet2(n, {mono: draw() for mono in monos})
            if i == j:
                jet = (jet + jet.conj()).scale(half)
            c = base[i][j] if base is not None else (one if i == j else zero)
            g[i][j] = jet + Jet2.constant(n, c)
            g[j][i] = g[i][j].conj()
    return ChartMetric(n, g, label="random")


# ---- sectional and Ricci curvature by explicit sums ----------------------------
# The library contracts whole stacks of directions with the flattened r11 and
# r20 tables and takes the Ricci curvature as a closed-form trace.  The
# functions below take one pair of directions, sum the sectional expansion
# entry by entry, and sum the Ricci curvature over the frame {e_i, i e_i}.

def _contract(table, A, B, C, D):
    """sum_{a,b,c,d} A_a B_b C_c D_d table[a][b][c][d], entry by entry."""
    n = len(A)
    acc = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    acc = acc + A[a] * B[b] * C[c] * D[d] * table[a][b][c][d]
    return acc


def sectional_numerator_loop(pc, X, Y):
    """-2 R_{X Xb Y Yb} + 4 R_{X Yb Y Xb} - 2 Re R_{X Yb X Yb}
    - 4 Re ( R_{X Y X Yb} - R_{X Y Y Xb} ) for one pair of directions given as
    scalars of the data's kind: a float, or a Fraction, where an exact value
    that is not real raises ArithmeticError."""
    Xb = [conj(x) for x in X]
    Yb = [conj(y) for y in Y]
    t1 = _contract(pc.r11, X, Xb, Y, Yb)
    t2 = _contract(pc.r11, X, Yb, Y, Xb)
    t3 = _contract(pc.r11, X, Yb, X, Yb)
    e = _contract(pc.r20, X, Y, X, Yb) - _contract(pc.r20, X, Y, Y, Xb)
    if not pc.exact:
        return (-2 * t1 + 4 * t2).real - 2 * t3.real - 4 * e.real
    total = -2 * t1 + 4 * t2 - 2 * EC(t3.re) - 4 * EC(e.re)
    if total.im != 0:
        raise ArithmeticError("expected a real exact value")
    return total.re


def ricci_frame_sum(pc, X):
    """Ricci curvature of x = X + conj(X): the sectional numerators of x with
    each of the 2n frame directions e_i, i e_i (squared length 2), summed and
    divided by |x|^2 = 2 |X|^2."""
    n = pc.n
    zero, one, i = (EC.zero(), EC.one(), EC.i()) if pc.exact else (0j, 1 + 0j, 1j)
    total = 0
    for k in range(n):
        for unit in (one, i):
            Y = [zero] * n
            Y[k] = unit
            total = total + sectional_numerator_loop(pc, X, Y)
    x2 = 2 * sum((x * conj(x)).re if pc.exact else abs(x) ** 2 for x in X)
    return total / 2 / x2


def random_curvature_tables(rng, exact, hermitian, n=3):
    """Random r11 and r20 tables as nested lists, in a PointCurvature.

    Entries are complex Gaussians (float kind) or small rationals (exact
    kind), so no index symmetry relates them.  ``hermitian`` symmetrizes r11
    over r11[a,b,c,d] = conj(r11[b,a,d,c]) = conj(r11[d,c,b,a]) = r11[c,d,a,b],
    the symmetries of a curvature table that make every sectional numerator
    real; without them an exact numerator is not real.
    """
    def draw():
        if exact:
            part = lambda: Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            return EC(part(), part())
        return complex(rng.normal(), rng.normal())

    dtype = object if exact else complex
    shape = (n,) * 4
    r11 = np.array([draw() for _ in range(n ** 4)], dtype).reshape(shape)
    r20 = np.array([draw() for _ in range(n ** 4)], dtype).reshape(shape)
    if hermitian:
        r11 = (r11 + r11.transpose(1, 0, 3, 2).conj() + r11.transpose(3, 2, 1, 0).conj()
               + r11.transpose(2, 3, 0, 1))
    return PointCurvature(n=n, exact=exact, torsion=None, rc=None, ric1=None, ric2=None,
                          ric3=None, r11=r11.tolist(), r20=r20.tolist())


# ---- exact rank, positivity and the frame-change law by explicit loops -------
# The library answers all three with one row reduction (linalg.row_basis) and
# one einsum (frames.transform_torsion).  The routes below are the ones those
# replaced: fraction-free elimination, cofactor determinants and the
# transformation law summed entry by entry.

def bareiss_rank(rows):
    """Rank of an exact matrix by Bareiss fraction-free elimination."""
    m = [list(r) for r in rows]
    nrow = len(m)
    if nrow == 0:
        return 0
    ncol = len(m[0])
    rank = 0
    prev = EC.one()
    for col in range(ncol):
        piv = next((r for r in range(rank, nrow) if not m[r][col].is_zero()), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrow):
            for c in range(col + 1, ncol):
                m[r][c] = (p * m[r][c] - m[r][col] * m[rank][c]) / prev
            m[r][col] = EC.zero()
        prev = p
        rank += 1
        if rank == nrow:
            break
    return rank


def cofactor_det(rows):
    """Determinant of an exact square matrix by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    acc = EC.zero()
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def sylvester_positive_definite(rows):
    """Sylvester's criterion: every leading principal minor is real and positive."""
    for k in range(1, len(rows) + 1):
        det = cofactor_det([r[:k] for r in rows[:k]])
        if not (det.im == 0 and det.re > 0):
            return False
    return True


def transform_frame_loop(g, P):
    """(C', D') of the unitary frame e'_i = sum_s P_{is} e_s, summed entry by
    entry: C'^j_{ik} = sum conj(P_{jt}) P_{ib} P_{kc} C^t_{bc} over i < k,
    mirrored below, and D'^j_{ik} = sum P_{it} conj(P_{jb}) P_{kc} D^b_{tc}."""
    n = g.n
    zero = EC.zero() if g.exact else 0j
    C = [[[zero] * n for _ in range(n)] for _ in range(n)]
    D = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                acc_c = acc_d = zero
                for t in range(n):
                    for b in range(n):
                        for c in range(n):
                            acc_c = acc_c + conj(P[j][t]) * P[i][b] * P[k][c] * g.C[t][b][c]
                            acc_d = acc_d + P[i][t] * conj(P[j][b]) * P[k][c] * g.D[b][t][c]
                if i < k:
                    C[j][i][k] = acc_c
                    C[j][k][i] = -acc_c
                D[j][i][k] = acc_d
    return C, D
