"""Independent oracles shared by the test modules: finite differences, closed
forms, and the jet route to point curvature."""

from fractions import Fraction

import numpy as np

from btpgeo.charts import ChartMetric
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
