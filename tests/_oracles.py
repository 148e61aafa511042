"""Independent oracles shared by the test modules: finite differences, the
flag metric evaluated directly, closed forms, the flat and the Fubini-Study
reference metrics, chart tables and operands read as arrays, the jet route
to point curvature, the chart tables by numpy.einsum on the metric's
operands as arrays, the reciprocal and coordinate jets
built through the validating jet constructor and the conjugate with a
generator per monomial, the flag and Fubini-Study metric jets by chains of
jet operations, two routes to the Levi-Civita curvature, sectional and
Ricci curvature by explicit sums, the tuple-keyed form kernel, the special
frame, Takagi factorization and frame change of one torsion or matrix at a
time, the Lie-side tables by dense n^3 loops, the classify stages by their
full computations (the solvability series with every spanning vector
reduced, each curvature entry as a difference of forms), the row reduction
and solvability series on dense vectors, direct sums of algebras, algebras
built from dense cubes of structure constants, the form wire-format reader,
jet derivatives and truncation, the command-line parser built on argparse,
and report tables expanded to the nested lists they stand for."""

import argparse
import itertools
import sys
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

import numpy as np

from btpgeo import charts, lie
from btpgeo.cli import COMMANDS, EXIT_USAGE
from btpgeo.charts import (ChartMetric, _coords, chern_curvature_at, chern_torsion_at,
                           riemannian_curvature_at)
from btpgeo.forms import InvariantForm, exterior_d
from btpgeo.frames import (FramePatternError, NotBalancedError, _admissible_u, antisymmetric,
                           dense, summed)
from btpgeo.jets import (Jet2, JetSingularityError, _jet, _reciprocal_terms, _sum,
                         jet_matrix_inverse)
from btpgeo.linalg import NumericError, ShapeError, matrix_inverse
from btpgeo.scalars import (EC, EXACT, FLOAT, DimensionError, JsonTable, common_kind,
                            scalar_from_json, scalar_to_json)


# ---- chart tables as arrays ----------------------------------------------------
# A float chart metric holds complex128 arrays; an exact one holds maps
# {index tuple: nonzero ExactComplex}.  The oracles and tests below read
# either as an array of the metric's kind.

def as_array(t, rank, n=3):
    """A chart table as an array of its kind: a float array as it is, an exact
    map {index tuple: nonzero entry} filled into an object array of exact zeros."""
    if isinstance(t, np.ndarray):
        return t
    a = np.full((n,) * rank, EC.zero(), object)
    for k, c in t.items():
        a[k] = c
    return a


_RANKS = {"chern_torsion_at": 3, "chern_curvature_at": 4, "ricci_forms_at": 2,
          "btp_residual_at": 4, "riemannian_curvature_at": 4}


def arrays(fn, m):
    """fn(m) for one of the chart table functions, each table ``as_array``."""
    got, rank = fn(m), _RANKS[fn.__name__]
    if isinstance(got, tuple):
        return tuple(as_array(t, rank, m.n) for t in got)
    return as_array(got, rank, m.n)


def metric_arrays(m):
    """G, Ginv, dg, dgb, hh, ha and gam of a chart metric, each ``as_array``."""
    return SimpleNamespace(**{name: as_array(getattr(m, name), rank, m.n) for name, rank in (
        ("G", 2), ("Ginv", 2), ("dg", 3), ("dgb", 3), ("hh", 4), ("ha", 4), ("gam", 3))})


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


def wallach_metric_values(z, sigma_scale: float = 1.0) -> np.ndarray:
    """The flag-threefold metric components g_{i jbar} at a chart point, by
    direct complex arithmetic: independent of the jet machinery, and the
    function that the finite-difference checks of charts.wallach_metric
    differentiate."""
    z1, z2, z3 = complex(z[0]), complex(z[1]), complex(z[2])
    al = 1 + abs(z1) ** 2 + abs(z2) ** 2
    f = z2 + z1 * z3
    be = 1 + abs(z3) ** 2 + abs(f) ** 2
    al_d = np.array([np.conj(z1), np.conj(z2), 0.0])
    al_dd = np.diag([1.0, 1.0, 0.0]).astype(complex)
    f_d = np.array([z3, 1.0, z1])
    be_d = np.array([0, 0, np.conj(z3)]).astype(complex) + f_d * np.conj(f)
    be_dd = np.array([[f_d[i] * np.conj(f_d[j]) + (1.0 if i == j == 2 else 0.0)
                       for j in range(3)] for i in range(3)])
    g = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            g[i, j] = al_dd[i, j] / al - al_d[i] * np.conj(al_d[j]) / al ** 2 \
                + be_dd[i, j] / be - be_d[i] * np.conj(be_d[j]) / be ** 2
    sig = np.zeros((3, 3), dtype=complex)
    sig[0, 0] = abs(z3) ** 2
    sig[0, 1] = z3
    sig[1, 0] = np.conj(z3)
    sig[1, 1] = 1.0
    return g - sigma_scale * sig / (al * be)


def euclidean_metric(n=3, kind=EXACT):
    """The flat metric g_{i jbar} = delta_ij as constant jets of either kind."""
    return ChartMetric(n, [[Jet2.constant(n, kind.one) if i == j else Jet2(n, kind=kind)
                            for j in range(n)] for i in range(n)], label="euclidean")


def fubini_study_metric(n=3, kind=EXACT, point=None):
    """g = Hess log(1 + |z|^2), the Kaehler reference case (zero torsion),
    built as ``charts.wallach_metric`` builds the flag metric: one map of
    coefficients per entry over the jet kernels, at a point read by the kind."""
    Z, Zb = _coords(n, [kind.read(p) for p in ([0] * n if point is None else point)], kind)
    one = {(): kind.one}
    alinv = _reciprocal_terms(_sum((1, one), *((1, Z[k], Zb[k]) for k in range(n))), kind)
    g = [[_jet(n, _sum(*([(1, one, alinv)] if i == j else []),
                       (-1, _sum((1, _sum((1, Zb[i], Z[j])), alinv)), alinv)), kind)
          for j in range(n)] for i in range(n)]
    return ChartMetric(n, g, label="fubini_study")


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

def jet_coefficients_loop(m):
    """G, dg, dgb, hh and ha of a chart metric as nested lists, entry by
    entry through Jet2.deriv: G[i][j] = g_{i jbar}, and dg[i][j][k],
    dgb[i][j][k], hh[i][j][k][p], ha[i][j][k][l] its derivatives along z_k,
    zbar_k, z_k z_p and z_k zbar_l."""
    rng = range(m.n)
    d = lambda i, j, holo=(), anti=(): m.kind.scalar(m.g[i][j].deriv(holo, anti))
    return ([[d(i, j) for j in rng] for i in rng],
            [[[d(i, j, (k,)) for k in rng] for j in rng] for i in rng],
            [[[d(i, j, (), (k,)) for k in rng] for j in rng] for i in rng],
            [[[[d(i, j, (k, p)) for p in rng] for k in rng] for j in rng] for i in rng],
            [[[[d(i, j, (k,), (l,)) for l in rng] for k in rng] for j in rng] for i in rng])


def _first_derivs_loop(m):
    n = m.n
    return [[[m.kind.scalar(m.g[i][j].deriv(holo=(k,))) for k in range(n)]
             for j in range(n)] for i in range(n)]


def jet_partial(j, v):
    """The derivative of a jet with respect to variable v (degree <= 1)."""
    acc = {}
    for m, c in j.terms.items():      # each m with v leaves its own rest
        if v in m:
            rest = list(m)
            rest.remove(v)
            acc[tuple(rest)] = c * 2 if m == (v, v) else c
    return Jet2._of(j.n, acc, j.kind)


def jet_truncate(j, max_degree):
    """The jet without its coefficients above the given total degree."""
    return Jet2._of(j.n, {m: c for m, c in j.terms.items() if len(m) <= max_degree},
                    j.kind)


def torsion_jets(m):
    """T^j_{ik} as degree-1 jets: (G_{k l, i} - G_{i l, k}) G^{-1}_{l j}."""
    n = m.n
    G = [[m.g[i][j] for j in range(n)] for i in range(n)]
    Ginv = jet_matrix_inverse(G)
    tj = [[[None] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                acc = Jet2(n, kind=m.kind)
                for l in range(n):
                    acc = acc + (jet_partial(G[k][l], i) - jet_partial(G[i][l], k)) * Ginv[l][j]
                tj[j][i][k] = jet_truncate(acc, 1)
    return tj


def torsion_loop(m):
    """T[j][i][k], summed entry by entry with the inverse base metric."""
    n = m.n
    dg = _first_derivs_loop(m)
    ginv = matrix_inverse(jet_coefficients_loop(m)[0], m.kind)
    T = [[[None] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                acc = m.kind.zero
                for l in range(n):
                    acc = acc + (dg[k][l][i] - dg[i][l][k]) * ginv[l][j]
                T[j][i][k] = acc
    return T


def chern_curvature_loop(m):
    """Rc[k][l][i][j] = -g_{i jbar, k lbar}
    + sum_{p,q} g_{i pbar, k} conj(g_{j qbar, l}) g^{pbar q}."""
    n = m.n
    dg = _first_derivs_loop(m)
    ginv = matrix_inverse(jet_coefficients_loop(m)[0], m.kind)
    Rc = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    acc = -m.kind.scalar(m.g[i][j].deriv(holo=(k,), anti=(l,)))
                    for p in range(n):
                        for q in range(n):
                            acc = acc + dg[i][p][k] * dg[j][q][l].conjugate() * ginv[p][q]
                    Rc[k][l][i][j] = acc
    return Rc


def btp_residual_loop(m):
    """res_h[l][i][j][k] and res_a[l][i][j][k], from the jets of torsion_jets,
    with Gam[l][r][i] = sum_s g_{l sbar, i} g^{sbar r} and
    A[r][l][i] = sum_{p,s} g_{i pbar} conj(T^p_{ls}) g^{sbar r}."""
    n = m.n
    dg = _first_derivs_loop(m)
    g0 = jet_coefficients_loop(m)[0]
    ginv = matrix_inverse(g0, m.kind)
    tj = torsion_jets(m)
    T = [[[m.kind.scalar(tj[j][i][k].value()) for k in range(n)]
          for i in range(n)] for j in range(n)]
    zero = m.kind.zero
    Gam = [[[sum((dg[l][s][i] * ginv[s][r] for s in range(n)), zero) for i in range(n)]
            for r in range(n)] for l in range(n)]
    A = [[[sum((g0[i][p] * T[p][l][s].conjugate() * ginv[s][r]
                for p in range(n) for s in range(n)), zero) for i in range(n)]
          for l in range(n)] for r in range(n)]
    res_h = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    res_a = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    rhs = zero
                    for r in range(n):
                        rhs = rhs + Gam[l][r][i] * T[j][r][k] \
                            + Gam[l][r][k] * T[j][i][r] \
                            - Gam[l][j][r] * T[r][i][k]
                    res_h[l][i][j][k] = m.kind.scalar(tj[j][i][k].deriv(holo=(l,))) - rhs
                    rhs = zero
                    for r in range(n):
                        rhs = rhs + T[j][i][r] * A[r][l][k] \
                            - T[j][k][r] * A[r][l][i] \
                            - T[r][i][k] * A[j][l][r]
                    res_a[l][i][j][k] = m.kind.scalar(tj[j][i][k].deriv(anti=(l,))) - rhs
    return res_h, res_a


def ricci_traces_loop(m, Rc):
    """ric1[k][l] = sum Rc[k][l][i][p] g^{pbar i}, ric2[i][j] = sum
    Rc[k][l][i][j] g^{lbar k} and ric3[k][j] = sum Rc[k][l][i][j] g^{lbar i},
    summed entry by entry."""
    n = m.n
    ginv = matrix_inverse(jet_coefficients_loop(m)[0], m.kind)
    zero = m.kind.zero
    rng = range(n)
    ric1 = [[sum((Rc[k][l][i][p] * ginv[p][i] for i in rng for p in rng), zero)
             for l in rng] for k in rng]
    ric2 = [[sum((Rc[k][l][i][j] * ginv[l][k] for k in rng for l in rng), zero)
             for j in rng] for i in rng]
    ric3 = [[sum((Rc[k][l][i][j] * ginv[l][i] for l in rng for i in rng), zero)
             for j in rng] for k in rng]
    return ric1, ric2, ric3


def _skew(d):
    """S[i,k,l,...] = d[k,l,i,...] - d[i,l,k,...]."""
    rest = range(3, d.ndim)
    return d.transpose(2, 0, 1, *rest) - d.transpose(0, 2, 1, *rest)


def _torsion_derivative_einsum(a, d, h):
    """D[j,i,k,m] = partial_m T^j_{ik} = sum_l (h_{k l i m} - h_{i l k m})
    g^{lbar j} + sum_l (g_{k lbar, i} - g_{i lbar, k}) partial_m g^{lbar j}."""
    dginv = -np.einsum("lbm,bj->ljm", np.einsum("la,abm->lbm", a.Ginv, d), a.Ginv)
    return (np.einsum("iklm,lj->jikm", _skew(h), a.Ginv)
            + np.einsum("ikl,ljm->jikm", _skew(a.dg), dginv))


def chart_tables_einsum(m):
    """Every chart table of m by ``numpy.einsum`` on the metric's operands
    as arrays (``metric_arrays``: object arrays of ExactComplex for an exact
    metric), as a dict of
    arrays: gam, the torsion T, the Chern curvature Rc, the Ricci tensors
    ric1, ric2, ric3, the residuals res_h, res_a and the Levi-Civita pair
    r11, r20, with the index layouts of the library's tables."""
    a = metric_arrays(m)
    gam = np.einsum("lsi,sr->lri", a.dg, a.Ginv)
    T = np.einsum("ikl,lj->jik", _skew(a.dg), a.Ginv)
    Rc = np.einsum("iqk,jql->klij", gam, np.conj(a.dg)) - a.ha.transpose(2, 3, 0, 1)
    ric = [np.einsum(spec, Rc, a.Ginv) for spec in ("klip,pi->kl", "klij,lk->ij", "klij,li->kj")]
    A = np.einsum("ils,sr->rli", np.einsum("ip,pls->ils", a.G, np.conj(T)), a.Ginv)
    res_h = (np.einsum("jikl->lijk", _torsion_derivative_einsum(a, a.dg, a.hh))
             - np.einsum("lri,jrk->lijk", gam, T) - np.einsum("lrk,jir->lijk", gam, T)
             + np.einsum("ljr,rik->lijk", gam, T))
    res_a = (np.einsum("jikl->lijk", _torsion_derivative_einsum(a, a.dgb, a.ha))
             - np.einsum("jir,rlk->lijk", T, A) + np.einsum("jkr,rli->lijk", T, A)
             + np.einsum("rik,jlr->lijk", T, A))
    half = m.kind.scalar(Fraction(1, 2))
    P = (np.einsum("kpi->pik", a.dg) + np.einsum("ipk->pik", a.dg)) * half
    Q = (np.einsum("ipk->pik", a.dgb) - np.einsum("ikp->pik", a.dgb)) * half
    U = np.einsum("qp,plj->qlj", a.Ginv, np.conj(Q))
    V = np.einsum("qp,plj->qlj", a.Ginv, np.conj(P))
    r20 = (np.einsum("qlj,qik->ijkl", U, P) - np.einsum("pjk,pli->ijkl", P, U)
           - (np.einsum("iljk->ijkl", a.hh) - np.einsum("jlik->ijkl", a.hh)) * half)
    r11 = (np.einsum("qlj,qki->klij", V, P) - np.einsum("pil,pjk->klij", Q, U)
           - np.einsum("qli,qkj->klij", U, Q)
           - (np.einsum("kjil->klij", a.ha) + np.einsum("ilkj->klij", a.ha)) * half)
    return {"gam": gam, "T": T, "Rc": Rc, "ric1": ric[0], "ric2": ric[1], "ric3": ric[2],
            "res_h": res_h, "res_a": res_a, "r11": r11, "r20": r20}


# ---- two routes to the Levi-Civita curvature ---------------------------------
# The library reads r11 and r20 from the Christoffel formula written in the
# coordinates (z, zbar), with the lowered symbols of the real metric in
# closed form.  The first route below is that formula over all 2n
# coordinates, entry by entry from the jets; the second is the formula the
# library used before, which holds only for parallel torsion at g(0) = I.

def levi_civita_full(m):
    """R[A,B,C,D] of the real metric in the 2n coordinates (z_1..z_n,
    zbar_1..zbar_n), where the metric pairs z_a with zbar_b through
    g_{a bbar} and with nothing else:
    R_abcd = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
             + g^ef (Gamma_e,bc Gamma_f,ad - Gamma_e,bd Gamma_f,ac),
    Gamma_e,bc = 1/2 (g_eb,c + g_ec,b - g_bc,e), every derivative read
    through Jet2.deriv.  r11 and r20 are -1 times its (k, lbar, i, jbar) and
    (i, j, k, lbar) blocks."""
    n, kind = m.n, m.kind
    rng = range(2 * n)
    zero = Jet2(n, kind=kind)

    def d(A, B, *vs):
        jet = m.g[A][B - n] if A < n <= B else m.g[B][A - n] if B < n <= A else zero
        return kind.scalar(jet.deriv([v for v in vs if v < n], [v - n for v in vs if v >= n]))

    g = [[d(A, B) for B in rng] for A in rng]
    dg = np.array([[[d(A, B, C) for C in rng] for B in rng] for A in rng], kind.dtype)
    ddg = np.array([[[[d(A, B, C, D) for D in rng] for C in rng] for B in rng] for A in rng],
                   kind.dtype)
    ginv = np.array(matrix_inverse(g, kind), kind.dtype)
    half = kind.scalar(Fraction(1, 2))
    gam = (dg + np.einsum("ecb->ebc", dg) - np.einsum("bce->ebc", dg)) * half
    raised = np.einsum("ef,fad->ead", ginv, gam)
    return ((np.einsum("adbc->abcd", ddg) + np.einsum("bcad->abcd", ddg)
             - np.einsum("acbd->abcd", ddg) - np.einsum("bdac->abcd", ddg)) * half
            + np.einsum("ebc,ead->abcd", gam, raised) - np.einsum("ebd,eac->abcd", gam, raised))


def real_metric(m):
    """The 2n x 2n matrix of the real metric in the coordinates (z, zbar)."""
    zero, G = np.full((m.n, m.n), m.kind.zero, m.kind.dtype), metric_arrays(m).G
    return np.block([[zero, G], [G.T, zero]])


def riemannian_parallel_torsion(m):
    """(r11, r20) from torsion and Chern curvature, valid where the torsion
    is parallel and g(0) = I:
    R_{i j k lbar} = 1/4 sum_r ( T^l_{ri} T^r_{jk} - T^l_{rj} T^r_{ik} ),
    R_{k lbar i jbar} = 1/2 ( R^c_{i lbar k jbar} + R^c_{k jbar i lbar} )
        + 1/4 sum_r ( T^r_{ik} conj(T^r_{jl}) - T^j_{kr} conj(T^i_{lr})
                      - T^l_{ir} conj(T^k_{jr}) )."""
    T, Rc = arrays(chern_torsion_at, m), arrays(chern_curvature_at, m)
    Tc = np.conj(T)
    quarter, half = m.kind.scalar(Fraction(1, 4)), m.kind.scalar(Fraction(1, 2))
    r20 = (np.einsum("lri,rjk->ijkl", T, T) - np.einsum("lrj,rik->ijkl", T, T)) * quarter
    r11 = ((np.einsum("ilkj->klij", Rc) + np.einsum("kjil->klij", Rc)) * half
           + (np.einsum("rik,rjl->klij", T, Tc) - np.einsum("jkr,ilr->klij", T, Tc)
              - np.einsum("lir,kjr->klij", T, Tc)) * quarter)
    return r11, r20


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


# ---- jets through the validating constructor -----------------------------------
# The library builds the conjugate, the reciprocal's constant jets and the
# coordinate jets from canonical keys, unchecked.  These take the longer
# route, with the same operations in the same order: the constant and
# coordinate jets through the validating constructor (Jet2.constant,
# jet_variable and +), the conjugate with a generator per monomial.

def jet_variable(n, v, kind=EXACT):
    """The coordinate jet of variable v (z_{v+1} for v < n, zbar_{v-n+1}
    else), through the validating constructor."""
    return Jet2(n, {(v,): kind.one})


def jet_norm_inf(j):
    """The largest modulus of a jet's coefficients, 0.0 for the zero jet."""
    return max((abs(c) for c in j.terms.values()), default=0.0)


def jet_conj_checked(j):
    """The conjugate jet: z_i and zbar_i swap, coefficients conjugate."""
    n = j.n
    out = {}
    for m, c in j.terms.items():
        m = tuple(v + n if v < n else v - n for v in m)
        if len(m) == 2 and m[0] > m[1]:      # only a z zbar pair swaps order
            m = (m[1], m[0])
        out[m] = c.conjugate()
    return Jet2._of(n, out, j.kind)


def jet_reciprocal_checked(j):
    """1/j as (1 - u + u^2) / c0 with u = (j - c0) / c0."""
    c0 = j.terms.get(())
    if not c0:
        raise JetSingularityError("jet has zero constant term")
    one = j.kind.one
    u = (j - Jet2.constant(j.n, c0)).scale(one / c0)
    out = Jet2.constant(j.n, one) - u + u * u
    return out.scale(one / c0)


def coords_checked(n, point, kind):
    """Coordinate jets Z_i = p_i + w_i and their conjugates."""
    Z, Zb = [], []
    for i in range(n):
        base = Jet2.constant(n, point[i])
        Z.append(base + jet_variable(n, i, kind))
        Zb.append(base.conj() + jet_variable(n, n + i, kind))
    return Z, Zb


def wallach_metric_chain(point=None, kind=EXACT, sigma_scale=1):
    """The flag metric's jets g_{i jbar} as a 3 x 3 grid, built by a chain of
    jet operations, each sum, difference and product its own jet, from the
    coordinate, conjugate and reciprocal jets of the validating route
    (``coords_checked``, ``jet_conj_checked``, ``jet_reciprocal_checked``).
    ``charts.wallach_metric`` builds every quantity as one map of
    coefficients over the jet kernels instead."""
    n = 3
    sscale, *point = map(kind.read, [sigma_scale, *([0] * n if point is None else point)])
    Z, Zb = coords_checked(n, point, kind)
    zero = Jet2(n, kind=kind)
    one = Jet2.constant(n, kind.one)
    al = one + Z[0] * Zb[0] + Z[1] * Zb[1]
    f = Z[1] + Z[0] * Z[2]
    fb = jet_conj_checked(f)
    f_d = [Z[2], one, Z[0]]
    z3z3b = Z[2] * Zb[2]
    be = one + z3z3b + f * fb
    alinv, beinv = jet_reciprocal_checked(al), jet_reciprocal_checked(be)
    f_be = [d * beinv for d in f_d]
    u = [Zb[0] * alinv, Zb[1] * alinv, zero]
    v = [f_be[i] * fb + (Zb[2] * beinv if i == 2 else zero) for i in range(3)]
    ub, vb, f_db = ([jet_conj_checked(x) for x in w] for w in (u, v, f_d))
    s = (alinv * beinv).scale(sscale)
    sigma = {(0, 0): z3z3b, (0, 1): Z[2], (1, 1): one}
    g = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            gij = (f_be[i] * f_db[j] - u[i] * ub[j] - v[i] * vb[j]
                   - sigma.get((i, j), zero) * s)
            if i == j:
                gij = gij + (alinv if i < 2 else beinv)
            else:
                g[j][i] = jet_conj_checked(gij)
            g[i][j] = gij
    return g


def fubini_study_chain(n=3, kind=EXACT, point=None):
    """The Fubini-Study jets g_{i jbar} = Hess log(1 + |z|^2) as an n x n grid,
    built by a chain of jet operations as ``wallach_metric_chain``."""
    Z, Zb = coords_checked(n, [kind.read(p) for p in ([0] * n if point is None else point)],
                           kind)
    al = Jet2.constant(n, kind.one)
    for k in range(n):
        al = al + Z[k] * Zb[k]
    alinv = jet_reciprocal_checked(al)
    return [[(Jet2.constant(n, kind.one) if i == j else Jet2(n, kind=kind)) * alinv
             - Zb[i] * Z[j] * alinv * alinv for j in range(n)] for i in range(n)]


# ---- the frame route: change the chart frame, extract, transform back ---------
# The library extracts residuals and Ricci traces at any base value.  The
# route below is the one it replaced: a constant linear change of chart
# coordinates that makes the base value the identity, extraction there, and
# the tensor transformation law back to the original frame.

def substitute_linear(jet, M):
    """The jet under the linear change of variables w_a = sum_i M[a][i] w'_i,
    with conj(M) acting on the antiholomorphic variables."""
    n = jet.n

    def expand(v):
        if v < n:
            return [(i, M[v][i]) for i in range(n)]
        return [(n + i, M[v - n][i].conjugate()) for i in range(n)]

    acc = {}

    def put(mono, c):
        if not c:
            return
        mono = tuple(sorted(mono))
        acc[mono] = acc[mono] + c if mono in acc else c

    for mono, c in jet.terms.items():
        if len(mono) == 0:
            put((), c)
        elif len(mono) == 1:
            for w, f in expand(mono[0]):
                put((w,), c * f)
        else:
            for w1, f1 in expand(mono[0]):
                for w2, f2 in expand(mono[1]):
                    put((w1, w2), c * f1 * f2)
    return Jet2(n, acc, jet.kind)


def change_frame(m, A):
    """Metric jets under the constant linear coordinate change z = A z':
    ghat_{i jbar} = sum_{a,b} A_{a i} conj(A_{b j}) g_{a bbar}, with the chart
    variables substituted accordingly."""
    n = m.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Jet2(n, kind=m.kind)
            for a in range(n):
                for b in range(n):
                    coef = A[a][i] * A[b][j].conjugate()
                    if coef:
                        acc = acc + substitute_linear(m.g[a][b], A).scale(coef)
            row.append(acc)
        out.append(row)
    return ChartMetric(n, out, label=f"{m.label}~frame")


def orthonormalizing_frame(m):
    """A with A^T g(0) conj(A) = identity, from the Cholesky factor of the
    float base value g(0)."""
    g0 = np.array([[complex(e) for e in r] for r in metric_arrays(m).G])
    return np.linalg.inv(np.linalg.cholesky(g0)).T.tolist()


def orthonormalize_base(m):
    """The float metric in a constant frame where g(0) is the identity."""
    return change_frame(m, orthonormalizing_frame(m))


# index types of the chart tensors, one letter per axis: "c" covariant,
# "b" covariant along zbar, "u" contravariant
TENSOR_TYPES = {"torsion": "ucc", "chern": "cbcb", "ricci": "cb",
                "res_h": "ccuc", "res_a": "bcuc"}


def transform_tensor(t, types, A):
    """A chart tensor of m as a tensor of change_frame(m, A): each covariant
    index contracts with A[a][i], each zbar index with conj(A[a][i]), each
    contravariant index with inv(A)[j][d]."""
    exact = isinstance(A[0][0], EC)
    dtype = object if exact else complex
    A = np.array(A, dtype)
    Ainv = np.array(matrix_inverse(A.tolist(), EXACT if exact else FLOAT), dtype)
    mats = {"c": A, "b": np.conj(A), "u": Ainv.T}
    t = np.array(t, dtype)
    for axis, kind in enumerate(types):
        t = np.moveaxis(np.tensordot(t, mats[kind], axes=([axis], [0])), -1, axis)
    return t.tolist()


def frame_route(m, fn, types):
    """fn(m) by the frame route: fn at the orthonormalized float metric, whose
    base value is the identity, transformed back to the frame of m.  ``fn``
    returns a tuple of tensors with the index types ``types``."""
    A = orthonormalizing_frame(m)
    back = np.linalg.inv(np.array(A)).tolist()
    return tuple(transform_tensor(t, ty, back)
                 for t, ty in zip(fn(orthonormalize_base(m)), types))


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


def sectional_numerator_loop(m, X, Y):
    """-2 R_{X Xb Y Yb} + 4 R_{X Yb Y Xb} - 2 Re R_{X Yb X Yb}
    - 4 Re ( R_{X Y X Yb} - R_{X Y Y Xb} ) of m's Levi-Civita tables for one
    pair of directions given as scalars of the data's kind: a float, or a
    Fraction, where an exact value that is not real raises ArithmeticError."""
    r11, r20 = arrays(riemannian_curvature_at, m)
    Xb = [x.conjugate() for x in X]
    Yb = [y.conjugate() for y in Y]
    t1 = _contract(r11, X, Xb, Y, Yb)
    t2 = _contract(r11, X, Yb, Y, Xb)
    t3 = _contract(r11, X, Yb, X, Yb)
    e = _contract(r20, X, Y, X, Yb) - _contract(r20, X, Y, Y, Xb)
    if not m.kind.exact:
        return (-2 * t1 + 4 * t2).real - 2 * t3.real - 4 * e.real
    total = -2 * t1 + 4 * t2 - 2 * EC(t3.re) - 4 * EC(e.re)
    if total.im != 0:
        raise ArithmeticError("expected a real exact value")
    return total.re


def ricci_frame_sum(m, X):
    """Ricci curvature of x = X + conj(X) where G = I: the sectional
    numerators of x with each of the 2n frame directions e_i, i e_i (squared
    length 2), summed and divided by |x|^2 = 2 |X|^2."""
    n = m.n
    zero, one, i = (EC.zero(), EC.one(), EC.i()) if m.kind.exact else (0j, 1 + 0j, 1j)
    total = 0
    for k in range(n):
        for unit in (one, i):
            Y = [zero] * n
            Y[k] = unit
            total = total + sectional_numerator_loop(m, X, Y)
    x2 = 2 * sum((x * x.conjugate()).re if m.kind.exact else abs(x) ** 2 for x in X)
    return total / 2 / x2


class TablesAtIdentity:
    """Stands in for a chart metric whose base value G is the identity and
    whose Levi-Civita pair is the given (r11, r20): the pair is put in the
    memo that ``scalars.memoized`` reads, so ``charts.riemannian_curvature_at``
    hands it out, and the sectional and Ricci curvature read it, as they
    would a metric's, through the engine of the kind (exact tables as maps
    of their nonzero entries)."""

    def __init__(self, r11, r20, kind):
        n = self.n = len(r11)
        self.kind = kind
        eye = np.array([[kind.one if a == b else kind.zero for b in range(n)]
                        for a in range(n)], kind.dtype)
        engine = charts._Sparse if kind.exact else charts._Dense
        self._t = engine(n, ({(a, a): kind.one for a in range(n)}, {}, {}, {}, {}), eye)
        self.G, self.Ginv = self._t.G, self._t.Ginv
        if kind.exact:
            r11, r20 = ({k: c for k, c in np.ndenumerate(t) if c} for t in (r11, r20))
        self._memo = {riemannian_curvature_at: (r11, r20)}


def random_curvature_tables(rng, exact, hermitian, n=3):
    """Random r11 and r20 tables as arrays, in a ``TablesAtIdentity``.

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
    return TablesAtIdentity(r11, r20, EXACT if exact else FLOAT)


# ---- exact rank, inverse, positivity and the frame-change law by loops -------
# The library answers the first three with one row reduction
# (linalg.row_basis) and the last with one einsum (frames.transform_torsion).
# The routes below are the ones those replaced: fraction-free elimination,
# Gauss-Jordan with row exchanges, cofactor determinants and the
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


def exact_solve_identity(mat):
    """Inverse of a square exact matrix by Gauss-Jordan; raises on singular."""
    n = len(mat)
    a = [list(r) + [EC.one() if i == j else EC.zero() for j in range(n)]
         for i, r in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ShapeError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [e / p for e in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [e - f * g for e, g in zip(a[r], a[col])]
    return [row[n:] for row in a]


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
    zero = g.kind.zero
    gC, gD = cube(g, g.C), cube(g, g.D)
    C = [[[zero] * n for _ in range(n)] for _ in range(n)]
    D = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                acc_c = acc_d = zero
                for t in range(n):
                    for b in range(n):
                        for c in range(n):
                            acc_c = acc_c + P[j][t].conjugate() * P[i][b] * P[k][c] * gC[t][b][c]
                            acc_d = acc_d + P[i][t] * P[j][b].conjugate() * P[k][c] * gD[b][t][c]
                if i < k:
                    C[j][i][k] = acc_c
                    C[j][k][i] = -acc_c
                D[j][i][k] = acc_d
    return C, D


def regauge(g, P):
    """The Hermitian Lie algebra of g in the coframe P phi, for any invertible
    P (the metric changes with the frame unless P is unitary), by the law
    written with P and P^-1 (``linalg.matrix_inverse``):
        C'^i_{jk} = sum P_ia C^a_{bc} (P^-1)_bj (P^-1)_ck,
        conj(D'^j_{ik}) = sum P_ia conj(D^b_{ac}) (P^-1)_bj conj((P^-1)_ck).
    The result is validated (d^2 = 0) on construction."""
    P = np.array(P, g.kind.dtype)
    Q = matrix_inverse(P, g.kind)
    C = np.einsum("ia,abc,bj,ck->ijk", P, cube(g, g.C), Q, Q, optimize=True)
    Dbar = np.einsum("ia,bac,bj,ck->jik", P, np.conj(cube(g, g.D)), Q,
                     np.conj(Q), optimize=True)
    return from_cubes(g.n, C.tolist(), np.conj(Dbar).tolist(), label=f"{g.label}~regauged")


def so_complex(m):
    """so(m, C) in the basis L_ab = E_ab - E_ba (a < b, in lexicographic
    order), declared unitary, with D = 0 and
        [L_ij, L_kl] = d_jk L_il - d_ik L_jl - d_jl L_ik + d_il L_jk,
    where L_ba = -L_ab and L_aa = 0: a complex Lie algebra of dimension
    n = m(m - 1)/2, simple for m = 3 and m >= 5."""
    pairs = list(itertools.combinations(range(m), 2))
    index = {p: x for x, p in enumerate(pairs)}
    n = len(pairs)
    C = [[[EC(0)] * n for _ in range(n)] for _ in range(n)]
    for x, (i, j) in enumerate(pairs):
        for y, (k, l) in enumerate(pairs):
            for delta, a, b, s in ((j == k, i, l, 1), (i == k, j, l, -1),
                                   (j == l, i, k, -1), (i == l, j, k, 1)):
                if delta and a != b:
                    z, sign = (index[a, b], 1) if a < b else (index[b, a], -1)
                    C[z][x][y] += EC(s * sign)
    D = [[[EC(0)] * n for _ in range(n)] for _ in range(n)]
    return from_cubes(n, C, D, label=f"so{m}")


def cayley_unitary(A):
    """U = (I - A)(I + A)^-1 for a skew-hermitian exact A: an exact unitary
    over Q(i), as I + A is invertible when A^H = -A."""
    A = np.array(A, object)
    eye = np.array([[EC(int(i == j)) for j in range(len(A))] for i in range(len(A))], object)
    return (eye - A) @ matrix_inverse(eye + A, EXACT)


def ad_gram(g):
    """M2[x][y] = tr(ad_x ad_y^*) over the complexified bracket table in the
    basis (e, ebar) (``lie.real_bracket_table``), where ad_x[m][z] is the
    coefficient of b_m in [b_x, b_z] and ^* is the conjugate transpose.  A
    unitary frame change acts on (e, ebar) by diag(U, conj(U)), so the power
    traces of M2 are frame invariants."""
    table = lie.real_bracket_table(g)
    dim = len(table)
    ad = [{(m, z): c for z in range(dim) for m, c in table[x][z]} for x in range(dim)]
    return [[sum((c * ad[y][k].conjugate() for k, c in ad[x].items() if k in ad[y]),
                 g.kind.zero) for y in range(dim)] for x in range(dim)]


def killing_form(g):
    """K[x][y] = tr(ad_x ad_y) over the complexified bracket table in the
    basis (e, ebar) (``lie.real_bracket_table``), ad_x as in ``ad_gram``.  A
    unitary frame change W = diag(U, conj(U)) takes K to W K W^T, so the power
    traces of K K^* are frame invariants."""
    table = lie.real_bracket_table(g)
    dim = len(table)
    ad = [{(m, z): c for z in range(dim) for m, c in table[x][z]} for x in range(dim)]
    return [[sum((c * ad[y][z, m] for (m, z), c in ad[x].items() if (z, m) in ad[y]),
                 g.kind.zero) for y in range(dim)] for x in range(dim)]


def power_traces(M, powers):
    """tr M^p for p = 1..powers, by repeated products of nested lists."""
    dim = len(M)
    P, out = M, []
    for _ in range(powers):
        out.append(sum((P[i][i] for i in range(1, dim)), P[0][0]))
        P = [[sum((P[i][k] * M[k][j] for k in range(1, dim)), P[i][0] * M[0][j])
              for j in range(dim)] for i in range(dim)]
    return out


# ---- the tuple-keyed form kernel ---------------------------------------------
# The form layer keys each monomial by a bit mask and takes every sign from
# one pair-count rule.  The routes below are the ones it replaced: a merge of
# index tuples with a running sign, an inversion count over the substituted
# factors, and the Leibniz rule with explicit monomials before and after each
# differentiated factor.  They read forms through ``coeff`` only.

def form_monomials(f):
    """((I, J), c) for every nonzero coefficient of f, in (I, J) order."""
    subsets = [c for k in range(f.n + 1) for c in itertools.combinations(range(f.n), k)]
    for I in subsets:
        for J in subsets:
            c = f.coeff(I, J)
            if c:
                yield (I, J), c


def form_from_json(n, items):
    """The form of its JSON wire format, 1-based (phi, phibar) index lists
    and a coefficient per term, through the validating constructor."""
    return InvariantForm(n, {(tuple(i - 1 for i in it["phi"]), tuple(j - 1 for j in it["phibar"])):
                             scalar_from_json(it["coef"]) for it in items})


def merge_sign(a, b):
    """Merge two strictly increasing tuples; return (sign, merged) or None.

    The sign is the parity of the shuffle putting a+b into increasing order;
    a repeated index collapses the product to zero (returns None).
    """
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i factors of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def wedge_merge(a, b):
    """a ^ b by merging the phi and the phibar tuples separately; moving
    phi_I2 over phibar_J1 costs (-1)^(|J1| |I2|)."""
    acc = {}
    for (I1, J1), c1 in form_monomials(a):
        for (I2, J2), c2 in form_monomials(b):
            mi = merge_sign(I1, I2)
            mj = merge_sign(J1, J2)
            if mi is None or mj is None:
                continue
            sign = mi[0] * mj[0] * (-1) ** (len(J1) * len(I2))
            m = (mi[1], mj[1])
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            acc[m] = acc[m] + c if m in acc else c
    return InvariantForm(a.n, acc)


def swap_indices_inversions(f, S):
    """phi_i <-> phibar_i for i in S, signed by counting the inversions of
    the substituted factors one pair at a time."""
    S = set(S)
    out = {}
    for (I, J), c in form_monomials(f):
        factors = [(0, i) for i in I] + [(1, j) for j in J]
        subbed = [((1 - t, i) if i in S else (t, i)) for t, i in factors]
        key = [t * f.n + i for t, i in subbed]
        sign = 1
        for a in range(len(key)):
            for b in range(a + 1, len(key)):
                if key[a] > key[b]:
                    sign = -sign
        m = (tuple(sorted(i for t, i in subbed if t == 0)),
             tuple(sorted(i for t, i in subbed if t == 1)))
        cc = c if sign > 0 else -c
        out[m] = out[m] + cc if m in out else cc
    return InvariantForm(f.n, out)


def exterior_d_leibniz(ctx, a):
    """d(a) by the graded Leibniz rule: for each factor, the monomial before
    it, its derivative and the monomial after it, wedged by ``wedge_merge``."""
    n = a.n
    out = InvariantForm.zero(n)
    for (I, J), c in form_monomials(a):
        factors = [(0, i) for i in I] + [(1, j) for j in J]
        for t, (bar, idx) in enumerate(factors):
            dfac = ctx.d_phi(idx).conj() if bar else ctx.d_phi(idx)
            before, after = factors[:t], factors[t + 1:]
            pre = InvariantForm.monomial(
                n, [i for k, i in before if k == 0], [i for k, i in before if k == 1],
                ctx.kind.one)
            post = InvariantForm.monomial(
                n, [i for k, i in after if k == 0], [i for k, i in after if k == 1],
                ctx.kind.one)
            term = wedge_merge(wedge_merge(pre, dfac), post)
            out = out + term.scale(c if t % 2 == 0 else -c)
    return out


# ---- the two-path torsion normal forms ------------------------------------------
# ``frames`` builds the special and admissible torsion shapes once and reads
# the scalar kind of a triple once.  The routines below are the ones it
# replaced: an exact body and a float body per routine, and the torsion
# patterns checked entry by entry against hand-written expected values.

def _exact_triple(a):
    return all(isinstance(x, (EC, Fraction, int)) and not isinstance(x, bool) for x in a)


def special_to_admissible_two_path(a):
    """(U, T') as ``frames.special_to_admissible``; FramePatternError off
    the pattern."""
    a1, a2, a3 = a
    if isinstance(a1, (EC, Fraction, int)) and not isinstance(a1, bool):
        vals = [x if isinstance(x, EC) else EC(Fraction(x), 0) for x in (a1, a2, a3)]
        if not (vals[0] == vals[1] and not vals[0].is_zero() and vals[2].is_zero()
                and vals[0].im == 0 and vals[0].re > 0):
            raise FramePatternError("middle-type pattern needs a_1 = a_2 > 0 = a_3")
        av = vals[0]
        T = [[[EC.zero() for _ in range(3)] for _ in range(3)] for _ in range(3)]
        T[0][0][2] = av
        T[0][2][0] = -av
        T[1][1][2] = -av
        T[1][2][1] = av
        return _admissible_u(), T
    a1, a2, a3 = float(a1), float(a2), float(a3)
    scale = max(a1, 1.0)
    if not (abs(a1 - a2) <= 1e-9 * scale and a1 > 1e-9 * scale and abs(a3) <= 1e-9 * scale):
        raise FramePatternError("middle-type pattern needs a_1 = a_2 > 0 = a_3")
    T = np.zeros((3, 3, 3), dtype=complex)
    T[0][0][2] = a1
    T[0][2][0] = -a1
    T[1][1][2] = -a1
    T[1][2][1] = a1
    return _admissible_u(), T


def b_rank_type_two_path(a, tol=1e-8):
    """The label of ``frames.b_rank_type``; FramePatternError if unsorted."""
    if _exact_triple(a):
        vals = [Fraction(x.re) if isinstance(x, EC) else Fraction(x) for x in a]
        if sorted(vals, reverse=True) != vals or any(v < 0 for v in vals):
            raise FramePatternError("triple must be sorted descending and nonnegative")
        eq01, eq12 = vals[0] == vals[1], vals[1] == vals[2]
        z = [v == 0 for v in vals]
    else:
        vals = [float(x) for x in a]
        s = max(1.0, vals[0])
        z = [abs(v) <= tol * s for v in vals]
        snapped = [0.0 if zz else v for v, zz in zip(vals, z)]
        if any(v < 0 for v in snapped) or snapped[0] < snapped[1] - tol * s \
                or snapped[1] < snapped[2] - tol * s:
            raise FramePatternError("triple must be sorted descending and nonnegative")
        eq01 = abs(snapped[0] - snapped[1]) <= tol * s
        eq12 = abs(snapped[1] - snapped[2]) <= tol * s
    if all(z):
        return "kahler"
    if eq01 and eq12 and not z[2]:
        return "rank3"
    if eq01 and z[2] and not z[1]:
        return "rank2"
    if z[1] and z[2] and not z[0]:
        return "rank1"
    return "excluded_by_classification"


def vaisman_torsion_pattern_loop(g):
    """(matches, a) as ``lie.vaisman_torsion_pattern``, entry by entry of the
    dense torsion."""
    n, T, kind = g.n, chern_torsion_dense(g), g.kind
    a = T[0][0][n - 1]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                expected = kind.zero
                if j == i and k == n - 1 and i < n - 1:
                    expected = a
                elif j == k and i == n - 1 and k < n - 1:
                    expected = -a
                if not kind.negligible(T[j][i][k] - expected):
                    return False, None
    positive = kind.negligible(a.imag) and not kind.negligible(a.real) and a.real > 0
    return (positive, a if positive else None)


def admissible_pattern_loop(T):
    """Whether ``lie.pluriclosed_obstruction`` accepts the torsion T (n = 3):
    zero, or T^1_{13} = -T^1_{31} = -T^2_{23} = T^2_{32} = a != 0 and every
    other entry zero, by the exact zero test ``not c``."""
    if all(not c for l in T for r in l for c in r):
        return True
    a = T[0][0][2]
    pattern = {(0, 0, 2): a, (0, 2, 0): -a, (1, 1, 2): -a, (1, 2, 1): a}
    return bool(a) and all(
        not T[j][i][k] - pattern.get((j, i, k), 0)
        for j in range(3) for i in range(3) for k in range(3))


# ---- the special frame one torsion at a time ------------------------------------
# ``frames.build_special_frame``, ``frames.transform_torsion`` and
# ``linalg.takagi_factorize`` take stacks over leading axes.  The bodies below
# are the ones they replaced, which took one torsion or matrix: a list
# comprehension per cyclic entry, a Python loop over the Takagi columns, and
# the closing check against the special-frame torsion of the recovered triple.

_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def transform_torsion_one(T, P):
    """``frames.transform_torsion`` of one torsion and one unitary."""
    arrT, arrP = np.asarray(T, complex), np.asarray(P, complex)
    if np.max(np.abs(arrP @ arrP.conj().T - np.eye(len(arrP)))) > 1e-10:
        raise ValueError("P must be unitary within tolerance")
    return np.einsum("ia,jb,kc,abc->ijk", arrP.conj(), arrP, arrP, arrT)


def takagi_factorize_one(A, tol=1e-10):
    """(U, d) of ``linalg.takagi_factorize`` for one square matrix."""
    a = np.asarray(A, complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("takagi_factorize needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise NumericError("non-finite entries")
    if np.max(np.abs(a - a.T)) > max(tol, 1e-12) * max(1.0, np.max(np.abs(a))):
        raise ShapeError("matrix is not symmetric within tolerance")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    s = np.linalg.svd(a, compute_uv=False)
    scale = max(s[0], 1.0) if len(s) else 1.0
    rank = int(np.sum(s > 1e-12 * scale))
    w, V = np.linalg.eigh(np.block([[a.real, a.imag], [a.imag, -a.real]]))
    cols, d = [], []
    for idx in np.argsort(-w, kind="stable")[:rank]:
        cols.append(V[:n, idx] + 1j * V[n:, idx])
        d.append(float(w[idx]))
    if rank < n:
        _, _, Vh = np.linalg.svd(a)
        for k in range(rank, n):
            cols.append(Vh[k])
            d.append(0.0)
    Q = np.column_stack(cols)
    if rank < n:
        Qpos, null = Q[:, :rank], Q[:, rank:]
        null, _ = np.linalg.qr(null - Qpos @ (Qpos.conj().T @ null))
        Q = np.column_stack([Qpos, null])
    U = Q.T
    raw = np.asarray(A, complex)
    lhs = U.conj() @ raw @ U.conj().T
    if np.max(np.abs(lhs - np.diag(d))) > tol * max(1.0, np.max(np.abs(raw))) \
            or np.max(np.abs(U @ U.conj().T - np.eye(n))) > tol:
        raise NumericError("Takagi residual exceeded tolerance")
    return U, tuple(d)


def cyclic_torsion(a):
    """The special-frame torsion of a triple a: T^i_{jk} = -T^i_{kj} = a_i
    for (i j k) cyclic and zero elsewhere, as an array of a's kind."""
    kind = common_kind(a)
    entries = antisymmetric((*c, kind.scalar(x)) for c, x in zip(_CYCLES, a))
    return dense(3, summed(entries, kind), kind)


def _cyclic_one(arr):
    return np.array([arr[i][j][k] for i, j, k in _CYCLES])


def _phase_fix_one(arr):
    cyc = _cyclic_one(arr)
    scale = max(np.max(np.abs(cyc)), 1.0)
    args = np.array([np.angle(c) if abs(c) > 1e-14 * scale else 0.0 for c in cyc])
    theta = (args - np.sum(args)) / 2.0
    return np.diag(np.exp(1j * theta))


def build_special_frame_one(T):
    """(U, a) of ``frames.build_special_frame`` for one torsion."""
    arr = np.asarray(T, complex)
    if arr.shape != (3, 3, 3):
        raise DimensionError("special frames are a threefold construction")
    eta = np.einsum("ssi->i", arr)
    bound = 1e-9 * max(np.max(np.abs(arr)), 1.0)
    if np.max(np.abs(eta)) > bound:
        raise NotBalancedError(f"torsion is not balanced: |eta| = {np.max(np.abs(eta)):.3e}")
    A = np.array([arr[:, j, k] for _, j, k in _CYCLES])
    U1 = takagi_factorize_one(A, tol=1e-9)[0]
    cur = transform_torsion_one(arr, U1)
    U2 = _phase_fix_one(cur)
    cur = transform_torsion_one(cur, U2)
    P = np.identity(3)[np.argsort(-_cyclic_one(cur).real, kind="stable")]
    cur = transform_torsion_one(cur, P)
    U4 = _phase_fix_one(cur)
    cur = transform_torsion_one(cur, U4)
    U = U4 @ P @ U2 @ U1
    cyc = _cyclic_one(cur)
    a = tuple(float(x) for x in cyc.real)
    if np.max(np.abs(cur - cyclic_torsion(cyc))) > bound or min(a) < -bound \
            or not (a[0] >= a[1] - bound >= a[2] - 2 * bound):
        raise RuntimeError("special-frame normalization failed its invariants")
    return U, a


# ---- the Lie-side tables by dense n^3 loops ----------------------------------------------
# The library holds C, D and T as maps of their nonzero entries and reads
# those alone; these walk every index of the dense tensors, read through
# ``cube``, and add in the same order.

def _cells(n):
    return itertools.product(range(n), repeat=3)


def cube(g, X):
    """The map X of g (g.C, g.D or lie.chern_torsion(g)) as dense n x n x n
    nested lists of g's scalars, by ``frames.dense``."""
    return dense(g.n, X, g.kind).tolist()


def nonzero_entries(X):
    """The map {(j, i, k): X^j_{ik}} of the nonzero cells of a dense
    n x n x n tensor, in index order."""
    return {(j, i, k): X[j][i][k] for j, i, k in _cells(len(X)) if X[j][i][k]}


def from_cubes(n, C, D, label="", validate=True):
    """The algebra of dense n x n x n cubes C[j][i][k] and D[j][i][k], C
    antisymmetric in (i, k): their one scalar kind (``common_kind``, so
    cubes of two kinds raise TypeError), and the read-only maps of their
    nonzero cells as scalars of it, in index order, given to
    ``lie.HermitianLieAlgebra``."""
    kind = common_kind([c for X in (C, D) for layer in X for r in layer for c in r])
    C, D = (MappingProxyType({key: kind.scalar(c) for key, c in nonzero_entries(X).items()})
            for X in (C, D))
    return lie.HermitianLieAlgebra(n, kind, C, D, label=label, validate=validate)


def d_phi_dense(g):
    """d phi_i by the structure equation, every (j, k) in turn."""
    n, C, D = g.n, cube(g, g.C), cube(g, g.D)
    out = []
    for i in range(n):
        t = {}
        for j in range(n):
            for k in range(n):
                if j < k and C[i][j][k]:
                    t[((j, k), ())] = -C[i][j][k]
                if D[j][i][k]:
                    t[((j,), (k,))] = -D[j][i][k].conjugate()
        out.append(InvariantForm(n, t) if t else InvariantForm.zero(n, g.kind))
    return out


def chern_torsion_dense(g):
    """T^j_{ik} = -C^j_{ik} - D^j_{ik} + D^j_{ki} for every j and i < k, and
    T^j_{ki} = -T^j_{ik}, as nested tuples."""
    n, C, D = g.n, cube(g, g.C), cube(g, g.D)
    T = [[[g.kind.zero] * n for _ in range(n)] for _ in range(n)]
    for j, i, k in _cells(n):
        if i < k:
            v = -C[j][i][k] - D[j][i][k] + D[j][k][i]
            T[j][i][k], T[j][k][i] = v, -v
    return tuple(tuple(map(tuple, layer)) for layer in T)


def connection_dense(kind, *tensors):
    """theta_{ij} = sum_k ( X^j_{ik} phi_k - conj(X^i_{jk}) phibar_k ) over the
    dense tensors X, each k in turn, the phi_k term first."""
    n = len(tensors[0])

    def entry(i, j):
        f = InvariantForm.zero(n, kind)
        for X in tensors:
            for k in range(n):
                if X[j][i][k]:
                    f = f + InvariantForm.phi(n, k, X[j][i][k])
                if X[i][j][k]:
                    f = f - InvariantForm.phibar(n, k, X[i][j][k].conjugate())
        return f
    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def b_tensor_dense(T, kind):
    """B_{i jbar} = sum over every (r, s) of T^j_{rs} conj(T^i_{rs})."""
    n = len(T)
    return tuple(tuple(sum((T[j][r][s] * T[i][r][s].conjugate()
                            for r in range(n) for s in range(n)), kind.zero)
                       for j in range(n)) for i in range(n))


def gauduchon_eta_dense(T, kind):
    """eta = sum_i ( sum_s T^s_{si} ) phi_i, every s in turn."""
    n = len(T)
    return InvariantForm(n, {((i,), ()): sum((T[s][s][i] for s in range(n)), kind.zero)
                             for i in range(n)}, kind)


def check_unimodular_dense(g):
    """sum_k ( C^k_{ki} + D^k_{ki} ) = 0 for every i, every k in turn."""
    C, D = cube(g, g.C), cube(g, g.D)
    for i in range(g.n):
        acc = g.kind.zero
        for k in range(g.n):
            acc = acc + C[k][k][i] + D[k][k][i]
        if not g.kind.negligible(acc):
            return False
    return True


def algebra_json_dense(g):
    """``HermitianLieAlgebra.to_json`` over every index: C with i < k, all of D."""
    def dump(T, anti):
        return [{"j": j + 1, "i": i + 1, "k": k + 1, "coef": scalar_to_json(T[j][i][k])}
                for j, i, k in _cells(g.n) if T[j][i][k] and not (anti and i >= k)]
    return {"n": g.n, "C": dump(cube(g, g.C), True), "D": dump(cube(g, g.D), False),
            "label": g.label}


# ---- classify stages by their full computations ------------------------------------------
# The library keeps a sparse bracket table, reads [g, g] straight from it,
# brackets only pairs i < j in the derived series, takes tr Theta^b as
# d(tr theta^b), and sums only the parallel-torsion residuals with i < k.
# The functions below expand the dense table and compute every product, the
# full curvature matrix and all 27 residuals.

def real_bracket_table_dense(g):
    """Brackets of the basis (e_1..e_n, ebar_1..ebar_n) as dense coefficient
    vectors: table[x][y] is the tuple expanding [b_x, b_y]."""
    n, C, D = g.n, cube(g, g.C), cube(g, g.D)
    zeros = (g.kind.zero,) * n
    table = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = tuple(C[k][i][j] for k in range(n)) + zeros
            table[n + i][n + j] = zeros + tuple(C[k][i][j].conjugate() for k in range(n))
            table[i][n + j] = (tuple(D[i][k][j].conjugate() for k in range(n))
                               + tuple(-D[j][k][i] for k in range(n)))
            table[n + j][i] = tuple(-c for c in table[i][n + j])
    return tuple(map(tuple, table))


def row_basis_dense(vectors, kind, max_rank=None):
    """``linalg.row_basis`` on dense vectors: each exact vector is copied
    whole, reduced entry by entry by the basis rows before it and scanned
    for its first nonzero entry; float vectors are ranked by singular values
    at their full width.  The rows returned are dense lists."""
    if kind.exact:
        basis = []
        reducers = []
        for v in vectors:
            v = list(v)
            for piv, b_nz in reducers:
                if v[piv]:
                    f = v[piv] / b_nz[0][1]
                    for i, y in b_nz:
                        v[i] = v[i] - f * y
            nz = [i for i, c in enumerate(v) if c]
            if nz:
                v = list(map(kind.scalar, v))
                basis.append(v)
                reducers.append((nz[0], [(i, v[i]) for i in nz]))
                if len(basis) == max_rank:
                    break
        return basis
    arr = np.array([[complex(c) for c in v] for v in vectors], dtype=complex)
    if arr.size == 0:
        return []
    try:
        u, s, vh = np.linalg.svd(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericError(str(exc)) from exc
    rank = int(np.sum(s > max(s[0], 1.0) * 1e-10)) if len(s) else 0
    return [list(vh[r]) for r in range(rank)]


def _dense_series(g, reduce):
    """The lower central and derived series on dense 2n-vectors, each
    reduction done by ``reduce(vectors, kind, bound)``; the bound is the rank
    of the term before."""
    table = lie.real_bracket_table(g)
    dim = len(table)
    kind = g.kind

    def combination(terms):
        w = [kind.zero] * dim
        for c, x, y in terms:
            for m, tm in table[x][y]:
                w[m] = w[m] + c * tm
        return w

    def nonzeros(basis):
        return [[(y, c) for y, c in enumerate(w) if c] for w in basis]

    def lower_central(basis):
        nz = nonzeros(basis)
        return (combination((wy, x, y) for y, wy in w) for x in range(dim) for w in nz)

    def derived(basis):
        nz = nonzeros(basis)
        return (combination((ux * vy, x, y) for x, ux in u for y, vy in v if table[x][y])
                for i, u in enumerate(nz) for v in nz[i + 1:])

    brackets = (dict(w) for x, row in enumerate(table) for w in row[x + 1:] if w)
    first = reduce(([b.get(m, kind.zero) for m in range(dim)] for b in brackets), kind, dim)

    def series(next_term):
        size, cur = dim, first
        for steps in range(1, dim + 1):
            if not cur:
                return steps
            if len(cur) == size:
                return None
            size, cur = len(cur), reduce(next_term(cur), kind, len(cur))
        return None

    return series(lower_central), series(derived)


def solvability_profile_dense(g):
    """(nilpotent_steps, solvable_steps) as ``lie.solvability_profile``, with
    every spanning vector a dense 2n-vector reduced by ``row_basis_dense``,
    each exact reduction stopped at the rank of the term before."""
    return _dense_series(g, row_basis_dense)


def _bracket_span_all_pairs(table, U, V, kind):
    """Basis of span{ [u, v] : u in U, v in V }, every pair multiplied out."""
    dim = len(table)
    sparse = [[[(m, c) for m, c in enumerate(table[x][y]) if c]
               for y in range(dim)] for x in range(dim)]
    prods = []
    for u in U:
        u_nz = [(x, ux) for x, ux in enumerate(u) if ux]
        for v in V:
            v_nz = [(y, vy) for y, vy in enumerate(v) if vy]
            w = [kind.zero] * dim
            for x, ux in u_nz:
                row = sparse[x]
                for y, vy in v_nz:
                    c = ux * vy
                    for m, tm in row[y]:
                        w[m] = w[m] + c * tm
            prods.append(w)
    return row_basis_dense(prods, kind)


def solvability_profile_all_pairs(g):
    """(nilpotent_steps, solvable_steps) as ``lie.solvability_profile``, with
    each term of both series the span of all products of the one before."""
    table = real_bracket_table_dense(g)
    dim = 2 * g.n
    full = [[g.kind.one if i == j else g.kind.zero for j in range(dim)]
            for i in range(dim)]

    def series(next_term):
        cur, steps = full, 0
        while cur:
            steps += 1
            nxt = next_term(cur)
            if len(nxt) == len(cur):
                return None
            cur = nxt
        return steps

    return (series(lambda cur: _bracket_span_all_pairs(table, full, cur, g.kind)),
            series(lambda cur: _bracket_span_all_pairs(table, cur, cur, g.kind)))


def solvability_profile_full_reduction(g):
    """(nilpotent_steps, solvable_steps) as ``lie.solvability_profile``, with
    every spanning vector of each term generated and reduced, where the
    library stops a reduction at the rank of the term before."""
    return _dense_series(g, lambda vectors, kind, _: row_basis_dense(list(vectors), kind))


def direct_sum(g1, g2):
    """g1 + g2 with the orthogonal sum of their metrics: g2's structure
    constants shifted by g1.n, after g1's, so still in index order; no
    bracket between the summands."""
    n1 = g1.n
    C, D = (MappingProxyType({**X1, **{(n1 + j, n1 + i, n1 + k): c
                                       for (j, i, k), c in X2.items()}})
            for X1, X2 in ((g1.C, g2.C), (g1.D, g2.D)))
    return lie.HermitianLieAlgebra(n1 + g2.n, g1.kind, C, D, label=f"{g1.label}+{g2.label}")


def curvature_by_form_differences(ctx, theta):
    """Theta_ij = d theta_ij - theta_i0 ^ theta_0j - theta_i1 ^ theta_1j - ...,
    each wedge an invariant form subtracted as a form."""
    n = len(theta)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            f = exterior_d(ctx, theta[i][j])
            for k in range(n):
                f = f - theta[i][k].wedge(theta[k][j])
            row.append(f)
        out.append(tuple(row))
    return tuple(out)


def btp_residuals_triple_loop(T, tb):
    """All n^3 parallel-torsion residuals, each summed term by term."""
    n = len(T)
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                f = InvariantForm.zero(n)
                for r in range(n):
                    if T[j][r][k]:
                        f = f + tb[i][r].scale(T[j][r][k])
                    if T[j][i][r]:
                        f = f + tb[k][r].scale(T[j][i][r])
                    if T[r][i][k]:
                        f = f - tb[r][j].scale(T[r][i][k])
                out[(i, j, k)] = f
    return out


def bismut_trace_full_curvature(g):
    """tr Theta^b from the full Bismut curvature matrix."""
    return lie.trace(lie.curvature_of(g, lie.bismut_connection(g)))


def first_chern_ricci(g):
    """sqrt(-1) tr Theta (Chern) by d(tr theta), as tr(theta ^ theta) = 0."""
    return exterior_d(g, lie.trace(lie.chern_connection(g))).scale(g.kind.i)


def is_skew_hermitian(mat, kind):
    """Whether a connection or curvature matrix has entry(i, j) =
    -conj(entry(j, i)), by the zero test of the kind."""
    n = len(mat)
    return all(kind.negligible(c) for i in range(n) for j in range(n)
               for c in (mat[i][j] + mat[j][i].conj()).terms.values())


# ---- the command-line parser on argparse ---------------------------------------
# the argparse parsers of the command table, laid out at the terminal's width,
# as cli once built them for every argv; main read an option given as
# '--opt=--', which argparse stores as an empty list, as
# "error: --opt needs a value"

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    """The top-level parser: a command of COMMANDS, then that command's argv."""
    listing = "".join(f"\n  {name:<11}{c.help}" for name, c in COMMANDS.items())
    p = _Parser(prog="btpgeo", formatter_class=argparse.RawDescriptionHelpFormatter,
                description="verification engine for parallel-Bismut-torsion "
                            "Hermitian geometry",
                epilog=f"commands:{listing}\n\n'btpgeo <command> --help' lists the options of one.")
    p.add_argument("command", choices=COMMANDS, help="one of the commands below")
    # required=False: a missing command alone is the usage error, as with subparsers
    p.add_argument("args", nargs=argparse.REMAINDER, help="the command's options").required = False
    return p


def _command_parser(name: str) -> _Parser:
    p = _Parser(prog=f"btpgeo {name}")
    for flag, kwargs in COMMANDS[name].options:
        p.add_argument(flag, **kwargs)
    return p


# ---- report tables as nested lists -------------------------------------------

def _nest(flat, shape):
    if not shape:
        return flat[0]
    step = len(flat) // shape[0] if shape[0] else 0
    return [_nest(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


def expanded(value):
    """value with each JsonTable replaced by the nested lists of its leaves,
    built by slicing its flat leaves row by row: the document that
    json.dumps writes as the table's text."""
    kind = type(value)
    if kind is JsonTable:
        size = 1
        for n in value.shape:
            size *= n
        assert len(value.flat) == size, (value.shape, len(value.flat))
        return _nest(list(value.flat), value.shape)
    if kind is dict:
        return {k: expanded(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [expanded(v) for v in value]
    return value
