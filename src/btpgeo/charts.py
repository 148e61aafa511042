"""Pointwise Hermitian geometry from coordinate-chart metrics via 2-jets.

A ChartMetric holds the components g_{i jbar} of a Hermitian metric as
Wirtinger 2-jets at a base point.  Torsion, Chern curvature, the three Chern
Ricci tensors, the parallel-torsion residuals and the Levi-Civita curvature
are extracted from jet coefficients at any positive-definite base value G,
and so are the sectional and Ricci curvature.

The constructor reads the coefficients once, into read-only arrays of the
metric's kind (complex128, or object arrays of ExactComplex, whose sums do
not depend on their order) that it keeps as attributes: G, G^{-1}, the
first and second jet coefficients dg, dgb, hh, ha and the Chern Christoffel
symbols Gamma[l,r,i] = sum_s g_{l sbar, i} g^{sbar r}.  Torsion, Chern
curvature and residuals are einsums of them, the Ricci tensors trace Rc with
G^{-1}; each table, the Levi-Civita pair (r11, r20) included, is built once
per metric (scalars.memoized).  The public functions hand out these
read-only arrays themselves, so a write to one raises.  The derivative of
the torsion T^j_{ik} = sum_l (g_{k lbar, i} - g_{i lbar, k}) g^{lbar j} is
taken in closed form:
partial_m T^j_{ik} = sum_l (g_{k lbar, im} - g_{i lbar, km}) g^{lbar j}
    + sum_l (g_{k lbar, i} - g_{i lbar, k}) partial_m g^{lbar j},
with partial_m G^{-1} = -G^{-1} (partial_m G) G^{-1}, and likewise along
zbar_m.  The residuals combine it with Gamma and with
A[r,l,i] = sum_{p,s} g_{i pbar} conj(T^p_{ls}) g^{sbar r}, so they
transform as tensors under a linear change of chart (btp_residual_at).

Sectional numerators and Ricci curvature run through the same contractions
for both scalar kinds.  The Ricci curvature of x = X + conj(X) traces the
sectional numerator over a g-orthonormal frame {f_s, i f_s}, where
sum_s conj(f_s^l) f_s^i = g^{lbar i}.  Over each pair f_s, i f_s the
R_{X Yb X Yb} term and the Y (x) Y half of the (2,0) term cancel, which
leaves the closed form
    num(X) = Re sum_{a,d} X_a Xb_d (8 sum r11[a,l,i,d] g^{lbar i}
                                    - 4 sum r11[a,d,i,j] g^{jbar i})
             - 8 Re sum_{a,c} X_a X_c sum r20[a,i,c,l] g^{lbar i},
and Ricci(x) = num / 2 / |x|^2 with |x|^2 = 2 X G conj(X).

The built-in metric is the homogeneous metric on the flag threefold sitting
inside P^2 x P^2: with alpha = 1 + |z1|^2 + |z2|^2, f = z2 + z1 z3,
beta = 1 + |z3|^2 + |f|^2, the Kaehler-Einstein part is
gtilde = Hess log(alpha beta) and the metric is g = gtilde - sigma, where
sigma_{i jbar} = (delta_{i1} delta_{j1} |z3|^2 + delta_{i1} delta_{j2} z3
+ delta_{i2} delta_{j1} zbar3 + delta_{i2} delta_{j2}) / (alpha beta).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .jets import Jet2, _jet, jet_matrix_inverse  # noqa: F401  (kept importable from charts)
from .linalg import matrix_inverse, row_basis, sparse_row
from .scalars import EXACT, FLOAT, Kind, all_finite, exact_scalar, memoized, table_to_json

# Planes drawn per block by random_planes; bounds the memory of the stacked
# sectional and Ricci evaluation whatever the sample count.
SAMPLE_BLOCK = 1024


class DegeneratePlaneError(ValueError):
    pass


class ChartMetric:
    """Hermitian metric components g_{i jbar} as 2-jets at a base point.

    The constructor reads the jets once, into read-only arrays of the
    metric's kind: G[i,j] = g_{i jbar} and its inverse Ginv[l,j] = g^{lbar j},
    dg[i,j,k] = partial_k g_{i jbar}, dgb[i,j,k] = partial_kbar g_{i jbar},
    hh[i,j,k,m] = partial_k partial_m g_{i jbar} (doubled on the diagonal,
    as Jet2.deriv), ha[i,j,k,l] = partial_k partial_lbar g_{i jbar} and the
    Chern Christoffel symbols gam[l,r,i] = sum_s g_{l sbar, i} g^{sbar r}.
    """

    __slots__ = ("n", "g", "label", "kind", "G", "Ginv", "dg", "dgb", "hh", "ha", "gam",
                 "_memo")

    def __init__(self, n: int, g, label: str = ""):
        g = tuple(tuple(r) for r in g)
        if [len(r) for r in g] != [n] * n or any(not isinstance(f, Jet2) or f.n != n
                                                 for r in g for f in r):
            raise ValueError(f"metric jets must be an {n} x {n} grid of jets in {n} variables")
        kinds = {f.kind for r in g for f in r}
        if len(kinds) != 1:
            raise TypeError("metric jets must share one scalar kind")
        kind = kinds.pop()
        if not all_finite(c for r in g for f in r for c in f.terms.values()):
            raise ValueError("metric jets must have finite coefficients")
        for i in range(n):
            for j in range(i, n):
                d = g[i][j] - g[j][i].conj()
                if d.is_zero():
                    continue
                # the pair (j, i) has the residual -conj(d), of the same size
                tol = 1e-10 * max(min(g[i][j].norm_inf(), g[j][i].norm_inf()), 1.0)
                if not all(kind.negligible(c, tol) for c in d.terms.values()):
                    raise ValueError("metric jets must be hermitian")
        G, dg, dgb, hh, ha = _jet_coefficients(g, kind)
        if kind.exact:
            # Sylvester: every leading principal minor D_k is positive iff row
            # reduction keeps n rows and row k holds D_k / D_(k-1) > 0 at
            # column k (then, row by row, that entry is its pivot)
            rows = row_basis(map(sparse_row, G), kind)
            positive = len(rows) == n and all(k in r and r[k].im == 0 and r[k].re > 0
                                              for k, r in enumerate(rows))
        else:
            positive = np.linalg.eigvalsh(G).min() > 0
        if not positive:
            raise ValueError("metric must be positive definite at the base point")
        Ginv = _readonly(matrix_inverse(G, kind))
        gam = _readonly(np.einsum("lsi,sr->lri", dg, Ginv))
        for name, value in zip(self.__slots__, (n, g, label, kind, G, Ginv, dg, dgb, hh, ha,
                                                gam, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("ChartMetric is immutable")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _jet_coefficients(g, kind: Kind):
    """The read-only arrays G, dg, dgb, hh and ha of ``ChartMetric`` from
    an n x n grid of jets."""
    n = len(g)
    dg, dgb, hh, ha = (np.full((n,) * r, kind.zero, kind.dtype) for r in (3, 3, 4, 4))
    for i in range(n):
        for j in range(n):
            for mono, c in g[i][j].terms.items():
                if len(mono) == 1:
                    v = mono[0]
                    if v < n:
                        dg[i, j, v] = c
                    else:
                        dgb[i, j, v - n] = c
                elif mono:
                    v, w = mono                  # v <= w
                    if w < n:                    # doubled on the diagonal, as Jet2.deriv
                        hh[i, j, v, w] = hh[i, j, w, v] = c * 2 if v == w else c
                    elif v < n:
                        ha[i, j, v, w - n] = c
    G = np.array([[f.value() for f in row] for row in g], kind.dtype)
    return tuple(map(_readonly, (G, dg, dgb, hh, ha)))


# --------------------------------------------------------------------------
# metric builders
# --------------------------------------------------------------------------

def _builder_kind(exact: bool, values):
    """The kind an ``exact=`` flag names, and builder arguments as its
    scalars.  Exact builders read arguments by ``exact_scalar``, so 0.5 and
    "1/2" are taken exactly."""
    if exact:
        return EXACT, [exact_scalar(v) for v in values]
    return FLOAT, [complex(v) for v in values]


def _coords(n: int, point, kind: Kind):
    """Coordinate jets Z_i = p_i + w_i and their conjugates, for a point
    of n scalars of the kind."""
    if len(point) != n:
        raise ValueError(f"a chart point for n={n} has {n} coordinates, not {len(point)}")
    one = kind.one
    Z = [_jet(n, {(): p, (i,): one}, kind) for i, p in enumerate(point)]
    Zb = [_jet(n, {(): p.conjugate(), (n + i,): one}, kind) for i, p in enumerate(point)]
    return Z, Zb


def euclidean_metric(n: int = 3, exact: bool = True) -> ChartMetric:
    kind, _ = _builder_kind(exact, ())
    one = kind.one
    g = [[Jet2.constant(n, one) if i == j else Jet2(n, kind=kind) for j in range(n)]
         for i in range(n)]
    return ChartMetric(n, g, label="euclidean")


def fubini_study_metric(n: int = 3, exact: bool = True, point=None) -> ChartMetric:
    """g = Hess log(1 + |z|^2): the Kaehler reference case (zero torsion)."""
    kind, point = _builder_kind(exact, [0] * n if point is None else point)
    Z, Zb = _coords(n, point, kind)
    one = kind.one
    al = Jet2.constant(n, one)
    for k in range(n):
        al = al + Z[k] * Zb[k]
    alinv = al.reciprocal()
    g = [[(Jet2.constant(n, one) if i == j else Jet2(n, kind=kind)) * alinv
          - Zb[i] * Z[j] * alinv * alinv for j in range(n)] for i in range(n)]
    return ChartMetric(n, g, label="fubini_study")


def wallach_metric(point=None, exact: bool = True, sigma_scale=1) -> ChartMetric:
    """The flag-threefold metric g = gtilde - sigma as 2-jets at a chart
    point (the origin by default), exact at a point of rational complex
    coordinates or float at any point.  ``sigma_scale`` exists for
    perturbation experiments; the geometric metric is scale 1.
    """
    n = 3
    if point is None:
        point = [0, 0, 0]
    kind, (sscale, *point) = _builder_kind(exact, [sigma_scale, *point])
    Z, Zb = _coords(n, point, kind)
    zero = Jet2(n, kind=kind)
    one = Jet2.constant(n, kind.one)

    # alpha = 1 + |z1|^2 + |z2|^2 and beta = 1 + |z3|^2 + |f|^2, f = z2 + z1 z3
    al = one + Z[0] * Zb[0] + Z[1] * Zb[1]
    f = Z[1] + Z[0] * Z[2]
    fb = f.conj()
    f_d = [Z[2], one, Z[0]]                          # partial_i f
    z3z3b = Z[2] * Zb[2]
    be = one + z3z3b + f * fb
    alinv = al.reciprocal()
    beinv = be.reciprocal()
    f_be = [d * beinv for d in f_d]                  # partial_i f / beta
    u = [Zb[0] * alinv, Zb[1] * alinv, zero]         # partial_i log alpha
    v = [f_be[i] * fb + (Zb[2] * beinv if i == 2 else zero)
         for i in range(3)]                          # partial_i log beta
    ub, vb, f_db = ([x.conj() for x in w] for w in (u, v, f_d))
    s = (alinv * beinv).scale(sscale)                # sigma_scale / (alpha beta)
    sigma = {(0, 0): z3z3b, (0, 1): Z[2], (1, 1): one}

    # g_{i jbar} = partial_i partial_jbar log(alpha beta) - sigma_{i jbar} s for
    # i <= j; the metric is hermitian, so g_{j ibar} is its conjugate
    g = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            gij = (f_be[i] * f_db[j] - u[i] * ub[j] - v[i] * vb[j]
                   - sigma.get((i, j), zero) * s)
            if i == j:
                gij = gij + (alinv if i < 2 else beinv)
            else:
                g[j][i] = gij.conj()
            g[i][j] = gij
    return ChartMetric(3, g, label="wallach")


# --------------------------------------------------------------------------
# pointwise extraction
# --------------------------------------------------------------------------

def _skew(d):
    """S[i,k,l,...] = d[k,l,i,...] - d[i,l,k,...]."""
    rest = range(3, d.ndim)
    return d.transpose(2, 0, 1, *rest) - d.transpose(0, 2, 1, *rest)


def _torsion_derivative(m: ChartMetric, d, h):
    """D[j,i,k,m] = partial_m T^j_{ik} in closed form.

    With d[i,j,m] the derivative of g_{i jbar} along the variable m and
    h[i,j,k,m] the derivative of g_{i jbar, k} along it (hh and dg for z_m,
    ha and dgb for zbar_m):
    D = sum_l ( h_{k l i m} - h_{i l k m} ) g^{lbar j}
        + sum_l ( g_{k lbar, i} - g_{i lbar, k} ) partial_m g^{lbar j},
    where partial_m G^{-1} = -G^{-1} (partial_m G) G^{-1}.
    """
    dginv = -np.einsum("lbm,bj->ljm", np.einsum("la,abm->lbm", m.Ginv, d), m.Ginv)
    return (np.einsum("iklm,lj->jikm", _skew(h), m.Ginv)
            + np.einsum("ikl,ljm->jikm", _skew(m.dg), dginv))


@memoized
def chern_torsion_at(m: ChartMetric):
    """T^j_{ik} = sum_l ( g_{k lbar, i} - g_{i lbar, k} ) g^{lbar j}."""
    return _readonly(np.einsum("ikl,lj->jik", _skew(m.dg), m.Ginv))


@memoized
def chern_curvature_at(m: ChartMetric):
    """R^c_{k lbar i jbar} = -g_{i jbar, k lbar}
    + sum_{p,q} g_{i pbar, k} conj(g_{j qbar, l}) g^{pbar q}."""
    return _readonly(np.einsum("iqk,jql->klij", m.gam, np.conj(m.dg))
                     - m.ha.transpose(2, 3, 0, 1))


@memoized
def ricci_forms_at(m: ChartMetric):
    """First, second and third Chern Ricci tensors as hermitian matrices.

    Index conventions: the first Ricci traces the bundle indices, the second
    traces the direction indices, the third ties direction to bundle, each
    with the inverse base metric:
    ric1[k][l] = sum_{i,p} Rc[k][l][i][p] g^{pbar i},
    ric2[i][j] = sum_{k,l} Rc[k][l][i][j] g^{lbar k},
    ric3[k][j] = sum_{l,i} Rc[k][l][i][j] g^{lbar i}.
    """
    Rc = chern_curvature_at(m)
    return tuple(_readonly(np.einsum(spec, Rc, m.Ginv))
                 for spec in ("klip,pi->kl", "klij,lk->ij", "klij,li->kj"))


@memoized
def btp_residual_at(m: ChartMetric):
    """Residuals of the parallel-torsion identities at any base point.

    With the Chern Christoffel symbols
    Gamma[l,r,i] = sum_s g_{l sbar, i} g^{sbar r} and
    A[r,l,i] = sum_{p,s} g_{i pbar} conj(T^p_{ls}) g^{sbar r}, the
    holomorphic side is  d/dz_l T^j_{ik}
        - sum_r ( Gamma[l,r,i] T^j_{rk} + Gamma[l,r,k] T^j_{ir}
                  - Gamma[l,j,r] T^r_{ik} ),
    the antiholomorphic side  d/dzbar_l T^j_{ik}
        - sum_r ( T^j_{ir} A[r,l,k] - T^j_{kr} A[r,l,i] - T^r_{ik} A[j,l,r] ).
    Where g = identity at the base point, Gamma[l,r,i] = g_{l rbar, i} and
    A[r,l,i] = conj(T^i_{lr}).  Both vanish identically iff the Bismut
    torsion is parallel at the point.  res_h and res_a are indexed
    [l][i][j][k] and transform as tensors under a linear change of chart.
    """
    T = chern_torsion_at(m)
    A = np.einsum("ils,sr->rli", np.einsum("ip,pls->ils", m.G, np.conj(T)), m.Ginv)
    res_h = (np.einsum("jikl->lijk", _torsion_derivative(m, m.dg, m.hh))
             - np.einsum("lri,jrk->lijk", m.gam, T) - np.einsum("lrk,jir->lijk", m.gam, T)
             + np.einsum("ljr,rik->lijk", m.gam, T))
    res_a = (np.einsum("jikl->lijk", _torsion_derivative(m, m.dgb, m.ha))
             - np.einsum("jir,rlk->lijk", T, A) + np.einsum("jkr,rli->lijk", T, A)
             + np.einsum("rik,jlr->lijk", T, A))
    return _readonly(res_h), _readonly(res_a)


@memoized
def riemannian_curvature_at(m: ChartMetric):
    """Levi-Civita curvature of the real metric at the base point, for any
    chart metric at any positive-definite base value, as the read-only pair
    (r11, r20) with r11[k,l,i,j] = R_{k lbar i jbar} and
    r20[i,j,k,l] = R_{i j k lbar}.

    The real metric g(x, y) = 2 Re X G conj(Y) pairs z_a with zbar_b only.
    In the coordinates (z, zbar) its lowered Christoffel symbols are
    P[p,i,k] = Gamma_{pbar,ik} = 1/2 (g_{k pbar, i} + g_{i pbar, k}),
    Q[p,i,k] = Gamma_{pbar,i kbar} = 1/2 (g_{i pbar, kbar} - g_{i kbar, pbar})
    and their conjugates; the rest vanish.  r20 and r11 are -1 times the
    (i, j, k, lbar) and (k, lbar, i, jbar) blocks of
    R_abcd = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
             + g^ef (Gamma_e,bc Gamma_f,ad - Gamma_e,bd Gamma_f,ac);
    with U[q,l,j] = sum_p g^{qbar p} conj(Q[p,l,j]) and V likewise from P,
        R_{i j k lbar} = sum U[q,l,j] P[q,i,k] - sum P[p,j,k] U[p,l,i]
                         - 1/2 (g_{i lbar, jk} - g_{j lbar, ik}),
        R_{k lbar i jbar} = sum V[q,l,j] P[q,k,i] - sum Q[p,i,l] U[p,j,k]
            - sum U[q,l,i] Q[q,k,j] - 1/2 (g_{k jbar, i lbar} + g_{i lbar, k jbar}).
    """
    half = m.kind.scalar(Fraction(1, 2))
    P = (np.einsum("kpi->pik", m.dg) + np.einsum("ipk->pik", m.dg)) * half
    Q = (np.einsum("ipk->pik", m.dgb) - np.einsum("ikp->pik", m.dgb)) * half
    U = np.einsum("qp,plj->qlj", m.Ginv, np.conj(Q))
    V = np.einsum("qp,plj->qlj", m.Ginv, np.conj(P))
    r20 = (np.einsum("qlj,qik->ijkl", U, P) - np.einsum("pjk,pli->ijkl", P, U)
           - (np.einsum("iljk->ijkl", m.hh) - np.einsum("jlik->ijkl", m.hh)) * half)
    r11 = (np.einsum("qlj,qki->klij", V, P) - np.einsum("pil,pjk->klij", Q, U)
           - np.einsum("qli,qkj->klij", U, Q)
           - (np.einsum("kjil->klij", m.ha) + np.einsum("ilkj->klij", m.ha)) * half)
    return _readonly(r11), _readonly(r20)


def point_report(m: ChartMetric):
    """Torsion, Chern curvature, the Ricci tensors and the Levi-Civita pair
    of m at its base point, as JSON."""
    ric1, ric2, ric3 = ricci_forms_at(m)
    r11, r20 = riemannian_curvature_at(m)
    tables = {"torsion": chern_torsion_at(m), "chern_curvature": chern_curvature_at(m),
              "chern_ricci_1": ric1, "chern_ricci_2": ric2, "chern_ricci_3": ric3,
              "riemannian_11": r11, "riemannian_20": r20}
    return {"n": m.n, "scalar_kind": m.kind.name,
            **{name: table_to_json(a) for name, a in tables.items()}}


# --------------------------------------------------------------------------
# sectional and Ricci curvature
# --------------------------------------------------------------------------

_to_exact = np.frompyfunc(EXACT.scalar, 1, 1)


def _directions(m: ChartMetric, X):
    """A direction or stack of directions as an (N, n) array of the data's
    scalar kind, and whether it was a single direction.

    Exact data takes ExactComplex, int and Fraction components; anything
    else raises TypeError.
    """
    arr = np.asarray(X, m.kind.dtype)
    if arr.ndim not in (1, 2) or arr.shape[-1] != m.n:
        raise ValueError(f"direction must have {m.n} components")
    if m.kind.exact:
        arr = _to_exact(arr)
    return arr.reshape(-1, m.n), arr.ndim == 1


def _planes(m: ChartMetric, X, Y):
    X, single = _directions(m, X)
    Y, _ = _directions(m, Y)
    if X.shape != Y.shape:
        raise ValueError("X and Y must hold the same number of directions")
    return X, Y, single


def _real(a):
    """The real values of a 1-d array whose entries are real: floats from
    complex128, where the imaginary part is rounding residue, and Fractions
    from ExactComplex, where a nonzero imaginary part raises ArithmeticError."""
    if a.dtype != object:
        return a.real
    if any(v.im for v in a):
        raise ArithmeticError("expected a real exact value")
    return np.array([v.re for v in a], object)


def _result(vals, single: bool):
    """One Python float or Fraction for a single direction, else the array."""
    return vals.tolist()[0] if single else vals


def _inner(m: ChartMetric, X, Y):
    """X G conj(Y) of each pair of rows; g(x, y) is twice its real part."""
    return np.einsum("ma,ab,mb->m", X, m.G, Y.conj())


def _pairs(A, B):
    """Row-wise outer products A_a B_b, flattened to shape (N, n^2)."""
    return (A[:, :, None] * B[:, None, :]).reshape(len(A), -1)


def _sectional_stack(r11, r20, X, Y):
    """Sectional numerators of the planes spanned by the rows of X, Y, from
    the Levi-Civita tables r11 and r20.

    With each curvature table flattened to an (n^2, n^2) matrix, every term
    of the expansion is a bilinear pairing (A (x) B) R (C (x) D) of two
    row-wise outer products, so the whole stack is contracted at once.  The
    real parts 2 Re z are taken as z + conj(z), in the data's scalar kind.
    """
    nn = X.shape[1] ** 2
    r11, r20 = r11.reshape(nn, nn), r20.reshape(nn, nn)
    Xb, Yb = X.conj(), Y.conj()
    XYb, YXb = _pairs(X, Yb), _pairs(Y, Xb)
    left = XYb @ r11
    t1 = np.einsum("mq,mq->m", _pairs(X, Xb) @ r11, _pairs(Y, Yb))
    t2 = np.einsum("mq,mq->m", left, YXb)
    t3 = np.einsum("mq,mq->m", left, XYb)
    e = np.einsum("mq,mq->m", _pairs(X, Y) @ r20, XYb - YXb)
    return _real(-2 * t1 + 4 * t2 - (t3 + t3.conj()) - 2 * (e + e.conj()))


def sectional_numerator(m: ChartMetric, X, Y):
    """R(x, y, y, x) for x = X + conj(X), y = Y + conj(Y).

    Expands the real 2-plane pairing through the complexified curvature:
    -2 R_{X Xb Y Yb} + 4 R_{X Yb Y Xb} - 2 Re R_{X Yb X Yb}
    - 4 Re ( R_{X Y X Yb} - R_{X Y Y Xb} ); the last group vanishes whenever
    the (2,0)-type components do.

    X and Y are single directions or stacks of directions of shape (N, n).
    A single pair gives a float (float data) or a Fraction (exact data), a
    stack gives a length-N array of them.  An exact value that is not real
    raises ArithmeticError.
    """
    X, Y, single = _planes(m, X, Y)
    return _result(_sectional_stack(*riemannian_curvature_at(m), X, Y), single)


def sectional_curvature(m: ChartMetric, X, Y):
    """Sectional curvature R_{xyyx} / |x ^ y|^2, with the norms and g(x, y)
    taken through G (the numerator alone is ``sectional_numerator``).

    A plane is degenerate when |x ^ y|^2 is zero (exact data) or at most
    1e-14 |x|^2 |y|^2 (float data), a bound that does not depend on the
    scale of x and y.
    """
    X, Y, single = _planes(m, X, Y)
    x2, y2 = 2 * _real(_inner(m, X, X)), 2 * _real(_inner(m, Y, Y))
    w = _inner(m, X, Y)
    xy = _real(w + w.conj())
    den = x2 * y2 - xy * xy
    # the float bound only: exact data stays rational
    tol = None if m.kind.exact else 1e-14 * x2 * y2
    if m.kind.negligible(den, tol).any():
        raise DegeneratePlaneError("x and y span a degenerate plane")
    return _result(_sectional_stack(*riemannian_curvature_at(m), X, Y) / den, single)


def random_planes(rng: np.random.Generator, count: int, n: int):
    """Yield stacks (X, Y) of random complex n-vectors, count planes in all.

    A block of b planes is one normal draw of shape (b, 4, n) holding X.re,
    X.im, Y.re and Y.im of each plane, which consumes the generator's stream
    in the same order as drawing those four n-vectors plane by plane.
    """
    for start in range(0, count, SAMPLE_BLOCK):
        d = rng.normal(size=(min(SAMPLE_BLOCK, count - start), 4, n))
        yield d[:, 0] + 1j * d[:, 1], d[:, 2] + 1j * d[:, 3]


def ricci_curvature(m: ChartMetric, X):
    """Ricci curvature of the real direction x = X + conj(X).

    The trace of the sectional numerators over a g-orthonormal frame
    {f_s, i f_s}, divided by |x|^2, in closed form (see the module
    docstring).  X is a single direction or a stack of shape (N, n); a
    single direction gives a float or a Fraction, a stack an array.
    """
    X, single = _directions(m, X)
    x2 = _real(_inner(m, X, X))
    if (x2 == 0).any():
        raise DegeneratePlaneError("zero direction")
    r11, r20 = riemannian_curvature_at(m)
    # a quarter of num(X) of the module docstring, over X G conj(X) = |x|^2 / 2
    H = 2 * np.einsum("alid,li->ad", r11, m.Ginv) - np.einsum("adij,ji->ad", r11, m.Ginv)
    s = np.einsum("ma,ac,mc->m", X, np.einsum("aicl,li->ac", r20, m.Ginv), X)
    num = np.einsum("ma,ad,md->m", X, H, X.conj()) - (s + s.conj())
    return _result(_real(num) / x2, single)
