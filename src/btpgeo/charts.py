"""Pointwise Hermitian geometry from coordinate-chart metrics via 2-jets.

A ChartMetric holds the components g_{i jbar} of a Hermitian metric as
Wirtinger 2-jets at a base point.  Torsion, Chern curvature, the three Chern
Ricci tensors, the parallel-torsion residuals and the Levi-Civita curvature
are extracted from jet coefficients at any positive-definite base value G,
and so are the sectional and Ricci curvature.

The constructor reads the jet coefficients once (ChartMetric).  Each table is
written once, as einsums of them, built once per metric (scalars.memoized)
and handed out as the same read-only table on every call.  The metric is its
own engine: it supplies the einsum and the other primitives that differ by
kind.  A float metric (``_Dense``) holds complex128 arrays and contracts them
with the np.einsum it binds; an exact metric (``_Sparse``) holds every
quantity, from its jet coefficients to its direction stacks, as a map {index
tuple: nonzero ExactComplex} and contracts by ``tensor.ein``, and its tables
are handed out as read-only views of those maps.  A table built from others
(the Ricci forms, the parallel-torsion residuals) reads them by calling their
builders, so a metric gains nothing after construction but memo entries.
numpy is imported only by the float metric's constructor; ``random_planes``
draws from the numpy generator its caller passes.

Sectional numerators and Ricci curvature run through the same contractions
for both scalar kinds.  The Ricci curvature of x = X + conj(X) traces the
sectional numerator over a g-orthonormal frame {f_s, i f_s}, where
sum_s conj(f_s^l) f_s^i = g^{lbar i}.  Over each pair f_s, i f_s the
R_{X Yb X Yb} term and the Y (x) Y half of the (2,0) term cancel, which
leaves the closed form
    num(X) = Re sum_{a,d} X_a Xb_d (8 sum r11[a,l,i,d] g^{lbar i}
                                    - 4 sum r11[a,d,i,j] g^{jbar i})
             - 8 Re sum_{a,c} X_a X_c sum r20[a,i,c,l] g^{lbar i},
and Ricci(x) = num / 2 / |x|^2 with |x|^2 = 2 X G conj(X); the two inner
sums are the metric's Ricci form, built once per metric.

The built-in metric is the homogeneous metric on the flag threefold sitting
inside P^2 x P^2: with alpha = 1 + |z1|^2 + |z2|^2, f = z2 + z1 z3,
beta = 1 + |z3|^2 + |f|^2, the Kaehler-Einstein part is
gtilde = Hess log(alpha beta) and the metric is g = gtilde - sigma, where
sigma_{i jbar} = (delta_{i1} delta_{j1} |z3|^2 + delta_{i1} delta_{j2} z3
+ delta_{i2} delta_{j1} zbar3 + delta_{i2} delta_{j2}) / (alpha beta).
Its builder takes a ``Kind`` (``EXACT`` by default) and reads its arguments
by its ``read`` (exactly, or by ``complex``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv
from types import MappingProxyType

# jet_matrix_inverse is unused here and no command calls it; it stays
# importable from charts only because the benchmark wraps and reads it here
from .jets import (Jet2, _conj_terms, _jet, _reciprocal_terms, _sum,  # noqa: F401
                   jet_matrix_inverse)
from .linalg import matrix_inverse, row_basis, sparse_row
from .scalars import EXACT, Kind, all_finite, entries_to_json, memoized, table_to_json
from .tensor import Map, conj, ein

# Planes drawn per block by random_planes; bounds the memory of the stacked
# sectional and Ricci evaluation whatever the sample count.
SAMPLE_BLOCK = 1024


class DegeneratePlaneError(ValueError):
    pass


class ChartMetric:
    """Hermitian metric components g_{i jbar} as 2-jets at a base point.

    The constructor reads the jets once and returns a metric of their kind,
    ``_Sparse`` (exact) or ``_Dense`` (float), which is its own engine.  It
    holds read-only tables (complex128 arrays, or maps {index tuple: nonzero
    ExactComplex}): G[i,j] = g_{i jbar} and its inverse Ginv[l,j] = g^{lbar j},
    dg[i,j,k] = partial_k g_{i jbar}, dgb[i,j,k] = partial_kbar g_{i jbar},
    hh[i,j,k,m] = partial_k partial_m g_{i jbar} (doubled on the diagonal,
    as Jet2.deriv), ha[i,j,k,l] = partial_k partial_lbar g_{i jbar} and the
    Chern Christoffel symbols gam[l,r,i] = sum_s g_{l sbar, i} g^{sbar r}.
    It supplies the primitives that differ by kind (``ein``, ``conj``,
    ``table``, ``directions``, ...).  Only ``_memo`` changes after construction.
    """

    __slots__ = ("n", "g", "label", "kind", "G", "Ginv", "dg", "dgb", "hh", "ha", "gam", "_memo")

    def __new__(cls, n: int, g, label: str = ""):
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
                if (h := g[j][i].conj()).terms == g[i][j].terms:
                    continue
                # (j, i) has the conjugate residual; the tolerance scales with the pair
                size = min(max(map(abs, f.terms.values()), default=0.0)
                           for f in (g[i][j], g[j][i]))
                if not all(kind.negligible(c, 1e-10 * max(size, 1.0))
                           for c in (g[i][j] - h).terms.values()):
                    raise ValueError("metric jets must be hermitian")
        base = [[f.value() for f in r] for r in g]
        if kind.exact:
            # Sylvester: every leading principal minor D_k is positive iff row
            # reduction keeps n rows and row k holds D_k / D_(k-1) > 0 at
            # column k (then, row by row, that entry is its pivot)
            rows = row_basis(map(sparse_row, base), kind)
            positive = len(rows) == n and all(k in r and r[k].im == 0 and r[k].re > 0
                                              for k, r in enumerate(rows))
            m, ops = object.__new__(_Sparse), {}
        else:
            import numpy as np
            base = np.array(base)
            positive = np.linalg.eigvalsh(base).min() > 0
            m, ops = object.__new__(_Dense), {"np": np, "ein": np.einsum, "conj": np.conj}
        if not positive:
            raise ValueError("metric must be positive definite at the base point")
        _put(m, n=n, g=g, label=label, kind=kind, _memo={}, **ops)
        G, dg, dgb, hh, ha = map(m.operand, _jet_coefficients(g, kind), (2, 3, 3, 4, 4))
        Ginv = m.matrix(matrix_inverse(base, kind))
        _put(m, G=G, Ginv=Ginv, dg=dg, dgb=dgb, hh=hh, ha=ha,
             gam=m.table(m.ein("lsi,sr->lri", dg, Ginv)))
        return m

    def __setattr__(self, *_):
        raise AttributeError("ChartMetric is immutable")


def _put(m: ChartMetric, **fields):
    """Set the fields of a metric under construction (``__setattr__`` raises)."""
    for name, value in fields.items():
        object.__setattr__(m, name, value)


def _readonly(a):
    a.flags.writeable = False
    return a


def _jet_coefficients(g, kind: Kind):
    """G, dg, dgb, hh and ha of ``ChartMetric`` as maps {index tuple: nonzero scalar}."""
    n = len(g)
    G = {(i, j): c for i, row in enumerate(g) for j, c in enumerate(map(Jet2.value, row)) if c}
    dg, dgb, hh, ha = {}, {}, {}, {}
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
    return G, dg, dgb, hh, ha


class _Sparse(ChartMetric):
    """An exact metric: its operands, tables and direction stacks as maps
    {index tuple: nonzero ExactComplex}, contracted by ``tensor.ein``.

    A stack of N directions is the map {(m, a): X_ma} with its count N, and
    a contraction over the stack is the map {(m,): value}; ``real`` reads it
    as the list of N Fractions, which ``each`` maps entry by entry.
    """

    __slots__ = ()
    ein = staticmethod(ein)
    conj = staticmethod(conj)
    table = staticmethod(MappingProxyType)           # the table handed out
    operand = staticmethod(lambda entries, rank: MappingProxyType(entries))

    @staticmethod
    def matrix(rows):
        return MappingProxyType({(i, j): c for i, r in enumerate(rows)
                                 for j, c in enumerate(r) if c})

    json = lambda self, t, rank: entries_to_json((self.n,) * rank, t)   # noqa: E731

    def directions(self, X):
        """A direction or a sequence of directions as a stack: (the map, the
        count, whether it was a single direction).  Subtracting the exact zero
        makes int and Fraction components ExactComplex, and raises TypeError on
        any other (a bool, float or complex among them)."""
        rows = list(X)
        single = not rows or not hasattr(rows[0], "__len__")
        rows = [rows] if single else rows
        if any(len(r) != self.n for r in rows):
            raise ValueError(f"direction must have {self.n} components")
        zero = EXACT.zero
        return (Map({(m, a): v for m, r in enumerate(rows) for a, c in enumerate(r)
                     if (v := c - zero)}), len(rows), single)

    pairs = lambda self, A, B: self.ein("ma,mb->mab", A, B)        # noqa: E731
    apply = lambda self, P, R: self.ein("mab,abcd->mcd", P, R)     # noqa: E731
    dot = lambda self, L, Q: self.ein("mcd,mcd->m", L, Q)          # noqa: E731

    @staticmethod
    def real(a, count: int):
        """The real parts of a stack's values as Fractions; a nonzero
        imaginary part raises ArithmeticError."""
        vals = [a.get((m,), EXACT.zero) for m in range(count)]
        if any(v.im for v in vals):
            raise ArithmeticError("expected a real exact value")
        return [v.re for v in vals]

    each = staticmethod(lambda f, *cols: [f(*v) for v in zip(*cols)])
    result = staticmethod(lambda vals, single: vals[0] if single else vals)


class _Dense(ChartMetric):
    """A float metric: the same quantities as complex128 arrays, contracted
    by numpy's einsum, which it binds with conj and numpy itself; a stack of
    N directions is an (N, n) array."""

    __slots__ = ("np", "ein", "conj")
    table = matrix = staticmethod(_readonly)

    def operand(self, entries, rank: int):
        """The read-only (n,) * rank array of a map's entries, 0j elsewhere."""
        a = self.np.zeros((self.n,) * rank, complex)
        for k, c in entries.items():
            a[k] = c
        return _readonly(a)

    json = staticmethod(lambda t, rank: table_to_json(t))

    def directions(self, X):
        """A direction or stack of directions as an (N, n) complex128 array,
        its count and whether it was a single direction.  A bool component
        raises TypeError (input other than a numeric ndarray is scanned for
        one)."""
        np = self.np
        numeric = isinstance(X, np.ndarray) and np.issubdtype(X.dtype, np.number)
        components = () if numeric else np.asarray(X, object).flat
        if any(isinstance(c, (bool, np.bool_)) for c in components):
            raise TypeError("a direction component is a bool")
        arr = np.asarray(X, complex)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.n:
            raise ValueError(f"direction must have {self.n} components")
        single, arr = arr.ndim == 1, (arr - 0j).reshape(-1, self.n)
        return arr, len(arr), single

    # row-wise outer products A_a B_b flattened to (N, n^2); with each
    # curvature table flattened to an (n^2, n^2) matrix, every term of the
    # sectional expansion is a bilinear pairing of two of them
    pairs = staticmethod(lambda A, B: (A[:, :, None] * B[:, None, :]).reshape(len(A), -1))
    apply = staticmethod(lambda P, R: P @ R.reshape(P.shape[1], -1))
    dot = lambda self, L, Q: self.ein("mq,mq->m", L, Q)            # noqa: E731
    real = staticmethod(lambda a, count: a.real)
    each = staticmethod(lambda f, *cols: f(*cols))
    result = staticmethod(lambda vals, single: vals.tolist()[0] if single else vals)


# --------------------------------------------------------------------------
# metric builders
# --------------------------------------------------------------------------

def _coords(n: int, point, kind: Kind):
    """The terms of the coordinate jets Z_i = p_i + w_i and their conjugates at a point."""
    if len(point) != n:
        raise ValueError(f"a chart point for n={n} has {n} coordinates, not {len(point)}")
    Z = [_sum((1, {(): p, (i,): kind.one})) for i, p in enumerate(point)]
    Zb = [_sum((1, {(): p.conjugate(), (n + i,): kind.one})) for i, p in enumerate(point)]
    return Z, Zb


def wallach_metric(point=None, kind: Kind = EXACT, sigma_scale=1) -> ChartMetric:
    """The flag-threefold metric g = gtilde - sigma as 2-jets at a chart
    point (the origin by default), exact at a point of rational complex
    coordinates or float at any point.  ``sigma_scale`` exists for
    perturbation experiments; the geometric metric is scale 1.
    """
    n = 3
    sscale, *point = map(kind.read, [sigma_scale, *([0] * n if point is None else point)])
    Z, Zb = _coords(n, point, kind)
    one = {(): kind.one}

    # alpha = 1 + |z1|^2 + |z2|^2 and beta = 1 + |z3|^2 + |f|^2, f = z2 + z1 z3
    al = _sum((1, one), (1, Z[0], Zb[0]), (1, Z[1], Zb[1]))
    f = _sum((1, Z[1]), (1, Z[0], Z[2]))
    fb = _conj_terms(n, f)
    f_d = [Z[2], one, Z[0]]                          # partial_i f
    z3z3b = _sum((1, Z[2], Zb[2]))
    be = _sum((1, one), (1, z3z3b), (1, f, fb))
    alinv, beinv = _reciprocal_terms(al, kind), _reciprocal_terms(be, kind)
    f_be = [_sum((1, d, beinv)) for d in f_d]        # partial_i f / beta
    u = [_sum((1, Zb[i], alinv)) for i in range(2)]  # u, v: partial_i log alpha (u_2 = 0), beta
    v = [_sum((1, f_be[i], fb), *([(1, Zb[2], beinv)] if i == 2 else [])) for i in range(3)]
    ub, vb, f_db = ([_conj_terms(n, x) for x in w] for w in (u, v, f_d))
    s = {m: x for m, c in _sum((1, alinv, beinv)).items() if (x := c * sscale)}
    sigma = {(0, 0): z3z3b, (0, 1): Z[2], (1, 1): one}  # sigma_{i jbar} alpha beta, nonzero

    # g_{i jbar} = partial_i partial_jbar log(alpha beta) - sigma_{i jbar} s for
    # i <= j, one map each; the metric is hermitian, so g_{j ibar} is its conjugate
    g = {(i, j): _jet(n, _sum((1, f_be[i], f_db[j]),
                              *([(-1, u[i], ub[j])] if j < 2 else []), (-1, v[i], vb[j]),
                              *([(-1, sigma[i, j], s)] if (i, j) in sigma else []),
                              *([(1, alinv if i < 2 else beinv)] if i == j else [])), kind)
         for i in range(3) for j in range(i, 3)}
    return ChartMetric(3, [[g[i, j] if i <= j else g[j, i].conj() for j in range(3)]
                           for i in range(3)], label="wallach")


# --------------------------------------------------------------------------
# pointwise extraction
# --------------------------------------------------------------------------

def _torsion_derivative(m: ChartMetric, d, h):
    """D[l,i,j,k] = partial_l T^j_{ik}, with d and h the derivatives of g_{i jbar}
    and g_{i jbar, k} along l (dg and hh for z_l, dgb and ha for zbar_l):
    D = sum_s ( h_{k s i l} - h_{i s k l} ) g^{sbar j}
        + sum_s ( g_{k sbar, i} - g_{i sbar, k} ) partial_l g^{sbar j},
    where partial_l G^{-1} = -G^{-1} (partial_l G) G^{-1}."""
    dginv = -m.ein("sa,abl,bj->sjl", m.Ginv, d, m.Ginv)
    return (m.ein("ksil,sj->lijk", h, m.Ginv) - m.ein("iskl,sj->lijk", h, m.Ginv)
            + m.ein("ksi,sjl->lijk", m.dg, dginv) - m.ein("isk,sjl->lijk", m.dg, dginv))


@memoized
def chern_torsion_at(m: ChartMetric):
    """T^j_{ik} = sum_l ( g_{k lbar, i} - g_{i lbar, k} ) g^{lbar j}."""
    return m.table(m.ein("kli,lj->jik", m.dg, m.Ginv) - m.ein("ilk,lj->jik", m.dg, m.Ginv))


@memoized
def chern_curvature_at(m: ChartMetric):
    """R^c_{k lbar i jbar} = -g_{i jbar, k lbar}
    + sum_{p,q} g_{i pbar, k} conj(g_{j qbar, l}) g^{pbar q}."""
    return m.table(m.ein("iqk,jql->klij", m.gam, m.conj(m.dg)) - m.ein("ijkl->klij", m.ha))


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
    return tuple(m.table(m.ein(spec, Rc, m.Ginv))
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
    Both vanish identically iff the Bismut torsion is parallel at the point.
    res_h and res_a are indexed [l][i][j][k] and transform as tensors under
    a linear change of chart."""
    T = chern_torsion_at(m)
    A = m.ein("ip,pls,sr->rli", m.G, m.conj(T), m.Ginv)
    res_h = (_torsion_derivative(m, m.dg, m.hh) - m.ein("lri,jrk->lijk", m.gam, T)
             - m.ein("lrk,jir->lijk", m.gam, T) + m.ein("ljr,rik->lijk", m.gam, T))
    res_a = (_torsion_derivative(m, m.dgb, m.ha) - m.ein("jir,rlk->lijk", T, A)
             + m.ein("jkr,rli->lijk", T, A) + m.ein("rik,jlr->lijk", T, A))
    return m.table(res_h), m.table(res_a)


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
    P = (m.ein("kpi->pik", m.dg) + m.ein("ipk->pik", m.dg)) * half
    Q = (m.ein("ipk->pik", m.dgb) - m.ein("ikp->pik", m.dgb)) * half
    U = m.ein("qp,plj->qlj", m.Ginv, m.conj(Q))
    V = m.ein("qp,plj->qlj", m.Ginv, m.conj(P))
    r20 = (m.ein("qlj,qik->ijkl", U, P) - m.ein("pjk,pli->ijkl", P, U)
           - (m.ein("iljk->ijkl", m.hh) - m.ein("jlik->ijkl", m.hh)) * half)
    r11 = (m.ein("qlj,qki->klij", V, P) - m.ein("pil,pjk->klij", Q, U)
           - m.ein("qli,qkj->klij", U, Q)
           - (m.ein("kjil->klij", m.ha) + m.ein("ilkj->klij", m.ha)) * half)
    return m.table(r11), m.table(r20)


def point_report(m: ChartMetric):
    """Torsion, Chern curvature, the Ricci tensors and the Levi-Civita pair
    of m at its base point, as JSON, each table a ``JsonTable``."""
    ric1, ric2, ric3 = ricci_forms_at(m)
    r11, r20 = riemannian_curvature_at(m)
    tables = {"torsion": (chern_torsion_at(m), 3), "chern_curvature": (chern_curvature_at(m), 4),
              "chern_ricci_1": (ric1, 2), "chern_ricci_2": (ric2, 2), "chern_ricci_3": (ric3, 2),
              "riemannian_11": (r11, 4), "riemannian_20": (r20, 4)}
    return {"n": m.n, "scalar_kind": m.kind.name,
            **{name: m.json(*table) for name, table in tables.items()}}


# --------------------------------------------------------------------------
# sectional and Ricci curvature
# --------------------------------------------------------------------------

def _planes(m: ChartMetric, X, Y):
    """Two direction stacks of m, their count and whether X was a single direction."""
    (X, count, single), (Y, other, _) = m.directions(X), m.directions(Y)
    if count != other:
        raise ValueError("X and Y must hold the same number of directions")
    return X, Y, count, single


def _inner(m: ChartMetric, X, Y):
    """X G conj(Y) of each pair of rows; g(x, y) is twice its real part."""
    return m.ein("ma,ab,mb->m", X, m.G, m.conj(Y))


def _sectional_stack(m: ChartMetric, r11, r20, X, Y):
    """Sectional numerators of the planes spanned by the rows of X, Y, from
    the Levi-Civita tables r11 and r20, before their real parts are read.

    Every term of the expansion pairs a row-wise outer product of two
    directions with a curvature table and another such product (the
    metric's ``pairs``, ``apply`` and ``dot``), so the whole stack is
    contracted at once.  The real parts 2 Re z are taken as z + conj(z), in
    the data's scalar kind.
    """
    Xb, Yb = m.conj(X), m.conj(Y)
    XYb, YXb = m.pairs(X, Yb), m.pairs(Y, Xb)
    left = m.apply(XYb, r11)
    t1 = m.dot(m.apply(m.pairs(X, Xb), r11), m.pairs(Y, Yb))
    t2 = m.dot(left, YXb)
    t3 = m.dot(left, XYb)
    e = m.dot(m.apply(m.pairs(X, Y), r20), XYb - YXb)
    return -2 * t1 + 4 * t2 - (t3 + m.conj(t3)) - 2 * (e + m.conj(e))


def sectional_numerator(m: ChartMetric, X, Y):
    """R(x, y, y, x) for x = X + conj(X), y = Y + conj(Y).

    Expands the real 2-plane pairing through the complexified curvature:
    -2 R_{X Xb Y Yb} + 4 R_{X Yb Y Xb} - 2 Re R_{X Yb X Yb}
    - 4 Re ( R_{X Y X Yb} - R_{X Y Y Xb} ); the last group vanishes whenever
    the (2,0)-type components do.

    X and Y are single directions or stacks of directions of shape (N, n).
    A single pair gives a float (float data) or a Fraction (exact data), a
    stack gives a length-N array of floats or a list of Fractions.  An exact
    value that is not real raises ArithmeticError.
    """
    X, Y, count, single = _planes(m, X, Y)
    return m.result(m.real(_sectional_stack(m, *riemannian_curvature_at(m), X, Y), count),
                    single)


def sectional_curvature(m: ChartMetric, X, Y):
    """Sectional curvature R_{xyyx} / |x ^ y|^2, with the norms and g(x, y)
    taken through G (the numerator alone is ``sectional_numerator``).

    A plane is degenerate when |x ^ y|^2 is zero (exact data) or at most
    1e-14 |x|^2 |y|^2 (float data), a bound that does not depend on the
    scale of x and y.
    """
    X, Y, count, single = _planes(m, X, Y)
    x2, y2 = (m.each(lambda v: 2 * v, m.real(_inner(m, V, V), count)) for V in (X, Y))
    w = _inner(m, X, Y)
    xy = m.real(w + m.conj(w), count)
    den = m.each(lambda a, b, c: a * b - c * c, x2, y2, xy)
    # the float bound only: exact data stays rational
    tol = m.each(lambda a, b: None if m.kind.exact else 1e-14 * a * b, x2, y2)
    if True in m.each(m.kind.negligible, den, tol):
        raise DegeneratePlaneError("x and y span a degenerate plane")
    stack = m.real(_sectional_stack(m, *riemannian_curvature_at(m), X, Y), count)
    return m.result(m.each(truediv, stack, den), single)


def random_planes(rng: np.random.Generator, count: int, n: int):
    """Yield stacks (X, Y) of random complex n-vectors, count planes in all.

    A block of b planes is one normal draw of shape (b, 4, n) holding X.re,
    X.im, Y.re and Y.im of each plane, which consumes the generator's stream
    in the same order as drawing those four n-vectors plane by plane.
    """
    for start in range(0, count, SAMPLE_BLOCK):
        d = rng.normal(size=(min(SAMPLE_BLOCK, count - start), 4, n))
        yield d[:, 0] + 1j * d[:, 1], d[:, 2] + 1j * d[:, 3]


@memoized
def _ricci_form(m: ChartMetric):
    """(H, S): a quarter of num(X) of the module docstring is
    X H conj(X) - 2 Re X S X, with H[a,d] = 2 sum r11[a,l,i,d] g^{lbar i}
    - sum r11[a,d,i,j] g^{jbar i} and S[a,c] = sum r20[a,i,c,l] g^{lbar i}."""
    r11, r20 = riemannian_curvature_at(m)
    return (2 * m.ein("alid,li->ad", r11, m.Ginv) - m.ein("adij,ji->ad", r11, m.Ginv),
            m.ein("aicl,li->ac", r20, m.Ginv))


def ricci_curvature(m: ChartMetric, X):
    """Ricci curvature of the real direction x = X + conj(X).

    The trace of the sectional numerators over a g-orthonormal frame
    {f_s, i f_s}, divided by |x|^2, in closed form (see the module
    docstring).  X is a single direction or a stack of shape (N, n); a
    single direction gives a float or a Fraction, a stack an array of
    floats or a list of Fractions.
    """
    X, count, single = m.directions(X)
    x2 = m.real(_inner(m, X, X), count)
    if 0 in x2:
        raise DegeneratePlaneError("zero direction")
    H, S = _ricci_form(m)
    # a quarter of num(X), over X G conj(X) = |x|^2 / 2
    s = m.ein("ma,ac,mc->m", X, S, X)
    num = m.ein("ma,ad,md->m", X, H, m.conj(X)) - (s + m.conj(s))
    return m.result(m.each(truediv, m.real(num, count), x2), single)
