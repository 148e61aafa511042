"""Pointwise Hermitian geometry from coordinate-chart metrics via 2-jets.

A ChartMetric holds the components g_{i jbar} of a Hermitian metric as
Wirtinger 2-jets at a base point.  Torsion, Chern curvature, the three Chern
Ricci tensors, parallel-torsion residuals, and (for parallel-torsion metrics
with unitary base frame) the Levi-Civita curvature and its sectional/Ricci
traces are all extracted from jet coefficients.

The coefficients are read once into arrays of the metric's scalar kind
(complex128, or object arrays of ExactComplex, whose sums do not depend on
their order) and every table is an einsum contraction of them; the public
functions return nested lists.  The derivative of the torsion
T^j_{ik} = sum_l (g_{k lbar, i} - g_{i lbar, k}) g^{lbar j} is taken in
closed form:
partial_m T^j_{ik} = sum_l (g_{k lbar, im} - g_{i lbar, km}) g^{lbar j}
    + sum_l (g_{k lbar, i} - g_{i lbar, k}) partial_m g^{lbar j},
with partial_m G^{-1} = -G^{-1} (partial_m G) G^{-1}, and likewise along
zbar_m.

Sectional numerators and Ricci curvature run through the same contractions
for both scalar kinds.  The Ricci curvature of x = X + conj(X) traces the
sectional numerator over the orthonormal frame {e_i, i e_i}.  Over each pair
e_i, i e_i the R_{X Yb X Yb} term and the Y (x) Y half of the (2,0) term
cancel, which leaves the closed form
    num(X) = Re sum_{a,d} X_a Xb_d (8 sum_i r11[a,i,i,d] - 4 sum_i r11[a,d,i,i])
             - 8 Re sum_{a,c} X_a X_c sum_i r20[a,i,c,i],
and Ricci(x) = num / 2 / |x|^2 with |x|^2 = 2 |X|^2.

The built-in metric is the homogeneous metric on the flag threefold sitting
inside P^2 x P^2: with alpha = 1 + |z1|^2 + |z2|^2, f = z2 + z1 z3,
beta = 1 + |z3|^2 + |f|^2, the Kaehler-Einstein part is
gtilde = Hess log(alpha beta) and the metric is g = gtilde - sigma, where
sigma_{i jbar} = (delta_{i1} delta_{j1} |z3|^2 + delta_{i1} delta_{j2} z3
+ delta_{i2} delta_{j1} zbar3 + delta_{i2} delta_{j2}) / (alpha beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .jets import Jet2, jet_matrix_inverse  # noqa: F401  (kept importable from charts)
from .linalg import exact_solve_identity, row_basis
from .scalars import (EC, ExactComplex, as_scalar, conj, is_exact, is_zero,
                      scalar_abs, scalar_to_json)

FLOAT_TOL = 1e-9

# Planes drawn per block by random_planes; bounds the memory of the stacked
# sectional and Ricci evaluation whatever the sample count.
SAMPLE_BLOCK = 1024


class BaseMetricError(ValueError):
    """The operation needs the metric to be the identity at the base point."""


class UnsupportedMetricError(ValueError):
    """Levi-Civita extraction is implemented only for parallel torsion."""


class DegeneratePlaneError(ValueError):
    pass


class ChartMetric:
    """Hermitian metric components g_{i jbar} as 2-jets at a base point."""

    __slots__ = ("n", "g", "label", "exact")

    def __init__(self, n: int, g, label: str = ""):
        g = tuple(tuple(r) for r in g)
        exact = is_exact(next((c for row in g for f in row for c in f.coeffs.values()),
                              EC.zero()))
        for i in range(n):
            for j in range(n):
                d = g[i][j] - g[j][i].conj()
                if exact:
                    if not d.is_zero():
                        raise ValueError("metric jets must be hermitian")
                elif d.norm_inf() > 1e-10 * max(g[i][j].norm_inf(), 1.0):
                    raise ValueError("metric jets must be hermitian within tolerance")
        g0 = [[g[i][j].value() for j in range(n)] for i in range(n)]
        if exact:
            # Sylvester: every leading principal minor D_k is positive iff row
            # reduction keeps n rows and row k holds D_k / D_(k-1) > 0 at
            # column k (then, row by row, that entry is its pivot)
            rows = row_basis(g0, exact=True)
            if not (len(rows) == n and all(r[k].im == 0 and r[k].re > 0
                                           for k, r in enumerate(rows))):
                raise ValueError("metric must be positive definite at the base point")
        else:
            ev = np.linalg.eigvalsh(np.array([[complex(e) for e in r] for r in g0]))
            if np.min(ev) <= 0:
                raise ValueError("metric must be positive definite at the base point")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, *_):
        raise AttributeError("ChartMetric is immutable")

    def value_matrix(self):
        return [[self.g[i][j].value() for j in range(self.n)] for i in range(self.n)]

    def inverse_value_matrix(self):
        g0 = self.value_matrix()
        if self.exact:
            return exact_solve_identity([list(r) for r in g0])
        inv = np.linalg.inv(np.array([[complex(e) for e in r] for r in g0]))
        return [[complex(inv[i, j]) for j in range(self.n)] for i in range(self.n)]

    def has_identity_base(self, tol: float = FLOAT_TOL) -> bool:
        for i, row in enumerate(self.value_matrix()):
            for j, v in enumerate(row):
                d = v - (1 if i == j else 0)
                if (not is_zero(d)) if self.exact else scalar_abs(d) > tol:
                    return False
        return True


# --------------------------------------------------------------------------
# metric builders
# --------------------------------------------------------------------------

def _coords(n: int, point, exact: bool):
    """Coordinate jets Z_i = p_i + w_i and their conjugates."""
    Z, Zb = [], []
    for i in range(n):
        p = point[i]
        if exact:
            base = Jet2.constant(n, p if isinstance(p, ExactComplex) else EC(Fraction(p), 0))
        else:
            base = Jet2.constant(n, complex(p))
        Z.append(base + Jet2.z(n, i, exact))
        Zb.append(base.conj() + Jet2.zbar(n, i, exact))
    return Z, Zb


def euclidean_metric(n: int = 3, exact: bool = True) -> ChartMetric:
    one = EC.one() if exact else 1 + 0j
    g = [[Jet2.constant(n, one) if i == j else Jet2(n) for j in range(n)]
         for i in range(n)]
    return ChartMetric(n, g, label="euclidean")


def fubini_study_metric(n: int = 3, exact: bool = True, point=None) -> ChartMetric:
    """g = Hess log(1 + |z|^2): the Kaehler reference case (zero torsion)."""
    point = point or [0] * n
    Z, Zb = _coords(n, point, exact)
    one = EC.one() if exact else 1 + 0j
    al = Jet2.constant(n, one)
    for k in range(n):
        al = al + Z[k] * Zb[k]
    alinv = al.reciprocal()
    g = [[(Jet2.constant(n, one) if i == j else Jet2(n)) * alinv
          - Zb[i] * Z[j] * alinv * alinv for j in range(n)] for i in range(n)]
    return ChartMetric(n, g, label="fubini_study")


def wallach_metric(point=None, exact: bool = True, sigma_scale=1) -> ChartMetric:
    """The flag-threefold metric g = gtilde - sigma as 2-jets.

    Exact mode supports the chart origin (homogeneity reduces any point to
    it); float mode expands at an arbitrary chart point.  ``sigma_scale``
    exists for perturbation experiments; the geometric metric is scale 1.
    """
    n = 3
    if point is None:
        point = [0, 0, 0]
    if exact and any(not is_zero(p if isinstance(p, ExactComplex) else EC(Fraction(p), 0))
                     for p in point):
        raise ValueError("exact jets are expanded at the chart origin only")
    Z, Zb = _coords(n, point, exact)
    one = EC.one() if exact else 1 + 0j
    zero = Jet2(n)
    const = lambda c: Jet2.constant(n, c)
    sscale = (EC(Fraction(sigma_scale), 0) if not isinstance(sigma_scale, ExactComplex)
              else sigma_scale) if exact else complex(sigma_scale)

    al = const(one) + Z[0] * Zb[0] + Z[1] * Zb[1]
    al_d = [Zb[0], Zb[1], zero]                      # partial_i alpha
    al_db = [Z[0], Z[1], zero]                       # partial_jbar alpha
    al_dd = [[const(one) if (i == j and i < 2) else zero for j in range(3)]
             for i in range(3)]                      # partial_i partial_jbar alpha

    f = Z[1] + Z[0] * Z[2]
    fb = f.conj()
    f_d = [Z[2], const(one), Z[0]]
    f_db = [j.conj() for j in f_d]

    be = const(one) + Z[2] * Zb[2] + f * fb
    be_d = [f_d[i] * fb + (Zb[2] if i == 2 else zero) for i in range(3)]
    be_db = [j.conj() for j in be_d]
    be_dd = [[f_d[i] * f_db[j] + (const(one) if i == j == 2 else zero)
              for j in range(3)] for i in range(3)]

    alinv = al.reciprocal()
    beinv = be.reciprocal()
    alinv2 = alinv * alinv
    beinv2 = beinv * beinv

    g = []
    for i in range(3):
        row = []
        for j in range(3):
            gt = al_dd[i][j] * alinv - al_d[i] * al_db[j] * alinv2 \
                + be_dd[i][j] * beinv - be_d[i] * be_db[j] * beinv2
            sig = zero
            if i == 0 and j == 0:
                sig = Z[2] * Zb[2]
            elif i == 0 and j == 1:
                sig = Z[2]
            elif i == 1 and j == 0:
                sig = Zb[2]
            elif i == 1 and j == 1:
                sig = const(one)
            row.append(gt - sig.scale(sscale) * alinv * beinv)
        g.append(row)
    return ChartMetric(3, g, label="wallach")


def wallach_metric_values(z, sigma_scale: float = 1.0) -> np.ndarray:
    """Direct complex-arithmetic evaluation of the metric components.

    Independent of the jet machinery; used as the finite-difference oracle.
    """
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


def change_frame(m: ChartMetric, A) -> ChartMetric:
    """Metric jets under the constant linear coordinate change z = A z'.

    Components transform as ghat_{i jbar} = sum_{a,b} A_{a i} conj(A_{b j})
    g_{a bbar} with the chart variables substituted accordingly.
    """
    n = m.n
    rows = [list(r) for r in (A.entries if hasattr(A, "entries") else A)]
    out = []
    for i in range(n):
        outrow = []
        for j in range(n):
            acc = Jet2(n)
            for a in range(n):
                for b in range(n):
                    coef = rows[a][i] * conj(rows[b][j])
                    if is_zero(coef):
                        continue
                    acc = acc + m.g[a][b].substitute_linear(rows).scale(coef)
            outrow.append(acc)
        out.append(outrow)
    return ChartMetric(n, out, label=f"{m.label}~frame")


def orthonormalize_base(m: ChartMetric) -> ChartMetric:
    """Constant frame change making the base-point metric the identity.

    Float-only: the Cholesky factor is generally irrational.
    """
    if m.exact:
        raise ValueError("orthonormalization requires the float scalar kind")
    g0 = np.array([[complex(e) for e in r] for r in m.value_matrix()])
    L = np.linalg.cholesky(g0)
    A = np.linalg.inv(L).T      # A^T g0 conj(A) = identity, as change_frame applies it
    return change_frame(m, [[A[a, i] for i in range(m.n)] for a in range(m.n)])


# --------------------------------------------------------------------------
# pointwise extraction
# --------------------------------------------------------------------------

class _Jets(NamedTuple):
    """Jet coefficients of the metric components g_{i jbar} at the base."""
    dg: np.ndarray      # dg[i,j,k] = partial_k g_{i jbar}
    dgb: np.ndarray     # dgb[i,j,k] = partial_kbar g_{i jbar}
    hh: np.ndarray      # hh[i,j,k,m] = partial_k partial_m g_{i jbar}
    ha: np.ndarray      # ha[i,j,k,l] = partial_k partial_lbar g_{i jbar}
    ginv: np.ndarray    # ginv[l,j] = g^{lbar j}


def _dtype(m: ChartMetric):
    return object if m.exact else complex


def _jet_arrays(m: ChartMetric) -> _Jets:
    n = m.n
    zero = as_scalar(0, m.exact)
    dg, dgb, hh, ha = (np.full((n,) * r, zero, _dtype(m)) for r in (3, 3, 4, 4))
    for i in range(n):
        for j in range(n):
            for mono, c in m.g[i][j].coeffs.items():
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
    return _Jets(dg, dgb, hh, ha, np.array(m.inverse_value_matrix(), _dtype(m)))


def _first_derivs(m: ChartMetric):
    """dg[i][j][k] = partial_k g_{i jbar} at the base point."""
    return _jet_arrays(m).dg.tolist()


def _skew(d):
    """S[i,k,l,...] = d[k,l,i,...] - d[i,l,k,...]."""
    rest = range(3, d.ndim)
    return d.transpose(2, 0, 1, *rest) - d.transpose(0, 2, 1, *rest)


def _torsion(J: _Jets):
    """T[j,i,k] = sum_l ( g_{k lbar, i} - g_{i lbar, k} ) g^{lbar j}."""
    return np.einsum("ikl,lj->jik", _skew(J.dg), J.ginv)


def _torsion_derivative(J: _Jets, d, h):
    """D[j,i,k,m] = partial_m T^j_{ik} in closed form.

    With d[i,j,m] the derivative of g_{i jbar} along the variable m and
    h[i,j,k,m] the derivative of g_{i jbar, k} along it (hh and dg for z_m,
    ha and dgb for zbar_m):
    D = sum_l ( h_{k l i m} - h_{i l k m} ) g^{lbar j}
        + sum_l ( g_{k lbar, i} - g_{i lbar, k} ) partial_m g^{lbar j},
    where partial_m G^{-1} = -G^{-1} (partial_m G) G^{-1}.
    """
    dginv = -np.einsum("lbm,bj->ljm", np.einsum("la,abm->lbm", J.ginv, d), J.ginv)
    return (np.einsum("iklm,lj->jikm", _skew(h), J.ginv)
            + np.einsum("ikl,ljm->jikm", _skew(J.dg), dginv))


def _chern(J: _Jets):
    """Rc[k,l,i,j] = -g_{i jbar, k lbar}
    + sum_{p,q} g_{i pbar, k} conj(g_{j qbar, l}) g^{pbar q}."""
    w = np.einsum("ipk,pq->iqk", J.dg, J.ginv)
    return np.einsum("iqk,jql->klij", w, np.conj(J.dg)) - J.ha.transpose(2, 3, 0, 1)


def _ricci(Rc):
    return (np.einsum("klii->kl", Rc), np.einsum("kkij->ij", Rc),
            np.einsum("kiij->kj", Rc))


def chern_torsion_at(m: ChartMetric):
    """T^j_{ik} = sum_l ( g_{k lbar, i} - g_{i lbar, k} ) g^{lbar j}."""
    return _torsion(_jet_arrays(m)).tolist()


def chern_curvature_at(m: ChartMetric):
    """R^c_{k lbar i jbar} = -g_{i jbar, k lbar}
    + sum_{p,q} g_{i pbar, k} conj(g_{j qbar, l}) g^{pbar q}."""
    return _chern(_jet_arrays(m)).tolist()


def ricci_forms_at(m: ChartMetric, Rc=None):
    """First, second and third Chern Ricci tensors as hermitian matrices.

    Index conventions: the first Ricci traces the bundle indices, the second
    traces the direction indices, the third ties direction to bundle;
    ric1[k][l] = sum_i Rc[k][l][i][i], ric2[i][j] = sum_k Rc[k][k][i][j],
    ric3[k][j] = sum_i Rc[k][i][i][j].
    """
    if Rc is None:
        Rc = chern_curvature_at(m)
    return tuple(r.tolist() for r in _ricci(np.array(Rc, _dtype(m))))


def btp_residual_at(m: ChartMetric):
    """Residuals of the parallel-torsion identities at a unitary base point.

    Holomorphic side:  d/dz_l T^j_{ik}
        - sum_r ( g_{l rbar, i} T^j_{rk} + g_{l rbar, k} T^j_{ir}
                  - g_{l jbar, r} T^r_{ik} ),
    antiholomorphic side:  d/dzbar_l T^j_{ik}
        - sum_r ( T^j_{ir} conj(T^k_{lr}) - T^j_{kr} conj(T^i_{lr})
                  + T^r_{ik} conj(T^r_{jl}) ).
    Both vanish identically iff the Bismut torsion is parallel at the point.
    res_h and res_a are indexed [l][i][j][k].
    """
    if not m.has_identity_base():
        raise BaseMetricError("parallel-torsion residuals need g = identity "
                              "at the base point; orthonormalize first")
    J = _jet_arrays(m)
    T = _torsion(J)
    Tc = np.conj(T)
    res_h = (np.einsum("jikl->lijk", _torsion_derivative(J, J.dg, J.hh))
             - np.einsum("lri,jrk->lijk", J.dg, T) - np.einsum("lrk,jir->lijk", J.dg, T)
             + np.einsum("ljr,rik->lijk", J.dg, T))
    res_a = (np.einsum("jikl->lijk", _torsion_derivative(J, J.dgb, J.ha))
             - np.einsum("jir,klr->lijk", T, Tc) + np.einsum("jkr,ilr->lijk", T, Tc)
             - np.einsum("rik,rjl->lijk", T, Tc))
    return res_h.tolist(), res_a.tolist()


def _max_abs4(arr) -> float:
    return max(scalar_abs(c) for a in arr for b in a for r in b for c in r)


@dataclass(frozen=True)
class PointCurvature:
    """Torsion, Chern curvature, Ricci tensors and Levi-Civita components
    of a chart metric at its base point."""
    n: int
    exact: bool
    torsion: list            # T[j][i][k]
    rc: list                 # rc[k][l][i][j] = R^c_{k lbar i jbar}
    ric1: list
    ric2: list
    ric3: list
    r11: Optional[list]      # r11[k][l][i][j] = R_{k lbar i jbar}
    r20: Optional[list]      # r20[i][j][k][l] = R_{i j k lbar}

    def to_json(self):
        dump = lambda a: _nested_json(a)
        out = {"n": self.n, "scalar_kind": "exact" if self.exact else "float",
               "torsion": dump(self.torsion), "chern_curvature": dump(self.rc),
               "chern_ricci_1": dump(self.ric1), "chern_ricci_2": dump(self.ric2),
               "chern_ricci_3": dump(self.ric3)}
        if self.r11 is not None:
            out["riemannian_11"] = dump(self.r11)
            out["riemannian_20"] = dump(self.r20)
        return out


def _nested_json(a):
    if isinstance(a, (list, tuple)):
        return [_nested_json(x) for x in a]
    return scalar_to_json(a)


def riemannian_curvature_at(m: ChartMetric, tol: float = FLOAT_TOL) -> PointCurvature:
    """Levi-Civita curvature at a unitary base point of a parallel-torsion
    metric.

    The holomorphic covariant derivative of the torsion vanishes under the
    parallel-torsion hypothesis, which is what lets the (2,0)-type
    components reduce to quadratic torsion terms:

        R_{i j k lbar} = 1/4 sum_r ( T^l_{ri} T^r_{jk} - T^l_{rj} T^r_{ik} ),
        R_{k lbar i jbar} = 1/2 ( R^c_{i lbar k jbar} + R^c_{k jbar i lbar} )
            + 1/4 sum_r ( T^r_{ik} conj(T^r_{jl}) - T^j_{kr} conj(T^i_{lr})
                          - T^l_{ir} conj(T^k_{jr}) ).
    """
    if not m.has_identity_base(tol):
        raise BaseMetricError("Levi-Civita extraction needs g = identity at "
                              "the base point")
    res_h, res_a = btp_residual_at(m)
    resid = max(_max_abs4(res_h), _max_abs4(res_a))
    if resid > (0.0 if m.exact else tol):
        raise UnsupportedMetricError(
            f"torsion is not parallel at the base point (residual {resid:.3e}); "
            "the covariant-derivative term of the (2,0) curvature is not supported")
    J = _jet_arrays(m)
    T = _torsion(J)
    Tc = np.conj(T)
    Rc = np.array(chern_curvature_at(m), _dtype(m))
    quarter = as_scalar(Fraction(1, 4), m.exact)
    half = as_scalar(Fraction(1, 2), m.exact)
    r20 = (np.einsum("lri,rjk->ijkl", T, T) - np.einsum("lrj,rik->ijkl", T, T)) * quarter
    r11 = ((np.einsum("ilkj->klij", Rc) + np.einsum("kjil->klij", Rc)) * half
           + (np.einsum("rik,rjl->klij", T, Tc) - np.einsum("jkr,ilr->klij", T, Tc)
              - np.einsum("lir,kjr->klij", T, Tc)) * quarter)
    ric1, ric2, ric3 = (r.tolist() for r in _ricci(Rc))
    return PointCurvature(n=m.n, exact=m.exact, torsion=T.tolist(), rc=Rc.tolist(),
                          ric1=ric1, ric2=ric2, ric3=ric3, r11=r11.tolist(),
                          r20=r20.tolist())


# --------------------------------------------------------------------------
# sectional and Ricci curvature
# --------------------------------------------------------------------------

def _tables(pc: PointCurvature):
    """r11 and r20 as arrays of the data's scalar kind."""
    if pc.r11 is None:
        raise UnsupportedMetricError("Levi-Civita components missing")
    return np.array(pc.r11, _dtype(pc)), np.array(pc.r20, _dtype(pc))


_to_exact = np.frompyfunc(lambda v: as_scalar(v, True), 1, 1)


def _directions(pc: PointCurvature, X):
    """A direction or stack of directions as an (N, n) array of the data's
    scalar kind, and whether it was a single direction.

    Exact data takes ExactComplex, int and Fraction components; anything
    else raises TypeError.
    """
    arr = np.asarray(X, _dtype(pc))
    if arr.ndim not in (1, 2) or arr.shape[-1] != pc.n:
        raise ValueError(f"direction must have {pc.n} components")
    if pc.exact:
        arr = _to_exact(arr)
    return arr.reshape(-1, pc.n), arr.ndim == 1


def _planes(pc: PointCurvature, X, Y):
    X, single = _directions(pc, X)
    Y, _ = _directions(pc, Y)
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


def _norm2(X):
    """|X|^2 of each row, as real values."""
    return _real(np.einsum("ma,ma->m", X, X.conj()))


def _pairs(A, B):
    """Row-wise outer products A_a B_b, flattened to shape (N, n^2)."""
    return (A[:, :, None] * B[:, None, :]).reshape(len(A), -1)


def _sectional_stack(pc: PointCurvature, X, Y):
    """Sectional numerators of the planes spanned by the rows of X, Y.

    With each curvature table flattened to an (n^2, n^2) matrix, every term
    of the expansion is a bilinear pairing (A (x) B) R (C (x) D) of two
    row-wise outer products, so the whole stack is contracted at once.  The
    real parts 2 Re z are taken as z + conj(z), in the data's scalar kind.
    """
    nn = pc.n * pc.n
    r11, r20 = (t.reshape(nn, nn) for t in _tables(pc))
    Xb, Yb = X.conj(), Y.conj()
    XYb, YXb = _pairs(X, Yb), _pairs(Y, Xb)
    left = XYb @ r11
    t1 = np.einsum("mq,mq->m", _pairs(X, Xb) @ r11, _pairs(Y, Yb))
    t2 = np.einsum("mq,mq->m", left, YXb)
    t3 = np.einsum("mq,mq->m", left, XYb)
    e = np.einsum("mq,mq->m", _pairs(X, Y) @ r20, XYb - YXb)
    return _real(-2 * t1 + 4 * t2 - (t3 + t3.conj()) - 2 * (e + e.conj()))


def sectional_numerator(pc: PointCurvature, X, Y):
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
    X, Y, single = _planes(pc, X, Y)
    return _result(_sectional_stack(pc, X, Y), single)


def sectional_curvature(pc: PointCurvature, X, Y, normalized: bool = False):
    """Sectional numerator R_{xyyx}, optionally normalized by |x ^ y|^2.

    A plane is degenerate when |x ^ y|^2 is zero (exact data) or at most
    1e-14 |x|^2 |y|^2 (float data), a bound that does not depend on the
    scale of x and y.
    """
    X, Y, single = _planes(pc, X, Y)
    vals = _sectional_stack(pc, X, Y)
    if normalized:
        x2, y2 = 2 * _norm2(X), 2 * _norm2(Y)
        w = np.einsum("ma,ma->m", X, Y.conj())
        xy = _real(w + w.conj())
        den = x2 * y2 - xy * xy
        if (abs(den) <= (0 if pc.exact else 1e-14) * x2 * y2).any():
            raise DegeneratePlaneError("x and y span a degenerate plane")
        vals = vals / den
    return _result(vals, single)


def random_planes(rng: np.random.Generator, count: int, n: int):
    """Yield stacks (X, Y) of random complex n-vectors, count planes in all.

    A block of b planes is one normal draw of shape (b, 4, n) holding X.re,
    X.im, Y.re and Y.im of each plane, which consumes the generator's stream
    in the same order as drawing those four n-vectors plane by plane.
    """
    for start in range(0, count, SAMPLE_BLOCK):
        d = rng.normal(size=(min(SAMPLE_BLOCK, count - start), 4, n))
        yield d[:, 0] + 1j * d[:, 1], d[:, 2] + 1j * d[:, 3]


def ricci_curvature(pc: PointCurvature, X):
    """Ricci curvature of the real direction x = X + conj(X).

    The trace of the sectional numerators over the orthonormal frame
    {e_i, i e_i}, divided by |x|^2, in closed form (see the module
    docstring).  X is a single direction or a stack of shape (N, n); a
    single direction gives a float or a Fraction, a stack an array.
    """
    r11, r20 = _tables(pc)
    X, single = _directions(pc, X)
    x2 = _norm2(X)
    if (x2 == 0).any():
        raise DegeneratePlaneError("zero direction")
    # a quarter of num(X) of the module docstring, over |X|^2 = |x|^2 / 2
    H = 2 * np.einsum("aiid->ad", r11) - np.einsum("adii->ad", r11)
    s = np.einsum("ma,ac,mc->m", X, np.einsum("aici->ac", r20), X)
    num = np.einsum("ma,ad,md->m", X, H, X.conj()) - (s + s.conj())
    return _result(_real(num) / x2, single)
