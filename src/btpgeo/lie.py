"""Hermitian Lie algebras: torsion, connections, curvature, classification.

A Hermitian Lie algebra is given by structure constants C^j_{ik} (bracket of
(1,0) frame fields) and D^j_{ik} (mixed brackets), carried by a
``CoframeContext``.  From these the module computes the Chern torsion and
connection, the Bismut connection theta^b = theta + gamma, curvature
matrices Theta = d theta - theta ^ theta, and the predicate vector used to
sort algebras into the flat / rank-one / middle-type landscape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .forms import (CoframeContext, InvariantForm, d_squared_residual,
                    dolbeault_split, exterior_d)
from .frames import transform_torsion
from .linalg import CMatrix, hermitian_rank, row_basis
from .scalars import (EC, ExactComplex, Scalar, SchemaError, conj, is_exact,
                      is_zero, scalar_abs, scalar_from_json, scalar_to_json)

FLOAT_TOL = 1e-9


class IntegrabilityError(ValueError):
    """Structure constants that do not define a Lie algebra (d^2 != 0)."""


class SwapError(ValueError):
    """Invalid conjugation-swap request."""


class PatternError(ValueError):
    """Torsion does not match the pattern required by an operation."""


def _zeros3(n, exact):
    z = EC.zero() if exact else 0j
    return [[[z for _ in range(n)] for _ in range(n)] for _ in range(n)]


def _form_is_zero(f: InvariantForm, exact: bool, tol: float = FLOAT_TOL) -> bool:
    return f.is_zero() if exact else f.norm_inf() <= tol


# --------------------------------------------------------------------------
# the algebra
# --------------------------------------------------------------------------

class HermitianLieAlgebra:
    """Dimension n plus structure constants; validated on construction.

    ``C[j][i][k]`` holds C^j_{ik} (antisymmetric in i, k) and ``D[j][i][k]``
    holds D^j_{ik}; all 0-based.  Construction rejects non-integrable data:
    every d^2 phi_i must vanish.
    """

    __slots__ = ("n", "C", "D", "label", "ctx", "exact")

    def __init__(self, n: int, C, D, label: str = "", validate: bool = True):
        ctx = CoframeContext(n, C, D)
        if validate:
            residuals = d_squared_residual(ctx)
            bad = [i for i, r in enumerate(residuals)
                   if not _form_is_zero(r, ctx.exact)]
            if bad:
                names = ", ".join(f"d^2 phi_{i+1}" for i in bad)
                raise IntegrabilityError(
                    f"structure constants are not integrable: {names} nonzero")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "C", ctx.C)
        object.__setattr__(self, "D", ctx.D)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "exact", ctx.exact)

    def __setattr__(self, *_):
        raise AttributeError("HermitianLieAlgebra is immutable")

    def __repr__(self):
        return f"HermitianLieAlgebra(n={self.n}, label={self.label!r})"

    # ---- JSON wire format (entries with i >= k rejected for C) ----------
    def to_json(self):
        def dump(T, anti):
            out = []
            for j in range(self.n):
                for i in range(self.n):
                    for k in range(self.n):
                        if anti and i >= k:
                            continue
                        if not is_zero(T[j][i][k]):
                            out.append({"j": j + 1, "i": i + 1, "k": k + 1,
                                        "coef": scalar_to_json(T[j][i][k])})
            return out
        return {"n": self.n, "C": dump(self.C, True), "D": dump(self.D, False),
                "label": self.label}

    @staticmethod
    def from_json(obj) -> "HermitianLieAlgebra":
        if not isinstance(obj, dict) or "n" not in obj:
            raise SchemaError("algebra JSON must be an object with an 'n' field")
        n = obj["n"]
        if type(n) is not int or n < 1:
            raise SchemaError("'n' must be a positive integer")
        c_in, d_in = obj.get("C", []), obj.get("D", [])
        if not (isinstance(c_in, list) and isinstance(d_in, list)):
            raise SchemaError("'C' and 'D' must be lists of entries")
        entries = c_in + d_in
        exact = True
        parsed = []
        for e in entries:
            try:
                idx = (e["j"], e["i"], e["k"])
                c = scalar_from_json(e["coef"])
            except (KeyError, TypeError, SchemaError) as exc:
                raise SchemaError(f"bad structure-constant entry {e!r}: {exc}") from exc
            if not all(type(v) is int for v in idx):
                raise SchemaError(f"indices must be integers in {e!r}")
            j, i, k = (v - 1 for v in idx)
            if not all(0 <= v < n for v in (j, i, k)):
                raise SchemaError(f"index out of range in {e!r}")
            parsed.append((j, i, k, c))
            exact = exact and is_exact(c)
        C = _zeros3(n, exact)
        D = _zeros3(n, exact)
        ncr = len(c_in)
        for pos, (j, i, k, c) in enumerate(parsed):
            c = c if exact else complex(c)
            if pos < ncr:
                if i >= k:
                    raise SchemaError(f"C entry must have i < k (antisymmetry implied): "
                                      f"{c_in[pos]!r}")
                C[j][i][k] = C[j][i][k] + c
                C[j][k][i] = C[j][k][i] - c
            else:
                D[j][i][k] = D[j][i][k] + c
        return HermitianLieAlgebra(n, C, D, label=str(obj.get("label", "")))


# --------------------------------------------------------------------------
# built-in algebras
# --------------------------------------------------------------------------

def _ec(x) -> ExactComplex:
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, complex):
        raise TypeError("built-in families take exact parameters")
    return EC(Fraction(x), 0)


def abelian(n: int = 3) -> HermitianLieAlgebra:
    return HermitianLieAlgebra(n, _zeros3(n, True), _zeros3(n, True), label=f"abelian{n}")


def nilmanifold_n3(a=1) -> HermitianLieAlgebra:
    """The balanced nilmanifold: d phi_3 = -a phi_{1 1b} + a phi_{2 2b}."""
    a = _ec(a)
    C = _zeros3(3, True)
    D = _zeros3(3, True)
    D[0][2][0] = a        # D^1_{31} = a
    D[1][2][1] = -a       # D^2_{32} = -a
    return HermitianLieAlgebra(3, C, D, label="n3")


def family_a(s, t, a=1) -> HermitianLieAlgebra:
    """The first middle-type family, parameterized by real (s, t)."""
    s, t, a = Fraction(s), Fraction(t), _ec(a)
    C = _zeros3(3, True)
    D = _zeros3(3, True)
    C[0][0][2] = EC(0, -s); C[0][2][0] = EC(0, s)      # C^1_{13} = -i s
    C[1][1][2] = EC(0, -t); C[1][2][1] = EC(0, t)      # C^2_{23} = -i t
    D[0][0][2] = EC(0, s)                              # D^1_{13} = i s
    D[1][1][2] = EC(0, t)                              # D^2_{23} = i t
    D[0][2][0] = a                                     # D^1_{31} = a
    D[1][2][1] = -a                                    # D^2_{32} = -a
    return HermitianLieAlgebra(3, C, D, label=f"a_st(s={s},t={t},a={a.re})")


def family_b(z, t, a=1) -> HermitianLieAlgebra:
    """The second middle-type family, parameterized by complex z and real t."""
    z = _ec(z) if not isinstance(z, ExactComplex) else z
    t, a = Fraction(t), _ec(a)
    C = _zeros3(3, True)
    D = _zeros3(3, True)
    C[1][0][1] = z; C[1][1][0] = -z                    # C^2_{12} = z
    C[1][1][2] = EC(0, -t); C[1][2][1] = EC(0, t)      # C^2_{23} = -i t
    D[1][1][0] = z                                     # D^2_{21} = z
    D[1][1][2] = EC(0, t)                              # D^2_{23} = i t
    D[0][2][0] = a
    D[1][2][1] = -a
    return HermitianLieAlgebra(3, C, D, label=f"b_zt(z={z!r},t={t},a={a.re})")


def sl2c(a=1) -> HermitianLieAlgebra:
    """The simple complex Lie algebra with cyclic brackets [e_i, e_j] = -a e_k."""
    a = _ec(a)
    C = _zeros3(3, True)
    D = _zeros3(3, True)
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        C[k][i][j] = -a
        C[k][j][i] = a
    return HermitianLieAlgebra(3, C, D, label=f"sl2c(a={a.re})")


def vaisman_nilmanifold(a=1) -> HermitianLieAlgebra:
    """Companion nilmanifold: d phi_3 = -a (phi_{1 1b} + phi_{2 2b})."""
    a = _ec(a)
    C = _zeros3(3, True)
    D = _zeros3(3, True)
    D[0][2][0] = a      # D^1_{31} = a
    D[1][2][1] = a      # D^2_{32} = a
    return HermitianLieAlgebra(3, C, D, label="vaisman54")


# --------------------------------------------------------------------------
# torsion and connections
# --------------------------------------------------------------------------

class TorsionTensor:
    """Chern torsion components T^j_{ik}, antisymmetric in (i, k)."""

    __slots__ = ("n", "T", "exact")

    def __init__(self, n: int, T):
        T = tuple(tuple(tuple(r) for r in layer) for layer in T)
        exact_kind = is_exact(T[0][0][0])
        for j in range(n):
            for i in range(n):
                for k in range(n):
                    d = T[j][i][k] + T[j][k][i]
                    if is_zero(d):
                        continue
                    if exact_kind or scalar_abs(d) > 1e-12:
                        raise ValueError("torsion must be antisymmetric in the lower indices")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "exact", is_exact(T[0][0][0]))

    def __setattr__(self, *_):
        raise AttributeError("TorsionTensor is immutable")

    def __getitem__(self, jik):
        j, i, k = jik
        return self.T[j][i][k]

    def is_zero(self, tol: float = FLOAT_TOL) -> bool:
        if self.exact:
            return all(c.is_zero() for l in self.T for r in l for c in r)
        return all(scalar_abs(c) <= tol for l in self.T for r in l for c in r)

    def to_json(self):
        out = []
        for j in range(self.n):
            for i in range(self.n):
                for k in range(i + 1, self.n):
                    if not is_zero(self.T[j][i][k]):
                        out.append({"j": j + 1, "i": i + 1, "k": k + 1,
                                    "coef": scalar_to_json(self.T[j][i][k])})
        return out


def chern_torsion(g: HermitianLieAlgebra) -> TorsionTensor:
    """T^j_{ik} = -C^j_{ik} - D^j_{ik} + D^j_{ki}."""
    n = g.n
    T = _zeros3(n, g.exact)
    for j in range(n):
        for i in range(n):
            for k in range(i + 1, n):
                v = -g.C[j][i][k] - g.D[j][i][k] + g.D[j][k][i]
                T[j][i][k] = v
                T[j][k][i] = -v
    return TorsionTensor(n, T)


class ConnectionMatrix:
    """n x n grid of invariant 1-forms; chern/bismut/gamma are all
    skew-hermitian: entry(i,j) = -conj(entry(j,i))."""

    __slots__ = ("n", "entries", "tag")

    def __init__(self, entries, tag: str):
        entries = tuple(tuple(r) for r in entries)
        n = len(entries)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, *_):
        raise AttributeError("ConnectionMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_skew_hermitian(self, exact: bool = True, tol: float = FLOAT_TOL) -> bool:
        for i in range(self.n):
            for j in range(self.n):
                d = self.entries[i][j] + self.entries[j][i].conj()
                if not _form_is_zero(d, exact, tol):
                    return False
        return True

    def trace(self) -> InvariantForm:
        out = InvariantForm.zero(self.n)
        for i in range(self.n):
            out = out + self.entries[i][i]
        return out


class CurvatureMatrix(ConnectionMatrix):
    """n x n grid of invariant 2-forms."""

    def component(self, k: int, l: int, i: int, j: int) -> Scalar:
        """R_{k lbar i jbar}: the phi_k ^ phibar_l coefficient of entry (i, j)."""
        return self.entries[i][j].coeff((k,), (l,))


def chern_connection(g: HermitianLieAlgebra) -> ConnectionMatrix:
    """theta_{ij} = sum_k ( D^j_{ik} phi_k - conj(D^i_{jk}) phibar_k )."""
    n = g.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            f = InvariantForm.zero(n)
            for k in range(n):
                if not is_zero(g.D[j][i][k]):
                    f = f + InvariantForm.phi(n, k, g.D[j][i][k])
                if not is_zero(g.D[i][j][k]):
                    f = f + InvariantForm.phibar(n, k, -conj(g.D[i][j][k]))
            row.append(f)
        rows.append(row)
    return ConnectionMatrix(rows, "chern")


def gamma_tensor(T: TorsionTensor) -> ConnectionMatrix:
    """gamma_{ij} = sum_k ( T^j_{ik} phi_k - conj(T^i_{jk}) phibar_k )."""
    n = T.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            f = InvariantForm.zero(n)
            for k in range(n):
                if not is_zero(T.T[j][i][k]):
                    f = f + InvariantForm.phi(n, k, T.T[j][i][k])
                if not is_zero(T.T[i][j][k]):
                    f = f + InvariantForm.phibar(n, k, -conj(T.T[i][j][k]))
            row.append(f)
        rows.append(row)
    return ConnectionMatrix(rows, "gamma")


def bismut_connection(g: HermitianLieAlgebra) -> ConnectionMatrix:
    """theta^b = theta + gamma."""
    th = chern_connection(g)
    ga = gamma_tensor(chern_torsion(g))
    rows = [[th[i, j] + ga[i, j] for j in range(g.n)] for i in range(g.n)]
    return ConnectionMatrix(rows, "bismut")


def curvature_of(ctx: CoframeContext, theta: ConnectionMatrix) -> CurvatureMatrix:
    """Theta = d theta - theta ^ theta, entrywise."""
    n = theta.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            f = exterior_d(ctx, theta[i, j])
            for k in range(n):
                f = f - theta[i, k].wedge(theta[k, j])
            row.append(f)
        rows.append(row)
    return CurvatureMatrix(rows, theta.tag)


def chern_curvature(g: HermitianLieAlgebra) -> CurvatureMatrix:
    return curvature_of(g.ctx, chern_connection(g))


def bismut_curvature(g: HermitianLieAlgebra) -> CurvatureMatrix:
    return curvature_of(g.ctx, bismut_connection(g))


# --------------------------------------------------------------------------
# scalar invariants and predicates
# --------------------------------------------------------------------------

def b_tensor(T: TorsionTensor) -> CMatrix:
    """B_{i jbar} = sum_{r,s} T^j_{rs} conj(T^i_{rs}); hermitian nonnegative."""
    n = T.n
    zero = EC.zero() if T.exact else 0j
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for r in range(n):
                for s in range(n):
                    acc = acc + T.T[j][r][s] * conj(T.T[i][r][s])
            row.append(acc)
        rows.append(row)
    return CMatrix(rows)


def gauduchon_eta(T: TorsionTensor) -> InvariantForm:
    """eta = sum_i ( sum_s T^s_{si} ) phi_i; balanced <=> eta = 0."""
    n = T.n
    f = InvariantForm.zero(n)
    for i in range(n):
        acc = EC.zero() if T.exact else 0j
        for s in range(n):
            acc = acc + T.T[s][s][i]
        if not is_zero(acc):
            f = f + InvariantForm.phi(n, i, acc)
    return f


def btp_residuals(g: HermitianLieAlgebra) -> Dict[Tuple[int, int, int], InvariantForm]:
    """Residual 1-forms of the parallel-torsion identity.

    For constant torsion, theta^b-parallelism reads
    0 = sum_r ( T^j_{rk} theta^b_{ir} + T^j_{ir} theta^b_{kr} - T^r_{ik} theta^b_{rj} )
    for all (i, j, k); the returned map holds every left-hand side.
    """
    return _btp_residuals_from(chern_torsion(g), bismut_connection(g))


def _btp_residuals_from(T: "TorsionTensor", tb: "ConnectionMatrix"):
    n = T.n
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                f = InvariantForm.zero(n)
                for r in range(n):
                    if not is_zero(T.T[j][r][k]):
                        f = f + tb[i, r].scale(T.T[j][r][k])
                    if not is_zero(T.T[j][i][r]):
                        f = f + tb[k, r].scale(T.T[j][i][r])
                    if not is_zero(T.T[r][i][k]):
                        f = f - tb[r, j].scale(T.T[r][i][k])
                out[(i, j, k)] = f
    return out


def check_btp(g: HermitianLieAlgebra, tol: float = FLOAT_TOL):
    """True iff every parallel-torsion residual vanishes; returns residuals too."""
    res = btp_residuals(g)
    ok = all(_form_is_zero(f, g.exact, tol) for f in res.values())
    return ok, res


def check_unimodular(g: HermitianLieAlgebra, tol: float = FLOAT_TOL) -> bool:
    """sum_k ( C^k_{ki} + D^k_{ki} ) = 0 for every i."""
    for i in range(g.n):
        acc = EC.zero() if g.exact else 0j
        for k in range(g.n):
            acc = acc + g.C[k][k][i] + g.D[k][k][i]
        if g.exact:
            if not acc.is_zero():
                return False
        elif scalar_abs(acc) > tol:
            return False
    return True


def first_bismut_ricci(g: HermitianLieAlgebra) -> InvariantForm:
    """sqrt(-1) tr Theta^b."""
    i_unit = EC.i() if g.exact else 1j
    return bismut_curvature(g).trace().scale(i_unit)


def first_chern_ricci(g: HermitianLieAlgebra) -> InvariantForm:
    """sqrt(-1) tr Theta (Chern)."""
    i_unit = EC.i() if g.exact else 1j
    return chern_curvature(g).trace().scale(i_unit)


def check_cyt(g: HermitianLieAlgebra, tol: float = FLOAT_TOL) -> bool:
    """Vanishing first Bismut Ricci curvature."""
    return _form_is_zero(bismut_curvature(g).trace(), g.exact, tol)


def check_calabi_yau_type(g: HermitianLieAlgebra, tol: float = FLOAT_TOL) -> bool:
    """Invariant trivialization of the canonical bundle: tr theta = 0."""
    return _form_is_zero(chern_connection(g).trace(), g.exact, tol)


def vaisman_torsion_pattern(T: TorsionTensor, tol: float = FLOAT_TOL):
    """Detect the pattern T^i_{i n} = a > 0 for all i < n, everything else 0.

    Returns (matches, a).  This is the torsion shape of the non-balanced
    companion structures; the library reports the pattern only.
    """
    n = T.n
    a = T.T[0][0][n - 1]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                expected = None
                if j == i and k == n - 1 and i < n - 1:
                    expected = a
                elif j == k and i == n - 1 and k < n - 1:
                    expected = -a
                d = T.T[j][i][k] - (expected if expected is not None else
                                    (EC.zero() if T.exact else 0j))
                if T.exact:
                    if not d.is_zero():
                        return False, None
                elif scalar_abs(d) > tol:
                    return False, None
    if T.exact:
        positive = a.im == 0 and a.re > 0
    else:
        positive = abs(complex(a).imag) <= tol and complex(a).real > tol
    return (positive, a if positive else None)


# --------------------------------------------------------------------------
# real 2n-dimensional bracket, solvability, conjugation swaps
# --------------------------------------------------------------------------

def real_bracket_table(g: HermitianLieAlgebra):
    """Brackets of the basis (e_1..e_n, ebar_1..ebar_n) as coefficient vectors.

    table[x][y] is the expansion of [b_x, b_y]; complexifying the underlying
    real algebra leaves nilpotency and solvability steps unchanged.
    """
    n = g.n
    zero = EC.zero() if g.exact else 0j
    dim = 2 * n

    def vec():
        return [zero] * dim

    table = [[None] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            v = vec()
            for k in range(n):
                v[k] = v[k] + g.C[k][i][j]
            table[i][j] = v
            w = vec()
            for k in range(n):
                w[n + k] = w[n + k] + conj(g.C[k][i][j])
            table[n + i][n + j] = w
            u = vec()
            for k in range(n):
                u[k] = u[k] + conj(g.D[i][k][j])
                u[n + k] = u[n + k] - g.D[j][k][i]
            table[i][n + j] = u
    for i in range(n):
        for j in range(n):
            table[n + i][j] = [-c for c in table[j][n + i]]
    return table


def _bracket_span(table, U, V, exact):
    """Basis of span{ [u, v] : u in U, v in V }."""
    dim = len(table)
    zero = EC.zero() if exact else 0j
    # Structure constants are sparse: keep only the nonzero (m, t_m) entries
    # of each bracket, so zero terms are never multiplied and added.
    sparse = [[[(m, c) for m, c in enumerate(table[x][y]) if not is_zero(c)]
               for y in range(dim)] for x in range(dim)]
    prods = []
    for u in U:
        u_nz = [(x, ux) for x, ux in enumerate(u) if not is_zero(ux)]
        for v in V:
            v_nz = [(y, vy) for y, vy in enumerate(v) if not is_zero(vy)]
            w = [zero] * dim
            for x, ux in u_nz:
                row = sparse[x]
                for y, vy in v_nz:
                    t = row[y]
                    if not t:
                        continue
                    c = ux * vy
                    for m, tm in t:
                        w[m] = w[m] + c * tm
            prods.append(w)
    return row_basis(prods, exact)


def solvability_profile(g: HermitianLieAlgebra):
    """(nilpotent_steps, solvable_steps) of the underlying real Lie algebra.

    Steps count the nonzero terms of the lower central / derived series;
    ``None`` marks a series that stabilizes without reaching zero.
    """
    table = real_bracket_table(g)
    dim = 2 * g.n
    one = EC.one() if g.exact else 1 + 0j
    zero = EC.zero() if g.exact else 0j
    full = [[one if i == j else zero for j in range(dim)] for i in range(dim)]

    def series(next_term):
        cur = full
        steps = 0
        while cur:
            steps += 1
            nxt = next_term(cur)
            if len(nxt) == len(cur):
                return None     # stabilized above zero
            cur = nxt
        return steps

    nilpotent = series(lambda cur: _bracket_span(table, full, cur, g.exact))
    solvable = series(lambda cur: _bracket_span(table, cur, cur, g.exact))
    return nilpotent, solvable


def conjugate_swap(g: HermitianLieAlgebra, S) -> HermitianLieAlgebra:
    """The Hermitian Lie algebra of the frame eps_i = ebar_i (i in S), e_i else.

    The last index n is the distinguished direction and may not be swapped.
    Raises SwapError when the swapped frame does not span a complex
    subalgebra (the flipped structure is not integrable).
    """
    n = g.n
    S = set(int(s) for s in S)
    if (n - 1) in S:
        raise SwapError("the distinguished last index cannot be swapped")
    if any(not 0 <= s < n for s in S):
        raise SwapError("swap indices out of range")
    table = real_bracket_table(g)

    def eps(i):
        return i + n if i in S else i

    def epsbar(i):
        return i if i in S else i + n

    C = _zeros3(n, g.exact)
    D = _zeros3(n, g.exact)
    for i in range(n):
        for k in range(n):
            v = table[eps(i)][eps(k)]
            for j in range(n):
                if not is_zero(v[epsbar(j)]):
                    raise SwapError(
                        f"swap {sorted(x+1 for x in S)} is not integrable: "
                        f"[eps_{i+1}, eps_{k+1}] leaves the (1,0) span")
                C[j][i][k] = v[eps(j)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                # D^j_{ik} = psibar_i([epsbar_j, eps_k])
                w = table[epsbar(j)][eps(k)]
                D[j][i][k] = w[epsbar(i)]
    swapped = HermitianLieAlgebra(
        n, C, D, label=f"{g.label}~swap{sorted(x + 1 for x in S)}")
    return swapped


def bismut_swap_equal(g: HermitianLieAlgebra, S, tol: float = FLOAT_TOL) -> bool:
    """Check that the swap leaves the Bismut connection unchanged.

    Matrix entries of the swapped connection, pulled back along the coframe
    relabeling, must agree blockwise with the original (conjugated on the
    swapped block, vanishing on mixed blocks).
    """
    S = set(int(s) for s in S)
    gh = conjugate_swap(g, S)
    tb = bismut_connection(g)
    tbh = bismut_connection(gh)
    for i in range(g.n):
        for j in range(g.n):
            mapped = tbh[i, j].swap_indices(S)
            if (i in S) == (j in S):
                want = tb[i, j].conj() if i in S else tb[i, j]
                if not _form_is_zero(mapped - want, g.exact, tol):
                    return False
            else:
                if not (_form_is_zero(mapped, g.exact, tol)
                        and _form_is_zero(tb[i, j], g.exact, tol)):
                    return False
    return True


def pluriclosed_obstruction(g: HermitianLieAlgebra) -> InvariantForm:
    """del delbar of phi_{n nbar} for a middle-type admissible torsion.

    The phi_{1 1b} ^ phi_{2 2b} coefficient equals 2 a^2 for torsion
    constant a.  A zero torsion is vacuously allowed and returns 0; any
    other pattern raises PatternError.
    """
    n = g.n
    T = chern_torsion(g)
    if not T.is_zero():
        if n != 3:
            raise PatternError("middle-type obstruction needs n = 3")
        a = T.T[0][0][2]
        ok = True
        for j in range(n):
            for i in range(n):
                for k in range(n):
                    expected = EC.zero() if g.exact else 0j
                    if (j, i, k) == (0, 0, 2):
                        expected = a
                    elif (j, i, k) == (0, 2, 0):
                        expected = -a
                    elif (j, i, k) == (1, 1, 2):
                        expected = -a
                    elif (j, i, k) == (1, 2, 1):
                        expected = a
                    if not is_zero(T.T[j][i][k] - expected):
                        ok = False
        if not ok or is_zero(a):
            raise PatternError("torsion is not in the admissible middle-type pattern")
    Phi = InvariantForm.monomial(g.n, (g.n - 1,), (g.n - 1,),
                                 EC.one() if g.exact else 1 + 0j)
    split = dolbeault_split(g.ctx, Phi)
    ddbar = exterior_d(g.ctx, split.delbar_part).bidegree_part(2, 2)
    return ddbar


def transform_frame(g: HermitianLieAlgebra, P, tol: float = 1e-10) -> HermitianLieAlgebra:
    """Structure constants under the new unitary frame e'_i = sum_s P_{is} e_s.

    C and D follow the torsion law of ``frames.transform_torsion``:
    C'^j_{ik} = sum conj(P_{jt}) P_{ib} P_{kc} C^t_{bc}, and likewise D.
    """
    n = g.n
    C, D = (np.asarray(transform_torsion(X, P, tol)).tolist() for X in (g.C, g.D))
    # mirror the upper triangle: exact antisymmetry guards against roundoff
    # (x * 0 is the zero of x's scalar kind)
    C = [[[C[j][i][k] if i < k else -C[j][k][i] if i > k else C[j][i][i] * 0
           for k in range(n)] for i in range(n)] for j in range(n)]
    return HermitianLieAlgebra(n, C, D, label=f"{g.label}~frame")


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    label: str
    n: int
    balanced: bool
    btp: bool
    unimodular: bool
    cyt: bool
    calabi_yau_type: bool
    b_rank: int
    nilpotent_steps: Optional[int]
    solvable_steps: Optional[int]
    eta: InvariantForm
    bismut_ricci: InvariantForm
    chern_ricci: InvariantForm
    type_label: str
    vaisman_pattern: bool

    def to_json(self):
        return {
            "label": self.label,
            "n": self.n,
            "balanced": self.balanced,
            "btp": self.btp,
            "unimodular": self.unimodular,
            "cyt": self.cyt,
            "calabi_yau_type": self.calabi_yau_type,
            "b_rank": self.b_rank,
            "nilpotent_steps": self.nilpotent_steps,
            "solvable_steps": self.solvable_steps,
            "eta": self.eta.to_json(),
            "bismut_ricci": self.bismut_ricci.to_json(),
            "chern_ricci": self.chern_ricci.to_json(),
            "type_label": self.type_label,
            "vaisman_pattern": self.vaisman_pattern,
        }


def classify(g: HermitianLieAlgebra, tol: float = FLOAT_TOL) -> ClassificationReport:
    """Run every predicate and aggregate the type label.

    Labels: chern_flat when the Chern curvature vanishes; middle when
    balanced + parallel torsion + B-rank 2; non_balanced when eta != 0;
    fano_pattern when balanced + parallel torsion + B-rank 1; other
    otherwise.
    """
    n = g.n
    T = chern_torsion(g)
    eta = gauduchon_eta(T)
    balanced = _form_is_zero(eta, g.exact, tol)
    theta = chern_connection(g)
    gamma = gamma_tensor(T)
    theta_b = ConnectionMatrix([[theta[i, j] + gamma[i, j] for j in range(n)]
                                for i in range(n)], "bismut")
    btp = all(_form_is_zero(f, g.exact, tol)
              for f in _btp_residuals_from(T, theta_b).values())
    unimod = check_unimodular(g, tol)
    b_rank = hermitian_rank(b_tensor(T))
    theta_c = curvature_of(g.ctx, theta)
    chern_flat = all(_form_is_zero(theta_c[i, j], g.exact, tol)
                     for i in range(n) for j in range(n))
    theta_bc = curvature_of(g.ctx, theta_b)
    cyt = _form_is_zero(theta_bc.trace(), g.exact, tol)
    cy_type = _form_is_zero(theta.trace(), g.exact, tol)
    nil_steps, solv_steps = solvability_profile(g)
    i_unit = EC.i() if g.exact else 1j
    chern_ricci = theta_c.trace().scale(i_unit)
    bismut_ricci = theta_bc.trace().scale(i_unit)
    vpat, _ = vaisman_torsion_pattern(T, tol)

    if chern_flat:
        type_label = "chern_flat"
    elif balanced and btp and b_rank == 2:
        type_label = "middle"
    elif not balanced:
        type_label = "non_balanced"
    elif balanced and btp and b_rank == 1:
        type_label = "fano_pattern"
    else:
        type_label = "other"

    return ClassificationReport(
        label=g.label, n=g.n, balanced=balanced, btp=btp, unimodular=unimod,
        cyt=cyt, calabi_yau_type=cy_type, b_rank=b_rank,
        nilpotent_steps=nil_steps, solvable_steps=solv_steps, eta=eta,
        bismut_ricci=bismut_ricci, chern_ricci=chern_ricci,
        type_label=type_label, vaisman_pattern=vpat)
