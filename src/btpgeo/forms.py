"""Left-invariant complex differential forms on a coframe {phi_i, phibar_i}.

Monomials are kept canonical: all phi indices before all phibar indices,
each list strictly increasing, signs normalized on insertion, zero
coefficients dropped.  This makes equality of exact forms a dictionary
comparison.  The exterior derivative on basis 1-forms follows the structure
equation of a Lie coframe,

    d phi_i = -1/2 sum_{j,k} C^i_{jk} phi_j ^ phi_k
              - sum_{j,k} conj(D^j_{ik}) phi_j ^ phibar_k,

and extends by the graded Leibniz rule.  Indices are 0-based in code and
1-based on the JSON wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import (EC, Kind, Scalar, conj, is_zero, kind_of, scalar_abs,
                      scalar_from_json, scalar_to_json)


class FormDimensionError(ValueError):
    pass


class BidegreeError(ValueError):
    pass


def _merge_sign(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Merge two strictly increasing tuples; return (sign, merged) or None.

    The sign is the parity of the shuffle putting a+b into increasing order;
    a repeated index collapses the product to zero (returns None).
    """
    out: List[int] = []
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


Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]


class InvariantForm:
    """An element of the exterior algebra on {phi_1..phi_n, phibar_1..phibar_n}
    with constant coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Dict[Mono, Scalar]] = None):
        clean: Dict[Mono, Scalar] = {}
        if terms:
            for (I, J), c in terms.items():
                if is_zero(c):
                    continue
                I, J = tuple(I), tuple(J)
                if any(not 0 <= v < n for v in I + J):
                    raise FormDimensionError(f"index out of range for n={n}")
                if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
                    raise ValueError("monomial index lists must be strictly increasing")
                clean[(I, J)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("InvariantForm is immutable")

    # ---- constructors ---------------------------------------------------
    @staticmethod
    def zero(n: int) -> "InvariantForm":
        return InvariantForm(n, {})

    @staticmethod
    def scalar(n: int, c: Scalar) -> "InvariantForm":
        return InvariantForm(n, {((), ()): c})

    @staticmethod
    def phi(n: int, i: int, coef: Scalar = None) -> "InvariantForm":
        return InvariantForm(n, {((i,), ()): EC.one() if coef is None else coef})

    @staticmethod
    def phibar(n: int, i: int, coef: Scalar = None) -> "InvariantForm":
        return InvariantForm(n, {((), (i,)): EC.one() if coef is None else coef})

    @staticmethod
    def monomial(n: int, I: Sequence[int], J: Sequence[int], coef: Scalar) -> "InvariantForm":
        return InvariantForm(n, {(tuple(I), tuple(J)): coef})

    # ---- linear structure -------------------------------------------------
    def _check(self, other: "InvariantForm"):
        if self.n != other.n:
            raise FormDimensionError("mismatched coframe dimensions")

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        self._check(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t[m] + c if m in t else c
        return InvariantForm(self.n, t)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-other)

    def __neg__(self) -> "InvariantForm":
        return InvariantForm(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar) -> "InvariantForm":
        if is_zero(c):
            return InvariantForm.zero(self.n)
        return InvariantForm(self.n, {m: v * c for m, v in self.terms.items()})

    # ---- algebra ----------------------------------------------------------
    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        self._check(other)
        acc: Dict[Mono, Scalar] = {}
        for (I1, J1), c1 in self.terms.items():
            for (I2, J2), c2 in other.terms.items():
                mi = _merge_sign(I1, I2)
                if mi is None:
                    continue
                mj = _merge_sign(J1, J2)
                if mj is None:
                    continue
                sign = mi[0] * mj[0]
                if (len(J1) * len(I2)) % 2:
                    sign = -sign
                c = c1 * c2
                if sign < 0:
                    c = -c
                m = (mi[1], mj[1])
                acc[m] = acc[m] + c if m in acc else c
        return InvariantForm(self.n, acc)

    __matmul__ = wedge

    def conj(self) -> "InvariantForm":
        t: Dict[Mono, Scalar] = {}
        for (I, J), c in self.terms.items():
            cc = conj(c)
            if (len(I) * len(J)) % 2:
                cc = -cc
            t[(J, I)] = cc
        return InvariantForm(self.n, t)

    # ---- inspection ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, I: Sequence[int], J: Sequence[int]) -> Scalar:
        c = self.terms.get((tuple(I), tuple(J)))
        if c is None:       # the zero of the form's kind; exact for an empty form
            return kind_of(next(iter(self.terms.values()), EC.zero())).zero
        return c

    def degrees(self) -> set:
        return {len(I) + len(J) for I, J in self.terms}

    def bidegree(self) -> Tuple[int, int]:
        """The (p, q) bidegree; raises unless the form is pure."""
        bds = {(len(I), len(J)) for I, J in self.terms}
        if len(bds) != 1:
            raise BidegreeError(f"form has mixed bidegree {sorted(bds)}")
        return bds.pop()

    def bidegree_part(self, p: int, q: int) -> "InvariantForm":
        return InvariantForm(self.n, {m: c for m, c in self.terms.items()
                                      if (len(m[0]), len(m[1])) == (p, q)})

    def norm_inf(self) -> float:
        return max((scalar_abs(c) for c in self.terms.values()), default=0.0)

    def swap_indices(self, S: Iterable[int]) -> "InvariantForm":
        """Substitute phi_i <-> phibar_i for every index i in S.

        This is the coframe relabeling induced by conjugating part of a
        unitary frame; coefficients are left untouched.
        """
        S = set(S)
        out: Dict[Mono, Scalar] = {}
        for (I, J), c in self.terms.items():
            factors = [(0, i) for i in I] + [(1, j) for j in J]
            subbed = [((1 - t, i) if i in S else (t, i)) for t, i in factors]
            # parity of the sort into canonical order
            sign = 1
            key = [t * self.n + i for t, i in subbed]
            for a in range(len(key)):
                for b in range(a + 1, len(key)):
                    if key[a] > key[b]:
                        sign = -sign
            newI = tuple(sorted(i for t, i in subbed if t == 0))
            newJ = tuple(sorted(i for t, i in subbed if t == 1))
            cc = c if sign > 0 else -c
            m = (newI, newJ)
            out[m] = out[m] + cc if m in out else cc
        return InvariantForm(self.n, out)

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (I, J), c in sorted(self.terms.items()):
            mono = "^".join([f"phi{i+1}" for i in I] + [f"phibar{j+1}" for j in J]) or "1"
            bits.append(f"({c!r})*{mono}")
        return " + ".join(bits)

    # ---- wire format --------------------------------------------------------
    def to_json(self):
        return [{"phi": [i + 1 for i in I], "phibar": [j + 1 for j in J],
                 "coef": scalar_to_json(c)}
                for (I, J), c in sorted(self.terms.items())]

    @staticmethod
    def from_json(n: int, items) -> "InvariantForm":
        t: Dict[Mono, Scalar] = {}
        for it in items:
            I = tuple(i - 1 for i in it.get("phi", []))
            J = tuple(j - 1 for j in it.get("phibar", []))
            c = scalar_from_json(it["coef"])
            t[(I, J)] = t[(I, J)] + c if (I, J) in t else c
        return InvariantForm(n, t)


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    return a.wedge(b)


def lower_antisymmetric(T, kind: Kind) -> bool:
    """Whether T[j][i][k] + T[j][k][i] is negligible (within 1e-12 for
    float data) for every j, i, k."""
    n = len(T)
    return all(kind.negligible(T[j][i][k] + T[j][k][i], 1e-12)
               for j in range(n) for i in range(n) for k in range(i, n))


class CoframeContext:
    """Structure constants C^j_{ik}, D^j_{ik} driving the exterior derivative.

    C must be antisymmetric in its lower indices; no integrability condition
    is imposed here (see d_squared_residual).  Entries are indexed
    [j][i][k], 0-based.
    """

    __slots__ = ("n", "C", "D", "kind", "_dphi", "_dphibar")

    def __init__(self, n: int, C, D):
        C = tuple(tuple(tuple(r) for r in layer) for layer in C)
        D = tuple(tuple(tuple(r) for r in layer) for layer in D)
        for T, name in ((C, "C"), (D, "D")):
            if len(T) != n or any(len(l) != n or any(len(r) != n for r in l) for l in T):
                raise FormDimensionError(f"{name} must be n x n x n")
        kind = kind_of(C[0][0][0])
        if not lower_antisymmetric(C, kind):
            raise ValueError("C must be antisymmetric in its lower indices")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "kind", kind)
        dphi = []
        for i in range(n):
            f = InvariantForm.zero(n)
            for j in range(n):
                for k in range(n):
                    if j < k and not is_zero(C[i][j][k]):
                        # -1/2 (C^i_{jk} phi_j phi_k + C^i_{kj} phi_k phi_j)
                        f = f + InvariantForm.monomial(n, (j, k), (), -C[i][j][k])
                    if not is_zero(D[j][i][k]):
                        f = f + InvariantForm.monomial(n, (j,), (k,), -conj(D[j][i][k]))
            dphi.append(f)
        object.__setattr__(self, "_dphi", tuple(dphi))
        object.__setattr__(self, "_dphibar", tuple(f.conj() for f in dphi))

    def __setattr__(self, *_):
        raise AttributeError("CoframeContext is immutable")

    @property
    def exact(self) -> bool:
        return self.kind.exact

    def d_phi(self, i: int) -> InvariantForm:
        return self._dphi[i]

    def d_phibar(self, i: int) -> InvariantForm:
        return self._dphibar[i]


def exterior_d(ctx: CoframeContext, a: InvariantForm) -> InvariantForm:
    """Exterior derivative by the structure equation and the Leibniz rule."""
    if ctx.n != a.n:
        raise FormDimensionError("form dimension does not match context")
    n = a.n
    out = InvariantForm.zero(n)
    for (I, J), c in a.terms.items():
        factors = [(0, i) for i in I] + [(1, j) for j in J]
        for t, (kind, idx) in enumerate(factors):
            dfac = ctx.d_phi(idx) if kind == 0 else ctx.d_phibar(idx)
            if dfac.is_zero():
                continue
            before = factors[:t]
            after = factors[t + 1:]
            pre = InvariantForm.monomial(
                n, [i for k, i in before if k == 0], [i for k, i in before if k == 1],
                ctx.kind.one)
            post = InvariantForm.monomial(
                n, [i for k, i in after if k == 0], [i for k, i in after if k == 1],
                ctx.kind.one)
            term = pre.wedge(dfac).wedge(post)
            cc = c if t % 2 == 0 else -c
            out = out + term.scale(cc)
    return out


@dataclass(frozen=True)
class DolbeaultSplit:
    del_part: InvariantForm      # the (p+1, q) component of d
    delbar_part: InvariantForm   # the (p, q+1) component of d
    residual: InvariantForm      # anything else d produced (flagged if nonzero)

    @property
    def clean(self) -> bool:
        return self.residual.is_zero()


def dolbeault_split(ctx: CoframeContext, a: InvariantForm) -> DolbeaultSplit:
    """Split d(a) into Dolbeault components for a pure (p, q) form."""
    if a.is_zero():
        z = InvariantForm.zero(a.n)
        return DolbeaultSplit(z, z, z)
    p, q = a.bidegree()
    da = exterior_d(ctx, a)
    dp = da.bidegree_part(p + 1, q)
    dq = da.bidegree_part(p, q + 1)
    return DolbeaultSplit(dp, dq, da - dp - dq)


def d_squared_residual(ctx: CoframeContext) -> List[InvariantForm]:
    """d(d phi_i) for every i; all zero iff (C, D) satisfy the Jacobi
    (integrability) identities."""
    return [exterior_d(ctx, ctx.d_phi(i)) for i in range(ctx.n)]
