"""Left-invariant complex differential forms on a coframe {phi_i, phibar_i}.

A monomial phi_I ^ phibar_J is one integer bit mask: bit i stands for phi_i
and bit n+i for phibar_i, so canonical order (all phi before all phibar,
each increasing) is bit order.  ``terms`` maps masks to nonzero
coefficients, so equality of exact forms is a dictionary comparison.  Only
this module reads masks; the API speaks of index tuples (I, J), and
``repr`` and ``to_json`` sort by them.  Every sign comes from one rule,
``_sign(a, b)``: putting the factors of a before those of b in order costs
one transposition per pair x in a, y in b with x > y (the basis blades of
Dorst, Fontijne and Mann, *Geometric Algebra for Computer Science*, 2007,
ch. 19).  The exterior derivative on basis 1-forms follows the structure
equation of a Lie coframe,

    d phi_i = -1/2 sum_{j,k} C^i_{jk} phi_j ^ phi_k
              - sum_{j,k} conj(D^j_{ik}) phi_j ^ phibar_k,

and extends by the graded Leibniz rule.  Each d(f_t) is a 2-form, so it
commutes with the other factors and d(f_1 ^ ... ^ f_k) is the sum of
(-1)^t d(f_t) ^ (the monomial without f_t).  Indices are 0-based in code
and 1-based on the JSON wire.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .scalars import EC, EXACT, DimensionError, Kind, Scalar, Terms, scalar_to_json


class BidegreeError(ValueError):
    pass


def _sign(a: int, b: int) -> int:
    """(-1) to the number of pairs x in a, y in b with x > y (bit sets)."""
    s = 0
    while a := a >> 1:          # pairs with x = y + 1, y + 2, ...
        s += (a & b).bit_count()
    return -1 if s & 1 else 1


def _bits(m: int) -> Iterator[int]:
    """The set bits of m, increasing."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _encode(n: int, I: Sequence[int], J: Sequence[int]) -> int:
    """The mask of phi_I ^ phibar_J; raises unless the monomial is canonical."""
    I, J = tuple(map(index, I)), tuple(map(index, J))
    if any(not 0 <= v < n for v in I + J):
        raise DimensionError(f"index out of range for n={n}")
    if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
        raise ValueError("monomial index lists must be strictly increasing")
    return sum(1 << i for i in I) | sum(1 << (n + j) for j in J)


Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]


class InvariantForm(Terms):
    """An element of the exterior algebra on {phi_1..phi_n, phibar_1..phibar_n}
    with constant coefficients, built from terms {(I, J): c}."""

    __slots__ = ()

    @staticmethod
    def _key(n: int, key) -> int:
        return _encode(n, *key)

    # ---- constructors ---------------------------------------------------
    @staticmethod
    def zero(n: int, kind: Kind = EXACT) -> "InvariantForm":
        return _form(n, {}, kind)

    @staticmethod
    def phi(n: int, i: int, coef: Scalar = None) -> "InvariantForm":
        return InvariantForm(n, {((i,), ()): EC.one() if coef is None else coef})

    @staticmethod
    def phibar(n: int, i: int, coef: Scalar = None) -> "InvariantForm":
        return InvariantForm(n, {((), (i,)): EC.one() if coef is None else coef})

    @staticmethod
    def monomial(n: int, I: Sequence[int], J: Sequence[int], coef: Scalar) -> "InvariantForm":
        return InvariantForm(n, {(tuple(I), tuple(J)): coef})

    # ---- algebra ----------------------------------------------------------
    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        self._check(other)
        return _form(self.n, _wedge_terms(self.terms, other.terms), self.kind)

    __matmul__ = wedge

    def conj(self) -> "InvariantForm":
        """phi_I ^ phibar_J goes to phibar_I ^ phi_J = +-phi_J ^ phibar_I: each
        phibar_i passes each phi_j, so the sign is (-1)^(|I| |J|)."""
        n = self.n
        low = (1 << n) - 1
        t: Dict[int, Scalar] = {}
        for m, c in self.terms.items():
            I, J = m & low, m >> n
            t[J | I << n] = -c.conjugate() if I.bit_count() * J.bit_count() & 1 else c.conjugate()
        return _form(n, t, self.kind)

    # ---- inspection ---------------------------------------------------------
    def coeff(self, I: Sequence[int], J: Sequence[int]) -> Scalar:
        return self._coeff(_encode(self.n, I, J))

    def _bidegree_of(self, m: int) -> Tuple[int, int]:
        return (m & ((1 << self.n) - 1)).bit_count(), (m >> self.n).bit_count()

    def bidegree(self) -> Tuple[int, int]:
        """The (p, q) bidegree; raises unless the form is pure."""
        bds = set(map(self._bidegree_of, self.terms))
        if len(bds) != 1:
            raise BidegreeError(f"form has mixed bidegree {sorted(bds)}")
        return bds.pop()

    def bidegree_part(self, p: int, q: int) -> "InvariantForm":
        return _form(self.n, {m: c for m, c in self.terms.items()
                              if self._bidegree_of(m) == (p, q)}, self.kind)

    def swap_indices(self, S: Iterable[int]) -> "InvariantForm":
        """Substitute phi_i <-> phibar_i for every index i in S.

        This is the coframe relabeling induced by conjugating part of a
        unitary frame; coefficients are left untouched.
        """
        n = self.n
        low = (1 << n) - 1
        s = sum(1 << i for i in set(map(index, S)) if 0 <= i < n)
        out: Dict[int, Scalar] = {}
        for m, c in self.terms.items():
            I, J = m & low, m >> n
            # phi_I goes to head, phibar_J to tail: put each in order, then
            # wedge them together
            head = I & ~s | (I & s) << n
            tail = J & s | (J & ~s) << n
            sign = _sign(I & ~s, I & s) * _sign(J & s, J & ~s) * _sign(head, tail)
            mm = head | tail
            cc = c if sign > 0 else -c
            out[mm] = out[mm] + cc if mm in out else cc
        return _form(n, out, self.kind)

    def _sorted_terms(self) -> List[Tuple[Mono, Scalar]]:
        low = (1 << self.n) - 1
        return sorted(((tuple(_bits(m & low)), tuple(_bits(m >> self.n))), c)
                      for m, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (I, J), c in self._sorted_terms():
            mono = "^".join([f"phi{i+1}" for i in I] + [f"phibar{j+1}" for j in J]) or "1"
            bits.append(f"({c!r})*{mono}")
        return " + ".join(bits)

    # ---- wire format --------------------------------------------------------
    def to_json(self):
        return [{"phi": [i + 1 for i in I], "phibar": [j + 1 for j in J],
                 "coef": scalar_to_json(c)}
                for (I, J), c in self._sorted_terms()]


_form = InvariantForm._of       # from mask-keyed terms, unchecked


def _wedge_terms(a: Dict[int, Scalar], b: Dict[int, Scalar]) -> Dict[int, Scalar]:
    """The wedge kernel: the coefficients of a ^ b, by mask, from the terms
    of two forms, summed in the order of a's terms and then b's; a sum that
    cancels is kept as a zero."""
    acc: Dict[int, Scalar] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if m1 & m2:
                continue
            c = c1 * c2
            if _sign(m1, m2) < 0:
                c = -c
            m = m1 | m2
            acc[m] = acc[m] + c if m in acc else c
    return acc


class CoframeContext:
    """Structure constants C^j_{ik}, D^j_{ik} driving the exterior derivative.

    Built from n, the scalar kind and C and D, each held once as the
    read-only map {(j, i, k): nonzero scalar of that kind} in index order,
    0-based, C's mirrors among its entries (``frames.summed`` gives them
    so); every table built from the structure constants reads these maps.
    C must be antisymmetric in its lower indices; no integrability
    condition is imposed here (see d_squared_residual).
    """

    __slots__ = ("n", "C", "D", "kind", "_d")

    def __init__(self, n: int, kind: Kind, C, D):
        # a pair of zeros is antisymmetric, so each nonzero entry is checked
        # against its mirror (within 1e-12 for float data)
        if not all(kind.negligible(c + C.get((j, k, i), kind.zero), 1e-12)
                   for (j, i, k), c in C.items()):
            raise ValueError("C must be antisymmetric in its lower indices")
        for name, value in (("n", n), ("C", C), ("D", D), ("kind", kind)):
            object.__setattr__(self, name, value)
        # d phi_i: -1/2 (C^i_{jk} phi_j phi_k + C^i_{kj} phi_k phi_j) for j < k
        # and -conj(D^j_{ik}) phi_j phibar_k, in (j, k) order with the C term
        # first, the order in which exterior_d adds them into float sums
        terms = [[] for _ in range(n)]
        for (i, j, k), c in C.items():
            if j < k:
                terms[i].append((j, k, 1 << j | 1 << k, -c))
        for (j, i, k), c in D.items():
            terms[i].append((j, k, 1 << j | 1 << (n + k), -c.conjugate()))
        dphi = [_form(n, {m: c for *_, m, c in sorted(t)}, kind) for t in terms]
        # d of the basis 1-form of each bit: phi_i at bit i, phibar_i at n+i
        object.__setattr__(self, "_d", tuple(dphi) + tuple(f.conj() for f in dphi))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def d_phi(self, i: int) -> InvariantForm:
        return self._d[i]


def exterior_d(ctx: CoframeContext, a: InvariantForm) -> InvariantForm:
    """Exterior derivative by the structure equation and the Leibniz rule,
    d(c f_1 ^ ... ^ f_k) = sum_t (-1)^t c d(f_t) ^ (the other factors)."""
    if ctx.n != a.n:
        raise DimensionError("form dimension does not match context")
    acc: Dict[int, Scalar] = {}
    for m, c in a.terms.items():
        for t, b in enumerate(_bits(m)):
            rest = m ^ 1 << b
            for m2, c2 in ctx._d[b].terms.items():
                if m2 & rest:
                    continue
                v = c2 * c
                if _sign(m2, rest) * (-1) ** t < 0:
                    v = -v
                mm = m2 | rest
                acc[mm] = acc[mm] + v if mm in acc else v
    return _form(a.n, acc, a.kind)


class DolbeaultSplit(namedtuple("DolbeaultSplit", "del_part delbar_part residual")):
    """The (p+1, q) and (p, q+1) components of d, and anything else d
    produced (the residual)."""
    __slots__ = ()


def dolbeault_split(ctx: CoframeContext, a: InvariantForm) -> DolbeaultSplit:
    """Split d(a) into Dolbeault components for a pure (p, q) form."""
    if a.is_zero():
        z = InvariantForm.zero(a.n, a.kind)
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
