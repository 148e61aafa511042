"""Truncated Taylor expansions in Wirtinger variables (z_1..z_n, zbar_1..zbar_n).

A Jet2 stores all coefficients of total degree <= 2 at a base point; products
drop degree >= 3 terms, so the arithmetic is a closed ring quotient and the
truncated product of truncated jets equals the truncated jet of the product.
Variables are encoded as integers: v in [0, n) is z_{v+1}, v in [n, 2n) is
zbar_{v-n+1}.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .linalg import matrix_inverse
from .scalars import EXACT, Kind, Scalar, Terms

Mono = Tuple[int, ...]   # (), (v,), or (v, w) with v <= w


class JetSingularityError(ZeroDivisionError):
    """Division by a jet whose constant term vanishes."""


class Jet2(Terms):
    """A 2-jet from terms {monomial: c}, each monomial a tuple of at most two
    variables in any order."""

    __slots__ = ()

    @staticmethod
    def _key(n: int, m) -> Mono:
        m = tuple(sorted(m))
        if len(m) > 2 or any(not 0 <= v < 2 * n for v in m):
            raise ValueError(f"bad monomial {m} for n={n}")
        return m

    # ---- constructors ----------------------------------------------------
    @staticmethod
    def constant(n: int, c: Scalar) -> "Jet2":
        return Jet2(n, {(): c})

    @staticmethod
    def variable(n: int, v: int, kind: Kind = EXACT) -> "Jet2":
        return Jet2(n, {(v,): kind.one})

    # ---- ring operations ---------------------------------------------------
    def __mul__(self, other: "Jet2") -> "Jet2":
        self._check(other)
        acc: Dict[Mono, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if not m1:
                    m = m2
                elif not m2:
                    m = m1
                elif len(m1) + len(m2) > 2:
                    continue
                else:
                    v, w = m1[0], m2[0]
                    m = (v, w) if v <= w else (w, v)
                c = c1 * c2
                acc[m] = acc[m] + c if m in acc else c
        return _jet(self.n, acc, self.kind)

    def reciprocal(self) -> "Jet2":
        """1/f by the geometric series; needs a nonzero constant term."""
        c0 = self.terms.get(())
        if not c0:
            raise JetSingularityError("jet has zero constant term")
        n, kind = self.n, self.kind
        one = kind.one
        u = (self - _jet(n, {(): c0}, kind)).scale(one / c0)
        # 1/(c0 (1+u)) = (1 - u + u^2)/c0
        out = _jet(n, {(): one}, kind) - u + u * u
        return out.scale(one / c0)

    def __truediv__(self, other: "Jet2") -> "Jet2":
        return self * other.reciprocal()

    def conj(self) -> "Jet2":
        n = self.n
        out: Dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            if m:
                v = m[0] + n if m[0] < n else m[0] - n
                if len(m) == 1:
                    m = (v,)
                else:
                    w = m[1] + n if m[1] < n else m[1] - n
                    m = (v, w) if v <= w else (w, v)    # only a z zbar pair swaps order
            out[m] = c.conjugate()
        return _jet(n, out, self.kind)

    # ---- coefficient extraction ----------------------------------------------
    def value(self) -> Scalar:
        return self.coeff(())

    def coeff(self, mono: Sequence[int]) -> Scalar:
        return self._coeff(tuple(sorted(mono)))

    def deriv(self, holo: Sequence[int] = (), anti: Sequence[int] = ()) -> Scalar:
        """Partial derivative at the base point.

        ``holo`` and ``anti`` list z / zbar coordinate indices (0-based,
        repeats allowed, total order <= 2).  A repeated variable contributes
        its factorial multiplicity.
        """
        mono = tuple(sorted(list(holo) + [self.n + a for a in anti]))
        c = self.coeff(mono)
        if len(mono) == 2 and mono[0] == mono[1]:
            c = c * 2
        return c

    def partial(self, v: int) -> "Jet2":
        """Derivative with respect to variable v (result has degree <= 1)."""
        acc: Dict[Mono, Scalar] = {}
        for m, c in self.terms.items():      # each m with v leaves its own rest
            if v in m:
                rest = list(m)
                rest.remove(v)
                acc[tuple(rest)] = c * 2 if m == (v, v) else c
        return _jet(self.n, acc, self.kind)

    def truncate(self, max_degree: int) -> "Jet2":
        """Drop coefficients above the given total degree."""
        return _jet(self.n, {m: c for m, c in self.terms.items()
                             if len(m) <= max_degree}, self.kind)

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        if not self.terms:
            return "Jet2(0)"
        def vname(v):
            return f"z{v+1}" if v < self.n else f"zb{v-self.n+1}"
        bits = [f"({c!r})" + "".join("*" + vname(v) for v in m)
                for m, c in sorted(self.terms.items())]
        return " + ".join(bits)


_jet = Jet2._of       # from canonical monomials (sorted, in range), unchecked


def jet_matrix_inverse(g):
    """Inverse of a square matrix of jets via the Neumann series.

    The constant part is inverted by ``linalg.matrix_inverse`` in the
    jets' scalar kind; the series terminates at second order because jets
    truncate.
    """
    n = len(g)
    jn, kind = g[0][0].n, g[0][0].kind
    c0 = [[gij.value() for gij in row] for row in g]
    c0inv = matrix_inverse(c0, kind).tolist()
    const_inv = [[Jet2.constant(jn, c0inv[i][j]) for j in range(n)] for i in range(n)]
    # E = c0inv @ (g - c0) has no constant term
    higher = [[g[i][j] - Jet2.constant(jn, c0[i][j]) for j in range(n)] for i in range(n)]

    def matmul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), Jet2(jn, kind=kind))
                 for j in range(n)] for i in range(n)]

    E = matmul(const_inv, higher)
    I = [[Jet2.constant(jn, kind.one if i == j else kind.zero)
          for j in range(n)] for i in range(n)]
    EE = matmul(E, E)
    series = [[I[i][j] - E[i][j] + EE[i][j] for j in range(n)] for i in range(n)]
    return matmul(series, const_inv)
