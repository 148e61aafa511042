"""Truncated Taylor expansions in Wirtinger variables (z_1..z_n, zbar_1..zbar_n).

A Jet2 stores all coefficients of total degree <= 2 at a base point; products
drop degree >= 3 terms, so the arithmetic is a closed ring quotient and the
truncated product of truncated jets equals the truncated jet of the product.
Variables are encoded as integers: v in [0, n) is z_{v+1}, v in [n, 2n) is
zbar_{v-n+1}.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .scalars import EC, Scalar, conj, is_exact, is_zero, scalar_abs

Mono = Tuple[int, ...]   # (), (v,), or (v, w) with v <= w


class JetSingularityError(ZeroDivisionError):
    """Division by a jet whose constant term vanishes."""


class Jet2:
    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Optional[Dict[Mono, Scalar]] = None):
        clean: Dict[Mono, Scalar] = {}
        if coeffs:
            for m, c in coeffs.items():
                if is_zero(c):
                    continue
                m = tuple(sorted(m))
                if len(m) > 2 or any(not 0 <= v < 2 * n for v in m):
                    raise ValueError(f"bad monomial {m} for n={n}")
                if m in clean:
                    c = clean[m] + c
                    if is_zero(c):      # two spellings of one monomial cancel
                        del clean[m]
                        continue
                clean[m] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *_):
        raise AttributeError("Jet2 is immutable")

    # ---- constructors ----------------------------------------------------
    @staticmethod
    def constant(n: int, c: Scalar) -> "Jet2":
        return Jet2(n, {(): c})

    @staticmethod
    def variable(n: int, v: int, exact: bool = True) -> "Jet2":
        return Jet2(n, {(v,): EC.one() if exact else 1 + 0j})

    @staticmethod
    def z(n: int, i: int, exact: bool = True) -> "Jet2":
        return Jet2.variable(n, i, exact)

    @staticmethod
    def zbar(n: int, i: int, exact: bool = True) -> "Jet2":
        return Jet2.variable(n, n + i, exact)

    # ---- ring operations ---------------------------------------------------
    def _check(self, other: "Jet2"):
        if self.n != other.n:
            raise ValueError("mismatched jet dimensions")

    def __add__(self, other: "Jet2") -> "Jet2":
        self._check(other)
        t = dict(self.coeffs)
        for m, c in other.coeffs.items():
            t[m] = t[m] + c if m in t else c
        return _jet(self.n, t)

    def __sub__(self, other: "Jet2") -> "Jet2":
        self._check(other)
        t = dict(self.coeffs)
        for m, c in other.coeffs.items():
            t[m] = t[m] - c if m in t else -c
        return _jet(self.n, t)

    def __neg__(self) -> "Jet2":
        return _jet(self.n, {m: -c for m, c in self.coeffs.items()})

    def scale(self, c: Scalar) -> "Jet2":
        return _jet(self.n, {m: v * c for m, v in self.coeffs.items()})

    def __mul__(self, other: "Jet2") -> "Jet2":
        self._check(other)
        acc: Dict[Mono, Scalar] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
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
        return _jet(self.n, acc)

    def reciprocal(self) -> "Jet2":
        """1/f by the geometric series; needs a nonzero constant term."""
        c0 = self.coeffs.get(())
        if c0 is None or is_zero(c0):
            raise JetSingularityError("jet has zero constant term")
        one = EC.one() if is_exact(c0) else 1 + 0j
        u = (self - Jet2.constant(self.n, c0)).scale(one / c0)
        # 1/(c0 (1+u)) = (1 - u + u^2)/c0
        out = Jet2.constant(self.n, one) - u + u * u
        return out.scale(one / c0)

    def __truediv__(self, other: "Jet2") -> "Jet2":
        return self * other.reciprocal()

    def conj(self) -> "Jet2":
        n = self.n
        out: Dict[Mono, Scalar] = {}
        for m, c in self.coeffs.items():
            m = tuple(v + n if v < n else v - n for v in m)
            if len(m) == 2 and m[0] > m[1]:      # only a z zbar pair swaps order
                m = (m[1], m[0])
            out[m] = conj(c)
        return _jet(n, out)

    # ---- coefficient extraction ----------------------------------------------
    def value(self) -> Scalar:
        c = self.coeffs.get(())
        if c is None:
            some = next(iter(self.coeffs.values()), None)
            return EC.zero() if some is None or is_exact(some) else 0j
        return c

    def coeff(self, mono: Sequence[int]) -> Scalar:
        c = self.coeffs.get(tuple(sorted(mono)))
        if c is None:
            some = next(iter(self.coeffs.values()), None)
            return EC.zero() if some is None or is_exact(some) else 0j
        return c

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
        for m, c in self.coeffs.items():
            if v not in m:
                continue
            rest = list(m)
            rest.remove(v)
            mult = 2 if len(m) == 2 and m[0] == m[1] else 1
            key = tuple(rest)
            cc = c * mult if mult == 2 else c
            acc[key] = acc[key] + cc if key in acc else cc
        return Jet2(self.n, acc)

    def partial_z(self, i: int) -> "Jet2":
        return self.partial(i)

    def partial_zbar(self, i: int) -> "Jet2":
        return self.partial(self.n + i)

    def truncate(self, max_degree: int) -> "Jet2":
        """Drop coefficients above the given total degree."""
        return Jet2(self.n, {m: c for m, c in self.coeffs.items()
                             if len(m) <= max_degree})

    def substitute_linear(self, M) -> "Jet2":
        """Linear change of jet variables w_a = sum_i M[a][i] w'_i.

        The matrix acts on the holomorphic variables and its conjugate on
        the antiholomorphic ones, as induced by a constant linear change of
        chart coordinates.
        """
        n = self.n

        def expand(v):
            if v < n:
                return [(i, M[v][i]) for i in range(n)]
            return [(n + i, conj(M[v - n][i])) for i in range(n)]

        acc: Dict[Mono, Scalar] = {}

        def put(m, c):
            if is_zero(c):
                return
            m = tuple(sorted(m))
            acc[m] = acc[m] + c if m in acc else c

        for m, c in self.coeffs.items():
            if len(m) == 0:
                put((), c)
            elif len(m) == 1:
                for w, f in expand(m[0]):
                    put((w,), c * f)
            else:
                for w1, f1 in expand(m[0]):
                    for w2, f2 in expand(m[1]):
                        put((w1, w2), c * f1 * f2)
        return Jet2(n, acc)

    def is_zero(self) -> bool:
        return not self.coeffs

    def norm_inf(self) -> float:
        return max((scalar_abs(c) for c in self.coeffs.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "Jet2(0)"
        def vname(v):
            return f"z{v+1}" if v < self.n else f"zb{v-self.n+1}"
        bits = [f"({c!r})" + "".join("*" + vname(v) for v in m)
                for m, c in sorted(self.coeffs.items())]
        return " + ".join(bits)


_set_n = Jet2.n.__set__
_set_coeffs = Jet2.coeffs.__set__


def _jet(n: int, coeffs: Dict[Mono, Scalar]) -> Jet2:
    """A Jet2 from monomials that are already canonical (sorted, in range,
    one entry each); zero coefficients are dropped, nothing else is checked."""
    j = object.__new__(Jet2)
    _set_n(j, n)
    _set_coeffs(j, {m: c for m, c in coeffs.items() if c})
    return j


def jet_matrix_inverse(g):
    """Inverse of a square matrix of jets via the Neumann series.

    The constant part is inverted exactly (exact kind) or with numpy (float
    kind); the series terminates at second order because jets truncate.
    """
    import numpy as np

    from .linalg import exact_solve_identity

    n = len(g)
    jn = g[0][0].n
    c0 = [[gij.value() for gij in row] for row in g]
    exact = is_exact(c0[0][0])
    if exact:
        c0inv = exact_solve_identity(c0)
        one = EC.one()
    else:
        c0inv = np.linalg.inv(np.array([[complex(e) for e in r] for r in c0]))
        c0inv = [[complex(c0inv[i, j]) for j in range(n)] for i in range(n)]
        one = 1 + 0j
    const_inv = [[Jet2.constant(jn, c0inv[i][j]) for j in range(n)] for i in range(n)]
    # E = c0inv @ (g - c0) has no constant term
    higher = [[g[i][j] - Jet2.constant(jn, c0[i][j]) for j in range(n)] for i in range(n)]

    def matmul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), Jet2(jn))
                 for j in range(n)] for i in range(n)]

    E = matmul(const_inv, higher)
    I = [[Jet2.constant(jn, one if i == j else (EC.zero() if exact else 0j))
          for j in range(n)] for i in range(n)]
    EE = matmul(E, E)
    series = [[I[i][j] - E[i][j] + EE[i][j] for j in range(n)] for i in range(n)]
    return matmul(series, const_inv)
