"""Exact and floating complex scalars.

Every quantity in the library is generic over a *scalar kind*: either
``ExactComplex`` (a complex number with rational real/imaginary parts, used
for all golden-value computations) or the builtin ``complex`` (used for
numerical frame searches, Takagi factorization and sampling-based checks).
The two kinds are never mixed inside one object.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isfinite
from typing import Union

Rat = Union[int, Fraction]


class ExactComplex:
    """A complex number with exact rational real and imaginary parts.

    The value (r + i*sqrt(-1)) / d is stored as three integers with ``d > 0``
    and ``gcd(r, i, d) == 1``.  That form is canonical, so equality is a
    comparison of the triples and arithmetic never leaves the integers (the
    all-integer setting of Bareiss, Math. Comp. 22, 1968).  ``re`` and ``im``
    read back as ``Fraction``.  Arithmetic with ``int`` and ``Fraction`` is
    supported; mixing with ``float``/``complex`` raises ``TypeError`` so that
    exact pipelines cannot silently degrade.
    """

    __slots__ = ("_r", "_i", "_d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        a, b = re.numerator, re.denominator
        c, e = im.numerator, im.denominator
        # over d = lcm(b, e) the triple is already coprime: a prime power
        # dividing d exactly divides b or e, whose numerator it does not divide
        d = b if b == e else b * e // gcd(b, e)
        _set_r(self, a * (d // b))
        _set_i(self, c * (d // e))
        _set_d(self, d)

    def __setattr__(self, *_):
        raise AttributeError("ExactComplex is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._r, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._i, self._d)

    # ---- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "ExactComplex":
        return _raw(0, 0, 1)

    @staticmethod
    def one() -> "ExactComplex":
        return _raw(1, 0, 1)

    @staticmethod
    def i() -> "ExactComplex":
        return _raw(0, 1, 1)

    # ---- ring operations ----------------------------------------------
    # A zero operand returns the other operand (or the zero itself, for a
    # product) instead of building a new scalar: sums that start from zero
    # and products with structural zeros are most of the calls.
    def __add__(self, o):
        if type(o) is ExactComplex:
            if not (o._r or o._i):
                return self
            if not (self._r or self._i):
                return o
            d = self._d
            if o._d == d:
                if d == 1:
                    return _raw(self._r + o._r, self._i + o._i, 1)
                return _reduced(self._r + o._r, self._i + o._i, d)
            d2 = o._d
            return _reduced(self._r * d2 + o._r * d, self._i * d2 + o._i * d, d * d2)
        o = _triple(o)
        if o is None:
            return NotImplemented
        r, _, d = o
        return _reduced(self._r * d + r * self._d, self._i * d, self._d * d)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is ExactComplex:
            if not (o._r or o._i):
                return self
            d = self._d
            if o._d == d:
                if d == 1:
                    return _raw(self._r - o._r, self._i - o._i, 1)
                return _reduced(self._r - o._r, self._i - o._i, d)
            d2 = o._d
            return _reduced(self._r * d2 - o._r * d, self._i * d2 - o._i * d, d * d2)
        o = _triple(o)
        if o is None:
            return NotImplemented
        r, _, d = o
        return _reduced(self._r * d - r * self._d, self._i * d, self._d * d)

    def __rsub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        r, _, d = o
        return _reduced(r * self._d - self._r * d, -self._i * d, self._d * d)

    def __mul__(self, o):
        if type(o) is ExactComplex:
            r1, i1, r2, i2 = self._r, self._i, o._r, o._i
            if not (r1 or i1):
                return self
            if not (r2 or i2):
                return o
            d = self._d * o._d
            if d == 1:
                return _raw(r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, 1)
            return _reduced(r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, d)
        o = _triple(o)
        if o is None:
            return NotImplemented
        r, _, d = o
        return _reduced(self._r * r, self._i * r, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is ExactComplex:
            r2, i2, d2 = other._r, other._i, other._d
        else:
            o = _triple(other)
            if o is None:
                return NotImplemented
            r2, i2, d2 = o
        n = r2 * r2 + i2 * i2
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        # (r1 + i1 I)/d1 * d2 (r2 - i2 I) / (r2^2 + i2^2)
        r1, i1 = self._r, self._i
        return _reduced((r1 * r2 + i1 * i2) * d2, (i1 * r2 - r1 * i2) * d2, self._d * n)

    def __rtruediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _raw(*o) / self

    def __neg__(self):
        return _raw(-self._r, -self._i, self._d)

    def __pos__(self):
        return self

    # ---- structure -----------------------------------------------------
    def conjugate(self) -> "ExactComplex":
        return _raw(self._r, -self._i, self._d)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return Fraction(self._r * self._r + self._i * self._i, self._d * self._d)

    def is_zero(self) -> bool:
        return not (self._r or self._i)

    def __bool__(self):
        return bool(self._r or self._i)

    def __eq__(self, other):
        if type(other) is ExactComplex:
            return (self._r == other._r and self._i == other._i
                    and self._d == other._d)
        o = _triple(other)
        if o is None:
            return NotImplemented
        return self._i == 0 and self._r == o[0] and self._d == o[2]

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        d = self._d
        return complex(self._r / d, self._i / d)

    def __repr__(self):
        if self._i == 0:
            return f"EC({self.re})"
        return f"EC({self.re}, {self.im})"


_new = object.__new__
_set_r = ExactComplex._r.__set__
_set_i = ExactComplex._i.__set__
_set_d = ExactComplex._d.__set__


def _raw(r: int, i: int, d: int) -> ExactComplex:
    """An ExactComplex from a triple that is already canonical."""
    z = _new(ExactComplex)
    _set_r(z, r)
    _set_i(z, i)
    _set_d(z, d)
    return z


def _reduced(r: int, i: int, d: int) -> ExactComplex:
    """An ExactComplex from any triple with d > 0 (``_raw`` is inlined: this
    runs on nearly every product and on sums of unequal denominators)."""
    g = gcd(r, i, d)
    if g != 1:
        r //= g
        i //= g
        d //= g
    z = _new(ExactComplex)
    _set_r(z, r)
    _set_i(z, i)
    _set_d(z, d)
    return z


def _triple(x):
    """(numerator, 0, denominator) of an int or Fraction, else None."""
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


EC = ExactComplex

Scalar = Union[ExactComplex, complex]


def is_exact(c: Scalar) -> bool:
    return isinstance(c, ExactComplex)


def conj(c: Scalar) -> Scalar:
    if type(c) is ExactComplex:
        return _raw(c._r, -c._i, c._d)
    return complex(c).conjugate()


def is_zero(c: Scalar) -> bool:
    """Exact zero test (floats compare against literal 0.0)."""
    if type(c) is ExactComplex:
        return not (c._r or c._i)
    return c == 0


def scalar_abs(c: Scalar) -> float:
    if isinstance(c, ExactComplex):
        return float(c.abs2()) ** 0.5
    return abs(c)


def as_scalar(value, exact: bool) -> Scalar:
    """Coerce a Python number (or ExactComplex) to the requested kind."""
    if exact:
        if type(value) is ExactComplex:
            return value
        o = _triple(value)
        if o is None:
            raise TypeError(f"cannot build an exact scalar from {value!r}")
        return _raw(*o)
    return complex(value)


# ---- JSON wire format ----------------------------------------------------
# Exact scalars travel as {"re": "p/q", "im": "p/q"}; float scalars as JSON
# numbers (real) or {"re": number, "im": number}.

def scalar_to_json(c: Scalar):
    if isinstance(c, ExactComplex):
        return {"re": str(c.re), "im": str(c.im)}
    c = complex(c)
    if c.imag == 0:
        return c.real
    return {"re": c.real, "im": c.imag}


class SchemaError(ValueError):
    """Malformed JSON input: an algebra, a form or a scalar inside one."""


def _rational_part(x) -> Fraction:
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad exact scalar part {x!r}") from exc


def _float_part(x) -> float:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            v = float(x)
        except OverflowError:          # an int beyond the float range
            v = inf
        if isfinite(v):
            return v
    raise SchemaError(f"bad float scalar part {x!r}: not a finite number")


def scalar_from_json(obj) -> Scalar:
    """Parse the wire format; malformed input raises ``SchemaError``."""
    if isinstance(obj, dict):
        re, im = obj.get("re", 0), obj.get("im", 0)
        if isinstance(re, str) or isinstance(im, str):
            return ExactComplex(_rational_part(re), _rational_part(im))
        return complex(_float_part(re), _float_part(im))
    if isinstance(obj, str):
        return ExactComplex(_rational_part(obj), 0)
    if isinstance(obj, bool):
        raise SchemaError("boolean is not a scalar")
    if isinstance(obj, (int, float)):
        return complex(_float_part(obj))
    raise SchemaError(f"cannot parse scalar from {obj!r}")
