"""Exact and floating complex scalars, and the two scalar kinds.

Every quantity in the library is generic over a *scalar kind*: either
``ExactComplex`` (a complex number with rational real/imaginary parts, used
for all golden-value computations) or the builtin ``complex`` (used for
numerical frame searches, Takagi factorization and sampling-based checks).
The two kinds are never mixed inside one object.  Both answer the same
number protocol: ``not c`` is the exact zero test, ``abs(c)`` a float and
``c.conjugate()`` the conjugate, so generic code needs no kind switch.

A ``Kind`` holds what depends on the kind alone: its name, its numpy dtype,
its zero, one and i, the coercion ``scalar`` and the zero test
``negligible``, which is exact for ``EXACT`` and ``abs(c) <= tol`` for
``FLOAT``, with ``FLOAT_TOL`` as the default tolerance.  ``EXACT`` and
``FLOAT`` are its only instances.  ``kind_of`` is the one rule for the kind
of a scalar: ExactComplex, ``int`` and ``Fraction`` are exact, ``float`` and
``complex`` (numpy's float64 and complex128 among them) float, anything
else (``bool`` too) a TypeError; ``common_kind`` reads a collection.
Objects take their kind once, store their scalars as ``kind.scalar(c)``
and ask the kind, so which kind, and what counts as zero, is decided here;
``exact_scalar`` reads a parameter as exact and ``exact_rational`` a real
one (0.5 and "1/2" alike; a bool raises TypeError).
``Terms`` is the immutable sparse map of scalars under forms and jets; it
carries its kind.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import gcd, inf, isfinite
from typing import Union

Rat = Union[int, Fraction]


class ExactComplex:
    """A complex number with exact rational real and imaginary parts.

    The value (r + i*sqrt(-1)) / d is stored as three integers with ``d > 0``
    and ``gcd(r, i, d) == 1``.  That form is canonical, so equality is a
    comparison of the triples and arithmetic never leaves the integers (the
    all-integer setting of Bareiss, Math. Comp. 22, 1968).  ``re`` and ``im``
    read back as ``Fraction``.  The parts, and the operands of arithmetic,
    are ``int`` or ``Fraction``; any other type (``bool``, ``float``,
    ``complex``, ``str``) raises ``TypeError`` so that exact pipelines cannot
    silently degrade.
    """

    __slots__ = ("_r", "_i", "_d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        parts = _triple(re), _triple(im)
        if None in parts:
            bad = re if parts[0] is None else im
            raise TypeError(f"ExactComplex parts are int or Fraction, not {bad!r}")
        (a, _, b), (c, _, e) = parts
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

    # the names ``complex`` uses, so code can read either kind's parts
    real = re
    imag = im

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

    def __abs__(self) -> float:
        return float(self.abs2()) ** 0.5

    def is_zero(self) -> bool:
        return not (self._r or self._i)

    def __bool__(self):
        return self._r != 0 or self._i != 0

    def __eq__(self, other):
        if type(other) is ExactComplex:
            return (self._r == other._r and self._i == other._i
                    and self._d == other._d)
        o = _triple(other)
        if o is None:
            return NotImplemented
        return self._i == 0 and self._r == o[0] and self._d == o[2]

    def __hash__(self):
        # a real value hashes as the equal int or Fraction does
        return hash((self._r, self._i, self._d)) if self._i else hash(Fraction(self._r, self._d))

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
    """(numerator, 0, denominator) of an int or Fraction, not a bool; else None."""
    if type(x) is int:
        return x, 0, 1
    if type(x) is Fraction:
        return x.numerator, 0, x.denominator
    return None


EC = ExactComplex

Scalar = Union[ExactComplex, complex]


def all_finite(values) -> bool:
    """Whether every scalar is finite: x - x is 0 exactly then, in either kind."""
    return all(x - x == 0 for x in values)


# The float zero test: an absolute bound, whatever the scale of the data.
FLOAT_TOL = 1e-9


def _exact(value) -> ExactComplex:
    """The exact kind's coercion: ExactComplex, int and Fraction are taken,
    anything else raises TypeError, so that exact data cannot degrade."""
    if type(value) is ExactComplex:
        return value
    o = _triple(value)
    if o is None:
        raise TypeError(f"cannot build an exact scalar from {value!r}")
    return _raw(*o)


class Kind:
    """One scalar kind; ``EXACT`` and ``FLOAT`` are the only instances.  Its
    ``name`` is how reports spell it, ``dtype`` the numpy dtype of its arrays,
    and ``scalar`` takes a Python number (or ExactComplex) to a scalar of the
    kind.  Its fields are plain slots, read at instance-attribute speed on the
    zero tests and coefficient reads; kinds compare and hash by identity."""
    __slots__ = ("exact", "name", "dtype", "zero", "one", "i", "scalar")

    def __init__(self, exact, name, dtype, zero, one, i, scalar):
        self.exact, self.name, self.dtype, self.scalar = exact, name, dtype, scalar
        self.zero, self.one, self.i = zero, one, i

    def negligible(self, c, tol: float = FLOAT_TOL):
        """Whether c counts as zero: exactly zero for the exact kind,
        ``abs(c) <= tol`` for the float kind.  Applies elementwise to
        numpy arrays (tol may then be an array too).  A float complex with
        finite parts whose modulus is past the float range is not negligible."""
        if self.exact:
            return c == self.zero
        try:
            return abs(c) <= tol
        except OverflowError:       # abs of a Python complex; arrays give inf
            return False


EXACT = Kind(True, "exact", object, _raw(0, 0, 1), _raw(1, 0, 1), _raw(0, 1, 1), _exact)
FLOAT = Kind(False, "float", complex, 0j, 1 + 0j, 1j, complex)
_KIND_OF_TYPE = {ExactComplex: EXACT, int: EXACT, Fraction: EXACT, float: FLOAT, complex: FLOAT}


def kind_of(c: Scalar) -> Kind:
    """The kind of a scalar: EXACT for ExactComplex, int and Fraction (bool
    is not an int here), FLOAT for float and complex and their subclasses,
    numpy's float64 and complex128 among them.  Anything else raises TypeError."""
    kind = _KIND_OF_TYPE.get(type(c))
    if kind is None and isinstance(c, (float, complex)):
        kind = FLOAT
    if kind is None:
        raise TypeError(f"{c!r} is not a scalar of either kind")
    return kind


def common_kind(values) -> Kind:
    """The one kind of the scalars in values (not empty); TypeError if they
    mix.  The kind of each type present is read once."""
    kinds = {kind_of(c) for c in {type(c): c for c in values}.values()}
    if len(kinds) > 1:
        raise TypeError("mixed scalar kinds in one object")
    return kinds.pop()


def exact_rational(value) -> Fraction:
    """A real parameter taken exactly, through ``Fraction``: 0.5 and "1/2"
    alike, a float as its exact binary value (0.1 is
    3602879701896397/36028797018963968).  A bool, a complex or an
    ExactComplex raises TypeError."""
    if type(value) is bool:
        raise TypeError(f"a bool is not a parameter: {value!r}")
    return Fraction(value)


def exact_scalar(value) -> ExactComplex:
    """A parameter taken exactly: an ExactComplex as it is, anything else by
    ``exact_rational`` (a bool or a complex raises TypeError)."""
    return value if type(value) is ExactComplex else _exact(exact_rational(value))


def memoized(build):
    """``build(obj)``, run once per object and kept in the ``_memo`` dict its
    ``__init__`` makes (object and result immutable); the body runs as ``__wrapped__``."""
    @wraps(build)
    def once(obj):
        if once not in obj._memo:
            obj._memo[once] = once.__wrapped__(obj)
        return obj._memo[once]
    return once


class DimensionError(ValueError):
    """An index out of range, or operands of different dimensions."""


class Terms:
    """An immutable sparse linear combination: ``terms`` maps canonical keys
    to nonzero scalars of the map's ``kind``, over a dimension ``n`` that
    operands must share, as they must share the kind.  The kind is that of
    the given coefficients, zeros included, or the ``kind`` argument for a
    map given none; each coefficient is stored as a scalar of that kind.  A
    subclass gives the canonical key of a spelling (``_key``) and its
    products; the linear structure, equality and hashing live here.  ``_of``
    builds from canonical keys without checking them."""

    __slots__ = ("n", "terms", "kind")

    def __init__(self, n: int, terms=None, kind: Kind = EXACT):
        terms = terms or {}
        if terms:
            kind = common_kind(terms.values())
        clean = {}
        for key, c in terms.items():
            if not c:
                continue
            c = kind.scalar(c)
            m = self._key(n, key)
            if m in clean:
                c = clean[m] + c
                if not c:          # two spellings of one key cancel
                    del clean[m]
                    continue
            clean[m] = c
        _set_n(self, n)
        _set_terms(self, clean)
        _set_kind(self, kind)

    @classmethod
    def _of(cls, n: int, terms, kind: Kind):
        """From canonical keys: zero coefficients are dropped, nothing is checked."""
        t = _new(cls)
        _set_n(t, n)
        _set_terms(t, {m: c for m, c in terms.items() if c})
        _set_kind(t, kind)
        return t

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other: "Terms"):
        if self.n != other.n:
            raise DimensionError(f"mismatched {type(self).__name__} dimensions")
        if self.kind is not other.kind:
            raise TypeError("mixed scalar kinds in one object")

    def __add__(self, other: "Terms") -> "Terms":
        self._check(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t[m] + c if m in t else c
        return self._of(self.n, t, self.kind)

    def __sub__(self, other: "Terms") -> "Terms":
        self._check(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t[m] - c if m in t else -c
        return self._of(self.n, t, self.kind)

    def __neg__(self) -> "Terms":
        return self._of(self.n, {m: -c for m, c in self.terms.items()}, self.kind)

    def scale(self, c: Scalar) -> "Terms":
        return self._of(self.n, {m: v * c for m, v in self.terms.items()}, self.kind)

    def is_zero(self) -> bool:
        return not self.terms

    def _coeff(self, m) -> Scalar:
        """The coefficient of canonical key m, the kind's zero if missing."""
        return self.terms.get(m, self.kind.zero)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))


_set_n = Terms.n.__set__
_set_terms = Terms.terms.__set__
_set_kind = Terms.kind.__set__


# ---- JSON wire format ----------------------------------------------------
# Exact scalars travel as {"re": "p/q", "im": "p/q"}; float scalars as JSON
# numbers (real) or {"re": number, "im": number}.

MAX_DIGITS = 4300       # CPython's default bound on the digits of an int read or written


class DigitLimitError(ValueError):
    """An exact value, read or written, with MAX_DIGITS digits or more."""


def _ratio_text(p: int, d: int) -> str:
    """``str(Fraction(p, d))`` for d > 0, with one gcd."""
    g = gcd(p, d)
    return str(p // g) if d == g else f"{p // g}/{d // g}"


def scalar_to_json(c: Scalar):
    if isinstance(c, ExactComplex):
        try:
            return {"re": _ratio_text(c._r, c._d), "im": _ratio_text(c._i, c._d)}
        except ValueError as exc:       # str() of an int past the digit bound
            raise DigitLimitError(f"exact result too long to write: more than "
                                  f"{MAX_DIGITS} digits") from exc
    c = complex(c)
    if c.imag == 0:
        return c.real
    return {"re": c.real, "im": c.imag}


def table_to_json(a):
    """A numpy table as nested lists of ``scalar_to_json`` leaves.  A float
    table with no nonzero imaginary part is written as its real parts at
    once, which is that function's rule for each of its entries."""
    if a.dtype == complex and not a.imag.any():
        return a.real.tolist()
    import numpy as np
    return np.frompyfunc(scalar_to_json, 1, 1)(a).tolist()


class SchemaError(ValueError):
    """Malformed JSON input: an algebra, a form or a scalar inside one."""


def parse_rational(text: str) -> Fraction:
    """An exact literal ('3', '-1/2', '0.25', '1e-3') as a Fraction.  Its digits
    plus its exponent bound its value's digits: from MAX_DIGITS on it raises
    DigitLimitError before ``Fraction`` builds it.  A literal shorter than
    MAX_DIGITS with no exponent cannot reach the bound, so its digits go
    uncounted."""
    if len(text) >= MAX_DIGITS or "e" in text or "E" in text:
        mantissa, _, exponent = text.lower().partition("e")
        digits = max(sum(ch.isdigit() for ch in part) for part in mantissa.split("/"))
        if digits + abs(int(exponent or 0)) >= MAX_DIGITS:
            raise DigitLimitError(f"exact literal too long: its value could reach "
                                  f"{MAX_DIGITS} digits")
    return Fraction(text)


def _rational_part(x) -> Rat:
    """A part of an exact scalar: an ASCII '-?digits(/digits)' literal below MAX_DIGITS
    with a nonzero denominator is read by ``int``, any other by ``parse_rational``."""
    try:
        text = str(x)
        num, slash, den = text.partition("/")
        if (len(text) < MAX_DIGITS and text.isascii() and num.removeprefix("-").isdigit()
                and (not slash or den.isdigit() and den.strip("0"))):
            return Fraction(int(num), int(den)) if slash else int(num)
        return parse_rational(text)
    except DigitLimitError as exc:
        raise SchemaError(f"bad exact scalar part: {exc}") from exc
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
