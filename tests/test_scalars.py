import math
import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from btpgeo import charts, lie, scalars
from btpgeo.forms import BidegreeError, InvariantForm, dolbeault_split, exterior_d
from btpgeo.jets import Jet2, jet_matrix_inverse
from btpgeo.scalars import (EC, EXACT, FLOAT, MAX_DIGITS, DigitLimitError, DimensionError, Kind,
                            SchemaError, Terms, exact_rational, exact_scalar, kind_of,
                            parse_rational, scalar_from_json, scalar_to_json, table_to_json)

rationals = st.fractions(max_denominator=50)
exacts = st.builds(EC, rationals, rationals)


def test_basic_arithmetic():
    a = EC(Fraction(1, 2), Fraction(-3, 4))
    b = EC(2, 1)
    assert a + b == EC(Fraction(5, 2), Fraction(1, 4))
    assert a * b == EC(Fraction(1, 2) * 2 + Fraction(3, 4), Fraction(1, 2) - Fraction(3, 2))
    assert (a / b) * b == a
    assert -a + a == EC.zero()
    assert complex(EC(1, 2)) == 1 + 2j


def test_lowest_terms_and_positive_denominator():
    c = EC(Fraction(2, -4), Fraction(6, 4))
    assert c.re.denominator == 2 and c.re.numerator == -1
    assert c.im == Fraction(3, 2)


@given(exacts)
def test_conj_involution(c):
    assert c.conjugate().conjugate() == c


@given(exacts)
def test_abs2_exact_rational(c):
    assert c.abs2() == c.re ** 2 + c.im ** 2
    assert (c * c.conjugate()).im == 0


@given(exacts, exacts, exacts)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(exacts)
def test_division_roundtrip(c):
    if not c.is_zero():
        assert (EC.one() / c) * c == EC.one()


def test_no_float_mixing():
    with pytest.raises(TypeError):
        EC(1, 0) + 0.5
    with pytest.raises(TypeError):
        EC(1, 0) * (1 + 2j)


@pytest.mark.parametrize("parts", [
    (0.1,), (1, 0.5), (True,), (1, False), ("1/2",), (1j,), (Decimal("0.5"),),
    (np.float64(0.5),), (np.int64(1),), (EC(1),),
], ids=repr)
def test_exact_complex_parts_are_int_or_fraction(parts):
    # EC(0.1) would otherwise be the binary value of 0.1, silently exact
    with pytest.raises(TypeError, match="int or Fraction"):
        EC(*parts)


def test_json_roundtrip_exact():
    c = EC(Fraction(-7, 3), Fraction(22, 5))
    assert scalar_from_json(scalar_to_json(c)) == c
    assert scalar_to_json(c) == {"re": "-7/3", "im": "22/5"}


big_rationals = st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 60))


@given(st.one_of(exacts, st.builds(EC, big_rationals, big_rationals)))
def test_exact_json_parts_are_the_fraction_text(c):
    assert scalar_to_json(c) == {"re": str(c.re), "im": str(c.im)}


@pytest.mark.parametrize("re, im", [
    (10 ** MAX_DIGITS, 0), (0, -(10 ** MAX_DIGITS)), (Fraction(1, 10 ** MAX_DIGITS), 1),
    (Fraction(1, 2), Fraction(7, 3 * 10 ** MAX_DIGITS))],
    ids=["re", "im", "re_denominator", "im_denominator"])
def test_exact_json_parts_past_the_digit_bound_raise(re, im):
    with pytest.raises(ValueError):         # what str(Fraction) raises
        str(EC(re, im).re), str(EC(re, im).im)
    with pytest.raises(DigitLimitError, match=f"more than {MAX_DIGITS} digits"):
        scalar_to_json(EC(re, im))


_LITERALS = st.one_of(
    st.integers().map(str),
    st.fractions().map(str),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),      # '1E+2' too
    st.builds(lambda p, q, e: f"{p}.{q}e{e}", st.integers(), st.integers(0, 10 ** 6),
              st.integers(-40, 40)),
    st.builds(lambda d, n: d * n, st.sampled_from("123456789"), st.integers(1, MAX_DIGITS - 1)))


@given(_LITERALS)
def test_parse_rational_below_the_digit_bound_is_fraction(text):
    # with no exponent and fewer than MAX_DIGITS characters the digits go
    # uncounted; every literal here stays below the bound either way
    assert parse_rational(text) == Fraction(text)


def _rational_part_by_parse_rational(x):
    """A part of an exact scalar with every literal read by parse_rational."""
    try:
        return parse_rational(str(x))
    except DigitLimitError as exc:
        raise SchemaError(f"bad exact scalar part: {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad exact scalar part {x!r}") from exc


_PARTS = st.one_of(
    _LITERALS,
    st.text(alphabet="0123456789-/+ ._eE\u0663\u00b2", max_size=12),     # '٣' and '²' too
    st.builds(lambda sign, p, q: f"{sign}{p}/{q}", st.sampled_from(["", "-", "+", "--", " "]),
              st.integers(0, 10 ** 30), st.integers(0, 10 ** 6)),
    st.builds(lambda sign, n, over: sign + "7" * n + over, st.sampled_from(["", "-"]),
              st.integers(MAX_DIGITS - 3, MAX_DIGITS + 1), st.sampled_from(["", "/3", "/0"])),
    st.integers(-10 ** 6, 10 ** 6), st.booleans(), st.floats(allow_nan=False))


@given(_PARTS)
def test_literal_fast_path_reads_as_parse_rational(x):
    # the same value, or the same exception with the same message
    def outcome(read):
        try:
            return read(x)
        except Exception as exc:
            return type(exc), str(exc)
    got, want = outcome(scalars._rational_part), outcome(_rational_part_by_parse_rational)
    assert got == want
    if isinstance(x, str) and x.lstrip("-").isascii() and x.lstrip("-").isdigit() \
            and x.count("-") <= 1 and len(x) < MAX_DIGITS:
        assert type(got) is int     # the fast path reads it


def test_exact_json_parts_at_the_digit_bound():
    # a part of MAX_DIGITS digits still writes, also where the stored
    # numerator over the common denominator 21 has one digit more
    top = 10 ** MAX_DIGITS - 1
    c = EC(Fraction(top, 7), Fraction(1, 3))
    assert c._d == 21 and c._r == 3 * top
    assert scalar_to_json(c) == {"re": f"{top}/7", "im": "1/3"}
    assert scalar_to_json(EC(0, top)) == {"re": "0", "im": str(top)}


def test_json_roundtrip_float():
    z = 1.5 - 2.25j
    assert scalar_from_json(scalar_to_json(z)) == z
    assert scalar_to_json(3.0) == 3.0
    assert scalar_from_json(2) == 2 + 0j and isinstance(scalar_from_json(2), complex)
    assert scalar_from_json("2/3") == EC(Fraction(2, 3), 0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("entries", [
    [1.5, -0.0, 2.0],                          # real, a negative zero
    [complex(1, -0.0), -0.0j, 3],              # negative-zero imaginary parts
    [NAN, INF, -INF],                          # non-finite real parts
    [1, 2 + 1e-300j, 0],                       # one tiny imaginary part
    [complex(0, NAN), 1, 2],                   # a nan imaginary part
    [complex(-INF, 1), -0.0, complex(-0.0, -2.5)],
])
def test_table_writer_leaves_equal_the_scalar_writer_s(entries):
    per_scalar = lambda a: repr(np.frompyfunc(scalar_to_json, 1, 1)(a).tolist())
    for shape in ((3,), (3, 1, 1)):
        a = np.array(entries, complex).reshape(shape)
        assert repr(table_to_json(a)) == per_scalar(a)
    e = np.array([EC(1, 2), EC(Fraction(-3, 4)), EC.zero()], object)
    assert table_to_json(e) == [{"re": "1", "im": "2"}, {"re": "-3/4", "im": "0"},
                                {"re": "0", "im": "0"}]


def test_is_zero():
    assert EC.zero().is_zero() and not EC(0, 1).is_zero()
    assert not EC.zero() and bool(EC(0, 1))
    assert not 0j and bool(1e-300 + 0j)


# Both scalar kinds answer ``not``, ``abs`` and ``.conjugate()``.  The
# expected values are those of the module-level shims these replaced:
# ``c == 0``, ``float(abs2) ** 0.5`` for an exact scalar (for a complex
# one the shim was ``abs`` itself), and the negated imaginary part.
special_parts = st.sampled_from([0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan])
any_complex = (st.complex_numbers(allow_nan=True, allow_infinity=True)
               | st.builds(complex, special_parts, special_parts))


def _same_float(a, b):
    """Equal with the same sign, or both nan."""
    return (a != a and b != b) or (a == b and math.copysign(1, a) == math.copysign(1, b))


@given(exacts | any_complex)
def test_number_protocol_matches_the_shims_it_replaced(c):
    assert (not c) == (c == 0)
    cc = c.conjugate()
    assert type(cc) is type(c)
    if isinstance(c, EC):
        assert (cc.re, cc.im) == (c.re, -c.im)
        assert type(abs(c)) is float and abs(c) == float(c.abs2()) ** 0.5
    else:
        assert _same_float(cc.real, c.real) and _same_float(cc.imag, -c.imag)


def test_numpy_abs_and_conj_over_exact_arrays():
    a = np.array([EC(3, 4), EC.zero(), EC(Fraction(1, 2), -1)], object)
    mods = np.abs(a)
    assert [type(v) for v in mods] == [float] * 3
    assert mods.tolist() == [5.0, 0.0, 1.25 ** 0.5]
    conjs = np.conj(a)
    assert [type(v) for v in conjs] == [EC] * 3
    assert conjs.tolist() == [EC(3, -4), EC.zero(), EC(Fraction(1, 2), 1)]


# ---- the integer-triple scalar against an independent model ---------------
# The reference is a plain pair of Fractions (re, im) with the textbook
# formulas, written here without touching ExactComplex arithmetic.

big = st.integers(-10**12, 10**12)
big_rationals = st.builds(Fraction, big, st.integers(1, 10**12))
big_exacts = st.builds(EC, big_rationals, big_rationals)
operands = st.one_of(big_exacts, big, big_rationals)


def ref(x):
    if isinstance(x, EC):
        return Fraction(x.re), Fraction(x.im)
    return Fraction(x), Fraction(0)


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ref_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def assert_canonical(c):
    assert type(c) is EC
    assert c._d > 0 and math.gcd(c._r, c._i, c._d) == 1
    assert type(c.re) is Fraction and type(c.im) is Fraction


OPS = [(operator.add, ref_add), (operator.sub, ref_sub), (operator.mul, ref_mul)]


@pytest.mark.parametrize("op, model", OPS, ids=["add", "sub", "mul"])
@given(a=big_exacts, b=operands)
def test_ring_ops_match_fraction_model(op, model, a, b):
    for x, y in ((a, b), (b, a)):
        got = op(x, y)
        assert_canonical(got)
        assert (got.re, got.im) == model(ref(x), ref(y))


@given(big_exacts, operands)
def test_division_matches_fraction_model(a, b):
    for x, y in ((a, b), (b, a)):
        if ref(y) == (0, 0):
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        got = x / y
        assert_canonical(got)
        assert (got.re, got.im) == ref_div(ref(x), ref(y))


@given(big_exacts)
def test_unary_ops_match_fraction_model(c):
    re, im = ref(c)
    assert_canonical(c)
    for got, want in ((c.conjugate(), (re, -im)),
                      (-c, (-re, -im)), (+c, (re, im))):
        assert_canonical(got)
        assert (got.re, got.im) == want
    assert c.abs2() == re * re + im * im and type(c.abs2()) is Fraction
    assert complex(c) == complex(float(re), float(im))
    assert c.is_zero() == (not c) == (re == 0 and im == 0)
    assert abs(c) == float(re * re + im * im) ** 0.5


@given(big_exacts, operands)
def test_equality_and_hash_match_fraction_model(a, b):
    assert (a == b) == (ref(a) == ref(b))
    assert (b == a) == (ref(a) == ref(b))
    assert a == EC(*ref(a))
    assert hash(a) == hash(EC(*ref(a)))
    # equal values hash equal: a real value hashes as its Fraction
    if ref(a)[1] == 0:
        assert hash(a) == hash(ref(a)[0])


@given(big_rationals, big_rationals)
def test_constructor_from_reduced_and_unreduced_parts(re, im):
    k = 6
    c = EC(Fraction(re.numerator * k, re.denominator * k), im)
    assert_canonical(c)
    assert c == EC(re, im) and hash(c) == hash(EC(re, im))
    assert (c.re, c.im) == (re, im)


def test_equal_values_are_equal_with_equal_hashes():
    a, b = EC(Fraction(2, 4), 1), EC(Fraction(1, 2), 1)
    assert a == b and hash(a) == hash(b)
    assert type(a.re) is Fraction and type(a.im) is Fraction
    assert EC(4, 0) == 4 and EC(Fraction(3, 6)) == Fraction(1, 2)
    assert EC(0, 1) != 0 and EC(1, 0) != 1.0


@pytest.mark.parametrize("zero", [EC.zero(), EC(0, 0), 0, Fraction(0)])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        EC(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / EC.zero()


@pytest.mark.parametrize("other", [0.5, 2.0, 1 + 2j, 0j])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_float_and_complex_operands_raise(op, other):
    with pytest.raises(TypeError):
        op(EC(1, 2), other)
    with pytest.raises(TypeError):
        op(other, EC(1, 2))


def test_scalars_are_immutable():
    c = EC(1, 2)
    for attr in ("re", "im", "_r", "_i", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(c, attr, 3)
    assert c == EC(1, 2)


def test_repr_is_unchanged():
    assert repr(EC(Fraction(-3, 4))) == "EC(-3/4)"
    assert repr(EC(1, Fraction(1, 2))) == "EC(1, 1/2)"


def test_kind_hashes_by_identity():
    # hashing a Kind must not hash its ExactComplex constants
    assert Kind.__hash__ is object.__hash__
    assert len({EXACT, FLOAT, EXACT}) == 2


def test_float_negligible_of_a_modulus_past_the_float_range():
    big = complex(1.7e308, 1.7e308)          # finite parts, abs() overflows
    assert FLOAT.negligible(big) is False
    assert not FLOAT.negligible(np.array([big]))[0]


# ---- Terms: the one sparse map under forms and jets --------------------------

def test_an_empty_form_never_equals_an_empty_jet():
    assert InvariantForm.zero(3) != Jet2(3)
    for n in range(4):
        assert InvariantForm(n) != Jet2(n) and Jet2(n) != InvariantForm(n)
        assert not InvariantForm(n) == Jet2(n)


def test_forms_and_jets_keep_only_their_keys_and_products():
    shared = {"__setattr__", "_check", "__add__", "__sub__", "__neg__", "scale",
              "is_zero", "__eq__", "__hash__", "_of"}
    for cls in (InvariantForm, Jet2):
        assert issubclass(cls, Terms) and not shared & set(vars(cls))
    assert not hasattr(Jet2(3), "coeffs")


@pytest.mark.parametrize("cls, key", [(InvariantForm, ((0,), (1,))), (Jet2, (3, 0))])
def test_terms_are_immutable_and_check_dimensions(cls, key):
    a = cls(3, {key: EC(1)})
    assert hash(a) == hash(cls(3, {key: EC(1)}))
    with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
        a.n = 4
    with pytest.raises(DimensionError):
        a - cls(2)


# ---- each map carries its scalar kind ----------------------------------------

def test_a_map_takes_the_kind_of_its_coefficients_zeros_included():
    assert Jet2.constant(3, 0j).kind is FLOAT
    assert type(Jet2.constant(3, 0j).value()) is complex
    assert InvariantForm.scalar(3, EC(0)).kind is EXACT
    assert InvariantForm(3, {((0,), ()): 0j, ((1,), ()): 0j}).kind is FLOAT
    # a map given no coefficients takes its kind argument, exact by default
    assert Jet2(3).kind is EXACT and InvariantForm.zero(3).kind is EXACT
    assert Jet2(3, kind=FLOAT).value() == 0j and type(Jet2(3, kind=FLOAT).value()) is complex
    assert type(InvariantForm.zero(3, FLOAT).coeff((0,), (1,))) is complex
    with pytest.raises(TypeError, match="mixed scalar kinds"):
        Jet2(3, {(): EC(1), (0,): 1j})


def test_mixed_kinds_raise_even_where_no_key_collides():
    e, f = InvariantForm.phi(3, 0), InvariantForm.phi(3, 1, 1 + 0j)
    je, jf = Jet2.variable(3, 0), Jet2.variable(3, 1, FLOAT)
    for op in (operator.add, operator.sub):
        for a, b in ((e, f), (f, e), (je, jf), (jf, je), (InvariantForm.zero(3), f),
                     (Jet2(3, kind=FLOAT), je)):
            with pytest.raises(TypeError, match="mixed scalar kinds"):
                op(a, b)
    for a, b in ((e, f), (f, e)):
        with pytest.raises(TypeError, match="mixed scalar kinds"):
            a.wedge(b)
    for a, b in ((je, jf), (jf, je), (Jet2(3), jf)):
        with pytest.raises(TypeError, match="mixed scalar kinds"):
            a * b
    # equality and hashing read the terms only
    assert InvariantForm.zero(3) == InvariantForm.zero(3, FLOAT)
    assert hash(Jet2(3)) == hash(Jet2(3, kind=FLOAT))


FORM_KEYS = [((i,), ()) for i in range(3)] + [((), (i,)) for i in range(3)] + \
    [((0,), (1,)), ((1,), (1,)), ((0, 2), ()), ((), (0, 1))]
JET_KEYS = [(), (0,), (4,), (0, 3), (1, 1), (2, 5)]
small_ints = st.integers(-2, 2)


def _maps(cls, keys, kind):
    coef = st.tuples(small_ints, small_ints).map(
        lambda p: EC(*p) if kind.exact else complex(*p))
    return st.dictionaries(st.sampled_from(keys), coef, max_size=4).map(
        lambda t: cls(3, t, kind))


def _ctx(kind):
    g = lie.family_a(1, -1)
    if kind.exact:
        return g
    to_float = lambda T: [[[complex(c) for c in r] for r in layer] for layer in T]
    return lie.HermitianLieAlgebra(3, to_float(g.C), to_float(g.D))


@given(st.sampled_from([EXACT, FLOAT]).flatmap(lambda k: st.tuples(
    st.just(k), _maps(InvariantForm, FORM_KEYS, k), _maps(InvariantForm, FORM_KEYS, k),
    _maps(Jet2, JET_KEYS, k), _maps(Jet2, JET_KEYS, k))))
def test_every_operation_keeps_the_kind(case):
    kind, a, b, u, v = case
    zero = kind.zero
    ctx = _ctx(kind)
    forms = [a + b, a - b, a - a, a + -a, -a, a.scale(kind.i), a.scale(zero), a.wedge(b),
             a.wedge(a), a.conj(), a.bidegree_part(1, 1), a.bidegree_part(2, 2),
             a.swap_indices([0, 2]), exterior_d(ctx, a), exterior_d(ctx, exterior_d(ctx, a))]
    try:
        split = dolbeault_split(ctx, a)
    except BidegreeError:           # a mixed form: split its (1, 0) part, maybe empty
        split = dolbeault_split(ctx, a.bidegree_part(1, 0))
    forms += [split.del_part, split.delbar_part, split.residual]
    jets = [u + v, u - v, u - u, -u, u.scale(zero), u * v, u * (v - v), u.conj(),
            u.partial(0), u.partial(5), u.truncate(1), u.truncate(0),
            Jet2.variable(3, 1, kind) * Jet2.variable(3, 2, kind) * Jet2.variable(3, 3, kind)]
    if u.value():
        jets += [u.reciprocal(), v / u]
    for r in forms + jets:
        assert r.kind is kind
        assert all(type(c) is type(kind.one) for c in r.terms.values())
    assert type(a.wedge(a).coeff((0, 1), ())) is type(kind.one)
    assert type((u - u).value()) is type(kind.one)
    if u.value():
        inv = jet_matrix_inverse([[u]])
        assert inv[0][0].kind is kind


# ---- one rule for which scalars are exact ------------------------------------

@pytest.mark.parametrize("value, kind", [
    (EC(1, 2), EXACT), (3, EXACT), (Fraction(1, 3), EXACT),
    (0.5, FLOAT), (1j, FLOAT), (np.float64(0.5), FLOAT), (np.complex128(1j), FLOAT),
    (True, None), ("1", None), (None, None), (np.int64(3), None),
], ids=lambda v: type(v).__name__)
def test_kind_of_is_closed(value, kind):
    if kind is None:
        with pytest.raises(TypeError, match="not a scalar"):
            kind_of(value)
    else:
        assert kind_of(value) is kind


def test_bool_is_not_an_exact_scalar():
    for op in (lambda: EXACT.scalar(True), lambda: EC(1) + True, lambda: EC(1) * False):
        with pytest.raises(TypeError):
            op()
    assert EC(1) != True and EC(2) + 1 == 3     # noqa: E712


def test_int_and_fraction_coefficients_make_exact_maps():
    # an int coefficient is stored as the ExactComplex it equals
    assert InvariantForm.phi(3, 0, 1) == InvariantForm.phi(3, 0)
    assert InvariantForm.phi(3, 0, 1).kind is EXACT
    s = InvariantForm.phi(3, 0, 1) + InvariantForm.phi(3, 1)
    assert s.kind is EXACT and type(s.coeff((2,), ())) is EC
    assert [type(c) for c in s.terms.values()] == [EC, EC]
    j = Jet2(3, {(): Fraction(1, 2), (0,): 2})
    assert j.kind is EXACT and j.value() == EC(Fraction(1, 2)) and type(j.value()) is EC
    # a float map holds Python complex scalars, whatever float type it was given
    f = Jet2(3, {(): np.float64(1.5), (1,): 2.0})
    assert f.kind is FLOAT and {type(c) for c in f.terms.values()} == {complex}
    with pytest.raises(TypeError, match="mixed scalar kinds"):
        Jet2(3, {(): 1, (0,): 1.0})
    with pytest.raises(TypeError, match="not a scalar"):
        InvariantForm.phi(3, 0, True)


def test_exact_scalar_reads_parameters_through_fraction():
    c = EC(1, 2)
    assert exact_scalar(c) is c
    for v in (0.5, "1/2", Fraction(1, 2), np.float64(0.5)):
        assert exact_scalar(v) == EC(Fraction(1, 2)) and type(exact_scalar(v)) is EC
    with pytest.raises(TypeError):
        exact_scalar(1j)
    # a float is its exact binary value, not the decimal it was written as
    assert exact_scalar(0.1) == EC(Fraction(3602879701896397, 36028797018963968))


@pytest.mark.parametrize("build", [
    lambda: exact_scalar(True), lambda: exact_rational(False),
    lambda: lie.family_a(0.1, True), lambda: lie.family_a(True, 0),
    lambda: lie.family_b(1, True), lambda: lie.nilmanifold_n3(True),
    lambda: lie.sl2c(False), lambda: charts.wallach_metric(point=[True, 0, 0]),
], ids=["exact_scalar", "exact_rational", "family_a_t", "family_a_s", "family_b_t",
        "nilmanifold_n3", "sl2c", "wallach_metric"])
def test_a_bool_parameter_raises(build):
    with pytest.raises(TypeError, match="bool"):
        build()


def test_exact_rational_reads_real_parameters():
    assert exact_rational("-3/4") == Fraction(-3, 4) and exact_rational(2) == 2
    assert type(exact_rational(0.5)) is Fraction
    for bad in (1j, EC(1, 1)):
        with pytest.raises(TypeError):
            exact_rational(bad)


@given(big_rationals | big)
def test_hash_agrees_with_equality_on_rationals(q):
    assert EC(q) == q and hash(EC(q)) == hash(q)
    assert len({EC(q), q}) == 1


def test_equal_exact_scalars_share_a_set_entry():
    assert len({EC(1), 1, Fraction(1), EC(1, 0)}) == 1
    assert len({EC(0, 1), EC(Fraction(2, 2) * 0, 1), 1j}) == 2
