from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import jet_conj_checked, jet_reciprocal_checked
from btpgeo.jets import Jet2, JetSingularityError, jet_matrix_inverse
from btpgeo.scalars import EC, EXACT, FLOAT


def z(i):
    return Jet2.variable(3, i)


def zb(i):
    return Jet2.variable(3, 3 + i)


def const(c):
    return Jet2.constant(3, c)


def test_geometric_series_reciprocal():
    f = const(EC(1)) + z(0) * zb(0)
    inv = f.reciprocal()
    assert inv == const(EC(1)) - z(0) * zb(0)


def test_conj_swaps_variables():
    f = z(0) + zb(1).scale(EC(2))
    assert f.conj() == zb(0) + z(1).scale(EC(2))


def test_conj_conjugates_coefficients():
    f = z(0).scale(EC(0, 1))
    assert f.conj() == zb(0).scale(EC(0, -1))


def test_reciprocal_identity_to_degree_two():
    alpha = const(EC(1)) + z(0) * zb(0) + z(1) * zb(1)
    assert alpha * alpha.reciprocal() == const(EC(1))


def test_reciprocal_needs_unit():
    with pytest.raises(JetSingularityError):
        (z(0) + z(1)).reciprocal()


def test_truncation_closed():
    f = z(0) * z(1)
    g = f * z(2)          # degree 3: dropped entirely
    assert g.is_zero()
    assert (f * const(EC(2))).coeff((0, 1)) == EC(2)


def test_deriv_multiplicities():
    f = z(0) * z(0) + z(0) * zb(0).scale(EC(3)) + z(1).scale(EC(5))
    assert f.deriv(holo=(0, 0)) == EC(2)        # d^2/dz1^2 of z1^2
    assert f.deriv(holo=(0,), anti=(0,)) == EC(3)
    assert f.deriv(holo=(1,)) == EC(5)
    assert f.value() == EC(0)


def test_partial_reduces_degree():
    f = z(0) * z(0) + z(0) * zb(1)
    df = f.partial(0)
    assert df == z(0).scale(EC(2)) + zb(1)
    assert f.partial(f.n + 1) == z(0)


coef = st.integers(-4, 4).map(lambda v: EC(v, 0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), coef), max_size=4))
def test_ring_commutativity(entries):
    a = Jet2(3)
    b = Jet2(3)
    for i, (v, c) in enumerate(entries):
        t = Jet2.variable(3, v).scale(c)
        a = a + t if i % 2 == 0 else a
        b = b + t if i % 2 == 1 else b
    assert a * b == b * a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


# ---- ring results are canonical jets --------------------------------------------

N = 3
mono = st.one_of(st.just(()), st.tuples(st.integers(0, 2 * N - 1)),
                 st.tuples(st.integers(0, 2 * N - 1), st.integers(0, 2 * N - 1)))
small = st.integers(-2, 2)
exact_coef = st.tuples(small, small).map(lambda p: EC(*p))
float_coef = st.tuples(small, small).map(lambda p: complex(*p))


def jets(coef, kind):
    # monomials in any order, so the public constructor sorts and merges them
    return st.lists(st.tuples(mono, coef), max_size=6).map(
        lambda items: Jet2(N, {m: c for m, c in items}, kind))


def assert_canonical(j):
    assert j == Jet2(N, j.terms)
    for m, c in j.terms.items():
        assert type(m) is tuple and len(m) <= 2 and list(m) == sorted(m)
        assert all(0 <= v < 2 * N for v in m)
        assert c


def product_by_sorting(a, b):
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if len(m1) + len(m2) <= 2:
                m = tuple(sorted(m1 + m2))
                acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return Jet2(N, acc, a.kind)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(jets(exact_coef, EXACT), jets(exact_coef, EXACT), exact_coef),
                 st.tuples(jets(float_coef, FLOAT), jets(float_coef, FLOAT), float_coef)))
@example((Jet2(N, {(0, 1): EC(1), (1, 0): EC(-1)}), Jet2(N), EC(0)))
def test_ring_results_are_canonical(case):
    a, b, c = case
    for r in (a + b, a - b, a * b, a.scale(c), -a, a.conj(), a - a, a.scale(c * 0)):
        assert_canonical(r)
    assert a * b == product_by_sorting(a, b)
    assert (a - b) + b == a
    assert a.conj().conj() == a


@pytest.mark.parametrize("one", [EC(1), 1 + 0j])
def test_public_constructor_drops_cancelled_spellings(one):
    j = Jet2(N, {(0, 1): one, (1, 0): -one, (2,): one})
    assert j.terms == {(2,): one}
    assert Jet2(N, {(0, 1): one, (1, 0): -one}) == Jet2(N)
    assert Jet2(N, {(0, 1): one, (1, 0): -one}).is_zero()


@pytest.mark.parametrize("bad", [(6,), (-1,), (0, 1, 2), (3, 7)])
def test_public_constructor_rejects_bad_monomials(bad):
    with pytest.raises(ValueError):
        Jet2(N, {bad: EC(1)})


def test_jet_matrix_inverse_exact():
    g = [[const(EC(1)) + z(0) * zb(0), z(1).scale(EC(0, 1))],
         [zb(1).scale(EC(0, -1)), const(EC(2)) + z(1) * zb(1)]]
    inv = jet_matrix_inverse(g)
    for i in range(2):
        for j in range(2):
            acc = Jet2(3)
            for k in range(2):
                acc = acc + g[i][k] * inv[k][j]
            want = const(EC(1)) if i == j else Jet2(3)
            assert acc == want


def test_jet_matrix_inverse_float():
    gf = [[Jet2.constant(2, 2 + 0j) + Jet2.variable(2, 0, FLOAT) * Jet2.variable(2, 2, FLOAT),
           Jet2.constant(2, 0.5 + 0j)],
          [Jet2.constant(2, 0.5 + 0j), Jet2.constant(2, 1 + 0j)]]
    inv = jet_matrix_inverse(gf)
    acc = Jet2(2, kind=FLOAT)
    for k in range(2):
        acc = acc + gf[0][k] * inv[k][0]
    assert abs(complex(acc.value()) - 1) < 1e-12
    assert (acc - Jet2.constant(2, acc.value())).norm_inf() < 1e-12


# ---- the unchecked builders equal the validating route --------------------------

def _same_jet(got, want):
    """Equal terms in the same key order, bit for bit, of the same kind."""
    assert type(got) is Jet2 and (got.n, got.kind) == (want.n, want.kind)
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


@st.composite
def jets_in_n_variables(draw):
    """A jet in n = 1..4 variables of either kind, whose coefficients are
    small rationals or floats with fractional bits (signed zeros included),
    spelled in any monomial order."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        part = st.fractions(-4, 4, max_denominator=7)
        coef, kind = st.builds(EC, part, part), EXACT
    else:
        part = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
        coef, kind = st.builds(complex, part, part), FLOAT
    v = st.integers(0, 2 * n - 1)
    m = st.one_of(st.just(()), st.tuples(v), st.tuples(v, v))
    return Jet2(n, dict(draw(st.lists(st.tuples(m, coef), max_size=10))), kind)


@settings(max_examples=300, deadline=None)
@given(jets_in_n_variables())
@example(Jet2(2, {(0, 3): 1 + 2j, (1, 2): -0.5j, (): 0.25, (3,): -0.0 + 1j}, FLOAT))
@example(Jet2(1, {(): EC(3, 1), (0, 1): EC(Fraction(1, 3), -2), (1, 1): EC(5)}))
def test_conj_and_reciprocal_equal_the_validating_route(j):
    _same_jet(j.conj(), jet_conj_checked(j))
    if j.terms.get(()):
        _same_jet(j.reciprocal(), jet_reciprocal_checked(j))
    else:
        with pytest.raises(JetSingularityError):
            j.reciprocal()
