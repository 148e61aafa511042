import pytest
from hypothesis import example, given, settings, strategies as st

from btpgeo.jets import Jet2, JetSingularityError, jet_matrix_inverse
from btpgeo.scalars import EC, is_zero


def z(i):
    return Jet2.z(3, i)


def zb(i):
    return Jet2.zbar(3, i)


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
    df = f.partial_z(0)
    assert df == z(0).scale(EC(2)) + zb(1)
    assert f.partial_zbar(1) == z(0)


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


def jets(coef):
    # monomials in any order, so the public constructor sorts and merges them
    return st.lists(st.tuples(mono, coef), max_size=6).map(
        lambda items: Jet2(N, {m: c for m, c in items}))


def assert_canonical(j):
    assert j == Jet2(N, j.coeffs)
    for m, c in j.coeffs.items():
        assert type(m) is tuple and len(m) <= 2 and list(m) == sorted(m)
        assert all(0 <= v < 2 * N for v in m)
        assert not is_zero(c)


def product_by_sorting(a, b):
    acc = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            if len(m1) + len(m2) <= 2:
                m = tuple(sorted(m1 + m2))
                acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return Jet2(N, acc)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(jets(exact_coef), jets(exact_coef), exact_coef),
                 st.tuples(jets(float_coef), jets(float_coef), float_coef)))
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
    assert j.coeffs == {(2,): one}
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
    gf = [[Jet2.constant(2, 2 + 0j) + Jet2.z(2, 0, exact=False) * Jet2.zbar(2, 0, exact=False),
           Jet2.constant(2, 0.5 + 0j)],
          [Jet2.constant(2, 0.5 + 0j), Jet2.constant(2, 1 + 0j)]]
    inv = jet_matrix_inverse(gf)
    acc = Jet2(2)
    for k in range(2):
        acc = acc + gf[0][k] * inv[k][0]
    assert abs(complex(acc.value()) - 1) < 1e-12
    assert (acc - Jet2.constant(2, acc.value())).norm_inf() < 1e-12
