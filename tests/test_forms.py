import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (exterior_d_leibniz, real_bracket_table_dense, swap_indices_inversions,
                      wedge_merge)
from btpgeo import lie
from btpgeo.forms import (BidegreeError, CoframeContext, InvariantForm,
                          d_squared_residual, dolbeault_split, exterior_d)
from btpgeo.scalars import EC


def phi(i, c=None):
    return InvariantForm.phi(3, i, c)


def phibar(i, c=None):
    return InvariantForm.phibar(3, i, c)


def perm_sign_oracle(seq):
    """Independent parity check: count inversions directly."""
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] == seq[b]:
                return 0
            if seq[a] > seq[b]:
                sign = -sign
    return sign


# ---- wedge ------------------------------------------------------------------

def test_wedge_square_vanishes():
    assert phi(0).wedge(phi(0)).is_zero()


def test_wedge_mixed_basis():
    w = phi(0).wedge(phibar(0))
    assert w == InvariantForm.monomial(3, (0,), (0,), EC.one())


def test_wedge_sign_against_permutation_oracle():
    # (phi_2 ^ phi_3) ^ phi_1 must match the inversion parity of (1, 2, 0)
    lhs = phi(1).wedge(phi(2)).wedge(phi(0))
    want_sign = perm_sign_oracle([1, 2, 0])
    assert lhs == InvariantForm.monomial(3, (0, 1, 2), (), EC(want_sign, 0))
    # every permutation of three distinct phi factors
    for p in itertools.permutations(range(3)):
        f = phi(p[0]).wedge(phi(p[1])).wedge(phi(p[2]))
        s = perm_sign_oracle(list(p))
        assert f == InvariantForm.monomial(3, (0, 1, 2), (), EC(s, 0))


small_coef = st.integers(-3, 3).map(lambda v: EC(v, 0))
monos = st.tuples(
    st.lists(st.integers(0, 2), max_size=2, unique=True).map(lambda l: tuple(sorted(l))),
    st.lists(st.integers(0, 2), max_size=1, unique=True).map(lambda l: tuple(sorted(l))))
forms = st.dictionaries(monos, small_coef, max_size=3).map(
    lambda d: InvariantForm(3, d))


def degree_part(f, d):
    """The homogeneous degree-d part of f, as a sum of its bidegree parts."""
    return sum((f.bidegree_part(p, d - p) for p in range(d + 1)), InvariantForm.zero(f.n))


@settings(max_examples=60, deadline=None)
@given(forms, forms)
def test_wedge_graded_anticommutative(a, b):
    # check on homogeneous pieces: a ^ b = (-1)^{|a||b|} b ^ a
    for da in range(2 * a.n + 1):
        for db in range(2 * b.n + 1):
            ah = degree_part(a, da)
            bh = degree_part(b, db)
            lhs = ah.wedge(bh)
            rhs = bh.wedge(ah)
            if (da * db) % 2:
                rhs = -rhs
            assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(forms, forms, forms)
def test_wedge_bilinear_associative(a, b, c):
    assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_mismatched_dimension_raises():
    with pytest.raises(Exception):
        InvariantForm.phi(3, 0).wedge(InvariantForm.phi(2, 0))


# ---- exterior derivative -----------------------------------------------------

def test_d_on_nilmanifold_matches_structure():
    g = lie.nilmanifold_n3(1)
    d3 = exterior_d(g, phi(2))
    want = InvariantForm.monomial(3, (0,), (0,), EC(-1, 0)) + \
        InvariantForm.monomial(3, (1,), (1,), EC(1, 0))
    assert d3 == want
    assert exterior_d(g, phi(0)).is_zero()


def test_d_of_constant_is_zero():
    g = lie.nilmanifold_n3(1)
    assert exterior_d(g, InvariantForm.scalar(3, EC(5, 1))).is_zero()


def test_d_on_family_a():
    s = Fraction(1, 2)
    g = lie.family_a(s, Fraction(1, 3))
    d1 = exterior_d(g, phi(0))
    want = phi(0).wedge(phi(2) + phibar(2)).scale(EC(0, s))
    assert d1 == want


def test_conj_commutes_with_d():
    for g in (lie.nilmanifold_n3(1), lie.family_a(1, -1), lie.family_b(EC(1, 1), 2),
              lie.sl2c(1), lie.vaisman_nilmanifold(1)):
        for f in (phi(0), phibar(2), phi(1).wedge(phibar(0)),
                  phi(0).wedge(phi(2)).wedge(phibar(1))):
            assert exterior_d(g, f.conj()) == exterior_d(g, f).conj()


@settings(max_examples=40, deadline=None)
@given(forms, forms)
def test_leibniz_rule(a, b):
    g = lie.family_a(1, -1)
    # split a by degree so the Leibniz sign is well-defined
    total_l = exterior_d(g, a.wedge(b))
    total_r = InvariantForm.zero(3)
    for deg in range(7):
        ah = degree_part(a, deg)
        if ah.is_zero():
            continue
        term = exterior_d(g, ah).wedge(b) + \
            (ah.wedge(exterior_d(g, b)) if deg % 2 == 0
             else -(ah.wedge(exterior_d(g, b))))
        total_r = total_r + term
    assert total_l == total_r


def test_conj_is_involution():
    f = phi(0).wedge(phibar(1)).scale(EC(2, 3)) + phi(1).wedge(phi(2))
    assert f.conj().conj() == f


# ---- dolbeault split -----------------------------------------------------------

def test_dolbeault_middle_type_obstruction():
    g = lie.nilmanifold_n3(1)
    Phi = InvariantForm.monomial(3, (2,), (2,), EC.one())
    sp = dolbeault_split(g, Phi)
    assert sp.clean
    ddbar = exterior_d(g, sp.delbar_part).bidegree_part(2, 2)
    p11 = InvariantForm.monomial(3, (0,), (0,), EC.one())
    p22 = InvariantForm.monomial(3, (1,), (1,), EC.one())
    assert ddbar == p11.wedge(p22).scale(EC(2, 0))


def test_dolbeault_abelian():
    sp = dolbeault_split(lie.abelian(3), phi(0))
    assert sp.del_part.is_zero() and sp.delbar_part.is_zero() and sp.clean


def test_dolbeault_recombination():
    g = lie.nilmanifold_n3(1)
    f = InvariantForm.monomial(3, (2,), (2,), EC.one())
    sp = dolbeault_split(g, f)
    assert sp.del_part + sp.delbar_part + sp.residual == exterior_d(g, f)


def test_dolbeault_rejects_mixed_bidegree():
    with pytest.raises(BidegreeError):
        dolbeault_split(lie.abelian(3), phi(0) + phi(0).wedge(phibar(1)))


# ---- d^2 residual ---------------------------------------------------------------

def bracket_jacobi_oracle(ctx):
    """Brute-force Jacobi test on the complexified 2n-dimensional bracket."""
    n = ctx.n
    dim = 2 * n
    alg = lie.HermitianLieAlgebra(n, ctx.C, ctx.D, validate=False)
    table = real_bracket_table_dense(alg)

    def brk(u, v):
        out = [EC.zero()] * dim
        for x in range(dim):
            if u[x].is_zero():
                continue
            for y in range(dim):
                if v[y].is_zero():
                    continue
                c = u[x] * v[y]
                for m in range(dim):
                    out[m] = out[m] + c * table[x][y][m]
        return out
    basis = [[EC(1) if i == j else EC.zero() for j in range(dim)] for i in range(dim)]
    for x in range(dim):
        for y in range(dim):
            for z in range(dim):
                s = [a + b + c for a, b, c in
                     zip(brk(basis[x], brk(basis[y], basis[z])),
                         brk(basis[y], brk(basis[z], basis[x])),
                         brk(basis[z], brk(basis[x], basis[y])))]
                if any(not v.is_zero() for v in s):
                    return False
    return True


def test_d_squared_zero_on_builtins():
    for g in (lie.nilmanifold_n3(1), lie.family_a(1, -1), lie.family_b(EC(2, 1), 1),
              lie.sl2c(1), lie.vaisman_nilmanifold(Fraction(1, 2))):
        assert all(r.is_zero() for r in d_squared_residual(g))
        assert bracket_jacobi_oracle(g)


def test_d_squared_heisenberg():
    C = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    D = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    C[2][0][1] = EC(1)
    C[2][1][0] = EC(-1)
    ctx = CoframeContext(3, C, D)
    assert all(r.is_zero() for r in d_squared_residual(ctx))
    assert bracket_jacobi_oracle(ctx)


def test_d_squared_generic_nonzero_matches_bracket_oracle():
    # random structure constants: the form residual and the bracket Jacobi
    # oracle must agree on zero/nonzero
    import random
    rng = random.Random(4)
    for _ in range(6):
        C = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
        D = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
        for j in range(3):
            for i in range(3):
                for k in range(i + 1, 3):
                    v = EC(Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-1, 1)))
                    C[j][i][k] = v
                    C[j][k][i] = -v
                for k in range(3):
                    D[j][i][k] = EC(Fraction(rng.randint(-1, 1)), 0)
        ctx = CoframeContext(3, C, D)
        res_zero = all(r.is_zero() for r in d_squared_residual(ctx))
        assert res_zero == bracket_jacobi_oracle(ctx)


def test_c_antisymmetry_enforced():
    C = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    D = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1][2] = EC(1)   # mirror entry missing
    with pytest.raises(ValueError):
        CoframeContext(3, C, D)


def test_form_json_roundtrip():
    f = phi(0).wedge(phibar(2)).scale(EC(Fraction(3, 7), 1)) + phi(1)
    assert InvariantForm.from_json(3, f.to_json()) == f


# ---- the bit-mask kernel against the tuple-keyed oracles ------------------------

subsets3 = st.lists(st.integers(0, 2), max_size=3, unique=True).map(lambda l: tuple(sorted(l)))
gauss_coef = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda v: EC(Fraction(v[0], 2), v[1]))
# every bidegree up to (3, 3) at n = 3
any_forms = st.dictionaries(st.tuples(subsets3, subsets3), gauss_coef, max_size=5).map(
    lambda d: InvariantForm(3, d))
family_contexts = st.sampled_from([
    lie.nilmanifold_n3(2), lie.family_a(Fraction(1, 2), Fraction(1, 3)),
    lie.family_b(EC(1, -2), 3, Fraction(1, 2)), lie.sl2c(1),
    lie.vaisman_nilmanifold(Fraction(3, 2))])


@settings(max_examples=150, deadline=None)
@given(any_forms, any_forms)
def test_wedge_matches_merge_oracle(a, b):
    assert a.wedge(b) == wedge_merge(a, b)


@settings(max_examples=150, deadline=None)
@given(any_forms, st.sets(st.integers(0, 2)))
def test_swap_indices_matches_inversion_oracle(a, S):
    assert a.swap_indices(S) == swap_indices_inversions(a, S)


@settings(max_examples=100, deadline=None)
@given(family_contexts, any_forms)
def test_exterior_d_matches_leibniz_oracle(ctx, a):
    assert exterior_d(ctx, a) == exterior_d_leibniz(ctx, a)
