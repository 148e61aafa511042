import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (admissible_pattern_loop, algebra_json_dense, b_tensor_dense,
                      bismut_trace_full_curvature, btp_residuals_triple_loop,
                      check_unimodular_dense, chern_torsion_dense, connection_dense,
                      curvature_by_form_differences, d_phi_dense, first_chern_ricci,
                      from_cubes, gauduchon_eta_dense, is_skew_hermitian, nonzero_entries,
                      real_bracket_table_dense, regauge, solvability_profile_all_pairs,
                      solvability_profile_dense, solvability_profile_full_reduction,
                      transform_frame_loop, transform_tensor,
                      vaisman_torsion_pattern_loop)
from btpgeo import frames, lie
from btpgeo.forms import InvariantForm
from btpgeo.linalg import NumericError, hermitian_rank
from btpgeo.scalars import EC, EXACT


def phi(i, c=None):
    return InvariantForm.phi(3, i, c)


def phibar(i, c=None):
    return InvariantForm.phibar(3, i, c)


def _torsion_algebra(T):
    """An algebra whose Chern torsion is T (antisymmetric in its lower
    indices): C = -T and D = 0, unvalidated, as T need not satisfy Jacobi."""
    n = len(T)
    C = [[[-c for c in r] for r in layer] for layer in T]
    zero = [[[c * 0 for c in r] for r in layer] for layer in T]
    return from_cubes(n, C, zero, validate=False)


def _gamma(g):
    """gamma = theta^b - theta, entrywise."""
    th, tb = lie.chern_connection(g), lie.bismut_connection(g)
    return tuple(tuple(b - a for a, b in zip(ra, rb)) for ra, rb in zip(th, tb))


def _half_residuals(g):
    """The parallel-torsion residuals R_ijk with i < k that classify sums."""
    return lie._btp_residuals_from(lie.torsion_entries(g), lie.bismut_connection(g))


BUILTINS = lambda: (lie.nilmanifold_n3(1), lie.family_a(1, -1),
                    lie.family_a(Fraction(1, 2), Fraction(1, 3)),
                    lie.family_b(EC(1, Fraction(1, 2)), Fraction(1, 3)),
                    lie.sl2c(1), lie.vaisman_nilmanifold(1), lie.abelian(3))


# ---- torsion ---------------------------------------------------------------

def test_sl2c_torsion_cyclic():
    T = lie.chern_torsion(lie.sl2c(1))
    assert T[0][1][2] == EC(1) and T[1][2][0] == EC(1) and T[2][0][1] == EC(1)
    assert T[0][0][1].is_zero() and T[2][1][0] == EC(-1)


def test_abelian_torsion_zero():
    assert all(c.is_zero() for layer in lie.chern_torsion(lie.abelian(3))
               for r in layer for c in r)


def test_torsion_is_nested_tuples_of_the_algebra_kind():
    for g in (lie.nilmanifold_n3(1), _float_algebra(lie.sl2c(1))):
        T = lie.chern_torsion(g)
        assert type(T) is tuple and all(type(r) is tuple for layer in T for r in layer)
        assert {type(c) for layer in T for r in layer for c in r} == {type(g.kind.zero)}


def test_n3_torsion_from_structure_equation():
    # derive D by matching d phi_3 against the structure equation, then apply
    # the torsion formula; must land in the admissible middle-type pattern
    g = lie.nilmanifold_n3(Fraction(2, 3))
    d3 = g.d_phi(2)
    # coefficient of phi_j ^ phibar_k in d phi_3 is -conj(D^j_{3k})
    a = -d3.coeff((0,), (0,)).conjugate()
    assert a == EC(Fraction(2, 3))        # reads back D^1_{31}
    T = lie.chern_torsion(g)
    assert T[0][0][2] == EC(Fraction(2, 3)) and T[1][1][2] == EC(Fraction(-2, 3))
    nz = [(j, i, k) for j in range(3) for i in range(3) for k in range(3)
          if not T[j][i][k].is_zero()]
    assert sorted(nz) == [(0, 0, 2), (0, 2, 0), (1, 1, 2), (1, 2, 1)]


def test_mixed_scalar_kinds_are_rejected_on_construction():
    # exact C with the same D as float scalars used to construct as exact
    # and fail later, inside classify, on ExactComplex - complex; the
    # library's constructor takes its kind, and cubes are read for theirs
    g = lie.nilmanifold_n3()
    D = [[[complex(c) for c in r] for r in l] for l in g.D]
    with pytest.raises(TypeError, match="mixed scalar kinds"):
        from_cubes(3, g.C, D)


# ---- connections -------------------------------------------------------------

def test_sl2c_chern_connection_vanishes():
    th = lie.chern_connection(lie.sl2c(1))
    assert all(f.is_zero() for row in th for f in row)


def test_vaisman54_chern_connection_matrix():
    g = lie.vaisman_nilmanifold(1)
    th = lie.chern_connection(g)
    assert th[0][2] == phibar(0, EC(-1))
    assert th[1][2] == phibar(1, EC(-1))
    assert th[2][0] == phi(0)
    assert th[2][1] == phi(1)
    assert th[0][0].is_zero() and th[0][1].is_zero() and th[2][2].is_zero()


def test_gamma_middle_type_matrix():
    ga = _gamma(lie.nilmanifold_n3(1))
    assert ga[0][0] == phi(2) - phibar(2)
    assert ga[1][1] == phibar(2) - phi(2)
    assert ga[0][2] == phibar(0)
    assert ga[1][2] == phibar(1, EC(-1))
    assert ga[2][0] == phi(0, EC(-1))
    assert ga[2][1] == phi(1)
    assert ga[2][2].is_zero() and ga[0][1].is_zero()


def test_abelian_connection_and_gamma_vanish():
    g = lie.abelian(3)
    for mat in (lie.chern_connection(g), _gamma(g)):
        assert all(f.is_zero() for row in mat for f in row)


def test_gamma_rank_one_matrix():
    # torsion T^1_{23} = 1 alone
    T3 = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    T3[0][1][2] = EC(1)
    T3[0][2][1] = EC(-1)
    ga = _gamma(_torsion_algebra(T3))
    assert ga[0][1] == phibar(2, EC(-1))
    assert ga[0][2] == phibar(1)
    assert ga[1][0] == phi(2)
    assert ga[2][0] == phi(1, EC(-1))
    assert ga[1][2].is_zero() and ga[0][0].is_zero()


def test_bismut_is_chern_plus_gamma():
    for g in BUILTINS():
        th = lie.chern_connection(g)
        ga = connection_dense(g.kind, chern_torsion_dense(g))
        tb = lie.bismut_connection(g)
        for i in range(3):
            for j in range(3):
                assert tb[i][j] == th[i][j] + ga[i][j]


def test_connections_skew_hermitian():
    for g in BUILTINS():
        for mat in (lie.chern_connection(g), lie.bismut_connection(g), _gamma(g)):
            assert is_skew_hermitian(mat, g.kind)


# ---- curvature ------------------------------------------------------------------

def test_sl2c_chern_flat():
    th = lie.chern_curvature(lie.sl2c(1))
    assert all(f.is_zero() for row in th for f in row)


def test_abelian_curvature_zero():
    th = lie.bismut_curvature(lie.abelian(3))
    assert all(f.is_zero() for row in th for f in row)


def test_family_a_bismut_curvature_pattern():
    g = lie.family_a(Fraction(1, 2), Fraction(1, 3))
    tb = lie.bismut_curvature(g)
    p11 = InvariantForm.monomial(3, (0,), (0,), EC.one())
    p22 = InvariantForm.monomial(3, (1,), (1,), EC.one())
    assert tb[0][0] == p11.scale(EC(-2)) + p22.scale(EC(2))
    assert tb[1][1] == p11.scale(EC(2)) + p22.scale(EC(-2))
    assert tb[2][2].is_zero()
    assert tb[0][1].is_zero() and tb[1][0].is_zero()
    # R^b_{k lbar i jbar} is the phi_k ^ phibar_l coefficient of entry (i, j)
    assert tb[0][0].coeff((0,), (0,)) == EC(-2)
    assert tb[0][0].coeff((1,), (1,)) == EC(2)


def test_curvature_skew_hermitian():
    for g in BUILTINS():
        assert is_skew_hermitian(lie.bismut_curvature(g), g.kind)
        assert is_skew_hermitian(lie.chern_curvature(g), g.kind)


def test_float_curvature_skew_hermitian_after_frame_change():
    # the matrices test float data with the float zero test, which the
    # roundoff of the frame change passes
    g = _float_algebra(lie.family_a(1, -1))
    Q, _ = np.linalg.qr(np.random.default_rng(31).normal(size=(3, 3)))
    gP = regauge(g, Q)
    assert is_skew_hermitian(lie.chern_curvature(gP), gP.kind)
    assert is_skew_hermitian(lie.bismut_curvature(gP), gP.kind)


def test_float_curvature_entries_are_float_forms():
    g = lie.family_a(1, -1)
    tb = lie.bismut_curvature(_float_algebra(g))
    c = tb[0][0].coeff((0,), (0,))
    assert type(c) is complex and c == -2
    assert tb[2][2].is_zero() and type(tb[2][2].coeff((2,), (2,))) is complex
    # every coefficient read through coeff is a scalar of the algebra's kind,
    # the missing monomials of empty entries included, for both copies
    monomials = [(I, J) for p in range(3) for I in itertools.combinations(range(3), p)
                 for J in itertools.combinations(range(3), 2 - p)]
    for alg, scalar in ((g, EC), (_float_algebra(g), complex)):
        for theta in (lie.chern_curvature(alg), lie.bismut_curvature(alg)):
            for f in (f for row in theta for f in row):
                assert f.kind is alg.kind
                assert all(type(f.coeff(I, J)) is scalar for I, J in monomials)


def test_btp_curvature_pair_symmetry():
    # parallel torsion forces R^b_{i jb k lb} = R^b_{k lb i jb}
    for g in BUILTINS():
        assert lie.classify(g).btp
        tb = lie.bismut_curvature(g)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        assert tb[k][l].coeff((i,), (j,)) == tb[i][j].coeff((k,), (l,))
        # no (2,0) or (0,2) parts under parallel torsion
        for i in range(3):
            for j in range(3):
                f = tb[i][j]
                assert f.is_zero() or f.bidegree() == (1, 1)


# ---- B tensor, eta, predicates ------------------------------------------------------

def test_b_tensor_special_diag():
    T3 = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), v in zip(((0, 1, 2), (1, 2, 0), (2, 0, 1)),
                            (Fraction(2), Fraction(1), Fraction(1, 2))):
        T3[i][j][k] = EC(v)
        T3[i][k][j] = EC(-v)
    B = lie.b_tensor(_torsion_algebra(T3))
    assert [B[i][i] for i in range(3)] == [EC(8), EC(2), EC(Fraction(1, 2))]
    assert B[0][1].is_zero()


def test_b_tensor_zero():
    B = lie.b_tensor(lie.abelian(3))
    assert all(B[i][j].is_zero() for i in range(3) for j in range(3))


def test_b_tensor_middle_brute_force():
    g = lie.nilmanifold_n3(3)
    T = lie.chern_torsion(g)
    B = lie.b_tensor(g)
    # independent summation over all (r, s)
    for i in range(3):
        for j in range(3):
            acc = EC.zero()
            for r in range(3):
                for s in range(3):
                    acc = acc + T[j][r][s] * T[i][r][s].conjugate()
            assert B[i][j] == acc
    assert [B[i][i] for i in range(3)] == [EC(18), EC(18), EC(0)]
    assert hermitian_rank(B, g.kind) == 2


def test_eta_examples():
    assert lie.gauduchon_eta(lie.sl2c(1)).is_zero()
    assert lie.gauduchon_eta(lie.abelian(3)).is_zero()
    eta = lie.gauduchon_eta(lie.vaisman_nilmanifold(Fraction(3, 2)))
    assert eta == phi(2, EC(3))


def test_btp_examples():
    assert lie.classify(lie.nilmanifold_n3(1)).btp
    assert lie.classify(lie.family_a(2, -2)).btp


def _perturbed_n3():
    g = lie.nilmanifold_n3(1)
    D = [list(map(list, layer)) for layer in g.D]
    D[0][1][0] = EC(Fraction(1, 10))      # perturb D^1_{21}
    return from_cubes(3, g.C, D, label="n3~perturbed", validate=False)


def test_btp_broken_by_perturbation():
    g = _perturbed_n3()
    assert not lie.classify(g).btp
    assert any(not f.is_zero() for f in _half_residuals(g).values())


def test_unimodular_examples():
    assert lie.check_unimodular(lie.nilmanifold_n3(1))
    assert lie.check_unimodular(lie.abelian(3))
    g = lie.family_b(1, 1)
    D = [list(map(list, layer)) for layer in g.D]
    D[1][1][1] = EC(1)                    # D^2_{22} = 1 breaks the trace condition
    h = from_cubes(3, g.C, D, label="b~broken", validate=False)
    assert not lie.check_unimodular(h)


def test_cyt_and_calabi_yau_type():
    for s, t in ((1, -1), (2, 1), (0, 0), (Fraction(1, 2), Fraction(-1, 2))):
        rep = lie.classify(lie.family_a(s, t))
        assert rep.cyt
        assert rep.calabi_yau_type == (Fraction(s) + Fraction(t) == 0)
    rep = lie.classify(lie.abelian(3))
    assert rep.cyt and rep.calabi_yau_type
    rep = lie.classify(lie.vaisman_nilmanifold(1))
    assert not rep.cyt
    want = (phi(0).wedge(phibar(0)) + phi(1).wedge(phibar(1))).scale(EC(0, -4))
    assert rep.bismut_ricci == want


def test_solvability_profiles():
    assert lie.solvability_profile(lie.nilmanifold_n3(1)) == (2, 2)
    assert lie.solvability_profile(lie.family_a(1, 1)) == (None, 3)
    assert lie.solvability_profile(lie.abelian(3)) == (1, 1)
    assert lie.solvability_profile(lie.sl2c(1)) == (None, None)


def test_pluriclosed_obstruction_values():
    p11 = InvariantForm.monomial(3, (0,), (0,), EC.one())
    p22 = InvariantForm.monomial(3, (1,), (1,), EC.one())
    ob = lie.pluriclosed_obstruction(lie.nilmanifold_n3(1))
    assert ob == p11.wedge(p22).scale(EC(2))
    ob = lie.pluriclosed_obstruction(lie.nilmanifold_n3(Fraction(1, 2)))
    assert ob == p11.wedge(p22).scale(EC(Fraction(1, 2)))
    assert lie.pluriclosed_obstruction(lie.abelian(3)).is_zero()
    with pytest.raises(lie.PatternError):
        lie.pluriclosed_obstruction(lie.sl2c(1))


# ---- torsion patterns against the entry-by-entry loops ----------------------------------
# Sparse random torsion with or without the Vaisman (signs +, +) or the
# admissible (signs +, -) shape, regauged by exact permutation-and-phase
# unitaries; float copies carry an antisymmetric offset near the 1e-9 bound.

_RATS = st.fractions(-3, 3, max_denominator=6)
_PHASES = (EC(1), EC(-1), EC(0, 1), EC(0, -1))


@st.composite
def _perm_phase(draw, n):
    perm = draw(st.permutations(range(n)))
    P = [[EC.zero()] * n for _ in range(n)]
    for r, c in enumerate(perm):
        P[r][c] = draw(st.sampled_from(_PHASES))
    return P


@st.composite
def _sparse_torsion(draw, n, signs):
    T = [[[EC.zero()] * n for _ in range(n)] for _ in range(n)]

    def put(j, i, k, v):
        T[j][i][k] = T[j][i][k] + v
        T[j][k][i] = T[j][k][i] - v
    if draw(st.booleans()):
        a = EC(draw(_RATS), draw(st.sampled_from([0, 0, 0, Fraction(1, 2)])))
        for i, s in enumerate(signs):
            put(i, i, n - 1, a if s > 0 else -a)
    for _ in range(draw(st.integers(0, 2))):
        j, i, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if i != k:
            put(j, i, k, EC(draw(_RATS)))
    if draw(st.booleans()):
        # T'^i_{jk} = sum conj(P_ia) P_jb P_kc T^a_bc, exactly
        T = transform_tensor(T, "ucc", np.transpose(np.array(draw(_perm_phase(n)), object)))
    return T


def _float_torsion(T, offset):
    n = len(T)
    arr = np.array(T, dtype=complex)
    arr[0, 0, n - 1] += offset
    arr[0, n - 1, 0] -= offset
    return arr.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: _sparse_torsion(n, (1,) * (n - 1))),
    st.sampled_from([0.0, 5e-10, -9e-10, 2e-9, -3e-9]))
def test_vaisman_pattern_agrees_with_loop(T, offset):
    n = len(T)
    for g in (_torsion_algebra(T), _torsion_algebra(_float_torsion(T, offset))):
        ok, a = lie.vaisman_torsion_pattern(g)
        assert type(ok) is bool
        assert (ok, a) == vaisman_torsion_pattern_loop(g)


def _pluriclosed_accepts(g):
    try:
        lie.pluriclosed_obstruction(g)
    except lie.PatternError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(_sparse_torsion(3, (1, -1)))
def test_pluriclosed_pattern_agrees_with_loop(T):
    # with D = 0 the Chern torsion is -C; validation is off since random C
    # need not satisfy Jacobi, which the pattern test does not read
    for g in (_torsion_algebra(T), _torsion_algebra(np.array(T, complex).tolist())):
        assert _pluriclosed_accepts(g) == admissible_pattern_loop(lie.chern_torsion(g))


PATTERN_ALGEBRAS = [lie.nilmanifold_n3(Fraction(3, 2)), lie.family_a(Fraction(1, 2), -1),
                    lie.family_b(EC(1, -1), Fraction(1, 3)), lie.vaisman_nilmanifold(2),
                    lie.sl2c(1), lie.abelian(3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PATTERN_ALGEBRAS), _perm_phase(3))
def test_regauged_patterns_agree_with_loops(g, P):
    gP = regauge(g, np.conj(P))
    for h in (gP, _float_algebra(gP)):
        assert lie.vaisman_torsion_pattern(h) == vaisman_torsion_pattern_loop(h)
        assert _pluriclosed_accepts(h) == admissible_pattern_loop(lie.chern_torsion(h))
    json.dumps(lie.classify(_float_algebra(gP)).to_json())


def test_pluriclosed_float_pattern_uses_the_kind_zero_test():
    # a float copy of the nilmanifold with roundoff-sized torsion noise
    g = _float_algebra(lie.nilmanifold_n3(1))
    D = np.array(g.D)
    D[0, 2, 0] += 1e-13
    gn = from_cubes(3, g.C, D.tolist())
    ob = lie.pluriclosed_obstruction(gn)
    assert abs(ob.coeff((0, 1), (0, 1)) + 2) < 1e-9


# ---- frame-change equivariance --------------------------------------------------------

def test_torsion_equivariant_under_frame_change():
    rng = np.random.default_rng(23)
    g0 = lie.family_a(1, -1)
    Texact = np.array(lie.chern_torsion(g0), object)
    Cf = [[[complex(c) for c in r] for r in layer] for layer in g0.C]
    Df = [[[complex(c) for c in r] for r in layer] for layer in g0.D]
    gf = from_cubes(3, Cf, Df, label="a~float")
    for _ in range(5):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        gP = regauge(gf, np.conj(Q))
        T1 = np.array(lie.chern_torsion(gP), complex)
        T2 = frames.transform_torsion(Texact, Q)
        assert np.max(np.abs(T1 - T2)) < 1e-9


def test_classify_invariant_under_frame_change():
    # every predicate in the report is frame-covariant
    rng = np.random.default_rng(31)
    for g0 in (lie.nilmanifold_n3(1), lie.vaisman_nilmanifold(1), lie.sl2c(1)):
        Cf = [[[complex(c) for c in r] for r in layer] for layer in g0.C]
        Df = [[[complex(c) for c in r] for r in layer] for layer in g0.D]
        gf = from_cubes(3, Cf, Df, label=g0.label + "~float")
        base = lie.classify(gf)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        rep = lie.classify(regauge(gf, np.conj(Q)))
        assert (rep.balanced, rep.btp, rep.b_rank, rep.cyt, rep.type_label) == \
            (base.balanced, base.btp, base.b_rank, base.cyt, base.type_label)


FRAME_ALGEBRAS = [lie.nilmanifold_n3(2), lie.family_a(Fraction(1, 2), Fraction(1, 3)),
                  lie.family_b(EC(1, -1), 2), lie.sl2c(1), lie.vaisman_nilmanifold(1)]
EXACT_UNITARIES = [
    [[EC(0), EC(1), EC(0)], [EC(1), EC(0), EC(0)], [EC(0), EC(0), EC(0, 1)]],
    [[EC(Fraction(3, 5)), EC(0, Fraction(4, 5)), EC(0)],
     [EC(0, Fraction(4, 5)), EC(Fraction(3, 5)), EC(0)], [EC(0), EC(0), EC(1)]],
]


def _float_algebra(g):
    to_float = lambda T: [[[complex(c) for c in r] for r in layer] for layer in T]
    return from_cubes(g.n, to_float(g.C), to_float(g.D), label=g.label)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(FRAME_ALGEBRAS), st.sampled_from(EXACT_UNITARIES))
def test_transform_frame_matches_loop_law_exactly(g, P):
    # regauging by conj(P) is the unitary frame change e'_i = sum_s P_is e_s
    gP = regauge(g, np.conj(P))
    C, D = transform_frame_loop(g, P)
    assert gP.kind.exact
    assert [[list(r) for r in layer] for layer in gP.C] == C
    assert [[list(r) for r in layer] for layer in gP.D] == D


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FRAME_ALGEBRAS), st.integers(0, 2**32 - 1))
def test_transform_frame_matches_loop_law_in_float(g, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    gf = _float_algebra(g)
    gP = regauge(gf, np.conj(Q))
    C, D = transform_frame_loop(gf, Q.tolist())
    assert np.max(np.abs(np.array(gP.C) - np.array(C))) <= 1e-12
    assert np.max(np.abs(np.array(gP.D) - np.array(D))) <= 1e-12


def test_transform_frame_requires_unitary():
    # exact torsion and an exact frame change are read as complex128
    with pytest.raises(ValueError):
        frames.transform_torsion(lie.chern_torsion(lie.sl2c(1)), [[EC(2), EC(0), EC(0)],
                                                                  [EC(0), EC(1), EC(0)],
                                                                  [EC(0), EC(0), EC(1)]])


# ---- classify -------------------------------------------------------------------------

def test_classify_sl2c():
    rep = lie.classify(lie.sl2c(1))
    assert rep.type_label == "chern_flat" and rep.balanced and rep.btp
    assert rep.b_rank == 3 and rep.calabi_yau_type


def test_classify_n3():
    rep = lie.classify(lie.nilmanifold_n3(1))
    assert rep.type_label == "middle" and rep.cyt and rep.b_rank == 2
    assert rep.nilpotent_steps == 2


def test_classify_vaisman54():
    rep = lie.classify(lie.vaisman_nilmanifold(1))
    assert rep.type_label == "non_balanced" and rep.btp and rep.b_rank == 2
    assert rep.vaisman_pattern and not rep.cyt
    assert rep.eta == phi(2, EC(2))


def test_classify_abelian():
    rep = lie.classify(lie.abelian(3))
    assert rep.type_label == "chern_flat" and rep.b_rank == 0


def test_classify_rank_one_pattern():
    # a one-torsion algebra: C^1_{23} = -1 alone satisfies d^2 = 0
    C = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    D = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1][2] = EC(-1)
    C[0][2][1] = EC(1)
    g = from_cubes(3, C, D, label="rank1")
    rep = lie.classify(g)
    # the Chern curvature vanishes, so the label is chern_flat whatever B says;
    # the torsion is not parallel, so this is not the fano_pattern case
    assert rep.balanced and rep.b_rank == 1
    assert rep.type_label == "chern_flat" and not rep.btp


def test_report_invariants():
    for g in BUILTINS():
        rep = lie.classify(g)
        assert 0 <= rep.b_rank <= rep.n
        if rep.nilpotent_steps is not None:
            assert rep.solvable_steps is not None


AGREEMENT_GRID = (Fraction(-1), Fraction(0), Fraction(1, 2))
AGREEMENT_ALGEBRAS = (
    [lie.nilmanifold_n3(), lie.sl2c(), lie.vaisman_nilmanifold(), lie.abelian(3)]
    + [family(p, q) for family in (lie.family_a, lie.family_b)
       for p in AGREEMENT_GRID for q in AGREEMENT_GRID])


@pytest.mark.parametrize("g", AGREEMENT_ALGEBRAS, ids=lambda g: g.label)
def test_classify_float_copy_agrees_with_exact(g):
    # the float path decides every predicate as the exact path does
    fields = lambda r: (r.balanced, r.btp, r.unimodular, r.cyt, r.calabi_yau_type,
                        r.vaisman_pattern, r.b_rank, r.nilpotent_steps,
                        r.solvable_steps, r.type_label)
    gf = _float_algebra(g)
    assert not gf.kind.exact
    assert fields(lie.classify(gf)) == fields(lie.classify(g))


def test_classify_of_a_modulus_past_the_float_range_is_a_numeric_error():
    # finite parts whose modulus overflows: the zero tests count it as
    # nonzero, so classify reaches the rank of B, whose entries are not finite
    g = lie.HermitianLieAlgebra.from_json(
        {"n": 3, "D": [{"j": 1, "i": 3, "k": 1, "coef": {"re": 1.7e308, "im": 1.7e308}}]})
    with pytest.raises(NumericError, match="non-finite entries"):
        lie.classify(g)


# ---- classify stages against their full computations ------------------------------------
# The library reads [g, g] from the bracket table, brackets only basis pairs
# i < j in the derived series, takes tr Theta^b as d(tr theta^b), sums only
# the residuals with i < k, builds theta^b from D + T and the bracket table
# from the nonzero structure constants, and stops the Chern curvature at its
# first nonzero entry after the diagonal; the oracles multiply everything out.

def _assert_curvature_is_the_form_differences(g):
    """The one-map curvature entries hold the coefficients of the form
    differences, bit for bit (signed zeros too) and in the same order."""
    bits = lambda curvature: [repr(list(f.terms.items())) for row in curvature for f in row]
    for theta in (lie.chern_connection(g), lie.bismut_connection(g)):
        assert bits(lie.curvature_of(g, theta)) == bits(curvature_by_form_differences(g, theta))


def test_float_curvature_is_the_form_differences_after_a_frame_change():
    # a generic orthogonal frame leaves roundoff in every sum, and entries
    # that cancel to within it
    Q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
    for g in BUILTINS():
        _assert_curvature_is_the_form_differences(regauge(_float_algebra(g), Q))


def _assert_tables_agree_with_oracles(g):
    """The sparse bracket table, theta^b and classify's Chern curvature
    against the dense table, theta + gamma and the full curvature matrix;
    exact equality for either scalar kind, as both sides add alike."""
    n, dim = g.n, 2 * g.n
    table = lie.real_bracket_table(g)
    for w in (w for row in table for w in row):
        ms = [m for m, _ in w]
        assert ms == sorted(set(ms)) and all(c for _, c in w)
    expanded = tuple(tuple(tuple(dict(w).get(m, g.kind.zero) for m in range(dim)) for w in row)
                     for row in table)
    assert expanded == real_bracket_table_dense(g)
    th, tb = lie.chern_connection(g), lie.bismut_connection(g)
    ga = connection_dense(g.kind, chern_torsion_dense(g))
    assert all(tb[i][j] == th[i][j] + ga[i][j] for i in range(n) for j in range(n))
    full = lie.curvature_of(g, th)
    _assert_curvature_is_the_form_differences(g)
    rep = lie.classify(g)
    flat = all(f.is_zero() for row in full for f in row)
    assert (rep.type_label == "chern_flat") is flat
    assert rep.chern_ricci == lie.trace(full).scale(g.kind.i)


def _assert_stages_agree_with_oracles(g):
    _assert_tables_agree_with_oracles(g)
    assert lie.solvability_profile(g) == solvability_profile_all_pairs(g)
    assert lie.solvability_profile(g) == solvability_profile_full_reduction(g)
    assert lie.solvability_profile(g) == solvability_profile_dense(g)
    T, tb = lie.chern_torsion(g), lie.bismut_connection(g)
    want = btp_residuals_triple_loop(T, tb)
    # classify sums only the residuals with i < k
    assert _half_residuals(g) == {(i, j, k): f for (i, j, k), f in want.items() if i < k}
    trace = bismut_trace_full_curvature(g)
    assert first_chern_ricci(g) == lie.trace(lie.chern_curvature(g)).scale(EC(0, 1))
    rep = lie.classify(g)
    assert rep.cyt is trace.is_zero()
    assert rep.bismut_ricci == trace.scale(EC(0, 1))
    assert rep.btp is all(f.is_zero() for f in want.values())


def _off_diagonal_chern():
    """An integrable algebra whose Chern curvature vanishes on the diagonal
    only: D^1_{13} = 1, D^1_{23} = -1 + i, D^2_{13} = 1 + i."""
    C, D = ([[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)] for _ in range(2))
    D[0][0][2], D[0][1][2], D[1][0][2] = EC(1), EC(-1, 1), EC(1, 1)
    return from_cubes(3, C, D, label="off_diagonal_chern")


def test_chern_flat_reads_the_off_diagonal_entries():
    g = _off_diagonal_chern()
    Rc = lie.chern_curvature(g)
    assert all(Rc[i][i].is_zero() for i in range(3))
    assert Rc[0][1] == InvariantForm.monomial(3, (2,), (2,), EC(-2, -2))
    rep = lie.classify(g)
    assert rep.type_label == "non_balanced" and rep.chern_ricci.is_zero()


@pytest.mark.parametrize("g", BUILTINS() + (_perturbed_n3(), _off_diagonal_chern()),
                         ids=lambda g: g.label)
def test_classify_stages_agree_with_oracles(g):
    _assert_stages_agree_with_oracles(g)


def test_classify_stages_agree_with_oracles_on_the_sweep_grid():
    grid = [Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")]
    for family in (lie.family_a, lie.family_b):
        for p in grid:
            for q in grid:
                _assert_stages_agree_with_oracles(family(p, q))


@st.composite
def _sparse_structure(draw):
    """Sparse rational (C, D) with 0 to 10 entries drawn at random indices, C
    kept antisymmetric, not checked for integrability: mostly neither
    parallel-torsion, CYT nor solvable."""
    n = draw(st.integers(1, 4))
    C, D = ([[[EC.zero()] * n for _ in range(n)] for _ in range(n)] for _ in range(2))
    for _ in range(draw(st.integers(0, 10))):
        j, i, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = EC(draw(_RATS), draw(st.sampled_from([0, 0, draw(_RATS)])))
        if draw(st.booleans()) and i != k:
            C[j][i][k], C[j][k][i] = C[j][i][k] + c, C[j][k][i] - c
        else:
            D[j][i][k] = D[j][i][k] + c
    return from_cubes(n, C, D, label="sparse", validate=False)


@settings(max_examples=150, deadline=None)
@given(_sparse_structure())
def test_classify_stages_agree_with_oracles_on_sparse_structures(g):
    _assert_stages_agree_with_oracles(g)


_NONZERO_RATS = _RATS.filter(bool)


@st.composite
def _family_member(draw):
    """A family_a or family_b member at random rational parameters and scale."""
    p, q, a = draw(_RATS), draw(_RATS), draw(_NONZERO_RATS)
    if draw(st.booleans()):
        return lie.family_a(p, q, a)
    return lie.family_b(EC(p, draw(_RATS)), q, a)


@settings(max_examples=60, deadline=None)
@given(_family_member())
def test_classify_stages_agree_with_oracles_on_family_members(g):
    _assert_stages_agree_with_oracles(g)
    _assert_tables_agree_with_oracles(_float_algebra(g))
    assert lie.solvability_profile(_float_algebra(g)) == solvability_profile_dense(
        _float_algebra(g))


# ---- the sparse Lie kernels against their dense loops ------------------------------------
# Every Lie-side table is built from the nonzero entries of C, D and T; the
# oracles walk the dense n^3 cube and add in the same order, so the two agree
# exactly for either scalar kind.

def _assert_sparse_kernels_match_dense(g):
    T = chern_torsion_dense(g)
    assert g.C_entries == nonzero_entries(g.C) and g.D_entries == nonzero_entries(g.D)
    assert [g.d_phi(i) for i in range(g.n)] == d_phi_dense(g)
    assert lie.chern_torsion(g) == T and lie.torsion_entries(g) == nonzero_entries(T)
    assert lie.chern_connection(g) == connection_dense(g.kind, g.D)
    assert lie.bismut_connection(g) == connection_dense(g.kind, g.D, T)
    assert lie.b_tensor(g) == b_tensor_dense(T, g.kind)
    assert lie.gauduchon_eta(g) == gauduchon_eta_dense(T, g.kind)
    assert lie.check_unimodular(g) is check_unimodular_dense(g)
    assert lie.vaisman_torsion_pattern(g) == vaisman_torsion_pattern_loop(g)
    dim = 2 * g.n
    assert real_bracket_table_dense(g) == tuple(
        tuple(tuple(dict(w).get(m, g.kind.zero) for m in range(dim)) for w in row)
        for row in lie.real_bracket_table(g))
    assert g.to_json() == algebra_json_dense(g)
    if g.kind.exact:
        want = btp_residuals_triple_loop(T, lie.bismut_connection(g))
        assert _half_residuals(g) == {key: f for key, f in want.items() if key[0] < key[2]}
        if g.n == 3:
            assert _pluriclosed_accepts(g) == admissible_pattern_loop(T)


REGAUGE_FRAMES = ([[EC(1), EC(1), EC(0)], [EC(0), EC(1), EC(0)], [EC(0), EC(0), EC(2)]],
                  [[EC(1), EC(0, 1), EC(0)], [EC(Fraction(1, 2)), EC(1), EC(Fraction(1, 3))],
                   [EC(0), EC(1, 1), EC(2)]])


@pytest.mark.parametrize("g", BUILTINS() + (_perturbed_n3(), _off_diagonal_chern())
                         + tuple(regauge(h, P)
                                 for h in BUILTINS() for P in REGAUGE_FRAMES),
                         ids=lambda g: g.label)
def test_sparse_kernels_match_dense_loops(g):
    _assert_sparse_kernels_match_dense(g)
    C, D = (np.array(T, complex).tolist() for T in (g.C, g.D))
    _assert_sparse_kernels_match_dense(from_cubes(g.n, C, D, validate=False))


@settings(max_examples=200, deadline=None)
@given(_sparse_structure())
def test_sparse_kernels_match_dense_loops_on_random_entries(g):
    _assert_sparse_kernels_match_dense(g)


def test_float_tables_agree_with_oracles_on_builtins_and_sweep_grid():
    grid = [Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")]
    for g in BUILTINS() + tuple(family(p, q) for family in (lie.family_a, lie.family_b)
                                for p in grid for q in grid):
        _assert_tables_agree_with_oracles(_float_algebra(g))
        # the float series, laid out up to its last nonzero column, ranks as
        # the dense one laid out at full width
        assert lie.solvability_profile(_float_algebra(g)) == solvability_profile_dense(
            _float_algebra(g)), g.label


# ---- JSON -------------------------------------------------------------------------------

def test_algebra_json_roundtrip():
    for g in BUILTINS():
        h = lie.HermitianLieAlgebra.from_json(g.to_json())
        assert h.C == g.C and h.D == g.D and h.n == g.n


def test_json_rejects_bad_schema():
    with pytest.raises(lie.SchemaError):
        lie.HermitianLieAlgebra.from_json({"C": []})
    with pytest.raises(lie.SchemaError):
        lie.HermitianLieAlgebra.from_json({"n": 3, "C": [{"j": 1, "i": 2, "k": 1,
                                                          "coef": "1"}]})
    with pytest.raises(lie.SchemaError):
        lie.HermitianLieAlgebra.from_json({"n": 2, "C": [], "D": [{"j": 3, "i": 1,
                                                                   "k": 1, "coef": "1"}]})


def test_constructor_rejects_non_integrable():
    C = ((2, 0, 1, EC(1)), (2, 1, 0, EC(-1)))
    D = ((0, 0, 1, EC(1)),)     # spoils the Jacobi identity
    with pytest.raises(lie.IntegrabilityError) as exc:
        lie.HermitianLieAlgebra(3, EXACT, C, D)
    assert "d^2 phi" in str(exc.value)


def test_report_json_shape():
    rep = lie.classify(lie.nilmanifold_n3(1)).to_json()
    assert rep["type_label"] == "middle"
    assert rep["nilpotent_steps"] == 2
    assert isinstance(rep["eta"], list)


def _plain(c):
    """c as an int or Fraction where it is real, else as it is."""
    if c.im:
        return c
    return int(c.re) if c.re.denominator == 1 else c.re


@pytest.mark.parametrize("make", [
    lambda: lie.nilmanifold_n3(), lambda: lie.sl2c(2), lambda: lie.vaisman_nilmanifold(3),
    lambda: lie.family_a(Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)),
    lambda: lie.family_b(2, 0), lambda: lie.abelian(3),
], ids=["n3", "sl2c", "vaisman54", "a_st", "b_zt", "abelian"])
def test_an_int_built_algebra_classifies_as_its_exact_twin(make):
    g = make()
    plain = [[[[_plain(c) for c in r] for r in layer] for layer in T] for T in (g.C, g.D)]
    h = from_cubes(g.n, *plain, label=g.label)
    assert h.kind is g.kind and all(type(c) is EC for T in (h.C, h.D)
                                    for layer in T for r in layer for c in r)
    assert (h.C, h.D) == (g.C, g.D)
    assert json.dumps(lie.classify(h).to_json(), sort_keys=True) == \
        json.dumps(lie.classify(g).to_json(), sort_keys=True)
    assert json.dumps(h.to_json()) == json.dumps(g.to_json())
