from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import transform_frame_loop
from btpgeo import frames, lie
from btpgeo.forms import InvariantForm
from btpgeo.linalg import hermitian_rank
from btpgeo.scalars import EC


def phi(i, c=None):
    return InvariantForm.phi(3, i, c)


def phibar(i, c=None):
    return InvariantForm.phibar(3, i, c)


BUILTINS = lambda: (lie.nilmanifold_n3(1), lie.family_a(1, -1),
                    lie.family_a(Fraction(1, 2), Fraction(1, 3)),
                    lie.family_b(EC(1, Fraction(1, 2)), Fraction(1, 3)),
                    lie.sl2c(1), lie.vaisman_nilmanifold(1), lie.abelian(3))


# ---- torsion ---------------------------------------------------------------

def test_sl2c_torsion_cyclic():
    T = lie.chern_torsion(lie.sl2c(1))
    assert T[0, 1, 2] == EC(1) and T[1, 2, 0] == EC(1) and T[2, 0, 1] == EC(1)
    assert T[0, 0, 1].is_zero() and T[2, 1, 0] == EC(-1)


def test_abelian_torsion_zero():
    assert lie.chern_torsion(lie.abelian(3)).is_zero()


def test_n3_torsion_from_structure_equation():
    # derive D by matching d phi_3 against the structure equation, then apply
    # the torsion formula; must land in the admissible middle-type pattern
    g = lie.nilmanifold_n3(Fraction(2, 3))
    d3 = g.ctx.d_phi(2)
    # coefficient of phi_j ^ phibar_k in d phi_3 is -conj(D^j_{3k})
    a = -d3.coeff((0,), (0,)).conjugate()
    assert a == EC(Fraction(2, 3))        # reads back D^1_{31}
    T = lie.chern_torsion(g)
    assert T[0, 0, 2] == EC(Fraction(2, 3)) and T[1, 1, 2] == EC(Fraction(-2, 3))
    nz = [(j, i, k) for j in range(3) for i in range(3) for k in range(3)
          if not T[j, i, k].is_zero()]
    assert sorted(nz) == [(0, 0, 2), (0, 2, 0), (1, 1, 2), (1, 2, 1)]


# ---- connections -------------------------------------------------------------

def test_sl2c_chern_connection_vanishes():
    th = lie.chern_connection(lie.sl2c(1))
    assert all(th[i, j].is_zero() for i in range(3) for j in range(3))


def test_vaisman54_chern_connection_matrix():
    g = lie.vaisman_nilmanifold(1)
    th = lie.chern_connection(g)
    assert th[0, 2] == phibar(0, EC(-1))
    assert th[1, 2] == phibar(1, EC(-1))
    assert th[2, 0] == phi(0)
    assert th[2, 1] == phi(1)
    assert th[0, 0].is_zero() and th[0, 1].is_zero() and th[2, 2].is_zero()


def test_gamma_middle_type_matrix():
    T = lie.chern_torsion(lie.nilmanifold_n3(1))
    ga = lie.gamma_tensor(T)
    assert ga[0, 0] == phi(2) - phibar(2)
    assert ga[1, 1] == phibar(2) - phi(2)
    assert ga[0, 2] == phibar(0)
    assert ga[1, 2] == phibar(1, EC(-1))
    assert ga[2, 0] == phi(0, EC(-1))
    assert ga[2, 1] == phi(1)
    assert ga[2, 2].is_zero() and ga[0, 1].is_zero()


def test_abelian_connection_and_gamma_vanish():
    th = lie.chern_connection(lie.abelian(3))
    assert all(th[i, j].is_zero() for i in range(3) for j in range(3))
    ga = lie.gamma_tensor(lie.chern_torsion(lie.abelian(3)))
    assert all(ga[i, j].is_zero() for i in range(3) for j in range(3))


def test_gamma_rank_one_matrix():
    # torsion T^1_{23} = 1 alone
    T3 = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    T3[0][1][2] = EC(1)
    T3[0][2][1] = EC(-1)
    ga = lie.gamma_tensor(lie.TorsionTensor(3, T3))
    assert ga[0, 1] == phibar(2, EC(-1))
    assert ga[0, 2] == phibar(1)
    assert ga[1, 0] == phi(2)
    assert ga[2, 0] == phi(1, EC(-1))
    assert ga[1, 2].is_zero() and ga[0, 0].is_zero()


def test_bismut_is_chern_plus_gamma():
    for g in BUILTINS():
        th = lie.chern_connection(g)
        ga = lie.gamma_tensor(lie.chern_torsion(g))
        tb = lie.bismut_connection(g)
        for i in range(3):
            for j in range(3):
                assert tb[i, j] == th[i, j] + ga[i, j]


def test_connections_skew_hermitian():
    for g in BUILTINS():
        for mat in (lie.chern_connection(g), lie.bismut_connection(g),
                    lie.gamma_tensor(lie.chern_torsion(g))):
            assert mat.is_skew_hermitian()


# ---- curvature ------------------------------------------------------------------

def test_sl2c_chern_flat():
    th = lie.chern_curvature(lie.sl2c(1))
    assert all(th[i, j].is_zero() for i in range(3) for j in range(3))


def test_abelian_curvature_zero():
    th = lie.bismut_curvature(lie.abelian(3))
    assert all(th[i, j].is_zero() for i in range(3) for j in range(3))


def test_family_a_bismut_curvature_pattern():
    g = lie.family_a(Fraction(1, 2), Fraction(1, 3))
    tb = lie.bismut_curvature(g)
    p11 = InvariantForm.monomial(3, (0,), (0,), EC.one())
    p22 = InvariantForm.monomial(3, (1,), (1,), EC.one())
    assert tb[0, 0] == p11.scale(EC(-2)) + p22.scale(EC(2))
    assert tb[1, 1] == p11.scale(EC(2)) + p22.scale(EC(-2))
    assert tb[2, 2].is_zero()
    assert tb[0, 1].is_zero() and tb[1, 0].is_zero()
    assert tb.component(0, 0, 0, 0) == EC(-2)
    assert tb.component(1, 1, 0, 0) == EC(2)


def test_curvature_skew_hermitian():
    for g in BUILTINS():
        assert lie.bismut_curvature(g).is_skew_hermitian()
        assert lie.chern_curvature(g).is_skew_hermitian()


def test_btp_curvature_pair_symmetry():
    # parallel torsion forces R^b_{i jb k lb} = R^b_{k lb i jb}
    for g in BUILTINS():
        ok, _ = lie.check_btp(g)
        assert ok
        tb = lie.bismut_curvature(g)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        assert tb.component(i, j, k, l) == tb.component(k, l, i, j)
        # no (2,0) or (0,2) parts under parallel torsion
        for i in range(3):
            for j in range(3):
                f = tb[i, j]
                assert f.is_zero() or f.bidegree() == (1, 1)


# ---- B tensor, eta, predicates ------------------------------------------------------

def test_b_tensor_special_diag():
    T3 = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), v in zip(((0, 1, 2), (1, 2, 0), (2, 0, 1)),
                            (Fraction(2), Fraction(1), Fraction(1, 2))):
        T3[i][j][k] = EC(v)
        T3[i][k][j] = EC(-v)
    B = lie.b_tensor(lie.TorsionTensor(3, T3))
    assert [B[i, i] for i in range(3)] == [EC(8), EC(2), EC(Fraction(1, 2))]
    assert B[0, 1].is_zero()


def test_b_tensor_zero():
    B = lie.b_tensor(lie.chern_torsion(lie.abelian(3)))
    assert all(B[i, j].is_zero() for i in range(3) for j in range(3))


def test_b_tensor_middle_brute_force():
    g = lie.nilmanifold_n3(3)
    T = lie.chern_torsion(g)
    B = lie.b_tensor(T)
    # independent summation over all (r, s)
    for i in range(3):
        for j in range(3):
            acc = EC.zero()
            for r in range(3):
                for s in range(3):
                    acc = acc + T[j, r, s] * T[i, r, s].conjugate()
            assert B[i, j] == acc
    assert [B[i, i] for i in range(3)] == [EC(18), EC(18), EC(0)]
    assert hermitian_rank(B) == 2


def test_eta_examples():
    assert lie.gauduchon_eta(lie.chern_torsion(lie.sl2c(1))).is_zero()
    assert lie.gauduchon_eta(lie.chern_torsion(lie.abelian(3))).is_zero()
    eta = lie.gauduchon_eta(lie.chern_torsion(lie.vaisman_nilmanifold(Fraction(3, 2))))
    assert eta == phi(2, EC(3))


def test_btp_examples():
    assert lie.check_btp(lie.nilmanifold_n3(1))[0]
    assert lie.check_btp(lie.family_a(2, -2))[0]


def test_btp_broken_by_perturbation():
    g = lie.nilmanifold_n3(1)
    D = [list(map(list, layer)) for layer in g.D]
    D[0][1][0] = EC(Fraction(1, 10))      # perturb D^1_{21}
    h = lie.HermitianLieAlgebra(3, g.C, D, label="n3~perturbed", validate=False)
    ok, res = lie.check_btp(h)
    assert not ok
    assert any(not f.is_zero() for f in res.values())


def test_unimodular_examples():
    assert lie.check_unimodular(lie.nilmanifold_n3(1))
    assert lie.check_unimodular(lie.abelian(3))
    g = lie.family_b(1, 1)
    D = [list(map(list, layer)) for layer in g.D]
    D[1][1][1] = EC(1)                    # D^2_{22} = 1 breaks the trace condition
    h = lie.HermitianLieAlgebra(3, g.C, D, label="b~broken", validate=False)
    assert not lie.check_unimodular(h)


def test_cyt_and_calabi_yau_type():
    for s, t in ((1, -1), (2, 1), (0, 0), (Fraction(1, 2), Fraction(-1, 2))):
        g = lie.family_a(s, t)
        assert lie.check_cyt(g)
        assert lie.check_calabi_yau_type(g) == (Fraction(s) + Fraction(t) == 0)
    assert lie.check_cyt(lie.abelian(3)) and lie.check_calabi_yau_type(lie.abelian(3))
    g = lie.vaisman_nilmanifold(1)
    assert not lie.check_cyt(g)
    ric = lie.first_bismut_ricci(g)
    want = (phi(0).wedge(phibar(0)) + phi(1).wedge(phibar(1))).scale(EC(0, -4))
    assert ric == want


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


# ---- frame-change equivariance --------------------------------------------------------

def test_torsion_equivariant_under_frame_change():
    rng = np.random.default_rng(23)
    g0 = lie.family_a(1, -1)
    Tfloat = frames._as_array(lie.chern_torsion(g0).T)
    Cf = [[[complex(c) for c in r] for r in layer] for layer in g0.C]
    Df = [[[complex(c) for c in r] for r in layer] for layer in g0.D]
    gf = lie.HermitianLieAlgebra(3, Cf, Df, label="a~float")
    for _ in range(5):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        P = [[complex(Q[i, j]) for j in range(3)] for i in range(3)]
        gP = lie.transform_frame(gf, P)
        T1 = frames._as_array(lie.chern_torsion(gP).T)
        T2 = frames.transform_torsion(Tfloat, Q)
        assert np.max(np.abs(T1 - T2)) < 1e-9


def test_classify_invariant_under_frame_change():
    # every predicate in the report is frame-covariant
    rng = np.random.default_rng(31)
    for g0 in (lie.nilmanifold_n3(1), lie.vaisman_nilmanifold(1), lie.sl2c(1)):
        Cf = [[[complex(c) for c in r] for r in layer] for layer in g0.C]
        Df = [[[complex(c) for c in r] for r in layer] for layer in g0.D]
        gf = lie.HermitianLieAlgebra(3, Cf, Df, label=g0.label + "~float")
        base = lie.classify(gf)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        rep = lie.classify(lie.transform_frame(gf, [[Q[i, j] for j in range(3)]
                                                    for i in range(3)]))
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
    return lie.HermitianLieAlgebra(g.n, to_float(g.C), to_float(g.D), label=g.label)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(FRAME_ALGEBRAS), st.sampled_from(EXACT_UNITARIES))
def test_transform_frame_matches_loop_law_exactly(g, P):
    gP = lie.transform_frame(g, P)
    C, D = transform_frame_loop(g, P)
    assert gP.exact
    assert [[list(r) for r in layer] for layer in gP.C] == C
    assert [[list(r) for r in layer] for layer in gP.D] == D


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FRAME_ALGEBRAS), st.integers(0, 2**32 - 1))
def test_transform_frame_matches_loop_law_in_float(g, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    gf = _float_algebra(g)
    gP = lie.transform_frame(gf, Q)
    C, D = transform_frame_loop(gf, Q.tolist())
    assert np.max(np.abs(np.array(gP.C) - np.array(C))) <= 1e-12
    assert np.max(np.abs(np.array(gP.D) - np.array(D))) <= 1e-12


def test_transform_frame_requires_unitary():
    with pytest.raises(ValueError):
        lie.transform_frame(lie.sl2c(1), [[EC(2), EC(0), EC(0)],
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
    g = lie.HermitianLieAlgebra(3, C, D, label="rank1")
    rep = lie.classify(g)
    assert rep.balanced and rep.b_rank == 1
    if rep.btp and rep.type_label != "chern_flat":
        assert rep.type_label == "fano_pattern"


def test_report_invariants():
    for g in BUILTINS():
        rep = lie.classify(g)
        assert 0 <= rep.b_rank <= rep.n
        if rep.nilpotent_steps is not None:
            assert rep.solvable_steps is not None


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
    C = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    D = [[[EC.zero()] * 3 for _ in range(3)] for _ in range(3)]
    C[2][0][1] = EC(1)
    C[2][1][0] = EC(-1)
    D[0][0][1] = EC(1)   # spoils the Jacobi identity
    with pytest.raises(lie.IntegrabilityError) as exc:
        lie.HermitianLieAlgebra(3, C, D)
    assert "d^2 phi" in str(exc.value)


def test_report_json_shape():
    rep = lie.classify(lie.nilmanifold_n3(1)).to_json()
    assert rep["type_label"] == "middle"
    assert rep["nilpotent_steps"] == 2
    assert isinstance(rep["eta"], list)
