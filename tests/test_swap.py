"""Conjugation swaps: companion structures and their invariants."""

from fractions import Fraction

import pytest

from _oracles import first_chern_ricci
from btpgeo import lie
from btpgeo.forms import InvariantForm
from btpgeo.scalars import EC


def phi(i, c=None):
    return InvariantForm.phi(3, i, c)


def phibar(i, c=None):
    return InvariantForm.phibar(3, i, c)


MIDDLE = lambda: (lie.nilmanifold_n3(1), lie.nilmanifold_n3(Fraction(1, 2)),
                  lie.family_a(1, -1), lie.family_a(Fraction(1, 2), Fraction(1, 3)),
                  lie.family_b(EC(1, 1), 2), lie.vaisman_nilmanifold(1))


def test_swap_n3_gives_companion_nilmanifold():
    for a in (1, Fraction(1, 2)):
        sw = lie.conjugate_swap(lie.nilmanifold_n3(a), {1})
        want = lie.vaisman_nilmanifold(a)
        assert sw.C == want.C and sw.D == want.D
        d3 = sw.d_phi(2)
        expect = (phi(0).wedge(phibar(0)) + phi(1).wedge(phibar(1))).scale(EC(-a, 0))
        assert d3 == expect


def test_swap_empty_is_identity():
    g = lie.family_a(1, -1)
    sw = lie.conjugate_swap(g, set())
    assert sw.C == g.C and sw.D == g.D


def test_swap_involution_on_builtins():
    for g in MIDDLE():
        for S in ({1}, {0}, {0, 1}):
            try:
                once = lie.conjugate_swap(g, S)
            except lie.SwapError:
                continue
            twice = lie.conjugate_swap(once, S)
            assert twice.C == g.C and twice.D == g.D, (g.label, S)


def test_swap_rejects_distinguished_index():
    with pytest.raises(lie.SwapError):
        lie.conjugate_swap(lie.nilmanifold_n3(1), {2})


def test_swap_rejects_non_integrable():
    with pytest.raises(lie.SwapError):
        lie.conjugate_swap(lie.sl2c(1), {1})


def test_swapped_family_a_has_companion_pattern():
    g = lie.family_a(1, -1)
    sw = lie.conjugate_swap(g, {1})
    ok, a = lie.vaisman_torsion_pattern(sw)
    assert ok and a == EC(1)
    eta = lie.gauduchon_eta(sw)
    assert eta == phi(2, EC(2))
    rep = lie.classify(sw)
    assert rep.type_label == "non_balanced" and rep.btp and rep.b_rank == 2
    assert rep.vaisman_pattern


def test_bismut_connection_preserved():
    for g in (lie.nilmanifold_n3(1), lie.family_a(1, -1),
              lie.family_a(Fraction(1, 2), Fraction(1, 3)), lie.family_b(1, 1)):
        for S in ({1}, {0}, set()):
            assert lie.bismut_swap_equal(g, lie.conjugate_swap(g, S), S), (g.label, S)


def test_swapped_bismut_ricci():
    a = Fraction(1, 2)
    sw = lie.conjugate_swap(lie.nilmanifold_n3(a), {1})
    rep = lie.classify(sw)
    want = (phi(0).wedge(phibar(0)) + phi(1).wedge(phibar(1))).scale(EC(0, -4 * a * a))
    assert rep.bismut_ricci == want
    assert not rep.cyt
    assert first_chern_ricci(sw).is_zero()


def test_swap_both_directions_balanced_again():
    # swapping both non-distinguished directions keeps eta = 0
    g = lie.family_a(1, -1)
    sw = lie.conjugate_swap(g, {0, 1})
    rep = lie.classify(sw)
    assert rep.balanced and rep.btp


def test_splitting_swap_in_dimension_five():
    # the swap generalizes beyond threefolds: a 2+2 split of the n = 5
    # companion structure lands on a balanced parallel-torsion partner
    n = 5
    a = Fraction(1, 2)
    C = [[[EC.zero()] * n for _ in range(n)] for _ in range(n)]
    D = [[[EC.zero()] * n for _ in range(n)] for _ in range(n)]
    for i in range(4):
        D[i][4][i] = EC(a)
    g = lie.HermitianLieAlgebra(n, C, D, label="split5")
    rep = lie.classify(g)
    assert not rep.balanced and rep.btp and rep.b_rank == 4 and rep.vaisman_pattern
    assert rep.eta == InvariantForm.phi(n, 4, EC(4 * a, 0))

    sw = lie.conjugate_swap(g, {2, 3})
    d5 = sw.d_phi(4)
    want = InvariantForm.zero(n)
    for i, sign in ((0, -a), (1, -a), (2, a), (3, a)):
        want = want + InvariantForm.monomial(n, (i,), (i,), EC(sign, 0))
    assert d5 == want
    rep2 = lie.classify(sw)
    assert rep2.balanced and rep2.btp and rep2.b_rank == 4
    assert lie.bismut_swap_equal(g, sw, {2, 3})
    back = lie.conjugate_swap(sw, {2, 3})
    assert back.C == g.C and back.D == g.D
