"""Regauging a Hermitian Lie algebra by a frame change P in GL(n, C).

``_oracles.regauge`` applies the law C'^i_{jk} = sum P_ia C^a_{bc} (P^-1)_bj
(P^-1)_ck and its companion for D.  A unitary P keeps the metric, so every
predicate of ``classify`` is unchanged; the unitaries are Cayley transforms of
rational skew-hermitian matrices, exact over Q(i).  A non-unitary P changes
the metric but not the Lie algebra or its complex structure, so the frame-free
facts survive while balance and parallel torsion may not.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import (ad_gram, cayley_unitary, direct_sum, killing_form, power_traces,
                      regauge, so_complex, solvability_profile_dense,
                      solvability_profile_full_reduction)
from btpgeo import lie
from btpgeo.linalg import exact_rank
from btpgeo.scalars import EC, EXACT

ALGEBRAS = {"n3": lie.nilmanifold_n3(1), "vaisman54": lie.vaisman_nilmanifold(1),
            "sl2c": lie.sl2c(1), "a_st": lie.family_a(Fraction(1, 2), Fraction(1, 3)),
            "b_zt": lie.family_b(EC(1, 1), 2)}

# rational skew-hermitian matrices: imaginary diagonal, A_ji = -conj(A_ij)
SKEW = [
    [[EC(0, 1), EC(1, 2), EC(0)],
     [EC(-1, 2), EC(0, Fraction(-1, 2)), EC(Fraction(1, 3), 1)],
     [EC(0), EC(Fraction(-1, 3), 1), EC(0, 2)]],
    [[EC(0), EC(Fraction(1, 2)), EC(0, 1)],
     [EC(Fraction(-1, 2)), EC(0, 3), EC(0)],
     [EC(0, 1), EC(0), EC(0, Fraction(-1, 4))]],
]

# the fields a frame change rewrites: the label, the three forms, whose
# coefficients are frame components, and the Vaisman pattern, which reads T
# in the given frame
FRAME_FIELDS = {"label", "eta", "bismut_ricci", "chern_ricci", "vaisman_pattern"}

NON_UNITARY = [
    [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
    [[EC(1), EC(0, 1), EC(0)], [EC(Fraction(1, 2)), EC(1), EC(Fraction(1, 3))],
     [EC(0), EC(1, 1), EC(2)]],
]


def _exact(P):
    return [[EC(c) if not isinstance(c, EC) else c for c in row] for row in P]


def _frame_free(rep):
    return rep.unimodular, rep.nilpotent_steps, rep.solvable_steps


def test_cayley_transforms_are_exactly_unitary():
    for A in SKEW:
        U = cayley_unitary(A)
        assert not (U @ np.conj(U).T - np.identity(3, int)).any()


def test_unitary_regauge_is_the_frame_change():
    # two independent routes to the same structure constants
    for A in SKEW:
        U = cayley_unitary(A)
        for g in ALGEBRAS.values():
            h, f = regauge(g, U), lie.transform_frame(g, np.conj(U))
            assert h.C == f.C and h.D == f.D, g.label


def test_classify_is_invariant_under_cayley_unitaries():
    for A in SKEW:
        U = cayley_unitary(A)
        for g in ALGEBRAS.values():
            before, after = lie.classify(g), lie.classify(regauge(g, U))
            for name in before._fields:
                if name not in FRAME_FIELDS:
                    assert getattr(after, name) == getattr(before, name), (g.label, name)


def test_non_unitary_regauge_keeps_the_frame_free_facts():
    for P in map(_exact, NON_UNITARY):
        reps = {name: lie.classify(regauge(g, P)) for name, g in ALGEBRAS.items()}
        for name, g in ALGEBRAS.items():
            assert _frame_free(reps[name]) == _frame_free(lie.classify(g)), name
        for name in ("n3", "vaisman54"):
            assert reps[name].btp and not reps[name].balanced, name
        sl2c = reps["sl2c"]
        assert sl2c.type_label == "chern_flat" and sl2c.balanced and not sl2c.btp
        for name in ("a_st", "b_zt"):
            assert not reps[name].btp and not reps[name].balanced, name


def test_a_multiple_of_a_unitary_keeps_balance():
    # so "not balanced" is not a fact of every non-unitary P
    U = cayley_unitary(SKEW[0])
    rep = lie.classify(regauge(ALGEBRAS["n3"], 2 * U))
    assert rep.balanced and rep.btp


_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_ENTRY = st.builds(EC, _RATIONAL, _RATIONAL)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_ENTRY, min_size=9, max_size=9))
def test_every_rational_regauge_keeps_the_frame_free_facts(entries):
    P = [entries[:3], entries[3:6], entries[6:]]
    assume(exact_rank(P) == 3)
    for g in ALGEBRAS.values():
        h = regauge(g, P)       # validated on construction: d^2 = 0
        rep = lie.classify(h)
        assert _frame_free(rep) == _frame_free(lie.classify(g)), g.label
    # D stays zero on a complex Lie group, so its Chern connection stays flat
    assert lie.classify(regauge(ALGEBRAS["sl2c"], P)).type_label == "chern_flat"


def _assert_pinned_and_unitary_invariant(invariant, g, pinned):
    """invariant(g) is pinned, and stays so under both Cayley unitaries; a
    frame change that is not unitary changes the metric, and the invariant."""
    assert invariant(g) == pinned, g.label
    for A in SKEW:
        h = regauge(g, cayley_unitary(A))
        assert h.C != g.C       # the frame did change
        assert invariant(h) == pinned, g.label
    for P in map(_exact, NON_UNITARY):
        assert invariant(regauge(g, P)) != pinned, g.label


# tr M2 and tr M2^2 of M2[x][y] = tr(ad_x ad_y^*), the first power traces of
# an invariant for recognizing a family member from any unitary frame
AD_GRAM_TRACES = {"a_st": [Fraction(98, 9), Fraction(1321, 54)], "b_zt": [56, 1008]}


def test_ad_gram_power_traces_are_pinned_and_unitary_invariant():
    for name, pinned in AD_GRAM_TRACES.items():
        _assert_pinned_and_unitary_invariant(lambda h: power_traces(ad_gram(h), 2),
                                             ALGEBRAS[name], pinned)


def _killing_gram(g):
    """K K^* for the Killing form K[x][y] = tr(ad_x ad_y)."""
    K = killing_form(g)
    dim = len(K)
    return [[sum((K[x][k] * K[y][k].conjugate() for k in range(dim)), g.kind.zero)
             for y in range(dim)] for x in range(dim)]


# tr KK^* and tr (KK^*)^2; on family_a, KK^* has the one nonzero eigenvalue
# (4 (s^2 + t^2))^2
KILLING_TRACES = [(ALGEBRAS["a_st"], [Fraction(169, 81), Fraction(28561, 6561)]),
                  (lie.family_a(1, -1), [64, 4096]),
                  (ALGEBRAS["b_zt"], [576, 331776]), (ALGEBRAS["sl2c"], [24, 96])]

# tr B, tr B^2 and tr B^3: a_st(1/2, 1/3) and b_zt(1 + i, 2) agree on B, and
# KK^* tells them apart
B_TRACES = [(ALGEBRAS["a_st"], [4, 8, 16]), (ALGEBRAS["b_zt"], [4, 8, 16]),
            (ALGEBRAS["sl2c"], [6, 12, 24])]


def test_killing_gram_power_traces_are_pinned_and_unitary_invariant():
    for g, pinned in KILLING_TRACES:
        _assert_pinned_and_unitary_invariant(lambda h: power_traces(_killing_gram(h), 2),
                                             g, pinned)


def test_b_tensor_power_traces_are_pinned_and_unitary_invariant():
    for g, pinned in B_TRACES:
        _assert_pinned_and_unitary_invariant(lambda h: power_traces(lie.b_tensor(h), 3),
                                             g, pinned)


def test_ad_gram_is_hermitian_and_positive_on_its_diagonal():
    for name, g in ALGEBRAS.items():
        M = ad_gram(g)
        dim = len(M)
        assert all(M[x][y] == M[y][x].conjugate() for x in range(dim) for y in range(dim)), name
        assert all(M[x][x].im == 0 and M[x][x].re >= 0 for x in range(dim)), name


# ---- so(m, C): the pipeline away from n = 3 -------------------------------------

SO_COMPLEX = [so_complex(4), so_complex(5)]      # n = 6 and n = 10


def _shear(n):
    """P = I + E_12 with P_nn = 2: not unitary."""
    return [[EC(2 if i == j == n - 1 else int(i == j or (i, j) == (0, 1))) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("m", [3, 4, 5, 6], ids=lambda m: f"so{m}")
def test_so_complex_classifies_as_chern_flat_btp(m):
    # n = 3, 6, 10 and 15; so(3, C) is sl2c
    g = so_complex(m)
    rep = lie.classify(g)
    assert rep.n == g.n == m * (m - 1) // 2 and rep.type_label == "chern_flat"
    assert rep.balanced and rep.btp and rep.unimodular and rep.cyt and rep.calabi_yau_type
    assert rep.b_rank == g.n
    # [g, g] = g: each reduction stops once it holds all 2n rows
    assert rep.nilpotent_steps is None and rep.solvable_steps is None
    assert solvability_profile_full_reduction(g) == (None, None)


@pytest.mark.parametrize("g", SO_COMPLEX, ids=lambda g: g.label)
def test_so_complex_sheared_frame_loses_only_btp(g):
    before, after = lie.classify(g), lie.classify(regauge(g, _shear(g.n)))
    assert before.btp and not after.btp
    for name in ("type_label", "balanced", "unimodular", "cyt", "b_rank"):
        assert getattr(after, name) == getattr(before, name), name


# ---- direct sums: the predicates of each summand ----------------------------------
# g1 + g2 with the orthogonal sum of the metrics: its torsion, connections and
# bracket table are block diagonal, so each predicate below is the AND of the
# summands', the B rank adds, and a series reaches zero when both summands'
# do.  The threefold type label is not asserted at n = 6.

SUMMANDS = {"n3": lie.nilmanifold_n3(1), "sl2c": lie.sl2c(1), "a_st": lie.family_a(1, 2),
            "b_zt": lie.family_b(EC(1, 1), 2), "vaisman54": lie.vaisman_nilmanifold(1),
            "abelian3": lie.abelian(3)}
PREDICATES = ("balanced", "btp", "unimodular", "cyt", "calabi_yau_type")


def _longer(a, b):
    return None if a is None or b is None else max(a, b)


@pytest.mark.parametrize("first, second", list(itertools.product(SUMMANDS, repeat=2)),
                         ids=lambda name: name)
def test_direct_sum_classifies_as_its_summands(first, second):
    g1, g2 = SUMMANDS[first], SUMMANDS[second]
    g = direct_sum(g1, g2)
    rep, rep1, rep2 = lie.classify(g), lie.classify(g1), lie.classify(g2)
    assert rep.n == 6
    for name in PREDICATES:
        assert getattr(rep, name) == (getattr(rep1, name) and getattr(rep2, name)), name
    assert rep.b_rank == rep1.b_rank + rep2.b_rank
    assert rep.nilpotent_steps == _longer(rep1.nilpotent_steps, rep2.nilpotent_steps)
    assert rep.solvable_steps == _longer(rep1.solvable_steps, rep2.solvable_steps)
    assert lie.solvability_profile(g) == solvability_profile_full_reduction(g)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_ENTRY, min_size=9, max_size=9))
def test_stopped_solvability_profile_matches_full_reduction_on_rational_regauges(entries):
    P = [entries[:3], entries[3:6], entries[6:]]
    assume(exact_rank(P) == 3)
    for g in ALGEBRAS.values():
        h = regauge(g, P)
        assert lie.solvability_profile(h) == solvability_profile_full_reduction(h), g.label


# ---- the sparse series against the dense one --------------------------------------
# lie.solvability_profile reduces maps of nonzero entries; the dense oracle
# reduces whole 2n-vectors with the same stops, so the step counts agree.

def _series_algebras():
    so = {m: so_complex(m) for m in (3, 4, 5, 6)}
    yield from so.values()
    for m in (3, 4, 5):
        for h in SUMMANDS.values():
            yield direct_sum(so[m], h)
    yield direct_sum(so[3], so[4])
    heavy = (Fraction(-37, 91), Fraction(5, 13), Fraction(999983, 1000003))
    for a in (Fraction(10) ** 6, Fraction(10) ** -6):
        for p, q in itertools.product(heavy, repeat=2):
            yield lie.family_a(p, q, a)
            yield lie.family_b(EC(p, q), q - p, a)


@pytest.mark.parametrize("g", list(_series_algebras()), ids=lambda g: g.label)
def test_sparse_series_matches_the_dense_series(g):
    assert lie.solvability_profile(g) == solvability_profile_dense(g)
