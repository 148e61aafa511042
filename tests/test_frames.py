from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from _oracles import (b_rank_type_two_path, build_special_frame_one, cube,
                      special_to_admissible_two_path, takagi_factorize_one, transform_torsion_one)
from btpgeo import frames, goldens, lie
from btpgeo.linalg import ShapeError, takagi_factorize
from btpgeo.scalars import EC

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def cyclic_torsion(a1, a2, a3):
    T = np.zeros((3, 3, 3), dtype=complex)
    for (i, j, k), v in zip(CYCLES, (a1, a2, a3)):
        T[i][j][k] = v
        T[i][k][j] = -v
    return T


def random_unitary(rng, n=3):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(M)
    return Q


# ---- transform_torsion -------------------------------------------------------

def test_identity_leaves_torsion():
    T = cyclic_torsion(1, 1, 1)
    out = frames.transform_torsion(T, np.eye(3))
    assert np.max(np.abs(out - T)) == 0


def test_so3_preserves_fully_symmetric_torsion():
    rng = np.random.default_rng(1)
    T = cyclic_torsion(1, 1, 1)
    for _ in range(10):
        M = rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        Q = Q * np.linalg.det(Q)      # force determinant +1
        out = frames.transform_torsion(T, Q)
        assert np.max(np.abs(out - T)) < 1e-10


def test_round_trip_composition():
    rng = np.random.default_rng(2)
    T = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    T = T - np.swapaxes(T, 1, 2)
    P = random_unitary(rng)
    back = frames.transform_torsion(frames.transform_torsion(T, P), P.conj().T)
    assert np.max(np.abs(back - T)) < 1e-10


def test_transform_requires_unitary():
    with pytest.raises(ValueError):
        frames.transform_torsion(cyclic_torsion(1, 0, 0), np.diag([2.0, 1, 1]))


def test_exact_transform_with_exact_unitary():
    T = [[[EC.zero() for _ in range(3)] for _ in range(3)] for _ in range(3)]
    T[0][1][2] = EC(1)
    T[0][2][1] = EC(-1)
    P = [[EC(0), EC(1), EC(0)], [EC(1), EC(0), EC(0)], [EC(0), EC(0), EC(0, 1)]]
    out = frames.transform_torsion(T, P)
    # odd permutation with a phase: components move and pick up factors;
    # exact data is read as complex128
    assert out.dtype == complex and out[1][0][2] == 1j


# ---- normal-form builders ---------------------------------------------------------

def _nonzero(T):
    return {idx: T[idx] for idx in np.ndindex(T.shape) if T[idx] != 0}


# the special-frame torsion of a triple, an oracle: only the closing check of
# the one-at-a-time special frame builds it
def test_cyclic_torsion_entries_and_kind():
    T = _oracles.cyclic_torsion((Fraction(3), 2, EC(1, 1)))
    assert T.dtype == object and all(type(c) is EC for c in T.flat)
    assert _nonzero(T) == {(0, 1, 2): EC(3), (0, 2, 1): EC(-3), (1, 2, 0): EC(2),
                           (1, 0, 2): EC(-2), (2, 0, 1): EC(1, 1), (2, 1, 0): EC(-1, -1)}
    Tf = _oracles.cyclic_torsion((2.0, 1.0, 0.5))
    assert Tf.dtype == complex and np.array_equal(Tf, cyclic_torsion(2.0, 1.0, 0.5))


def test_diagonal_torsion_entries_and_kind():
    T = frames.diagonal_torsion(3, Fraction(2), (1, -1))
    assert T.dtype == object and all(type(c) is EC for c in T.flat)
    assert _nonzero(T) == {(0, 0, 2): EC(2), (0, 2, 0): EC(-2),
                           (1, 1, 2): EC(-2), (1, 2, 1): EC(2)}
    Tf = frames.diagonal_torsion(4, 1.5, (1, 1, 1))
    assert Tf.dtype == complex
    assert _nonzero(Tf) == {**{(i, i, 3): 1.5 for i in range(3)},
                            **{(i, 3, i): -1.5 for i in range(3)}}


# ---- special frames ------------------------------------------------------------

def test_special_frame_fixed_point():
    T = cyclic_torsion(2.0, 1.0, 0.5)
    res = frames.build_special_frame(T)
    assert res.a == (2.0, 1.0, 0.5)
    assert np.allclose(np.abs(res.U), np.eye(3), atol=1e-9)


def test_special_frame_recovers_sl2c():
    rng = np.random.default_rng(3)
    g = lie.sl2c(1)
    T = np.array(cube(g, lie.chern_torsion(g)), complex)
    for _ in range(20):
        scr = frames.transform_torsion(T, random_unitary(rng))
        res = frames.build_special_frame(scr)
        assert np.max(np.abs(np.array(res.a) - 1.0)) <= 1e-9
        # the returned unitary reproduces the special pattern
        out = frames.transform_torsion(scr, res.U)
        for (i, j, k), v in zip(CYCLES, res.a):
            assert abs(out[i][j][k] - v) < 1e-9
        eta = frames.gauduchon_components(out)
        assert np.max(np.abs(eta)) < 1e-9


def test_special_frame_rank_one_and_sorted_singular_values():
    rng = np.random.default_rng(4)
    T = cyclic_torsion(1.0, 0, 0)
    for _ in range(10):
        scr = frames.transform_torsion(T, random_unitary(rng))
        res = frames.build_special_frame(scr)
        assert np.max(np.abs(np.array(res.a) - [1.0, 0, 0])) <= 1e-9


def test_special_frame_invariant_is_singular_values():
    # a equals the sorted singular values of the cyclic matrix, scramble-proof
    rng = np.random.default_rng(5)
    a0 = (1.7, 0.9, 0.2)
    T = cyclic_torsion(*a0)
    for _ in range(10):
        scr = frames.transform_torsion(T, random_unitary(rng))
        res = frames.build_special_frame(scr)
        assert np.max(np.abs(np.array(res.a) - np.array(a0))) < 1e-9


def test_not_balanced_rejected():
    T = np.zeros((3, 3, 3), dtype=complex)
    T[0][0][2] = 1.0      # T^1_{13}: eta_3 != 0
    T[0][2][0] = -1.0
    with pytest.raises(frames.NotBalancedError):
        frames.build_special_frame(T)


# ---- stacks: one pass, the same bits as one torsion at a time ---------------------
# A stack is normalized in one pass; the oracles are the bodies that took one
# torsion or matrix.  Scrambled torsions of each rank pattern, at scales
# 1e-6..1e6, must come out with every U, a and Takagi d equal bit for bit.

def _bits(x):
    x = np.ascontiguousarray(x)
    return x.dtype, x.shape, x.tobytes()


@st.composite
def _scrambled(draw):
    """A torsion (a, a, a), (a, a, 0), (a, 0, 0), a_1 > a_2 > a_3 > 0 or 0
    at a scale in 1e-6..1e6, and a seeded unitary to scramble it by."""
    pattern = draw(st.sampled_from(["aaa", "aa0", "a00", "generic", "zero"]))
    a = {"aaa": (1, 1, 1), "aa0": (1, 1, 0), "a00": (1, 0, 0), "zero": (0, 0, 0)}.get(pattern)
    if a is None:
        a2 = draw(st.floats(0.05, 0.95))
        a = (1, a2, draw(st.floats(0.01, 0.95)) * a2)
    scale = 10.0 ** draw(st.floats(-6, 6))
    M = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(size=(2, 3, 3))
    return cyclic_torsion(*(scale * x for x in a)), np.linalg.qr(M[0] + 1j * M[1])[0]


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:        # the class is compared with the stack's
        return type(exc)


def _cyclic_matrix(T):
    """A_{i alpha} = T^alpha_{jk}, (i j k) cyclic: the matrix Takagi factorizes."""
    return np.array([T[:, j, k] for _, j, k in CYCLES])


@settings(max_examples=150, deadline=None)
@given(st.lists(_scrambled(), min_size=1, max_size=12))
def test_stacked_special_frames_equal_the_one_at_a_time_bodies(items):
    special, Q = (np.array(x) for x in zip(*items))
    stack = frames.transform_torsion(special, Q)
    scrambled = [transform_torsion_one(T, P) for T, P in items]
    assert [_bits(T) for T in stack] == [_bits(T) for T in scrambled]

    A = np.array([_cyclic_matrix(T) for T in scrambled])
    want = [_result_or_error(takagi_factorize_one, a, 1e-9) for a in A]
    failed = {w for w in want if isinstance(w, type)}
    if failed:      # an item the one-at-a-time body rejects fails the stack
        with pytest.raises(tuple(failed)):
            takagi_factorize(A, tol=1e-9)
    else:
        got = takagi_factorize(A, tol=1e-9)
        assert [_bits(U) for U in got.U] == [_bits(U) for U, _ in want]
        assert [_bits(d) for d in got.d] == [_bits(np.array(d)) for _, d in want]

    want = [_result_or_error(build_special_frame_one, T) for T in scrambled]
    failed = {w for w in want if isinstance(w, type)}
    if failed:
        with pytest.raises(tuple(failed)):
            frames.build_special_frame(stack)
        return
    got = frames.build_special_frame(stack)
    assert [_bits(U) for U in got.U] == [_bits(U) for U, _ in want]
    assert [_bits(a) for a in got.a] == [_bits(np.array(a)) for _, a in want]
    assert not got.U.flags.writeable and not got.a.flags.writeable
    one = frames.build_special_frame(stack[0])        # a stack of one, as a single torsion
    assert _bits(one.U) == _bits(want[0][0]) and one.a == want[0][1]


@pytest.mark.parametrize("pattern", [(1, 1, 1), (1, 1, 0), (1, 0, 0), (1, 0.5, 0.25), (0, 0, 0)])
def test_scrambles_at_scale_1e6_recover(pattern):
    # Takagi's reconstruction residual is bounded by tol times each matrix's
    # size; with the absolute bound 1e-9, 6 of these 100 raised NumericError
    want = sorted((1e6 * x for x in pattern), reverse=True)
    scrambled = []
    for seed in range(20):
        M = np.random.default_rng(seed).normal(size=(2, 3, 3))
        scrambled.append(transform_torsion_one(cyclic_torsion(*(1e6 * x for x in pattern)),
                                               np.linalg.qr(M[0] + 1j * M[1])[0]))
    for T in scrambled:
        assert np.allclose(frames.build_special_frame(T).a, want, rtol=1e-9, atol=1e-6)
    assert np.allclose(frames.build_special_frame(np.array(scrambled)).a, [want] * 20,
                       rtol=1e-9, atol=1e-6)


def _unbalanced():
    T = np.zeros((3, 3, 3), dtype=complex)
    T[0][0][2], T[0][2][0] = 1.0, -1.0      # T^1_{13}: eta_3 != 0
    return T


@settings(max_examples=40, deadline=None)
@given(st.lists(_scrambled(), min_size=1, max_size=11), st.data())
def test_one_bad_item_raises_as_it_does_alone(items, data):
    at = data.draw(st.integers(0, len(items)))
    torsions = [transform_torsion_one(T, P) for T, P in items]
    unitaries = [P for _, P in items]
    matrices = [_cyclic_matrix(T) for T in torsions]
    for fn, good, bad, error in (
            (frames.build_special_frame, torsions, _unbalanced(), frames.NotBalancedError),
            (lambda P: frames.transform_torsion(cyclic_torsion(1, 1, 1), P), unitaries,
             np.diag([2.0, 1, 1]), ValueError),
            (takagi_factorize, matrices, np.array([[0, 1.0, 0], [0, 0, 0], [0, 0, 1]]),
             ShapeError)):
        assert _result_or_error(fn, bad) is error
        assert _result_or_error(fn, np.array(good[:at] + [bad] + good[at:])) is error


def test_a_single_input_keeps_its_shapes():
    rng = np.random.default_rng(9)
    scr = transform_torsion_one(cyclic_torsion(1.0, 0.5, 0.0), random_unitary(rng))
    res = frames.build_special_frame(scr)
    assert res.U.shape == (3, 3) and not res.U.flags.writeable
    assert type(res.a) is tuple and all(type(x) is float for x in res.a)
    t = takagi_factorize(_cyclic_matrix(scr))
    assert t.U.shape == (3, 3) and not t.U.flags.writeable and type(t.d) is tuple
    assert frames.torsion_to_cyclic(scr).shape == (3,)
    assert frames.gauduchon_components(scr).shape == (3,)
    # stacks over several leading axes keep them
    stack = np.array([[scr] * 3] * 2)
    res2 = frames.build_special_frame(stack)
    assert res2.U.shape == (2, 3, 3, 3) and res2.a.shape == (2, 3, 3)
    assert _bits(res2.U[1, 2]) == _bits(res.U) and tuple(res2.a[1, 2].tolist()) == res.a


# frames.recovery of goldens.sl2c_suite(seed), recorded when each of the ten
# scrambles was recovered on its own
SL2C_RECOVERY = {0: "1.33e-15", 1: "1.11e-15", 2: "1.33e-15", 3: "7.77e-16", 4: "8.88e-16",
                 5: "9.99e-16", 6: "8.88e-16", 7: "5.55e-16", 8: "6.66e-16", 9: "7.77e-16"}


@pytest.mark.parametrize("seed", sorted(SL2C_RECOVERY))
def test_sl2c_recovery_detail_is_pinned(seed):
    check, = (c for c in goldens.sl2c_suite(seed) if c.name == "frames.recovery")
    assert check.passed and check.detail == f"max deviation {SL2C_RECOVERY[seed]}"


# ---- admissible frames -----------------------------------------------------------

def test_special_to_admissible_unit():
    U, T = frames.special_to_admissible((1.0, 1.0, 0.0))
    assert abs(T[0][0][2] - 1) < 1e-15 and abs(T[1][1][2] + 1) < 1e-15
    # consistency with the transformation law
    sp = cyclic_torsion(1.0, 1.0, 0.0)
    out = frames.transform_torsion(sp, U)
    assert np.max(np.abs(out - T)) <= 1e-12


def test_special_to_admissible_exact():
    U, T = frames.special_to_admissible((Fraction(3, 7), Fraction(3, 7), 0))
    assert T[0][0][2] == EC(Fraction(3, 7))
    assert T[1][1][2] == EC(Fraction(-3, 7))
    assert T[0][2][0] == EC(Fraction(-3, 7))
    nonzero = [(j, i, k) for j in range(3) for i in range(3) for k in range(3)
               if not T[j][i][k].is_zero()]
    assert sorted(nonzero) == [(0, 0, 2), (0, 2, 0), (1, 1, 2), (1, 2, 1)]


def test_special_to_admissible_rejects_wrong_rank():
    with pytest.raises(frames.FramePatternError):
        frames.special_to_admissible((1.0, 1.0, 0.5))
    with pytest.raises(frames.FramePatternError):
        frames.special_to_admissible((1.0, 0.5, 0.0))


# ---- rank trichotomy ----------------------------------------------------------------

def test_b_rank_type_table():
    assert frames.b_rank_type((1.0, 1.0, 1.0)) == "rank3"
    assert frames.b_rank_type((0.0, 0.0, 0.0)) == "kahler"
    assert frames.b_rank_type((1.0, 1.0, 0.0)) == "rank2"
    assert frames.b_rank_type((1.0, 0.0, 0.0)) == "rank1"
    assert frames.b_rank_type((1.0, 0.5, 0.25)) == "excluded_by_classification"
    assert frames.b_rank_type((1.0, 1.0, 0.5)) == "excluded_by_classification"


def test_b_rank_type_exact():
    assert frames.b_rank_type((Fraction(2), Fraction(2), Fraction(2))) == "rank3"
    assert frames.b_rank_type((Fraction(2), Fraction(2), 0)) == "rank2"
    assert frames.b_rank_type((Fraction(2), Fraction(1), 0)) == "excluded_by_classification"
    with pytest.raises(frames.FramePatternError):
        frames.b_rank_type((Fraction(1), Fraction(2), 0))


def test_b_rank_type_float_thresholds():
    assert frames.b_rank_type((1.0, 1.0 - 1e-10, 1e-12)) == "rank2"
    assert frames.b_rank_type((1.0, 1e-12, -1e-15)) == "rank1"


# ---- agreement with the two-path routines ----------------------------------------------
# Exact triples near the rank thresholds: sums of a few base values and
# offsets of at most 2e-8, on both sides of the float tolerances.

_BASES = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2),
                          Fraction(10 ** 4)])


def _offsets(unit):
    return st.one_of(st.just(Fraction(0)),
                     st.sampled_from([k * unit for k in (-2, -1, 1, 2)]),
                     st.fractions(-2 * unit, 2 * unit, max_denominator=10 ** 12))


@st.composite
def _triples(draw, unit):
    vals = sorted((draw(_BASES) for _ in range(3)), reverse=True)
    if draw(st.booleans()):
        vals = draw(st.permutations(vals))
    return tuple(v + draw(_offsets(unit)) for v in vals)


def _outcome(fn, a):
    try:
        return fn(a)
    except frames.FramePatternError:
        return "unsorted"


def _old_float_tie(f, tol=1e-8):
    """A pair x < y of a float triple that the two-path float body read as in
    order yet unequal: |x - y| rounds above tol * s while y - tol * s rounds
    to x or below (s = max(1, a_1); values within tol * s count as 0)."""
    s = max(1.0, f[0])
    v = [0.0 if abs(x) <= tol * s else x for x in f]
    return any(x < y and abs(x - y) > tol * s and not x < y - tol * s
               for x, y in ((v[0], v[1]), (v[1], v[2])))


@settings(max_examples=300, deadline=None)
@given(_triples(Fraction(1, 10 ** 8)))
def test_b_rank_type_agrees_with_two_path_oracle(a):
    exact = _outcome(frames.b_rank_type, a)
    assert exact == _outcome(b_rank_type_two_path, a)
    assert _outcome(frames.b_rank_type, tuple(map(EC, a))) == exact
    f = tuple(float(x) for x in a)
    new, old = _outcome(frames.b_rank_type, f), _outcome(b_rank_type_two_path, f)
    if new != old:
        # only at such a tie, where the one body reads the pair as the exact
        # triple reads it: out of order
        assert _old_float_tie(f) and (new, old) == ("unsorted", "excluded_by_classification")
        assert exact == "unsorted"


def _admissible_outcome(fn, a):
    try:
        U, T = fn(a)
    except frames.FramePatternError:
        return None
    return np.asarray(U), np.asarray(T)


@settings(max_examples=200, deadline=None)
@given(_BASES, st.lists(_offsets(Fraction(1, 10 ** 9)), min_size=3, max_size=3),
       st.booleans())
def test_special_to_admissible_agrees_with_two_path_oracle(v, d, as_ec):
    a = (v + d[0], v + d[1], d[2])
    for t in (tuple(map(EC, a)) if as_ec else a, tuple(float(x) for x in a)):
        new = _admissible_outcome(frames.special_to_admissible, t)
        old = _admissible_outcome(special_to_admissible_two_path, t)
        assert (new is None) == (old is None)
        if new is not None:
            assert np.array_equal(new[0], old[0])
            assert new[1].dtype == old[1].dtype and (new[1] == old[1]).all()


def test_a_triple_is_read_through_one_kind():
    # ints and Fractions are exact; a triple that mixes kinds raises
    assert _oracles.cyclic_torsion((1, Fraction(1, 2), 0)).dtype == object
    assert frames.b_rank_type((1, 1, 0)) == "rank2"
    assert frames.diagonal_torsion(3, 1, (1, -1))[0, 0, 2] == EC(1)
    for mixed in ((EC(1), 1.0, 0.0), (1, 1.0, 0), (1.0, 1.0, 0)):
        for fn in (_oracles.cyclic_torsion, frames.b_rank_type, frames.special_to_admissible):
            with pytest.raises(TypeError, match="mixed scalar kinds"):
                fn(mixed)
