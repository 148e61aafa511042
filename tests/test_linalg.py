import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import bareiss_rank, exact_solve_identity, row_basis_dense
from btpgeo.linalg import (DimensionError, NumericError, ShapeError,
                           exact_rank, hermitian_rank, matrix_inverse,
                           row_basis, sparse_row, takagi_factorize)
from btpgeo.scalars import EC, EXACT, FLOAT


def ex(rows):
    return np.array([[EC(Fraction(v), 0) if not isinstance(v, EC) else v for v in r]
                     for r in rows], object)


# ---- hermitian rank -------------------------------------------------------

def test_rank_middle_type_b():
    assert hermitian_rank(ex([[2, 0, 0], [0, 2, 0], [0, 0, 0]]), EXACT) == 2


def test_rank_zero():
    assert hermitian_rank(ex([[0, 0, 0]] * 3), EXACT) == 0


def test_rank_full_special():
    a = Fraction(5, 7)
    c = 2 * a * a
    assert hermitian_rank(ex([[c, 0, 0], [0, c, 0], [0, 0, c]]), EXACT) == 3


def test_rank_needs_hermitian():
    with pytest.raises(ShapeError):
        hermitian_rank(ex([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), EXACT)


def test_rank_float_unitary_conjugation_invariant():
    rng = np.random.default_rng(3)
    B = np.diag([2.0, 2.0, 0.0]).astype(complex)
    for _ in range(20):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        C = Q @ B @ Q.conj().T
        C = (C + C.conj().T) / 2
        assert hermitian_rank(C, FLOAT) == 2


# hermitian matrices of exact entries and their ranks
RANK_CASES = [
    ([[2, 0, 0], [0, 2, 0], [0, 0, 0]], 2),
    ([[0, 0, 0]] * 3, 0),
    ([[1, EC(0, 1)], [EC(0, -1), 1]], 1),
    ([[1, EC(0, 1)], [EC(0, -1), 2]], 2),
    ([[Fraction(1, 3), EC(1, -1), 0], [EC(1, 1), 7, EC(0, 2)], [0, EC(0, -2), -1]], 3),
    ([[1]], 1),
]
RANK_FORMS = {     # (the form of exact rows, its kind)
    "exact nested tuples": (lambda rows: tuple(map(tuple, rows)), EXACT),
    "float nested tuples": (lambda rows: tuple(tuple(map(complex, r)) for r in rows), FLOAT),
    "object array": (lambda rows: np.array(rows, object), EXACT),
    "complex array": (lambda rows: np.array(rows, complex), FLOAT),
}


@pytest.mark.parametrize("form", sorted(RANK_FORMS))
def test_hermitian_rank_reads_nested_sequences_and_arrays_alike(form):
    build, kind = RANK_FORMS[form]
    for rows, rank in RANK_CASES:
        exact = [[c if isinstance(c, EC) else EC(Fraction(c), 0) for c in r] for r in rows]
        assert hermitian_rank(build(exact), kind) == rank, rows
    with pytest.raises(ShapeError):
        hermitian_rank(build([[EC(1), EC(2)], [EC(3), EC(1)]]), kind)
    with pytest.raises(DimensionError):
        hermitian_rank(build([[EC(1), EC(2), EC(3)], [EC(2), EC(1), EC(0)]]), kind)


def test_exact_rows_of_ints_and_fractions_reduce():
    rows = row_basis([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: Fraction(1, 3), 2: 1}], EXACT)
    assert len(rows) == 2 and all(type(c) is EC for r in rows for c in r.values())
    assert rows[1] == {1: Fraction(1, 3), 2: 1}
    assert exact_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert exact_rank([[Fraction(1, 3), 1], [1, 3]]) == 1
    with pytest.raises(TypeError):
        row_basis([{0: 1.0, 1: 2.0}], EXACT)


def test_exact_rank_rectangular():
    assert exact_rank([[EC(1), EC(2), EC(3)], [EC(2), EC(4), EC(6)]]) == 1


small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
small_exact = st.builds(EC, small_rational, small_rational)


@st.composite
def rational_matrices(draw):
    """Up to 4 x 5, either drawn entry by entry or as a product A B through an
    inner dimension r, which caps the rank at r and makes deficient ones common."""
    nrow, ncol = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = lambda h, w: draw(st.lists(st.lists(small_exact, min_size=w, max_size=w),
                                         min_size=h, max_size=h))
    if draw(st.booleans()):
        return entries(nrow, ncol)
    r = draw(st.integers(0, min(nrow, ncol)))
    A, B = entries(nrow, r), entries(r, ncol)
    return [[sum((A[i][t] * B[t][j] for t in range(r)), EC.zero()) for j in range(ncol)]
            for i in range(nrow)]


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_exact_rank_matches_bareiss(rows):
    assert exact_rank(rows) == bareiss_rank(rows)
    assert len(row_basis(map(sparse_row, rows), EXACT)) == bareiss_rank(rows)


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.integers(1, 5))
def test_sparse_row_basis_matches_the_dense_reduction(rows, bound):
    # the same rows as the dense elimination, read from and returned as maps
    # of nonzero entries; each row's columns increase, so its first is its
    # pivot, the pivots are distinct, and every row is zero at the pivots of
    # the rows before it
    for max_rank in (None, bound):
        basis = row_basis(map(sparse_row, rows), EXACT, max_rank)
        assert basis == [sparse_row(r) for r in row_basis_dense(rows, EXACT, max_rank)]
        assert all(list(r) == sorted(r) and all(r.values()) for r in basis)
        pivots = [next(iter(r)) for r in basis]
        assert sorted(pivots) == sorted(set(pivots))
        assert not any(p in r for k, r in enumerate(basis) for p in pivots[:k])
    assert len(basis) == min(bareiss_rank(rows), bound)


def test_row_basis_reads_column_pairs_and_drops_cancelled_entries():
    # a (column, entry) sequence reads as its map, and an entry that cancels
    # leaves no zero behind
    rows = row_basis([((0, EC(1)), (2, EC(1))), {0: EC(2), 1: EC(5), 2: EC(2)}], EXACT)
    assert rows == [{0: EC(1), 2: EC(1)}, {1: EC(5)}]
    assert row_basis([{0: EC(0)}, {}], EXACT) == []


def test_exact_inverse():
    m = [[EC(2), EC(1)], [EC(1), EC(1)]]
    inv = matrix_inverse(m, EXACT)
    prod = [[sum((m[i][k] * inv[k][j] for k in range(2)), EC.zero())
             for j in range(2)] for i in range(2)]
    assert prod == [[EC(1), EC(0)], [EC(0), EC(1)]]


def test_matrix_inverse_picks_by_kind():
    m = [[EC(2), EC(1, 1)], [EC(1, -1), EC(3)]]
    inv = matrix_inverse(m, EXACT)      # nested lists: no numpy on the exact path
    assert type(inv) is list and inv == exact_solve_identity(m)
    f = [[complex(c) for c in r] for r in m]
    inv = matrix_inverse(f, FLOAT)
    assert inv.dtype == complex
    assert np.allclose(np.array(f) @ np.array(inv), np.eye(2), atol=1e-12)


@st.composite
def square_rational_matrices(draw):
    """Up to 5 x 5, drawn entry by entry or as a product A B through an inner
    dimension r < n, which makes it singular."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n))
    entries = lambda h, w: draw(st.lists(st.lists(small_exact, min_size=w, max_size=w),
                                         min_size=h, max_size=h))
    if r == n:
        return entries(n, n)
    A, B = entries(n, r), entries(r, n)
    return [[sum((A[i][t] * B[t][j] for t in range(r)), EC.zero()) for j in range(n)]
            for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_rational_matrices())
def test_exact_inverse_matches_gauss_jordan(m):
    try:
        want = exact_solve_identity(m)
    except ShapeError:
        with pytest.raises(ShapeError, match="singular matrix"):
            matrix_inverse(m, EXACT)
        return
    got = matrix_inverse(m, EXACT)
    assert type(got) is list and got == want


# ---- Takagi ----------------------------------------------------------------

def test_takagi_already_diagonal():
    A = np.diag([3.0, 2.0, 1.0]).astype(complex)
    res = takagi_factorize(A)
    assert res.d == (3.0, 2.0, 1.0)
    assert np.allclose(np.abs(res.U), np.eye(3), atol=1e-12)
    assert res.reconstruction_residual(A) <= 1e-10


def test_takagi_negative_scalar_phase_absorption():
    A = np.array([[-1.0 + 0j]])
    res = takagi_factorize(A)
    assert res.d == (1.0,)
    u = res.U[0, 0]
    assert abs(np.conj(u) * (-1.0) * np.conj(u) - 1.0) <= 1e-12


def test_takagi_random_matches_svd_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        A = A + A.T
        res = takagi_factorize(A)
        assert res.reconstruction_residual(A) <= 1e-10
        sv = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(np.array(res.d) - sv)) <= 1e-9
        U = res.U
        assert np.max(np.abs(U @ U.conj().T - np.eye(3))) <= 1e-10


def test_takagi_sorted_descending():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
    A = A + A.T
    res = takagi_factorize(A)
    assert list(res.d) == sorted(res.d, reverse=True)


def test_takagi_phase_gauge_covariance_by_residual():
    # e^{2 i theta} A admits the rotated factor; only the residual is asserted
    rng = np.random.default_rng(8)
    A = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    A = A + A.T
    for theta in (0.3, 1.2, -2.0):
        B = np.exp(2j * theta) * A
        res = takagi_factorize(B)
        assert res.reconstruction_residual(B) <= 1e-10


def test_takagi_degenerate_blocks():
    # repeated singular values, including a complex phase on an identity block
    for A in (np.eye(3) * (1 + 1j) / np.sqrt(2), np.diag([2.0, 2.0, 1.0]).astype(complex)):
        res = takagi_factorize(A)
        assert res.reconstruction_residual(A) <= 1e-10


def test_takagi_near_degenerate_and_rank_deficient():
    # clustered singular values are the hard regime for SVD-phase repairs
    rng = np.random.default_rng(55)
    for spectrum in ([1.0, 1.0 + 3e-6, 0.5, 0.2],
                     [1.0, 1.0 + 1e-10, 0.5, 0.2],
                     [2.0, 1.0, 1.0, 0.0, 0.0],
                     [1.0, 0.0, 0.0]):
        for _ in range(5):
            n = len(spectrum)
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            Q, _ = np.linalg.qr(M)
            A = Q @ np.diag(spectrum) @ Q.T
            A = (A + A.T) / 2
            res = takagi_factorize(A)
            assert res.reconstruction_residual(A) <= 1e-10
            sv = np.linalg.svd(A, compute_uv=False)
            assert np.max(np.abs(np.array(res.d) - sv)) <= 1e-9


def test_takagi_d_matches_gram_eigenvalue_oracle():
    # independent oracle: singular values as square roots of eig(A^H A)
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        A = A + A.T
        res = takagi_factorize(A)
        gram = np.sort(np.sqrt(np.maximum(np.linalg.eigvalsh(A.conj().T @ A), 0)))[::-1]
        assert np.max(np.abs(np.array(res.d) - gram)) <= 1e-9


def test_takagi_rejects_nonsquare_and_asymmetric():
    with pytest.raises(DimensionError):
        takagi_factorize(np.ones((2, 3), dtype=complex))
    bad = np.array([[0, 1.0], [0, 0]], dtype=complex)
    with pytest.raises(ShapeError):
        takagi_factorize(bad)


def test_takagi_rejects_nonfinite():
    bad = np.array([[np.inf, 0], [0, 1.0]], dtype=complex)
    with pytest.raises(NumericError):
        takagi_factorize(bad)


def test_rank_and_takagi_take_plain_arrays_of_either_kind():
    h = [[EC(1), EC(0, 1)], [EC(0, -1), EC(2)]]
    assert hermitian_rank(np.array(h, object), EXACT) == hermitian_rank(h, EXACT) == 2
    assert hermitian_rank(np.array(h, complex), FLOAT) == 2
    assert hermitian_rank(ex([[1, 1], [1, 1]]), EXACT) == 1
    sym = [[EC(1), EC(2)], [EC(2), EC(1)]]
    for A in (np.array(sym, object), np.array(sym, complex)):
        res = takagi_factorize(A)
        assert res.d == pytest.approx((3.0, 1.0))
        assert res.U.dtype == complex and res.reconstruction_residual(A) <= 1e-10
    with pytest.raises(DimensionError):
        hermitian_rank(ex([[1, 2, 3], [2, 1, 0]]), EXACT)
    with pytest.raises(DimensionError):
        hermitian_rank(np.ones((2, 3), complex), FLOAT)
    with pytest.raises(ShapeError):
        hermitian_rank(ex([[1, 2], [3, 1]]), EXACT)


def test_rank_reports_nonfinite_float_entries():
    # an overflowed B is not hermitian entrywise (inf - inf), but the error
    # names the overflow, not the shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # rows are read as Python scalars
        for B in (np.array([[np.inf, 0], [0, 1.0]], complex),
                  ((complex("inf"), 0j), (0j, 1 + 0j))):
            with pytest.raises(NumericError):
                hermitian_rank(B, FLOAT)
    with pytest.raises(ShapeError):
        hermitian_rank(np.array([[1.0, 1e-3], [0, 1.0]], complex), FLOAT)
