from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import bareiss_rank
from btpgeo.linalg import (CMatrix, DimensionError, NumericError, ShapeError,
                           exact_rank, exact_solve_identity, hermitian_rank,
                           row_basis, takagi_factorize)
from btpgeo.scalars import EC


def ex(rows):
    return CMatrix.from_rows([[EC(Fraction(v), 0) if not isinstance(v, EC) else v
                               for v in r] for r in rows])


# ---- hermitian rank -------------------------------------------------------

def test_rank_middle_type_b():
    assert hermitian_rank(ex([[2, 0, 0], [0, 2, 0], [0, 0, 0]])) == 2


def test_rank_zero():
    assert hermitian_rank(ex([[0, 0, 0]] * 3)) == 0


def test_rank_full_special():
    a = Fraction(5, 7)
    c = 2 * a * a
    assert hermitian_rank(ex([[c, 0, 0], [0, c, 0], [0, 0, c]])) == 3


def test_rank_needs_hermitian():
    with pytest.raises(ShapeError):
        hermitian_rank(ex([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_rank_float_unitary_conjugation_invariant():
    rng = np.random.default_rng(3)
    B = np.diag([2.0, 2.0, 0.0]).astype(complex)
    for _ in range(20):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        C = Q @ B @ Q.conj().T
        C = (C + C.conj().T) / 2
        assert hermitian_rank(CMatrix.from_rows(C)) == 2


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
    assert len(row_basis(rows, exact=True)) == bareiss_rank(rows)


def test_exact_inverse():
    m = [[EC(2), EC(1)], [EC(1), EC(1)]]
    inv = exact_solve_identity(m)
    prod = [[sum((m[i][k] * inv[k][j] for k in range(2)), EC.zero())
             for j in range(2)] for i in range(2)]
    assert prod == [[EC(1), EC(0)], [EC(0), EC(1)]]


# ---- Takagi ----------------------------------------------------------------

def test_takagi_already_diagonal():
    A = CMatrix.from_rows(np.diag([3.0, 2.0, 1.0]).astype(complex))
    res = takagi_factorize(A)
    assert res.d == (3.0, 2.0, 1.0)
    assert np.allclose(np.abs(res.U.to_numpy()), np.eye(3), atol=1e-12)
    assert res.reconstruction_residual(A) <= 1e-10


def test_takagi_negative_scalar_phase_absorption():
    A = CMatrix.from_rows(np.array([[-1.0 + 0j]]))
    res = takagi_factorize(A)
    assert res.d == (1.0,)
    u = res.U.to_numpy()[0, 0]
    assert abs(np.conj(u) * (-1.0) * np.conj(u) - 1.0) <= 1e-12


def test_takagi_random_matches_svd_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        A = A + A.T
        cm = CMatrix.from_rows(A)
        res = takagi_factorize(cm)
        assert res.reconstruction_residual(cm) <= 1e-10
        sv = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(np.array(res.d) - sv)) <= 1e-9
        U = res.U.to_numpy()
        assert np.max(np.abs(U @ U.conj().T - np.eye(3))) <= 1e-10


def test_takagi_sorted_descending():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
    A = A + A.T
    res = takagi_factorize(CMatrix.from_rows(A))
    assert list(res.d) == sorted(res.d, reverse=True)


def test_takagi_phase_gauge_covariance_by_residual():
    # e^{2 i theta} A admits the rotated factor; only the residual is asserted
    rng = np.random.default_rng(8)
    A = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    A = A + A.T
    for theta in (0.3, 1.2, -2.0):
        B = np.exp(2j * theta) * A
        cm = CMatrix.from_rows(B)
        res = takagi_factorize(cm)
        assert res.reconstruction_residual(cm) <= 1e-10


def test_takagi_degenerate_blocks():
    # repeated singular values, including a complex phase on an identity block
    for A in (np.eye(3) * (1 + 1j) / np.sqrt(2), np.diag([2.0, 2.0, 1.0]).astype(complex)):
        cm = CMatrix.from_rows(A)
        res = takagi_factorize(cm)
        assert res.reconstruction_residual(cm) <= 1e-10


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
            cm = CMatrix.from_rows(A)
            res = takagi_factorize(cm)
            assert res.reconstruction_residual(cm) <= 1e-10
            sv = np.linalg.svd(A, compute_uv=False)
            assert np.max(np.abs(np.array(res.d) - sv)) <= 1e-9


def test_takagi_d_matches_gram_eigenvalue_oracle():
    # independent oracle: singular values as square roots of eig(A^H A)
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        A = A + A.T
        res = takagi_factorize(CMatrix.from_rows(A))
        gram = np.sort(np.sqrt(np.maximum(np.linalg.eigvalsh(A.conj().T @ A), 0)))[::-1]
        assert np.max(np.abs(np.array(res.d) - gram)) <= 1e-9


def test_takagi_rejects_nonsquare_and_asymmetric():
    with pytest.raises(DimensionError):
        takagi_factorize(CMatrix.from_rows(np.ones((2, 3), dtype=complex)))
    bad = np.array([[0, 1.0], [0, 0]], dtype=complex)
    with pytest.raises(ShapeError):
        takagi_factorize(CMatrix.from_rows(bad))


def test_takagi_rejects_nonfinite():
    bad = np.array([[np.inf, 0], [0, 1.0]], dtype=complex)
    with pytest.raises(NumericError):
        takagi_factorize(CMatrix.from_rows(bad))


def test_cmatrix_flags():
    m = ex([[1, 2], [2, 1]])
    assert m.is_symmetric() and m.is_hermitian()
    h = CMatrix.from_rows([[1 + 0j, 1j], [-1j, 2 + 0j]])
    assert h.is_hermitian() and not h.is_symmetric()
    with pytest.raises(DimensionError):
        CMatrix([[EC(1)], [EC(1), EC(2)]])
