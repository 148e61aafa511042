"""Row reduction, ranks, inverses and Takagi factorization of matrices.

Matrices are numpy arrays (or nested lists) of the same two scalar kinds as
everything else: object arrays of ExactComplex, or complex128.  One row
reduction, ``row_basis``, serves every exact rank question on sparse vectors,
maps {column: scalar}: the spans of the solvability series are built so,
and the dense callers (the rank of the B tensor, the Sylvester test of chart
metrics, which reads its pivots, and the exact inverse) convert their rows
by ``sparse_row``.  Its float branch ranks by singular values.  One inverse,
``matrix_inverse``, serves the constant matrices of both kinds; its exact
branch is two passes of ``row_basis`` and returns nested lists.  Takagi
factorization is float-only: the inputs that need it are generic
unitary-scrambled torsion data, never golden rational values.  It takes one
matrix or a stack of them over leading axes, factorized in one pass with
every check per matrix; a single matrix is a stack of one, whose d is a
tuple.

numpy is imported by the routines that build arrays (the float branches
and Takagi), so exact ranks and inverses run without it.  A numpy
linear-algebra failure in a float rank is raised as ``NumericError``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .scalars import EXACT, DimensionError, ExactComplex, Kind, all_finite


class ShapeError(ValueError):
    """Structural precondition (symmetry, hermitianity) violated."""


class NumericError(RuntimeError):
    """A floating-point routine failed to reach its tolerance."""


# --------------------------------------------------------------------------
# row reduction and inverses
# --------------------------------------------------------------------------

def sparse_row(row) -> dict:
    """A dense row as the map {column: entry} of its nonzero entries."""
    return {j: c for j, c in enumerate(row) if c}


def row_basis(vectors, kind: Kind, max_rank: int = None) -> list:
    """Independent spanning rows of an iterable of sparse vectors, by row
    reduction.  A vector is a map {column: scalar} (or its (column, scalar)
    pairs) whose absent columns are zero; the rows returned are such maps.

    Exact vectors are eliminated in input order without row exchanges: a
    basis row reduces a vector only where the vector is nonzero at its
    pivot, and then updates only the basis row's own nonzero columns,
    dropping each entry that cancels.  A vector with an entry left is kept,
    its columns in increasing order, and its smallest column is its pivot.
    Every basis row is zero at the pivots of the rows before it, and for a
    matrix whose leading principal minors D_k are nonzero, basis row k
    pivots at column k on D_k / D_(k-1).  Given ``max_rank``, a positive
    bound the caller knows the rank cannot pass, the exact elimination
    returns once it holds that many rows and reads no further vector.
    Float vectors are all read, laid out densely up to their last nonzero
    column, ranked by singular values above ``max(s[0], 1) * 1e-10``, and
    the leading right singular vectors returned.
    """
    if kind.exact:
        basis = []          # (pivot, row) per basis row
        for v in filter(None, vectors):
            v = dict(v)
            for piv, b in basis:
                c = v.get(piv)
                if c:
                    f = -c / b[piv]
                    for i, y in b.items():
                        w = v.pop(i, kind.zero) + f * y
                        if w:
                            v[i] = w
            row = {i: kind.scalar(c) for i, c in sorted(v.items()) if c}
            if row:         # a basis row holds exact scalars: its pivot divides
                basis.append((next(iter(row)), row))
                if len(basis) == max_rank:
                    break
        return [row for _, row in basis]
    import numpy as np
    vectors = [dict(v) for v in vectors]
    arr = np.zeros((len(vectors), 1 + max(map(max, filter(None, vectors)), default=-1)), complex)
    for r, v in enumerate(vectors):
        arr[r, list(v)] = list(v.values())
    if arr.size == 0:
        return []
    try:
        u, s, vh = np.linalg.svd(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericError(str(exc)) from exc
    rank = int(np.sum(s > max(s[0], 1.0) * 1e-10)) if len(s) else 0
    return [{i: c for i, c in enumerate(vh[r]) if c} for r in range(rank)]


def exact_rank(rows: Sequence[Sequence[ExactComplex]]) -> int:
    """Rank of a matrix of exact scalars: the length of its row basis."""
    return len(row_basis(map(sparse_row, rows), EXACT))


def matrix_inverse(mat, kind: Kind):
    """Inverse of a square matrix of scalars of the given kind: nested lists
    of exact scalars, or a complex128 array.  Floats go to numpy.  Exact rows
    of [A | I] are reduced by ``row_basis``, which leaves every pivot in the
    A block iff A is invertible (else ShapeError); reduced again in falling
    pivot order, each pivot column is cleared, and row k over its pivot at
    column k is row k of A^-1 in its I block.  No numpy is imported for it."""
    if kind.exact:
        n = len(mat)
        rows = row_basis(({**sparse_row(r), n + i: kind.one} for i, r in enumerate(mat)), kind)
        if any(min(r) >= n for r in rows):
            raise ShapeError("singular matrix")
        rows = sorted(row_basis(sorted(rows, key=min, reverse=True), kind), key=min)
        return [[r.get(n + j, kind.zero) / r[k] for j in range(n)] for k, r in enumerate(rows)]
    import numpy as np
    return np.linalg.inv(np.array(mat, dtype=complex))


def hermitian_rank(B, kind: Kind) -> int:
    """Rank of a hermitian matrix: a square nested sequence or array of
    scalars of the given kind, whose rows are read once as Python scalars.

    Exact entries are row-reduced by ``row_basis``; float entries are ranked
    by counting eigenvalues above ``n * max|B| * 1e-12``.  A non-finite
    float entry (an overflow upstream) raises NumericError.
    """
    rows = B.tolist() if hasattr(B, "tolist") else [list(r) for r in B]
    n = len(rows)
    if not n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise DimensionError("hermitian_rank needs a square matrix")
    if not all(kind.negligible(rows[i][j] - rows[j][i].conjugate(), 1e-12)
               for i in range(n) for j in range(i, n)):
        if not all_finite(x for r in rows for x in r):
            raise NumericError("non-finite entries")
        raise ShapeError("matrix is not hermitian")
    if kind.exact:
        return exact_rank(rows)
    import numpy as np
    B = np.array(rows, complex)
    try:
        ev = np.linalg.eigvalsh(B)
    except np.linalg.LinAlgError as exc:
        raise NumericError(str(exc)) from exc
    return int(np.sum(np.abs(ev) > n * np.abs(B).max() * 1e-12))


# --------------------------------------------------------------------------
# Takagi factorization
# --------------------------------------------------------------------------

class TakagiResult(namedtuple("TakagiResult", "U d")):
    """Unitary U (complex128, read-only) and the nonnegative d with
    conj(U) @ A @ conj(U).T = diag(d): for one matrix a tuple, for a stack
    the read-only array of shape A.shape[:-1]."""
    __slots__ = ()

    def reconstruction_residual(self, A) -> float:
        """The largest |conj(U) A conj(U)^T - diag(d)| entry, over the stack."""
        import numpy as np
        U = self.U.conj()
        lhs = U @ np.asarray(A, complex) @ U.swapaxes(-1, -2)
        return float(np.max(np.abs(lhs - np.asarray(self.d)[..., None] * np.eye(U.shape[-1]))))


def takagi_factorize(A, tol: float = 1e-10) -> TakagiResult:
    """Takagi factorization of a complex symmetric matrix (float path).

    Uses the real symmetric embedding B = [[Re A, Im A], [Im A, -Re A]]:
    an eigenvector [x; y] of B with eigenvalue sigma > 0 yields u = x + i y
    with A conj(u) = sigma u, and the positive-eigenvalue vectors are
    automatically complex-orthonormal (multiplication by i maps them into
    the mirrored negative spectrum).  Null directions come from the complex
    SVD.  This stays backward-stable even for clustered singular values,
    where SVD-phase repairs break down.  Singular values are returned
    sorted descending.

    A is a square array of either scalar kind, or a stack of them over
    leading axes, factorized in one pass: one SVD and one eigh of the stack,
    and the null completion only of the matrices whose rank is below n, one
    pass per rank.  Finiteness, symmetry and the reconstruction residual
    (each against tol times the matrix's own size, max(1, max|A_k|)) and
    unitarity (against tol) are checked per matrix.  A single
    matrix is a stack of one, returned as U of shape (n, n) and the tuple d.
    """
    import numpy as np
    a = np.asarray(A, complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError("takagi_factorize needs a square matrix")
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    if not np.all(np.isfinite(a)):
        raise NumericError("non-finite entries")
    raw, aT = a, a.swapaxes(1, 2)
    size = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    if (np.abs(a - aT).max(axis=(1, 2)) > max(tol, 1e-12) * size).any():
        raise ShapeError("matrix is not symmetric within tolerance")
    a = (a + aT) / 2.0
    s = np.linalg.svd(a, compute_uv=False)
    rank = np.sum(s > 1e-12 * np.maximum(s[:, :1], 1.0), axis=1)

    w, V = np.linalg.eigh(np.block([[a.real, a.imag], [a.imag, -a.real]]))
    order = np.argsort(-w, axis=1, kind="stable")[:, :n]   # largest eigenvalues = sigma > 0
    d = np.take_along_axis(w, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    Q = V[:, :n] + 1j * V[:, n:]                           # columns u
    for r in np.unique(rank[rank < n]):
        k = rank == r
        # a conj(u) = 0 needs conj(u) in ker(a): u is a conjugated null
        # right-singular vector, i.e. a plain row of Vh; re-orthonormalize
        # the null block against the positive block
        Q[k, :, r:] = np.linalg.svd(a[k])[2][:, r:].swapaxes(1, 2)
        pos, null = Q[k, :, :r], Q[k, :, r:]
        Q[k, :, r:] = np.linalg.qr(null - pos @ (pos.conj().swapaxes(1, 2) @ null))[0]
        d[k, r:] = 0.0
    # each matrix's reconstruction residual against tol times its own size,
    # as the symmetry test; unitarity against tol itself
    Uc = Q.swapaxes(1, 2).conj()
    residual = np.abs(Uc @ raw @ Uc.swapaxes(1, 2) - d[:, :, None] * np.eye(n)).max(axis=(1, 2))
    U = Q.swapaxes(1, 2).reshape(shape)
    if (residual > tol * size).any() or \
            np.max(np.abs(U @ U.conj().swapaxes(-1, -2) - np.eye(n))) > tol:
        raise NumericError("Takagi residual exceeded tolerance")
    U.flags.writeable = False
    d = d.reshape(shape[:-1])
    d.flags.writeable = False
    return TakagiResult(U, tuple(d.tolist()) if len(shape) == 2 else d)
