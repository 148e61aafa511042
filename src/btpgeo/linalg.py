"""Dense complex matrices, row reduction, and Takagi factorization.

Matrices come in the same two scalar kinds as everything else.  One row
reduction, ``row_basis``, serves every exact rank question: the rank of the
B tensor, the spans of the lower central and derived series in solvability
profiles, and the Sylvester positivity test of chart metrics, which reads
its pivots.  Its float branch ranks by singular values.  Takagi
factorization is float-only: the inputs that need it are generic
unitary-scrambled torsion data, never golden rational values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .scalars import EC, ExactComplex, conj, is_exact, scalar_abs


class DimensionError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class ShapeError(ValueError):
    """Structural precondition (symmetry, hermitianity) violated."""


class NumericError(RuntimeError):
    """A floating-point routine failed to reach its tolerance."""


class CMatrix:
    """Dense matrix over exact or float complex scalars.

    Entries are stored row-major as nested tuples.  ``kind`` is either
    ``"exact"`` or ``"float"``, inferred from the entries.
    """

    __slots__ = ("rows", "cols", "entries", "kind")

    def __init__(self, entries):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise DimensionError("matrix must be non-empty")
        ncol = len(rows[0])
        if any(len(r) != ncol for r in rows):
            raise DimensionError("ragged rows")
        exact = is_exact(rows[0][0])
        for r in rows:
            for e in r:
                if is_exact(e) != exact:
                    raise TypeError("mixed scalar kinds in one matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncol)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "kind", "exact" if exact else "float")

    def __setattr__(self, *_):
        raise AttributeError("CMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @staticmethod
    def from_rows(rows, exact=None) -> "CMatrix":
        conv = []
        for r in rows:
            out = []
            for e in r:
                if isinstance(e, ExactComplex) or exact is False:
                    out.append(complex(e) if exact is False else e)
                elif isinstance(e, (int, Fraction)) and exact is not False:
                    out.append(EC(e, 0) if exact else complex(e))
                else:
                    out.append(complex(e))
            conv.append(out)
        return CMatrix(conv)

    @staticmethod
    def identity(n: int, exact: bool = True) -> "CMatrix":
        one = EC.one() if exact else 1 + 0j
        zero = EC.zero() if exact else 0j
        return CMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(e) for e in r] for r in self.entries], dtype=complex)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                d = self.entries[i][j] - conj(self.entries[j][i])
                if self.kind == "exact":
                    if not d.is_zero():
                        return False
                elif abs(d) > tol:
                    return False
        return True

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                d = self.entries[i][j] - self.entries[j][i]
                if self.kind == "exact":
                    if not d.is_zero():
                        return False
                elif abs(d) > tol:
                    return False
        return True

    def max_abs(self) -> float:
        return max(scalar_abs(e) for r in self.entries for e in r)

    def to_json(self):
        from .scalars import scalar_to_json
        return [[scalar_to_json(e) for e in r] for r in self.entries]

    def __repr__(self):
        return f"CMatrix({self.rows}x{self.cols}, {self.kind})"


# --------------------------------------------------------------------------
# row reduction and exact inverse
# --------------------------------------------------------------------------

def row_basis(vectors, exact: bool, tol: float = 1e-10) -> list:
    """Independent spanning rows of a list of vectors, by row reduction.

    Exact vectors are eliminated in input order without row exchanges: each
    row is reduced by the basis rows before it and kept if anything is left,
    with its first nonzero entry as its pivot.  Every basis row is
    zero at the pivots of the rows before it, and for a matrix whose leading
    principal minors D_k are nonzero, basis row k pivots at column k on
    D_k / D_(k-1).  Float vectors are ranked by singular values above
    ``max(s[0], 1) * tol`` and the leading right singular vectors returned.
    """
    if exact:
        basis = []
        reducers = []       # (pivot, nonzero (index, entry) pairs) per basis row
        for v in vectors:
            v = list(v)
            for piv, b_nz in reducers:
                if not v[piv].is_zero():
                    f = v[piv] / b_nz[0][1]
                    for i, y in b_nz:
                        v[i] = v[i] - f * y
            nz = [(i, c) for i, c in enumerate(v) if not c.is_zero()]
            if nz:
                basis.append(v)
                reducers.append((nz[0][0], nz))
        return basis
    arr = np.array([[complex(c) for c in v] for v in vectors], dtype=complex)
    if arr.size == 0:
        return []
    u, s, vh = np.linalg.svd(arr)
    rank = int(np.sum(s > max(s[0], 1.0) * tol)) if len(s) else 0
    return [list(vh[r]) for r in range(rank)]


def exact_rank(rows: Sequence[Sequence[ExactComplex]]) -> int:
    """Rank of a matrix of exact scalars: the length of its row basis."""
    return len(row_basis(rows, exact=True))


def exact_solve_identity(mat: List[List[ExactComplex]]) -> List[List[ExactComplex]]:
    """Inverse of a square exact matrix by Gauss-Jordan; raises on singular."""
    n = len(mat)
    a = [list(r) + [EC.one() if i == j else EC.zero() for j in range(n)]
         for i, r in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ShapeError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [e / p for e in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [e - f * g for e, g in zip(a[r], a[col])]
    return [row[n:] for row in a]


def hermitian_rank(B: CMatrix) -> int:
    """Rank of a hermitian matrix.

    Exact entries are row-reduced by ``row_basis``; float entries are ranked
    by counting eigenvalues above ``n * max|B| * 1e-12``.
    """
    if B.rows != B.cols:
        raise DimensionError("hermitian_rank needs a square matrix")
    if not B.is_hermitian(tol=1e-12):
        raise ShapeError("matrix is not hermitian")
    if B.kind == "exact":
        return exact_rank(B.entries)
    arr = B.to_numpy()
    ev = np.linalg.eigvalsh(arr)
    thresh = B.rows * max(B.max_abs(), 0.0) * 1e-12
    return int(np.sum(np.abs(ev) > thresh))


# --------------------------------------------------------------------------
# Takagi factorization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TakagiResult:
    """Unitary U and nonnegative d with conj(U) @ A @ conj(U).T = diag(d)."""
    U: CMatrix
    d: tuple

    def reconstruction_residual(self, A: CMatrix) -> float:
        u = self.U.to_numpy()
        a = A.to_numpy()
        lhs = u.conj() @ a @ u.conj().T
        return float(np.max(np.abs(lhs - np.diag(self.d))))


def takagi_factorize(A: CMatrix, tol: float = 1e-10) -> TakagiResult:
    """Takagi factorization of a complex symmetric matrix (float path).

    Uses the real symmetric embedding B = [[Re A, Im A], [Im A, -Re A]]:
    an eigenvector [x; y] of B with eigenvalue sigma > 0 yields u = x + i y
    with A conj(u) = sigma u, and the positive-eigenvalue vectors are
    automatically complex-orthonormal (multiplication by i maps them into
    the mirrored negative spectrum).  Null directions come from the complex
    SVD.  This stays backward-stable even for clustered singular values,
    where SVD-phase repairs break down.  Singular values are returned
    sorted descending.
    """
    if A.rows != A.cols:
        raise DimensionError("takagi_factorize needs a square matrix")
    a = A.to_numpy()
    if not np.all(np.isfinite(a)):
        raise NumericError("non-finite entries")
    if np.max(np.abs(a - a.T)) > max(tol, 1e-12) * max(1.0, np.max(np.abs(a))):
        raise ShapeError("matrix is not symmetric within tolerance")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    s = np.linalg.svd(a, compute_uv=False)
    scale = max(s[0], 1.0) if len(s) else 1.0
    zero_thresh = 1e-12 * scale
    rank = int(np.sum(s > zero_thresh))

    B = np.block([[a.real, a.imag], [a.imag, -a.real]])
    w, V = np.linalg.eigh(B)
    order = np.argsort(-w, kind="stable")[:rank]   # largest eigenvalues = sigma > 0
    cols = []
    d = []
    for idx in order:
        u = V[:n, idx] + 1j * V[n:, idx]
        cols.append(u)
        d.append(float(w[idx]))
    if rank < n:
        _, _, Vh = np.linalg.svd(a)
        for k in range(rank, n):
            # a conj(u) = 0 needs conj(u) in ker(a): u is a conjugated
            # null right-singular vector, i.e. a plain row of Vh
            cols.append(Vh[k])
            d.append(0.0)
    Q = np.column_stack(cols)
    if rank < n:
        # re-orthonormalize the null block against the positive block
        Qpos = Q[:, :rank]
        null = Q[:, rank:]
        null = null - Qpos @ (Qpos.conj().T @ null)
        null, _ = np.linalg.qr(null)
        Q = np.column_stack([Qpos, null])
    U = Q.T
    res = TakagiResult(CMatrix.from_rows(U), tuple(d))
    if res.reconstruction_residual(A) > tol or \
            np.max(np.abs(U @ U.conj().T - np.eye(n))) > tol:
        raise NumericError("Takagi residual exceeded tolerance")
    return res
