"""Frame normalization for balanced threefold torsion data.

Balanced torsion on a threefold can always be rotated into a *special frame*
where the only surviving components are the cyclic ones,

    T^1_{23} = a_1 >= T^2_{31} = a_2 >= T^3_{12} = a_3 >= 0,

by a Takagi factorization of the symmetric matrix A_{i alpha} = T^alpha_{jk}
((i j k) cyclic), followed by a diagonal phase fix and a sort.  When the
resulting triple is (a, a, 0) a further constant unitary produces the
*admissible frame* with T^1_{13} = -T^2_{23} = a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .linalg import CMatrix, DimensionError, takagi_factorize
from .scalars import EC, ExactComplex


class NotBalancedError(ValueError):
    """Special frames require vanishing Gauduchon 1-form."""


class FramePatternError(ValueError):
    """Torsion triple does not have the requested rank pattern."""


_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _as_array(T) -> np.ndarray:
    if isinstance(T, np.ndarray):
        return T.astype(complex)
    return np.array([[[complex(c) for c in row] for row in layer] for layer in T],
                    dtype=complex)


_LAW = "ia,jb,kc,abc->ijk"    # T'^i_{jk} = sum conj(P_ia) P_jb P_kc T^a_bc


def transform_torsion(T, P, tol: float = 1e-10):
    """Torsion under the frame change e'_i = sum_s P_{is} e_s (P unitary):

        T'^i_{jk} = sum conj(P_{i a}) P_{j b} P_{k c} T^a_{bc}.

    Exact T with an exact P runs on ExactComplex object arrays, needs P
    exactly unitary and returns nested lists.  Anything else runs on
    complex128, needs P unitary within ``tol`` and returns an ndarray.
    """
    arrT = np.asarray(T)
    arrP = np.asarray(P.entries if isinstance(P, CMatrix) else P)
    if arrT.dtype == arrP.dtype == object:
        if (arrP @ arrP.conj().T - np.identity(len(arrP), dtype=object)).any():
            raise ValueError("P must be exactly unitary")
        return np.einsum(_LAW, arrP.conj(), arrP, arrP, arrT).tolist()
    arrT, arrP = arrT.astype(complex), arrP.astype(complex)
    if np.max(np.abs(arrP @ arrP.conj().T - np.eye(len(arrP)))) > tol:
        raise ValueError("P must be unitary within tolerance")
    return np.einsum(_LAW, arrP.conj(), arrP, arrP, arrT)


def gauduchon_components(T) -> np.ndarray:
    """eta_i = sum_s T^s_{si} for a float torsion array."""
    arr = _as_array(T)
    return np.einsum('ssi->i', arr)


def torsion_to_cyclic(T) -> np.ndarray:
    """The triple (T^1_{23}, T^2_{31}, T^3_{12})."""
    arr = _as_array(T)
    return np.array([arr[i][j][k] for i, j, k in _CYCLES])


@dataclass(frozen=True)
class SpecialFrameResult:
    """Composite frame change U and the sorted torsion triple a."""
    U: CMatrix
    a: Tuple[float, float, float]


def _phase_fix(arr: np.ndarray) -> np.ndarray:
    """Diagonal unitary making the cyclic torsion entries real nonnegative.

    For current cyclic values a_i, the diagonal phases theta_i =
    (arg a_i - sum_j arg a_j)/2; zero entries keep phase 0 by convention.
    """
    cyc = torsion_to_cyclic(arr)
    scale = max(np.max(np.abs(cyc)), 1.0)
    args = np.array([np.angle(c) if abs(c) > 1e-14 * scale else 0.0 for c in cyc])
    theta = (args - np.sum(args)) / 2.0
    return np.diag(np.exp(1j * theta))


def build_special_frame(T, tol: float = 1e-9) -> SpecialFrameResult:
    """Rotate balanced threefold torsion into a special frame.

    The returned U is the composite unitary: feeding it to
    transform_torsion(T, U) produces torsion with T^i_{ij} = 0 and
    nonnegative sorted cyclic entries equal to ``a``.
    """
    arr = _as_array(T)
    if arr.shape != (3, 3, 3):
        raise DimensionError("special frames are a threefold construction")
    eta = gauduchon_components(arr)
    scale = max(np.max(np.abs(arr)), 1.0)
    if np.max(np.abs(eta)) > tol * scale:
        raise NotBalancedError(f"torsion is not balanced: |eta| = {np.max(np.abs(eta)):.3e}")

    # A_{i alpha} = T^alpha_{jk}, (i j k) cyclic; balancedness makes A symmetric
    A = np.zeros((3, 3), dtype=complex)
    for i, j, k in _CYCLES:
        for al in range(3):
            A[i, al] = arr[al][j][k]
    tk = takagi_factorize(CMatrix.from_rows(A), tol=max(tol, 1e-10))
    U1 = tk.U.to_numpy()
    cur = transform_torsion(arr, U1)

    U2 = _phase_fix(cur)
    cur = transform_torsion(cur, U2)

    cyc = torsion_to_cyclic(cur).real
    order = np.argsort(-cyc, kind="stable")
    P = np.zeros((3, 3))
    for new, old in enumerate(order):
        P[new, old] = 1.0
    cur = transform_torsion(cur, P)

    U4 = _phase_fix(cur)   # an odd permutation flips all cyclic signs
    cur = transform_torsion(cur, U4)

    U = U4 @ P @ U2 @ U1
    a = tuple(float(x) for x in torsion_to_cyclic(cur).real)
    # invariants of the special frame
    offpattern = cur.copy()
    for i, j, k in _CYCLES:
        offpattern[i][j][k] = 0.0
        offpattern[i][k][j] = 0.0
    if np.max(np.abs(offpattern)) > tol * scale or min(a) < -tol * scale \
            or not (a[0] >= a[1] - tol * scale >= a[2] - 2 * tol * scale):
        raise RuntimeError("special-frame normalization failed its invariants")
    return SpecialFrameResult(CMatrix.from_rows(U), a)


# constant change from special (a, a, 0) data to an admissible frame
_ADMISSIBLE_U = np.array([[1 / np.sqrt(2), 1j / np.sqrt(2), 0],
                          [1j / np.sqrt(2), 1 / np.sqrt(2), 0],
                          [0, 0, -1j]])


def special_to_admissible(a):
    """Admissible frame data from middle-type special torsion (a, a, 0).

    Returns (U, T') where U is the constant unitary frame change and T' the
    transformed torsion with only T'^1_{13} = a, T'^2_{23} = -a nonzero.
    The entries of U are irrational, so on exact inputs T' is produced in
    closed form (the cubic transformation law cancels the square roots).
    """
    a1, a2, a3 = a
    exact = isinstance(a1, (ExactComplex, Fraction, int)) and not isinstance(a1, bool)
    if exact:
        vals = [x if isinstance(x, ExactComplex) else EC(Fraction(x), 0) for x in (a1, a2, a3)]
        if not (vals[0] == vals[1] and not vals[0].is_zero() and vals[2].is_zero()
                and vals[0].im == 0 and vals[0].re > 0):
            raise FramePatternError("middle-type pattern needs a_1 = a_2 > 0 = a_3")
        av = vals[0]
        T = [[[EC.zero() for _ in range(3)] for _ in range(3)] for _ in range(3)]
        T[0][0][2] = av
        T[0][2][0] = -av
        T[1][1][2] = -av
        T[1][2][1] = av
        return CMatrix.from_rows(_ADMISSIBLE_U), T
    a1, a2, a3 = float(a1), float(a2), float(a3)
    scale = max(a1, 1.0)
    if not (abs(a1 - a2) <= 1e-9 * scale and a1 > 1e-9 * scale and abs(a3) <= 1e-9 * scale):
        raise FramePatternError("middle-type pattern needs a_1 = a_2 > 0 = a_3")
    T = np.zeros((3, 3, 3), dtype=complex)
    T[0][0][2] = a1
    T[0][2][0] = -a1
    T[1][1][2] = -a1
    T[1][2][1] = a1
    return CMatrix.from_rows(_ADMISSIBLE_U), T


def b_rank_type(a, tol: float = 1e-8) -> str:
    """Sort a sorted special triple into the rank trichotomy.

    kahler (0,0,0); rank3 a_1=a_2=a_3>0; rank2 a_1=a_2>a_3=0;
    rank1 a_1>a_2=a_3=0; anything else is a pattern the balanced
    parallel-torsion classification rules out, reported as
    ``excluded_by_classification`` without asserting a contradiction.
    """
    if all(isinstance(x, (ExactComplex, Fraction, int)) and not isinstance(x, bool) for x in a):
        vals = [Fraction(x.re) if isinstance(x, ExactComplex) else Fraction(x) for x in a]
        if sorted(vals, reverse=True) != vals or any(v < 0 for v in vals):
            raise FramePatternError("triple must be sorted descending and nonnegative")
        eq01, eq12 = vals[0] == vals[1], vals[1] == vals[2]
        z = [v == 0 for v in vals]
    else:
        vals = [float(x) for x in a]
        s = max(1.0, vals[0])
        z = [abs(v) <= tol * s for v in vals]
        snapped = [0.0 if zz else v for v, zz in zip(vals, z)]
        if any(v < 0 for v in snapped) or snapped[0] < snapped[1] - tol * s \
                or snapped[1] < snapped[2] - tol * s:
            raise FramePatternError("triple must be sorted descending and nonnegative")
        eq01 = abs(snapped[0] - snapped[1]) <= tol * s
        eq12 = abs(snapped[1] - snapped[2]) <= tol * s
    if all(z):
        return "kahler"
    if eq01 and eq12 and not z[2]:
        return "rank3"
    if eq01 and z[2] and not z[1]:
        return "rank2"
    if z[1] and z[2] and not z[0]:
        return "rank1"
    return "excluded_by_classification"
