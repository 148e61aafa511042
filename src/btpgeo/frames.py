"""Frame normalization for balanced threefold torsion data.

Balanced torsion on a threefold can always be rotated into a *special frame*
where the only surviving components are the cyclic ones,

    T^1_{23} = a_1 >= T^2_{31} = a_2 >= T^3_{12} = a_3 >= 0,

by a Takagi factorization of the symmetric matrix A_{i alpha} = T^alpha_{jk}
((i j k) cyclic), followed by a diagonal phase fix and a sort.  When the
resulting triple is (a, a, 0) a further constant unitary produces the
*admissible frame* with T^1_{13} = -T^2_{23} = a.

Dense n x n x n tables are built by ``dense`` from (j, i, k, c) entries, as
nested lists of their scalar kind; ``summed`` gives the nonzero cells of such
a table as entries in index order.  numpy is imported only by the routines
that work on arrays, so that ``lie`` builds its tables and matches its
torsion patterns (``diagonal_entries``) without it.
"""

from __future__ import annotations

from collections import namedtuple

from .linalg import DimensionError, takagi_factorize
from .scalars import Kind, common_kind


class NotBalancedError(ValueError):
    """Special frames require vanishing Gauduchon 1-form."""


class FramePatternError(ValueError):
    """Torsion triple does not have the requested rank pattern."""


_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _scalars(values):
    """The kind of values (TypeError if they mix) and the values as its scalars."""
    kind = common_kind(values)
    return kind, [kind.scalar(x) for x in values]


def dense(n: int, entries, kind: Kind) -> list:
    """Nested lists T[j][i][k]: the kind's zero plus the c of each
    (j, i, k, c) in entries."""
    T = [[[kind.zero] * n for _ in range(n)] for _ in range(n)]
    for j, i, k, c in entries:
        T[j][i][k] = T[j][i][k] + c
    return T


def summed(entries, kind: Kind) -> tuple:
    """The nonzero entries of ``dense(n, entries, kind)`` as (j, i, k, c), in
    index order: each c the kind's zero plus the c of its (j, i, k), summed
    in the order of entries."""
    acc = {}
    for j, i, k, c in entries:
        acc[j, i, k] = acc.get((j, i, k), kind.zero) + c
    return tuple((j, i, k, c) for (j, i, k), c in sorted(acc.items()) if c)


def antisymmetric(entries):
    """Each (j, i, k, c) of entries, then its mirror (j, k, i, -c)."""
    for j, i, k, c in entries:
        yield j, i, k, c
        yield j, k, i, -c


def diagonal_entries(n: int, a, signs):
    """The entries of T^i_{i n} = -T^i_{n i} = signs[i] a for the first
    len(signs) < n indices i.  Signs (1, -1) give the admissible middle-type
    torsion, all signs + the Vaisman-type one."""
    return antisymmetric((i, i, n - 1, s * a) for i, s in enumerate(signs))


def _array(T: list, kind: Kind) -> np.ndarray:
    import numpy as np
    return np.array(T, kind.dtype)


def cyclic_torsion(a) -> np.ndarray:
    """The special-frame torsion of a triple a: T^i_{jk} = -T^i_{kj} = a_i
    for (i j k) cyclic and zero elsewhere, as an array of a's kind."""
    kind, a = _scalars(a)
    return _array(dense(3, antisymmetric((*c, x) for c, x in zip(_CYCLES, a)), kind), kind)


def diagonal_torsion(n: int, a, signs) -> np.ndarray:
    """The torsion of ``diagonal_entries(n, a, signs)``, zero elsewhere, as
    an array of a's kind."""
    kind, (a,) = _scalars((a,))
    return _array(dense(n, diagonal_entries(n, a, signs), kind), kind)


_LAW = "ia,jb,kc,abc->ijk"    # T'^i_{jk} = sum conj(P_ia) P_jb P_kc T^a_bc

def transform_torsion(T, P) -> np.ndarray:
    """Torsion under the frame change e'_i = sum_s P_{is} e_s (P unitary):

        T'^i_{jk} = sum conj(P_{i a}) P_{j b} P_{k c} T^a_{bc}.

    Exact T with an exact P runs on ExactComplex object arrays and needs P
    exactly unitary.  Anything else runs on complex128 and needs P unitary
    within 1e-10.  Either way the result is an array of that kind.
    """
    import numpy as np
    arrT = np.asarray(T)
    arrP = np.asarray(P)
    if arrT.dtype == arrP.dtype == object:
        if (arrP @ arrP.conj().T - np.identity(len(arrP), dtype=object)).any():
            raise ValueError("P must be exactly unitary")
    else:
        arrT, arrP = arrT.astype(complex), arrP.astype(complex)
        if np.max(np.abs(arrP @ arrP.conj().T - np.eye(len(arrP)))) > 1e-10:
            raise ValueError("P must be unitary within tolerance")
    return np.einsum(_LAW, arrP.conj(), arrP, arrP, arrT)


def gauduchon_components(T) -> np.ndarray:
    """eta_i = sum_s T^s_{si} for a float torsion array."""
    import numpy as np
    return np.einsum('ssi->i', np.asarray(T, complex))


def torsion_to_cyclic(T) -> np.ndarray:
    """The triple (T^1_{23}, T^2_{31}, T^3_{12})."""
    import numpy as np
    arr = np.asarray(T, complex)
    return np.array([arr[i][j][k] for i, j, k in _CYCLES])


# composite frame change U (complex128, read-only) and the sorted torsion triple a
SpecialFrameResult = namedtuple("SpecialFrameResult", "U a")


def _phase_fix(arr: np.ndarray) -> np.ndarray:
    """Diagonal unitary making the cyclic torsion entries real nonnegative.

    For current cyclic values a_i, the diagonal phases theta_i =
    (arg a_i - sum_j arg a_j)/2; zero entries keep phase 0 by convention.
    """
    import numpy as np
    cyc = torsion_to_cyclic(arr)
    scale = max(np.max(np.abs(cyc)), 1.0)
    args = np.array([np.angle(c) if abs(c) > 1e-14 * scale else 0.0 for c in cyc])
    theta = (args - np.sum(args)) / 2.0
    return np.diag(np.exp(1j * theta))


def build_special_frame(T) -> SpecialFrameResult:
    """Rotate balanced threefold torsion into a special frame.

    The returned U is the composite unitary: feeding it to
    transform_torsion(T, U) produces torsion with T^i_{ij} = 0 and
    nonnegative sorted cyclic entries equal to ``a``.
    """
    import numpy as np
    arr = np.asarray(T, complex)
    if arr.shape != (3, 3, 3):
        raise DimensionError("special frames are a threefold construction")
    eta = gauduchon_components(arr)
    bound = 1e-9 * max(np.max(np.abs(arr)), 1.0)
    if np.max(np.abs(eta)) > bound:
        raise NotBalancedError(f"torsion is not balanced: |eta| = {np.max(np.abs(eta)):.3e}")

    # A_{i alpha} = T^alpha_{jk}, (i j k) cyclic; balancedness makes A symmetric
    A = np.array([arr[:, j, k] for _, j, k in _CYCLES])
    U1 = takagi_factorize(A, tol=1e-9).U
    cur = transform_torsion(arr, U1)

    U2 = _phase_fix(cur)
    cur = transform_torsion(cur, U2)

    # the permutation that sorts the cyclic entries in descending order
    P = np.identity(3)[np.argsort(-torsion_to_cyclic(cur).real, kind="stable")]
    cur = transform_torsion(cur, P)

    U4 = _phase_fix(cur)   # an odd permutation flips all cyclic signs
    cur = transform_torsion(cur, U4)

    U = U4 @ P @ U2 @ U1
    cyc = torsion_to_cyclic(cur)
    a = tuple(float(x) for x in cyc.real)
    # invariants of the special frame
    offpattern = cur - cyclic_torsion(cyc)
    if np.max(np.abs(offpattern)) > bound or min(a) < -bound \
            or not (a[0] >= a[1] - bound >= a[2] - 2 * bound):
        raise RuntimeError("special-frame normalization failed its invariants")
    U.flags.writeable = False
    return SpecialFrameResult(U, a)


def _admissible_u() -> np.ndarray:
    """The constant change from special (a, a, 0) data to an admissible
    frame, a new read-only array."""
    import numpy as np
    U = np.array([[1 / np.sqrt(2), 1j / np.sqrt(2), 0],
                  [1j / np.sqrt(2), 1 / np.sqrt(2), 0],
                  [0, 0, -1j]])
    U.flags.writeable = False
    return U


def special_to_admissible(a):
    """Admissible frame data from middle-type special torsion (a, a, 0).

    Returns (U, T') where U is the constant unitary frame change, a
    read-only complex128 array, and T' the transformed torsion with only
    T'^1_{13} = a, T'^2_{23} = -a nonzero, an array of a's kind.  The entries of U are irrational, so T' is produced
    in closed form (the cubic transformation law cancels the square roots).
    """
    kind, (a1, a2, a3) = _scalars(a)
    bound = 1e-9 * max(abs(a1), 1.0)
    if not (kind.negligible(a1 - a2, bound) and kind.negligible(a3, bound)
            and kind.negligible(a1.imag, bound) and a1.real > 0
            and not kind.negligible(a1, bound)):
        raise FramePatternError("middle-type pattern needs a_1 = a_2 > 0 = a_3")
    return _admissible_u(), diagonal_torsion(3, a1, (1, -1))


def b_rank_type(a) -> str:
    """Sort a sorted special triple into the rank trichotomy.

    kahler (0,0,0); rank3 a_1=a_2=a_3>0; rank2 a_1=a_2>a_3=0;
    rank1 a_1>a_2=a_3=0; anything else is a pattern the balanced
    parallel-torsion classification rules out, reported as
    ``excluded_by_classification`` without asserting a contradiction.
    Values and differences negligible within 1e-8 * max(1, a_1) are zero; a
    negative nonzero difference means the triple is out of order.
    """
    kind, vals = _scalars(a)
    vals = [v.real for v in vals]
    bound = 1e-8 * max(1, vals[0])
    z = [kind.negligible(v, bound) for v in vals]
    vals = [0 if zz else v for v, zz in zip(vals, z)]
    d01, d12 = vals[0] - vals[1], vals[1] - vals[2]
    eq01, eq12 = kind.negligible(d01, bound), kind.negligible(d12, bound)
    if any(v < 0 for v in vals) or (d01 < 0 and not eq01) or (d12 < 0 and not eq12):
        raise FramePatternError("triple must be sorted descending and nonnegative")
    if all(z):
        return "kahler"
    if eq01 and eq12 and not z[2]:
        return "rank3"
    if eq01 and z[2] and not z[1]:
        return "rank2"
    if z[1] and z[2] and not z[0]:
        return "rank1"
    return "excluded_by_classification"
