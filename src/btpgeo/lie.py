"""Hermitian Lie algebras: torsion, connections, curvature, classification.

A Hermitian Lie algebra is the ``CoframeContext`` of its structure
constants C^j_{ik} (bracket of (1,0) frame fields) and D^j_{ik} (mixed
brackets).  From these the module computes the Chern torsion and connection,
the Bismut connection theta^b = theta + gamma, curvature matrices Theta =
d theta - theta ^ theta, the sparse bracket table of the underlying real
algebra, and the predicate vector used to sort algebras into the flat /
rank-one / middle-type landscape.  Each table is plain data: T is nested
tuples of the algebra's scalar kind, a connection or curvature matrix n x n
nested tuples of invariant forms.  Each is built once per algebra, straight
from the nonzero structure constants (``C_entries`` and ``D_entries`` of the
coframe context) and the nonzero entries of T (``torsion_entries``): theta^b
is linear in them, the connection of D + T.
"""

from __future__ import annotations

from collections import namedtuple

from .forms import (CoframeContext, InvariantForm, _form, _wedge_terms,
                    d_squared_residual, dolbeault_split, exterior_d)
from .frames import antisymmetric, dense, diagonal_entries, summed
from .linalg import NumericError, hermitian_rank, row_basis
from .scalars import (EC, EXACT, FLOAT, Kind, SchemaError, all_finite, exact_rational,
                      exact_scalar, kind_of, memoized, scalar_from_json, scalar_to_json)


class IntegrabilityError(ValueError):
    """Structure constants that do not define a Lie algebra (d^2 != 0)."""


class SwapError(ValueError):
    """Invalid conjugation-swap request."""


class PatternError(ValueError):
    """Torsion does not match the pattern required by an operation."""


# The largest n an algebra JSON may give; the tables are dense n x n x n.
MAX_JSON_N = 16


def _all_negligible(kind: Kind, values) -> bool:
    """Whether every scalar in values is negligible in the given kind: the
    zero test of a form's coefficients, or of a torsion's entries."""
    return all(map(kind.negligible, values))


# --------------------------------------------------------------------------
# the algebra
# --------------------------------------------------------------------------

class HermitianLieAlgebra(CoframeContext):
    """The coframe context of dimension n, scalar kind and nonzero entries
    of C and D, with a label; validated on construction.

    The entries are those of ``CoframeContext``; ``from_json``, the
    built-ins and ``conjugate_swap`` give them by ``frames.summed``.
    ``C[j][i][k]`` holds C^j_{ik} (antisymmetric in i, k) and ``D[j][i][k]``
    holds D^j_{ik}; all 0-based.  Construction rejects non-integrable data
    unless validate is false: every d^2 phi_i must vanish (NumericError if a
    float one is not finite).  Derived tables are ``memoized`` on it.
    """

    __slots__ = ("label", "_memo")

    def __init__(self, n: int, kind: Kind, C_entries, D_entries, label: str = "",
                 validate: bool = True):
        super().__init__(n, kind, C_entries, D_entries)
        if validate:
            residuals = d_squared_residual(self)
            bad = [i for i, r in enumerate(residuals)
                   if not _all_negligible(self.kind, r.terms.values())]
            if bad:
                if not all_finite(c for r in residuals for c in r.terms.values()):
                    raise NumericError("non-finite d^2 residual")
                names = ", ".join(f"d^2 phi_{i+1}" for i in bad)
                raise IntegrabilityError(
                    f"structure constants are not integrable: {names} nonzero")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_memo", {})

    def __repr__(self):
        return f"HermitianLieAlgebra(n={self.n}, label={self.label!r})"

    # ---- JSON wire format (entries with i >= k rejected for C) ----------
    def to_json(self):
        def dump(entries, anti):
            return [{"j": j + 1, "i": i + 1, "k": k + 1, "coef": scalar_to_json(c)}
                    for j, i, k, c in entries if not (anti and i >= k)]
        return {"n": self.n, "C": dump(self.C_entries, True), "D": dump(self.D_entries, False),
                "label": self.label}

    @staticmethod
    def from_json(obj) -> "HermitianLieAlgebra":
        if not isinstance(obj, dict) or "n" not in obj:
            raise SchemaError("algebra JSON must be an object with an 'n' field")
        n = obj["n"]
        if type(n) is not int or not 1 <= n <= MAX_JSON_N:
            raise SchemaError(f"'n' must be an integer from 1 to {MAX_JSON_N}")
        c_in, d_in = obj.get("C", []), obj.get("D", [])
        if not (isinstance(c_in, list) and isinstance(d_in, list)):
            raise SchemaError("'C' and 'D' must be lists of entries")
        parsed = []
        for e in c_in + d_in:
            try:
                idx = (e["j"], e["i"], e["k"])
                c = scalar_from_json(e["coef"])
            except (KeyError, TypeError, SchemaError) as exc:
                raise SchemaError(f"bad structure-constant entry {e!r}: {exc}") from exc
            if not all(type(v) is int for v in idx):
                raise SchemaError(f"indices must be integers in {e!r}")
            j, i, k = (v - 1 for v in idx)
            if not all(0 <= v < n for v in (j, i, k)):
                raise SchemaError(f"index out of range in {e!r}")
            parsed.append((j, i, k, c))
        # one float coefficient makes the whole algebra float
        kind = FLOAT if any(kind_of(c) is FLOAT for *_, c in parsed) else EXACT
        ncr = len(c_in)
        for pos, (j, i, k, c) in enumerate(parsed):
            try:        # an exact constant of float data can lie past the float range
                parsed[pos] = j, i, k, kind.scalar(c)
            except OverflowError:
                raise SchemaError("a structure constant is beyond the float range") from None
            if pos < ncr and i >= k:
                raise SchemaError(f"C entry must have i < k (antisymmetry implied): "
                                  f"{c_in[pos]!r}")
        C, D = summed(antisymmetric(parsed[:ncr]), kind), summed(parsed[ncr:], kind)
        if not all_finite(c for *_, c in C + D):       # float sums can overflow
            raise SchemaError("a summed structure constant is not a finite number")
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise SchemaError("'label' must be a string")
        return HermitianLieAlgebra(n, kind, C, D, label=label)


# --------------------------------------------------------------------------
# built-in algebras
# --------------------------------------------------------------------------

def _algebra(label: str, C, D, n: int = 3) -> HermitianLieAlgebra:
    """The exact algebra with the given (j, i, k, c) entries of C and D,
    0-based; each C entry implies its mirror C^j_{ki} = -c."""
    return HermitianLieAlgebra(n, EXACT, summed(antisymmetric(C), EXACT), summed(D, EXACT),
                               label=label)


def abelian(n: int = 3) -> HermitianLieAlgebra:
    return _algebra(f"abelian{n}", (), (), n)


def nilmanifold_n3(a=1) -> HermitianLieAlgebra:
    """The balanced nilmanifold: d phi_3 = -a phi_{1 1b} + a phi_{2 2b}."""
    a = exact_scalar(a)     # D^1_{31} = a, D^2_{32} = -a
    return _algebra("n3", (), [(0, 2, 0, a), (1, 2, 1, -a)])


def family_a(s, t, a=1) -> HermitianLieAlgebra:
    """The first middle-type family, parameterized by real (s, t)."""
    s, t, a = exact_rational(s), exact_rational(t), exact_scalar(a)
    return _algebra(f"a_st(s={s},t={t},a={a.re})",
                    # C^1_{13} = -i s, C^2_{23} = -i t
                    [(0, 0, 2, EC(0, -s)), (1, 1, 2, EC(0, -t))],
                    # D^1_{13} = i s, D^2_{23} = i t, D^1_{31} = a, D^2_{32} = -a
                    [(0, 0, 2, EC(0, s)), (1, 1, 2, EC(0, t)), (0, 2, 0, a),
                     (1, 2, 1, -a)])


def family_b(z, t, a=1) -> HermitianLieAlgebra:
    """The second middle-type family, parameterized by complex z and real t."""
    z, t, a = exact_scalar(z), exact_rational(t), exact_scalar(a)
    return _algebra(f"b_zt(z={z!r},t={t},a={a.re})",
                    [(1, 0, 1, z), (1, 1, 2, EC(0, -t))],   # C^2_{12} = z, C^2_{23} = -i t
                    # D^2_{21} = z, D^2_{23} = i t, D^1_{31} = a, D^2_{32} = -a
                    [(1, 1, 0, z), (1, 1, 2, EC(0, t)), (0, 2, 0, a), (1, 2, 1, -a)])


def sl2c(a=1) -> HermitianLieAlgebra:
    """The simple complex Lie algebra with cyclic brackets [e_i, e_j] = -a e_k."""
    a = exact_scalar(a)
    return _algebra(f"sl2c(a={a.re})",
                    [(k, i, j, -a) for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))], ())


def vaisman_nilmanifold(a=1) -> HermitianLieAlgebra:
    """Companion nilmanifold: d phi_3 = -a (phi_{1 1b} + phi_{2 2b})."""
    a = exact_scalar(a)     # D^1_{31} = D^2_{32} = a
    return _algebra("vaisman54", (), [(0, 2, 0, a), (1, 2, 1, a)])


# --------------------------------------------------------------------------
# torsion and connections
# --------------------------------------------------------------------------

@memoized
def torsion_entries(g: HermitianLieAlgebra):
    """The nonzero entries (j, i, k, T^j_{ik}) of g's Chern torsion, in index
    order, with T^j_{ik} = -C^j_{ik} - D^j_{ik} + D^j_{ki} for i < k and
    T^j_{ki} = -T^j_{ik}: only the pairs where C or D has an entry are read."""
    C, D = g.C, g.D
    out = []
    for j, i, k in {(j, min(i, k), max(i, k)) for j, i, k, _ in g.C_entries + g.D_entries
                    if i != k}:
        v = -C[j][i][k] - D[j][i][k] + D[j][k][i]
        if v:
            out += [(j, i, k, v), (j, k, i, -v)]
    return tuple(sorted(out))


@memoized
def chern_torsion(g: HermitianLieAlgebra):
    """T^j_{ik} as nested tuples of g's kind, antisymmetric in (i, k) as C
    is, built from ``torsion_entries``."""
    return tuple(tuple(map(tuple, layer)) for layer in dense(g.n, torsion_entries(g), g.kind))


def _connection_from(g: HermitianLieAlgebra, *tensors):
    """theta_{ij} = sum_k ( X^j_{ik} phi_k - conj(X^i_{jk}) phibar_k ) summed
    over the given tensors X, each the nonzero entries (j, i, k, X^j_{ik}) of
    a tensor of g's kind, as n x n nested tuples of invariant 1-forms,
    skew-hermitian: theta_{ij} = -conj(theta_{ji}).  Each entry is one dict
    of masks, summed in the order of the tensors and, within one, of k, the
    phi_k term before the phibar_k term, so that float sums and the order of
    each form's terms do not depend on how the entries are listed."""
    n = g.n
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for t, X in enumerate(tensors):
        for j, i, k, x in X:
            terms[i][j].append((t, k, 0, x))                 # in theta_{ij}
            terms[j][i].append((t, k, 1, -x.conjugate()))    # in theta_{ji}

    def entry(ts):
        acc = {}
        for _, k, bar, v in sorted(ts):
            m = 1 << (bar * n + k)
            acc[m] = acc[m] + v if m in acc else v
        return _form(n, acc, g.kind)
    return tuple(tuple(map(entry, row)) for row in terms)


@memoized
def chern_connection(g: HermitianLieAlgebra):
    """theta_{ij} = sum_k ( D^j_{ik} phi_k - conj(D^i_{jk}) phibar_k )."""
    return _connection_from(g, g.D_entries)


@memoized
def bismut_connection(g: HermitianLieAlgebra):
    """theta^b = theta + gamma, the connection of D + T."""
    return _connection_from(g, g.D_entries, torsion_entries(g))


def trace(theta) -> InvariantForm:
    """The sum of the diagonal entries of an n x n matrix of forms."""
    n = len(theta)
    return sum((theta[i][i] for i in range(n)), InvariantForm.zero(n, theta[0][0].kind))


def _curvature_entry(ctx: CoframeContext, theta, i: int, j: int):
    """Theta_{ij} = d theta_{ij} - sum_k theta_{ik} ^ theta_{kj}, in one map
    of coefficients: d theta_{ij} first, then each wedge, summed by the
    kernel of ``InvariantForm.wedge`` and subtracted term by term, a
    coefficient that cancels dropped at once, as a difference of forms would."""
    f = exterior_d(ctx, theta[i][j])
    acc = dict(f.terms)
    for k in range(len(theta)):
        for m, c in _wedge_terms(theta[i][k].terms, theta[k][j].terms).items():
            if not c:
                continue
            if m not in acc:
                acc[m] = -c
            elif v := acc[m] - c:
                acc[m] = v
            else:
                del acc[m]
    return _form(f.n, acc, f.kind)


def curvature_of(ctx: CoframeContext, theta):
    """Theta = d theta - theta ^ theta, entrywise, as n x n nested tuples of
    invariant 2-forms."""
    n = len(theta)
    return tuple(tuple(_curvature_entry(ctx, theta, i, j) for j in range(n))
                 for i in range(n))


def chern_curvature(g: HermitianLieAlgebra):
    return curvature_of(g, chern_connection(g))


def bismut_curvature(g: HermitianLieAlgebra):
    return curvature_of(g, bismut_connection(g))


# --------------------------------------------------------------------------
# scalar invariants and predicates
# --------------------------------------------------------------------------

def b_tensor(g: HermitianLieAlgebra):
    """B_{i jbar} = sum_{r,s} T^j_{rs} conj(T^i_{rs}) of g's torsion, (r, s)
    running over the entries of T^j; hermitian nonnegative, rows (nested
    tuples) of g's kind."""
    rows = [{} for _ in range(g.n)]
    for j, r, s, c in torsion_entries(g):
        rows[j][r, s] = c
    conj = [{rs: c.conjugate() for rs, c in row.items()} for row in rows]
    return tuple(tuple(sum((c * ci[rs] for rs, c in tj.items() if rs in ci), g.kind.zero)
                       for tj in rows) for ci in conj)


def gauduchon_eta(g: HermitianLieAlgebra) -> InvariantForm:
    """eta = sum_i ( sum_s T^s_{si} ) phi_i of g's torsion; balanced <=> eta = 0."""
    eta = {}
    for s, r, i, c in torsion_entries(g):
        if s == r:
            eta[1 << i] = eta.get(1 << i, g.kind.zero) + c
    return _form(g.n, eta, g.kind)


def _btp_residuals_from(X, tb):
    """The residual 1-forms of the parallel-torsion identity with i < k.

    For constant torsion, theta^b-parallelism reads
    0 = R_{ijk} = sum_r ( T^j_{rk} theta^b_{ir} + T^j_{ir} theta^b_{kr}
                          - T^r_{ik} theta^b_{rj} )
    for all (i, j, k).  T is antisymmetric in its lower indices, so
    R_{kji} = -R_{ijk} and R_{iji} = 0, and the R_{ijk} with i < k decide
    the rest.  They are returned as a map keyed (i, j, k), for torsion X,
    its nonzero entries (j, i, k, c), and connection tb, nested tuples, each
    summed into one dict of coefficients, entry by entry of X."""
    n, kind = len(tb), tb[0][0].kind
    half = {(i, j, k): {} for i in range(n) for k in range(i + 1, n) for j in range(n)}

    def add(key, c, f):
        acc = half[key]
        for m, v in f.terms.items():
            v = v * c
            acc[m] = acc[m] + v if m in acc else v
    for a, b, c, x in X:
        for i in range(c):              # T^a_{bc} theta^b_{ib} in R_{iac}
            add((i, a, c), x, tb[i][b])
        for k in range(b + 1, n):       # T^a_{bc} theta^b_{kc} in R_{bak}
            add((b, a, k), x, tb[k][c])
        if b < c:                       # -T^a_{bc} theta^b_{aj} in R_{bjc}
            for j in range(n):
                add((b, j, c), -x, tb[a][j])
    return {key: _form(n, acc, kind) for key, acc in half.items()}


def check_unimodular(g: HermitianLieAlgebra) -> bool:
    """sum_k ( C^k_{ki} + D^k_{ki} ) = 0 for every i, each sum taken over k
    with C^k_{ki} before D^k_{ki}."""
    traces = sorted((i, k, t, c) for t, X in enumerate((g.C_entries, g.D_entries))
                    for k, kk, i, c in X if k == kk)
    sums = {}
    for i, _, _, c in traces:
        sums[i] = sums.get(i, g.kind.zero) + c
    return _all_negligible(g.kind, sums.values())


def _diagonal_torsion_constant(g: HermitianLieAlgebra, signs):
    """a = T^1_{1n} of g's torsion if T has exactly the entries of
    ``frames.diagonal_entries(n, a, signs)``, by g's zero test, else None;
    read over the entries of T and of the pattern."""
    zero = g.kind.zero
    have = {(j, i, k): c for j, i, k, c in torsion_entries(g)}
    a = have.get((0, 0, g.n - 1), zero)
    want = {(j, i, k): c for j, i, k, c in diagonal_entries(g.n, a, signs)}
    matches = _all_negligible(g.kind, (have.get(key, zero) - want.get(key, zero)
                                       for key in have.keys() | want.keys()))
    return a if matches else None


def vaisman_torsion_pattern(g: HermitianLieAlgebra):
    """Detect the pattern T^i_{i n} = a > 0 for all i < n, everything else 0,
    in g's torsion.

    Returns (matches, a).  This is the torsion shape of the non-balanced
    companion structures; the library reports the pattern only.
    """
    kind = g.kind
    a = _diagonal_torsion_constant(g, (1,) * (g.n - 1))
    if a is None:
        return False, None
    # a is real and positive beyond the zero test
    positive = kind.negligible(a.imag) and not kind.negligible(a.real) and a.real > 0
    return (positive, a if positive else None)


# --------------------------------------------------------------------------
# real 2n-dimensional bracket, solvability, conjugation swaps
# --------------------------------------------------------------------------

@memoized
def real_bracket_table(g: HermitianLieAlgebra):
    """Brackets of the basis (b_1..b_2n) = (e_1..e_n, ebar_1..ebar_n), sparse.

    table[x][y] holds the nonzero (m, c), m increasing, of [b_x, b_y] =
    sum c b_m, read off the nonzero C and D: [e_i, e_k] = sum_j C^j_{ik} e_j,
    [e_i, ebar_k] = sum_j conj(D^i_{jk}) e_j - D^k_{ji} ebar_j, and their
    conjugates; antisymmetric by construction.  Complexifying the real
    algebra leaves nilpotency and solvability steps unchanged.
    """
    n, dim = g.n, 2 * g.n
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for j, i, k, c in g.C_entries:
        table[i][k][j] = c
        table[n + i][n + k][n + j] = c.conjugate()
    for j, i, k, c in g.D_entries:      # in [e_j, ebar_k] and [e_k, ebar_j]
        table[j][n + k][i] = c.conjugate()
        table[k][n + j][n + i] = -c
    for x in range(n):
        for y in range(n, dim):
            table[y][x] = {m: -c for m, c in table[x][y].items()}
    return tuple(tuple(tuple(sorted(w.items())) for w in row) for row in table)


def solvability_profile(g: HermitianLieAlgebra):
    """(nilpotent_steps, solvable_steps) of the underlying real Lie algebra.

    Steps count the nonzero terms of the lower central / derived series;
    ``None`` marks a series that stabilizes without reaching zero, or a
    float series that has not ended within dim terms.  Both start at
    [g, g], spanned by the nonzero cells [b_x, b_y], x < y, of the sparse
    bracket table.  The lower central term after W is spanned by the
    [b_x, w] for w in a basis of W; the derived term by the [u, v] for basis
    pairs u before v only, since [u, v] = -[v, u] and [u, u] = 0.  Each
    spanning vector is a map {column: scalar} summed from the table's
    (m, c) pairs and reduced as such by ``row_basis``.  Each term lies in
    the one before, so its spanning vectors are generated one at a time and
    the exact reduction stops at the rank of the term before: reaching it
    means the series has stabilized.
    """
    table = real_bracket_table(g)
    dim = len(table)
    kind = g.kind
    zero = kind.zero

    def combination(terms):
        """sum of c [b_x, b_y] over the (c, x, y) in terms"""
        w = {}
        for c, x, y in terms:
            for m, tm in table[x][y]:
                w[m] = w.get(m, zero) + c * tm
        return w

    def lower_central(basis):
        return (combination((wy, x, y) for y, wy in w.items()) for x in range(dim) for w in basis)

    def derived(basis):
        return (combination((ux * vy, x, y) for x, ux in u.items() for y, vy in v.items()
                            if table[x][y])
                for i, u in enumerate(basis) for v in basis[i + 1:])

    first = row_basis((w for x, row in enumerate(table) for w in row[x + 1:] if w), kind, dim)

    def series(next_term):
        # an exact term is smaller than the one before, so the series ends
        # within dim terms; a float one that has not ended by then never will
        size, cur = dim, first
        for steps in range(1, dim + 1):
            if not cur:
                return steps
            if len(cur) == size:
                return None     # stabilized above zero
            size, cur = len(cur), row_basis(next_term(cur), kind, len(cur))
        return None

    return series(lower_central), series(derived)


def conjugate_swap(g: HermitianLieAlgebra, S) -> HermitianLieAlgebra:
    """The Hermitian Lie algebra of the frame eps_i = ebar_i (i in S), e_i else.

    The last index n is the distinguished direction and may not be swapped.
    Raises SwapError when the swapped frame does not span a complex
    subalgebra (the flipped structure is not integrable).
    """
    n = g.n
    S = set(int(s) for s in S)
    if (n - 1) in S:
        raise SwapError("the distinguished last index cannot be swapped")
    if any(not 0 <= s < n for s in S):
        raise SwapError("swap indices out of range")
    table = real_bracket_table(g)

    def eps(i):
        return i + n if i in S else i

    def epsbar(i):
        return i if i in S else i + n

    C, D = [], []
    for i in range(n):
        for k in range(n):
            for m, c in table[eps(i)][eps(k)]:
                if m != eps(m % n):
                    raise SwapError(
                        f"swap {sorted(x+1 for x in S)} is not integrable: "
                        f"[eps_{i+1}, eps_{k+1}] leaves the (1,0) span")
                C.append((m % n, i, k, c))
    for j in range(n):
        for k in range(n):
            # D^j_{ik} = psibar_i([epsbar_j, eps_k])
            for m, c in table[epsbar(j)][eps(k)]:
                if m == epsbar(m % n):
                    D.append((j, m % n, k, c))
    return HermitianLieAlgebra(n, g.kind, summed(C, g.kind), summed(D, g.kind),
                               label=f"{g.label}~swap{sorted(x + 1 for x in S)}")


def bismut_swap_equal(g: HermitianLieAlgebra, swapped: HermitianLieAlgebra, S) -> bool:
    """Check that the swap leaves the Bismut connection unchanged, given
    ``swapped = conjugate_swap(g, S)``.

    Matrix entries of the swapped connection, pulled back along the coframe
    relabeling, must agree blockwise with the original (conjugated on the
    swapped block, vanishing on mixed blocks).
    """
    S = set(int(s) for s in S)
    tb = bismut_connection(g)
    tbh = bismut_connection(swapped)

    def must_vanish():      # lazily, so the test stops at the first failure
        for i in range(g.n):
            for j in range(g.n):
                mapped = tbh[i][j].swap_indices(S)
                if (i in S) == (j in S):
                    yield mapped - (tb[i][j].conj() if i in S else tb[i][j])
                else:
                    yield mapped
                    yield tb[i][j]
    return _all_negligible(g.kind, (c for f in must_vanish() for c in f.terms.values()))


def pluriclosed_obstruction(g: HermitianLieAlgebra) -> InvariantForm:
    """del delbar of phi_{n nbar} for a middle-type admissible torsion.

    The phi_{1 1b} ^ phi_{2 2b} coefficient equals 2 a^2 for torsion
    constant a.  A zero torsion is vacuously allowed and returns 0; any
    other pattern raises PatternError.
    """
    torsion_free = _all_negligible(g.kind, (c for *_, c in torsion_entries(g)))
    if not torsion_free:
        if g.n != 3:
            raise PatternError("middle-type obstruction needs n = 3")
        a = _diagonal_torsion_constant(g, (1, -1))
        if a is None or g.kind.negligible(a):
            raise PatternError("torsion is not in the admissible middle-type pattern")
    Phi = InvariantForm.monomial(g.n, (g.n - 1,), (g.n - 1,), g.kind.one)
    split = dolbeault_split(g, Phi)
    ddbar = exterior_d(g, split.delbar_part).bidegree_part(2, 2)
    return ddbar


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

class ClassificationReport(namedtuple(
        "ClassificationReport", "label n balanced btp unimodular cyt calabi_yau_type b_rank "
        "nilpotent_steps solvable_steps eta bismut_ricci chern_ricci type_label vaisman_pattern")):
    """The predicates of ``classify``; the step counts are None where the
    series does not reach 0, and eta and the two Ricci forms are invariant forms."""
    __slots__ = ()

    def to_json(self):
        return {k: v.to_json() if isinstance(v, InvariantForm) else v
                for k, v in zip(self._fields, self)}


def classify(g: HermitianLieAlgebra) -> ClassificationReport:
    """Run every predicate and aggregate the type label.

    Labels: chern_flat when the Chern curvature vanishes; middle when
    balanced + parallel torsion + B-rank 2; non_balanced when eta != 0;
    fano_pattern when balanced + parallel torsion + B-rank 1; other
    otherwise.  Each predicate is computed from the least that decides it:
    [g, g] is read from the bracket table; tr Theta^b = d(tr theta^b), as
    tr(theta ^ theta) = 0; only the parallel-torsion residuals R_{ijk} with
    i < k are summed, as R_{kji} = -R_{ijk}; and the Chern curvature is built
    one entry at a time, the diagonal first (its sum is the Chern Ricci
    form), the rest only while every entry so far vanishes.
    """
    n = g.n

    def vanishes(f):
        return _all_negligible(g.kind, f.terms.values())

    eta = gauduchon_eta(g)
    balanced = vanishes(eta)
    theta = chern_connection(g)
    theta_b = bismut_connection(g)
    btp = all(map(vanishes, _btp_residuals_from(torsion_entries(g), theta_b).values()))
    unimod = check_unimodular(g)
    b_rank = hermitian_rank(b_tensor(g), g.kind)
    diagonal = [_curvature_entry(g, theta, i, i) for i in range(n)]
    chern_flat = (all(map(vanishes, diagonal))
                  and all(vanishes(_curvature_entry(g, theta, i, j))
                          for i in range(n) for j in range(n) if i != j))
    bismut_trace = exterior_d(g, trace(theta_b))
    cyt = vanishes(bismut_trace)
    cy_type = vanishes(trace(theta))
    nil_steps, solv_steps = solvability_profile(g)
    chern_ricci = sum(diagonal, InvariantForm.zero(n, g.kind)).scale(g.kind.i)
    bismut_ricci = bismut_trace.scale(g.kind.i)
    vpat, _ = vaisman_torsion_pattern(g)

    if chern_flat:
        type_label = "chern_flat"
    elif balanced and btp and b_rank == 2:
        type_label = "middle"
    elif not balanced:
        type_label = "non_balanced"
    elif balanced and btp and b_rank == 1:
        type_label = "fano_pattern"
    else:
        type_label = "other"

    return ClassificationReport(
        label=g.label, n=g.n, balanced=balanced, btp=btp, unimodular=unimod,
        cyt=cyt, calabi_yau_type=cy_type, b_rank=b_rank,
        nilpotent_steps=nil_steps, solvable_steps=solv_steps, eta=eta,
        bismut_ricci=bismut_ricci, chern_ricci=chern_ricci,
        type_label=type_label, vaisman_pattern=vpat)
