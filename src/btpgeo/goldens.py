"""Golden-value suites for the built-in examples.

This module is the single source for the verified constants: the curvature
tables of the flag threefold, the family patterns of the middle-type Lie
algebras, and the special-frame data of the rank-three case.  Each check
carries a descriptive ``ref`` string naming the identity it pins down.

The flag-threefold suite imports ``charts`` where it runs.  It reads each
exact table as the map {index tuple: nonzero ExactComplex} the metric holds
and compares it with the golden nonzero entries, so it runs without numpy
unless ``--seed`` asks for its float sectional sample.  The Lie-side suites
read C, D and T as the maps their algebra holds.  The sl2c suite imports
numpy; the other suites are exact and run without it.  The sl2c suite reads
its torsion map as an array by ``frames.dense``, scrambles its special frame
by ten seeded random unitaries and recovers the triple (1, 1, 1) from all ten
as one stack: one QR of the ten unitaries, one transform and one
``frames.build_special_frame``.

One check is expected to stay red: the Einstein constant of the flag-
threefold metric.  The claimed value 3 is kept as the golden entry, but the
exact curvature table shipped alongside it forces the constant 5/2 (the
trace of the verified sectional values), so ``verify wallach`` reports this
check as failed instead of silently adjusting either number.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

from . import frames, lie
from .forms import InvariantForm
from .scalars import EC, FLOAT

# ---- shared constants ------------------------------------------------------

WALLACH_CHERN_DIAG = Fraction(2)          # R^c_{i ibar i ibar}
WALLACH_RIEM_DIAG = Fraction(2)           # R_{i ibar i ibar}
WALLACH_A_12 = Fraction(3, 4)             # R_{1 1b 2 2b} = R_{3 3b 2 2b}
WALLACH_A_13 = Fraction(-3, 4)            # R_{1 1b 3 3b}
WALLACH_B_12 = Fraction(1, 2)             # R_{1 2b 2 1b} = R_{3 2b 2 3b}
WALLACH_B_13 = Fraction(-1, 4)            # R_{1 3b 3 1b}
RICCI_CLAIMED = Fraction(3)               # golden Einstein constant as stated
RICCI_COMPUTED = Fraction(5, 2)           # trace of the verified table
TWO_B_MINUS_A = Fraction(1, 4)
A_ST_SAMPLES = ((1, -1), (Fraction(1, 2), Fraction(1, 3)), (2, -2))   # family_a (s, t)


class CheckResult(namedtuple("CheckResult", "name ref passed detail", defaults=("",))):
    __slots__ = ()

    def to_json(self):
        return self._asdict()


def _chk(out: List[CheckResult], name: str, ref: str, cond: bool, detail: str = ""):
    out.append(CheckResult(name, ref, bool(cond), detail))


# ---- expected Wallach tables ------------------------------------------------

def expected_wallach_rc(k, l, i, j) -> Fraction:
    """R^c_{k lbar i jbar} of the flag metric at the origin (0-based)."""
    if {k, i} != {l, j}:
        return Fraction(0)
    if k == l == i == j:
        return WALLACH_CHERN_DIAG
    if k == l and i == j:           # R^c_{a abar b bbar}
        return Fraction(1) if k == 1 else Fraction(0)
    if k == j and l == i:           # R^c_{a bbar b abar}
        return Fraction(-1) if {k, i} == {0, 2} else Fraction(1)
    return Fraction(0)


def expected_wallach_r11(k, l, i, j) -> Fraction:
    """Levi-Civita R_{k lbar i jbar} of the flag metric (0-based)."""
    if {k, i} != {l, j}:
        return Fraction(0)
    if k == l == i == j:
        return WALLACH_RIEM_DIAG
    if k == l and i == j:
        return WALLACH_A_13 if {k, i} == {0, 2} else WALLACH_A_12
    if k == j and l == i:
        return WALLACH_B_13 if {k, i} == {0, 2} else WALLACH_B_12
    return Fraction(0)


def _frac(c: EC) -> Fraction:
    if c.im != 0:
        raise ArithmeticError("expected a real exact value")
    return c.re


@cache
def _nonzero(expected) -> dict:
    """The nonzero entries {(k, l, i, j): value} of a golden table."""
    return {ix: v for ix in product(range(3), repeat=4) if (v := expected(*ix))}


def _table_check(out, name: str, ref: str, symbol: str, got, expected):
    """Compare a table's map of nonzero entries with the nonzero entries of
    expected(*index); the detail names the last entry that differs, in index
    order."""
    want = _nonzero(expected)
    bad = sorted(ix for ix in got.keys() | want.keys()
                 if got.get(ix, EC.zero()) != want.get(ix, 0))
    detail = ""
    if bad:
        ix = bad[-1]
        detail = (f"{symbol}{''.join(f'[{v + 1}]' for v in ix)} = "
                  f"{got.get(ix, EC.zero())!r}, want {want.get(ix, Fraction(0))}")
    _chk(out, name, ref, not bad, detail)


# ---- suites ------------------------------------------------------------------

def wallach_suite(seed: Optional[int] = None) -> List[CheckResult]:
    from . import charts, tensor
    out: List[CheckResult] = []
    m = charts.wallach_metric()
    n = 3
    delta = {(i, i): EC.one() for i in range(n)}

    _chk(out, "metric.base", "unitary chart frame at the base point",
         m.G == delta and m.dg == {(2, 1, 0): 1},
         "g(0)=I, single nonzero first derivative g_{3 2b,1}=1")

    _chk(out, "metric.pure_second", "pure holomorphic second derivatives vanish", not m.hh)

    T = charts.chern_torsion_at(m)
    _chk(out, "torsion.values", "torsion reduces to T^2_{13} = 1",
         T == {(1, 0, 2): 1, (1, 2, 0): -1})
    _chk(out, "torsion.balanced", "trace 1-form of the torsion vanishes",
         not tensor.ein("jsi,js->i", T, delta))

    _table_check(out, "chern.curvature_table", "full Chern curvature table at the origin",
                 "Rc", charts.chern_curvature_at(m), expected_wallach_rc)

    ric1, ric2, ric3 = charts.ricci_forms_at(m)
    omega_tilde = (1, 2, 1)
    _chk(out, "chern.ricci_1_3", "first and third Ricci equal twice the Kaehler-Einstein form",
         ric1 == {(i, i): 2 * w for i, w in enumerate(omega_tilde)} and ric3 == ric1)
    _chk(out, "chern.ricci_2", "second Ricci equals 4*metric - Kaehler-Einstein form",
         ric2 == {(i, i): 4 - w for i, w in enumerate(omega_tilde)})

    _chk(out, "btp.residuals", "parallel-torsion residuals vanish exactly",
         not any(charts.btp_residual_at(m)))

    r11, r20 = charts.riemannian_curvature_at(m)
    _table_check(out, "riemann.table", "Levi-Civita (1,1) table (3/4, 1/2, -1/4, diagonal 2)",
                 "R", r11, expected_wallach_r11)
    _chk(out, "riemann.type20", "(2,0)-type components vanish", not r20)

    relok = True
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            a = _frac(r11.get((i, i, k, k), EC.zero()))
            b = _frac(r11.get((i, k, k, i), EC.zero()))
            pair13 = {i, k} == {0, 2}
            relok &= (2 * b - a == TWO_B_MINUS_A)
            relok &= (2 * a - b == (Fraction(-5, 4) if pair13 else Fraction(1)))
            relok &= (a + b == (Fraction(-1) if pair13 else Fraction(5, 4)))
    _chk(out, "riemann.pair_relations", "2b-a = 1/4 and companions for all index pairs", relok)

    flat = charts.sectional_numerator(m, (EC(1), EC(1), EC(1)),
                                      (EC(0, 1), EC(0, -1), EC(0, 1)))
    _chk(out, "sectional.flat_plane", "witness plane with zero sectional curvature",
         flat == 0, f"value {flat}")

    base = charts.sectional_numerator(m, (1, 0, 0), (0, 1, 0))
    _chk(out, "sectional.base_plane", "R(x,y,y,x) = 1/2 for the first two frame directions",
         base == Fraction(1, 2), f"value {base}")

    frame = [[u if k == i else EC.zero() for k in range(n)]
             for i in range(n) for u in (EC.one(), -EC.one(), EC.i(), -EC.i())]
    ricci = charts.ricci_curvature(m, frame)
    frame_vals = set(ricci)
    _chk(out, "ricci.constant", "Ricci curvature is constant over the frame directions",
         len(frame_vals) == 1, f"values {sorted(frame_vals)}")

    # a second route, in Fractions, from the verified table: with r20 = 0 the
    # Ricci curvature of e_a is (2 sum r11[a,l,i,a] g^{lbar i}
    # - sum r11[a,a,i,j] g^{jbar i}) / g_{a abar}
    R = {ix: _frac(c) for ix, c in r11.items()}
    ginv = {ix: _frac(c) for ix, c in m.Ginv.items()}
    traced = [(2 * sum(R.get((a, l, i, a), 0) * g for (l, i), g in ginv.items())
               - sum(R.get((a, a, i, j), 0) * g for (j, i), g in ginv.items()))
              / _frac(m.G[a, a]) for a in range(n)]
    _chk(out, "ricci.from_table",
         "frame Ricci curvature equals the G^-1 trace of the verified Levi-Civita table",
         not r20 and all(v == traced[k // 4] for k, v in enumerate(ricci)),
         f"trace along e_1, e_2, e_3: {', '.join(map(str, traced))}")
    val = frame_vals.pop() if len(frame_vals) == 1 else None
    _chk(out, "ricci.einstein_constant",
         f"Einstein constant equals the golden value {RICCI_CLAIMED}",
         val == RICCI_CLAIMED,
         f"computed {val}; the verified curvature table forces {RICCI_COMPUTED}")

    if seed is not None:
        import numpy as np
        rng = np.random.default_rng(seed)
        mf = charts.wallach_metric(kind=FLOAT)
        worst = float("inf")
        for X, Y in charts.random_planes(rng, 2000, mf.n):
            worst = min(worst, float(charts.sectional_numerator(mf, X, Y).min()))
        _chk(out, "sectional.nonnegative_sample",
             "sampled sectional numerators are nonnegative", worst >= -1e-12,
             f"min {worst:.3e}")
    return out


def sl2c_suite(seed: int = 0) -> List[CheckResult]:
    import numpy as np
    out: List[CheckResult] = []
    g = lie.sl2c(1)
    rep = lie.classify(g)
    _chk(out, "classify.flat", "rank-three algebras are Chern flat",
         rep.type_label == "chern_flat" and rep.balanced and rep.btp)
    _chk(out, "solvability", "sl(2, C) is simple: neither nilpotent nor solvable",
         rep.nilpotent_steps is None and rep.solvable_steps is None)
    B = lie.b_tensor(g)
    _chk(out, "b_tensor", "B = 2*identity with rank 3",
         B == ((2, 0, 0), (0, 2, 0), (0, 0, 2)) and rep.b_rank == 3)
    _chk(out, "canonical.trivial", "tr theta = 0 (invariant trivializing form)",
         lie.trace(lie.chern_connection(g)).is_zero())
    # ten scrambles in one stack: the real and imaginary parts of each unitary's
    # seed matrix are drawn in turn, and each triple is recovered in one pass
    M = np.random.default_rng(seed).normal(size=(10, 2, 3, 3))
    Q, _ = np.linalg.qr(M[:, 0] + 1j * M[:, 1])
    T = frames.dense(g.n, lie.chern_torsion(g), g.kind)
    res = frames.build_special_frame(frames.transform_torsion(T, Q))
    worst = float(np.max(np.abs(res.a - 1.0)))
    _chk(out, "frames.recovery", "special frame recovers torsion (1,1,1) after scrambles",
         worst <= 1e-9, f"max deviation {worst:.2e}")
    return out


def _middle_family_checks(out, g, a=Fraction(1)):
    rep = lie.classify(g)
    _chk(out, f"{g.label}.predicates",
         "balanced, parallel torsion, B-rank 2, vanishing first Bismut Ricci",
         rep.balanced and rep.btp and rep.b_rank == 2 and rep.cyt
         and rep.type_label == "middle" and rep.unimodular)
    _chk(out, f"{g.label}.chern_ricci", "first Chern Ricci form vanishes",
         rep.chern_ricci.is_zero())
    tb = lie.bismut_curvature(g)
    want, cross = -2 * a * a, 2 * a * a
    patt = (tb[0][0].coeff((0,), (0,)) == want and tb[1][1].coeff((1,), (1,)) == want
            and tb[1][1].coeff((0,), (0,)) == cross and tb[0][0].coeff((1,), (1,)) == cross
            and tb[2][2].is_zero() and tb[0][1].is_zero() and tb[0][2].is_zero())
    _chk(out, f"{g.label}.bismut_curvature",
         "diagonal Bismut curvature with entries -2a^2 and cross term 2a^2", patt)
    ob = lie.pluriclosed_obstruction(g)
    p11 = InvariantForm.monomial(3, (0,), (0,), EC.one())
    p22 = InvariantForm.monomial(3, (1,), (1,), EC.one())
    _chk(out, f"{g.label}.pluriclosed",
         "del-delbar of phi_{3 3b} equals 2a^2 phi_{1 1b} ^ phi_{2 2b}",
         ob == p11.wedge(p22).scale(EC(2 * a * a, 0)))
    return rep


def n3_suite(a=Fraction(1)) -> List[CheckResult]:
    out: List[CheckResult] = []
    g = lie.nilmanifold_n3(a)
    d3 = g.d_phi(2)
    want = InvariantForm.monomial(3, (0,), (0,), EC(-a, 0)) + \
        InvariantForm.monomial(3, (1,), (1,), EC(a, 0))
    _chk(out, "structure.dphi3", "d phi_3 = -a phi_{1 1b} + a phi_{2 2b}", d3 == want)
    rep = _middle_family_checks(out, g, a)
    _chk(out, "solvability", "two-step nilpotent",
         rep.nilpotent_steps == 2 and rep.solvable_steps == 2)
    _chk(out, "calabi_yau", "invariant canonical trivialization", rep.calabi_yau_type)
    return out


def a_st_suite() -> List[CheckResult]:
    out: List[CheckResult] = []
    for s, t in A_ST_SAMPLES:
        g = lie.family_a(s, t)
        rep = _middle_family_checks(out, g)
        _chk(out, f"{g.label}.calabi_yau", "trivial canonical form iff s + t = 0",
             rep.calabi_yau_type == (Fraction(s) + Fraction(t) == 0))
        if (Fraction(s), Fraction(t)) != (0, 0):
            _chk(out, f"{g.label}.solvability", "three-step solvable, not nilpotent",
                 rep.nilpotent_steps is None and rep.solvable_steps == 3)
    g0, n3 = lie.family_a(0, 0), lie.nilmanifold_n3()
    _chk(out, "origin", "family at the origin is the balanced nilmanifold",
         g0.C == n3.C and g0.D == n3.D)
    return out


def b_zt_suite() -> List[CheckResult]:
    out: List[CheckResult] = []
    for z, t in ((1, 1), (Fraction(-1, 2), 2), (EC(1, Fraction(1, 2)), Fraction(1, 3))):
        g = lie.family_b(z, t)
        rep = _middle_family_checks(out, g)
        _chk(out, f"{g.label}.calabi_yau", "trivial canonical form iff (z, t) = 0",
             rep.calabi_yau_type == (z == 0 and t == 0))
        _chk(out, f"{g.label}.solvability", "three-step solvable, not nilpotent",
             rep.nilpotent_steps is None and rep.solvable_steps == 3)
    for t in (Fraction(1, 2), 1):
        ga = lie.family_a(0, t)
        gb = lie.family_b(0, t)
        _chk(out, f"overlap(t={t})", "families agree when the first parameter vanishes",
             ga.C == gb.C and ga.D == gb.D)
    return out


def vaisman54_suite(a=Fraction(1)) -> List[CheckResult]:
    out: List[CheckResult] = []
    g = lie.vaisman_nilmanifold(a)
    rep = lie.classify(g)
    _chk(out, "classify", "non-balanced parallel-torsion structure of B-rank 2",
         rep.type_label == "non_balanced" and rep.btp and rep.b_rank == 2
         and not rep.balanced)
    vp, av = lie.vaisman_torsion_pattern(g)
    _chk(out, "torsion_pattern", "T^1_{13} = T^2_{23} = a > 0", vp and av == EC(a, 0))
    eta = lie.gauduchon_eta(g)
    _chk(out, "eta", "Gauduchon 1-form equals 2a phi_3",
         eta == InvariantForm.phi(3, 2, EC(2 * a, 0)))
    want = (InvariantForm.monomial(3, (0,), (0,), EC.one())
            + InvariantForm.monomial(3, (1,), (1,), EC.one())).scale(EC(0, -4 * a * a))
    _chk(out, "bismut_ricci", "first Bismut Ricci = -4a^2 sqrt(-1)(phi_{1 1b} + phi_{2 2b})",
         rep.bismut_ricci == want and not rep.cyt)
    _chk(out, "chern_ricci", "Chern Ricci flat", rep.chern_ricci.is_zero())
    n3 = lie.nilmanifold_n3(a)
    swapped = lie.conjugate_swap(n3, {1})
    _chk(out, "swap_of_nilmanifold", "conjugating the second frame direction lands here",
         swapped.C == g.C and swapped.D == g.D)
    _chk(out, "bismut_match", "swap preserves the Bismut connection",
         lie.bismut_swap_equal(n3, swapped, {1}))
    return out


SUITES: Dict[str, Callable[..., List[CheckResult]]] = {
    "n3": n3_suite,
    "a_st": a_st_suite,
    "b_zt": b_zt_suite,
    "sl2c": sl2c_suite,
    "wallach": wallach_suite,
    "vaisman54": vaisman54_suite,
}

# the keyword parameters each suite takes, which ``verify --torsion-a`` (a)
# and ``verify --seed`` (seed) are checked against; the other suites take none
SUITE_PARAMETERS: Dict[str, Tuple[str, ...]] = {
    "n3": ("a",), "vaisman54": ("a",), "sl2c": ("seed",), "wallach": ("seed",)}
