"""Golden-value suites for the built-in examples.

This module is the single source for the verified constants: the curvature
tables of the flag threefold, the family patterns of the middle-type Lie
algebras, and the special-frame data of the rank-three case.  Each check
carries a descriptive ``ref`` string naming the identity it pins down.

The flag-threefold suite imports ``charts`` and numpy, and the sl2c suite
numpy, where they run; the other suites are exact and run without numpy.

One check is expected to stay red: the Einstein constant of the flag-
threefold metric.  The claimed value 3 is kept as the golden entry, but the
exact curvature table shipped alongside it forces the constant 5/2 (the
trace of the verified sectional values), so ``verify wallach`` reports this
check as failed instead of silently adjusting either number.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import frames, lie
from .forms import InvariantForm
from .scalars import EC

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


def _table_check(out, name: str, ref: str, symbol: str, got: np.ndarray, expected):
    """Compare a whole table with expected(*index); the detail names the
    last entry that differs, in index order."""
    import numpy as np
    want = np.array([expected(*ix) for ix in np.ndindex(*got.shape)],
                    object).reshape(got.shape)
    bad = np.argwhere(got != want)
    detail = ""
    if len(bad):
        ix = tuple(bad[-1])
        detail = f"{symbol}{''.join(f'[{v + 1}]' for v in ix)} = {got[ix]!r}, want {want[ix]}"
    _chk(out, name, ref, not len(bad), detail)


# ---- suites ------------------------------------------------------------------

def wallach_suite(seed: Optional[int] = None) -> List[CheckResult]:
    import numpy as np
    from . import charts
    out: List[CheckResult] = []
    m = charts.wallach_metric()
    n = 3

    want = np.zeros((n, n, n), int)
    want[2, 1, 0] = 1
    _chk(out, "metric.base", "unitary chart frame at the base point",
         np.array_equal(m.G, np.identity(n, int)) and np.array_equal(m.dg, want),
         "g(0)=I, single nonzero first derivative g_{3 2b,1}=1")

    _chk(out, "metric.pure_second", "pure holomorphic second derivatives vanish", not m.hh.any())

    T = charts.chern_torsion_at(m)
    want = np.zeros((n, n, n), int)
    want[1, 0, 2], want[1, 2, 0] = 1, -1
    _chk(out, "torsion.values", "torsion reduces to T^2_{13} = 1", np.array_equal(T, want))
    _chk(out, "torsion.balanced", "trace 1-form of the torsion vanishes",
         not np.einsum("ssi->i", T).any())

    _table_check(out, "chern.curvature_table", "full Chern curvature table at the origin",
                 "Rc", charts.chern_curvature_at(m), expected_wallach_rc)

    ric1, ric2, ric3 = charts.ricci_forms_at(m)
    omega_tilde = np.array([1, 2, 1])
    _chk(out, "chern.ricci_1_3", "first and third Ricci equal twice the Kaehler-Einstein form",
         np.array_equal(ric1, np.diag(2 * omega_tilde)) and np.array_equal(ric3, ric1))
    _chk(out, "chern.ricci_2", "second Ricci equals 4*metric - Kaehler-Einstein form",
         np.array_equal(ric2, np.diag(4 - omega_tilde)))

    _chk(out, "btp.residuals", "parallel-torsion residuals vanish exactly",
         not any(r.any() for r in charts.btp_residual_at(m)))

    r11, r20 = charts.riemannian_curvature_at(m)
    _table_check(out, "riemann.table", "Levi-Civita (1,1) table (3/4, 1/2, -1/4, diagonal 2)",
                 "R", r11, expected_wallach_r11)
    _chk(out, "riemann.type20", "(2,0)-type components vanish", not r20.any())

    relok = True
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            a = _frac(r11[i][i][k][k])
            b = _frac(r11[i][k][k][i])
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
    frame_vals = set(charts.ricci_curvature(m, frame))
    _chk(out, "ricci.constant", "Ricci curvature is constant over the frame directions",
         len(frame_vals) == 1, f"values {sorted(frame_vals)}")
    val = frame_vals.pop() if len(frame_vals) == 1 else None
    _chk(out, "ricci.einstein_constant",
         f"Einstein constant equals the golden value {RICCI_CLAIMED}",
         val == RICCI_CLAIMED,
         f"computed {val}; the verified curvature table forces {RICCI_COMPUTED}")

    if seed is not None:
        rng = np.random.default_rng(seed)
        mf = charts.wallach_metric(exact=False)
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
    B = lie.b_tensor(g)
    _chk(out, "b_tensor", "B = 2*identity with rank 3",
         B == ((2, 0, 0), (0, 2, 0), (0, 0, 2)) and rep.b_rank == 3)
    _chk(out, "canonical.trivial", "tr theta = 0 (invariant trivializing form)",
         lie.trace(lie.chern_connection(g)).is_zero())
    rng = np.random.default_rng(seed)
    T = np.array(lie.chern_torsion(g), complex)
    ok = True
    worst = 0.0
    for _ in range(10):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(M)
        res = frames.build_special_frame(frames.transform_torsion(T, Q))
        worst = max(worst, float(np.max(np.abs(np.array(res.a) - 1.0))))
        ok = ok and worst <= 1e-9
    _chk(out, "frames.recovery", "special frame recovers torsion (1,1,1) after scrambles",
         ok, f"max deviation {worst:.2e}")
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


def a_st_suite(samples=((1, -1), (Fraction(1, 2), Fraction(1, 3)), (2, -2))) -> List[CheckResult]:
    out: List[CheckResult] = []
    for s, t in samples:
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
