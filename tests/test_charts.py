"""Chart-metric extraction: golden tables, oracles, and error contracts."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _oracles import (TENSOR_TYPES, btp_residual_loop, change_frame, chern_curvature_loop,
                      coords_checked, frame_route, jet_coefficients_loop, jet_conj_checked,
                      jet_reciprocal_checked, levi_civita_full, orthonormalize_base, orthonormalizing_frame, random_chart_metric,
                      random_curvature_tables, real_metric, ricci_frame_sum,
                      ricci_traces_loop, riemannian_parallel_torsion, sectional_closed_form,
                      sectional_numerator_loop, sylvester_positive_definite, torsion_loop,
                      transform_tensor, wallach_metric_values, wirtinger_fd)
from btpgeo import charts
from btpgeo.jets import Jet2
from btpgeo.goldens import expected_wallach_r11, expected_wallach_rc
from btpgeo.linalg import exact_rank, matrix_inverse
from btpgeo.scalars import EC, EXACT, FLOAT, FLOAT_TOL, scalar_to_json


def _max_abs(*tables):
    """The largest |entry| over chart tables of either kind."""
    return max(abs(c) for t in tables for c in np.ravel(t))


def _same_tables(got, want):
    """Whether two tuples of tables agree entry by entry."""
    return len(got) == len(want) and all(map(np.array_equal, got, want))


def _identity_base(m, tol=FLOAT_TOL):
    """Whether the base value G is the identity, within tol for float data."""
    return bool(m.kind.negligible(m.G - np.identity(m.n, int), tol).all())


# ---- golden metric jets -------------------------------------------------------

def test_wallach_base_values(wallach_exact):
    m = wallach_exact
    assert _identity_base(m)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want = EC(1) if (i, j, k) == (2, 1, 0) else EC.zero()
                assert m.g[i][j].deriv(holo=(k,)) == want


def test_wallach_pure_second_derivatives_vanish(wallach_exact):
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for p in range(k, 3):
                    assert wallach_exact.g[i][j].deriv(holo=(k, p)).is_zero()


def test_wallach_mixed_second_derivatives(wallach_exact):
    g = wallach_exact.g
    assert g[0][0].deriv(holo=(0,), anti=(0,)) == EC(-2)
    assert g[1][1].deriv(holo=(1,), anti=(1,)) == EC(-2)
    assert g[2][2].deriv(holo=(2,), anti=(2,)) == EC(-2)
    # g_{i ibar, k kbar}: the slot order matters, the table is not symmetric
    assert g[0][0].deriv(holo=(1,), anti=(1,)) == EC(-1)
    assert g[1][1].deriv(holo=(0,), anti=(0,)) == EC(0)
    assert g[1][1].deriv(holo=(2,), anti=(2,)) == EC(0)
    assert g[2][2].deriv(holo=(1,), anti=(1,)) == EC(-1)
    assert g[0][0].deriv(holo=(2,), anti=(2,)) == EC(0)
    assert g[2][2].deriv(holo=(0,), anti=(0,)) == EC(1)
    # g_{i kbar, k ibar}
    assert g[0][1].deriv(holo=(1,), anti=(0,)) == EC(-1)
    assert g[1][2].deriv(holo=(2,), anti=(1,)) == EC(-1)
    assert g[0][2].deriv(holo=(2,), anti=(0,)) == EC(1)


def test_gtilde_alone_second_derivative():
    # with the correction term switched off the (2,2) diagonal doubles
    m = charts.wallach_metric(sigma_scale=0)
    assert m.g[1][1].deriv(holo=(1,), anti=(1,)) == EC(-4)


def test_wallach_hermitian_jets(wallach_exact):
    g = wallach_exact.g
    for i in range(3):
        for j in range(3):
            assert g[i][j] == g[j][i].conj()


# ---- torsion -------------------------------------------------------------------

def test_wallach_torsion(wallach_exact):
    T = charts.chern_torsion_at(wallach_exact)
    for j in range(3):
        for i in range(3):
            for k in range(3):
                want = EC.zero()
                if (j, i, k) == (1, 0, 2):
                    want = EC(1)
                elif (j, i, k) == (1, 2, 0):
                    want = EC(-1)
                assert T[j][i][k] == want


def test_euclidean_torsion_zero():
    T = charts.chern_torsion_at(charts.euclidean_metric(3))
    assert all(T[j][i][k].is_zero() for j in range(3) for i in range(3) for k in range(3))


def test_fubini_study_torsion_zero():
    # Kaehler reference: symmetric first derivatives kill the torsion
    T = charts.chern_torsion_at(charts.fubini_study_metric(3))
    assert all(T[j][i][k].is_zero() for j in range(3) for i in range(3) for k in range(3))
    mf = charts.fubini_study_metric(3, exact=False, point=[0.3 + 0.1j, -0.2j, 0.05])
    Tf = charts.chern_torsion_at(mf)
    assert max(abs(complex(Tf[j][i][k])) for j in range(3) for i in range(3)
               for k in range(3)) < 1e-12


# ---- Chern curvature ------------------------------------------------------------

def test_wallach_chern_curvature_table(wallach_exact):
    Rc = charts.chern_curvature_at(wallach_exact)
    for k in range(3):
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    assert Rc[k][l][i][j] == EC(expected_wallach_rc(k, l, i, j), 0), \
                        (k, l, i, j)


def test_chern_curvature_hermitian_pairing(wallach_exact):
    Rc = charts.chern_curvature_at(wallach_exact)
    for k in range(3):
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    assert Rc[k][l][i][j] == Rc[l][k][j][i].conjugate()


def test_euclidean_curvature_zero():
    Rc = charts.chern_curvature_at(charts.euclidean_metric(3))
    assert all(Rc[k][l][i][j].is_zero() for k in range(3) for l in range(3)
               for i in range(3) for j in range(3))


def test_float_euclidean_metric_reads_its_empty_jets_as_float_zeros():
    # the off-diagonal jets are empty, and an empty jet's value is an exact zero
    m = charts.euclidean_metric(3, exact=False)
    assert m.G.dtype == complex
    assert _identity_base(m)
    assert all(t.dtype == complex for t in charts.riemannian_curvature_at(m))
    assert charts.sectional_numerator(m, [1, 0, 0], [0, 1j, 0]) == 0.0
    res_h, res_a = charts.btp_residual_at(m)
    assert _max_abs(res_h, res_a) == 0


def test_euclidean_ricci_tensors_vanish():
    ric1, ric2, ric3 = charts.ricci_forms_at(charts.euclidean_metric(3))
    for r in (ric1, ric2, ric3):
        assert all(r[a][b].is_zero() for a in range(3) for b in range(3))


def test_wallach_ricci_tensors(wallach_exact):
    ric1, ric2, ric3 = charts.ricci_forms_at(wallach_exact)
    omega_tilde = [1, 2, 1]
    for a in range(3):
        for b in range(3):
            assert ric1[a][b] == (EC(2 * omega_tilde[a]) if a == b else EC.zero())
            assert ric2[a][b] == (EC(4 - omega_tilde[a]) if a == b else EC.zero())
            assert ric3[a][b] == ric1[a][b]


def test_wallach_bisectional_sum_of_squares(wallach_exact):
    # contraction against the quadratic-form expansion of the bisectional
    # curvature, sampled over 10^4 random pairs (vectorized)
    Rc = charts.chern_curvature_at(wallach_exact)
    R = np.array([[[[complex(Rc[a][b][c][d]) for d in range(3)] for c in range(3)]
                   for b in range(3)] for a in range(3)])
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10000, 3)) + 1j * rng.normal(size=(10000, 3))
    Y = rng.normal(size=(10000, 3)) + 1j * rng.normal(size=(10000, 3))
    contraction = np.einsum("abcd,na,nb,nc,nd->n", R, X, X.conj(), Y, Y.conj())
    closed = (np.abs(X[:, 1] * Y[:, 0]) ** 2 + np.abs(X[:, 1] * Y[:, 2]) ** 2
              + np.abs(X[:, 0] * Y[:, 0].conj() + X[:, 1] * Y[:, 1].conj()) ** 2
              + np.abs(X[:, 0] * Y[:, 0].conj() - X[:, 2] * Y[:, 2].conj()) ** 2
              + np.abs(X[:, 1] * Y[:, 1].conj() + X[:, 2] * Y[:, 2].conj()) ** 2)
    assert np.max(np.abs(contraction - closed)) < 1e-9
    assert np.min(contraction.real) > -1e-12
    # holomorphic sectional curvature is strictly positive on samples
    hol = np.einsum("abcd,na,nb,nc,nd->n", R, X, X.conj(), X, X.conj()).real
    assert np.min(hol) > 0


# ---- parallel-torsion residuals ---------------------------------------------------

def test_wallach_btp_residuals_zero(wallach_exact):
    res_h, res_a = charts.btp_residual_at(wallach_exact)
    assert (res_h == 0).all()
    assert (res_a == 0).all()


def test_euclidean_btp_residuals_zero():
    res_h, res_a = charts.btp_residual_at(charts.euclidean_metric(3))
    assert (res_h == 0).all() and (res_a == 0).all()


# the Ricci curvature of the sigma = 1/2 metric along e_1, e_2, e_3
SIGMA_HALF_RICCI = [Fraction(9, 4), Fraction(25, 12), Fraction(9, 4)]


def test_scaled_correction_breaks_parallelism():
    # halving the correction term spoils both the unitary base frame and the
    # parallel-torsion identities, which are read at the base diag(1, 3/2, 1);
    # the Levi-Civita curvature needs neither
    m = charts.wallach_metric(sigma_scale=Fraction(1, 2))
    assert np.array_equal(m.G, np.diag([1, Fraction(3, 2), 1]))
    res_h, res_a = charts.btp_residual_at(m)
    assert _max_abs(res_h, res_a) > 0
    units = [[u if k == i else 0 for k in range(3)] for i in range(3) for u in (1, EC.i())]
    assert charts.ricci_curvature(m, units).tolist() == \
        [v for v in SIGMA_HALF_RICCI for _ in range(2)]
    # the float metric in a frame where g(0) = I gives the same values
    mf = charts.wallach_metric(exact=False, sigma_scale=0.5)
    mo = orthonormalize_base(mf)
    assert _identity_base(mo, tol=1e-12)
    res_h, res_a = charts.btp_residual_at(mo)
    assert _max_abs(res_h, res_a) > 1e-3
    # a direction X of the chart is inv(A) X in the frame z = A z'
    X = np.linalg.solve(np.array(orthonormalizing_frame(mf)), np.identity(3)).T
    got = charts.ricci_curvature(mo, X)
    assert np.max(np.abs(got - np.array(SIGMA_HALF_RICCI, float))) < 1e-9


# sigma = p/q with q <= 7 and -6 < sigma < 2, where the base diag(1, 2 - sigma, 1)
# is positive definite
SIGMA_GRID = sorted({Fraction(p, q) for q in range(1, 8) for p in range(-6 * q + 1, 2 * q)})


def test_sigma_pencil_is_parallel_only_at_kaehler_and_normal_metric():
    # the largest |residual|^2 of g~ - sigma s is (sigma (1 - sigma) / (2 - sigma))^2,
    # exactly, so the torsion is parallel at sigma in {0, 1} and nowhere else
    for sigma in SIGMA_GRID:
        res = charts.btp_residual_at(charts.wallach_metric(sigma_scale=sigma))
        worst = max(c.re ** 2 + c.im ** 2 for r in res for a in r for b in a for x in b
                    for c in x)
        assert worst == (sigma * (1 - sigma) / (2 - sigma)) ** 2, sigma
        assert (worst == 0) == (sigma in (0, 1))
    assert len(SIGMA_GRID) == 143


@pytest.mark.parametrize("exact", [True, False])
def test_riemannian_curvature_reads_the_jets_once(monkeypatch, exact):
    calls = []
    read = charts._jet_coefficients
    monkeypatch.setattr(charts, "_jet_coefficients", lambda *a: calls.append(a) or read(*a))
    charts.riemannian_curvature_at(charts.wallach_metric(exact=exact))
    assert len(calls) == 1


def test_orthonormalize_preserves_geometry():
    # orthonormalizing the untouched metric must not disturb the residuals
    m = orthonormalize_base(charts.wallach_metric(exact=False))
    res_h, res_a = charts.btp_residual_at(m)
    assert _max_abs(res_h, res_a) < 1e-12


OFF_ORIGIN = [[0.2, 0.1j, -0.3], [0.3 + 0.1j, -0.2, 0.5j], [1.5 - 2j, 0.7j, -0.4 + 0.9j]]


def test_residuals_off_origin_need_no_identity_base():
    # the metric is homogeneous, so its torsion is parallel at every chart
    # point, where the base value is not the identity
    for point in OFF_ORIGIN:
        m = charts.wallach_metric(exact=False, point=point)
        assert not _identity_base(m)
        res_h, res_a = charts.btp_residual_at(m)
        assert _max_abs(res_h, res_a) <= 1e-12


@pytest.mark.parametrize("point", OFF_ORIGIN)
def test_orthonormalize_at_non_real_points(point):
    # the metric is homogeneous, so every chart point gives the same geometry,
    # read at the base value there or in a frame where g(0) = I
    m = charts.wallach_metric(exact=False, point=point)
    mo = orthonormalize_base(m)
    assert _identity_base(mo, tol=1e-12) and not _identity_base(m)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    for metric in (mo, m):
        assert np.max(np.abs(charts.ricci_curvature(metric, X) - 2.5)) < 1e-9


# ---- the jet route as an independent oracle ----------------------------------------

# a positive definite base value for the routes that do not need g(0) = I
EXACT_BASE = [[EC(2), EC(Fraction(1, 2), Fraction(1, 3)), EC(0)],
              [EC(Fraction(1, 2), Fraction(-1, 3)), EC(3), EC(Fraction(1, 4))],
              [EC(0), EC(Fraction(1, 4)), EC(1)]]
FLOAT_BASE = [[complex(c) for c in row] for row in EXACT_BASE]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("on_base", [False, True])
def test_coefficient_arrays_match_jet_derivatives(exact, on_base):
    # hh is doubled on its diagonal, as Jet2.deriv; the random jets carry
    # every monomial, so each entry of each array is pinned
    base = (EXACT_BASE if exact else FLOAT_BASE) if on_base else None
    m = random_chart_metric(np.random.default_rng(4), exact, base=base)
    for got, want in zip((m.G, m.dg, m.dgb, m.hh, m.ha), jet_coefficients_loop(m)):
        assert got.dtype == m.kind.dtype
        assert np.array_equal(got, np.array(want, m.kind.dtype))
    assert _identity_base(m) != on_base
    if exact:
        assert np.array_equal(m.Ginv @ m.G, np.identity(3, int))


def _assert_close(got, want, rel=1e-12):
    got, want = np.array(got), np.array(want, dtype=complex)
    assert got.dtype == complex
    assert np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float_extraction_matches_jet_route(seed):
    rng = np.random.default_rng(seed)
    m = random_chart_metric(rng, exact=False)
    _assert_close(charts.chern_torsion_at(m), torsion_loop(m))
    _assert_close(charts.chern_curvature_at(m), chern_curvature_loop(m))
    want = btp_residual_loop(m)
    # a generic metric: the residuals are far from zero
    assert min(map(_max_abs, want)) > 0.1
    for got, w in zip(charts.btp_residual_at(m), want):
        _assert_close(got, w)
    m = random_chart_metric(rng, exact=False, base=FLOAT_BASE)
    _assert_close(charts.chern_torsion_at(m), torsion_loop(m))
    _assert_close(charts.chern_curvature_at(m), chern_curvature_loop(m))
    for got, w in zip(charts.btp_residual_at(m), btp_residual_loop(m)):
        _assert_close(got, w)
    for got, w in zip(charts.ricci_forms_at(m), ricci_traces_loop(m, chern_curvature_loop(m))):
        _assert_close(got, w)


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_extraction_matches_jet_route(seed):
    rng = np.random.default_rng(seed)
    m = random_chart_metric(rng, exact=True)
    T = charts.chern_torsion_at(m)
    assert all(type(c) is EC for a in T for b in a for c in b)
    assert np.array_equal(T, torsion_loop(m))
    assert np.array_equal(charts.chern_curvature_at(m), chern_curvature_loop(m))
    res_h, res_a = btp_residual_loop(m)
    assert _max_abs(res_h) > 0 and _max_abs(res_a) > 0
    assert _same_tables(charts.btp_residual_at(m), (res_h, res_a))
    m = random_chart_metric(rng, exact=True, base=EXACT_BASE)
    assert np.array_equal(charts.chern_torsion_at(m), torsion_loop(m))
    assert np.array_equal(charts.chern_curvature_at(m), chern_curvature_loop(m))
    assert _same_tables(charts.btp_residual_at(m), btp_residual_loop(m))
    assert _same_tables(charts.ricci_forms_at(m), ricci_traces_loop(m, chern_curvature_loop(m)))


# ---- any base value: the frame route as an oracle -------------------------------------

def _chern_table(m):
    return (charts.chern_curvature_at(m),)


# each extraction that works at any base, with the index types of its tensors
EXTRACTIONS = ((charts.btp_residual_at, (TENSOR_TYPES["res_h"], TENSOR_TYPES["res_a"])),
               (_chern_table, (TENSOR_TYPES["chern"],)),
               (charts.ricci_forms_at, (TENSOR_TYPES["ricci"],) * 3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_float_extraction_at_any_base_matches_frame_route(seed):
    # base M M^H + I; the frame route orthonormalizes it, extracts at g(0) = I
    # and transforms back
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = random_chart_metric(rng, exact=False, base=(M @ M.conj().T + np.eye(3)).tolist())
    for fn, types in EXTRACTIONS:
        for got, want in zip(fn(m), frame_route(m, fn, types)):
            _assert_close(got, want)


small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
small_exact = st.builds(EC, small_rational, small_rational)

# a rational frame change z = A z' that is not unitary
EXACT_FRAME = [[EC(1), EC(Fraction(1, 2), Fraction(1, 3)), EC(0)],
               [EC(0), EC(2), EC(Fraction(-1, 4))],
               [EC(Fraction(1, 5)), EC(0, 1), EC(1)]]


def _assert_tensorial(m, A):
    mA = change_frame(m, A)
    for fn, types in EXTRACTIONS:
        assert _same_tables(fn(mA), [transform_tensor(t, ty, A) for t, ty in zip(fn(m), types)])


def test_exact_wallach_extraction_transforms_as_tensors():
    _assert_tensorial(charts.wallach_metric(), EXACT_FRAME)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.lists(small_exact, min_size=9, max_size=9))
@example(0, True, [c for row in EXACT_FRAME for c in row])
def test_exact_extraction_transforms_as_tensors(seed, on_base, entries):
    A = [entries[:3], entries[3:6], entries[6:]]
    assume(exact_rank(A) == 3)
    m = random_chart_metric(np.random.default_rng(seed), exact=True,
                            base=EXACT_BASE if on_base else None)
    _assert_tensorial(m, A)


# ---- Levi-Civita side ---------------------------------------------------------------

def test_wallach_riemannian_table(wallach_pc):
    r11, r20 = charts.riemannian_curvature_at(wallach_pc)
    for k in range(3):
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    assert r11[k][l][i][j] == EC(expected_wallach_r11(k, l, i, j), 0), \
                        (k, l, i, j)
    assert (r20 == 0).all()


def test_riemannian_pair_symmetry(wallach_pc):
    r11, _ = charts.riemannian_curvature_at(wallach_pc)
    for k in range(3):
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    assert r11[k][l][i][j] == r11[i][j][k][l]


def test_pair_relations(wallach_pc):
    r11, _ = charts.riemannian_curvature_at(wallach_pc)
    for i in range(3):
        for k in range(3):
            if i == k:
                continue
            a = r11[i][i][k][k].re
            b = r11[i][k][k][i].re
            assert 2 * b - a == Fraction(1, 4)
            if {i, k} == {0, 2}:
                assert 2 * a - b == Fraction(-5, 4) and a + b == Fraction(-1)
            else:
                assert 2 * a - b == Fraction(1) and a + b == Fraction(5, 4)


def test_sectional_tensor_vs_closed_form(wallach_float_pc):
    # the appendix-style sum of squares is an independent oracle for R(x,y,y,x),
    # checked row by row against stacked evaluations of several sizes
    rng = np.random.default_rng(17)
    for count in (1, 7, 500):
        X = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
        Y = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
        nums = charts.sectional_numerator(wallach_float_pc, X, Y)
        assert nums.shape == (count,)
        for x, y, num in zip(X, Y, nums):
            closed = sectional_closed_form(x, y)
            assert abs(num - closed) <= 1e-12 * max(1.0, closed)
            assert num >= -1e-12
        single = charts.sectional_numerator(wallach_float_pc, X[-1], Y[-1])
        assert single == pytest.approx(nums[-1], rel=1e-14)


def test_sectional_exact_base_plane(wallach_pc):
    assert charts.sectional_numerator(wallach_pc, (1, 0, 0), (0, 1, 0)) == Fraction(1, 2)


def closed_form_exact(X, Y):
    """Exact-rational evaluation of the sum-of-squares sectional expression."""
    I = [(x * y.conjugate()).im for x, y in zip(X, Y)]
    sq = lambda c: c.abs2()
    return (4 * (I[0] + I[1]) ** 2 + 4 * (I[1] + I[2]) ** 2 + 4 * (I[0] - I[2]) ** 2
            + Fraction(1, 2) * sq(X[0] * Y[1].conjugate() - Y[0] * X[1].conjugate())
            + Fraction(1, 2) * sq(X[1] * Y[2].conjugate() - Y[1] * X[2].conjugate())
            + Fraction(1, 2) * sq(X[0] * Y[2] - Y[0] * X[2]))


RATIONAL_PLANES = [
    ((EC(1), EC(0), EC(0)), (EC(0), EC(1), EC(0))),
    ((EC(1), EC(1), EC(1)), (EC(0, 1), EC(0, -1), EC(0, 1))),
    ((EC(1, 2), EC(Fraction(1, 2)), EC(0, -1)), (EC(3), EC(0, 1), EC(1, 1))),
    ((EC(Fraction(2, 3)), EC(-1, 1), EC(5)), (EC(0), EC(Fraction(1, 7), 2), EC(1))),
]


def test_sectional_matches_closed_form_exactly(wallach_pc):
    for X, Y in RATIONAL_PLANES:
        num = charts.sectional_numerator(wallach_pc, X, Y)
        assert num == closed_form_exact(X, Y)


def test_float_stack_matches_exact_kind(wallach_pc, wallach_float_pc):
    X = np.array([[complex(c) for c in x] for x, _ in RATIONAL_PLANES])
    Y = np.array([[complex(c) for c in y] for _, y in RATIONAL_PLANES])
    nums = charts.sectional_numerator(wallach_float_pc, X, Y)
    rics = charts.ricci_curvature(wallach_float_pc, X)
    for (x, y), num, ric in zip(RATIONAL_PLANES, nums, rics):
        assert abs(num - float(charts.sectional_numerator(wallach_pc, x, y))) < 1e-12
        assert abs(ric - float(charts.ricci_curvature(wallach_pc, x))) < 1e-12


def test_single_direction_return_types(wallach_pc, wallach_float_pc):
    X, Y = (1, 1j, 0), (0.5, 0, 2 - 1j)
    assert type(charts.sectional_numerator(wallach_float_pc, X, Y)) is float
    assert type(charts.ricci_curvature(wallach_float_pc, X)) is float
    x, y = RATIONAL_PLANES[2]
    assert type(charts.sectional_numerator(wallach_pc, x, y)) is Fraction
    assert type(charts.ricci_curvature(wallach_pc, x)) is Fraction


def test_float_stack_rejects_malformed_directions(wallach_float_pc):
    m = wallach_float_pc
    with pytest.raises(ValueError):
        charts.sectional_numerator(m, np.ones((4, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError):
        charts.sectional_numerator(m, np.ones((4, 3)), np.ones((5, 3)))
    with pytest.raises(charts.DegeneratePlaneError):
        charts.ricci_curvature(m, [[1, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("seed", [1, 7, 123456])
def test_random_planes_match_per_plane_draws(monkeypatch, seed):
    # blocks of 7 over 20 planes: two full blocks and a partial one
    monkeypatch.setattr(charts, "SAMPLE_BLOCK", 7)
    blocks = list(charts.random_planes(np.random.default_rng(seed), 20, 3))
    assert [len(X) for X, _ in blocks] == [7, 7, 6]
    X = np.concatenate([X for X, _ in blocks])
    Y = np.concatenate([Y for _, Y in blocks])
    rng = np.random.default_rng(seed)
    for k in range(20):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.array_equal(X[k], x) and np.array_equal(Y[k], y)


def test_sectional_flat_plane_exact(wallach_pc):
    X = (EC(1), EC(1), EC(1))
    Y = (EC(0, 1), EC(0, -1), EC(0, 1))
    assert charts.sectional_numerator(wallach_pc, X, Y) == 0
    # the sectional curvature rejects a genuinely degenerate plane
    with pytest.raises(charts.DegeneratePlaneError):
        charts.sectional_curvature(wallach_pc, (1, 0, 0), (1, 0, 0))


def test_sectional_antisymmetry_trivial(wallach_pc):
    assert charts.sectional_numerator(wallach_pc, (1, 2, 3), (1, 2, 3)) == 0


def test_ricci_constant_exact(wallach_pc):
    vals = set()
    for i in range(3):
        X = [EC.zero()] * 3
        X[i] = EC.one()
        vals.add(charts.ricci_curvature(wallach_pc, X))
        X[i] = EC.i()
        vals.add(charts.ricci_curvature(wallach_pc, X))
    vals.add(charts.ricci_curvature(wallach_pc, (EC(1), EC(2, -1), EC(0, 3))))
    assert vals == {Fraction(5, 2)}


def test_ricci_euclidean_zero():
    assert charts.ricci_curvature(charts.euclidean_metric(3), (1, 0, 0)) == 0


def test_kaehler_einstein_end_of_the_pencil_has_ricci_two():
    # sigma = 0 is the Kaehler-Einstein metric, read at the base diag(1, 2, 1)
    m = charts.wallach_metric(sigma_scale=0)
    assert not _identity_base(m)
    dirs = [(1, 0, 0), (0, EC.i(), 0), (0, 0, 1), (EC(1), EC(2, -1), EC(0, 3))]
    assert charts.ricci_curvature(m, dirs).tolist() == [2] * 4


# ---- the Levi-Civita route against its two oracles ------------------------------------

def _full_blocks(m):
    """(r11, r20): -1 times two blocks of the 2n-coordinate Riemann tensor."""
    n, R = m.n, levi_civita_full(m)
    return -R[:n, n:, :n, n:], -R[:n, :n, :n, n:]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("on_base", [False, True])
def test_levi_civita_matches_the_full_formula(exact, on_base):
    # generic metrics: the torsion is not parallel, and on a base other than
    # the identity the real metric is not the Euclidean one either
    base = (EXACT_BASE if exact else FLOAT_BASE) if on_base else None
    for seed in (0, 1):
        m = random_chart_metric(np.random.default_rng(seed), exact, base=base)
        got = charts.riemannian_curvature_at(m)
        want = _full_blocks(m)
        assert min(map(_max_abs, want)) > 0.1
        if exact:
            assert _same_tables(got, want)
        else:
            for got, w in zip(got, want):
                _assert_close(got, w)


def test_levi_civita_matches_the_parallel_torsion_formula():
    # parallel torsion at g(0) = I, where torsion and Chern curvature determine
    # R; the two routes agree entry for entry in either kind
    for exact in (True, False):
        for m in (charts.wallach_metric(exact=exact), charts.euclidean_metric(3, exact),
                  charts.fubini_study_metric(3, exact)):
            assert _identity_base(m)
            got = charts.riemannian_curvature_at(m)
            assert _same_tables(got, riemannian_parallel_torsion(m)), m.label
            assert got[0].dtype == m.kind.dtype


@pytest.mark.parametrize("exact", [True, False])
def test_sectional_and_ricci_match_the_full_tensor_at_any_base(exact):
    # x = X + conj(X) has the components (X, conj(X)) in the coordinates
    # (z, zbar); the numerator is R(x, y, y, x) of -levi_civita_full and the
    # Ricci curvature its trace with the inverse real metric
    m = random_chart_metric(np.random.default_rng(2), exact,
                            base=EXACT_BASE if exact else FLOAT_BASE)
    R, g = -levi_civita_full(m), real_metric(m)
    ginv = matrix_inverse(g, m.kind)
    pair = lambda u, v: np.einsum("a,ab,b->", u, g, v)
    for X, Y in RATIONAL_PLANES:
        X, Y = (np.array(V if exact else [complex(c) for c in V], m.kind.dtype) for V in (X, Y))
        x, y = (np.concatenate([V, np.conj(V)]) for V in (X, Y))
        num = np.einsum("abcd,a,b,c,d->", R, x, y, y, x)
        want = (num, num / (pair(x, x) * pair(y, y) - pair(x, y) * pair(x, y)),
                np.einsum("abcd,bc,a,d->", R, ginv, x, x) / pair(x, x))
        got = (charts.sectional_numerator(m, X, Y), charts.sectional_curvature(m, X, Y),
               charts.ricci_curvature(m, X))
        for v, w in zip(got, want):
            if exact:
                assert type(v) is Fraction and EC(v) == w
            else:
                assert abs(v - w) <= 1e-12 * max(1.0, abs(w))


def test_wallach_curvature_operator_has_three_exact_eigenvalues():
    # the curvature operator on Lambda^2 at the origin, in the real basis
    # dx_a = d_a + dbar_a, dy_a = i (d_a - dbar_a) of norm^2 2, so divided by 4:
    # Rop[(p, q), (r, s)] = R(e_p, e_q, e_s, e_r) / 4 with R = -levi_civita_full
    m = charts.wallach_metric()
    n = m.n
    zero, one = EC.zero(), EC.one()
    # e_p is x = X + conj(X) for X = e_a (dx_a) or X = i e_a (dy_a)
    dirs = [[one if c == a else zero for c in range(n)] for a in range(n)]
    dirs += [[EC.i() * c for c in d] for d in dirs]
    E = np.array([d + [c.conjugate() for c in d] for d in dirs], object)
    R = -levi_civita_full(m)
    for _ in range(4):      # contract the first index, which then moves last
        R = np.tensordot(R, E, axes=([0], [1]))
    assert not any(c.im for c in R.flat)
    pairs = [(p, q) for p in range(2 * n) for q in range(p + 1, 2 * n)]
    Rop = [[R[p, q, s, r].re / 4 for r, s in pairs] for p, q in pairs]
    assert all(Rop[u][v] == Rop[v][u] for u in range(15) for v in range(15))
    # each diagonal entry is the library's sectional numerator of its plane
    assert [Rop[u][u] for u in range(15)] == [
        charts.sectional_numerator(m, dirs[p], dirs[q]) / 4 for p, q in pairs]

    def matmul(A, B):
        return [[sum(A[u][w] * B[w][v] for w in range(15)) for v in range(15)]
                for u in range(15)]

    def shifted(lam):
        return [[Rop[u][v] - (lam if u == v else 0) for v in range(15)] for u in range(15)]

    factors = [shifted(Fraction(-1, 4)), shifted(Fraction(1, 2)), shifted(Fraction(11, 4))]
    is_zero = lambda A: not any(map(any, A))
    assert is_zero(matmul(matmul(factors[0], factors[1]), factors[2]))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert not is_zero(matmul(factors[a], factors[b]))
    # the three eigenvalues are distinct, so the two traces fix their
    # multiplicities (6, 7, 2): a Vandermonde system in (m1, m2, m3)
    tr1 = sum(Rop[u][u] for u in range(15))
    tr2 = sum(Rop[u][v] * Rop[v][u] for u in range(15) for v in range(15))
    assert (tr1, tr2) == (Fraction(15, 2), Fraction(69, 4))
    mult = {Fraction(-1, 4): 6, Fraction(1, 2): 7, Fraction(11, 4): 2}
    assert [sum(k * lam ** d for lam, k in mult.items()) for d in range(3)] == [15, tr1, tr2]


# ---- explicit sums as oracles on generic tables --------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float_sectional_and_ricci_match_explicit_sums(seed):
    # generic tables: no index symmetry can hide a wrong index
    rng = np.random.default_rng(seed)
    tables = random_curvature_tables(rng, exact=False, hermitian=False)
    # the explicit sums trace over e_i, i e_i, an orthonormal frame of G = I
    assert np.array_equal(tables.G, np.identity(3)) and np.array_equal(tables.Ginv, tables.G)
    X = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    Y = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    _assert_close(charts.sectional_numerator(tables, X, Y) + 0j,
                  [sectional_numerator_loop(tables, x, y) for x, y in zip(X, Y)])
    _assert_close(charts.ricci_curvature(tables, X) + 0j, [ricci_frame_sum(tables, x) for x in X])


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_sectional_and_ricci_match_explicit_sums(seed):
    rng = np.random.default_rng(seed)
    tables = random_curvature_tables(rng, exact=True, hermitian=True)
    nums = charts.sectional_numerator(tables, [x for x, _ in RATIONAL_PLANES],
                                      [y for _, y in RATIONAL_PLANES])
    rics = charts.ricci_curvature(tables, [x for x, _ in RATIONAL_PLANES])
    for (x, y), num, ric in zip(RATIONAL_PLANES, nums, rics):
        assert type(num) is Fraction and num == sectional_numerator_loop(tables, x, y)
        assert charts.sectional_numerator(tables, x, y) == num
        assert type(ric) is Fraction and ric == ricci_frame_sum(tables, x)
        assert charts.ricci_curvature(tables, x) == ric


def test_exact_non_real_sectional_value_raises():
    tables = random_curvature_tables(np.random.default_rng(3), exact=True, hermitian=False)
    x, y = RATIONAL_PLANES[2]
    with pytest.raises(ArithmeticError):
        sectional_numerator_loop(tables, x, y)
    with pytest.raises(ArithmeticError):
        charts.sectional_numerator(tables, x, y)
    with pytest.raises(ArithmeticError):
        charts.ricci_curvature(tables, x)


def test_exact_directions_reject_float_components(wallach_pc):
    with pytest.raises(TypeError):
        charts.sectional_numerator(wallach_pc, (1.0, 0, 0), (0, 1, 0))
    with pytest.raises(TypeError):
        charts.ricci_curvature(wallach_pc, (1j, 0, 0))


# ---- normalized sectional curvature ----------------------------------------------------

@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_normalized_sectional_does_not_depend_on_scale(wallach_float_pc, scale):
    m = wallach_float_pc
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    X = np.vstack([X, [1, 1, 1]])
    Y = np.vstack([Y, [0, 1, 0]])
    want = charts.sectional_curvature(m, X, Y)
    assert want[-1] == pytest.approx(0.125, rel=1e-12)
    for got in (charts.sectional_curvature(m, scale * X, Y),
                charts.sectional_curvature(m, X, scale * Y),
                charts.sectional_curvature(m, scale * X, scale * Y)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_normalized_sectional_stack_matches_single_planes(wallach_pc, wallach_float_pc):
    # the second rational plane has a zero numerator, which a relative
    # tolerance cannot compare in float
    planes = RATIONAL_PLANES[:1] + RATIONAL_PLANES[2:]
    X, Y = [x for x, _ in planes], [y for _, y in planes]
    vals = charts.sectional_curvature(wallach_pc, X, Y)
    assert vals[0] == Fraction(1, 8)
    for x, y, v in zip(X, Y, vals):
        assert charts.sectional_curvature(wallach_pc, x, y) == v
    Xf = np.array([[complex(c) for c in x] for x in X])
    Yf = np.array([[complex(c) for c in y] for y in Y])
    fvals = charts.sectional_curvature(wallach_float_pc, Xf, Yf)
    assert fvals.shape == (len(planes),)
    for x, y, fv, v in zip(Xf, Yf, fvals, vals):
        single = charts.sectional_curvature(wallach_float_pc, x, y)
        assert type(single) is float and single == pytest.approx(fv, rel=1e-14)
        assert fv == pytest.approx(float(v), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_normalized_sectional_rejects_parallel_directions(wallach_float_pc, scale):
    X = scale * np.array([1 + 2j, -0.5, 3j])
    with pytest.raises(charts.DegeneratePlaneError):
        charts.sectional_curvature(wallach_float_pc, X, -2.5 * X)
    # one degenerate row in a stack is enough
    for Y in (3 * X, -0.5 * X):
        with pytest.raises(charts.DegeneratePlaneError):
            charts.sectional_curvature(wallach_float_pc, [[1, 0, 0], X], [[0, 1, 0], Y])


# ---- float path and the finite-difference oracle -------------------------------------

def test_jet_coefficients_match_finite_differences(wallach_exact):
    # every coefficient slot of every component against central differences
    h = 1e-4
    for i in range(3):
        for j in range(3):
            fn = lambda z: wallach_metric_values(z)[i, j]
            jet = wallach_exact.g[i][j]
            for k in range(3):
                fd = wirtinger_fd(fn, [0, 0, 0], holo=(k,), h=h)
                assert abs(fd - complex(jet.deriv(holo=(k,)))) <= 1e-6 * max(1, abs(fd))
                fd = wirtinger_fd(fn, [0, 0, 0], anti=(k,), h=h)
                assert abs(fd - complex(jet.deriv(anti=(k,)))) <= 1e-6 * max(1, abs(fd))
                for l in range(3):
                    fd = wirtinger_fd(fn, [0, 0, 0], holo=(k,), anti=(l,), h=h)
                    want = complex(jet.deriv(holo=(k,), anti=(l,)))
                    assert abs(fd - want) <= 1e-6 * max(1.0, abs(fd)), (i, j, k, l)
                for l in range(k, 3):
                    fd = wirtinger_fd(fn, [0, 0, 0], holo=(k, l), h=h)
                    want = complex(jet.deriv(holo=(k, l)))
                    assert abs(fd - want) <= 1e-6 * max(1.0, abs(fd))


def test_float_metric_at_chart_point_matches_direct_values():
    p = [0.3 - 0.2j, 0.1 + 0.05j, -0.4 + 0.25j]
    m = charts.wallach_metric(point=p, exact=False)
    direct = wallach_metric_values(p)
    jets = np.array([[complex(m.g[i][j].value()) for j in range(3)] for i in range(3)])
    assert np.max(np.abs(direct - jets)) < 1e-12
    # first derivatives against finite differences at the shifted point
    for i in range(3):
        for j in range(3):
            fn = lambda z: wallach_metric_values(z)[i, j]
            for k in range(3):
                fd = wirtinger_fd(fn, list(p), holo=(k,))
                assert abs(fd - complex(m.g[i][j].deriv(holo=(k,)))) < 1e-6


def _point_tables(m):
    """Torsion, Chern curvature, the three Ricci tensors, r11 and r20 of m."""
    return (charts.chern_torsion_at(m), charts.chern_curvature_at(m),
            *charts.ricci_forms_at(m), *charts.riemannian_curvature_at(m))


def _assert_kinds_agree(exact_metric, float_metric, tol):
    for i, (exact, flt) in enumerate(zip(_point_tables(exact_metric),
                                         _point_tables(float_metric))):
        assert all(type(c) is EC for c in exact.flat), i
        assert flt.dtype == complex, i
        assert np.max(np.abs(flt - exact.astype(complex))) <= tol, i


def test_float_curvature_matches_exact(wallach_pc, wallach_float_pc):
    # every table of the two scalar kinds, entry by entry
    _assert_kinds_agree(wallach_pc, wallach_float_pc, 1e-14)


# rational chart points away from the origin, as exact and float coordinates
RATIONAL_POINTS = [((1, 0, 0), (1, 0, 0)),
                   ((Fraction(1, 2), Fraction(1, 3), EC.i()), (0.5, 1 / 3, 1j))]


@pytest.mark.parametrize("point, fpoint", RATIONAL_POINTS)
def test_exact_flag_metric_off_origin(point, fpoint):
    # the metric is homogeneous: at every rational point the exact jets give
    # Ricci curvature 5/2 along each frame direction and along (1, 2, i), and
    # parallel torsion, with no rounding
    m = charts.wallach_metric(point=point)
    assert m.kind is EXACT and not _identity_base(m)
    dirs = [[u if k == i else 0 for k in range(3)] for i in range(3) for u in (1, EC.i())]
    assert charts.ricci_curvature(m, dirs + [(1, 2, EC.i())]).tolist() == \
        [Fraction(5, 2)] * 7
    assert not any(r.any() for r in charts.btp_residual_at(m))
    _assert_kinds_agree(m, charts.wallach_metric(point=fpoint, exact=False), 1e-12)


def test_exact_builders_read_real_arguments_exactly():
    for m in (charts.wallach_metric(sigma_scale=0.5),
              charts.wallach_metric(sigma_scale="1/2")):
        assert m.g == charts.wallach_metric(sigma_scale=Fraction(1, 2)).g
    fs = charts.fubini_study_metric(point=[0.5, 0, 0])
    assert fs.g == charts.fubini_study_metric(point=["1/2", 0, 0]).g
    assert fs.G[0][0] == Fraction(16, 25)    # 1 / (1 + 1/4)^2


def test_exact_normalized_sectional_stays_rational_at_any_scale():
    # the float degeneracy bound is never formed from exact data
    m = charts.euclidean_metric(3)
    big = Fraction(10 ** 200)
    assert charts.sectional_curvature(m, [big, 0, 0], [0, big, 0]) == 0
    with pytest.raises(charts.DegeneratePlaneError):
        charts.sectional_curvature(m, [big, 0, 0], [2 * big, 0, 0])


def test_chart_metric_validation():
    one = Jet2.constant(2, EC(1))
    zero = Jet2(2)
    # non-hermitian off-diagonal pair
    with pytest.raises(ValueError):
        charts.ChartMetric(2, [[one, Jet2.constant(2, EC(0, 1))], [zero, one]])
    # hermitian but indefinite at the base point
    neg = Jet2.constant(2, EC(-1))
    with pytest.raises(ValueError):
        charts.ChartMetric(2, [[one, zero], [zero, neg]])
    # float, with a zero jet where the kind used to be read
    fone, fzero = Jet2.constant(2, 1 + 0j), Jet2(2, kind=FLOAT)
    with pytest.raises(ValueError):
        charts.ChartMetric(2, [[fzero, fone], [fone, fone]])
    assert not charts.ChartMetric(2, [[fone, fzero], [fzero, fone]]).kind.exact
    # jets of two kinds: an exact zero among float jets, or the reverse
    for g in ([[fone, zero], [zero, fone]], [[one, fzero], [fzero, one]],
              [[one, zero], [zero, fone]]):
        with pytest.raises(TypeError, match="one scalar kind"):
            charts.ChartMetric(2, g)


def _hermitian_over_ordered_pairs(g, kind):
    """The hermitian rule over all n^2 ordered pairs (i, j), each with the
    float tolerance 1e-10 * max(|g_ij|, 1) of its first jet."""
    n = len(g)
    return all(kind.negligible(c, 1e-10 * max(g[i][j].norm_inf(), 1.0))
               for i in range(n) for j in range(n)
               for c in (g[i][j] - g[j][i].conj()).terms.values())


def _off_diagonal_metric(scale, pair, delta, kind):
    """A positive 3 x 3 metric whose off-diagonal jets are scale * (1 + i z1),
    hermitian but for delta added to the z2bar coefficient of the jet at pair."""
    c = kind.scalar(scale)
    diag = Jet2.constant(3, c * 5 + 1)
    upper = (Jet2.constant(3, kind.one) + Jet2.variable(3, 0, kind).scale(kind.i)).scale(c)
    g = [[diag if i == j else upper if i < j else upper.conj() for j in range(3)]
         for i in range(3)]
    i, j = pair
    g[i][j] = g[i][j] + Jet2.variable(3, 4, kind).scale(kind.scalar(delta))
    return g


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
def test_hermitian_check_finds_a_mismatch_in_either_triangle(pair):
    # the check reads each unordered pair once, so a mismatch in the lower
    # triangle is found as surely as one in the upper
    for kind, delta, hermitian in ((FLOAT, 1e-6, False), (FLOAT, 1e-12, True),
                                   (EXACT, Fraction(1, 10 ** 12), False),
                                   (EXACT, 0, True)):
        g = _off_diagonal_metric(1, pair, delta, kind)
        assert _hermitian_over_ordered_pairs(g, kind) is hermitian
        if hermitian:
            assert charts.ChartMetric(3, g).kind is kind
        else:
            with pytest.raises(ValueError, match="hermitian"):
                charts.ChartMetric(3, g)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]),
       st.integers(-3, 8), st.floats(-13.5, -9.0))
def test_hermitian_check_accepts_what_the_ordered_pairs_accept(pair, log_scale, log_delta):
    # tolerances near the bound at scales from 1e-3 to 1e8: one check per
    # unordered pair accepts exactly the metrics the n^2 ordered checks accept
    scale = 10.0 ** log_scale
    g = _off_diagonal_metric(scale, pair, scale * 10.0 ** log_delta, FLOAT)
    if _hermitian_over_ordered_pairs(g, FLOAT):
        charts.ChartMetric(3, g)
    else:
        with pytest.raises(ValueError, match="hermitian"):
            charts.ChartMetric(3, g)


def test_chart_metric_checks_the_dimension_of_its_jets():
    one3, zero3 = Jet2.constant(3, EC(1)), Jet2(3)
    one, zero = Jet2.constant(2, EC(1)), Jet2(2)
    # g_{1 1bar} = 1 + z1 z1bar in three variables, whose z1bar would be read
    # as z2bar of a two-variable chart
    g11 = one3 + Jet2.variable(3, 0) * Jet2.variable(3, 3)
    for n, g in ((2, [[g11, zero3], [zero3, one3]]), (3, [[one, zero], [zero, one]]),
                 (3, [[one3] * 3] * 2), (2, [[one, zero], [zero]]),
                 (2, [[one, zero], [zero, EC(1)]])):
        with pytest.raises(ValueError, match="grid of jets"):
            charts.ChartMetric(n, g)
    g11 = one + Jet2.variable(2, 0) * Jet2.variable(2, 2)
    Rc = charts.chern_curvature_at(charts.ChartMetric(2, [[g11, zero], [zero, one]]))
    assert (Rc[0, 0, 0, 0], Rc[0, 1, 0, 0]) == (-1, 0)


@st.composite
def hermitian_matrices(draw):
    """n <= 3, drawn entry by entry or as a Gram matrix B^H B of k <= n rows,
    which is singular for k < n; both give zero leading minors often."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        H = [[EC.zero()] * n for _ in range(n)]
        for i in range(n):
            H[i][i] = EC(draw(small_rational))
            for j in range(i + 1, n):
                H[i][j] = draw(small_exact)
                H[j][i] = H[i][j].conjugate()
        return H
    k = draw(st.integers(0, n))
    B = draw(st.lists(st.lists(small_exact, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum((B[t][i].conjugate() * B[t][j] for t in range(k)), EC.zero())
             for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(hermitian_matrices())
@example([[EC(0), EC(0)], [EC(0), EC(1)]])
@example([[EC(1), EC(1)], [EC(1), EC(1)]])
@example([[EC(1), EC(0), EC(0)], [EC(0), EC(0), EC(1)], [EC(0), EC(1), EC(2)]])
def test_exact_positivity_matches_sylvester_cofactors(H):
    n = len(H)
    g = [[Jet2.constant(n, c) for c in row] for row in H]
    try:
        charts.ChartMetric(n, g)
        definite = True
    except ValueError:
        definite = False
    assert definite == sylvester_positive_definite(H)


# ---- builders: point length, finite jets, the unchecked route ------------------

@pytest.mark.parametrize("build", [
    lambda point: charts.wallach_metric(point=point),
    lambda point: charts.wallach_metric(point=point, exact=False),
    lambda point: charts.fubini_study_metric(3, point=point),
    lambda point: charts.fubini_study_metric(3, exact=False, point=point)])
@pytest.mark.parametrize("point", [[1, 2], [0, 0, 0, 0], []])
def test_builders_reject_a_point_of_the_wrong_length(build, point):
    with pytest.raises(ValueError, match=f"n=3 has 3 coordinates, not {len(point)}"):
        build(point)


def test_fubini_study_point_length_follows_n():
    assert charts.fubini_study_metric(2, point=[1, "1/2"]).n == 2
    with pytest.raises(ValueError, match="n=2 has 2 coordinates, not 3"):
        charts.fubini_study_metric(2, point=[1, 0, 0])


@pytest.mark.parametrize("build", [
    lambda: charts.wallach_metric(point=[1e308, 0, 0], exact=False),
    lambda: charts.fubini_study_metric(3, exact=False, point=[1e200, 0, 0])])
def test_chart_metric_rejects_non_finite_jets(build):
    # |z1|^2 overflows, and inf - inf is nan: named as such, not as a
    # failed hermitian test
    with pytest.raises(ValueError, match="finite coefficients"):
        build()
    one, zero = Jet2.constant(2, 1 + 0j), Jet2(2, kind=FLOAT)
    for bad in (float("inf"), float("nan"), complex(0, float("-inf"))):
        g11 = one + Jet2.variable(2, 0, FLOAT).scale(bad)
        with pytest.raises(ValueError, match="finite coefficients"):
            charts.ChartMetric(2, [[g11, zero], [zero, one]])


# off-origin chart points: float with every coordinate complex, and exact
BUILDER_POINTS = [(False, [0.3 - 0.2j, 1.5 + 0.7j, -0.4 + 1.1j]),
                  (False, [2.0, -1 + 0.5j, 0.25j]),
                  (True, [Fraction(1, 2), EC(0, -1), EC(Fraction(-1, 3), 2)]),
                  (True, ["2", "-3/7", 1])]
BUILDERS = [lambda point, exact: charts.wallach_metric(point=point, exact=exact),
            lambda point, exact: charts.fubini_study_metric(3, exact=exact, point=point)]


@pytest.mark.parametrize("exact, point", BUILDER_POINTS)
@pytest.mark.parametrize("build", BUILDERS)
def test_metric_jets_equal_the_validating_route(monkeypatch, build, exact, point):
    # every jet term, bit for bit and in the same key order, as when the
    # coordinate, conjugate and reciprocal jets are built through the
    # validating constructor
    terms = lambda m: repr([[list(f.terms.items()) for f in row] for row in m.g])
    got = build(point, exact)
    monkeypatch.setattr(charts, "_coords", coords_checked)
    monkeypatch.setattr(Jet2, "conj", jet_conj_checked)
    monkeypatch.setattr(Jet2, "reciprocal", jet_reciprocal_checked)
    want = build(point, exact)
    assert got.kind is want.kind is (EXACT if exact else FLOAT)
    assert terms(got) == terms(want)


def _leaves_per_scalar(a):
    return repr(np.frompyfunc(scalar_to_json, 1, 1)(a).tolist())


@pytest.mark.parametrize("exact, point", BUILDER_POINTS + [(False, None), (True, None)])
@pytest.mark.parametrize("build", BUILDERS)
def test_point_report_leaves_are_the_scalar_writer_s(build, exact, point):
    m = build(point, exact)
    report = charts.point_report(m)
    r11, r20 = charts.riemannian_curvature_at(m)
    tables = dict(zip(("chern_ricci_1", "chern_ricci_2", "chern_ricci_3"),
                      charts.ricci_forms_at(m)),
                  torsion=charts.chern_torsion_at(m),
                  chern_curvature=charts.chern_curvature_at(m),
                  riemannian_11=r11, riemannian_20=r20)
    assert sorted(report) == sorted([*tables, "n", "scalar_kind"])
    for name, a in tables.items():
        assert repr(report[name]) == _leaves_per_scalar(a), name
    if not exact and point is not None:
        # off the origin the float tables have {re, im} leaves
        assert any(isinstance(x, dict) for x in np.ravel(np.array(
            report["chern_curvature"], dtype=object)))
