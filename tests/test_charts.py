"""Chart-metric extraction: golden tables, oracles, and error contracts."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import (btp_residual_loop, chern_curvature_loop, random_chart_metric,
                      random_curvature_tables, ricci_frame_sum, sectional_closed_form,
                      sectional_numerator_loop, sylvester_positive_definite, torsion_loop,
                      wirtinger_fd)
from btpgeo import charts
from btpgeo.jets import Jet2
from btpgeo.goldens import expected_wallach_r11, expected_wallach_rc
from btpgeo.scalars import EC


# ---- golden metric jets -------------------------------------------------------

def test_wallach_base_values(wallach_exact):
    m = wallach_exact
    assert m.has_identity_base()
    dg = charts._first_derivs(m)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want = EC(1) if (i, j, k) == (2, 1, 0) else EC.zero()
                assert dg[i][j][k] == want


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
    assert charts._max_abs4(res_h) == 0
    assert charts._max_abs4(res_a) == 0


def test_euclidean_btp_residuals_zero():
    res_h, res_a = charts.btp_residual_at(charts.euclidean_metric(3))
    assert charts._max_abs4(res_h) == 0 and charts._max_abs4(res_a) == 0


def test_scaled_correction_breaks_parallelism():
    # halving the correction term spoils both the unitary base frame and,
    # after re-orthonormalizing, the parallel-torsion identities
    m = charts.wallach_metric(exact=False, sigma_scale=0.5)
    assert not m.has_identity_base()
    with pytest.raises(charts.BaseMetricError):
        charts.btp_residual_at(m)
    mo = charts.orthonormalize_base(m)
    assert mo.has_identity_base(tol=1e-12)
    res_h, res_a = charts.btp_residual_at(mo)
    assert max(charts._max_abs4(res_h), charts._max_abs4(res_a)) > 1e-3
    with pytest.raises(charts.UnsupportedMetricError):
        charts.riemannian_curvature_at(mo)


def test_orthonormalize_preserves_geometry():
    # orthonormalizing the untouched metric must not disturb the residuals
    m = charts.orthonormalize_base(charts.wallach_metric(exact=False))
    res_h, res_a = charts.btp_residual_at(m)
    assert max(charts._max_abs4(res_h), charts._max_abs4(res_a)) < 1e-12


def test_identity_base_precondition():
    mf = charts.wallach_metric(exact=False, point=[0.2, 0.1j, -0.3])
    with pytest.raises(charts.BaseMetricError):
        charts.btp_residual_at(mf)


@pytest.mark.parametrize("point", [[0.2, 0.1j, -0.3], [0.3 + 0.1j, -0.2, 0.5j],
                                   [1.5 - 2j, 0.7j, -0.4 + 0.9j]])
def test_orthonormalize_at_non_real_points(point):
    # the metric is homogeneous, so every chart point gives the same geometry
    m = charts.orthonormalize_base(charts.wallach_metric(exact=False, point=point))
    assert m.has_identity_base(tol=1e-12)
    pc = charts.riemannian_curvature_at(m)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    assert np.max(np.abs(charts.ricci_curvature(pc, X) - 2.5)) < 1e-9


# ---- the jet route as an independent oracle ----------------------------------------

# a positive definite base value for the routes that do not need g(0) = I
EXACT_BASE = [[EC(2), EC(Fraction(1, 2), Fraction(1, 3)), EC(0)],
              [EC(Fraction(1, 2), Fraction(-1, 3)), EC(3), EC(Fraction(1, 4))],
              [EC(0), EC(Fraction(1, 4)), EC(1)]]
FLOAT_BASE = [[complex(c) for c in row] for row in EXACT_BASE]


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
    assert min(charts._max_abs4(w) for w in want) > 0.1
    for got, w in zip(charts.btp_residual_at(m), want):
        _assert_close(got, w)
    m = random_chart_metric(rng, exact=False, base=FLOAT_BASE)
    _assert_close(charts.chern_torsion_at(m), torsion_loop(m))
    _assert_close(charts.chern_curvature_at(m), chern_curvature_loop(m))


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_extraction_matches_jet_route(seed):
    rng = np.random.default_rng(seed)
    m = random_chart_metric(rng, exact=True)
    T = charts.chern_torsion_at(m)
    assert all(type(c) is EC for a in T for b in a for c in b)
    assert T == torsion_loop(m)
    assert charts.chern_curvature_at(m) == chern_curvature_loop(m)
    res_h, res_a = btp_residual_loop(m)
    assert charts._max_abs4(res_h) > 0 and charts._max_abs4(res_a) > 0
    assert charts.btp_residual_at(m) == (res_h, res_a)
    m = random_chart_metric(rng, exact=True, base=EXACT_BASE)
    assert charts.chern_torsion_at(m) == torsion_loop(m)
    assert charts.chern_curvature_at(m) == chern_curvature_loop(m)


# ---- Levi-Civita side ---------------------------------------------------------------

def test_wallach_riemannian_table(wallach_pc):
    pc = wallach_pc
    for k in range(3):
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    assert pc.r11[k][l][i][j] == EC(expected_wallach_r11(k, l, i, j), 0), \
                        (k, l, i, j)
    assert charts._max_abs4(pc.r20) == 0


def test_riemannian_pair_symmetry(wallach_pc):
    pc = wallach_pc
    for k in range(3):
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    assert pc.r11[k][l][i][j] == pc.r11[i][j][k][l]


def test_pair_relations(wallach_pc):
    pc = wallach_pc
    for i in range(3):
        for k in range(3):
            if i == k:
                continue
            a = pc.r11[i][i][k][k].re
            b = pc.r11[i][k][k][i].re
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
    assert charts.sectional_curvature(wallach_pc, (1, 0, 0), (0, 1, 0)) == Fraction(1, 2)


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
    pc = wallach_float_pc
    with pytest.raises(ValueError):
        charts.sectional_numerator(pc, np.ones((4, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError):
        charts.sectional_numerator(pc, np.ones((4, 3)), np.ones((5, 3)))
    with pytest.raises(charts.DegeneratePlaneError):
        charts.ricci_curvature(pc, [[1, 0, 0], [0, 0, 0]])


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
    assert charts.sectional_curvature(wallach_pc, X, Y) == 0
    # normalized mode rejects a genuinely degenerate plane
    with pytest.raises(charts.DegeneratePlaneError):
        charts.sectional_curvature(wallach_pc, (1, 0, 0), (1, 0, 0), normalized=True)


def test_sectional_antisymmetry_trivial(wallach_pc):
    assert charts.sectional_curvature(wallach_pc, (1, 2, 3), (1, 2, 3)) == 0


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
    pc = charts.riemannian_curvature_at(charts.euclidean_metric(3))
    assert charts.ricci_curvature(pc, (1, 0, 0)) == 0


# ---- explicit sums as oracles on generic tables --------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float_sectional_and_ricci_match_explicit_sums(seed):
    # generic tables: no index symmetry can hide a wrong index
    rng = np.random.default_rng(seed)
    pc = random_curvature_tables(rng, exact=False, hermitian=False)
    X = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    Y = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    _assert_close(charts.sectional_numerator(pc, X, Y) + 0j,
                  [sectional_numerator_loop(pc, x, y) for x, y in zip(X, Y)])
    _assert_close(charts.ricci_curvature(pc, X) + 0j, [ricci_frame_sum(pc, x) for x in X])


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_sectional_and_ricci_match_explicit_sums(seed):
    rng = np.random.default_rng(seed)
    pc = random_curvature_tables(rng, exact=True, hermitian=True)
    nums = charts.sectional_numerator(pc, [x for x, _ in RATIONAL_PLANES],
                                      [y for _, y in RATIONAL_PLANES])
    rics = charts.ricci_curvature(pc, [x for x, _ in RATIONAL_PLANES])
    for (x, y), num, ric in zip(RATIONAL_PLANES, nums, rics):
        assert type(num) is Fraction and num == sectional_numerator_loop(pc, x, y)
        assert charts.sectional_numerator(pc, x, y) == num
        assert type(ric) is Fraction and ric == ricci_frame_sum(pc, x)
        assert charts.ricci_curvature(pc, x) == ric


def test_exact_non_real_sectional_value_raises():
    pc = random_curvature_tables(np.random.default_rng(3), exact=True, hermitian=False)
    x, y = RATIONAL_PLANES[2]
    with pytest.raises(ArithmeticError):
        sectional_numerator_loop(pc, x, y)
    with pytest.raises(ArithmeticError):
        charts.sectional_numerator(pc, x, y)
    with pytest.raises(ArithmeticError):
        charts.ricci_curvature(pc, x)


def test_exact_directions_reject_float_components(wallach_pc):
    with pytest.raises(TypeError):
        charts.sectional_numerator(wallach_pc, (1.0, 0, 0), (0, 1, 0))
    with pytest.raises(TypeError):
        charts.ricci_curvature(wallach_pc, (1j, 0, 0))


# ---- normalized sectional curvature ----------------------------------------------------

@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_normalized_sectional_does_not_depend_on_scale(wallach_float_pc, scale):
    pc = wallach_float_pc
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    X = np.vstack([X, [1, 1, 1]])
    Y = np.vstack([Y, [0, 1, 0]])
    want = charts.sectional_curvature(pc, X, Y, normalized=True)
    assert want[-1] == pytest.approx(0.125, rel=1e-12)
    for got in (charts.sectional_curvature(pc, scale * X, Y, normalized=True),
                charts.sectional_curvature(pc, X, scale * Y, normalized=True),
                charts.sectional_curvature(pc, scale * X, scale * Y, normalized=True)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_normalized_sectional_stack_matches_single_planes(wallach_pc, wallach_float_pc):
    # the second rational plane has a zero numerator, which a relative
    # tolerance cannot compare in float
    planes = RATIONAL_PLANES[:1] + RATIONAL_PLANES[2:]
    X, Y = [x for x, _ in planes], [y for _, y in planes]
    vals = charts.sectional_curvature(wallach_pc, X, Y, normalized=True)
    assert vals[0] == Fraction(1, 8)
    for x, y, v in zip(X, Y, vals):
        assert charts.sectional_curvature(wallach_pc, x, y, normalized=True) == v
    Xf = np.array([[complex(c) for c in x] for x in X])
    Yf = np.array([[complex(c) for c in y] for y in Y])
    fvals = charts.sectional_curvature(wallach_float_pc, Xf, Yf, normalized=True)
    assert fvals.shape == (len(planes),)
    for x, y, fv, v in zip(Xf, Yf, fvals, vals):
        single = charts.sectional_curvature(wallach_float_pc, x, y, normalized=True)
        assert type(single) is float and single == pytest.approx(fv, rel=1e-14)
        assert fv == pytest.approx(float(v), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_normalized_sectional_rejects_parallel_directions(wallach_float_pc, scale):
    X = scale * np.array([1 + 2j, -0.5, 3j])
    with pytest.raises(charts.DegeneratePlaneError):
        charts.sectional_curvature(wallach_float_pc, X, -2.5 * X, normalized=True)
    # one degenerate row in a stack is enough
    for Y in (3 * X, -0.5 * X):
        with pytest.raises(charts.DegeneratePlaneError):
            charts.sectional_curvature(wallach_float_pc, [[1, 0, 0], X], [[0, 1, 0], Y],
                                       normalized=True)


# ---- float path and the finite-difference oracle -------------------------------------

def test_jet_coefficients_match_finite_differences(wallach_exact):
    # every coefficient slot of every component against central differences
    h = 1e-4
    for i in range(3):
        for j in range(3):
            fn = lambda z: charts.wallach_metric_values(z)[i, j]
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
    direct = charts.wallach_metric_values(p)
    jets = np.array([[complex(m.g[i][j].value()) for j in range(3)] for i in range(3)])
    assert np.max(np.abs(direct - jets)) < 1e-12
    # first derivatives against finite differences at the shifted point
    for i in range(3):
        for j in range(3):
            fn = lambda z: charts.wallach_metric_values(z)[i, j]
            for k in range(3):
                fd = wirtinger_fd(fn, list(p), holo=(k,))
                assert abs(fd - complex(m.g[i][j].deriv(holo=(k,)))) < 1e-6


def test_float_curvature_matches_exact(wallach_pc, wallach_float_pc):
    # every table of the two scalar kinds, entry by entry
    for name in ("torsion", "rc", "ric1", "ric2", "ric3", "r11", "r20"):
        exact = np.array(getattr(wallach_pc, name), dtype=object)
        flt = np.array(getattr(wallach_float_pc, name), dtype=object)
        assert all(type(c) is EC for c in exact.flat), name
        assert all(type(c) is complex for c in flt.flat), name
        diff = flt.astype(complex) - exact.astype(complex)
        assert np.max(np.abs(diff)) <= 1e-14, name


def test_exact_mode_rejects_off_origin():
    with pytest.raises(ValueError):
        charts.wallach_metric(point=[1, 0, 0], exact=True)


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
    fone = Jet2.constant(2, 1 + 0j)
    with pytest.raises(ValueError):
        charts.ChartMetric(2, [[zero, fone], [fone, fone]])
    assert not charts.ChartMetric(2, [[fone, zero], [zero, fone]]).exact


small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
small_exact = st.builds(EC, small_rational, small_rational)


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
