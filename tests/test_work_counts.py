"""Ceilings on the form work of one exact ``classify``, and the builds of
one CLI job.

Counters are patched onto the wedge kernel ``forms._wedge_terms``, which
``InvariantForm.wedge`` and each curvature entry call, ``exterior_d`` and
``lie.curvature_of`` while ``classify`` runs on an algebra built
beforehand.  ``classify`` never builds the whole Chern curvature matrix: it
computes the three diagonal entries, whose sum is the Chern Ricci form (9
wedges, 3 derivatives), and the off-diagonal ones only while every entry so
far vanishes, so only a Chern-flat algebra such as sl2c pays for all nine
(27 wedges, 9 derivatives).  The Bismut Ricci form needs only d(tr theta^b),
one more derivative.  A change that brings back the full Bismut or Chern
curvature or another redundant form product fails here without any timing.
The ``ExactComplex`` multiplies and adds of one ``classify`` are pinned too:
the Lie-side tables read the nonzero entries of C, D and T, so a table that
walks the dense n^3 cube changes the count.  So are those of the five exact
chart tables of the flag metric at its origin and of one
``verify --example wallach`` job, so that a return to dense contraction
fails without any timing, and so are the jets one flag metric builds, so
that a return to a jet per sum, difference and product fails too.

The report writer's calls are pinned for a float ``wallach`` report: each
chart table reaches ``cli._write`` as one ``JsonTable`` and is written in
one fill of a template, so a return to one writer call per nested list
fails without any timing.

Torsion, connections, the bracket table and chart tables are ``memoized`` on
their algebra or metric.  The job tests count the runs of each memoized
body, which the memo calls as ``__wrapped__``, so a job that asks a question
twice of one structure still builds what it reads once.  A CLI call of
well-formed argv builds no argparse parser, and no call keeps one.
"""

import argparse
import gc
import pathlib
import weakref
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest

import numpy as np

from btpgeo import charts, cli, forms, frames, lie, scalars
from btpgeo.cli import main
from btpgeo.scalars import EC, EXACT, FLOAT

DATA = pathlib.Path(__file__).parent / "data"

# (algebra, ceilings): a middle-type algebra stops at the Chern diagonal
CEILINGS = [
    (lie.family_a(Fraction(1, 2), Fraction(1, 3)),
     {"curvature_of": 0, "wedge": 9, "exterior_d": 4}),
    (lie.sl2c(), {"curvature_of": 0, "wedge": 27, "exterior_d": 10}),
]


def _counter(calls):
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


def test_classify_form_work_within_ceilings(monkeypatch):
    calls = Counter()
    counted = _counter(calls)

    wedge_terms = counted("wedge", forms._wedge_terms)
    for module in (forms, lie):         # lie imports the kernel by name
        monkeypatch.setattr(module, "_wedge_terms", wedge_terms)
    exterior_d = counted("exterior_d", forms.exterior_d)
    for module in (forms, lie):         # lie imports exterior_d by name
        monkeypatch.setattr(module, "exterior_d", exterior_d)
    monkeypatch.setattr(lie, "curvature_of", counted("curvature_of", lie.curvature_of))
    for g, ceilings in CEILINGS:
        calls.clear()
        lie.classify(g)
        for name, ceiling in ceilings.items():
            assert calls[name] <= ceiling, (g.label, calls)


# (algebra, ExactComplex multiplies plus adds of one classify): every Lie-side
# table is read off the nonzero entries of C, D and T, so the counts follow
# those entries, not the n^3 cube
SCALAR_OPS = [
    (lie.nilmanifold_n3(), 53),
    (lie.family_a(Fraction(1, 2), Fraction(1, 3)), 161),
]


def _count_scalar_ops(monkeypatch):
    """A Counter whose "ops" counts every ExactComplex multiply and add from now on."""
    calls = Counter()
    counted = _counter(calls)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(EC, name, counted("ops", getattr(EC, name)))
    return calls


@pytest.mark.parametrize("g, ops", SCALAR_OPS, ids=[g.label for g, _ in SCALAR_OPS])
def test_classify_scalar_ops_are_pinned(monkeypatch, g, ops):
    g = lie.HermitianLieAlgebra(g.n, g.kind, g.C, g.D, label=g.label)  # no tables
    calls = _count_scalar_ops(monkeypatch)
    lie.classify(g)
    assert calls["ops"] == ops


# The exact chart tables are contracted over their nonzero entries: at the
# flag metric's origin G = I and dg has one nonzero entry, so the five tables
# take 95 multiplies and 45 adds, where numpy.einsum over the dense object
# arrays took 5076 and 6453 (and a verify --example wallach job 6767 and 7719).
CHART_TABLES = (charts.chern_torsion_at, charts.chern_curvature_at, charts.ricci_forms_at,
                charts.btp_residual_at, charts.riemannian_curvature_at)


def test_exact_flag_tables_scalar_ops_are_pinned(monkeypatch):
    m = charts.wallach_metric()
    calls = _count_scalar_ops(monkeypatch)
    for fn in CHART_TABLES:
        fn(m)
    assert calls["ops"] == 95 + 45


def test_verify_wallach_scalar_ops_are_pinned(monkeypatch, capsys):
    # multiplies + adds; the adds include one subtraction of the exact zero
    # per direction component (48), by which the exact engine reads them.
    # The flag metric's hermitian check subtracts no pair whose terms are
    # equal, and each reciprocal's series is summed without taking c0 - c0:
    # the chain of jet operations took 1706 + 1278.  The golden checks
    # compare maps of nonzero entries, and the direction stacks are
    # contracted against the nonzero entries of r11, r20 and the Ricci form:
    # the einsums over dense object arrays took 1706 + 1265
    calls = _count_scalar_ops(monkeypatch)
    assert main(["verify", "--example", "wallach"]) == 1        # criterion 4 stays red
    capsys.readouterr()
    assert calls["ops"] == 338 + 188


# The flag metric is built as maps of coefficients over the jet kernels, and
# only its entries become jets: 6 for i <= j, 3 conjugates for i > j, and the
# hermitian check of ChartMetric conjugates each of the 6 pairs once; a chain
# of jet operations, each its own jet, built 116.
@pytest.mark.parametrize("kind", [EXACT, FLOAT], ids=lambda k: k.name)
def test_flag_metric_jet_objects_are_pinned(monkeypatch, kind):
    built = Counter()
    new = scalars._new              # each Terms._of takes its object from it

    def counted(cls):
        built[cls.__name__] += 1
        return new(cls)
    monkeypatch.setattr(scalars, "_new", counted)
    charts.wallach_metric(kind=kind)
    assert built["Jet2"] == 6 + 3 + 6


def test_float_wallach_report_takes_one_writer_call_per_table(monkeypatch, capsys):
    # the report dict, the 7 chart tables and the refs list; one writer call
    # per nested list and dict leaf took 147 (444 for the exact report)
    calls = Counter()
    monkeypatch.setattr(cli, "_write", _counter(calls)("_write", cli._write))
    for argv in (["wallach", "--float"], ["wallach"]):
        calls.clear()
        assert main(argv) == 0
        assert calls["_write"] == 9, argv
    capsys.readouterr()


def test_classify_form_work_reaches_the_wedge_kernel(monkeypatch):
    # the ceilings above bound real work: a Chern-flat classify multiplies
    # out all 27 curvature products
    calls = Counter()
    monkeypatch.setattr(lie, "_wedge_terms", _counter(calls)("wedge", forms._wedge_terms))
    lie.classify(lie.sl2c())
    assert calls["wedge"] == 27


def test_solvability_reductions_stop_at_the_rank_of_the_term_before(monkeypatch):
    # a_st(1/2, 1/3): [g, g] has rank 5 in dim 6, so the lower central step
    # generates 6 x 5 = 30 products; the 5th independent one decides that the
    # series has stabilized, and the products after it are never generated
    g = lie.family_a(Fraction(1, 2), Fraction(1, 3))
    reductions = []
    row_basis = lie.row_basis

    def counted(vectors, kind, max_rank=None):
        read = []
        basis = row_basis((read.append(v) or v for v in vectors), kind, max_rank)
        reductions.append((len(read), max_rank, len(basis)))
        return basis
    monkeypatch.setattr(lie, "row_basis", counted)
    assert lie.solvability_profile(g) == (None, 3)
    (_, _, first), (lower_read, lower_bound, lower_rank) = reductions[:2]
    assert (first, lower_bound, lower_rank) == (5, 5, 5)
    assert lower_read == 15 < 6 * first


def test_classify_sums_only_the_residuals_with_i_below_k(monkeypatch):
    # R_{kji} = -R_{ijk} and R_{iji} = 0, so n = 3 needs 9 of the 27 residuals
    maps = []
    residuals_from = lie._btp_residuals_from

    def kept(*args):
        maps.append(residuals_from(*args))
        return maps[-1]
    monkeypatch.setattr(lie, "_btp_residuals_from", kept)
    lie.classify(lie.nilmanifold_n3())
    assert [len(m) for m in maps] == [9]


def test_companion_swaps_once(monkeypatch, capsys):
    calls = Counter()
    counted = _counter(calls)
    monkeypatch.setattr(lie, "conjugate_swap", counted("conjugate_swap", lie.conjugate_swap))
    monkeypatch.setattr(lie, "d_squared_residual",
                        counted("d_squared_residual", lie.d_squared_residual))
    assert main(["companion", "--example", "n3", "--swap", "2"]) == 0
    capsys.readouterr()
    assert calls == {"conjugate_swap": 1, "d_squared_residual": 2}


def _count_bodies(monkeypatch, calls, *memoized):
    """Count the runs of each memoized body under its function's name."""
    counted = _counter(calls)
    for fn in memoized:
        monkeypatch.setattr(fn, "__wrapped__", counted(fn.__name__, fn.__wrapped__))


def test_verify_n3_builds_torsion_and_connections_once(monkeypatch, capsys):
    calls = Counter()
    _count_bodies(monkeypatch, calls, lie.chern_torsion)
    monkeypatch.setattr(lie, "_connection_from",
                        _counter(calls)("_connection_from", lie._connection_from))
    assert main(["verify", "--example", "n3"]) == 0
    capsys.readouterr()
    # classify, the Bismut curvature and the pluriclosed obstruction share
    # one map of the torsion;
    # _connection_from builds the Chern and the Bismut connection
    assert calls == {"chern_torsion": 1, "_connection_from": 2}


def test_companion_builds_one_bismut_connection_per_algebra(monkeypatch, capsys):
    calls, built = Counter(), Counter()
    body = lie.bismut_connection.__wrapped__
    monkeypatch.setattr(lie.bismut_connection, "__wrapped__",
                        lambda g: built.update([g.label]) or body(g))
    monkeypatch.setattr(lie, "_connection_from",
                        _counter(calls)("_connection_from", lie._connection_from))
    assert main(["companion", "--example", "n3", "--swap", "2"]) == 0
    capsys.readouterr()
    # the swap check and classify read the same connection of each algebra;
    # _connection_from builds the Chern and the Bismut connection of each
    assert built == {"n3": 1, "n3~swap[2]": 1}
    assert calls == {"_connection_from": 4}


def test_companion_builds_one_bracket_table_per_algebra(monkeypatch, capsys):
    built = Counter()
    body = lie.real_bracket_table.__wrapped__
    monkeypatch.setattr(lie.real_bracket_table, "__wrapped__",
                        lambda g: built.update([g.label]) or body(g))
    assert main(["companion", "--example", "n3", "--swap", "2"]) == 0
    capsys.readouterr()
    # the swap and the solvability profile of the original read one table
    assert built == {"n3": 1, "n3~swap[2]": 1}


def _chart_builds(monkeypatch, capsys, argv, code):
    """The jet reads and chart-table builds of one CLI call, by name."""
    calls = Counter()
    monkeypatch.setattr(charts, "_jet_coefficients",
                        _counter(calls)("_jet_coefficients", charts._jet_coefficients))
    _count_bodies(monkeypatch, calls, charts.chern_torsion_at, charts.chern_curvature_at,
                  charts.ricci_forms_at, charts.btp_residual_at,
                  charts.riemannian_curvature_at)
    assert main(argv) == code
    capsys.readouterr()
    return calls


def test_verify_wallach_builds_each_chart_table_once(monkeypatch, capsys):
    # criterion 4 stays red
    calls = _chart_builds(monkeypatch, capsys, ["verify", "--example", "wallach"], 1)
    # the metric reads its jets once; the Levi-Civita table check, the two
    # sectional checks and the stacked Ricci evaluation of the twelve frame
    # directions read the one memoized (r11, r20) pair of the metric
    assert calls == {"_jet_coefficients": 1, "chern_torsion_at": 1, "chern_curvature_at": 1,
                     "ricci_forms_at": 1, "btp_residual_at": 1, "riemannian_curvature_at": 1}


@pytest.mark.parametrize("argv", [["wallach"],
                                  ["wallach", "--float", "--seed", "1", "--samples", "10"]])
def test_wallach_report_builds_no_residuals(monkeypatch, capsys, argv):
    calls = _chart_builds(monkeypatch, capsys, argv, 0)
    # the Levi-Civita curvature is read from the jets of one metric, with no
    # parallel-torsion check first; the float run samples that same metric
    assert calls == {"_jet_coefficients": 1, "chern_torsion_at": 1, "chern_curvature_at": 1,
                     "ricci_forms_at": 1, "riemannian_curvature_at": 1}


def test_verify_sl2c_recovers_its_ten_frames_in_one_pass(monkeypatch, capsys):
    # the ten scrambled torsions are one stack: one QR of the ten unitaries,
    # one transform by them, one special-frame pass with one Takagi
    # factorization and one transform by its unitaries, the phase fixes and
    # the sort being applied as diagonal and permutation frame changes
    # directly (four transforms before); one at a time took 10, 10, 10 and 50
    calls = Counter()
    counted = _counter(calls)
    for name in ("build_special_frame", "takagi_factorize", "transform_torsion"):
        monkeypatch.setattr(frames, name, counted(name, getattr(frames, name)))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    assert main(["verify", "--example", "sl2c"]) == 0
    capsys.readouterr()
    assert calls == {"build_special_frame": 1, "takagi_factorize": 1, "qr": 1,
                     "transform_torsion": 2}


def test_main_builds_an_argparse_parser_only_for_argv_it_cannot_read(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["classify", "--input", str(DATA / "n3.json")]
    assert main(argv) == 0
    assert main(argv) == 0
    assert built == []      # well-formed argv is read without argparse
    # the top-level parser reads a '--' right after the command, and the
    # command's options are then read directly
    assert main(["classify", "--", *argv[1:]]) == 0
    assert len(built) == 1
    # a usage error builds the command's parser
    with pytest.raises(SystemExit):
        main([*argv, "--bogus"])
    capsys.readouterr()
    assert len(built) == 2
    gc.collect()
    assert [ref() for ref in built] == [None, None]      # none is kept for the next call


def test_build_parser_takes_no_arguments():
    # the benchmark's setup timing builds the parser this way
    top = cli.build_parser().parse_args(["classify", "--input", "x"])
    assert (top.command, top.args) == ("classify", ["--input", "x"])


def test_memo_lives_on_its_object():
    g, h = lie.nilmanifold_n3(1), lie.nilmanifold_n3(1)
    assert g.C == h.C and g.D == h.D
    for fn in (lie.chern_torsion, lie.chern_connection,
               lie.bismut_connection, lie.real_bracket_table):
        assert fn(g) is fn(g)
        assert fn(g) is not fn(h)       # equal data built apart share nothing
    assert g._memo is not h._memo
    assert isinstance(lie.real_bracket_table(g)[0][3], tuple)


def test_cached_chart_tables_are_read_only():
    m = charts.wallach_metric()
    tables = (charts.chern_torsion_at, charts.chern_curvature_at, charts.ricci_forms_at,
              charts.btp_residual_at, charts.riemannian_curvature_at)
    for fn in tables:
        assert fn(m) is fn(m)
        assert fn(charts.wallach_metric()) is not fn(m)
    # the Levi-Civita pair is the same read-only pair on a second call
    r11, r20 = charts.riemannian_curvature_at(m)
    again = charts.riemannian_curvature_at(m)
    assert again[0] is r11 and again[1] is r20
    mf = charts.wallach_metric(kind=FLOAT)
    exact, flt = ([t for t in (charts.chern_torsion_at(p), charts.chern_curvature_at(p),
                               *charts.ricci_forms_at(p), *charts.riemannian_curvature_at(p))]
                  for p in (m, mf))
    # exact tables are read-only maps of their nonzero entries, float ones
    # read-only complex128 arrays
    assert all(type(t) is MappingProxyType for t in exact)
    assert [a.dtype for a in flt] == [complex] * 7
    # the metric's tables and the public functions' tables are the cached
    # tables themselves; a write to any of them raises
    for a in [m.G, m.Ginv, m.dg, m.dgb, m.hh, m.ha, m.gam, *charts.btp_residual_at(m), *exact]:
        with pytest.raises(TypeError):
            a[(0,) * 4] = 1
    for a in [mf.G, mf.Ginv, mf.dg, mf.dgb, mf.hh, mf.ha, mf.gam, *flt]:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1
    assert charts.chern_torsion_at(m)[1, 0, 2] == 1
