"""Tests of the benchmark itself: tiny runs, seeded inputs, error counting."""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from btpgeo import charts, cli, forms, lie, scalars  # noqa: E402
from btpgeo.scalars import EC  # noqa: E402
from btpbench import harness, tracing, workloads  # noqa: E402


def _tiny(workload, tmp_path, count=3):
    jobs = workloads.make_jobs(workload, 7, str(tmp_path))
    return jobs[:count]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_on_a_tiny_input_set(workload, tmp_path):
    jobs = _tiny(workload, tmp_path)
    run = harness.timed_passes(jobs, seed=7, seconds=0)
    assert len(run.passes) == 1
    assert run.attempted == len(jobs)
    assert all(ms > 0 for ms in run.passes[0].latencies)


@pytest.mark.parametrize("workload", ["lie_exact", "verify_suites", "float_sampling"])
def test_exact_workloads_pass_their_checks(workload, tmp_path):
    jobs = [j for j in workloads.make_jobs(workload, 3, str(tmp_path))
            if "wallach" not in j.name or workload == "float_sampling"][:6]
    assert harness.timed_passes(jobs, seed=3, seconds=0).failures == []


def test_lie_float_counts_the_scale_defect(tmp_path):
    """Float labels of non-sl2c inputs with a <= 1e-5 disagree with the exact label."""
    jobs = workloads.make_jobs("lie_float", 11, str(tmp_path))
    specs = workloads.algebra_specs(11)
    small = {i for i, s in enumerate(specs)
             if s.family != "sl2c" and s.a <= Fraction(1, 10**5)}
    failed = {i for i, job in enumerate(jobs) if harness.run_job(job).error is not None}
    assert failed == small


def test_one_seed_gives_byte_identical_inputs(tmp_path):
    def snapshot(d):
        jobs = workloads.make_jobs("lie_exact", 5, str(d))
        files = {f: open(os.path.join(d, f), "rb").read() for f in sorted(os.listdir(d))}
        return [j.argv[:2] for j in jobs], files
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")
    for w in ("verify_suites", "float_sampling"):
        assert ([j.argv for j in workloads.make_jobs(w, 5, str(tmp_path / "c"))]
                == [j.argv for j in workloads.make_jobs(w, 5, str(tmp_path / "d"))])
    other = workloads.make_jobs("float_sampling", 6, str(tmp_path / "e"))
    assert [j.argv for j in other] != [j.argv for j in workloads.make_jobs(
        "float_sampling", 5, str(tmp_path / "f"))]


def test_generated_json_matches_the_library_families():
    for spec in workloads.algebra_specs(2):
        g = lie.HermitianLieAlgebra.from_json(spec.to_json("x", exact=True))
        ref = {"a_st": lambda: lie.family_a(spec.s, spec.t, spec.a),
               "b_zt": lambda: lie.family_b(EC(spec.s, spec.z_im), spec.t, spec.a),
               "n3": lambda: lie.nilmanifold_n3(spec.a),
               "vaisman54": lambda: lie.vaisman_nilmanifold(spec.a),
               "sl2c": lambda: lie.sl2c(spec.a)}[spec.family]()
        assert (g.C, g.D) == (ref.C, ref.D)


def _output(job):
    assert harness.run_job(job).error is None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(job.argv))
    return rc, json.loads(buf.getvalue())


def test_a_flipped_coefficient_is_an_error(tmp_path):
    job = next(j for j in workloads.make_jobs("lie_exact", 1, str(tmp_path))
               if j.name.startswith("vaisman54"))
    rc, rep = _output(job)
    coef = rep["eta"][0]["coef"]
    coef["re"] = str(-Fraction(coef["re"]))
    assert job.check(rc, json.dumps(rep)) is not None


def test_a_passing_einstein_constant_is_an_error():
    job = next(j for j in workloads._verify_jobs(1) if j.name == "verify wallach")
    rc, rep = _output(job)
    for c in rep["checks"]:
        if c["name"] == "ricci.einstein_constant":
            c["passed"] = True
    rep["pass"] = True
    assert job.check(0, json.dumps(rep)) is not None
    assert job.check(rc, json.dumps(rep)) is not None


def test_a_wrong_curvature_entry_or_ricci_range_is_an_error(tmp_path):
    job = next(j for j in workloads._verify_jobs(1) if j.name == "wallach exact")
    rc, rep = _output(job)
    rep["riemannian_11"][0][0][2][2]["re"] = "1/2"
    assert "riemannian_11" in job.check(rc, json.dumps(rep))

    job = workloads._sampling_jobs(1)[0]
    rc, rep = _output(job)
    rep["sampling"]["ricci_range"][1] = 2.5 + 1e-6
    assert "ricci_range" in job.check(rc, json.dumps(rep))


def test_tail_rank_leaves_ten_inputs_beyond():
    assert harness.tail_rank(40) == (29, 75)
    with pytest.raises(ValueError):
        harness.tail_rank(10)


def test_traced_counts_repeat_and_tracer_uninstalls(tmp_path):
    before = (lie.classify, forms.InvariantForm.wedge, scalars.ExactComplex.__mul__,
              charts.jet_matrix_inverse)
    jobs = _tiny("lie_exact", tmp_path, 2) + _tiny("verify_suites", tmp_path / "v", 1)
    snaps = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            for job in jobs:
                assert harness.run_job(job).error is None
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
    assert snaps[0]["calls"] == snaps[1]["calls"]
    assert snaps[0]["calls"]["lie.classify"] >= 2
    assert snaps[0]["calls"]["scalars.mul"] > 0
    assert all(s >= 0 for s in snaps[0]["self_ms"].values())
    roots = {r["id"] for r in tracer.records if r["name"] == "cli.main"}
    assert len(roots) == len(jobs)
    assert {r["job"] for r in tracer.records} == roots
    assert before == (lie.classify, forms.InvariantForm.wedge,
                      scalars.ExactComplex.__mul__, charts.jet_matrix_inverse)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    run, metrics, info, _ = harness.traced_metrics(
        _tiny("lie_exact", tmp_path, 2), seed=7, seconds=0, workdir=str(tmp_path))
    assert sorted(metrics) == sorted(declared)
    assert info["count_mismatches"] == []
    assert run.failures == []


def test_an_in_process_cache_is_caught_by_the_cold_pass(tmp_path, monkeypatch):
    """A cache that skips work on repeated inputs changes the warm passes' counts."""
    memo = {}
    original = charts.wallach_metric

    def cached(**kwargs):
        key = tuple(sorted(kwargs.items()))
        if key not in memo:
            memo[key] = original(**kwargs)
        return memo[key]
    monkeypatch.setattr(charts, "wallach_metric", cached)
    job = next(j for j in workloads._verify_jobs(1) if j.name == "wallach exact")
    _, _, info, _ = harness.traced_metrics([job], seed=1, seconds=0, workdir=str(tmp_path))
    assert info["count_mismatches"]


def test_latencies_are_scaled_per_job_and_summarized_by_the_median_repeat():
    ref = harness.CALIB_REF_MS
    n = 12
    passes = [harness.PassResult(0.0, [10.0] * n, [], 0, [ref] * n),
              harness.PassResult(0.0, [20.0] * n, [], 0, [2 * ref] * n),  # slow host
              harness.PassResult(0.0, [1.0] * n, [], 0, [ref] * n)]       # one fast outlier
    metrics, _ = harness.end_to_end_metrics(harness.Run(passes), [(0.2, 0.05)])
    assert metrics["job_ms_p50"] == pytest.approx(10.0)
    assert metrics["job_ms_tail"] == pytest.approx(10.0)
    assert metrics["jobs_per_s"] == pytest.approx(3 * n / ((10 + 10 + 1) * n / 1e3))
