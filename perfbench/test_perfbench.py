"""Tests of the benchmark's own code: tracing counts, reference checks,
seeded job generation, the time metrics and the compare verdicts."""

import json
import os
import statistics
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import afmass.cli as cli  # noqa: E402
import afmass.mass  # noqa: E402
import afmass.metrics as metrics  # noqa: E402

import checks  # noqa: E402
import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def traced_job(tmp_path, job):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.run_job(cli, job, str(tmp_path / "job"), tracer)
    finally:
        tracer.uninstall()
    return tracer, result


def adm_job(spec, mass, radii, q):
    return Job(
        shape="test", n=spec["n"],
        config={"command": "adm-mass", "spec": spec, "radii": radii, "q": q},
        expect=(("close", "adm_mass.json", ("value",), mass, 1e-3, "abs"),),
    )


def stencil(n):
    """Metric evaluations per node of one mixed second-order FD stencil."""
    return 1 + 2 * n + 2 * n * (n - 1)


def test_adm_flux_called_once_per_radius(tmp_path):
    spec = {"n": 3, "family": "Schwarzschild", "params": {"m": 1.0}}
    tracer, result = traced_job(tmp_path, adm_job(spec, 1.0, [50, 100, 200, 400], 8))
    assert result.passed, result.problems
    assert tracer.stats["mass.adm_flux"].calls == 4
    assert tracer.stats["cli.main"].calls == 1


def test_uninstall_restores_originals():
    original = afmass.mass.adm_flux
    leggauss = np.polynomial.legendre.leggauss
    tracer = tracing.Tracer()
    tracer.install()
    assert afmass.mass.adm_flux is not original
    tracer.uninstall()
    assert afmass.mass.adm_flux is original
    assert np.polynomial.legendre.leggauss is leggauss


# The two FD tests pin the cost at the commit that defined the benchmark;
# a change that builds each stencil once updates them with its saving.
@pytest.mark.parametrize("n", [3, 4])
def test_fd_second_derivatives_evaluate_the_stencil_twice(n):
    spec = metrics.asymptotically_schwarzschild(n, 1.0, c=0.2,
                                                derivative_mode="fd")
    points = 30.0 + np.random.default_rng(0).uniform(size=(5, n))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics.metric_derivatives_at(spec, points, order=2)
    finally:
        tracer.uninstall()
    assert tracer.stats["curvature.fd_metric_derivatives"].calls == 2
    assert tracer.stats["metrics.Family.metric"].points == 2 * stencil(n) * 5


def test_fd_adm_job_counts_one_stencil_per_node(tmp_path):
    n, q, radii = 3, 4, [50.0, 100.0]
    spec = {"n": n, "family": "AsymptoticallySchwarzschild",
            "params": {"m": 1.0, "c": 0.1}, "derivative_mode": "fd"}
    tracer, _ = traced_job(tmp_path, adm_job(spec, 1.0, radii, q))
    nodes = q ** (n - 1)
    assert tracer.stats["metrics.metric_derivatives_at"].points == 2 * nodes
    assert tracer.stats["metrics.Family.metric"].points == (
        len(radii) * nodes * stencil(n))


def test_self_times_fit_in_wall_time(tmp_path):
    spec = {"n": 3, "family": "AsymptoticallySchwarzschild",
            "params": {"m": 1.0, "c": 0.2}}
    job = Job(shape="test", n=3,
              config={"command": "fg-profile", "spec": spec,
                      "radii": [20, 40, 80, 160], "q": 4},
              expect=())
    tracer, result = traced_job(tmp_path, job)
    total = sum(stat.self_s for stat in tracer.stats.values())
    assert 0.0 < total <= result.seconds
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "mass.fg_detail", "numpy.leggauss"} <= names
    parents = {span[3] for span in tracer.spans}
    assert -1 in parents and all(p < len(tracer.spans) for p in parents)


def _listing(workload, seed, index):
    return [(job.shape, job.n, json.dumps(job.config, sort_keys=True),
             job.expect, job.known_defect)
            for job in workloads.make_pass(workload, seed, index)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_job_list(workload):
    for index in (0, 1):
        assert _listing(workload, 7, index) == _listing(workload, 7, index)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_share_job_shapes(workload):
    a = _listing(workload, 1, 0)
    b = _listing(workload, 2, 0)
    assert sorted((s, n) for s, n, *_ in a) == sorted((s, n) for s, n, *_ in b)
    assert sorted(c for _, _, c, *_ in a) != sorted(c for _, _, c, *_ in b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_differ_within_a_run(workload):
    # shell-index weighted-mass takes no physical parameter or window
    seen = set()
    for index in range(3):
        for shape, _, config, *_ in _listing(workload, 3, index):
            assert config not in seen or "shell-indices" in shape, shape
            seen.add(config)


def test_time_metrics_use_each_shape_at_its_median_time():
    jobs = workloads.make_pass("dense", 0, 0)
    # three passes; the second is 1.5x slower and one job fails in it
    results = []
    for factor in (1.0, 1.5, 1.1):
        results += [run.JobResult(job, factor * (0.1 + 0.01 * i),
                                  [("reference", "off")]
                                  if factor == 1.5 and i == 0 else [])
                    for i, job in enumerate(jobs)]
    medians = run.shape_medians(results)
    assert medians == {job.shape: statistics.median(
        r.seconds for r in results if r.job.shape == job.shape)
        for job in jobs}
    metrics, samples = run.end_to_end("dense", results, 0.5, 2.0, 3.0)
    times = [2.0 * medians[job.shape] for job in jobs]
    passed_frac = (3 * len(jobs) - 1) / (3 * len(jobs))
    assert metrics["jobs_per_s"]["value"] == pytest.approx(
        passed_frac * len(jobs) / sum(times))
    assert metrics["passed_frac"]["value"] == pytest.approx(passed_frac)
    assert metrics["setup_s"]["value"] == pytest.approx(1.5)
    assert min(times) <= metrics["job_s_p50"]["value"] <= \
        metrics["job_s_p90"]["value"] <= max(times)
    assert samples["samples"] == 3 * len(jobs)


def test_reference_scale_is_nominal_over_median():
    ref = reference.Reference()
    ref.sample(3)
    assert len(ref.times) == 3
    assert ref.scale() == pytest.approx(
        reference.NOMINAL_S / statistics.median(ref.times))


def _write_report(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def test_check_flags_non_strict_json_as_the_documented_defect(tmp_path):
    job = workloads.sequence("constant", 3)(workloads.random.Random(0))
    out = str(tmp_path)
    _write_report(out, "experiment.json",
                  '{"result": {"exponent": Infinity, "verdict": true}}')
    problems = checks.check_job(job, 0, None, out)
    assert [code for code, _ in problems] == ["non_strict_json"]
    assert run.JobResult(job, 0.1, problems).expected_failure


def test_check_reports_every_failure_mode(tmp_path):
    job = adm_job({"n": 3}, 1.0, [50], 8)
    out = str(tmp_path)
    _write_report(out, "adm_mass.json", '{"result": {"value": 1.5, "raw": [1e999]}}')
    _write_report(out, "error.json", '{"result": {}}')
    codes = {code for code, _ in checks.check_job(job, 1, None, out)}
    assert codes == {"exit_code", "error_json", "non_finite", "reference"}
    problems = checks.check_job(job, None, "ValueError: x", str(tmp_path / "none"))
    assert [code for code, _ in problems] == ["raised", "missing_report"]
    assert not run.JobResult(job, 0.1, [("reference", "off")]).expected_failure


def test_check_passes_a_matching_report(tmp_path):
    job = adm_job({"n": 3}, 1.0, [50], 8)
    _write_report(str(tmp_path), "adm_mass.json", '{"result": {"value": 1.0004}}')
    assert checks.check_job(job, 0, None, str(tmp_path)) == []


@pytest.mark.parametrize("parent, change, better, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "higher", "improved"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", "worse"),
    ([1.0, 1.01, 0.99, 1.0], [1.01, 0.99, 1.0, 1.0], "lower", "within bound"),
    ([1.0, 1.5, 0.7, 1.2], [1.1, 0.8, 1.4, 1.0], "lower", "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    result, change_wins, parent_wins = compare.verdict(parent, change, better, 0.1)
    assert result == expected
    assert change_wins + parent_wins <= len(parent)
