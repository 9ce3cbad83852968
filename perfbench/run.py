"""afmass benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 0 --seconds 30 --trace 0

Each job runs in this process through `afmass.cli.main(["--config", ...,
"--out", ...])`, one at a time (a closed loop with a single client), with its
stdout and stderr captured, and is checked against its analytic reference
(checks.py). Whole passes over the workload's job shapes run until the
pass boundary nearest to `--seconds`, at least MIN_PASSES passes, and until
MIN_ABOVE_P90 samples sit above `job_s_p90`.

The time metrics are built from each job shape's median wall time in the
run: `jobs_per_s` is one pass at those times, `job_s_p50` and `job_s_p90`
are quantiles over the jobs of one pass at those times. They, and
`setup_s`, are scaled to a nominal host speed by a fixed reference loop
timed in the same phase of the run (reference.py): the host's speed drifts
by up to 1.75x over minutes. BLAS runs on one thread (a single client;
spare BLAS threads only spin on the second core).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced passes
(tracing.py), with the ratio of traced to untraced wall time.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A job fails on any problem listed in
checks.py. The run is correct when every failure is one of the documented
defects in workloads.KNOWN_DEFECTS, failing the documented way. A result
file with the environment record and per-shape timings goes to
.perfbench_results/; traced runs also write their spans there.
"""

import os

# one BLAS thread: set before numpy is imported here or in a child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
from reference import Reference
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results")

# p90 needs at least this many samples above it; two or three jobs of a
# pass sit above it, so runs take four passes or more
MIN_ABOVE_P90 = 10
MIN_PASSES = 4
# set-up is timed this many times per run; the median is reported
SETUP_REPEATS = 5
# reference loop samples taken before each set-up probe
SETUP_REFERENCE_SAMPLES = 5
# stop starting passes after this long, whatever --seconds says
HARD_LIMIT_S = 120.0


@dataclass
class JobResult:
    job: workloads.Job
    seconds: float
    problems: list

    @property
    def passed(self):
        return not self.problems

    @property
    def expected_failure(self):
        if self.passed or self.job.known_defect is None:
            return False
        allowed = workloads.KNOWN_DEFECTS[self.job.known_defect][1]
        return all(code in allowed for code, _ in self.problems)


def run_job(cli, job, job_dir, tracer=None, job_id=0):
    """Run one job through cli.main, time it and check its reports."""
    os.makedirs(job_dir)
    config = os.path.join(job_dir, "config.json")
    out = os.path.join(job_dir, "out")
    with open(config, "w") as fh:
        json.dump(job.config, fh)
    if tracer is not None:
        tracer.job = job_id
        tracer.n = job.n
    sink = io.StringIO()
    code = raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["--config", config, "--out", out])
    except (Exception, SystemExit) as exc:
        raised = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    problems = checks.check_job(job, code, raised, out)
    shutil.rmtree(job_dir)
    return JobResult(job, seconds, problems)


def time_setup(workload, seed, reference):
    """Seconds from a fresh interpreter to afmass imported and the configs
    of the workload generated (median of SETUP_REPEATS), with reference
    samples before each."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        reference.sample(SETUP_REFERENCE_SAMPLES)
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_probe(workload, seed):
    import afmass.cli  # noqa: F401  (the import is what is timed)

    for job in workloads.make_pass(workload, seed, 0):
        json.dumps(job.config)


def environment(seed):
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            info = deps["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception as exc:  # build metadata differs between versions
            return f"unknown ({type(exc).__name__})"

    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            done = None
        if done is not None and done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "AFMASS_THREADS")},
        "commit": commit,
        "seed": seed,
    }


def run_passes(cli, workload, seed, seconds, work, tracer=None,
               reference=None):
    """Whole passes until about `seconds`, at least MIN_PASSES and until
    MIN_ABOVE_P90 samples sit above p90 (with a tracer: at least two passes,
    alternating untraced and traced ones, ending on a traced one).

    Returns (results, elapsed, pass_log) where pass_log holds
    (traced, seconds) per pass."""
    results = []
    pass_log = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        jobs = workloads.make_pass(workload, seed, index)
        if traced:
            tracer.install()
        pass_start = time.perf_counter()
        try:
            for job in jobs:
                job_dir = os.path.join(work, f"job{len(results)}")
                results.append(run_job(cli, job, job_dir,
                                       tracer if traced else None,
                                       len(results)))
                if reference is not None:
                    reference.sample()
        finally:
            if traced:
                tracer.uninstall()
        pass_log.append((traced, time.perf_counter() - pass_start))
        index += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and index % 2 == 1:
            continue
        if tracer is None:
            enough = (index >= MIN_PASSES and end_to_end(
                workload, results, 0.0)[1]["above_p90"] >= MIN_ABOVE_P90)
        else:
            enough = index >= 2
        # stop at the pass boundary nearest to `seconds`
        mean_pass = elapsed / index
        if elapsed >= HARD_LIMIT_S or (elapsed + mean_pass / 2 >= seconds
                                       and enough):
            break
    return results, elapsed, pass_log


def shape_medians(results):
    """Median wall time of each job shape in the run."""
    times = {}
    for r in results:
        times.setdefault(r.job.shape, []).append(r.seconds)
    return {shape: statistics.median(t) for shape, t in times.items()}


def end_to_end(workload, results, setup_s, job_scale=1.0, setup_scale=1.0):
    """End-to-end metrics; times are multiplied by the reference scales."""
    medians = shape_medians(results)
    # one pass with every job at its shape's median time
    times = [job_scale * medians[job.shape]
             for job in workloads.make_pass(workload, 0, 0)]
    passed = sum(r.passed for r in results)
    passed_frac = passed / len(results)
    p90 = statistics.quantiles(times, n=10)[-1]
    metrics = {
        "jobs_per_s": (passed_frac * len(times) / sum(times), "jobs/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_p90": (p90, "s"),
        "setup_s": (setup_scale * setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "passed_frac": (passed_frac, "ratio"),
    }
    samples = {"samples": len(results),
               "above_p90": sum(job_scale * medians[r.job.shape] > p90
                                for r in results)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, samples


def traced_share(stats, wall):
    """Share of traced wall time spent as self time in each layer."""
    shares = {}
    for name, stat in stats.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + stat.self_s / wall
    top = max(stats.items(), key=lambda item: item[1].self_s)
    return {"layers": shares, "largest": [top[0], top[1].self_s / wall]}


def shape_summary(results):
    by_shape = {}
    for r in results:
        entry = by_shape.setdefault(
            r.job.shape, {"n": r.job.n, "times": [], "failed": 0, "codes": set(),
                          "example": None})
        entry["times"].append(r.seconds)
        if not r.passed:
            entry["failed"] += 1
            entry["codes"].update(code for code, _ in r.problems)
            entry["example"] = entry["example"] or r.problems[0][1]
    return {
        shape: {"n": e["n"], "runs": len(e["times"]),
                "best_s": min(e["times"]),
                "median_s": statistics.median(e["times"]),
                "failed": e["failed"], "codes": sorted(e["codes"]),
                "example": e["example"]}
        for shape, e in sorted(by_shape.items())
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "afmass", "__init__.py")):
        print(f"afmass sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup_reference = Reference()
    setup_s = (None if args.trace
               else time_setup(args.workload, args.seed, setup_reference))
    import afmass.cli as cli

    env = environment(args.seed)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(RESULTS, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    reference = None if args.trace else Reference()
    try:
        results, elapsed, pass_log = run_passes(
            cli, args.workload, args.seed, args.seconds, work, tracer,
            reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if not r.passed]
    unexpected = [r for r in failed if not r.expected_failure]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "pass_seconds": [round(s, 4) for _, s in pass_log],
        "timed_s": elapsed, "attempted": len(results), "failed": len(failed),
        "known_defect_failures": len(failed) - len(unexpected),
        "unexpected_failures": len(unexpected),
    }
    if tracer is None:
        metrics, samples = end_to_end(
            args.workload, results, setup_s, reference.scale(),
            setup_reference.scale())
        raw, _ = end_to_end(args.workload, results, setup_s)
        record.update(samples)
        record["unscaled_metrics"] = raw
        record["reference"] = {"jobs": reference.summary(),
                               "setup": setup_reference.summary()}
    else:
        traced = [s for t, s in pass_log if t]
        untraced = [s for t, s in pass_log if not t]
        metrics = tracing.layer_metrics(tracer.stats, len(traced))
        metrics["trace.overhead_ratio"] = {
            "value": sum(traced) / sum(untraced), "unit": "ratio"}
        record["shares"] = traced_share(tracer.stats, sum(traced))
        spans = os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
        tracer.write_spans(spans)
        record["spans_file"] = os.path.relpath(spans, ROOT)
    record["metrics"] = metrics
    record["shapes"] = shape_summary(results)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# afmass benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(pass_log)} timed={elapsed:.2f}s")
    print(f"# env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['numpy_blas']} threads={env['threads']} "
          f"commit={env['commit']}")
    print(f"# jobs: attempted={len(results)} failed={len(failed)} "
          f"(documented defects {len(failed) - len(unexpected)}, "
          f"unexpected {len(unexpected)})")
    if tracer is None:
        print(f"# samples={record['samples']} above_p90={record['above_p90']}")
    for r in unexpected[:5]:
        print(f"# unexpected failure {r.job.shape}: {r.problems}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if tracer is None:
        ref = record["reference"]
        print(f"# reference loop median: jobs {ref['jobs']['median_s']:.6g} s, "
              f"setup {ref['setup']['median_s']:.6g} s; unscaled: " + ", ".join(
                  f"{name} {m['value']:.6g}"
                  for name, m in record["unscaled_metrics"].items()))
    print(f"# result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": bool(results) and not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
