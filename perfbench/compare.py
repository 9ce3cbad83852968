"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS --change CHANGE_RESULTS

Each argument is a .perfbench_results directory (or a list of result
files) written by run.py with --trace 0. Runs pair up by (workload, seed).
For every (workload, end-to-end metric) pair one row shows each side's
median and quartiles, the pair wins of each side (ties count for neither),
and a verdict against the metric's bound from BENCHMARK.json:

  improved      the change wins at least 9/10 of the pairs and the medians
                differ by more than the parent's own quartile spread;
  worse         the change median is worse than the parent's by more than
                the bound;
  unresolved    the spread of either side (quartile distance over median)
                is wider than the bound, and not every run of one side
                beats every run of the other;
  within bound  otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(source):
    """{(workload, seed): result record} from a directory or file list."""
    paths = source
    if len(source) == 1 and os.path.isdir(source[0]):
        paths = sorted(glob.glob(os.path.join(source[0], "*-trace0.json")))
    runs = {}
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            runs[(record["workload"], record["seed"])] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def verdict(parent, change, better, bound):
    """Verdict and pair wins for paired run values (lists in seed order)."""
    sign = 1.0 if better == "higher" else -1.0
    change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    cmed = quartiles(change)[1]
    gain = sign * (cmed - pmed)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound and not (all_better or all_worse):
        result = "unresolved"
    elif change_wins >= 0.9 * len(parent) and gain > p3 - p1:
        result = "improved"
    elif -gain > bound * abs(pmed):
        result = "worse"
    else:
        result = "within bound"
    return result, change_wins, parent_wins


def compare(parent_runs, change_runs, spec):
    rows = []
    keys = sorted(set(parent_runs) & set(change_runs))
    workloads = sorted({w for w, _ in keys})
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [parent_runs[(workload, s)]["metrics"][name]["value"]
                      for s in seeds]
            change = [change_runs[(workload, s)]["metrics"][name]["value"]
                      for s in seeds]
            result, cw, pw = verdict(parent, change, metric["better"],
                                     metric["bound"])
            rows.append((workload, name, metric["unit"], quartiles(parent),
                         quartiles(change), cw, pw, len(seeds), result))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="+", help="parent results (dir or files)")
    parser.add_argument("--change", nargs="+", required=True,
                        help="change results (dir or files)")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    if not rows:
        print("no (workload, seed) pair present on both sides", file=sys.stderr)
        return 1

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':8} {'metric':12} {'unit':7} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'wins c/p/tie':13} verdict")
    for workload, name, unit, pq, cq, cw, pw, pairs, result in rows:
        print(f"{workload:8} {name:12} {unit:7} {fmt(pq):32} {fmt(cq):32} "
              f"{f'{cw}/{pw}/{pairs - cw - pw}':13} {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
