"""Failure accounting for one CLI job.

A job fails when any of these hold; each problem carries a code:

* raised          `cli.main` raised instead of returning;
* exit_code       `cli.main` returned a non-zero exit code;
* error_json      an `error.json` report was written;
* non_strict_json a report does not parse as strict JSON (NaN, Infinity);
* non_finite      a reported number (JSON or CSV) is not finite;
* missing_report  a report the reference check needs was not written;
* reference       a result misses its analytic reference.
"""

import csv
import json
import math
import os


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def load_strict(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _csv_non_finite(path):
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return cell
    return None


def _lookup(doc, keypath):
    for key in keypath:
        doc = doc[key]
    return doc


def _close(value, target, tol, kind):
    scale = abs(target) if kind == "rel" else 1.0
    return math.isfinite(value) and abs(value - target) <= tol * scale


def _experiment(doc, expected):
    problems = []
    if doc["verdict"] is not True:
        problems.append("verdict is not true")
    exponent = doc["exponent"]
    if not (isinstance(exponent, (int, float)) and
            abs(exponent - expected) <= 0.15 * abs(expected)):
        problems.append(f"exponent {exponent} not within 15% of {expected}")
    return problems


def _constant_experiment(doc):
    problems = []
    if doc["verdict"] is not True:
        problems.append("verdict is not true")
    if any(d != 0.0 for d in doc["distances"]) or doc["drop"] != 0.0:
        problems.append("constant sequence has non-zero distances or drop")
    return problems


def _shell_defects(doc, target, tol):
    problems = []
    rows = doc["rows"]
    for row in rows:
        if not _close(row["mass"], target, tol, "abs"):
            problems.append(f"shell i={row['i']} mass {row['mass']} != {target}")
    defects = [abs(row["defect"]) for row in rows]
    if any(a <= b for a, b in zip(defects, defects[1:])):
        problems.append(f"|defect| not decreasing in i: {defects}")
    return problems


REPORT_OF = {
    "experiment": "experiment.json",
    "constant_experiment": "experiment.json",
    "shell_defects": "defect_report.json",
}


def _report_name(expect):
    return expect[1] if expect[0] == "close" else REPORT_OF[expect[0]]


def _reference_problems(expect, doc):
    kind = expect[0]
    name = _report_name(expect)
    if kind == "close":
        _, _, keypath, target, tol, mode = expect
        value = _lookup(doc, keypath)
        if _close(value, target, tol, mode):
            return []
        return [f"{name}:{'.'.join(keypath)} = {value}, reference {target} "
                f"(tol {tol} {mode})"]
    if kind == "experiment":
        return _experiment(doc, expect[1])
    if kind == "constant_experiment":
        return _constant_experiment(doc)
    return _shell_defects(doc, expect[1], expect[2])


def check_job(job, exit_code, raised, out_dir):
    """Return the list of (code, message) problems of one finished job."""
    problems = []
    if raised is not None:
        problems.append(("raised", raised))
    elif exit_code != 0:
        problems.append(("exit_code", f"exit code {exit_code}"))
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if "error.json" in names:
        problems.append(("error_json", "error.json written"))
    reports = {}
    unparsed = set()
    for name in names:
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            try:
                doc = load_strict(path)
            except ValueError as exc:
                problems.append(("non_strict_json", f"{name}: {exc}"))
                unparsed.add(name)
                continue
            if not all(math.isfinite(v) for v in _numbers(doc)):
                problems.append(("non_finite", f"{name} holds a non-finite number"))
            reports[name] = doc.get("result") if isinstance(doc, dict) else doc
        elif name.endswith(".csv"):
            bad = _csv_non_finite(path)
            if bad is not None:
                problems.append(("non_finite", f"{name} holds {bad}"))
    for expect in job.expect:
        name = _report_name(expect)
        if name in unparsed:
            continue
        if name not in reports:
            problems.append(("missing_report", f"{name} not written"))
            continue
        try:
            messages = _reference_problems(expect, reports[name])
        except (KeyError, TypeError, IndexError) as exc:
            messages = [f"{name} lacks {exc!r}"]
        problems += [("reference", m) for m in messages]
    return problems
