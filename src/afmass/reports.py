"""Report serialization: JSON documents and CSV tables.

Every JSON report written by the command-line tool carries the package
version, a timestamp, and the full echoed run configuration; two runs with
the same configuration produce identical documents apart from the
timestamp field.  CSV output uses '.' decimal points regardless of locale.
"""

import csv
import datetime
import json
import math

from . import __version__
from .sequences import ExperimentReport
from .spheres import SphereReport
from .weighted import DefectReport

__all__ = [
    "package_version",
    "write_json_report",
    "read_json",
    "write_csv",
    "read_csv",
    "experiment_report_from_json",
    "defect_report_to_json",
    "defect_report_from_json",
    "sphere_report_csv_rows",
    "strip_volatile",
]

VOLATILE_FIELDS = ("timestamp",)


def package_version():
    """The version of the source tree, installed or not."""
    return __version__


def _infinities_as_strings(obj):
    if isinstance(obj, float) and math.isinf(obj):
        return "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, dict):
        return {k: _infinities_as_strings(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_infinities_as_strings(v) for v in obj]
    return obj


def write_json_report(path, payload, config=None):
    """Write a JSON report wrapped with version/config/timestamp metadata.

    The file is strict JSON: +-inf is written as the string "Infinity" or
    "-Infinity" (float() reads both back), and a NaN raises ValueError
    before anything is written.
    """
    doc = _infinities_as_strings({
        "version": package_version(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        "result": payload,
    })
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return doc


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_volatile(doc):
    """Copy of a report document without run-dependent fields."""
    return {k: v for k, v in doc.items() if k not in VOLATILE_FIELDS}


def write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    return rows[0], rows[1:]


def experiment_report_from_json(obj):
    return ExperimentReport(
        label=obj["label"],
        kind=obj["kind"],
        indices=tuple(obj["indices"]),
        masses=tuple(obj["masses"]),
        limit_mass=float(obj["limit_mass"]),
        distances=tuple(obj["distances"]),
        exponent=float(obj["exponent"]),
        expected_exponent=float(obj["expected_exponent"]),
        verdict=bool(obj["verdict"]),
        drop=float(obj["drop"]),
        details=dict(obj.get("details", {})),
    )


def defect_report_to_json(rep):
    return {"mass": rep.mass, "matter": rep.matter, "defect": rep.defect}


def defect_report_from_json(obj):
    return DefectReport(mass=float(obj["mass"]), matter=float(obj["matter"]))


def sphere_report_csv_rows(reports):
    return SphereReport.csv_columns, [rep.csv_row() for rep in reports]
