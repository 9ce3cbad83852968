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

__all__ = [
    "package_version",
    "write_json_report",
    "write_csv",
    "defect_report_to_json",
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


def defect_report_to_json(rep):
    return {"mass": rep.mass, "matter": rep.matter, "defect": rep.defect}
