"""Command-line entry point.

Usage:

    afmass --config run.json [--out DIR] [--quadrature Q]

The config document selects one command and its inputs:

    {"command": "adm-mass",
     "spec": {"n": 3, "family": "Schwarzschild", "params": {"m": 1.0},
              "derivative_mode": "analytic"},
     "radii": [50, 100, 200, 400],
     "q": 32}

Commands: adm-mass, fg-profile, weighted-mass, sequence, cone-angle,
cone-sequence.  Exit code 2 means the configuration was rejected before any
computation (ConfigInvalid), also when it asks for more work than the
size limits below allow; exit code 1 means the computation itself failed,
in which case an error report JSON is still written.
"""

import argparse
import json
import math
import os
import sys

from . import cone as cone_mod
from . import sequences as seq_mod
from .mass import adm_mass, extrapolate, fg_detail
from .metrics import metric_from_json
from .reports import package_version, write_csv, write_json_report
from .weighted import mass_matter_defect, mass_via_divergence

__all__ = ["ConfigInvalid", "ComputationFailed", "RunConfig", "run", "main"]

#: largest angular quadrature order q: leggauss(q) builds a q x q matrix
MAX_Q = 256
#: largest number of d2g entries, resolution^n n^4, of one sequence window
MAX_WINDOW_ENTRIES = 2 ** 26

COMMANDS = (
    "adm-mass",
    "fg-profile",
    "weighted-mass",
    "sequence",
    "cone-angle",
    "cone-sequence",
)


class ConfigInvalid(Exception):
    """Configuration rejected before computation.  Exit code 2."""

    exit_code = 2


class ComputationFailed(Exception):
    """A computation raised after a valid configuration.  Exit code 1."""

    exit_code = 1


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw, out_dir=".", quadrature=None):
        if not isinstance(raw, dict):
            raise ConfigInvalid("config document must be a JSON object")
        command = raw.get("command")
        if command not in COMMANDS:
            raise ConfigInvalid(
                f"unknown command {command!r}; expected one of {COMMANDS}"
            )
        self.command = command
        self.raw = raw
        self.out_dir = out_dir
        self.q = _integer(quadrature if quadrature is not None else raw.get("q", 16),
                          "quadrature order q")
        if not 2 <= self.q <= MAX_Q:
            raise ConfigInvalid(f"quadrature order must lie in 2..{MAX_Q}, got {self.q}")
        # check the shape of the inputs that handlers convert, before any
        # computation starts
        if raw.get("radii") is not None:
            self.radii()
        if "spec" in raw:
            _check_spec(raw["spec"])
        if command == "cone-angle":
            self.surface()

    def echo(self):
        doc = dict(self.raw)
        doc["q"] = self.q
        return doc

    def spec(self):
        if "spec" not in self.raw:
            raise ConfigInvalid("config needs a 'spec' metric document")
        try:
            return metric_from_json(self.raw["spec"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigInvalid(f"invalid metric spec: {exc}") from exc

    def radii(self, default=None, required=True):
        radii = self.raw.get("radii")
        if radii is None:
            radii = default
        if radii is None:
            if required:
                raise ConfigInvalid("config needs a 'radii' list")
            return None
        radii = [_real(r, "radius") for r in _list(radii, "radii")]
        if not radii:
            raise ConfigInvalid("radii list must not be empty")
        if sorted(radii) != radii or min(radii) <= 0.0:
            raise ConfigInvalid("radii must be positive and increasing")
        return radii

    def indices(self, default=(1, 2, 4, 8)):
        indices = self.raw.get("indices", list(default))
        if not indices:
            raise ConfigInvalid("indices list must not be empty")
        indices = [_integer(i, "index") for i in _list(indices, "indices")]
        if min(indices) < 1:
            raise ConfigInvalid(f"indices must be >= 1, got {indices}")
        return indices

    def surface(self):
        alpha = self.raw.get("alpha")
        if alpha is None:
            raise ConfigInvalid("cone commands need an 'alpha' value")
        alpha = _opening(alpha)
        pert = self.raw.get("perturbation")
        if pert is not None and not isinstance(pert, dict):
            raise ConfigInvalid(
                f"perturbation must be an object with 'amplitude' and 'tau', got {pert!r}"
            )
        if pert:
            tau = _real(pert.get("tau", 1.0), "perturbation tau")
            if tau <= 0.0:
                raise ConfigInvalid(f"perturbation tau must be positive, got {tau}")
            return cone_mod.perturbed_cone(
                alpha,
                amplitude=_real(pert.get("amplitude", 0.1), "perturbation amplitude"),
                tau=tau,
            )
        return cone_mod.capped_cone(alpha)


def _integer(value, what):
    """An integer config value; a fractional number or a string is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigInvalid(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what):
    """A finite real config value; a string, a boolean or an overflow is rejected."""
    try:
        finite = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigInvalid(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _list(value, what):
    """A list config value; a number, a string or an object is rejected."""
    if not isinstance(value, list):
        raise ConfigInvalid(f"{what} must be a list, got {value!r}")
    return value


def _opening(value):
    """A cone opening alpha in (0, 1]."""
    alpha = _real(value, "alpha")
    if not 0.0 < alpha <= 1.0:
        raise ConfigInvalid("alpha must lie in (0, 1]")
    return alpha


def _dimension(value):
    """An ambient dimension n in 3..7, the range the mass functionals cover."""
    n = _integer(value, "dimension n")
    if not 3 <= n <= 7:
        raise ConfigInvalid(f"dimension n must lie in 3..7, got {n}")
    return n


def _check_spec(doc, n=None):
    """Check a metric spec document before anything is built: its dimension
    (a nested base's must equal its wrapper's n), a positive fd_step and
    numeric params (an n x n matrix of finite numbers for a direction)."""
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"metric spec must be an object, got {doc!r}")
    dim = _dimension(doc.get("n"))
    if n is not None and dim != n:
        raise ConfigInvalid(f"base spec has n = {dim} inside a spec with n = {n}")
    if doc.get("fd_step") is not None and _real(doc["fd_step"], "fd_step") <= 0.0:
        raise ConfigInvalid(f"fd_step must be positive, got {doc['fd_step']!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigInvalid(f"spec params must be an object, got {params!r}")
    for key, value in params.items():
        if key == "base":
            _check_spec(value, dim)
        elif key == "offset":
            for v in _list(value, "offset"):
                _real(v, "offset entry")
        elif key == "direction":
            rows = _list(value, "direction")
            if len(rows) != dim or any(
                    len(_list(row, "direction row")) != dim for row in rows):
                raise ConfigInvalid(
                    f"direction must be an {dim} x {dim} matrix, got {value!r}")
            for row in rows:
                for v in row:
                    _real(v, "direction entry")
        elif key == "i":
            if _integer(value, "shell index i") < 1:
                raise ConfigInvalid(f"shell index i must be >= 1, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            # an overflowing literal such as 1e400 is a number: the
            # computation fails on it (exit 1)
            raise ConfigInvalid(f"parameter {key!r} must be a number, got {value!r}")


def _reject_constant(name):
    raise ConfigInvalid(f"config holds the non-finite number {name}")


def _cmd_adm_mass(cfg):
    spec = cfg.spec()
    radii = cfg.radii(required=False)
    est = adm_mass(spec, radii=radii, q=cfg.q)
    return {"json": {"adm_mass.json": est.to_json()}, "csv": {}}


def _cmd_fg_profile(cfg):
    spec = cfg.spec()
    radii = cfg.radii()
    rows = []
    values = []
    for r in radii:
        detail = fg_detail(spec, r, q=cfg.q)
        # rho_min > ratio maxH2, decided as penrose_like_check decides it
        hypothesis = detail["bracket"] > 0.0
        rows.append(
            [r, detail["fg"], detail["area"], detail["maxH2"],
             detail["rho_min"], hypothesis]
        )
        values.append(detail["fg"])
    # the c0 + c1/r model of fg_limit, fitted to the values above
    est = extrapolate(radii, values, 1.0)
    return {
        "json": {"fg_limit.json": est.to_json()},
        "csv": {
            "fg_profile.csv": (
                ("r", "fg", "area", "maxH2", "rho_min", "hypothesis_holds"),
                rows,
            )
        },
    }


def _cmd_weighted_mass(cfg):
    from .reports import defect_report_to_json
    from .shells import shell_metric

    out_json = {}
    out_csv = {}
    if "indices" in cfg.raw:
        n = _dimension(cfg.raw.get("n", 3))
        rows = []
        for i in cfg.indices():
            spec_i = shell_metric(n, i)
            rep = mass_matter_defect(spec_i, q=cfg.q)
            rows.append([i, rep.mass, rep.matter, rep.defect])
        out_csv["shell_defects.csv"] = (("i", "mass", "matter", "defect"), rows)
        out_json["defect_report.json"] = {
            "n": n,
            "rows": [
                {"i": r[0], "mass": r[1], "matter": r[2], "defect": r[3]}
                for r in rows
            ],
        }
    else:
        spec = cfg.spec()
        rep = mass_matter_defect(spec, q=cfg.q)
        doc = defect_report_to_json(rep)
        div = mass_via_divergence(spec, q=cfg.q)
        doc["mass_via_divergence"] = div.to_json()
        out_json["defect_report.json"] = doc
    return {"json": out_json, "csv": out_csv}


def _cmd_sequence(cfg):
    kind = cfg.raw.get("kind")
    if kind not in seq_mod.EXPERIMENT_KINDS:
        raise ConfigInvalid(
            f"sequence kind must be one of {seq_mod.EXPERIMENT_KINDS}"
        )
    n = _dimension(cfg.raw.get("n", 3))
    kw = {}
    if "window_L" in cfg.raw:
        kw["half_width"] = _real(cfg.raw["window_L"], "window_L")
        if kw["half_width"] <= 0.0:
            raise ConfigInvalid(f"window_L must be positive, got {kw['half_width']}")
    if "resolution" in cfg.raw:
        kw["grid_q"] = _integer(cfg.raw["resolution"], "resolution")
        if kw["grid_q"] < 1:
            raise ConfigInvalid(f"resolution must be >= 1, got {kw['grid_q']}")
        entries = kw["grid_q"] ** n * n ** 4
        if entries > MAX_WINDOW_ENTRIES:
            raise ConfigInvalid(
                f"a window of resolution {kw['grid_q']} at n = {n} holds"
                f" {entries} d2g entries; the limit is {MAX_WINDOW_ENTRIES}"
            )
    return _experiment_outputs(seq_mod.run_semicontinuity_experiment(
        kind, n=n, indices=cfg.indices(default=(2, 4, 8, 16)), q=cfg.q, **kw
    ))


def _cmd_cone_angle(cfg):
    surface = cfg.surface()
    radii = cfg.radii(default=[4.0, 8.0, 16.0, 32.0], required=False)
    est = cone_mod.cone_mass(surface, radii=tuple(radii))
    return {"json": {"cone_mass.json": est.to_json()}, "csv": {}}


def _cmd_cone_sequence(cfg):
    kind = cfg.raw.get("kind", "blow_up")
    if kind not in cone_mod.CONE_EXPERIMENT_KINDS:
        raise ConfigInvalid(
            f"cone sequence kind must be one of {cone_mod.CONE_EXPERIMENT_KINDS}"
        )
    alpha = _opening(cfg.raw.get("alpha", 0.7))
    return _experiment_outputs(cone_mod.cone_semicontinuity_experiment(
        kind, alpha=alpha, indices=cfg.indices(default=(4, 8, 16, 32))
    ))


def _experiment_outputs(rep):
    """The reports of a sequence or cone-sequence experiment."""
    return {
        "json": {"experiment.json": rep.to_json()},
        "csv": {"experiment.csv": (rep.csv_columns, rep.csv_rows())},
    }


_DISPATCH = {
    "adm-mass": _cmd_adm_mass,
    "fg-profile": _cmd_fg_profile,
    "weighted-mass": _cmd_weighted_mass,
    "sequence": _cmd_sequence,
    "cone-angle": _cmd_cone_angle,
    "cone-sequence": _cmd_cone_sequence,
}


def run(cfg):
    """Execute a validated RunConfig; writes reports into cfg.out_dir.

    Returns the list of written paths.  Raises ComputationFailed (after
    writing an error report) if the computation raises anything but
    ConfigInvalid.  The output directory is made only once there is a
    report to write, so a config that a handler rejects (ConfigInvalid)
    leaves none behind."""
    written = []
    try:
        outputs = _DISPATCH[cfg.command](cfg)
        os.makedirs(cfg.out_dir, exist_ok=True)
        # write_json_report raises ValueError on a NaN in the payload
        for name, payload in outputs["json"].items():
            path = os.path.join(cfg.out_dir, name)
            write_json_report(path, payload, config=cfg.echo())
            written.append(path)
    except ConfigInvalid:
        raise
    except Exception as exc:
        error_doc = {"error": type(exc).__name__, "message": str(exc)}
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "error.json")
        write_json_report(path, error_doc, config=cfg.echo())
        raise ComputationFailed(f"{type(exc).__name__}: {exc}") from exc
    for name, (columns, rows) in outputs["csv"].items():
        path = os.path.join(cfg.out_dir, name)
        write_csv(path, columns, rows)
        written.append(path)
    return written


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="afmass",
        description="Mass functionals of asymptotically flat metrics",
    )
    parser.add_argument("--config", required=True, help="run config JSON path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--quadrature", type=int, default=None,
                        help="override angular quadrature order")
    parser.add_argument("--version", action="version", version=package_version())
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config) as fh:
                raw = json.load(fh, parse_constant=_reject_constant)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"malformed config JSON: {exc}") from exc
        cfg = RunConfig(raw, out_dir=args.out, quadrature=args.quadrature)
        written = run(cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ComputationFailed as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
