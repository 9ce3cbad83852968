"""Per-layer tracing of afmass, installed from outside the package.

`Tracer.install()` replaces, in every afmass module that holds them:

* each public function of each layer module (names bound with
  `from .x import f` are replaced in every holder, not only at home);
* the `metric` method of every `Family` subclass;
* `SphereQuadrature.__init__`;
* the `u`/`du`/`d2u` callables of profiles returned by
  `shells.solve_shell_potential`;
* `numpy.polynomial.legendre.leggauss`.

Each call made while installed records a span (name, start, end, parent
span, job id, job dimension n) in memory, plus per-name counters: calls,
points (rows of the batch argument), self time (span duration minus the
time covered by its child spans) and, for some names, bytes. A call nested
directly inside a span of the same name (recursion, a family delegating to
its base family) is folded into the outer span. `uninstall()` restores
every original.
"""

import functools
import gzip
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("metrics", "curvature", "geometry", "spheres", "mass", "weighted",
          "shells", "sequences", "cone", "reports", "cli")

# the batch argument whose rows a span counts as `points`
BATCH_ARGUMENT = {
    "metrics.metric_at": "x",
    "metrics.metric_derivatives_at": "x",
    "metrics.scalar_curvature_at": "x",
    "curvature.ricci_tensor": "g",
    "curvature.fd_metric_derivatives": "x",
    "spheres.induced_metric_at": "phi",
    "spheres.mean_curvature_at": "phi",
    "spheres.intrinsic_scalar_curvature_at": "phi",
    "weighted.d_operator_at": "x",
}


def _rows(value):
    arr = np.asarray(value)
    return arr.shape[0] if arr.ndim >= 2 else 1


def _size(value):
    return int(np.size(value))


class LayerStat:
    __slots__ = ("calls", "points", "self_s", "bytes", "max_bytes")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.self_s = 0.0
        self.bytes = 0
        self.max_bytes = 0


def _argument_getter(fn, name):
    """Fetch parameter `name` of fn from a call's (args, kwargs)."""
    position = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return get


def _output_bytes(stat, args, kwargs, result):
    arrays = result if isinstance(result, tuple) else (result,)
    size = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    stat.max_bytes = max(stat.max_bytes, size)


def _file_bytes(stat, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    stat.bytes += os.path.getsize(path)


def _quadrature_nodes(stat, args, kwargs, result):
    stat.points += args[0].num_nodes


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = {}
        self.job = None
        self.n = None
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, count=None, after=None):
        """Return fn recording a span `name`; count(args, kwargs) gives its
        points, after(stat, args, kwargs, result) adds other counters."""
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(name, LayerStat())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if count is not None:
                stat.points += count(args, kwargs)
            frame = [name, len(spans), 0.0]
            record = [name, 0.0, 0.0, stack[-1][1] if stack else -1,
                      self.job, self.n]
            spans.append(record)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record[1] = start
                record[2] = end
                if stack:
                    stack[-1][2] += end - start
                stat.calls += 1
                stat.self_s += end - start - frame[2]
            if after is not None:
                after(stat, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _counter(self, name, fn):
        if name not in BATCH_ARGUMENT:
            return None
        get = _argument_getter(fn, BATCH_ARGUMENT[name])
        return lambda args, kwargs: _rows(get(args, kwargs))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("afmass")
        modules = {short: importlib.import_module(f"afmass.{short}")
                   for short in LAYERS}
        after = {
            "metrics.metric_derivatives_at": _output_bytes,
            "reports.write_json_report": _file_bytes,
            "reports.write_csv": _file_bytes,
            "shells.solve_shell_potential": self._trace_profile,
        }
        replacement = {}
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    replacement[fn] = self.wrap(
                        name, fn, self._counter(name, fn), after.get(name)
                    )
        for holder in (package, *modules.values()):
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and value in replacement:
                    self._patch(holder, attr, replacement[value])

        family = modules["metrics"].Family
        classes = [family]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            if "metric" in vars(cls):
                fn = vars(cls)["metric"]
                get = _argument_getter(fn, "x")
                self._patch(cls, "metric", self.wrap(
                    "metrics.Family.metric", fn,
                    lambda args, kwargs, get=get: _rows(get(args, kwargs)),
                ))

        quadrature = modules["geometry"].SphereQuadrature
        self._patch(quadrature, "__init__", self.wrap(
            "geometry.SphereQuadrature", quadrature.__init__,
            after=_quadrature_nodes,
        ))
        legendre = np.polynomial.legendre
        self._patch(legendre, "leggauss",
                    self.wrap("numpy.leggauss", legendre.leggauss))

    def _trace_profile(self, stat, args, kwargs, profile):
        for attr in ("u", "du", "d2u"):
            fn = getattr(profile, attr)
            setattr(profile, attr, self.wrap(
                "shells.profile", fn,
                lambda args, kwargs: _size(args[0] if args else kwargs["r"]),
            ))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        """Write spans as gzip JSON lines: name, start, end (seconds from the
        first span's start), parent span index, job id, n."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, job, n in self.spans:
                fh.write(json.dumps(
                    [name, round(start - origin, 7), round(end - origin, 7),
                     parent, job, n]
                ))
                fh.write("\n")


# (metric name, traced name, LayerStat attribute, unit); every value is per
# traced pass except the byte maximum
def _layer_metrics():
    table = [
        ("metrics.metric_at", ("calls", "points", "self_s")),
        ("metrics.metric_derivatives_at",
         ("calls", "points", "self_s", "out_bytes_max")),
        ("metrics.scalar_curvature_at", ("calls", "points", "self_s")),
        ("metrics.Family.metric", ("points", "self_s")),
        ("curvature.ricci_tensor", ("calls", "points", "self_s")),
        ("curvature.fd_metric_derivatives", ("calls", "points", "self_s")),
        ("geometry.SphereQuadrature", ("constructed", "nodes")),
        ("geometry.sphere_chart", ("self_s",)),
        ("geometry.sphere_chart_jacobian", ("self_s",)),
        ("spheres.sphere_report", ("calls", "self_s")),
        ("spheres.induced_metric_at", ("calls", "points", "self_s")),
        ("spheres.mean_curvature_at", ("points", "self_s")),
        ("spheres.intrinsic_scalar_curvature_at", ("points", "self_s")),
        ("mass.adm_flux", ("calls", "self_s")),
        ("mass.fg_detail", ("calls", "self_s")),
        ("weighted.matter_integral", ("calls", "self_s")),
        ("weighted.mass_via_divergence", ("calls", "self_s")),
        ("weighted.d_operator_at", ("points", "self_s")),
        ("shells.default_shell_density", ("calls", "self_s")),
        ("shells.solve_shell_potential", ("calls", "self_s")),
        ("shells.profile", ("calls", "points", "self_s")),
        ("sequences.blow_up_window", ("calls", "self_s")),
        ("sequences.escaping_window", ("calls", "self_s")),
        ("cone.cone_mass", ("calls", "self_s")),
        ("cone.total_gauss_curvature", ("calls", "self_s")),
        ("reports.write_json_report", ("calls", "bytes", "self_s")),
        ("reports.write_csv", ("calls", "bytes", "self_s")),
        ("cli.main", ("calls", "self_s")),
        ("numpy.leggauss", ("calls", "self_s")),
    ]
    field = {
        "calls": ("calls", "calls/pass"),
        "constructed": ("calls", "calls/pass"),
        "points": ("points", "points/pass"),
        "nodes": ("points", "nodes/pass"),
        "self_s": ("self_s", "s/pass"),
        "bytes": ("bytes", "bytes/pass"),
        "out_bytes_max": ("max_bytes", "bytes"),
    }
    return [(f"{name}.{counter}", name, *field[counter])
            for name, counters in table for counter in counters]


LAYER_METRICS = _layer_metrics()


def layer_metrics(stats, passes):
    """Per-layer metric values, counters averaged over `passes` traced passes."""
    out = {}
    for metric, name, attr, unit in LAYER_METRICS:
        stat = stats.get(name, LayerStat())
        value = getattr(stat, attr)
        if attr != "max_bytes":
            value = value / passes
        out[metric] = {"value": value, "unit": unit}
    return out
