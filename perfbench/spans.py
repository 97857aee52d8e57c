"""Span recorder and the wrappers that time calls into gaugeflow's modules.

`instrument` replaces the public functions and methods listed in
`INSTRUMENTS` with wrappers that record one span per call: name, start,
end and parent span. Counters are taken at the same wrappers. A module
binds names it imports at import time, so a function is replaced in every
`gaugeflow` module that holds it (`gaugeflow.transport.expm` as well as
`gaugeflow.algebra.expm`). Nothing under `src/` is edited.

Spans stay in memory; `summary` turns them into per-name call counts,
inclusive seconds and self seconds (a span's duration minus the time its
child spans cover). A layer is a gaugeflow module, and its self time is
the self time of all spans named after it. Calls into code that is not
wrapped count as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

import numpy as np

LAYERS = ("algebra", "path", "field", "transport", "levy", "heatflow", "experiments", "cli")


def _lead_size(arr, trailing):
    shape = np.shape(arr)
    return int(np.prod(shape[: len(shape) - trailing], dtype=np.int64))


def _count_matrices(key):
    def count(rec, span, args, out):
        rec.counts[key] += _lead_size(args[0], 2)
    return count


def _count_points(key):
    def count(rec, span, args, out):
        rec.counts[key] += _lead_size(args[1], 1)
    return count


def _count_curve_points(rec, span, args, out):
    rec.counts["path.curve_points"] += int(np.size(args[1]))


def _count_stencil_bytes(rec, span, args, out):
    # compulsory traffic: the input read once and the result written once
    rec.counts["field.stencil_d1.bytes_computed"] += args[0].nbytes + out.nbytes


def _count_context(rec, span, args, out):
    nodes = len(args[0].nodes)
    rec.counts["transport.context.count"] += 1
    rec.counts["transport.context.nodes"] += nodes
    parent = rec.parents[span]
    if parent >= 0 and rec.names[parent] == "transport.transport":
        rec.counts["transport.endpoint_only.count"] += 1
        rec.counts["transport.endpoint_only.nodes"] += nodes


def _count_prefix_factors(rec, span, args, out):
    rec.counts["transport.prefix_products.factors"] += int(np.shape(args[0])[0])


def _count_flow_steps(rec, span, args, out):
    field0, steps = args[0], int(args[1])
    rec.counts["heatflow.flow.steps"] += steps
    rec.counts["heatflow.flow.site_steps"] += steps * _lead_size(field0.values, 3)


def _experiment_span(args):
    return f"experiments.{args[0]}"


# (span name, "module", "module:Class" or "module:Base+" for a class and its
# subclasses in that module, attribute names, counter)
INSTRUMENTS = [
    ("algebra.expm", "gaugeflow.algebra", ["expm"], _count_matrices("algebra.expm.matrices")),
    ("algebra.unitarize", "gaugeflow.algebra", ["unitarize"],
     _count_matrices("algebra.unitarize.matrices")),
    ("path.curve", "gaugeflow.path:Curve+", ["point", "velocity"], _count_curve_points),
    ("path.functions", "gaugeflow.path",
     ["curve_integral", "perturb", "plateau", "reparametrize", "make_curve", "sine_basis",
      "random_field", "random_vanishing_field", "gauss_legendre"], None),
    ("field.analytic_eval", "gaugeflow.field:AnalyticField",
     ["eval", "partial_all", "second_all"], _count_points("field.analytic_eval.points")),
    ("field.lattice_read", "gaugeflow.field:LatticeField",
     ["eval", "partial_all", "second_all"], _count_points("field.lattice_read.points")),
    ("field.transformed_eval", "gaugeflow.field:TransformedField",
     ["eval", "partial_all", "second_all"], None),
    ("field.scalar_eval", "gaugeflow.field:ScalarFourier",
     ["value", "grad", "hess", "third", "laplacian"], None),
    ("field.lattice_sample", "gaugeflow.field:LatticeField", ["sample"], None),
    ("field.save", "gaugeflow.field:LatticeField", ["save"], None),
    ("field.spline_filter", "gaugeflow.field", ["spline_filter"], None),
    ("field.curvature", "gaugeflow.field", ["curvature"], None),
    ("field.cov_deriv_curvature", "gaugeflow.field", ["cov_deriv_curvature"], None),
    ("field.cov_div_curvature", "gaugeflow.field", ["cov_div_curvature"], None),
    ("field.lattice_curvature_grid", "gaugeflow.field", ["lattice_curvature_grid"], None),
    ("field.stencil_d1", "gaugeflow.field", ["stencil_d1"], _count_stencil_bytes),
    ("field.ym_action", "gaugeflow.field", ["ym_action"], None),
    ("field.make_field", "gaugeflow.field", ["make_field"], None),
    ("field.save", "gaugeflow.field", ["save_field"], None),
    ("transport.context", "gaugeflow.transport:TransportContext", ["__init__"], _count_context),
    ("transport.integrate", "gaugeflow.transport:TransportContext",
     ["integrate", "cumulative", "integrate_prefix"], None),
    ("transport.transport", "gaugeflow.transport", ["transport"], None),
    ("transport.prefix_products", "gaugeflow.transport", ["prefix_products"],
     _count_prefix_factors),
    ("transport.propagator", "gaugeflow.transport", ["propagator"], None),
    ("transport.derivatives", "gaugeflow.transport",
     ["duhamel_derivative", "transport_derivative", "transport_s_derivative"], None),
    ("levy.second_kernels", "gaugeflow.levy", ["second_kernels"], None),
    ("levy.laplacian", "gaugeflow.levy", ["levy_laplacian_transport"], None),
    ("levy.cesaro", "gaugeflow.levy", ["cesaro_levy_estimate", "cesaro_second_trace"], None),
    ("levy.kernels_use", "gaugeflow.levy",
     ["assemble_bilinear", "levy_divergence", "h0_gradient_transport"], None),
    ("heatflow.flow", "gaugeflow.heatflow", ["flow"], _count_flow_steps),
    ("heatflow.ym_rhs", "gaugeflow.heatflow", ["ym_rhs"], None),
    ("heatflow.abelian_oracle", "gaugeflow.heatflow", ["abelian_oracle"], None),
    (_experiment_span, "gaugeflow.cli", ["run_experiment"], None),
    ("experiments.validate_config", "gaugeflow.experiments", ["validate_config"], None),
    ("cli.emit", "gaugeflow.cli", ["_emit"], None),
]


class Recorder:
    """In-memory spans plus counters for one single-threaded process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counts = collections.Counter()
        self._stack = [-1]

    def wrap(self, name, fn, count=None):
        """`fn` recorded as a span; `name` is a string or a function of the args."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.names)
            self.names.append(name(args) if callable(name) else name)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self._stack.append(span)
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[span] = clock()
                self._stack.pop()
            if count is not None:
                count(self, span, args, out)
            return out

        return wrapper

    def duration(self, span):
        return self.ends[span] - self.starts[span]

    def summary(self):
        """{name: [calls, inclusive s, self s]} plus counters and layer totals."""
        covered = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.duration(span)
        spans = {}
        for span, name in enumerate(self.names):
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.duration(span)
            row[2] += self.duration(span) - covered[span]
        layers = {layer: 0.0 for layer in LAYERS}
        for name, row in spans.items():
            layers[name.split(".")[0]] += row[2]
        counts = dict(self.counts)
        counts["levy.cesaro.transports"] = sum(
            1 for span, name in enumerate(self.names)
            if name == "transport.transport" and self._has_ancestor(span, "levy.cesaro"))
        return {"spans": spans, "counts": counts, "layers": layers}

    def _has_ancestor(self, span, name):
        parent = self.parents[span]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False


def _targets(owner):
    module_name, _, cls_pattern = owner.partition(":")
    module = importlib.import_module(module_name)
    if not cls_pattern:
        return module, None
    if cls_pattern.endswith("+"):
        base = getattr(module, cls_pattern[:-1])
        return module, [cls for cls in vars(module).values()
                        if isinstance(cls, type) and issubclass(cls, base)]
    return module, [getattr(module, cls_pattern)]


def instrument(rec):
    """Wrap every entry of INSTRUMENTS with spans recorded into `rec`."""
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "gaugeflow" or name.startswith("gaugeflow.")]
    for name, owner, attrs, count in INSTRUMENTS:
        module, classes = _targets(owner)
        for attr in attrs:
            if classes is not None:
                for cls in classes:
                    raw = cls.__dict__.get(attr)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(rec.wrap(name, raw.__func__, count)))
                    else:
                        setattr(cls, attr, rec.wrap(name, raw, count))
                continue
            original = getattr(module, attr)
            wrapper = rec.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
