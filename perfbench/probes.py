"""Fixed-size kernel probes, timed by the same span recorder as the workloads.

Usage: python3 probes.py RESULT.json

Each probe builds its inputs from a fixed seed, then calls one wrapped
gaugeflow function several times; the probe's value is the median
duration of that outermost span. The inputs do not depend on the
workload, so the probes compare one kernel across commits directly.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import statistics
import sys

import numpy as np

import spans


def _median_span(rec, call, repeats):
    durations = []
    for _ in range(repeats):
        rec.reset()
        call()
        durations.append(rec.duration(0))
    return statistics.median(durations)


def run(rec):
    # the package re-exports a function named `transport`, so look modules up by name
    algebra, field, heatflow, levy, path, transport = (
        importlib.import_module(f"gaugeflow.{name}")
        for name in ("algebra", "field", "heatflow", "levy", "path", "transport"))
    torus = field.Torus(2, 1.0)
    rng = np.random.default_rng(20190503)
    su2 = field.AnalyticField.random_su(rng, torus, n=2, modes=2, amplitude=0.2, kmax=2)
    su3 = field.AnalyticField.random_su(rng, torus, n=3, modes=2, amplitude=0.2, kmax=2)
    curve = path.make_curve({"kind": "fourier", "seed": 201, "modes": 3, "amplitude": 0.15})
    lattice = field.LatticeField.sample(su2, 64)
    factors = algebra.random_group(rng, 2, scale=0.01, shape=(8192,))
    su3_lie = algebra.random_lie(rng, 3, scale=0.5, shape=(4096,))
    read_points = rng.uniform(0.0, 1.0, size=(1024, 2))

    def lattice_read():
        # a fresh field, so the read includes building its spline tables
        field.LatticeField(torus, lattice.values).second_all(read_points)

    step = 1.0 / 4096
    return {
        "heatflow.ym_rhs.probe_ms":
            1e3 * _median_span(rec, lambda: heatflow.ym_rhs(lattice), 9),
        "transport.prefix_products.probe_ms":
            1e3 * _median_span(rec, lambda: transport.prefix_products(factors), 9),
        "transport.context.probe_su2_s":
            _median_span(rec, lambda: transport.TransportContext(su2, curve, step=step), 5),
        "transport.context.probe_su3_s":
            _median_span(rec, lambda: transport.TransportContext(su3, curve, step=step), 3),
        "levy.second_kernels.probe_s":
            _median_span(rec, lambda: levy.second_kernels(su2, curve, step=1.0 / 2048), 3),
        "field.lattice_read.probe_ms": 1e3 * _median_span(rec, lattice_read, 5),
        "algebra.expm.probe_su3_ms":
            1e3 * _median_span(rec, lambda: algebra.expm(su3_lie), 5),
    }


def main(result_path):
    rec = spans.Recorder()
    import gaugeflow.cli  # noqa: F401  (loads every gaugeflow module before wrapping)

    spans.instrument(rec)
    pathlib.Path(result_path).write_text(json.dumps(run(rec)))


if __name__ == "__main__":
    main(sys.argv[1])
