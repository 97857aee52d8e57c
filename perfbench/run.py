"""gaugeflow benchmark: time to a verified report, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload flow --seed 42 --seconds 28 --trace 0

A run starts one fresh single-threaded process (`rep.py`) that repeats the
workload until the next iteration would end past `--seconds` (at least
two iterations). Each iteration runs the workload's subcommands through
`gaugeflow.cli.main` with a generated `--config` file. `PYTHONPATH` is the
absolute `src` path, so no install is needed. Two more processes stop at
their first `run_experiment` call and only add set-up samples. With
`--trace 1` the run starts the kernel probes (`probes.py`), then one
untraced and one traced process, each for half the remaining time.

Correctness gate: an iteration fails if a subcommand exits non-zero (any
check FAIL exits 1) or its reports (every output file except
`timings.json`) differ in any byte from the first iteration of this
(workload, seed) with the same sources in this checkout; a process that
raises or times out counts as one failed attempt. Traced and untraced
iterations are held to the same bytes, which shows the span wrappers
change nothing. Reference digests live in `.perfbench_out/reference/`.

With `--trace 0` the last stdout line carries the end-to-end metrics
(medians over iterations); with `--trace 1` it carries the per-layer
metrics from `spans.py` and the kernel probes from `probes.py`. The line
before it is a provenance record. See README.md for the workloads, the
seed and the noise on a shared machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS, config_overrides, subcommands

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# seconds past the measuring deadline after which every process is killed
GRACE_S = 60
MIN_ITERATIONS = 2
SETUP_ONLY_LAUNCHES = 2
# Benchmark processes run pinned to one CPU: on a shared 2-core machine this
# cut the spread of a fixed kernel's timings over 30 s from about 25% to
# about 4%, and that of single iterations from about 15% to about 5%.
BENCH_CPU = max(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def pin_to_bench_cpu():
    os.sched_setaffinity(0, {BENCH_CPU})


def report_files(outdir):
    """Every output file except the wall-clock `timings.json` sidecars."""
    return sorted(p for p in outdir.rglob("*") if p.is_file() and p.name != "timings.json")


def report_digest(outdir):
    """sha256 over the report files, paths included."""
    digest = hashlib.sha256()
    for path in report_files(outdir):
        digest.update(str(path.relative_to(outdir)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def code_digest():
    """sha256 of the program and benchmark sources, standing in for the commit."""
    digest = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_verdicts(outdir, subcommands):
    verdicts = {}
    for name in subcommands:
        report = outdir / name / f"{name}.report.json"
        if report.is_file():
            for check in json.loads(report.read_text())["checks"]:
                verdicts[f"{name}:{check['name']}"] = check["pass"]
    return verdicts


class Run:
    """Launches benchmark processes for one workload and gates their reports."""

    def __init__(self, workload, seed, workdir, kill_at):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.kill_at = kill_at
        self.subcommands = subcommands(workload, seed)
        self.overrides = config_overrides(workload)
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps(self.overrides, indent=2, sort_keys=True))
        self.reference = OUT / "reference" / f"{workload}-{seed}-{code_digest()[:16]}.sha256"
        self.env = child_env()
        self.launches = 0
        self.iterations = []
        self.failed_processes = 0
        self.versions = None
        self.verdicts = None

    def launch(self, traced, deadline, min_iterations, setup_only=False):
        """One process of rep.py; returns its result, or None if it failed."""
        index = self.launches
        self.launches += 1
        out = self.workdir / f"proc{index}"
        spec_path = self.workdir / f"proc{index}.spec.json"
        result_path = self.workdir / f"proc{index}.result.json"
        log_path = self.workdir / f"proc{index}.log"
        spec_path.write_text(json.dumps({
            "subcommands": self.subcommands, "config": str(self.config),
            "seed": DEFAULT_SEED, "out": str(out), "trace": traced,
            "setup_only": setup_only, "deadline": deadline,
            "min_iterations": min_iterations, "launched": time.monotonic(),
        }))
        timeout = max(self.kill_at - time.monotonic(), 1.0)
        with open(log_path, "wb") as log:
            try:
                code = subprocess.run(
                    [sys.executable, str(HERE / "rep.py"), str(spec_path), str(result_path)],
                    env=self.env, cwd=self.workdir, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout, preexec_fn=pin_to_bench_cpu).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not result_path.is_file():
            self.failed_processes += 1
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"benchmark: process {index} failed ({code})\n{tail}", file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
            return None
        result = json.loads(result_path.read_text())
        self.versions = result["versions"]
        for iteration in result["iterations"]:
            self._judge(iteration, traced)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _judge(self, iteration, traced):
        out = pathlib.Path(iteration.pop("out"))
        iteration["traced"] = traced
        iteration["bytes_written"] = sum(p.stat().st_size for p in report_files(out))
        if self.verdicts is None:
            self.verdicts = check_verdicts(out, self.subcommands)
        if any(code != 0 for code in iteration["codes"]):
            problem = f"exit codes {iteration['codes']}"
        elif not self._same_reports(report_digest(out)):
            problem = f"reports differ from the reference in {self.reference}"
        else:
            problem = None
        iteration["ok"] = problem is None
        if problem:
            print(f"benchmark: iteration {len(self.iterations)} failed: {problem}",
                  file=sys.stderr)
        self.iterations.append(iteration)

    def _same_reports(self, digest):
        if not self.reference.is_file():
            self.reference.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.reference.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(digest)
            os.replace(tmp, self.reference)
        return self.reference.read_text() == digest

    @property
    def attempted(self):
        return len(self.iterations) + self.failed_processes

    @property
    def failed(self):
        return sum(1 for it in self.iterations if not it["ok"]) + self.failed_processes

    def good(self, traced):
        return [it for it in self.iterations if it["ok"] and it["traced"] == traced]


def run_probes(run):
    result_path = run.workdir / "probes.json"
    with open(run.workdir / "probes.log", "wb") as log:
        subprocess.run([sys.executable, str(HERE / "probes.py"), str(result_path)],
                       env=run.env, cwd=run.workdir, stdout=log, stderr=subprocess.STDOUT,
                       timeout=max(run.kill_at - time.monotonic(), 1.0), check=True,
                       preexec_fn=pin_to_bench_cpu)
    return json.loads(result_path.read_text())


def median_of(items, key):
    return statistics.median(item[key] for item in items)


def end_to_end_metrics(run, setup_samples, peak_rss_mb):
    return {
        "wall_s": median_of(run.good(traced=False), "wall_s"),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
    }


def per_layer_metrics(run, probes):
    """Medians of times over traced iterations; counts from the first one."""
    traced, untraced = run.good(traced=True), run.good(traced=False)

    def span(rep, name, column):
        return rep["trace"]["spans"].get(name, [0, 0.0, 0.0])[column]

    def self_s(name):
        return statistics.median(span(rep, name, 2) for rep in traced)

    def total_s(name):
        return statistics.median(span(rep, name, 1) for rep in traced)

    first = traced[0]
    counts = first["trace"]["counts"]

    def count(name):
        return counts.get(name, 0)

    context_nodes = count("transport.context.nodes")
    metrics = {
        "algebra.expm.calls": span(first, "algebra.expm", 0),
        "algebra.expm.matrices": count("algebra.expm.matrices"),
        "algebra.expm.self_s": self_s("algebra.expm"),
        "algebra.unitarize.matrices": count("algebra.unitarize.matrices"),
        "algebra.unitarize.self_s": self_s("algebra.unitarize"),
        "path.curve_points": count("path.curve_points"),
        "field.analytic_eval.points": count("field.analytic_eval.points"),
        "field.analytic_eval.self_s": self_s("field.analytic_eval"),
        "field.lattice_read.points": count("field.lattice_read.points"),
        "field.lattice_read.self_s": self_s("field.lattice_read"),
        "field.spline_filter.calls": span(first, "field.spline_filter", 0),
        "field.spline_filter.self_s": self_s("field.spline_filter"),
        "field.curvature.self_s": self_s("field.curvature"),
        "field.cov_deriv_curvature.self_s": self_s("field.cov_deriv_curvature"),
        "field.lattice_curvature_grid.calls": span(first, "field.lattice_curvature_grid", 0),
        "field.lattice_curvature_grid.self_s": self_s("field.lattice_curvature_grid"),
        "field.stencil_d1.calls": span(first, "field.stencil_d1", 0),
        "field.stencil_d1.bytes_computed": count("field.stencil_d1.bytes_computed"),
        "field.stencil_d1.self_s": self_s("field.stencil_d1"),
        "field.ym_action.self_s": self_s("field.ym_action"),
        "transport.context.count": count("transport.context.count"),
        "transport.context.nodes": context_nodes,
        "transport.context.self_s": self_s("transport.context"),
        "transport.context.total_s": total_s("transport.context"),
        "transport.endpoint_only.count": count("transport.endpoint_only.count"),
        "transport.nodes_kept_ratio": (
            1.0 - count("transport.endpoint_only.nodes") / context_nodes
            if context_nodes else 0.0),
        "transport.prefix_products.factors": count("transport.prefix_products.factors"),
        "transport.prefix_products.self_s": self_s("transport.prefix_products"),
        "transport.propagator.self_s": self_s("transport.propagator"),
        "levy.second_kernels.self_s": self_s("levy.second_kernels"),
        "levy.laplacian.self_s": self_s("levy.laplacian"),
        "levy.cesaro.transports": count("levy.cesaro.transports"),
        "levy.cesaro.self_s": self_s("levy.cesaro"),
        "heatflow.flow.steps": count("heatflow.flow.steps"),
        "heatflow.flow.site_steps": count("heatflow.flow.site_steps"),
        "heatflow.flow.self_s": self_s("heatflow.flow"),
        "heatflow.ym_rhs.calls": span(first, "heatflow.ym_rhs", 0),
        "heatflow.ym_rhs.self_s": self_s("heatflow.ym_rhs"),
        "heatflow.ym_rhs.total_s": total_s("heatflow.ym_rhs"),
        "experiments.validate_config.s": total_s("experiments.validate_config"),
        "cli.emit.s": total_s("cli.emit"),
        "cli.bytes_written": first["bytes_written"],
        "trace.overhead_ratio": median_of(traced, "wall_s") / median_of(untraced, "wall_s"),
        "trace.wall_s": median_of(traced, "wall_s"),
    }
    for name in ("transport", "verify-duhamel", "verify-gradient", "levy", "heatflow",
                 "verify-theorem", "r-diagnostic"):
        metrics[f"experiments.{name}.s"] = total_s(f"experiments.{name}")
    for layer in first["trace"]["layers"]:
        metrics[f"{layer}.self_s"] = statistics.median(
            rep["trace"]["layers"][layer] for rep in traced)
    metrics.update(probes)
    return metrics


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "gaugeflow").glob("*.py")))


def provenance(run, trace, setup_samples):
    return {
        "workload": run.workload,
        "workload_seed": run.seed,
        "master_seed": DEFAULT_SEED,
        "subcommands": run.subcommands,
        "config_overrides": run.overrides,
        "trace": trace,
        "processes": run.launches,
        "wall_s_samples": {"untraced": [it["wall_s"] for it in run.good(traced=False)],
                           "traced": [it["wall_s"] for it in run.good(traced=True)]},
        "setup_s_samples": setup_samples,
        "checks": run.verdicts,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "bench_cpu": BENCH_CPU,
        "machine": platform.machine(),
        "versions": run.versions,
        "thread_env": {key: run.env[key] for key in THREAD_ENV},
        "src_gaugeflow_lines": src_line_count(),
    }


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "gaugeflow" / "cli.py").is_file():
        print(f"benchmark: no gaugeflow sources under {SRC}", file=sys.stderr)
        return 2
    units = metric_specs()[args.trace]

    deadline = time.monotonic() + args.seconds
    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_samples, peak_rss_mb = [], None
    try:
        run = Run(args.workload, args.seed, workdir, kill_at=deadline + GRACE_S)
        if args.trace:
            probes = run_probes(run)
            halfway = (time.monotonic() + deadline) / 2
            run.launch(traced=False, deadline=halfway, min_iterations=1)
            run.launch(traced=True, deadline=deadline, min_iterations=1)
        else:
            for _ in range(SETUP_ONLY_LAUNCHES):
                result = run.launch(False, deadline, 0, setup_only=True)
                if result is not None:
                    setup_samples.append(result["setup_s"])
            result = run.launch(False, deadline, MIN_ITERATIONS)
            if result is not None:
                setup_samples.append(result["setup_s"])
                peak_rss_mb = result["peak_rss_mb"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not run.good(traced=False) or (args.trace and not run.good(traced=True)):
        print(f"benchmark: no iteration of {args.workload} passed", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer_metrics(run, probes)
    else:
        values = end_to_end_metrics(run, setup_samples, peak_rss_mb)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    print(json.dumps({"provenance": provenance(run, args.trace, setup_samples)}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
