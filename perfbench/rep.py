"""One benchmark process: a workload's experiments, repeated until a deadline.

Usage: python3 rep.py SPEC.json RESULT.json

SPEC holds the subcommands, the generated config file, the master seed,
the output directory, whether to trace, the monotonic time at which the
parent launched this process, the monotonic deadline and the least number
of iterations. Each iteration runs every subcommand as
`gaugeflow.cli.main([name, "--config", ..., "--seed", ..., "--out", ...])`,
the way a user runs it, writing to its own `iter<k>` directory. With
`setup_only` the process stops at the first `run_experiment` call.

RESULT gets the set-up time (launch to the first `run_experiment` call),
each iteration's exit codes and wall time (first `run_experiment` call to
the last report written), peak resident memory and, when traced, one span
summary per iteration.
"""

from __future__ import annotations

import json
import pathlib
import platform
import resource
import statistics
import sys
import time


class _SetupDone(Exception):
    pass


def main(spec_path, result_path):
    spec = json.loads(pathlib.Path(spec_path).read_text())

    import numpy
    import scipy
    from gaugeflow import cli

    rec = None
    if spec["trace"]:
        import spans

        rec = spans.Recorder()
        spans.instrument(rec)

    result = {"versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                           "scipy": scipy.__version__},
              "iterations": []}
    starts = []
    run_experiment = cli.run_experiment

    def timed_run_experiment(name, cfg, seed):
        starts.append(time.monotonic())
        result.setdefault("setup_s", starts[0] - spec["launched"])
        if spec["setup_only"]:
            raise _SetupDone
        return run_experiment(name, cfg, seed)

    cli.run_experiment = timed_run_experiment
    spent = []
    while True:
        out = pathlib.Path(spec["out"]) / f"iter{len(result['iterations'])}"
        del starts[:]
        if rec is not None:
            rec.reset()
        began = time.monotonic()
        try:
            codes = [
                cli.main([name, "--config", spec["config"], "--seed", str(spec["seed"]),
                          "--out", str(out)])
                for name in spec["subcommands"]
            ]
        except _SetupDone:
            break
        end = time.monotonic()
        iteration = {"out": str(out), "codes": codes, "wall_s": end - starts[0]}
        if rec is not None:
            iteration["trace"] = rec.summary()
        result["iterations"].append(iteration)
        spent.append(end - began)
        if (len(spent) >= spec["min_iterations"]
                and end + statistics.median(spent) > spec["deadline"]):
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pathlib.Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
