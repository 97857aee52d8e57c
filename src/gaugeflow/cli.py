"""Command-line front end for the verification experiments.

Each subcommand runs one experiment family from `experiments`, writes a
deterministic JSON report plus CSV plot data under the output directory,
and exits 0 only if every check passed. An experiment also returns the
fields it wants written, keyed by path (heatflow's snapshots), and `all`
drops them once written. Reports never contain wall-clock times; timing
goes to a `timings.json` sidecar so the reports themselves bit-reproduce
for a fixed config and seed.

Exit codes: 0 all checks pass; 1 at least one check failed; 2 the config
is missing or invalid; 3 the numerics aborted (stability bound or blow-up);
4 internal error (any other error the program raised).
"""

from __future__ import annotations

import argparse
import csv
import json
import pathlib
import sys
import time

import numpy as np

from .experiments import (
    ALL_ORDER,
    ConfigError,
    resolve_config,
    run_experiment,
    set_by_path,
    validate_config,
)
from .field import save_field
from .heatflow import BlowUp, CflViolation

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL_ABORT = 3
EXIT_INTERNAL_ERROR = 4

# The error families the program itself raises. An exception outside them,
# such as a caller's own control-flow exception raised from a patched
# hook, passes through main unchanged.
INTERNAL_ERRORS = (ArithmeticError, AssertionError, AttributeError, ImportError, LookupError,
                   MemoryError, NameError, OSError, RuntimeError, TypeError, ValueError)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dump_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"
    )


def _write_tables(outdir, report):
    for name, table in sorted(report.get("tables", {}).items()):
        path = outdir / f"{name}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table["columns"])
            for row in table["rows"]:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _summary_lines(report):
    lines = [f"{report['subcommand']}: {'PASS' if report['pass'] else 'FAIL'}"]
    for c in report["checks"]:
        rel = {"leq": "<=", "geq": ">=", "range": "in"}[c["kind"]]
        lines.append(
            f"  [{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: "
            f"{c['value']:.6e} {rel} {c['tolerance']}"
        )
    for note in report.get("notes", []):
        lines.append(f"  note: {note}")
    return lines


def _emit(outdir, report, outputs, seconds):
    name = report["subcommand"]
    _dump_json(outdir / f"{name}.report.json", report)
    _write_tables(outdir, report)
    (outdir / "summary.txt").write_text("\n".join(_summary_lines(report)) + "\n")
    _dump_json(outdir / "timings.json", {"subcommand": name, "seconds": seconds})
    for path, field in outputs.items():
        (outdir / path).parent.mkdir(parents=True, exist_ok=True)
        save_field(field, outdir / path)


def _load_config(args):
    overrides = {}
    if args.config is not None:
        path = pathlib.Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            overrides = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    cfg = resolve_config(overrides)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        try:
            set_by_path(cfg, key, value)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"--set {key!r} does not address a config entry") from exc
    return cfg


def _apply_heatflow_flags(cfg, args):
    h = cfg["heatflow"]
    if args.grid is not None:
        h["grid"] = args.grid
    if args.ds is not None:
        h["ds"] = args.ds
    if args.save_every is not None:
        h["save_every"] = args.save_every
    if args.amplitude is not None:
        h["field"]["amplitude"] = args.amplitude
    if args.total_s is not None:
        validate_config(cfg)  # --S divides by ds, so ds must be a valid step first
        steps = args.total_s / h["ds"]
        if not 0.0 < steps < float("inf"):
            raise ConfigError(f"--S {args.total_s:g} at ds {h['ds']:g} gives no step count")
        h["steps"] = max(1, int(round(steps)))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaugeflow",
        description="Numerical checks tying the gradient flow of the gauge "
        "action to the second-derivative trace of parallel transports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of config overrides")
    common.add_argument("--out", default="out", help="output directory root")
    common.add_argument("--seed", type=int, default=42, help="master seed")
    common.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override one config entry by dotted path (value parsed as JSON)",
    )

    for name in ALL_ORDER:
        p = sub.add_parser(name, parents=[common])
        if name == "heatflow":
            p.add_argument("--grid", type=int, help="lattice sites per direction")
            p.add_argument("--ds", type=float, help="flow step size")
            p.add_argument("--S", dest="total_s", type=float,
                           help="total flow time (sets the step count)")
            p.add_argument("--save-every", type=int, help="snapshot cadence in steps")
            p.add_argument("--amplitude", type=float,
                           help="initial field amplitude")
    sub.add_parser("all", parents=[common])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _main(args)
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _main(args):
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        cfg = _load_config(args)
        if args.subcommand == "heatflow":
            _apply_heatflow_flags(cfg, args)
        validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    root = pathlib.Path(args.out)
    names = ALL_ORDER if args.subcommand == "all" else [args.subcommand]
    reports = []
    try:
        for name in names:
            t0 = time.perf_counter()
            report, outputs = run_experiment(name, cfg, args.seed)
            _emit(root / name, report, outputs, {name: time.perf_counter() - t0})
            del outputs  # written: the next experiment runs without them
            reports.append(report)
            for line in _summary_lines(report):
                print(line)
    except (CflViolation, BlowUp) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT

    if args.subcommand == "all":
        aggregate = {
            "schema": 1,
            "subcommand": "all",
            "seed": int(args.seed),
            "pass": all(r["pass"] for r in reports),
            "parts": [
                {"subcommand": r["subcommand"], "pass": r["pass"],
                 "checks": len(r["checks"])}
                for r in reports
            ],
        }
        _dump_json(root / "all" / "all.report.json", aggregate)
        overall = aggregate["pass"]
    else:
        overall = reports[0]["pass"]
    return EXIT_PASS if overall else EXIT_CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
