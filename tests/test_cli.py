"""Command-line interface: exit codes, output files, overrides, determinism.

Runs `python -m gaugeflow` in a subprocess, from the same package the test
session imported (the shared `_cli_env` helper puts its absolute root on the
child's `PYTHONPATH`), so argument parsing, config loading, and the
exit-code contract are exercised end to end:

    0 = all checks passed   1 = a check failed
    2 = unusable config     3 = numerical abort (stability guard)
    4 = internal error (any other error; checked in process)
"""

import ast
import collections
import csv
import importlib
import json
import math
import pathlib
import subprocess
import sys
import weakref

import numpy as np

from _cli_env import cli_env
from _reduced import REDUCED_CONFIG
from _oracles import load_field
from gaugeflow import cli, experiments, heatflow
from gaugeflow.field import LatticeField

TRANSPORT_ONLY = {
    "schema": 1,
    "curves": REDUCED_CONFIG["curves"],
    "transport": {"triples": 8},
}


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "gaugeflow", *args],
        cwd=cwd, env=cli_env(), capture_output=True, text=True, timeout=600,
    )


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return path


def test_missing_config_is_exit_2(tmp_path):
    proc = run_cli(["transport", "--config", "absent.json"], tmp_path)
    assert proc.returncode == 2
    assert "absent.json" in proc.stderr


def test_invalid_json_config_is_exit_2(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    proc = run_cli(["transport", "--config", "bad.json"], tmp_path)
    assert proc.returncode == 2


def test_unknown_config_key_is_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"schema": 1, "no_such_section": True})
    proc = run_cli(["transport", "--config", cfg.name], tmp_path)
    assert proc.returncode == 2


def test_bad_set_override_is_exit_2(tmp_path):
    proc = run_cli(["transport", "--set", "not.a.key=1"], tmp_path)
    assert proc.returncode == 2
    # type violations introduced by --set are caught by re-validation
    proc = run_cli(["transport", "--set", "transport.triples=lots"], tmp_path)
    assert proc.returncode == 2
    proc = run_cli(["transport", "--set", "malformed"], tmp_path)
    assert proc.returncode == 2
    # the free-end check takes its worst case over at least one free-end case
    proc = run_cli(["verify-gradient", "--set", "gradient.free_end_cases=0"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "gradient/free_end_cases" in proc.stderr, proc.stderr


def test_malformed_overrides_are_exit_2(tmp_path):
    """A list index that is not an integer and a config file that is not a JSON
    object are config errors, refused before any output is written."""
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "string.json").write_text('"x"')
    for args in (["--set", "curves.x=1"], ["--config", "list.json"],
                 ["--config", "string.json"]):
        proc = run_cli(["transport", "--out", "out", *args], tmp_path)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith("config error:"), (args, proc.stderr)
    assert not (tmp_path / "out").exists()


def test_transport_outputs(tmp_path):
    cfg = write_config(tmp_path, TRANSPORT_ONLY)
    proc = run_cli(
        ["transport", "--config", cfg.name, "--out", "out", "--seed", "42"], tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    outdir = tmp_path / "out" / "transport"
    report = json.loads((outdir / "transport.report.json").read_text())
    assert report["pass"] is True
    assert report["seed"] == 42
    assert report["config"]["transport"]["triples"] == 8
    summary = (outdir / "summary.txt").read_text().splitlines()
    assert summary[0] == "transport: PASS"
    assert all(line.startswith("  [PASS]") for line in summary[1:])
    timings = json.loads((outdir / "timings.json").read_text())
    assert timings["subcommand"] == "transport"
    assert timings["seconds"]["transport"] >= 0.0
    # wall-clock time never leaks into the report itself
    assert "seconds" not in report


def test_failed_check_is_exit_1(tmp_path):
    cfg = write_config(tmp_path, TRANSPORT_ONLY)
    proc = run_cli(
        ["transport", "--config", cfg.name, "--out", "out",
         "--set", "tolerances.unitarity=1e-30"],
        tmp_path,
    )
    assert proc.returncode == 1
    report = json.loads((tmp_path / "out" / "transport" / "transport.report.json").read_text())
    assert report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["unitarity"]
    assert "FAIL" in (tmp_path / "out" / "transport" / "summary.txt").read_text()


def test_cfl_violation_is_exit_3(tmp_path, monkeypatch, capsys):
    """A flow step over the bound the flow itself checks aborts with exit 3.

    Validation refuses every configured step above `cfl_bound`, so the
    runtime guard is reached in process, with a bound the validated step
    exceeds.
    """
    monkeypatch.setattr(heatflow, "cfl_bound", lambda spacing, d: 1e-12)
    cfg = write_config(tmp_path, REDUCED_CONFIG)
    code = cli.main(["verify-theorem", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "stability" in capsys.readouterr().err.lower()


# consistent at d = 3: 3-vectors throughout, and the theorem and R-diagnostic
# steps meet the d = 3 bounds of their grids
D3 = {"torus": {"d": 3, "L": 1.0},
      "theorem": {"ds": 1e-5},
      "r_diagnostic": {"line_p0": [0.15, 0.35, 0.5], "line_p1": [0.55, 0.65, 0.5],
                       "ds": 1e-5}}
D3_HEATFLOW = {"grid": 16, "steps": 4, "save_every": 2, "su2_grid": 8, "su2_steps": 4,
               "critical_steps": 2,
               "order_time": {"k": [2, 0, 0], "ds": 4e-4, "steps": 4},
               "order_space": {"k": [1, 0, 0], "ds": 1e-4, "total_s": 0.001}}


def test_bad_heatflow_inputs_are_exit_2(tmp_path):
    """Flags, the seed, point lengths and flow steps are all checked before any numerics."""
    cfg = write_config(tmp_path, REDUCED_CONFIG)
    # d = 3 is refused at torus.d before the reduced order_time.ds, which exceeds
    # the 8^3 bound, is checked
    d3_steep = dict(REDUCED_CONFIG, **D3, heatflow=dict(D3_HEATFLOW, order_time={
        "k": [2, 0, 0]}))
    steep = write_config(tmp_path, d3_steep, "steep.json")
    d3_cases = [[cfg.name, "--set", "torus.d=3"], [steep.name]]
    cases = [
        [cfg.name, "--ds=-1e-5"],
        [cfg.name, "--save-every", "0"],
        [cfg.name, "--grid", "4"],
        [cfg.name, "--ds", "0", "--S", "0.1"],
        [cfg.name, "--S", "nan"],
        [cfg.name, "--set", "heatflow.ds=0.01"],
        [cfg.name, "--set", "theorem.ds=0.01"],
        [cfg.name, "--set", "r_diagnostic.ds=0.01"],
        *d3_cases,
        [cfg.name, "--set", "r_diagnostic.window=[0.6,0.4]"],
        [cfg.name, "--set", "cesaro.checkpoints=[4,16]"],
        [cfg.name, "--set", "heatflow.ds=NaN"],
        [cfg.name, "--ds", "nan"],
        [cfg.name, "--set", "gauge_rank=4"],
        [cfg.name, "--seed", "-1"],
    ]
    for args in cases:
        proc = run_cli(["heatflow", "--out", "out", "--config", *args], tmp_path)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith("config error:"), (args, proc.stderr)
        assert ("torus/d" in proc.stderr) == (args in d3_cases), (args, proc.stderr)
    assert not (tmp_path / "out").exists()


def test_internal_error_is_exit_4(tmp_path, monkeypatch, capsys):
    def broken(name, cfg, seed):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "run_experiment", broken)
    cfg = write_config(tmp_path, TRANSPORT_ONLY)
    code = cli.main(["transport", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: boom\n"


def test_heatflow_runs_at_d3(tmp_path):
    """d = 3 is refused at validation (exit 2), even in a config consistent at d = 3:
    no d = 3 configuration measured passes the checks tuned at d = 2."""
    cfg = write_config(tmp_path, dict(REDUCED_CONFIG, **D3, heatflow=D3_HEATFLOW))
    proc = run_cli(["heatflow", "--config", cfg.name, "--out", "out"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: config invalid at torus/d:"), proc.stderr
    assert not (tmp_path / "out").exists()


def test_su3_end_to_end_at_reduced_sizes(tmp_path):
    """N = 3 runs to exit 0 at the reduced sizes of `tests/_reduced.py`.

    `transport`, `verify-duhamel`, `verify-gradient`, `heatflow` and
    `verify-theorem` pass (about 2 s in process). At these sizes the other
    two fail, and no tolerance is moved to hide it: `levy` reads
    `cesaro_slope` 1.63 from its two checkpoints against [0.7, 1.3], and
    `r-diagnostic` reads `r_exact_flow` 2.9e-5 > 1e-5 at grid 32. Both pass
    at full defaults (`all --set gauge_rank=3`).
    """
    cfg = write_config(tmp_path, dict(REDUCED_CONFIG, gauge_rank=3))
    for name in ("transport", "verify-duhamel", "verify-gradient", "heatflow", "verify-theorem"):
        assert cli.main([name, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0, name
        report = json.loads((tmp_path / "out" / name / f"{name}.report.json").read_text())
        assert report["config"]["gauge_rank"] == 3


def test_zero_field_runs_without_internal_error(tmp_path):
    """A zero field has a zero Laplacian: its relative gaps read 0, not a division
    by zero (exit 4), and no report holds NaN or Infinity. `levy` exits 1, as its
    exact (zero) Cesàro errors show no decay for `cesaro_slope` to measure."""
    cfg = write_config(tmp_path, REDUCED_CONFIG)
    lattice_zero = '{"kind": "lattice", "base": {"kind": "zero"}, "grid": 8}'
    cases = [("verify-theorem", f"theorem.field={lattice_zero}", 0),
             ("verify-theorem", 'theorem.field={"kind": "zero"}', 0),
             ("levy", 'field={"kind": "zero"}', 1)]
    for i, (name, override, code) in enumerate(cases):
        out = tmp_path / f"out{i}"
        args = [name, "--config", str(cfg), "--out", str(out), "--set", override]
        assert cli.main(args) == code, override
        report = (out / name / f"{name}.report.json").read_text()
        assert "NaN" not in report and "Infinity" not in report


def test_abelian_field_with_one_mode_runs(tmp_path):
    """`abelian` draws exactly `modes` modes: at seed 0 its first wave vector is
    zero, and one mode drawn then skipped left none to stack (exit 4)."""
    out = tmp_path / "out"
    args = ["heatflow", "--out", str(out), "--set", "heatflow.field.modes=1",
            "--set", "heatflow.field.seed=0"]
    assert cli.main(args) == 0


def test_set_override_reflected_in_report(tmp_path):
    cfg = write_config(tmp_path, TRANSPORT_ONLY)
    proc = run_cli(
        ["transport", "--config", cfg.name, "--out", "out",
         "--set", "transport.triples=5", "--seed", "7"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "transport" / "transport.report.json").read_text())
    assert report["config"]["transport"]["triples"] == 5
    assert report["seed"] == 7


def test_reports_are_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, TRANSPORT_ONLY)
    for out in ("out1", "out2"):
        proc = run_cli(
            ["transport", "--config", cfg.name, "--out", out, "--seed", "42"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "out1" / "transport" / "transport.report.json").read_bytes()
    b = (tmp_path / "out2" / "transport" / "transport.report.json").read_bytes()
    assert a == b


def test_heatflow_outputs(tmp_path):
    """Flow table CSV, first/last lattice snapshots, and the initial series."""
    cfg = write_config(tmp_path, REDUCED_CONFIG)
    proc = run_cli(["heatflow", "--config", cfg.name, "--out", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    outdir = tmp_path / "out" / "heatflow"
    report = json.loads((outdir / "heatflow.report.json").read_text())
    assert report["pass"] is True

    with (outdir / "flow.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "action", "rhs_norm"]
    # csv floats are repr() round-trips of the report values
    assert float(rows[1][1]) == report["tables"]["flow"]["rows"][0][1]
    actions = [float(r[1]) for r in rows[1:]]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(actions, actions[1:]))

    steps = REDUCED_CONFIG["heatflow"]["steps"]
    first = LatticeField.load(outdir / "snapshots" / "step_000000")
    last = LatticeField.load(outdir / "snapshots" / f"step_{steps:06d}")
    assert first.m == last.m == REDUCED_CONFIG["heatflow"]["grid"]
    initial = load_field(outdir / "snapshots" / "initial_series")
    # the first snapshot is the initial series sampled on the grid
    assert np.max(np.abs(LatticeField.sample(initial, first.m).values - first.values)) < 1e-15
    # the flow moved things
    assert np.max(np.abs(last.values - first.values)) > 1e-6


def test_all_drops_each_experiments_outputs_before_the_next(tmp_path, monkeypatch):
    """In `all`, the fields heatflow hands over to be written (its first and
    last lattice snapshots and its initial series) are no longer referenced
    once verify-theorem, the next experiment, starts."""
    written, alive = [], []
    save_field = cli.save_field

    def noting(field, base):
        written.append(weakref.ref(field))
        save_field(field, base)

    run_theorem = experiments.EXPERIMENTS["verify-theorem"]

    def checking(cfg, seed):
        alive.extend(ref() is not None for ref in written)
        return run_theorem(cfg, seed)

    monkeypatch.setattr(cli, "save_field", noting)
    monkeypatch.setitem(experiments.EXPERIMENTS, "verify-theorem", checking)
    cfg = write_config(tmp_path, REDUCED_CONFIG)
    assert cli.main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert alive == [False] * 3


def test_cli_import_loads_no_scipy(tmp_path):
    """The package runs on numpy alone; scipy is a test-only oracle."""
    code = ("import sys, gaugeflow.cli; "
            "print([k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=cli_env(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_module_level_import_is_used():
    """Each name a `gaugeflow` module imports at module level is used in that
    module (`from __future__` imports aside)."""
    src = pathlib.Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports {sorted(imported - used)} unused"


# Functions and methods that no `gaugeflow` code calls, each with the reason it stays.
UNCALLED_ALLOWED = {
    "algebra.unitarize": "perfbench/spans.py wraps it by module and name",
    "algebra.random_group": "perfbench/probes.py builds its transport factors with it",
    "field.LatticeField.second_all": "perfbench/probes.py times it as the lattice read",
    "field.cov_deriv_curvature": "perfbench/spans.py wraps it by module and name",
    "field.ym_action": "perfbench/spans.py wraps it by module and name",
    "path.perturb": "perfbench/spans.py wraps it by module and name",
    "field.LatticeField.load": "README.md documents it as the reader of what `save` writes",
    "field.AnalyticField.from_dict":
        "README.md documents it as the reader of `initial_series.json`",
}


def test_every_function_is_called_or_allowed():
    """Each module-level function and method of a `gaugeflow` module is named in
    package code outside its own body (dunder methods aside), or is one of
    `UNCALLED_ALLOWED`; and each allowed name exists and is still uncalled.
    A name counts as an attribute, or as a load that no enclosing function
    binds as a parameter or by assignment: a local of the same name hides nothing.
    An attribute of a package class's name, `Class.attr`, counts only for that
    class and its package bases: `Torus.from_dict` hides no other `from_dict`."""
    src = pathlib.Path(cli.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    classes = {cls.name: cls for tree in trees.values() for cls in tree.body
               if isinstance(cls, ast.ClassDef)}

    def names(node, bound=frozenset()):
        """Each name the node uses: a string, or (class, attr) for `Class.attr`."""
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            bound = bound | {a.arg for a in params if a} | {
                sub.id for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            yield node.id
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in classes
                    and owner.id not in bound):
                yield owner.id, node.attr
            else:
                yield node.attr
        for child in ast.iter_child_nodes(node):
            yield from names(child, bound)

    def lineage(name):
        """The package class `name` and its package bases."""
        line = [name]
        for base in classes[name].bases:
            if isinstance(base, ast.Name) and base.id in classes:
                line += lineage(base.id)
        return line

    def uses(counter, name, owner=None):
        """Uses of `name` in counter, as a method of the class `owner` when given."""
        return counter[name] + sum(count for key, count in counter.items()
                                   if isinstance(key, tuple) and key[1] == name
                                   and owner in lineage(key[0]))

    used = collections.Counter(name for tree in trees.values() for name in names(tree))
    uncalled = set()
    for module, tree in trees.items():
        defs = [(f"{module}.{node.name}", None, node) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        defs += [(f"{module}.{cls.name}.{node.name}", cls.name, node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef)]
        for qualname, owner, node in defs:
            own = collections.Counter(names(node))
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and uses(used, node.name, owner) <= uses(own, node.name, owner):
                uncalled.add(qualname)
    assert uncalled == set(UNCALLED_ALLOWED), (
        f"uncalled: {sorted(uncalled - set(UNCALLED_ALLOWED))}, "
        f"allowed but called or gone: {sorted(set(UNCALLED_ALLOWED) - uncalled)}")


def test_benchmark_wrappers_find_their_targets(tmp_path):
    """The benchmark's span recorder still finds every function it wraps.

    `perfbench/spans.py` wraps gaugeflow functions by module and name, and a
    module-level name that is gone raises there. Run in a subprocess because
    the wrapping replaces functions process-wide; perfbench is only read.
    """
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    code = ("import sys, gaugeflow.cli; sys.path.insert(0, sys.argv[1]); import spans; "
            "spans.instrument(spans.Recorder())")
    proc = subprocess.run([sys.executable, "-c", code, str(perfbench)], cwd=tmp_path,
                          env=cli_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


# Attributes that perfbench/spans.py wraps on a `module:Class` and the class no
# longer defines: `spans.instrument` skips each one, and its span reads 0.
BENCHMARK_SPANS_GONE = {
    "TransportContext.integrate_prefix", "ScalarFourier.third",
    "AnalyticField.eval", "AnalyticField.partial_all", "AnalyticField.second_all",
    "LatticeField.eval", "LatticeField.partial_all",
    "TransformedField.eval", "TransformedField.partial_all", "TransformedField.second_all",
}


def test_benchmark_class_wrappers_miss_only_listed_names():
    """The `module:Class` attributes of perfbench/spans.py's `INSTRUMENTS` that
    the class does not define are exactly `BENCHMARK_SPANS_GONE`, so deleting a
    wrapped method is recorded here and not only as a silent 0. The table is
    read from the source, which is neither run nor changed."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    table = next(node.value for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "INSTRUMENTS" for t in node.targets))
    gone = set()
    for entry in table.elts:
        owner, attrs = (ast.literal_eval(item) for item in entry.elts[1:3])
        module, _, name = owner.partition(":")
        if name and not name.endswith("+"):
            cls = getattr(importlib.import_module(module), name)
            gone.update(f"{name}.{attr}" for attr in attrs if attr not in vars(cls))
    assert gone == BENCHMARK_SPANS_GONE


def test_benchmark_kernel_probes_run(tmp_path):
    """The benchmark's kernel probes build lattices, `ym_rhs` and group inputs
    that no workload builds: one run of them gives a finite positive time for
    every probe. Run in a subprocess, as the probes wrap functions
    process-wide; perfbench is only read."""
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    code = "import sys; sys.path.insert(0, sys.argv[1]); import probes; probes.main(sys.argv[2])"
    proc = subprocess.run([sys.executable, "-c", code, str(perfbench), "probes.json"],
                          cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    values = json.loads((tmp_path / "probes.json").read_text())
    assert values and all(math.isfinite(v) and v > 0.0 for v in values.values()), values


def test_unknown_subcommand_rejected(tmp_path):
    proc = run_cli(["no-such-subcommand"], tmp_path)
    assert proc.returncode == 2
