"""End-to-end acceptance suite: every advertised guarantee at full resolution.

All seven experiments run once at the complete default configuration with
seed 42 (a couple of minutes total); the ten tests below then assert each
guarantee at its stated tolerance and print exactly one PASS/FAIL line
(visible with ``pytest -s tests/test_acceptance.py``).

Margins measured on the reference machine, seed 42, full defaults:
unitarity 8.2e-15, group_law 8.5e-14, reparametrization 1.2e-12,
duhamel_fd 8.6e-10, first_derivative_fd 3.2e-8, riesz_pairing 2.1e-7,
hessian_fd 2.5e-5, kl/ks symmetry ~1e-16, kernel_vs_closed 4.9e-16,
cesaro_error 0.031 at n=64 (slopes 0.97..1.04), functional grad/hess
1.2e-9 / 9.3e-11, heat_residual 2.0e-16, abelian_flow 1.7e-7,
order factors 16.6 (time) / 15.2 (space), forward_consistency 4.2e-7,
fd_consistency 2.6e-4, r_exact_flow 1.6e-6, localization ratio ~3.4e3.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gaugeflow.experiments import ALL_ORDER, resolve_config, run_experiment

from _cli_env import cli_env
from _reduced import REDUCED_CONFIG

SEED = 42


@pytest.fixture(scope="module")
def full_run():
    """Run all experiments once at the full default config, seed 42."""
    cfg = resolve_config()
    reports = {}
    seconds = {}
    for name in ALL_ORDER:
        t0 = time.perf_counter()
        report, _ = run_experiment(name, cfg, SEED)
        seconds[name] = time.perf_counter() - t0
        reports[name] = report
    return reports, seconds


def _checks(report):
    return {c["name"]: c for c in report["checks"]}


def _leq(checks, name, tol):
    """(name, value, ok) for an upper-bound requirement at the stated tol."""
    value = checks[name]["value"]
    return (name, value, value <= tol)


def _in_range(checks, name, lo, hi):
    value = checks[name]["value"]
    return (name, value, lo <= value <= hi)


def _emit(num, label, items):
    ok = all(good for _, _, good in items)
    body = ", ".join(f"{name}={value:.3e}" for name, value, _ in items)
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label} ({body})"
    print(line)
    assert ok, line


def test_criterion_1_transport_laws(full_run):
    """Unitarity 1e-10; group law 1e-8 over 100 triples; reparametrization 1e-8."""
    reports, _ = full_run
    cfg = resolve_config()
    assert cfg["transport"]["triples"] >= 100
    c = _checks(reports["transport"])
    _emit(1, "transport laws", [
        _leq(c, "unitarity", 1e-10),
        _leq(c, "group_law", 1e-8),
        _leq(c, "reparametrization", 1e-8),
    ])


def test_criterion_2_duhamel(full_run):
    """Propagator directional derivative vs central FD, 1e-6 over 20 pairs."""
    reports, _ = full_run
    cfg = resolve_config()
    assert cfg["duhamel"]["pairs"] >= 20
    c = _checks(reports["verify-duhamel"])
    _emit(2, "propagator derivative formula", [
        _leq(c, "duhamel_fd", 1e-6),
    ])


def test_criterion_3_first_derivative(full_run):
    """First-derivative formula vs FD, 1e-5, with >= 5 free-endpoint cases."""
    reports, _ = full_run
    cfg = resolve_config()
    assert cfg["gradient"]["free_end_cases"] >= 5
    c = _checks(reports["verify-gradient"])
    _emit(3, "transport first derivative", [
        _leq(c, "first_derivative_fd", 1e-5),
        _leq(c, "first_derivative_fd_free_ends", 1e-5),
    ])


def test_criterion_4_riesz_gradient(full_run):
    """H0-gradient Riesz pairing identity to 1e-5 over 20 pairs per curve."""
    reports, _ = full_run
    cfg = resolve_config()
    assert cfg["gradient"]["riesz_pairs"] >= 20
    c = _checks(reports["verify-gradient"])
    _emit(4, "H0 gradient pairing", [
        _leq(c, "riesz_pairing", 1e-5),
        _leq(c, "riesz_formula_gap", 1e-8),
    ])


def test_criterion_5_kernel_decomposition(full_run):
    """Kernel bilinear form vs FD Hessian 1e-4 over 10 pairs; symmetry 1e-10."""
    reports, _ = full_run
    cfg = resolve_config()
    assert cfg["kernels"]["pairs"] >= 10
    c = _checks(reports["levy"])
    _emit(5, "second-derivative kernels", [
        _leq(c, "hessian_fd", 1e-4),
        _leq(c, "kl_symmetry", 1e-10),
        _leq(c, "ks_antisymmetry", 1e-10),
    ])


def test_criterion_6_levy_laplacian_routes(full_run):
    """Kernel-route Laplacian vs closed form 1e-8; Cesaro error <= 5% at
    n = 64 with measured O(1/n) slope in [0.7, 1.3]."""
    reports, _ = full_run
    c = _checks(reports["levy"])
    rows = reports["levy"]["tables"]["cesaro"]["rows"]
    assert int(rows[-1][0]) == 64
    _emit(6, "Levy Laplacian of transport", [
        _leq(c, "kernel_vs_closed", 1e-8),
        _leq(c, "pure_gauge_laplacian", 1e-8),
        _leq(c, "abelian_closed_form", 1e-8),
        _leq(c, "cesaro_error", 0.05),
        _in_range(c, "cesaro_slope_min", 0.7, 1.3),
        _in_range(c, "cesaro_slope_max", 0.7, 1.3),
    ])


def test_criterion_7_scalar_functional(full_run):
    """Endpoint-functional gradient and Laplacian match FD and closed forms
    to 1e-6; functional heat residual 1e-8."""
    reports, _ = full_run
    c = _checks(reports["levy"])
    _emit(7, "endpoint functional calculus", [
        _leq(c, "functional_grad_fd", 1e-6),
        _leq(c, "functional_hessian_fd", 1e-6),
        _leq(c, "functional_laplacian_routes", 1e-6),
        _leq(c, "functional_laplacian_fd", 1e-6),
        _leq(c, "heat_residual", 1e-8),
    ])


def test_criterion_8_heat_flow(full_run):
    """Abelian flow vs exponential-decay oracle 1e-6; action non-increasing;
    critical fields stationary; order factors within 20% of 2^4."""
    reports, _ = full_run
    c = _checks(reports["heatflow"])
    _emit(8, "gradient flow of the action", [
        _leq(c, "abelian_flow", 1e-6),
        _leq(c, "action_monotone", 1e-12),
        _leq(c, "critical_zero_drift", 1e-12),
        _leq(c, "critical_constant_drift", 1e-12),
        _leq(c, "critical_pure_gauge_drift", 1e-6),
        _in_range(c, "time_order_factor", 12.8, 19.2),
        _in_range(c, "space_order_factor", 12.8, 19.2),
    ])


def test_criterion_9_flow_transport_identity(full_run):
    """Flow/Laplacian identity on an su(2) small-amplitude flow: snapshot
    residual 1e-6 relative, FD-in-s 1e-3 relative, over 10 curves x 3
    checkpoints; defect profile 1e-5 on exact flows and localizing an
    injected violation; both experiments within the 15-minute budget."""
    reports, seconds = full_run
    cfg = resolve_config()
    assert cfg["theorem"]["curves"] >= 10
    assert len(cfg["theorem"]["checkpoint_steps"]) == 3
    t = _checks(reports["verify-theorem"])
    r = _checks(reports["r-diagnostic"])
    ratio = r["r_localization_ratio"]["value"]
    budget = seconds["verify-theorem"] + seconds["r-diagnostic"]
    items = [
        _leq(t, "forward_consistency", 1e-6),
        _leq(t, "fd_consistency", 1e-3),
        _leq(t, "critical_stationary", 1e-10),
        _leq(r, "r_exact_flow", 1e-5),
        _leq(r, "r_outside_slope", 1e-5),
        ("r_localization_ratio", ratio, ratio >= 50.0),
        ("runtime_seconds", budget, budget <= 900.0),
    ]
    _emit(9, "flow vs Laplacian identity", items)


def test_criterion_10_determinism(tmp_path):
    """Two `all --seed 42` runs produce byte-identical outputs (reports,
    summaries, tables, snapshots); only wall-time sidecars are excluded."""
    cfg_path = tmp_path / "reduced.json"
    cfg_path.write_text(json.dumps(REDUCED_CONFIG, indent=2, sort_keys=True) + "\n")
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"out_{tag}"
        proc = subprocess.run(
            [sys.executable, "-m", "gaugeflow", "all", "--seed", "42",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env())
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)

    def tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "timings.json"
        }

    first, second = tree(outs[0]), tree(outs[1])
    assert sorted(first) == sorted(second)
    assert len(first) > 10
    differing = [name for name in first if first[name] != second[name]]
    ok = not differing
    line = (f"criterion 10: {'PASS' if ok else 'FAIL'} - determinism "
            f"({len(first)} files byte-compared across two runs)")
    print(line)
    assert ok, f"{line}; differing files: {differing}"
