"""Experiment orchestration: config handling, seeding, determinism, and a
direct second-order check of the flow-derivative identity the verify-theorem
experiment is built on.
"""

import copy
import json
import re

import numpy as np
import pytest

from _reduced import REDUCED_CONFIG
from gaugeflow import experiments
from gaugeflow.algebra import maxabs
from gaugeflow.experiments import (
    ALL_ORDER,
    DEFAULT_CONFIG,
    EXPERIMENTS,
    ConfigError,
    _discrete_rate,
    resolve_config,
    rng_for,
    run_experiment,
    set_by_path,
    validate_config,
)
from gaugeflow.field import AnalyticField, LatticeField, Torus, central_difference, stencil_d1
from gaugeflow.heatflow import FlowTrajectory, flow, ym_rhs
from gaugeflow.levy import levy_laplacian_transport
from gaugeflow.path import make_curve
from gaugeflow.transport import TransportContext, transport, transport_s_derivative

SMALL = {
    "curves": [
        {"kind": "fourier", "seed": 201, "modes": 3, "amplitude": 0.15},
        {"kind": "fourier", "seed": 202, "modes": 3, "amplitude": 0.15},
    ],
    "transport": {"triples": 5},
}


def test_resolve_config_defaults():
    cfg = resolve_config()
    assert cfg == DEFAULT_CONFIG
    cfg["transport"]["triples"] = -1
    assert DEFAULT_CONFIG["transport"]["triples"] == 100  # deep copy


class _ReadSteps(dict):
    """A trajectory's snapshots that note each step read from them."""

    def __init__(self, items, read):
        super().__init__(items)
        self.read = read

    def __getitem__(self, step):
        self.read.add(step)
        return super().__getitem__(step)


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, REDUCED_CONFIG], ids=["default", "reduced"])
def test_default_flows_stop_at_their_last_read_snapshot(cfg, monkeypatch):
    """theorem.steps and r_diagnostic.steps copy what their checks read, in the
    default and in the reduced config: a checkpoint reads the snapshot one
    save_every past it, and no step after the last such snapshot is integrated.
    Every `flow` call of the seven experiments keeps exactly the steps its
    checks read and integrates no step past the last of them. The flow is
    stood in for where `experiments` looks it up: it keeps the start state at
    each saved step, since only which steps are kept and read matters here.
    The four experiments that run no flow run only at the reduced sizes."""
    th, rd = cfg["theorem"], cfg["r_diagnostic"]
    assert th["steps"] == max(th["checkpoint_steps"]) + th["save_every"]
    assert rd["steps"] == rd["checkpoint_step"] + rd["save_every"]

    calls = []

    def keeping_start(field0, steps, ds, save=(), forcing=None, guard=None, rhs_max=False):
        read = set()
        calls.append((steps, set(save), read))
        kept = _ReadSteps({k: field0.coords for k in sorted(set(save))}, read)
        table = [{"step": i, "s": i * ds, "action": 0.0, "rhs_max": 0.0}
                 for i in range(steps + 1)]
        return FlowTrajectory(field0.torus, kept, table)

    monkeypatch.setattr(experiments, "flow", keeping_start)
    resolved = resolve_config(cfg)
    validate_config(resolved)
    # the abelian, action, three critical, two time-order and two space-order
    # flows; the theorem's flow; the exact and driven diagnostic flows
    flows = {"heatflow": 9, "verify-theorem": 1, "r-diagnostic": 2}
    if cfg is REDUCED_CONFIG:
        flows = dict.fromkeys(ALL_ORDER, 0) | flows
    for name, count in flows.items():
        del calls[:]
        run_experiment(name, resolved, 42)
        assert len(calls) == count, name
        for steps, saved, read in calls:
            assert saved == read, (name, sorted(saved), sorted(read))
            assert max(saved, default=steps) == steps and min(saved, default=0) >= 0, name


def test_resolve_config_merges_nested():
    cfg = resolve_config({"transport": {"triples": 7}})
    assert cfg["transport"]["triples"] == 7
    assert cfg["transport"]["step"] == DEFAULT_CONFIG["transport"]["step"]
    assert cfg["duhamel"] == DEFAULT_CONFIG["duhamel"]


BAD_SETTINGS = [
    # (dotted key, JSON value as --set takes it, path the error must name)
    ("no_such_section", "1", "no_such_section"),
    ("transport.triples", "many", "transport/triples"),
    ("torus.d", "4", "torus/d"),
    ("curves", '[{"kind": "zigzag"}]', "curves/0/kind"),
    ("cesaro.checkpoints", "[64]", "cesaro/checkpoints"),  # need at least 2
    # each of these used to pass validation and then crash with an internal error
    ("transport.triples", "2.0", "transport/triples"),
    ("curves", '[{"kind": "line", "p1": [0.5, 0.5]}]', "curves/0/p0"),
    ("curves.0", '{"kind": "fourier"}', "curves/0/seed"),
    ("gauge_rank", "3.0", "gauge_rank"),
    ("curves.0", '{"kind": "circle", "center": [0.5, 0.5], "radius": 0.2, "axes": [0, 5]}',
     "curves/0/axes"),
    ("transport", '{"triples": 2}', "transport/step"),
    ("field", '{"kind": "lattice", "grid": 16}', "field/base"),
    # ... and this one ran to an all-NaN flow that passed every check
    ("heatflow.ds", "NaN", "heatflow/ds"),
    ("field.kind", "zero", "field/seed"),  # not a key of a zero field
    ("tolerances.no_such_check", "1e-6", "tolerances/no_such_check"),
    ("tolerances.order_factor", "[12.8]", "tolerances/order_factor"),
    ("threads", "2", "threads"),  # the only value is 1: curve loops run serially
    # each of these used to crash with an internal error (exit 4)
    ("r_diagnostic.checkpoint_step", "128", "r_diagnostic/checkpoint_step"),  # = steps
    ("kernels", '{"pairs": 12, "curves": 12, "fd_eps": 2e-4, "step": 5e-4}',
     "kernels/curves"),  # 10 curves
    ("heatflow.ds", "1" + "0" * 400, "heatflow/ds"),  # overflows a float
    # an order factor of 0 / 0: a k = 0 mode does not move, nor does one at
    # frequency pi on the 8-site order_time grid, and total_s under half of
    # order_space.ds 2e-4 is a 0-step flow
    ("heatflow.order_time.k", "[0, 0]", "heatflow/order_time/k"),
    ("heatflow.order_time.k", "[4, -4]", "heatflow/order_time/k"),
    ("heatflow.order_space.k", "[0, 0]", "heatflow/order_space/k"),
    # each of these used to pass validation and exit 1: on the 8-site order_space
    # grid 16 aliases to 0, and 4 is the Nyquist frequency, where the stencil
    # does not move the mode
    ("heatflow.order_space.k", "[16, 0]", "heatflow/order_space/k"),
    ("heatflow.order_space.k", "[4, 0]", "heatflow/order_space/k"),
    ("heatflow.order_space.total_s", "1e-9", "heatflow/order_space/total_s"),
    # each of these used to pass validation and abort in the flow (exit 3)
    ("theorem.ds", "2e-5", "theorem/ds"),  # bound 1.53e-5 on 64^2
    ("r_diagnostic.ds", "2e-5", "r_diagnostic/ds"),
    # this one crashed with an internal error (exit 4): no division of r lies
    # outside the window, so r_outside_slope has nothing to take the max of
    ("r_diagnostic.window", "[0.0, 1.0]", "r_diagnostic/window"),
    # ... and this one exited 1: a zero-length line gives the bump radius 0
    ("r_diagnostic.line_p1", "[0.15, 0.35]", "r_diagnostic/line_p1"),
]


def test_validate_rejects_bad_configs():
    """Each bad setting is refused with an error that names its path."""
    for key, value, path in BAD_SETTINGS:
        cfg = resolve_config()
        set_by_path(cfg, key, value)
        with pytest.raises(ConfigError, match=re.escape(f"config invalid at {path}:")):
            validate_config(cfg)


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        node = node.items()
    elif isinstance(node, list):
        node = enumerate(node)
    else:
        if not isinstance(node, bool) and isinstance(node, (int, float)):
            yield path
        return
    for key, child in node:
        yield from _numeric_leaves(child, path + (key,))


def test_every_numeric_default_is_checked():
    """NaN, a boolean or a string in place of any number in DEFAULT_CONFIG is
    refused at that number's path, so a new default cannot go unchecked."""
    leaves = list(_numeric_leaves(DEFAULT_CONFIG))
    assert len(leaves) > 100
    for path in leaves:
        where = "/".join(str(p) for p in path)
        for bad in ("NaN", "true", '"1"'):
            cfg = resolve_config()
            set_by_path(cfg, ".".join(str(p) for p in path), bad)
            with pytest.raises(ConfigError, match=re.escape(f"config invalid at {where}:")):
                validate_config(cfg)


D3_CONFIG = {
    "torus": {"d": 3, "L": 1.0},
    "heatflow": {"grid": 16, "order_time": {"k": [2, 0, 0], "ds": 4e-4, "steps": 20},
                 "order_space": {"k": [1, 0, 0], "ds": 1e-4}},
    "theorem": {"ds": 1e-5},
    "r_diagnostic": {"line_p0": [0.15, 0.35, 0.5], "line_p1": [0.55, 0.65, 0.5],
                     "ds": 1e-5},
}


def test_validate_cross_field_constraints():
    """Point lengths must equal torus.d; flow steps must meet the CFL bound; every
    r of R(r) must be an even node of the diagnostic's step grid."""
    with pytest.raises(ConfigError, match="torus/d"):
        resolve_config(D3_CONFIG)  # consistent at d = 3, but d = 3 is refused
    bad = [
        ({"torus": {"d": 3}}, "torus/d"),
        ({"heatflow": {"order_space": {"k": [1, 0, 0]}}}, "heatflow/order_space/k"),
        ({"r_diagnostic": {"line_p1": [0.5]}}, "r_diagnostic/line_p1"),
        ({"curves": [{"kind": "line", "p0": [0, 0, 0], "p1": [1, 0]}]}, "curves/0/p0"),
        ({"curves": [{"kind": "circle", "center": [0.5], "radius": 0.1}]}, "curves/0/center"),
        ({"heatflow": {"ds": 1e-3}}, "heatflow/ds"),
        ({"heatflow": {"order_time": {"ds": 1e-3}}}, "heatflow/order_time/ds"),
        ({"heatflow": {"order_space": {"ds": 3e-4}}}, "heatflow/order_space/ds"),
        ({"heatflow": {"order_space": {"grids": [8]}}}, "heatflow/order_space/grids"),
        ({"r_diagnostic": {"window": [0.6, 0.4]}}, "r_diagnostic/window"),
        ({"r_diagnostic": {"window": [-0.1, 0.5]}}, "r_diagnostic/window"),
        ({"cesaro": {"n_modes": 32}}, "cesaro/checkpoints/4"),  # default list ends at 64
        # r = 1/5 falls between nodes of the 4 096 default steps; r = 1/8 on
        # node 125 of 1 000
        ({"r_diagnostic": {"r_divisions": 5}}, "r_diagnostic/r_divisions"),
        ({"r_diagnostic": {"r_divisions": 8, "step": 0.001}}, "r_diagnostic/r_divisions"),
    ]
    for overrides, path in bad:
        with pytest.raises(ConfigError, match=path):
            resolve_config(overrides)


def test_set_by_path():
    cfg = resolve_config()
    set_by_path(cfg, "transport.triples", "12")
    assert cfg["transport"]["triples"] == 12
    set_by_path(cfg, "torus.L", "2.0")
    assert cfg["torus"]["L"] == 2.0
    set_by_path(cfg, "curves.0.seed", "999")
    assert cfg["curves"][0]["seed"] == 999
    set_by_path(cfg, "field.kind", "abelian")  # non-JSON falls back to string
    assert cfg["field"]["kind"] == "abelian"
    set_by_path(cfg, "cesaro.checkpoints", "[2, 4]")
    assert cfg["cesaro"]["checkpoints"] == [2, 4]
    with pytest.raises((KeyError, IndexError, TypeError)):
        set_by_path(cfg, "transport.missing.deep", "1")
    with pytest.raises((KeyError, IndexError, TypeError)):
        set_by_path(cfg, "curves.99.seed", "1")


def test_validate_config_direct():
    cfg = resolve_config()
    validate_config(cfg)  # no raise
    bad = copy.deepcopy(cfg)
    bad["tolerances"]["unitarity"] = "tight"
    with pytest.raises(ConfigError):
        validate_config(bad)


def test_rng_for_streams():
    a = rng_for(42, "alpha").standard_normal(4)
    b = rng_for(42, "alpha").standard_normal(4)
    c = rng_for(42, "beta").standard_normal(4)
    d = rng_for(43, "alpha").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_experiment_registry():
    assert ALL_ORDER == [
        "transport",
        "verify-duhamel",
        "verify-gradient",
        "levy",
        "heatflow",
        "verify-theorem",
        "r-diagnostic",
    ]
    for name in ALL_ORDER:
        assert name in EXPERIMENTS
    with pytest.raises(KeyError):
        run_experiment("no-such-experiment", resolve_config(), 42)


@pytest.mark.parametrize("grid, k", [(8, [2, 0]), (16, [1, 3]), (32, [1, 0])])
def test_discrete_rate_is_the_stencil_applied_twice(grid, k):
    """The flow's semi-discrete decay rate of a mode: stencil_d1 applied twice
    along each axis of the sampled plane wave exp(2 pi i k.x / L) multiplies it
    by -_discrete_rate, to 1e-12 relative."""
    torus = Torus(2, 1.5)
    a = torus.L / grid
    x = np.stack(np.meshgrid(*[a * np.arange(grid)] * 2, indexing="ij"), axis=-1)
    wave = np.exp(2j * np.pi * (x @ np.asarray(k, dtype=float)) / torus.L)
    second = sum(stencil_d1(stencil_d1(wave, ax, a), ax, a) for ax in range(2))
    rate = _discrete_rate(k, torus, grid)
    assert rate > 0.0
    assert maxabs(second + rate * wave) <= 1e-12 * rate


def test_transport_report_structure_and_determinism():
    cfg = resolve_config(SMALL)
    rep1, outputs1 = run_experiment("transport", cfg, 42)
    rep2, _ = run_experiment("transport", cfg, 42)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["schema"] == 1
    assert rep1["subcommand"] == "transport"
    assert rep1["seed"] == 42
    assert rep1["pass"] is True
    assert [c["name"] for c in rep1["checks"]] == [
        "unitarity",
        "group_law",
        "reparametrization",
    ]
    for c in rep1["checks"]:
        assert set(c) == {"name", "value", "tolerance", "kind", "pass"}
        assert c["pass"] is True
    assert rep1["config"]["transport"]["triples"] == 5
    assert outputs1 == {}


def test_seed_changes_report_values():
    cfg = resolve_config(SMALL)
    rep42, _ = run_experiment("transport", cfg, 42)
    rep43, _ = run_experiment("transport", cfg, 43)
    v42 = [c["value"] for c in rep42["checks"]]
    v43 = [c["value"] for c in rep43["checks"]]
    assert v42 != v43  # the random triples moved


def test_flow_derivative_identity_second_order():
    """d/ds of the transport along a lattice flow, two routes:

    (i)  -int U (d_s A . gammadot) U dt with d_s A from the flow equation;
    (ii) centered differences of whole transports across snapshots.

    Route (ii) converges to route (i) at second order in the snapshot
    spacing: measured gaps 1.76e-5 at delta = 8e-4 and 4.41e-6 at 4e-4,
    ratio 4.002.
    """
    torus = Torus(2, 1.0)
    fld = AnalyticField.random_su(rng_for(7, "unit/thm"), torus, modes=1,
                                  amplitude=0.1, kmax=1)
    lat = LatticeField.sample(fld, 16)
    ds = 2e-4
    traj = flow(lat, 16, ds, save=(4, 6, 8, 10, 12))
    curve = make_curve({"kind": "fourier", "seed": 301, "modes": 3, "amplitude": 0.2}, d=2)
    mid = traj.field(8)
    step = 1.0 / 512
    ctx = TransportContext(mid, curve, step=step)
    route_i = transport_s_derivative(ctx, ym_rhs(mid))
    gaps = []
    for width in (4, 2):  # steps to either side
        route_ii = central_difference(lambda ks: [
            transport(traj.field(8 + k * width), curve, step=step) for k in ks], width * ds)
        gaps.append(maxabs(route_ii - route_i))
    assert gaps[0] < 1e-4 and gaps[1] < 1e-4
    assert 3.0 < gaps[0] / gaps[1] < 5.0
    # and the flow derivative equals the Laplacian up to lattice truncation
    lap = levy_laplacian_transport(mid, curve, ctx=ctx, check=False).value
    assert maxabs(lap - route_i) < 1e-4  # measured 4.4e-6 on a 16^2 grid


def test_r_diagnostic_reads_the_line_once_per_flow(monkeypatch):
    """The definition route of R(r) reads no lattice: its plateau contexts and
    integrands come from the line's, so the points read do not depend on how
    many r the diagnostic takes."""
    read = []
    jets = LatticeField.coord_jets

    def counting(self, x, order=2):
        read.append(np.asarray(x).size // self.torus.d)
        return jets(self, x, order)

    monkeypatch.setattr(LatticeField, "coord_jets", counting)
    counts = []
    for divisions in (4, 8):
        cfg = resolve_config(REDUCED_CONFIG)
        cfg["r_diagnostic"]["r_divisions"] = divisions
        validate_config(cfg)
        read.clear()
        run_experiment("r-diagnostic", cfg, 42)
        counts.append(sum(read))
    assert counts[0] == counts[1] > 0
