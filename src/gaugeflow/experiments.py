"""Seeded end-to-end verification experiments.

Each experiment takes a validated config dict plus a master seed and
returns a deterministic report: named residuals, the tolerance each is
held to, and a pass flag. Experiments never share mutable state; every
random draw comes from a stream derived from (seed, purpose-label), so
reports bit-reproduce for a given (config, seed).

The checks come in dual-route pairs on purpose: each formula is compared
against an independent route to the same number (finite differences of a
whole evaluation, a closed-form special case, or a structurally different
assembly), never against a reshuffling of its own implementation. Every
finite-difference oracle's stencil comes from `field.central_difference`.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import zlib

import numpy as np

from . import algebra
from .algebra import _matmul, fiber_metric, group_defect, lie_matrix, maxabs, random_fiber, su_basis
from .field import (
    AnalyticField,
    GaugeMap,
    LatticeField,
    ScalarFourier,
    Torus,
    TransformedField,
    central_difference,
    cov_div_curvature,
    make_field,
)
from .heatflow import abelian_oracle, cfl_bound, flow, ym_rhs
from .levy import (
    assemble_bilinear,
    cesaro_levy_estimate,
    cesaro_second_trace,
    h0_gradient_transport,
    levy_laplacian_transport,
    second_kernels,
)
from .path import (
    Line,
    PolyReparam,
    SineReparam,
    curve_integral,
    gauss_legendre,
    make_curve,
    random_field,
    random_vanishing_field,
    reparametrize,
    variation_integrals,
)
from .transport import (
    TransportContext,
    _even_steps,
    duhamel_derivative,
    propagator_endpoint,
    transport,
    transport_derivative,
    transport_s_derivative,
    variation_transports,
)


class ConfigError(ValueError):
    """Config does not match the shape of DEFAULT_CONFIG or cannot be resolved."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

STEP_FINE = 1.0 / 4096
STEP_MID = 1.0 / 2048
STEP_COARSE = 1.0 / 1024

DEFAULT_CONFIG = {
    "schema": 1,
    "torus": {"d": 2, "L": 1.0},
    "gauge_rank": 2,
    "threads": 1,  # one value only; kept because perfbench/workloads.py sends it
    "field": {"kind": "random_su", "seed": 7, "modes": 2, "amplitude": 0.2, "kmax": 2},
    "abelian_field": {"kind": "abelian", "seed": 19, "modes": 3, "amplitude": 0.2, "kmax": 1},
    "curves": [
        {"kind": "fourier", "seed": 201 + i, "modes": 3, "amplitude": 0.15}
        for i in range(10)
    ],
    "transport": {"triples": 100, "step": STEP_COARSE},
    "duhamel": {"pairs": 20, "fd_eps": 1e-5, "step": STEP_COARSE},
    "gradient": {
        "cases": 20,
        "free_end_cases": 8,
        "fd_eps": 1e-5,
        "riesz_pairs": 20,
        "riesz_curves": 2,
        "step": STEP_MID,
    },
    "kernels": {"pairs": 10, "curves": 2, "fd_eps": 2e-4, "step": STEP_MID},
    "laplacian": {"curves": 10, "step": STEP_FINE},
    "cesaro": {
        "curves": 3,
        "n_modes": 64,
        "eps": 1e-3,
        "checkpoints": [4, 8, 16, 32, 64],
        "step": STEP_COARSE,
    },
    "functional": {
        "seed": 23,
        "modes": 4,
        "amplitude": 1.0,
        "kmax": 1,
        "curves": 3,
        "grad_eps": 1e-3,
        "hess_eps": 1e-3,
        "heat_s": 0.02,
        "cesaro_modes": 64,
    },
    "heatflow": {
        "grid": 64,
        "ds": 1.25e-5,
        "steps": 400,
        "save_every": 40,
        "field": {"kind": "abelian", "seed": 11, "modes": 3, "amplitude": 0.2, "kmax": 1},
        "su2_grid": 32,
        "su2_steps": 100,
        "su2_amplitude": 0.3,
        "critical_steps": 20,
        "order_time": {"grid": 8, "k": [2, 0], "ds": 8e-4, "steps": 10},
        "order_space": {"grids": [8, 16], "k": [1, 0], "ds": 2e-4, "total_s": 0.02},
    },
    "theorem": {
        "grid": 64,
        "ds": 1.25e-5,
        "steps": 520,
        "save_every": 40,
        "checkpoint_steps": [160, 320, 480],
        "field": {"kind": "random_su", "seed": 29, "modes": 1, "amplitude": 0.025, "kmax": 1},
        "curves": 10,
        "step": STEP_FINE,
        "abelian_s": 0.002,
        "abelian_delta": 1e-4,
    },
    "r_diagnostic": {
        "grid": 64,
        "ds": 1.25e-5,
        "steps": 128,
        "save_every": 8,
        "checkpoint_step": 120,
        "field": {"kind": "random_su", "seed": 31, "modes": 1, "amplitude": 0.04, "kmax": 1},
        "line_p0": [0.15, 0.35],
        "line_p1": [0.55, 0.65],
        "r_divisions": 16,
        "window": [0.4, 0.6],
        "bump_height": 0.05,
        "step": STEP_FINE,
    },
    "tolerances": {
        "unitarity": 1e-10,
        "group_law": 1e-8,
        "reparametrization": 1e-8,
        "duhamel_fd": 1e-6,
        "first_derivative_fd": 1e-5,
        "riesz_pairing": 1e-5,
        "riesz_formula_gap": 1e-8,
        "kl_symmetry": 1e-10,
        "ks_antisymmetry": 1e-10,
        "hessian_fd": 1e-4,
        "kernel_vs_closed": 1e-8,
        "pure_gauge_laplacian": 1e-8,
        "abelian_closed_form": 1e-8,
        "cesaro_error": 0.05,
        "cesaro_slope": [0.7, 1.3],
        "functional_grad_fd": 1e-6,
        "functional_hessian_fd": 1e-6,
        "functional_laplacian_routes": 1e-8,
        "functional_laplacian_fd": 1e-6,
        "functional_cesaro": 0.05,
        "heat_residual": 1e-8,
        "heat_single_mode": 1e-8,
        "heat_constant": 1e-12,
        "abelian_flow": 1e-6,
        "action_monotone": 1e-12,
        "critical_zero_drift": 1e-12,
        "critical_constant_drift": 1e-12,
        "critical_pure_gauge_drift": 1e-6,
        "order_factor": [12.8, 19.2],
        "forward_consistency": 1e-6,
        "fd_consistency": 1e-3,
        "abelian_fd_consistency": 1e-4,
        "critical_stationary": 1e-10,
        "r_exact_flow": 1e-5,
        "r_route_gap": 1e-6,
        "r_zero_at_origin": 1e-14,
        "r_outside_slope": 1e-5,
        "r_localization_ratio": 50.0,
    },
}

# Validation takes every key and type from DEFAULT_CONFIG; these tables hold
# only what the defaults cannot show. Bounds, lengths and choices are looked
# up by the nearest dict key. By default an integer is >= 1, a number > 0 and
# a list has at least one entry.
_MINIMUM = {"seed": 0, "grid": 8, "su2_grid": 8, "grids": 8,
            "n_modes": 4, "cesaro_modes": 4, "r_divisions": 4}
_SIGNED = {"k", "p0", "p1", "center", "axes", "turns", "phase", "line_p0", "line_p1",
           "window", "cesaro_slope", "order_factor"}
_LENGTH = {"checkpoints": (2, math.inf), "grids": (2, math.inf), "window": (2, 2),
           "cesaro_slope": (2, 2), "order_factor": (2, 2)}
# d = 3 and N >= 4 are refused: every d = 3 config measured failed checks tuned
# at d = 2, and N = 4 at full defaults fails `forward_consistency`
_CHOICES = {"schema": (1,), "d": (2,), "gauge_rank": (2, 3), "threads": (1,)}

# Field and curve specs: kind -> (required keys, optional keys), each key with
# a value of its type. A spec's family is the one that knows its default kind.
_RANDOM_SPEC = {"seed": 0, "modes": 1, "amplitude": 1.0, "kmax": 1}
_SPEC_KINDS = (
    {
        "zero": ({}, {}),
        "random_su": ({}, _RANDOM_SPEC),
        "abelian": ({}, _RANDOM_SPEC),
        "pure_gauge": ({}, dict(_RANDOM_SPEC, factors=1)),
        "lattice": ({"base": {"kind": "zero"}}, {"grid": 8}),
    },
    {
        "line": ({"p0": [0.0], "p1": [0.0]}, {}),
        "circle": ({"center": [0.0], "radius": 1.0}, {"axes": [0], "turns": 1.0, "phase": 0.0}),
        "fourier": ({"seed": 0}, {"modes": 1, "amplitude": 1.0, "closed": False}),
    },
)


def _deep_merge(base, extra):
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def resolve_config(overrides=None):
    """DEFAULT_CONFIG merged with overrides, an object or None, validated."""
    if not isinstance(overrides, (dict, type(None))):
        raise _invalid((), f"expected an object, got {overrides!r}")
    cfg = _deep_merge(DEFAULT_CONFIG, overrides or {})
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """Check cfg against the shape of DEFAULT_CONFIG, then the cross-field constraints."""
    _check_entry(cfg, DEFAULT_CONFIG, ())
    _validate_cross_fields(cfg)


def _invalid(path, reason):
    where = "/".join(str(p) for p in path) or "<root>"
    return ConfigError(f"config invalid at {where}: {reason}")


def _check_entry(value, default, path, name=None):
    """value must have the type of `default`: a dict its keys (a spec the keys of
    its kind), a list entries like its first, a number finite and in bounds."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise _invalid(path, f"expected an object, got {value!r}")
        required = allowed = default
        for_kind = ""
        if "kind" in default:
            required, allowed = _spec_keys(value, default, path)
            for_kind = f" for kind {value['kind']!r}"
        for key in value:
            if key not in allowed:
                raise _invalid(path + (key,), f"unknown key{for_kind}")
        for key in required:
            if key not in value:
                raise _invalid(path + (key,), f"missing{for_kind}")
        for key, item in value.items():
            _check_entry(item, allowed[key], path + (key,), key)
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise _invalid(path, f"expected a list, got {value!r}")
        lo, hi = _LENGTH.get(name, (1, math.inf))
        if not lo <= len(value) <= hi:
            raise _invalid(path, f"has {len(value)} entries, needs "
                                 f"{'exactly' if lo == hi else 'at least'} {lo}")
        for i, item in enumerate(value):
            _check_entry(item, default[0], path + (i,), name)
    elif isinstance(default, (bool, str)):
        if type(value) is not type(default):
            raise _invalid(path, f"expected a {type(default).__name__}, got {value!r}")
    else:
        integer = isinstance(default, int)
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            raise _invalid(path, f"expected {'an integer' if integer else 'a number'}, "
                                 f"got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond any float
            raise _invalid(path, f"must be a finite float, got {value!r}")
        if name in _CHOICES:
            if value not in _CHOICES[name]:
                raise _invalid(path, f"must be one of {list(_CHOICES[name])}, got {value!r}")
        elif name not in _SIGNED:
            lo = _MINIMUM.get(name, 1)
            if not (value >= lo if integer else value > 0):
                raise _invalid(path, f"must be {f'>= {lo}' if integer else '> 0'}, "
                                     f"got {value!r}")


def _spec_keys(value, default, path):
    """(required, allowed) keys of the kind a field or curve spec names."""
    kinds = next(family for family in _SPEC_KINDS if default["kind"] in family)
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise _invalid(path + ("kind",), f"must be one of {list(kinds)}, got {kind!r}")
    required, optional = kinds[kind]
    return dict(required, kind=kind), dict(required, kind=kind, **optional)


def _checkpoint_reads(c, every):
    """The flow steps checkpoint c reads: c and one save_every on either side."""
    return c - every, c, c + every


def _validate_cross_fields(cfg):
    """Constraints between entries: point lengths and circle axes against d, order
    flows whose mode moves on every grid, flow steps against grids, a diagnostic
    line of nonzero length, the diagnostic window inside [0, 1] with a division of
    r outside it, every r of R(r) on an even node of its step grid, Cesàro
    checkpoints within n_modes, kernel curves within the curve list, flow
    checkpoints on the snapshot cadence."""
    d, L = cfg["torus"]["d"], cfg["torus"]["L"]
    h, th, rd = cfg["heatflow"], cfg["theorem"], cfg["r_diagnostic"]
    ot, osp = h["order_time"], h["order_space"]
    points = {"heatflow/order_time/k": ot["k"], "heatflow/order_space/k": osp["k"],
              "r_diagnostic/line_p0": rd["line_p0"], "r_diagnostic/line_p1": rd["line_p1"]}
    points.update((f"curves/{i}/{key}", spec[key]) for i, spec in enumerate(cfg["curves"])
                  for key in ("p0", "p1", "center") if key in spec)
    for path, vec in points.items():
        if len(vec) != d:
            raise ConfigError(f"config invalid at {path}: needs {d} entries (torus.d), "
                              f"got {len(vec)}")
    # the bump's radius is a share of the line's length
    if rd["line_p0"] == rd["line_p1"]:
        raise ConfigError("config invalid at r_diagnostic/line_p1: equals line_p0, a line of "
                          "zero length")
    # an order factor divides one flow's error by another's, so each flow must
    # move: the stencil maps a mode at frequency 0 or pi along every axis to 0,
    # and the continuum decay rate of k = 0 is 0
    if all(2 * k % ot["grid"] == 0 for k in ot["k"]):
        raise ConfigError(f"config invalid at heatflow/order_time/k: the mode {ot['k']} does "
                          f"not move on a {ot['grid']}-site grid")
    # the coarser grid must resolve the mode: at its Nyquist frequency the
    # stencil does not move it, beyond that it aliases, and k = 0 does not decay
    if not 0 < 2 * max(abs(k) for k in osp["k"]) < min(osp["grids"]):
        raise ConfigError(f"config invalid at heatflow/order_space/k: the mode {osp['k']} needs "
                          f"0 < 2 max|k_i| < {min(osp['grids'])}, the coarsest order_space grid")
    if int(round(osp["total_s"] / osp["ds"])) == 0:
        raise ConfigError(f"config invalid at heatflow/order_space/total_s: {osp['total_s']:g} "
                          f"is 0 steps of order_space.ds {osp['ds']:g}")
    for i, spec in enumerate(cfg["curves"]):
        axes = spec.get("axes", [0, 1])
        if not (len(axes) == 2 and axes[0] != axes[1] and all(0 <= a < d for a in axes)):
            raise ConfigError(f"config invalid at curves/{i}/axes: need two distinct "
                              f"indices in [0, {d}), got {axes}")
    steps = {"heatflow/ds": (h["ds"], h["grid"]), "heatflow/order_time/ds": (ot["ds"], ot["grid"]),
             "heatflow/order_space/ds": (osp["ds"], max(osp["grids"])),
             "theorem/ds": (th["ds"], th["grid"]), "r_diagnostic/ds": (rd["ds"], rd["grid"])}
    for path, (ds, grid) in steps.items():
        if ds > cfl_bound(L / grid, d):
            raise ConfigError(f"config invalid at {path}: {ds:g} exceeds the stability bound "
                              f"{cfl_bound(L / grid, d):g} of a {grid}-site grid at d={d}")
    lo, hi = rd["window"]
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError(f"config invalid at r_diagnostic/window: need 0 <= lo < hi <= 1, "
                          f"got [{lo:g}, {hi:g}]")
    # R(r) integrates over [0, r], which must end on an even node of the step grid
    nodes, divisions = _even_steps(1.0, rd["step"]), rd["r_divisions"]
    if nodes % (2 * divisions):
        raise ConfigError(f"config invalid at r_diagnostic/r_divisions: r = 1/{divisions} is "
                          f"not an even node of the {nodes} steps of r_diagnostic.step")
    if not any(_outside_window(divisions, rd["window"])):
        raise ConfigError(f"config invalid at r_diagnostic/window: [{lo:g}, {hi:g}] leaves none "
                          f"of the {divisions} divisions of r outside it")
    n_modes = cfg["cesaro"]["n_modes"]
    for i, k in enumerate(cfg["cesaro"]["checkpoints"]):
        if k > n_modes:
            raise ConfigError(f"config invalid at cesaro/checkpoints/{i}: {k} exceeds "
                              f"cesaro.n_modes {n_modes}")
    if cfg["kernels"]["curves"] > len(cfg["curves"]):
        raise ConfigError(f"config invalid at kernels/curves: {cfg['kernels']['curves']} "
                          f"exceeds the {len(cfg['curves'])} configured curves")
    # a checkpoint reads the snapshots one save_every before and after it
    checkpoints = {f"theorem/checkpoint_steps/{i}": (c, th)
                   for i, c in enumerate(th["checkpoint_steps"])}
    checkpoints["r_diagnostic/checkpoint_step"] = (rd["checkpoint_step"], rd)
    for path, (c, run) in checkpoints.items():
        every, steps = run["save_every"], run["steps"]
        if not (c % every == 0 and all(0 <= k <= steps for k in _checkpoint_reads(c, every))):
            raise ConfigError(f"config invalid at {path}: {c} is not a multiple of save_every "
                              f"{every} in [{every}, {steps - every}]")


def set_by_path(cfg, dotted_key, raw_value):
    """Apply a KEY=VALUE override; VALUE parses as JSON, else as a string."""
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = cfg
    parts = dotted_key.split(".")
    for part in parts[:-1]:
        key = int(part) if isinstance(node, list) else part
        node = node[key]
    last = int(parts[-1]) if isinstance(node, list) else parts[-1]
    node[last] = value


def rng_for(seed, label):
    """Independent stream for one consumer, stable under refactors."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(label.encode())])
    )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _tol(cfg, name):
    return cfg["tolerances"][name]


def _check(name, value, tolerance, kind="leq"):
    value = float(value)
    if kind == "leq":
        ok = value <= tolerance
    elif kind == "geq":
        ok = value >= tolerance
    elif kind == "range":
        ok = tolerance[0] <= value <= tolerance[1]
    else:  # pragma: no cover
        raise ValueError(kind)
    return {"name": name, "value": value, "tolerance": tolerance,
            "kind": kind, "pass": bool(ok)}


def _report(subcommand, seed, cfg, checks, tables=None, notes=None):
    return {
        "schema": 1,
        "subcommand": subcommand,
        "seed": int(seed),
        "config": cfg,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "tables": tables or {},
        "notes": notes or [],
    }


def _torus(cfg):
    return Torus(cfg["torus"]["d"], cfg["torus"]["L"])


def _curves(cfg, count=None):
    return [make_curve(spec, d=cfg["torus"]["d"]) for spec in cfg["curves"][:count]]


def _field(cfg, key="field"):
    return make_field(cfg[key], torus=_torus(cfg), n=cfg["gauge_rank"])


def _rel(diff, ref):
    return maxabs(diff) / max(maxabs(ref), 1e-300)


# ---------------------------------------------------------------------------
# transport laws (criterion: unitarity, group law, reparametrization)
# ---------------------------------------------------------------------------


def run_transport(cfg, seed):
    a_field = _field(cfg)
    curves = _curves(cfg)
    step = cfg["transport"]["step"]
    rng = rng_for(seed, "transport/triples")
    triples = np.sort(rng.uniform(0.05, 0.95, size=(cfg["transport"]["triples"], 3)), axis=1)

    unitarity = 0.0
    contexts = {}
    for i, curve in enumerate(curves):
        ctx = TransportContext(a_field, curve, step=step)
        contexts[i] = ctx
        unitarity = max(unitarity, float(np.max(group_defect(ctx.from_start))))

    def law_residual(item):
        idx, (r, s, t) = item
        curve = curves[idx % len(curves)]
        u_sr = transport(a_field, curve, t=s, s=r, step=step)
        u_ts = transport(a_field, curve, t=t, s=s, step=step)
        u_tr = transport(a_field, curve, t=t, s=r, step=step)
        return maxabs(u_ts @ u_sr - u_tr)

    law = max(law_residual(item) for item in enumerate(triples))

    def reparam_residual(idx):
        curve = curves[idx]
        base = contexts[idx].endpoint
        worst = 0.0
        for mapping in (SineReparam(0.7), PolyReparam(1.0)):
            u = transport(a_field, reparametrize(curve, mapping), step=step)
            worst = max(worst, maxabs(u - base))
        return worst

    reparam = max(reparam_residual(idx) for idx in range(len(curves)))

    checks = [
        _check("unitarity", unitarity, _tol(cfg, "unitarity")),
        _check("group_law", law, _tol(cfg, "group_law")),
        _check("reparametrization", reparam, _tol(cfg, "reparametrization")),
    ]
    return _report("transport", seed, cfg, checks), {}


# ---------------------------------------------------------------------------
# Duhamel formula vs finite differences
# ---------------------------------------------------------------------------


def run_duhamel(cfg, seed):
    n = cfg["gauge_rank"]
    pairs, eps, step = (cfg["duhamel"][k] for k in ("pairs", "fd_eps", "step"))
    rng = rng_for(seed, "duhamel/pairs")

    def one_pair(_):
        z0 = algebra.random_lie(rng, n, scale=0.8)
        z1 = algebra.random_lie(rng, n, scale=0.5)
        z2 = algebra.random_lie(rng, n, scale=0.5)
        w0 = algebra.random_lie(rng, n, scale=1.0)
        w1 = algebra.random_lie(rng, n, scale=0.7)

        def zf(t):
            t = np.asarray(t, dtype=float)
            return (np.multiply.outer(np.ones_like(t), z0)
                    + np.multiply.outer(np.cos(2 * np.pi * t), z1)
                    + np.multiply.outer(t, z2))

        def dzf(t):
            t = np.asarray(t, dtype=float)
            return (np.multiply.outer(np.sin(np.pi * t), w0)
                    + np.multiply.outer(t * t, w1))

        formula = duhamel_derivative(zf, dzf, step=step)

        def final(e):
            return propagator_endpoint(lambda t: zf(t) + e * dzf(t), step=step)

        fd = central_difference(lambda ks: [final(k * eps) for k in ks], eps)
        return _rel(formula - fd, fd)

    # sequential: all pairs share one stream by design
    worst = max(one_pair(i) for i in range(pairs))
    checks = [_check("duhamel_fd", worst, _tol(cfg, "duhamel_fd"))]
    return _report("verify-duhamel", seed, cfg, checks), {}


# ---------------------------------------------------------------------------
# first derivative + H^0 gradient (Riesz pairing)
# ---------------------------------------------------------------------------


def run_gradient(cfg, seed):
    torus = _torus(cfg)
    gcfg = cfg["gradient"]
    step, eps = gcfg["step"], gcfg["fd_eps"]
    d = torus.d
    a_field = _field(cfg)
    curves = _curves(cfg)

    # --- first derivative formula vs FD of whole transports ---
    rng = rng_for(seed, "gradient/first-derivative")
    cases = []
    for i in range(gcfg["cases"]):
        free = i < gcfg["free_end_cases"]
        x = (random_field(rng, d, modes=3, amplitude=0.6) if free
             else random_vanishing_field(rng, d, modes=4, amplitude=0.8))
        cases.append((i, free, x))

    def deriv_case(case, ctx):
        i, free, x = case
        formula = transport_derivative(ctx, x)
        fd = central_difference(lambda ks: variation_transports(a_field, ctx.curve, step)(
            [[(x, k * eps)] for k in ks]), eps)
        return free, _rel(formula - fd, fd)

    # --- Riesz pairing: <grad U, X phi>_{H^0} vs FD of <U, phi> ---
    def riesz_gaps(fname, fld, ci, ctx):
        """Worst pairing and formula gaps of the Riesz pairs on curve ci."""
        curve = ctx.curve
        grad = h0_gradient_transport(ctx)
        rng_p = rng_for(seed, f"gradient/riesz/{fname}/{ci}")
        worst = gap = 0.0
        for _ in range(gcfg["riesz_pairs"]):
            x = random_vanishing_field(rng_p, d, modes=4, amplitude=0.8)
            phi = random_fiber(rng_p, cfg["gauge_rank"])
            paired = grad.pair(x, phi)
            fd = central_difference(lambda ks: [fiber_metric(u, phi) for u in variation_transports(
                fld, curve, step)([[(x, k * eps)] for k in ks])], eps)
            worst = max(worst, _rel(paired - fd, fd))
            direct = fiber_metric(transport_derivative(ctx, x), phi)
            gap = max(gap, abs(paired - direct) / (1.0 + abs(direct)))
        return worst, gap

    # one context per curve of the su(N) field, shared by the first-derivative
    # cases and the Riesz pairs on it; one context is alive at a time
    rows, gaps = [None] * len(cases), []
    for c, curve in enumerate(curves):
        on_curve = [case for case in cases if case[0] % len(curves) == c]
        riesz_on_curve = [ci for ci in range(gcfg["riesz_curves"]) if ci % len(curves) == c]
        if on_curve or riesz_on_curve:
            ctx = TransportContext(a_field, curve, step=step)
            for case in on_curve:
                rows[case[0]] = deriv_case(case, ctx)
            gaps += [riesz_gaps("su2", a_field, ci, ctx) for ci in riesz_on_curve]
            del ctx
    abelian = _field(cfg, "abelian_field")
    for ci in range(gcfg["riesz_curves"]):
        gaps.append(riesz_gaps("abelian", abelian, ci, TransportContext(
            abelian, curves[ci % len(curves)], step=step)))
    worst_all = max(r for _, r in rows)
    worst_free = max(r for f, r in rows if f)
    riesz_worst = max(w for w, _ in gaps)
    formula_gap = max(g for _, g in gaps)

    checks = [
        _check("first_derivative_fd", worst_all, _tol(cfg, "first_derivative_fd")),
        _check("first_derivative_fd_free_ends", worst_free,
               _tol(cfg, "first_derivative_fd")),
        _check("riesz_pairing", riesz_worst, _tol(cfg, "riesz_pairing")),
        _check("riesz_formula_gap", formula_gap, _tol(cfg, "riesz_formula_gap")),
    ]
    return _report("verify-gradient", seed, cfg, checks), {}


# ---------------------------------------------------------------------------
# kernels, Levy Laplacian, Cesaro, functionals  (the `levy` subcommand)
# ---------------------------------------------------------------------------


def _abelian_levy_oracle(fld, curve, panels=512):
    """Closed-form Levy Laplacian of the transport for a commuting field.

    Everything commutes, so U = expm(-int A.gammadot dt) and the Laplacian
    is -(int divF.gammadot dt) U, with divF assembled directly from the
    Fourier data of the field (independent of the kernel/transport code).
    """
    nodes, weights = gauss_legendre(panels)
    pts = curve.point(nodes)
    vel = curve.velocity(nodes)
    w = fld._w                       # (M, d) angular frequencies
    ang = pts @ w.T                  # (T, M)
    c, s = np.cos(ang), np.sin(ang)
    iscos = fld.phases == 0
    val = np.where(iscos, c, s)      # (T, M)
    z = np.zeros((len(nodes), fld.n, fld.n), dtype=np.complex128)
    div = np.zeros_like(z)
    for m in range(len(fld.kvecs)):
        mu = int(fld.mus[m])
        coeff = fld.coeffs[m]
        z += np.multiply.outer(val[:, m] * vel[:, mu], coeff)
        # (div F)_nu gammadot^nu for one plane-wave mode carried on axis mu:
        # the Laplacian piece -|w|^2 A_nu gammadot^nu plus the gradient of
        # the divergence, + w_nu w_mu phi gammadot^nu.
        wv = w[m]
        lam = float(wv @ wv)
        div += np.multiply.outer(-lam * val[:, m] * vel[:, mu], coeff)
        div += np.multiply.outer(val[:, m] * (vel @ wv) * wv[mu], coeff)
    z_int = np.einsum("t,tij->ij", weights, z)
    div_int = np.einsum("t,tij->ij", weights, div)
    u = algebra.expm(-z_int)
    return -div_int @ u


def run_levy(cfg, seed):
    torus = _torus(cfg)
    d, n = torus.d, cfg["gauge_rank"]
    a_field = _field(cfg)
    curves = _curves(cfg)
    tables = {}

    # --- kernel structure + Hessian vs FD (criterion: kernel decomposition)
    kcfg = cfg["kernels"]
    kstep, keps = kcfg["step"], kcfg["fd_eps"]
    kl_sym = ks_anti = hess_worst = 0.0
    rng_k = rng_for(seed, "levy/kernel-pairs")
    pair_plan = []
    for ci in range(kcfg["curves"]):
        for _ in range(-(-kcfg["pairs"] // kcfg["curves"])):
            if len(pair_plan) < kcfg["pairs"]:
                x = random_vanishing_field(rng_k, d, modes=3, amplitude=0.9)
                y = random_vanishing_field(rng_k, d, modes=3, amplitude=0.9)
                pair_plan.append((ci, x, y))
    kernel_cache = {}
    for ci in sorted({ci for ci, _, _ in pair_plan}):
        kern = second_kernels(a_field, curves[ci], step=kstep)
        kernel_cache[ci] = kern
        kl_sym = max(kl_sym, maxabs(kern.levy - np.swapaxes(kern.levy, 1, 2)))
        ks_anti = max(ks_anti, maxabs(kern.singular + np.swapaxes(kern.singular, 1, 2)))

    def hessian_case(item):
        ci, x, y = item
        curve = curves[ci]
        bil = assemble_bilinear(kernel_cache[ci], x, y)
        # the mixed second difference over the four corners (+-keps, +-keps)
        fd = central_difference(lambda ks: variation_transports(a_field, curve, kstep)([
            [(x, i * keps), (y, j * keps)] for i, j in ks]), keps, deriv=(1, 1))
        return _rel(bil - fd, fd)

    hess_worst = max(hessian_case(item) for item in pair_plan)

    # --- Levy Laplacian: kernel route vs closed form over curves ---
    lstep = cfg["laplacian"]["step"]

    def laplacian_case(ci):
        lap = levy_laplacian_transport(a_field, curves[ci], step=lstep,
                                       check=True, check_tol=np.inf)
        return ci, lap

    lap_rows = [laplacian_case(ci)
                for ci in range(min(cfg["laplacian"]["curves"], len(curves)))]
    route_gap = max(lap.mismatch for _, lap in lap_rows)
    laps = {ci: lap for ci, lap in lap_rows}

    # trivial oracle: flat (pure-gauge) field
    psi = GaugeMap.random(rng_for(seed, "levy/pure-gauge"), torus, n=n)
    flat = TransformedField(AnalyticField.zero(torus, n), psi)
    flat_lap = levy_laplacian_transport(flat, curves[0], step=cfg["laplacian"]["step"],
                                        check=False)
    pure_gauge_norm = maxabs(flat_lap.value)

    # commuting-field oracle: direct Fourier closed form
    ab_field = _field(cfg, "abelian_field")
    ab_lap = levy_laplacian_transport(ab_field, curves[0], step=lstep, check=False)
    ab_gap = _rel(ab_lap.value - _abelian_levy_oracle(ab_field, curves[0]),
                  ab_lap.value)

    # --- Cesaro estimator sweep ---
    ccfg = cfg["cesaro"]
    cesaro_rows = []

    def cesaro_case(ci):
        ref = laps.get(ci)
        if ref is None:
            ref = levy_laplacian_transport(a_field, curves[ci],
                                           step=lstep, check=False)
        est = cesaro_levy_estimate(
            a_field, curves[ci], n_modes=ccfg["n_modes"], eps=ccfg["eps"],
            step=ccfg["step"], checkpoints=tuple(ccfg["checkpoints"]))
        rows = []
        for k in sorted(est.partial):
            diff = est.partial[k] - ref.value
            rows.append({"curve": ci, "n": k, "err_abs": maxabs(diff),
                         "err_rel": _rel(diff, ref.value)})
        return rows

    all_rows = [cesaro_case(ci) for ci in range(min(ccfg["curves"], len(curves)))]
    worst_final = 0.0
    slopes = []
    for rows in all_rows:
        cesaro_rows.extend(rows)
        worst_final = max(worst_final, rows[-1]["err_rel"])
        ns = np.array([r["n"] for r in rows], dtype=float)
        errs = np.array([r["err_abs"] for r in rows], dtype=float)
        # an exact (zero) error reads as no decay, which the slope check refuses
        slopes.append(-np.polyfit(np.log(ns), np.log(np.maximum(errs, 1e-300)), 1)[0])
    tables["cesaro"] = {
        "columns": ["n", "err_abs", "err_rel"],
        "rows": [[r["n"], r["err_abs"], r["err_rel"]] for r in cesaro_rows],
    }
    slope_lo = min(slopes)
    slope_hi = max(slopes)

    # --- integral functionals of scalar fields ---
    fcfg = cfg["functional"]
    f0 = _functional_scalar(fcfg, seed, torus)
    fn_curves = curves[: fcfg["curves"]]
    gaps = _functional_gaps(f0, fn_curves, fcfg, seed)

    ces = cesaro_second_trace(variation_integrals(f0.value, fn_curves[0]), d,
                              fcfg["cesaro_modes"], eps=1e-3, checkpoints=(fcfg["cesaro_modes"],))
    lap_ref = curve_integral(f0.laplacian, fn_curves[0])
    ces_fn = _rel(ces.estimate - lap_ref, lap_ref)

    # constant scalar: everything vanishes
    f_const = ScalarFourier(torus, [], [], [], const=0.75)
    const_res = abs(curve_integral(f_const.laplacian, fn_curves[0]))

    # single mode: value known in closed form
    single = ScalarFourier(torus, kvecs=[[1, 0] + [0] * (d - 2)],
                           coeffs=[0.6], phases=[0])
    lam = (2 * np.pi / torus.L) ** 2
    s0 = fcfg["heat_s"]
    known = -lam * np.exp(-lam * s0) * curve_integral(single.value, fn_curves[0])
    measured = curve_integral(single.heat(s0).laplacian, fn_curves[0])
    single_gap = abs(measured - known) / (1.0 + abs(known))

    checks = [
        _check("kl_symmetry", kl_sym, _tol(cfg, "kl_symmetry")),
        _check("ks_antisymmetry", ks_anti, _tol(cfg, "ks_antisymmetry")),
        _check("hessian_fd", hess_worst, _tol(cfg, "hessian_fd")),
        _check("kernel_vs_closed", route_gap, _tol(cfg, "kernel_vs_closed")),
        _check("pure_gauge_laplacian", pure_gauge_norm, _tol(cfg, "pure_gauge_laplacian")),
        _check("abelian_closed_form", ab_gap, _tol(cfg, "abelian_closed_form")),
        _check("cesaro_error", worst_final, _tol(cfg, "cesaro_error")),
        _check("cesaro_slope_min", slope_lo, _tol(cfg, "cesaro_slope"), kind="range"),
        _check("cesaro_slope_max", slope_hi, _tol(cfg, "cesaro_slope"), kind="range"),
        *(_check(name, gaps[name], _tol(cfg, name)) for name in
          ("functional_grad_fd", "functional_hessian_fd", "functional_laplacian_routes",
           "functional_laplacian_fd")),
        _check("functional_cesaro", ces_fn, _tol(cfg, "functional_cesaro")),
        _check("heat_residual", gaps["heat_residual"], _tol(cfg, "heat_residual")),
        _check("heat_single_mode", single_gap, _tol(cfg, "heat_single_mode")),
        _check("heat_constant", const_res, _tol(cfg, "heat_constant")),
    ]
    return _report("levy", seed, cfg, checks, tables=tables), {}


def _functional_scalar(fcfg, seed, torus):
    """The random scalar f of the curve functional checks."""
    return ScalarFourier.random(rng_for(seed, "levy/functional"), torus, modes=fcfg["modes"],
                                amplitude=fcfg["amplitude"], kmax=fcfg["kmax"])


def _functional_gaps(f0, curves, fcfg, seed):
    """Worst gaps over curves of the functional L_f(gamma) = int f0(gamma).

    Closed-form gradient and Hessian along one random vanishing field per
    curve against finite differences, the two routes to its Laplacian and
    a finite-difference one, and the heat-evolution residual.
    """
    d = f0.torus.d
    geps, heps = fcfg["grad_eps"], fcfg["hess_eps"]
    rng_f = rng_for(seed, "levy/functional/fields")
    grad_fd = hess_fd = routes_gap = heat_res = lap_fd = 0.0
    for curve in curves:
        x = random_vanishing_field(rng_f, d, modes=4, amplitude=0.8)

        integrals = variation_integrals(f0.value, curve)

        def lf(h):
            return lambda ks: integrals([[(x, k * h)] if k else [] for k in ks])

        # fourth-order first and second differences along x
        fd1 = central_difference(lf(geps), geps, 1, 4)
        grad_fd = max(grad_fd, _rel(_functional_grad_pair(f0, curve, x) - fd1, fd1))
        fd2 = central_difference(lf(heps), heps, 2, 4)
        hess_fd = max(hess_fd, _rel(_functional_hessian(f0, curve, x, x) - fd2, fd2))

        lap_a = curve_integral(f0.laplacian, curve)
        lap_b = curve_integral(lambda p: np.einsum("...aa->...", f0.hess(p)), curve)
        routes_gap = max(routes_gap, abs(lap_a - lap_b) / (1.0 + abs(lap_a)))

        def fd_lap(p, feps=3e-4):
            # fourth-order central second differences, summed over axes
            tot = 0.0
            for e in np.eye(d) * feps:
                tot += central_difference(lambda ks: [f0.value(p + k * e) for k in ks], feps, 2, 4)
            return tot

        lap_fd_route = curve_integral(fd_lap, curve)
        lap_fd = max(lap_fd, _rel(lap_a - lap_fd_route, lap_a))

        fs = f0.heat(fcfg["heat_s"])
        dfs = f0.ds(fcfg["heat_s"])
        lhs = curve_integral(dfs.value, curve)
        rhs = curve_integral(fs.laplacian, curve)
        heat_res = max(heat_res, abs(lhs - rhs) / (1.0 + abs(rhs)))

    return {"functional_grad_fd": grad_fd, "functional_hessian_fd": hess_fd,
            "functional_laplacian_routes": routes_gap, "functional_laplacian_fd": lap_fd,
            "heat_residual": heat_res}


def _functional_grad_pair(f, curve, x_field, panels=256):
    nodes, weights = gauss_legendre(panels)
    g = f.grad(curve.point(nodes))
    xv = x_field.value(nodes)
    return float(np.einsum("t,tm,tm->", weights, g, xv))


def _functional_hessian(f, curve, x_field, y_field, panels=256):
    nodes, weights = gauss_legendre(panels)
    h = f.hess(curve.point(nodes))
    xv, yv = x_field.value(nodes), y_field.value(nodes)
    return float(np.einsum("t,tab,ta,tb->", weights, h, xv, yv))


# ---------------------------------------------------------------------------
# heat flow (criterion: oracle match, monotonicity, stationarity, orders)
# ---------------------------------------------------------------------------


def _single_mode_field(torus, n, k, mu, amplitude):
    direction = su_basis(n)[0]
    return AnalyticField(torus, n, kvecs=[k], mus=[mu],
                         coeffs=[amplitude * direction], phases=[0])


def _discrete_rate(k, torus, m):
    """Decay rate of the lattice stencil for one wave vector. On the mode, the
    order-4 first difference multiplies by i sym, sym its stencil applied to
    sin(j theta) along each axis, so applied twice it decays at sum sym^2."""
    a = torus.L / m
    theta = 2.0 * np.pi * np.asarray(k, dtype=float) * a / torus.L
    sym = central_difference(lambda js: [np.sin(j * theta) for j in js], a, 1, 4)
    return float(np.sum(sym * sym))


def run_heatflow(cfg, seed):
    torus = _torus(cfg)
    n = cfg["gauge_rank"]
    hcfg = cfg["heatflow"]
    tables = {}

    # --- commuting field vs closed-form trajectory ---
    ab = make_field(hcfg["field"], torus=torus, n=n)
    lat0 = LatticeField.sample(ab, hcfg["grid"])
    steps, every = hcfg["steps"], hcfg["save_every"]
    traj = flow(lat0, steps, hcfg["ds"], save=[*range(0, steps, every), steps], rhs_max=True)
    scale = 1.0 + maxabs(lat0.values)
    worst_ab = 0.0
    for step_idx in traj.snapshots:
        s = step_idx * hcfg["ds"]
        oracle = LatticeField.sample(abelian_oracle(ab, s), hcfg["grid"])
        worst_ab = max(worst_ab, maxabs(traj.field(step_idx).values - oracle.values) / scale)

    tables["flow"] = {
        "columns": ["s", "action", "rhs_norm"],
        "rows": [[row["s"], row["action"], row["rhs_max"]] for row in traj.table],
    }

    # --- action monotone along a genuinely non-commuting flow ---
    su2 = AnalyticField.random_su(rng_for(seed, "heatflow/su2"), torus, n=n,
                                  modes=2, amplitude=hcfg["su2_amplitude"], kmax=1)
    lat_su2 = LatticeField.sample(su2, hcfg["su2_grid"])
    ds_su2 = 0.9 * cfl_bound(lat_su2.a, torus.d)
    traj_su2 = flow(lat_su2, hcfg["su2_steps"], ds_su2)
    actions = [row["action"] for row in traj_su2.table]
    actions_ab = [row["action"] for row in traj.table]
    growth = 0.0
    for series in (actions, actions_ab):
        diffs = np.diff(np.asarray(series))
        if len(diffs):
            growth = max(growth, float(np.max(diffs / (1.0 + np.asarray(series[:-1])))))
    growth = max(growth, 0.0)

    # --- stationarity of critical data ---
    csteps = hcfg["critical_steps"]
    zero_lat = LatticeField.sample(AnalyticField.zero(torus, n), 16)
    traj_zero = flow(zero_lat, csteps, 1e-5, save=[csteps])
    zero_drift = maxabs(traj_zero.field(csteps).values - zero_lat.values)

    # A_mu = 0.3 (mu + 1) su_basis(n)[0], whose coordinate 0 is 1
    const_coords = np.zeros((torus.d, n * n - 1) + (16,) * torus.d)
    for mu in range(torus.d):
        const_coords[mu, 0] = 0.3 * (mu + 1)
    const_lat = LatticeField.from_coords(torus, const_coords)
    traj_const = flow(const_lat, csteps, 1e-5, save=[csteps])
    const_drift = maxabs(traj_const.field(csteps).values - const_lat.values)

    # two factors varying along different axes, so the sampled field is a
    # genuinely multi-dimensional flat connection (nonzero lattice residue)
    basis = su_basis(n)
    t1 = basis[0] / np.sqrt(np.sum(np.abs(basis[0]) ** 2))
    t2 = basis[1] / np.sqrt(np.sum(np.abs(basis[1]) ** 2))
    th1 = ScalarFourier(torus, [[1] + [0] * (torus.d - 1)], [0.5], [0])
    th2 = ScalarFourier(torus, [[0, 1] + [0] * (torus.d - 2)], [0.4], [1])
    psi = GaugeMap(torus, n, [(th1, t1), (th2, t2)])
    pg = TransformedField(AnalyticField.zero(torus, n), psi)
    pg_lat = LatticeField.sample(pg, hcfg["grid"])
    ds_pg = 0.9 * cfl_bound(pg_lat.a, torus.d)
    traj_pg = flow(pg_lat, csteps, ds_pg, save=[csteps], guard=False)
    pg_vals = pg_lat.values
    pg_drift = maxabs(traj_pg.field(csteps).values - pg_vals) / (1.0 + maxabs(pg_vals))

    # --- RK4 order in flow time against the semi-discrete closed form ---
    ot = hcfg["order_time"]
    m_t = ot["grid"]
    k_t = list(ot["k"])
    mode_t = _single_mode_field(torus, n, k_t, 1, 0.2)
    lat_t = LatticeField.sample(mode_t, m_t)
    rate = _discrete_rate(k_t, torus, m_t)
    errs_t = []
    for div in (1, 2):
        steps_t = ot["steps"] * div
        ds_t = ot["ds"] / div
        tr = flow(lat_t, steps_t, ds_t, save=[steps_t])
        exact = lat_t.values * np.exp(-rate * steps_t * ds_t)
        errs_t.append(maxabs(tr.field(steps_t).values - exact))
    time_factor = errs_t[0] / errs_t[1]

    # --- stencil order in space against the continuum closed form ---
    osp = hcfg["order_space"]
    k_s = list(osp["k"])
    mode_s = _single_mode_field(torus, n, k_s, 1, 0.2)
    lam = (2.0 * np.pi * np.linalg.norm(k_s) / torus.L) ** 2
    errs_s = []
    for m in osp["grids"]:
        lat_m = LatticeField.sample(mode_s, m)
        steps_m = int(round(osp["total_s"] / osp["ds"]))
        tr = flow(lat_m, steps_m, osp["ds"], save=[steps_m])
        exact = lat_m.values * np.exp(-lam * steps_m * osp["ds"])
        errs_s.append(maxabs(tr.field(steps_m).values - exact))
    space_factor = errs_s[0] / errs_s[1]

    checks = [
        _check("abelian_flow", worst_ab, _tol(cfg, "abelian_flow")),
        _check("action_monotone", growth, _tol(cfg, "action_monotone")),
        _check("critical_zero_drift", zero_drift, _tol(cfg, "critical_zero_drift")),
        _check("critical_constant_drift", const_drift,
               _tol(cfg, "critical_constant_drift")),
        _check("critical_pure_gauge_drift", pg_drift,
               _tol(cfg, "critical_pure_gauge_drift")),
        _check("time_order_factor", time_factor, _tol(cfg, "order_factor"),
               kind="range"),
        _check("space_order_factor", space_factor, _tol(cfg, "order_factor"),
               kind="range"),
    ]
    outputs = {f"snapshots/step_{step:06d}": traj.field(step) for step in (0, steps)}
    outputs["snapshots/initial_series"] = ab
    return _report("heatflow", seed, cfg, checks, tables=tables), outputs


# ---------------------------------------------------------------------------
# main theorem: d/ds of transport vs Levy Laplacian along the flow
# ---------------------------------------------------------------------------


def run_theorem(cfg, seed):
    torus = _torus(cfg)
    n = cfg["gauge_rank"]
    tcfg = cfg["theorem"]
    step = tcfg["step"]

    su2 = make_field(tcfg["field"], torus=torus, n=n)
    lat0 = LatticeField.sample(su2, tcfg["grid"])
    checkpoints = list(tcfg["checkpoint_steps"])
    ds, every = tcfg["ds"], tcfg["save_every"]
    traj = flow(lat0, tcfg["steps"], ds,
                save=[k for c in checkpoints for k in _checkpoint_reads(c, every)])

    curves = _curves(cfg, tcfg["curves"])

    def checkpoint_rows(cstep):
        # a checkpoint's lattices and velocity live only while its rows are formed
        fld, near = traj.field(cstep), {k: traj.field(cstep + k * every) for k in (-1, 1)}
        vel = ym_rhs(fld)
        rows = []
        for ci, curve in enumerate(curves):
            ctx = TransportContext(fld, curve, step=step)
            lap = levy_laplacian_transport(fld, curve, ctx=ctx, check=False)
            route_i = transport_s_derivative(ctx, vel)
            # route ii: the snapshots one save_every on either side
            route_ii = central_difference(
                lambda ks: [transport(near[k], curve, step=step) for k in ks], every * ds)
            rows.append([ci, cstep, _rel(route_i - lap.value, lap.value),
                         _rel(route_ii - lap.value, lap.value), maxabs(route_i - lap.value),
                         maxabs(lap.value)])
        return rows

    by_checkpoint = [checkpoint_rows(cstep) for cstep in checkpoints]
    rows = [row for per_curve in zip(*by_checkpoint) for row in per_curve]
    forward = max(r[2] for r in rows)
    fd = max(r[3] for r in rows)

    # trivial: s-independent critical (zero) field -> both sides vanish
    zero_field = AnalyticField.zero(torus, n)
    zctx = TransportContext(zero_field, curves[0], step=step)
    zlap = levy_laplacian_transport(zero_field, curves[0], ctx=zctx, check=False)
    zs = transport_s_derivative(zctx, zero_field)
    critical = max(maxabs(zlap.value), maxabs(zs))

    # commuting flow in closed form: FD across oracle fields vs Laplacian
    ab = make_field(cfg["abelian_field"], torus=torus, n=n)
    s0, dd = tcfg["abelian_s"], tcfg["abelian_delta"]
    ab_mid = abelian_oracle(ab, s0)
    ab_lap = levy_laplacian_transport(ab_mid, curves[0], step=step, check=False)
    ab_fd = central_difference(lambda ks: [
        transport(abelian_oracle(ab, s0 + k * dd), curves[0], step=step) for k in ks], dd)
    ab_rel = _rel(ab_fd - ab_lap.value, ab_lap.value)

    tables = {
        "combos": {
            "columns": ["curve", "checkpoint", "forward_rel", "fd_rel", "forward_abs",
                        "laplacian_maxabs"],
            "rows": rows,
        }
    }
    checks = [
        _check("forward_consistency", forward, _tol(cfg, "forward_consistency")),
        _check("fd_consistency", fd, _tol(cfg, "fd_consistency")),
        _check("critical_stationary", critical, _tol(cfg, "critical_stationary")),
        _check("abelian_fd_consistency", ab_rel, _tol(cfg, "abelian_fd_consistency")),
    ]
    notes = [
        "Checks run over a finite configured curve set; they can falsify the "
        "flow/Laplacian identity but not prove it for all curves.",
        "forward_consistency uses a single snapshot (no dependence on the "
        "flow step); fd_consistency shrinks with the snapshot spacing.",
    ]
    return _report("verify-theorem", seed, cfg, checks, tables=tables, notes=notes), {}


# ---------------------------------------------------------------------------
# R(r) diagnostic: localizing where a trajectory breaks the flow equation
# ---------------------------------------------------------------------------


def _bump_field(torus, grid, center, radius, height, n):
    """Smooth compact bump h*((1-(rho/rho0)^2)_+)^3 times su_basis(n)[0] in direction 0."""
    axes = [np.arange(grid) * (torus.L / grid) for _ in range(torus.d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    diff = mesh - np.asarray(center)
    diff -= torus.L * np.round(diff / torus.L)
    rho2 = np.sum(diff * diff, axis=-1) / (radius * radius)
    profile = np.clip(1.0 - rho2, 0.0, None) ** 3
    coords = np.zeros((torus.d, n * n - 1) + profile.shape)
    coords[0, 0] = height * profile  # coordinate 0 of su_basis(n)[0] is 1
    return LatticeField.from_coords(torus, coords)


def _outside_window(divisions, window):
    """Whether each division [j, j + 1] / divisions of R(r)'s grid lies outside `window`."""
    lo, hi = window
    dr = 1.0 / divisions
    return [(j + 1) * dr <= lo or j * dr >= hi for j in range(divisions)]


def run_r_diagnostic(cfg, seed):
    torus = _torus(cfg)
    n = cfg["gauge_rank"]
    rcfg = cfg["r_diagnostic"]
    step = rcfg["step"]
    ds = rcfg["ds"]

    su2 = make_field(rcfg["field"], torus=torus, n=n)
    lat0 = LatticeField.sample(su2, rcfg["grid"])
    curve = Line(rcfg["line_p0"], rcfg["line_p1"])

    lo, hi = rcfg["window"]
    center = curve.point(np.asarray(0.5 * (lo + hi)))
    speed = float(np.linalg.norm(np.asarray(rcfg["line_p1"]) - np.asarray(rcfg["line_p0"])))
    radius = 0.5 * (hi - lo) * speed
    bump = _bump_field(torus, rcfg["grid"], center, radius, rcfg["bump_height"], n)

    cstep, every = rcfg["checkpoint_step"], rcfg["save_every"]
    reads = _checkpoint_reads(cstep, every)  # the steps each of the two flows keeps
    divisions = rcfg["r_divisions"]
    r_values = [j / divisions for j in range(divisions + 1)]

    def checkpoint(trajectory):
        """The checkpoint snapshot and its velocity, the centered difference of
        the snapshots one save_every on either side: all that is read of a
        trajectory, which the caller then drops."""
        rate = central_difference(
            lambda ks: [trajectory.snapshots[cstep + k * every] for k in ks], every * ds)
        return trajectory.field(cstep), LatticeField.from_coords(torus, rate)

    def r_integral(fld, vel_fd):
        """R(r) by the integral formula: the gap, moved to the curve start once,
        is integrated over each [0, r] and carried to the curve end by U_{1,0},
        as `integrate_transported` does over [0, 1]. Also returns the line's
        plateau map and the two integrands the definition route takes from it;
        the line's context and its adjoint are dropped on return."""
        ctx, plateaus = TransportContext.with_plateaus(fld, curve, step=step)
        div_f = np.einsum("tmk,tm->tk", cov_div_curvature(fld, ctx.points), ctx.velocities)
        ds_a = vel_fd.generator(ctx.points, ctx.velocities)
        moved = ctx.to_start(ds_a - div_f)
        r_int = [_matmul(ctx.endpoint, lie_matrix(ctx.integrate(moved, upto=r))) for r in r_values]
        return r_int, (plateaus, div_f, ds_a)

    def r_definition(plateaus, div_f, ds_a):
        """R(r) = U_{1,r} (Levy Laplacian - d/ds) of the transport along
        plateau(curve, r), each term in its closed form: the plateau's context,
        its integrands and U_{1,r} all come from the line's, with no new read."""
        r_def = [np.zeros((n, n), np.complex128)]  # r = 0
        for r in r_values[1:]:
            pctx, u_tail, p_div_f, p_ds_a = plateaus(r, div_f, ds_a)
            plap = pctx.integrate_transported(-p_div_f)
            pds = pctx.integrate_transported(-p_ds_a)
            r_def.append(u_tail @ (plap - pds))
        return r_def

    # exact flow: R should vanish within the finite-difference budget. Its
    # snapshots go before R(r) is formed, and R(r)'s context before the
    # definition route builds the plateau contexts.
    r_int, line = r_integral(*checkpoint(flow(lat0, rcfg["steps"], ds, save=reads)))
    r_def = r_definition(*line)
    del line
    exact_max = max(maxabs(v) for v in r_int)
    route_gap = max(maxabs(a - b) for a, b in zip(r_int, r_def))
    origin = maxabs(r_int[0])

    # driven flow: the same diagnostic must localize the injected term
    r_int_p, _ = r_integral(*checkpoint(flow(lat0, rcfg["steps"], ds, save=reads,
                                             forcing=bump)))

    dr = 1.0 / divisions
    slopes = [maxabs(r_int_p[j + 1] - r_int_p[j]) / dr for j in range(divisions)]
    away = _outside_window(divisions, rcfg["window"])
    outside = [s for s, out in zip(slopes, away) if out]
    inside = [s for s, out in zip(slopes, away) if not out]
    outside_max = max(outside)
    ratio = max(inside) / max(outside_max, 1e-300)

    tables = {
        "r_profile": {
            "columns": ["r", "R_exact", "R_def_route", "route_gap", "R_driven"],
            "rows": [
                [r_values[j], maxabs(r_int[j]), maxabs(r_def[j]),
                 maxabs(r_int[j] - r_def[j]), maxabs(r_int_p[j])]
                for j in range(len(r_values))
            ],
        }
    }
    checks = [
        _check("r_exact_flow", exact_max, _tol(cfg, "r_exact_flow")),
        _check("r_route_gap", route_gap, _tol(cfg, "r_route_gap")),
        _check("r_zero_at_origin", origin, _tol(cfg, "r_zero_at_origin")),
        _check("r_outside_slope", outside_max, _tol(cfg, "r_outside_slope")),
        _check("r_localization_ratio", ratio, _tol(cfg, "r_localization_ratio"),
               kind="geq"),
    ]
    notes = [
        "The flow-time derivative of the connection is measured from the "
        "trajectory itself (centered differences across snapshots), so the "
        "diagnostic tests the trajectory, not the integrator's own right side.",
    ]
    return _report("r-diagnostic", seed, cfg, checks, tables=tables, notes=notes), {}


EXPERIMENTS = {
    "transport": run_transport,
    "verify-duhamel": run_duhamel,
    "verify-gradient": run_gradient,
    "levy": run_levy,
    "heatflow": run_heatflow,
    "verify-theorem": run_theorem,
    "r-diagnostic": run_r_diagnostic,
}

ALL_ORDER = list(EXPERIMENTS)


def run_experiment(name, cfg, seed):
    """Run one named experiment: (report, outputs), the fields to write keyed by path."""
    return EXPERIMENTS[name](cfg, seed)
