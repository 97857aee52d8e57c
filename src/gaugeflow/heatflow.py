"""Gradient flow of the gauge action on a periodic lattice.

The flow integrates dA_nu/ds = sum_mu D_mu F_{mu nu} (covariant divergence
of the curvature) with classical RK4 in flow time and fourth-order central
stencils in space, on the same lattice container the rest of the package
interpolates from. The action is monitored every step: the exact flow is a
gradient descent, so sustained growth means the step size has crossed the
stability threshold and the run aborts rather than report garbage. The
action guard and the next step's k1 share one curvature grid, so an RK4
step builds four curvature grids, not five.

For pairwise-commuting fields the flow is linear and `abelian_oracle`
evolves the Fourier data in closed form: transverse mode components decay
as exp(-(2 pi |k| / L)^2 s), longitudinal components are fixed points.
This is an independent oracle for the lattice integrator (its spatial
stencil sees the slightly different discrete symbol; tests budget for
that).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .algebra import maxabs
from .field import (AnalyticField, LatticeField, _curvature_action, _matmul,
                    lattice_curvature_grid, stencil_d1)


MAX_ACTION_GROWTH = 1e-6


class CflViolation(RuntimeError):
    """Requested flow step exceeds the RK4/stencil stability bound."""


class BlowUp(RuntimeError):
    """Action grew during the flow; the integration is not trustworthy."""


def cfl_bound(spacing, d):
    """Largest safe RK4 step for the linearized flow on grid spacing `spacing`.

    The fourth-order second-difference symbol is bounded by 16/(3 a^2) per
    axis; with RK4's real-axis stability reach ~2.78 the usable step is
    about 0.5 a^2 / d. The factor used here, a^2 / (8 d), keeps a 4x margin
    so the nonlinear terms cannot push a run over the edge.
    """
    return spacing * spacing / (8.0 * d)


def _velocity(field, f=None):
    """sum_mu D_mu F_{mu nu} on the grid; f is the curvature of `field` if known."""
    f = lattice_curvature_grid(field) if f is None else f
    div = sum(stencil_d1(f[..., mu, :, :, :], mu, field.a) for mu in range(field.torus.d))
    av = field.values[..., :, None, :, :]
    comm = np.sum(_matmul(av, f) - _matmul(f, av), axis=-4)
    return div + comm


def ym_rhs(field):
    """Flow velocity sum_mu D_mu F_{mu nu} on the grid, as a LatticeField."""
    return LatticeField(field.torus, _velocity(field))


@dataclasses.dataclass
class FlowTrajectory:
    torus: object
    ds: float
    snapshots: list  # (step_index, values array)
    table: list      # dict rows: step, s, action, rhs_max

    def _index_at(self, s):
        steps = np.array([step for step, _ in self.snapshots], dtype=float)
        gaps = np.abs(steps * self.ds - s)
        k = int(np.argmin(gaps))
        if gaps[k] > 0.5 * self.ds:
            raise KeyError(f"no snapshot near s={s}")
        return k

    def field(self, s):
        k = self._index_at(s)
        return LatticeField(self.torus, self.snapshots[k][1])

    def ds_field(self, s):
        """Flow velocity at snapshot time s (the equation's right side)."""
        return ym_rhs(self.field(s))

    def fd_ds_field(self, s, width=1):
        """Centered finite difference of the trajectory across snapshots."""
        k = self._index_at(s)
        if k - width < 0 or k + width >= len(self.snapshots):
            raise KeyError("finite difference needs snapshots on both sides")
        sp, vp = self.snapshots[k + width]
        sm, vm = self.snapshots[k - width]
        delta = 0.5 * (sp - sm) * self.ds
        return LatticeField(self.torus, (vp - vm) / (2.0 * delta)), delta


def flow(field0, steps, ds, save_every=1, rhs_fn=None, guard=None):
    """Integrate the gradient flow from `field0` for `steps` RK4 steps.

    rhs_fn(LatticeField) -> values array overrides the flow velocity (used
    for driven variants); the action-monotonicity guard defaults to on for
    the plain flow and off when a custom right side is supplied. The guard
    aborts a step whose action exceeds the last by a factor 1 + MAX_ACTION_GROWTH.
    """
    torus = field0.torus
    if not 0 < ds:
        raise ValueError(f"ds must be positive, got {ds!r}")
    bound = cfl_bound(field0.a, torus.d)
    if ds > bound:
        raise CflViolation(f"ds={ds:g} exceeds stability bound {bound:g}")
    if guard is None:
        guard = rhs_fn is None
    # the plain flow's k1 reuses f, the curvature the action guard built at v
    rhs = _velocity if rhs_fn is None else (lambda fld, f=None: rhs_fn(fld))

    v = np.array(field0.values, dtype=np.complex128, copy=True)
    make = lambda vals: LatticeField(torus, vals)
    f = lattice_curvature_grid(make(v))
    action = _curvature_action(torus, f)
    snapshots = [(0, v.copy())]
    table = []
    for i in range(1, steps + 1):
        k1 = rhs(make(v), f)
        table.append(
            {"step": i - 1, "s": (i - 1) * ds, "action": action, "rhs_max": maxabs(k1)}
        )
        k2 = rhs(make(v + (0.5 * ds) * k1))
        k3 = rhs(make(v + (0.5 * ds) * k2))
        k4 = rhs(make(v + ds * k3))
        v = v + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f = lattice_curvature_grid(make(v))
        new_action = _curvature_action(torus, f)
        # written so that a non-finite action also aborts
        if guard and not new_action <= action * (1.0 + MAX_ACTION_GROWTH) + 1e-300:
            raise BlowUp(
                f"action grew from {action:.12g} to {new_action:.12g} at step {i}"
            )
        action = new_action
        if i % save_every == 0 or i == steps:
            snapshots.append((i, v.copy()))
    table.append(
        {"step": steps, "s": steps * ds, "action": action, "rhs_max": maxabs(rhs(make(v), f))}
    )
    return FlowTrajectory(torus, ds, snapshots, table)


def abelian_oracle(field, s):
    """Exact flow of a pairwise-commuting Fourier field to time s.

    Per wave vector k the transverse part of the coefficient vector decays
    by exp(-(2 pi |k| / L)^2 s) while the longitudinal part stays fixed.
    Raises ValueError if the coefficients do not commute (no closed form).
    """
    if not isinstance(field, AnalyticField):
        raise TypeError("closed-form flow needs a Fourier-series field")
    c = field.coeffs
    if len(c):
        comm = c[:, None] @ c[None, :] - c[None, :] @ c[:, None]
        scale = (1.0 + maxabs(c)) ** 2
        if maxabs(comm) > 1e-12 * scale:
            raise ValueError("field coefficients do not commute")

    d, n = field.torus.d, field.n
    groups = {}
    for idx in range(len(field.kvecs)):
        key = (tuple(field.kvecs[idx]), int(field.phases[idx]))
        vec = groups.setdefault(key, np.zeros((d, n, n), dtype=np.complex128))
        vec[field.mus[idx]] += field.coeffs[idx]

    kvecs, mus, coeffs, phases = [], [], [], []
    for (k, phase), vec in groups.items():
        k = np.asarray(k, dtype=float)
        knorm = np.linalg.norm(k)
        if knorm == 0.0:
            new = vec
        else:
            khat = k / knorm
            lon = np.einsum("m,v,vij->mij", khat, khat, vec)
            lam = (2.0 * np.pi * knorm / field.torus.L) ** 2
            new = lon + np.exp(-lam * s) * (vec - lon)
        for mu in range(d):
            kvecs.append(k)
            mus.append(mu)
            coeffs.append(new[mu])
            phases.append(phase)
    if not kvecs:
        return AnalyticField(field.torus, n)
    return AnalyticField(field.torus, n, np.array(kvecs), np.array(mus),
                         np.stack(coeffs), np.array(phases))
