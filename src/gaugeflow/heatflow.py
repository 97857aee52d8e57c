"""Gradient flow of the gauge action on a periodic lattice.

The flow integrates dA_nu/ds = sum_mu D_mu F_{mu nu} (covariant divergence
of the curvature) with classical RK4 in flow time and fourth-order central
stencils in space, on the same lattice container the rest of the package
interpolates from. The action is monitored every step: the exact flow is a
gradient descent, so sustained growth means the step size has crossed the
stability threshold and the run aborts rather than report garbage. The
action guard and the next step's k1 share one curvature grid, so an RK4
step builds four curvature grids, not five.

The flow state is the `LatticeField` coordinate array (d, K, *sites),
K = N^2 - 1. A trajectory keeps the states it saved, keyed by step, and a
reader reads one through a new `LatticeField` on it. Every product is
a commutator, taken from `algebra`'s structure constants (`_bracket`), and
only the curvature components F_mn with m < n are formed. A driven flow
adds a constant forcing lattice to the velocity. `ym_rhs` runs the same
kernel on one lattice. The flow table's `rhs_max`, the largest matrix
entry of the velocity, is formed only when the caller asks for it.

On small grids a step costs numpy calls, not arithmetic, so the kernels
make few of them and build no stacks. `stencil_d1` pads through a periodic
index and shifts cached per extent; each F_mn and each velocity component
is formed once from views of the state and the curvature; and `_bracket`
gathers its operands straight from their rows, a block of sites at a time.
Its block size follows the number of rows, and a product's last bits
follow the block size, so each kernel brackets all its rows in one call.
Each velocity component adds its terms in pair order to 0.0, so every bit,
the sign of zero included, is that of a sum into zeros.

For pairwise-commuting fields the flow is linear and `abelian_oracle`
evolves the Fourier data in closed form: transverse mode components decay
as exp(-(2 pi |k| / L)^2 s), longitudinal components are fixed points.
This is an independent oracle for the lattice integrator (its spatial
stencil sees the slightly different discrete symbol; tests budget for
that).
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .algebra import _structure, maxabs
from .field import AnalyticField, LatticeField, Torus, stencil_d1


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


# floats of pair products formed per block of sites in `_bracket`: small
# enough to stay in cache (whole-grid products of su(3) at 64^2 took 4x longer)
_BRACKET_FLOATS = 1 << 14


def _bracket(x, xrows, y, yrows):
    """[x[i], y[j]] for the rows i, j of `xrows`, `yrows`: (B, K, *sites).

    x and y are coordinate stacks (*, K, *sites). [x, y]_c = sum_p S[c, p]
    (x_a y_b - x_b y_a) over the pairs p = (a, b) of `_structure`, formed a
    block of sites at a time; each block gathers its operands straight from
    the rows of x and y.
    """
    k = x.shape[1]
    ia, ib, s = _structure(math.isqrt(k + 1))
    xf, yf = x.reshape(len(x), k, -1), y.reshape(len(y), k, -1)
    xi, yi = xrows[:, None], yrows[:, None]
    out = np.empty((len(xrows), k, xf.shape[-1]))
    step = max(1, _BRACKET_FLOATS // (len(xrows) * len(ia)))
    for lo in range(0, xf.shape[-1], step):
        sites = slice(lo, lo + step)
        xy = xf[xi, ia, sites]
        xy *= yf[yi, ib, sites]
        yx = xf[xi, ib, sites]
        yx *= yf[yi, ia, sites]
        xy -= yx
        np.matmul(s, xy, out=out[..., sites])
    return out.reshape(out.shape[:2] + x.shape[2:])


@functools.cache
def _direction_pairs(d):
    """Index arrays (m, n) of the direction pairs m < n, in curvature order,
    and the rows of `_velocity`'s bracket operands: A_m then A_n, and F_mn twice."""
    pm, pn = np.triu_indices(d, 1)
    return pm, pn, np.concatenate([pm, pn]), np.tile(np.arange(len(pm)), 2)


def _curvature(x, a):
    """F_mn for the direction pairs m < n of `_direction_pairs`: (P, K, *sites)."""
    pm, pn, _, _ = _direction_pairs(len(x))
    f = _bracket(x, pm, x, pn)
    # F_mn = (d_m A_n - d_n A_m) + [A_m, A_n], the difference formed first
    for p, (m, n) in enumerate(zip(pm, pn)):
        df = stencil_d1(x[n], 1 + m, a)
        df -= stencil_d1(x[m], 1 + n, a)
        f[p] += df
    return f


def _velocity(x, a, f):
    """sum_m D_m F_mn from coordinates x and their curvature f = _curvature(x, a)."""
    pm, pn, xrows, frows = _direction_pairs(len(x))
    # [A_m, F_mn] feeds direction n and [A_n, F_nm] = -[A_n, F_mn] direction m
    comm = _bracket(x, xrows, f, frows)
    out = np.empty_like(x)
    # each direction's terms in pair order, from 0.0 as if summed into zeros
    acc = [0.0] * len(x)
    for p, (m, n) in enumerate(zip(pm, pn)):
        for c, axis, term, op in ((n, m, comm[p], np.add),
                                  (m, n, comm[len(pm) + p], np.subtract)):
            t = stencil_d1(f[p], 1 + axis, a)
            t += term
            acc[c] = op(acc[c], t, out=out[c])
    return out


def _action(torus, f):
    """1/2 sum_{m<n} |F_mn|^2 averaged over the sites, times the volume."""
    return float(0.5 * np.vdot(f, f) / f[0, 0].size * torus.volume)


def ym_rhs(field):
    """Flow velocity sum_mu D_mu F_mu nu on the grid, as a LatticeField."""
    x, a = field.coords, field.a
    return LatticeField.from_coords(field.torus, _velocity(x, a, _curvature(x, a)))


@dataclasses.dataclass
class FlowTrajectory:
    torus: Torus
    snapshots: dict  # step index -> coordinates (d, K, *sites), step 0 first
    table: list      # dict rows: step, s, action (and rhs_max if asked for)

    def field(self, step):
        """A new lattice on the coordinates saved at `step` (KeyError if none):
        its spline tables go when the reader drops it."""
        return LatticeField.from_coords(self.torus, self.snapshots[step])


def flow(field0, steps, ds, save_every=1, forcing=None, guard=None, rhs_max=False):
    """Integrate the gradient flow from the LatticeField `field0` for `steps` RK4 steps.

    Snapshots are the state arrays keyed by step, the first `field0.coords`.
    The table has a row per step and one for the final state; with `rhs_max`
    each row also holds the velocity's largest matrix entry, which for the
    final row takes one more velocity.
    `forcing`, a LatticeField on the torus and grid of `field0` (ValueError
    otherwise), is a constant term added to the flow velocity: the driven
    variant. The action-monotonicity guard defaults to on for the plain flow
    and off when a forcing is given. The guard aborts a step whose action
    exceeds the last by a factor 1 + MAX_ACTION_GROWTH.
    """
    torus = field0.torus
    if not 0 < ds:
        raise ValueError(f"ds must be positive, got {ds!r}")
    a = field0.a
    bound = cfl_bound(a, torus.d)
    if ds > bound:
        raise CflViolation(f"ds={ds:g} exceeds stability bound {bound:g}")
    if forcing is not None and (forcing.torus != torus
                                or forcing.coords.shape != field0.coords.shape):
        raise ValueError("forcing must be a lattice on the start field's torus and grid")
    if guard is None:
        guard = forcing is None

    def rhs(v, f=None):
        # k1 reuses f, the curvature the action guard built at v
        out = _velocity(v, a, _curvature(v, a) if f is None else f)
        if forcing is not None:
            out += forcing.coords
        return out

    def row(i, action, velocity):
        out = {"step": i, "s": i * ds, "action": action}
        if rhs_max:
            out["rhs_max"] = maxabs(LatticeField.from_coords(torus, velocity).values)
        return out

    v = field0.coords
    f = _curvature(v, a)
    action = _action(torus, f)
    snapshots = {0: v}
    table = []
    for i in range(1, steps + 1):
        k1 = rhs(v, f)
        table.append(row(i - 1, action, k1))
        k2 = rhs(v + (0.5 * ds) * k1)
        k3 = rhs(v + (0.5 * ds) * k2)
        k4 = rhs(v + ds * k3)
        v = v + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f = _curvature(v, a)
        new_action = _action(torus, f)
        # written so that a non-finite action also aborts
        if guard and not new_action <= action * (1.0 + MAX_ACTION_GROWTH) + 1e-300:
            raise BlowUp(
                f"action grew from {action:.12g} to {new_action:.12g} at step {i}"
            )
        action = new_action
        if i % save_every == 0 or i == steps:
            snapshots[i] = v
    table.append(row(steps, action, rhs(v, f) if rhs_max else None))
    return FlowTrajectory(torus, snapshots, table)


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
