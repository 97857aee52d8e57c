"""Parallel transport along curves and its functional derivatives.

The transport U_{t,s} solves dU/dt = -A_mu(gamma(t)) gammadot^mu(t) U with
U_{s,s} = Id. The integrator is the exponential midpoint rule

    U <- expm(-h Z(t + h/2)) U,      Z(t) = A_mu(gamma(t)) gammadot^mu(t),

a Lie-group method (each factor is exactly special-unitary), followed by
one Richardson extrapolation level, so halving h cuts the error by at
least 2^3. Extrapolated values are projected back onto the group, which
restores unitarity to roundoff without touching the order.

Step grids are aligned with curve breakpoints (plateau corners, seams), so
piecewise-smooth curves integrate at full order. A `TransportContext`
caches U_{t_i, 0} and U_{1, t_i} on the integrator nodes of one curve;
every integral formula in this package is a quadrature over those nodes.
`transport()` reduces only the endpoint: it multiplies the same factors
in M products instead of scanning all M prefixes, and unitarizes one
matrix. `propagator_endpoint()` does the same for `propagator`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .algebra import dagger, expm, unitarize
from .field import curvature

DEFAULT_STEP = 1.0 / 4096


def prefix_products(mats):
    """P[i] = mats[i-1] @ ... @ mats[0], P[0] = Id; log-depth scan."""
    m, n = mats.shape[0], mats.shape[-1]
    out = mats.copy()
    offset = 1
    while offset < m:
        out[offset:] = out[offset:] @ out[:-offset]
        offset *= 2
    eye = np.broadcast_to(np.eye(n, dtype=mats.dtype), (1, n, n))
    return np.concatenate([eye, out], axis=0)


def simpson_weights(npts, h):
    """Composite Simpson weights for npts nodes (even interval count)."""
    if npts < 3 or npts % 2 == 0:
        raise ValueError("Simpson needs an odd node count")
    w = np.full(npts, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _even_steps(length, step):
    n = max(1, math.ceil(length / step - 1e-12))
    return n + (n % 2)


@dataclasses.dataclass
class Segment:
    index: int
    sl: slice          # node indices in the global arrays
    ts: np.ndarray     # (npts,)
    h: float


def _endpoint_product(mats):
    """mats[-1] @ ... @ mats[0] by pairwise reduction in M products.

    Pairs are right-aligned (the earliest factor carries over when the count
    is odd), which is the bracketing of the last row of `prefix_products`,
    so the two agree bit for bit.
    """
    while len(mats) > 1:
        odd = len(mats) % 2
        pairs = mats[odd + 1 :: 2] @ mats[odd::2]
        mats = np.concatenate([mats[:1], pairs]) if odd else pairs
    return mats[0]


def _richardson_endpoint(coarse, fine):
    """The extrapolated product (4 fine - coarse) / 3 at the last node only."""
    return (4.0 * _endpoint_product(fine) - _endpoint_product(coarse)) / 3.0


def _step_factors(field, curve, mids, hs):
    pts = curve.point(mids)
    vel = curve.velocity(mids)
    z = np.einsum("...mij,...m->...ij", field.eval(pts), vel)
    return expm(-hs[:, None, None] * z)


def _midpoint_factors(field, curve, step, lo, hi):
    """Integrator nodes, segments and midpoint factors on [lo, hi].

    The step grid is aligned with the curve breakpoints inside (lo, hi) and
    every segment has an even step count. Returns (nodes, segments, coarse,
    fine): `coarse` holds the factors expm(-h Z(mid)) of the node grid and
    `fine` those of the grid at half the step.
    """
    edges = [lo]
    edges += [b for b in sorted(curve.breakpoints) if lo < b < hi]
    edges += [hi]

    node_chunks, mids, hs, fmids, fhs, seg_meta = [], [], [], [], [], []
    start = 0
    for k in range(len(edges) - 1):
        a, b = edges[k], edges[k + 1]
        nst = _even_steps(b - a, step)
        h = (b - a) / nst
        ts = a + np.arange(nst + 1) * h
        ts[-1] = b
        node_chunks.append(ts if k == 0 else ts[1:])
        mids.append(a + (np.arange(nst) + 0.5) * h)
        hs.append(np.full(nst, h))
        fmids.append(a + (np.arange(2 * nst) + 0.5) * (0.5 * h))
        fhs.append(np.full(2 * nst, 0.5 * h))
        seg_meta.append((start, start + nst, h))
        start += nst
    nodes = np.concatenate(node_chunks)
    segments = [
        Segment(i, slice(i0, i1 + 1), nodes[i0 : i1 + 1], h)
        for i, (i0, i1, h) in enumerate(seg_meta)
    ]
    coarse = _step_factors(field, curve, np.concatenate(mids), np.concatenate(hs))
    fine = _step_factors(field, curve, np.concatenate(fmids), np.concatenate(fhs))
    return nodes, segments, coarse, fine


class TransportContext:
    """Cached transports along one curve for one gauge field.

    Attributes:
        nodes: (M+1,) integrator node parameters covering [lo, hi].
        from_start: (M+1, N, N), U_{t_i, lo}.
        to_end: (M+1, N, N), U_{hi, t_i}.
        endpoint: U_{hi, lo}.
    """

    def __init__(self, field, curve, step=DEFAULT_STEP, lo=0.0, hi=1.0):
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("need 0 <= lo < hi <= 1")
        if not step > 0:
            raise ValueError("step must be positive")
        self.field, self.curve, self.step = field, curve, step
        self.lo, self.hi = float(lo), float(hi)
        self.n = field.n

        self.nodes, self._segments, coarse, fine = _midpoint_factors(
            field, curve, step, self.lo, self.hi)
        extrap = (4.0 * prefix_products(fine)[::2] - prefix_products(coarse)) / 3.0
        extrap, _ = unitarize(extrap)
        self.from_start = extrap
        self.endpoint = extrap[-1]
        self.to_end = self.endpoint @ dagger(extrap)
        self._points = None

    # --- node data ---

    @property
    def points(self):
        if self._points is None:
            self._points = self.curve.point(self.nodes)
        return self._points

    def segments(self):
        return self._segments

    def seg_points(self, seg):
        return self.points[seg.sl]

    def seg_velocities(self, seg):
        """Velocities on a segment; one-sided limit at its final node."""
        v = self.curve.velocity(seg.ts, side=1)
        v[-1] = self.curve.velocity(np.asarray(seg.ts[-1]), side=-1)
        return v

    # --- quadrature over the cached nodes ---

    def integrate(self, seg_values):
        """Composite Simpson of a per-segment integrand.

        seg_values(seg) returns the integrand sampled on seg.ts, shape
        (npts, ...).
        """
        total = None
        for seg in self._segments:
            vals = np.asarray(seg_values(seg))
            w = simpson_weights(len(seg.ts), seg.h)
            part = np.einsum("t,t...->...", w, vals)
            total = part if total is None else total + part
        return total

    def cumulative(self, seg_values):
        """Trapezoid cumulative integral at every node, shape (M+1, ...)."""
        pieces, carry = [], None
        for seg in self._segments:
            vals = np.asarray(seg_values(seg))
            inc = 0.5 * seg.h * (vals[1:] + vals[:-1])
            cum = np.cumsum(inc, axis=0)
            zero = np.zeros_like(vals[:1])
            cum = np.concatenate([zero, cum], axis=0)
            if carry is not None:
                cum = cum + carry
                cum = cum[1:]  # junction node already emitted by previous segment
            pieces.append(cum)
            carry = cum[-1]
        return np.concatenate(pieces, axis=0)

    def integrate_prefix(self, seg_values, node_index):
        """Simpson integral over [lo, nodes[node_index]]."""
        total = 0.0
        for seg in self._segments:
            if seg.sl.stop - 1 <= node_index:
                vals = np.asarray(seg_values(seg))
                w = simpson_weights(len(seg.ts), seg.h)
                total = total + np.einsum("t,t...->...", w, vals)
                if seg.sl.stop - 1 == node_index:
                    return total
            else:
                local = node_index - seg.sl.start
                if local <= 0:
                    return total
                if local % 2 == 1:
                    raise ValueError("prefix must end on an even node of its segment")
                vals = np.asarray(seg_values(seg))[: local + 1]
                w = simpson_weights(local + 1, seg.h)
                return total + np.einsum("t,t...->...", w, vals)
        return total


def transport(field, curve, t=1.0, s=0.0, step=DEFAULT_STEP):
    """Parallel transport U_{t,s} along the curve, an (N, N) group element."""
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError("need 0 <= s <= t <= 1")
    if s == t:
        return np.eye(field.n, dtype=np.complex128)
    if not step > 0:
        raise ValueError("step must be positive")
    _, _, coarse, fine = _midpoint_factors(field, curve, step, float(s), float(t))
    return unitarize(_richardson_endpoint(coarse, fine))[0]


def _propagator_factors(zfun, c, d, step):
    nst = _even_steps(d - c, step)
    h = (d - c) / nst
    mids = c + (np.arange(nst) + 0.5) * h
    fmids = c + (np.arange(2 * nst) + 0.5) * (0.5 * h)
    coarse = expm(-h * np.asarray(zfun(mids)))
    fine = expm(-(0.5 * h) * np.asarray(zfun(fmids)))
    return nst, h, coarse, fine


def propagator(zfun, c=0.0, d=1.0, step=DEFAULT_STEP):
    """Solve dP/dt = -Z(t) P on [c, d], P(c) = Id, for matrix-valued Z.

    Z need not be anti-Hermitian; no unitarization is applied. Returns
    (nodes, P at nodes) with the same midpoint + Richardson scheme as
    `transport`.
    """
    nst, h, coarse, fine = _propagator_factors(zfun, c, d, step)
    nodes = c + np.arange(nst + 1) * h
    nodes[-1] = d
    return nodes, (4.0 * prefix_products(fine)[::2] - prefix_products(coarse)) / 3.0


def propagator_endpoint(zfun, c=0.0, d=1.0, step=DEFAULT_STEP):
    """P(d) of `propagator`, bit for bit, reduced in M products without the node scan."""
    _, _, coarse, fine = _propagator_factors(zfun, c, d, step)
    return _richardson_endpoint(coarse, fine)


def duhamel_derivative(zfun, dzfun, c=0.0, d=1.0, step=DEFAULT_STEP):
    """Directional derivative of P(Z; d) along a perturbation dZ:

        <DP(Z; d), dZ> = -P(d) integral_c^d P(t)^-1 dZ(t) P(t) dt.
    """
    nodes, p = propagator(zfun, c, d, step)
    pinv = np.linalg.inv(p)
    integrand = pinv @ np.asarray(dzfun(nodes)) @ p
    w = simpson_weights(len(nodes), (d - c) / (len(nodes) - 1))
    integral = np.einsum("t,tij->ij", w, integrand)
    return -p[-1] @ integral


def transport_derivative(field, curve, x_field, step=DEFAULT_STEP, ctx=None):
    """Derivative of U_{1,0}(gamma) along a curve variation X.

    Bulk term -int U_{1,t} F_mn(gamma) X^m gammadot^n U_{t,0} dt plus the
    endpoint terms -A_m(gamma(1)) X^m(1) U_{1,0} + U_{1,0} A_m(gamma(0)) X^m(0);
    the endpoint terms vanish for H^1_{0,0} variations.
    """
    if ctx is None:
        ctx = TransportContext(field, curve, step=step)

    def bulk(seg):
        pts = ctx.seg_points(seg)
        vel = ctx.seg_velocities(seg)
        f = curvature(field, pts)
        xv = x_field.value(seg.ts)
        t = np.einsum("tmvij,tm,tv->tij", f, xv, vel)
        return -(ctx.to_end[seg.sl] @ t @ ctx.from_start[seg.sl])

    out = ctx.integrate(bulk)
    t1 = np.asarray(1.0 if ctx.hi == 1.0 else ctx.hi)
    t0 = np.asarray(0.0 if ctx.lo == 0.0 else ctx.lo)
    a1 = np.einsum("mij,m->ij", field.eval(ctx.curve.point(t1)), x_field.value(t1))
    a0 = np.einsum("mij,m->ij", field.eval(ctx.curve.point(t0)), x_field.value(t0))
    return out - a1 @ ctx.endpoint + ctx.endpoint @ a0


def transport_s_derivative(field, ds_field, curve, step=DEFAULT_STEP, ctx=None):
    """d/ds of the transport when the connection depends on a flow time:

        d_s U_{1,0} = -int U_{1,t} (d_s A)_m(gamma(t)) gammadot^m U_{t,0} dt.

    `field` is the connection at the flow time, `ds_field` its s-derivative
    (any object with the gauge-field eval interface).
    """
    if ctx is None:
        ctx = TransportContext(field, curve, step=step)

    def integrand(seg):
        dsa = ds_field.eval(ctx.seg_points(seg))
        vel = ctx.seg_velocities(seg)
        c = np.einsum("tmij,tm->tij", dsa, vel)
        return -(ctx.to_end[seg.sl] @ c @ ctx.from_start[seg.sl])

    return ctx.integrate(integrand)
