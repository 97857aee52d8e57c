"""Parallel transport along curves and its functional derivatives.

One integrator serves every product-integral here. For dP/dt = -Z(t) P,
P(c) = Id, `_magnus_factors` splits [c, d] at given edges into segments
with even step counts and builds, for each step [t, t + h], the
fourth-order Magnus factor with two Gauss-Legendre points (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470 (2009), arXiv:0810.5488; Iserles & Norsett,
Phil. Trans. R. Soc. A 357 (1999)):

    expm(Omega),  Omega = -(h/2)(Z1 + Z2) - (sqrt(3)/12) h^2 [Z1, Z2],
    Z1, Z2 = Z(t + (1/2 -+ sqrt(3)/6) h).

Products of the factors give P at the nodes (`prefix_products`) or at d
alone (`_endpoint_product`, M products instead of a scan over all M
prefixes). Halving h cuts the error by 2^4.

The transport U_{t,s} along a curve is the case Z(t) = A_mu(gamma(t))
gammadot^mu(t), with the curve breakpoints (plateau corners, seams) as
edges, so piecewise-smooth curves integrate at full order. For
anti-Hermitian traceless Z each Omega is in su(N), so each factor and
every product of them is special-unitary up to roundoff, with no
projection. A `TransportContext` caches U_{t_i, lo} and U_{hi, t_i} on
the nodes of one curve; every integral formula in this package is a
quadrature over those nodes. `propagator` takes any matrix-valued Z.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .algebra import dagger, expm
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


def _magnus_factors(zfun, edges, step):
    """Nodes, segments and Magnus-4 factors of dP/dt = -Z(t) P between `edges`.

    Each interval between consecutive edges is one segment with an even step
    count. Returns (nodes, segments, factors): factor k carries P from node k
    to node k + 1.
    """
    nodes, segments, starts, hs = [], [], [], []
    start = 0
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        nst = _even_steps(b - a, step)
        h = (b - a) / nst
        ts = a + np.arange(nst + 1) * h
        ts[-1] = b
        nodes.append(ts if i == 0 else ts[1:])
        segments.append(Segment(i, slice(start, start + nst + 1), ts, h))
        start += nst
        starts.append(ts[:-1])
        hs.append(np.full(nst, h))

    t0, h = np.concatenate(starts), np.concatenate(hs)
    offset = math.sqrt(3.0) / 6.0
    z = np.asarray(zfun(np.concatenate([t0 + (0.5 - offset) * h, t0 + (0.5 + offset) * h])))
    z1, z2 = np.split(z, 2)
    h = h[:, None, None]
    omega = -0.5 * h * (z1 + z2) - (math.sqrt(3.0) / 12.0) * h**2 * (z1 @ z2 - z2 @ z1)
    return np.concatenate(nodes), segments, expm(omega)


def _curve_factors(field, curve, step, lo, hi):
    """`_magnus_factors` of Z(t) = A_mu(gamma(t)) gammadot^mu(t) on [lo, hi],
    with the curve's breakpoints inside (lo, hi) as segment edges."""

    def zfun(t):
        return np.einsum("...mij,...m->...ij", field.eval(curve.point(t)), curve.velocity(t))

    edges = [lo, *(b for b in sorted(curve.breakpoints) if lo < b < hi), hi]
    return _magnus_factors(zfun, edges, step)


class TransportContext:
    """Cached transports along one curve for one gauge field.

    `from_start` is the product scan of the fourth-order Magnus factors
    (Blanes, Casas, Oteo & Ros 2009; see the module docstring), one factor
    per node interval; it is special-unitary to roundoff with no projection.

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

        self.nodes, self._segments, factors = _curve_factors(
            field, curve, step, self.lo, self.hi)
        self.from_start = prefix_products(factors)
        self.endpoint = self.from_start[-1]
        self.to_end = self.endpoint @ dagger(self.from_start)
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
    """Parallel transport U_{t,s} along the curve, an (N, N) group element.

    The product of the Magnus-4 factors on [s, t], reduced without the node
    scan; equal bit for bit to `TransportContext(..., lo=s, hi=t).endpoint`.
    """
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError("need 0 <= s <= t <= 1")
    if s == t:
        return np.eye(field.n, dtype=np.complex128)
    if not step > 0:
        raise ValueError("step must be positive")
    _, _, factors = _curve_factors(field, curve, step, float(s), float(t))
    return _endpoint_product(factors)


def propagator(zfun, c=0.0, d=1.0, step=DEFAULT_STEP):
    """Solve dP/dt = -Z(t) P on [c, d], P(c) = Id, for matrix-valued Z.

    Z need not be anti-Hermitian. Returns (nodes, P at nodes) from the
    fourth-order Magnus factors with two Gauss-Legendre points per step
    (Blanes, Casas, Oteo & Ros 2009; Iserles & Norsett 1999) and their
    product scan, the scheme of `TransportContext`.
    """
    nodes, _, factors = _magnus_factors(zfun, [c, d], step)
    return nodes, prefix_products(factors)


def propagator_endpoint(zfun, c=0.0, d=1.0, step=DEFAULT_STEP):
    """P(d) of `propagator`, bit for bit, reduced in M products without the node scan."""
    _, _, factors = _magnus_factors(zfun, [c, d], step)
    return _endpoint_product(factors)


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
    t1, t0 = np.asarray(ctx.hi), np.asarray(ctx.lo)
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
