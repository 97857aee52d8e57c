"""Parallel transport along curves and its functional derivatives.

One integrator serves every product-integral here. For dP/dt = -Z(t) P,
P(c) = Id, with Z(t) in su(N), `_magnus_grid` splits [c, d] at given
edges into segments with even step counts, and `_magnus_factors` builds,
for each step [t, t + h], the fourth-order Magnus factor with two
Gauss-Legendre points (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009),
arXiv:0810.5488; Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999)):

    exp(Omega),  Omega = -(h/2)(Z1 + Z2) - (sqrt(3)/12) h^2 [Z1, Z2],
    Z1, Z2 = Z(t + (1/2 -+ sqrt(3)/6) h).

Z, Omega and the bracket are real su_basis coordinates (K = N^2 - 1 per
point): the bracket is `algebra.bracket`, from the structure constants,
and the factor comes from `algebra.exp_lie`. That is a closed form at N = 2
and at N = 3 (Cayley-Hamilton, Morningstar & Peardon, Phys. Rev. D 69 (2004)
054501), and it gives exactly Id where Omega = 0; the spectral `algebra.expm`
is left to the abelian Levy oracle, `random_group` and N >= 4 in the tests.
Products of the factors give P at the nodes (`prefix_products`, a
work-efficient scan in about 2M products) or at d alone
(`_endpoint_product`, its up-sweep, M products). Z may carry a
stack axis, and then Omega, the exponentials and the products run once
over the (M, B, N, N) stack. Every product of N x N stacks here is
`algebra._matmul`. Halving h cuts the error by 2^4.

The transport U_{t,s} along a curve is the case Z(t) = A_mu(gamma(t))
gammadot^mu(t), whose coordinates the field gives directly
(`GaugeField.generator`), with the curve breakpoints (plateau corners,
seams) as edges, so piecewise-smooth curves integrate at full order.
`variation_transports` takes U_{1,0} along batches of variations gamma +
sum eps_i X_i of one curve: they share gamma's grid, so gamma is read once
for every batch, and each result equals `transport` along the `path.perturb`
curve bit for bit. The finite-difference oracles use it. Each Omega is in
su(N), so each factor and every product of them is special-unitary up to
roundoff, with no projection. `propagator` takes a matrix-valued Z and
refuses one with a non-su(N) part beyond roundoff, so `duhamel_derivative`
takes P^-1 as P^+. No transport calls LAPACK.

A `TransportContext` caches U_{t_i, 0} on the nodes of one curve over
[0, 1], and every integral formula in this package is a quadrature over
those nodes.
Its quadrature layout `ts` lists each segment's nodes in turn, so a
junction node appears twice: once as the last node of the
segment before it, carrying the velocity limit from below, and once as
the first node of the segment after it, carrying the limit from above.
Integrands are arrays sampled on `ts`; `weights` are composite Simpson
weights per segment, so `integrate` is one weighted sum and kinked curves
keep full order. `cumulative` is a trapezoid sum whose step across a
junction has zero width. This module alone knows the layout. A context
also caches the curvature coordinates at its points, which the
first-derivative formulas share. Their integrals of U_{1,t} c U_{t,0} run
over the real adjoint action on c's su_basis coordinates and form one matrix
at the end (`integrate_transported`).

A context derives its plateaus (`TransportContext.with_plateaus`): the
curve's plateau at r follows it up to r and then stands still, so its
factors are the curve's up to r and exactly Id after it, U_{1,r} is the
product of the curve's factors past r, and an integrand linear in the
velocity is the curve's up to r and zero after it. So a sweep over r,
like R(r)'s definition route, reads the field once, along the curve, and
each derived context has the bits of one built along the plateau where
the two grids agree bit for bit (a step of 1/2^j on a line).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .algebra import _matmul, adjoint, bracket, dagger, exp_lie, lie_coords, lie_matrix
from .field import curvature
from .path import CurveSample, plateau

DEFAULT_STEP = 1.0 / 4096


def _pair_levels(mats):
    """Levels of the pairwise reduction of mats down to one matrix; pairs are
    right-aligned, so with an odd count the earliest factor carries over."""
    levels = [mats]
    while len(mats) > 1:
        odd = len(mats) % 2
        pairs = _matmul(mats[odd + 1 :: 2], mats[odd::2])
        mats = np.concatenate([mats[:1], pairs]) if odd else pairs
        levels.append(mats)
    return levels


def prefix_products(mats):
    """P[i] = mats[i-1] @ ... @ mats[0], P[0] = Id; a work-efficient scan
    (Blelloch 1990, CMU-CS-90-190) in about 2M products and O(log M) steps.

    The up-sweep is `_pair_levels`; going down, each level takes every other
    prefix from the level above and fills in the rest by one product each.
    """
    levels = _pair_levels(mats)
    p = np.concatenate([np.eye(mats.shape[-1], dtype=mats.dtype)[None], levels[-1]])
    for a in reversed(levels[:-1]):
        odd = len(a) % 2
        q = np.empty((len(a) + 1,) + a.shape[1:], dtype=a.dtype)
        q[0] = p[0]
        q[odd::2] = p[odd:]
        q[odd + 1 :: 2] = _matmul(a[odd::2], q[odd:-1:2])
        p = q
    return p


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


def _endpoint_product(mats):
    """mats[-1] @ ... @ mats[0]: the up-sweep of `prefix_products`, bit for bit."""
    return _pair_levels(mats)[-1][0]


def _magnus_grid(edges, step):
    """Nodes, segments and Gauss-Legendre parameters of the Magnus-4 steps between `edges`.

    Each interval between consecutive edges is one segment with an even step
    count. Returns (nodes, segments, params, h): `segments` lists each
    segment's (nodes, step), `params` (2M,) holds every step's first
    Gauss-Legendre point and then every step's second, and h (M,) the steps.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    segments = []
    for a, b in zip(edges[:-1], edges[1:]):
        nst = _even_steps(b - a, step)
        h = (b - a) / nst
        ts = a + np.arange(nst + 1) * h
        ts[-1] = b
        segments.append((ts, h))

    nodes = np.concatenate([segments[0][0], *(ts[1:] for ts, _ in segments[1:])])
    t0 = np.concatenate([ts[:-1] for ts, _ in segments])
    h = np.concatenate([np.full(len(ts) - 1, h) for ts, h in segments])
    offset = math.sqrt(3.0) / 6.0
    params = np.concatenate([t0 + (0.5 - offset) * h, t0 + (0.5 + offset) * h])
    return nodes, segments, params, h


def _magnus_factors(z, h):
    """Magnus-4 factors (M, ..., N, N) of dP/dt = -Z(t) P on a `_magnus_grid`.

    z holds the su_basis coordinates (..., 2M, K) of Z at the grid's `params`,
    with any leading stack axes; factor k carries P from node k to node k + 1.
    """
    z1, z2 = np.split(z, 2, axis=-2)
    h = h[:, None]
    omega = -0.5 * h * (z1 + z2) - (math.sqrt(3.0) / 12.0) * h**2 * bracket(z1, z2)
    return exp_lie(np.moveaxis(omega, -2, 0))


def _lie_factors(zfun, step):
    """Grid nodes and Magnus-4 factors on [0, 1] of a matrix-valued Z; ValueError on a
    non-su(N) part."""
    nodes, _, t, h = _magnus_grid([0.0, 1.0], step)
    return nodes, _magnus_factors(lie_coords(zfun(t), check=True), h)


def _curve_grid(curve, step, lo, hi):
    """`_magnus_grid` on [lo, hi] with the curve's breakpoints inside (lo, hi) as edges."""
    return _magnus_grid([lo, *(b for b in sorted(curve.breakpoints) if lo < b < hi), hi], step)


def _curve_factors(field, curve, step, lo, hi):
    """Nodes, segments and Magnus-4 factors of Z(t) = A_mu(gamma(t)) gammadot^mu(t) on [lo, hi]."""
    nodes, segments, t, h = _curve_grid(curve, step, lo, hi)
    return nodes, segments, _magnus_factors(field.generator(curve.point(t), curve.velocity(t)), h)


class TransportContext:
    """Cached transports along one curve for one gauge field.

    `from_start` is the product scan of the fourth-order Magnus factors
    (Blanes, Casas, Oteo & Ros 2009; see the module docstring), one factor
    per node interval; it is special-unitary to roundoff with no projection.
    Integrands are arrays sampled on the quadrature layout `ts` (module
    docstring), shape (K, ...).

    Attributes:
        nodes: (M+1,) integrator node parameters covering [0, 1].
        from_start: (M+1, N, N), U_{t_i, 0}.
        endpoint: U_{1, 0}.
        ts: (K,) quadrature nodes, each segment's nodes in turn.
        weights: (K,) composite Simpson weights of each segment.
        points, velocities: (K, d) curve points and one-sided velocities at `ts`.
        adjoint: (K, N^2 - 1, N^2 - 1), Ad(U_{t, 0}^-1) at `ts`, built on first use.
    """

    def __init__(self, field, curve, step=DEFAULT_STEP):
        self._setup(field, curve, step, *_curve_factors(field, curve, step, 0.0, 1.0))

    def _setup(self, field, curve, step, nodes, segments, factors):
        """The node products of `factors` and the quadrature layout of `segments`."""
        self.field, self.curve, self.step = field, curve, step
        self.n = field.n

        self.nodes = nodes
        self.from_start = prefix_products(factors)
        self.endpoint = self.from_start[-1]

        sizes = [len(ts) for ts, _ in segments]
        self._steps = np.array([h for _, h in segments])
        self._ends = np.cumsum(sizes) - 1  # last layout index of each segment
        self.ts = np.concatenate([ts for ts, _ in segments])
        self.weights = np.concatenate([simpson_weights(len(ts), h) for ts, h in segments])
        # node index of each layout entry: each earlier segment added one duplicate
        self._node = np.arange(len(self.ts)) - np.repeat(np.arange(len(sizes)), sizes)
        self._widths = np.repeat(self._steps, sizes)[:-1]
        self._widths[self._ends[:-1]] = 0.0

    @classmethod
    def with_plateaus(cls, field, curve, step=DEFAULT_STEP):
        """The context of the curve and the map (r, *samples) -> (context of
        `path.plateau(curve, r)`, U_{1,r}, *samples on that context's layout),
        built from the curve's Magnus factors.

        The plateau follows the curve up to r and then stands still, so its
        factors are the curve's up to node r and exactly Id after it, and U_{1,r}
        is the product of the curve's factors past r: neither reads the field.
        Where the plateau's grid is the curve's bit for bit (a step of 1/2^j on a
        line), both equal `TransportContext(field, plateau(curve, r), step)` and
        `transport(field, curve, 1, r, step)` bit for bit; elsewhere they agree
        to roundoff. `samples` are arrays on the curve context's `ts` of
        integrands linear in the velocity, such as A_mu(gamma) gammadot^mu: on
        the plateau's layout they are the same up to r and zero after it. r must
        be an even node of the curve's grid, to roundoff (ValueError otherwise).
        The map holds the factors, not the curve's context.
        """
        nodes, segments, factors = _curve_factors(field, curve, step, 0.0, 1.0)
        ctx = cls.__new__(cls)
        ctx._setup(field, curve, step, nodes, segments, factors)
        ident = np.eye(field.n, dtype=factors.dtype)

        def at(r, *samples):
            pcurve = plateau(curve, r)
            pnodes, psegments, _, _ = _curve_grid(pcurve, step, 0.0, 1.0)
            k = int(np.searchsorted(pnodes, r))  # the plateau's steps on [0, r]
            if len(pnodes) != len(nodes) or np.abs(pnodes[:k + 1] - nodes[:k + 1]).max() > 1e-12:
                raise ValueError(f"r = {r!r} is not an even node of the curve's grid")
            pfactors = factors.copy()
            pfactors[k:] = ident
            pctx = cls.__new__(cls)
            pctx._setup(field, pcurve, step, pnodes, psegments, pfactors)
            # the layout entries up to the junction's first copy are the curve's;
            # past it the plateau stands still
            if k == len(factors):
                live, tail = len(pctx.ts), ident.copy()
            else:
                live, tail = pctx._ends[-2] + 1 if k else 0, _endpoint_product(factors[k:])
            lifted = []
            for sample in samples:
                out = np.zeros((len(pctx.ts),) + sample.shape[1:])
                out[:live] = sample[:live]
                lifted.append(out)
            return (pctx, tail, *lifted)

        return ctx, at

    @functools.cached_property
    def points(self):
        return self.curve.point(self.ts)

    @functools.cached_property
    def velocities(self):
        v = self.curve.velocity(self.ts, side=1)
        v[self._ends] = self.curve.velocity(self.ts[self._ends], side=-1)
        return v

    @functools.cached_property
    def curvature(self):
        """su_basis coordinates of F_mn at `points`, (K, d, d, N^2 - 1)."""
        return curvature(self.field, self.points)

    @functools.cached_property
    def adjoint(self):
        """Entry i: `algebra.adjoint` of U = U_{t_i,0}, the coordinates of U^-1 T_b U in
        column b, taken over a fixed split of the nodes into 8 (N^2 - 1) blocks: the split
        fixes the partition of the matrix products, and with it their last bits."""
        k = self.n * self.n - 1
        out = np.empty((len(self.ts), k, k))
        for rows in np.array_split(np.arange(len(self.ts)), 8 * k):
            out[rows] = adjoint(self.from_start[self._node[rows]])
        return out

    def to_start(self, c):
        """U_{t,0}^-1 c(t) U_{t,0} on `ts`, in su_basis coordinates c (K, ..., N^2 - 1)."""
        adjoint = self.adjoint[(slice(None),) + (None,) * (c.ndim - 2)]
        return _matmul(adjoint, c[..., None])[..., 0]

    def integrate_transported(self, c, upto=None):
        """`integrate` of U_{1,t} c U_{t,0} = U_{1,0} U_{t,0}^-1 c U_{t,0} for su_basis
        coordinates c (K, ..., N^2 - 1): U_{1,0} times the integral of `to_start(c)`."""
        return _matmul(self.endpoint, lie_matrix(self.integrate(self.to_start(c), upto)))

    def integrate(self, values, upto=None):
        """Composite Simpson integral over [0, 1] of values sampled on `ts`.

        With `upto`, the integral over [0, upto] instead. `upto` is taken to
        the nearest node, which must lie an even number of steps into its
        segment.
        """
        w = self.weights if upto is None else self._prefix_weights(upto)
        return np.einsum("t,t...->...", w, values[: len(w)])

    def _prefix_weights(self, upto):
        k = int(np.argmin(np.abs(self.ts - upto)))  # a junction gives its first copy
        seg = int(np.searchsorted(self._ends, k))
        first = self._ends[seg - 1] + 1 if seg else 0
        local = k - first
        if local % 2:
            raise ValueError("prefix must end on an even node of its segment")
        w = self.weights[: k + 1].copy()
        w[first:] = simpson_weights(local + 1, self._steps[seg]) if local else 0.0
        return w

    def cumulative(self, values):
        """Trapezoid integral from 0 to every node of `ts`, shape (K, ...)."""
        widths = self._widths.reshape((-1,) + (1,) * (values.ndim - 1))
        steps = 0.5 * widths * (values[1:] + values[:-1])
        return np.concatenate([np.zeros_like(values[:1]), np.cumsum(steps, axis=0)])


def transport(field, curve, t=1.0, s=0.0, step=DEFAULT_STEP):
    """Parallel transport U_{t,s} along the curve, an (N, N) group element.

    The product of the Magnus-4 factors on [s, t], reduced without the node
    scan; on [0, 1] equal bit for bit to `TransportContext(...).endpoint`.
    """
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError("need 0 <= s <= t <= 1")
    if s == t:
        return np.eye(field.n, dtype=np.complex128)
    _, _, factors = _curve_factors(field, curve, step, float(s), float(t))
    return _endpoint_product(factors)


def variation_transports(field, curve, step=DEFAULT_STEP):
    """The map from a batch of variations gamma + sum_i eps_i X_i (`path.CurveSample`)
    to U_{1,0} along each, shape (B, N, N).

    Entry b equals bit for bit `transport` along the nested `perturb` curve.
    A perturbation keeps the curve's breakpoints, so every variation shares
    gamma's Magnus grid: gamma is sampled on it once for every batch, and per
    batch Z, Omega, the step exponentials and the endpoint products run once
    over the stack.
    """
    _, _, t, h = _curve_grid(curve, step, 0.0, 1.0)
    sample = CurveSample(curve, t)

    def transports(variations):
        z = field.generator(sample.perturbed_points(variations),
                            sample.perturbed_velocities(variations))
        return _endpoint_product(_magnus_factors(z, h))

    return transports


def propagator(zfun, step=DEFAULT_STEP):
    """Solve dP/dt = -Z(t) P on [0, 1], P(0) = Id, for Z(t) in su(N).

    zfun maps parameters (T,) to matrices (T, N, N); a non-su(N) part beyond
    roundoff (`algebra.LIE_TOL` relative to the largest entry) raises
    ValueError. Returns (nodes, P at nodes) from the fourth-order Magnus
    factors with two Gauss-Legendre points per step (Blanes, Casas, Oteo &
    Ros 2009; Iserles & Norsett 1999) and their product scan, the scheme of
    `TransportContext`.
    """
    nodes, factors = _lie_factors(zfun, step)
    return nodes, prefix_products(factors)


def propagator_endpoint(zfun, step=DEFAULT_STEP):
    """P(1) of `propagator`, bit for bit, reduced in M products without the node scan."""
    return _endpoint_product(_lie_factors(zfun, step)[1])


def duhamel_derivative(zfun, dzfun, step=DEFAULT_STEP):
    """Directional derivative of P(Z; 1) along a perturbation dZ:

        <DP(Z; 1), dZ> = -P(1) integral_0^1 P(t)^-1 dZ(t) P(t) dt.

    Z must lie in su(N), as in `propagator`, so P is special-unitary to roundoff
    and P^-1 is taken as P^+; dZ may be any matrix.
    """
    nodes, p = propagator(zfun, step)
    integrand = _matmul(_matmul(dagger(p), np.asarray(dzfun(nodes))), p)
    w = simpson_weights(len(nodes), 1.0 / (len(nodes) - 1))
    integral = np.einsum("t,tij->ij", w, integrand)
    return -_matmul(p[-1], integral)


def transport_derivative(ctx, x_field):
    """Derivative of U_{1,0}(gamma) along a curve variation X, for the context's
    field and curve gamma.

    Bulk term -int U_{1,t} F_mn(gamma) X^m gammadot^n U_{t,0} dt plus the
    endpoint terms -A_m(gamma(1)) X^m(1) U_{1,0} + U_{1,0} A_m(gamma(0)) X^m(0);
    the endpoint terms vanish for H^1_{0,0} variations.
    """
    t = np.einsum("tmvk,tm,tv->tk", ctx.curvature, x_field.value(ctx.ts), ctx.velocities)
    t1, t0 = np.asarray(1.0), np.asarray(0.0)
    a1 = lie_matrix(ctx.field.generator(ctx.curve.point(t1), x_field.value(t1)))
    a0 = lie_matrix(ctx.field.generator(ctx.curve.point(t0), x_field.value(t0)))
    return ctx.integrate_transported(-t) - _matmul(a1, ctx.endpoint) + _matmul(ctx.endpoint, a0)


def transport_s_derivative(ctx, ds_field):
    """d/ds of the transport when the connection depends on a flow time:

        d_s U_{1,0} = -int U_{1,t} (d_s A)_m(gamma(t)) gammadot^m U_{t,0} dt.

    The context holds the connection at the flow time and the curve gamma,
    `ds_field` the connection's s-derivative (any gauge field: its `generator`
    gives the coordinates of the integrand).
    """
    return ctx.integrate_transported(-ds_field.generator(ctx.points, ctx.velocities))
