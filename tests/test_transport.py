"""Parallel transport: integrator order, transport laws, derivative formulas.

Oracles:

* a frozen endpoint matrix (regression guard, measured at step 1/1024);
* the rotating-frame closed form P(t) = e^{w t L} e^{-t (w L + Z0)} for
  the propagator with Z(t) = e^{w t L} Z0 e^{-w t L};
* central finite differences for every derivative formula.

Measured margins that justify the tolerances: smooth-curve Magnus-4
errors 1.75e-9 and 1.09e-10 at steps 1/128 and 1/256 (ratio 16.02),
kinked-curve ratio 16.00, gauge-covariance gap 3.4e-12.
"""

import numpy as np
import pytest

from _oracles import ConcatCurve, gauge_map_value
from gaugeflow.algebra import (
    dagger,
    expm,
    group_defect,
    lie_coords,
    lie_matrix,
    maxabs,
    random_group,
    random_lie,
)
from gaugeflow.experiments import rng_for
from gaugeflow.field import (
    AnalyticField,
    GaugeMap,
    LatticeField,
    TransformedField,
    _gather_block,
    cov_div_curvature,
)
from gaugeflow.path import (
    Line,
    SineReparam,
    perturb,
    plateau,
    random_field,
    random_vanishing_field,
    reparametrize,
)
from gaugeflow.transport import (
    TransportContext,
    _curve_factors,
    _endpoint_product,
    duhamel_derivative,
    prefix_products,
    propagator,
    propagator_endpoint,
    simpson_weights,
    transport,
    transport_derivative,
    transport_s_derivative,
    variation_transports,
)

RNG = np.random.default_rng(4242)

# endpoint of the unit fixture transport at step 1/1024, frozen 2024-08
FROZEN_ENDPOINT = np.array(
    [
        [
            +9.727369219963248e-01 - 1.869673064182057e-01j,
            +2.609518809699660e-02 + 1.347039274632295e-01j,
        ],
        [
            -2.609518809699660e-02 + 1.347039274632295e-01j,
            +9.727369219963247e-01 + 1.869673064182057e-01j,
        ],
    ]
)


def test_endpoint_regression(su2_field, wiggly_curve):
    u = transport(su2_field, wiggly_curve, step=1.0 / 1024)
    assert maxabs(u - FROZEN_ENDPOINT) < 1e-10


def test_transport_identity_and_validation(su2_field, wiggly_curve):
    assert maxabs(transport(su2_field, wiggly_curve, t=0.37, s=0.37) - np.eye(2)) == 0.0
    with pytest.raises(ValueError):
        transport(su2_field, wiggly_curve, t=0.2, s=0.5)
    with pytest.raises(ValueError):
        transport(su2_field, wiggly_curve, t=1.2)
    with pytest.raises(ValueError):
        transport(su2_field, wiggly_curve, step=0.0)
    with pytest.raises(ValueError):
        TransportContext(su2_field, wiggly_curve, step=0.0)


def test_convergence_order_smooth(su2_field, wiggly_curve):
    """Magnus-4 is 4th order: error ratio ~16 per halving.

    Measured: e(1/128) = 1.75e-9, e(1/256) = 1.09e-10, ratio 16.02.
    """
    ref = transport(su2_field, wiggly_curve, step=1.0 / 4096)
    errs = [
        maxabs(transport(su2_field, wiggly_curve, step=1.0 / m) - ref) for m in (128, 256)
    ]
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_convergence_order_kinked(su2_field):
    """Breakpoint-aligned grids keep 4th order across a corner (measured 16.00)."""
    curve = ConcatCurve(Line([0.1, 0.2], [0.5, 0.3]), Line([0.5, 0.3], [0.4, 0.8]))
    ref = transport(su2_field, curve, step=1.0 / 4096)
    errs = [maxabs(transport(su2_field, curve, step=1.0 / m) - ref) for m in (128, 256)]
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_rotating_frame_closed_form():
    """Z(t) = e^{wtL} Z0 e^{-wtL} has propagator P(t) = e^{wtL} e^{-t(wL+Z0)}."""
    lam = random_lie(RNG, 2)
    z0 = random_lie(RNG, 2)
    w = 2.5

    def zfun(t):
        t = np.asarray(t, dtype=float)
        rot = expm(w * t[..., None, None] * lam)
        return rot @ z0 @ dagger(rot)

    nodes, p = propagator(zfun, step=1.0 / 1024)
    t = nodes[..., None, None]
    want = expm(w * t * lam) @ expm(-t * (w * lam + z0))
    assert maxabs(p - want) < 1e-9
    assert maxabs(p[0] - np.eye(2)) < 1e-14
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.array_equal(propagator_endpoint(zfun, step=1.0 / 1024), p[-1])


@pytest.mark.parametrize("n", [2, 3])
def test_unitarity_and_adjoint(su2_field, su3_field, wiggly_curve, n):
    """Magnus factors keep U_{t,0} in SU(N) with no projection (N = 3 runs the
    Cayley-Hamilton closed form). The adjoint matrices are orthogonal, and
    `to_start` carries coordinates as U_{t,0}^-1 C U_{t,0} carries their
    matrices. Measured at N = 2 and 3: orthogonality defects 1.0e-14 and
    3.8e-14, `to_start` gaps 2.4e-16 and 4.4e-16 relative to max|C|."""
    field = {2: su2_field, 3: su3_field}[n]
    ctx = TransportContext(field, wiggly_curve, step=1.0 / 1024)
    assert group_defect(ctx.from_start) < 1e-12
    k = n * n - 1
    assert ctx.adjoint.shape == (len(ctx.ts), k, k)
    assert maxabs(np.swapaxes(ctx.adjoint, 1, 2) @ ctx.adjoint - np.eye(k)) < 1e-12

    c = np.random.default_rng(n).standard_normal((len(ctx.ts), 2, k))
    u = ctx.from_start[np.searchsorted(ctx.nodes, ctx.ts), None]
    want = lie_coords(dagger(u) @ lie_matrix(c) @ u)
    assert maxabs(ctx.to_start(c) - want) <= 1e-14 * maxabs(c)


def test_group_law(su2_field, wiggly_curve):
    """U_{t,s} U_{s,r} = U_{t,r} for random parameter triples."""
    for _ in range(5):
        r, s, t = np.sort(RNG.uniform(0.0, 1.0, size=3))
        if t - r < 1e-3:
            continue
        u_sr = transport(su2_field, wiggly_curve, t=s, s=r, step=1.0 / 1024)
        u_ts = transport(su2_field, wiggly_curve, t=t, s=s, step=1.0 / 1024)
        u_tr = transport(su2_field, wiggly_curve, t=t, s=r, step=1.0 / 1024)
        assert maxabs(u_ts @ u_sr - u_tr) < 1e-9


def test_reparametrization_invariance(su2_field, wiggly_curve):
    u = transport(su2_field, wiggly_curve, step=1.0 / 1024)
    v = transport(su2_field, reparametrize(wiggly_curve, SineReparam(0.7)), step=1.0 / 1024)
    assert maxabs(u - v) < 1e-9


def test_plateau_transport(su2_field, wiggly_curve):
    """Standing still transports nothing: U(plateau(gamma, r)) = U_{r,0}(gamma)."""
    from gaugeflow.path import plateau

    r = 0.375
    u_plat = transport(su2_field, plateau(wiggly_curve, r), step=1.0 / 1024)
    u_r = transport(su2_field, wiggly_curve, t=r, s=0.0, step=1.0 / 1024)
    assert maxabs(u_plat - u_r) < 1e-9


def test_concat_transport(su2_field):
    """Transport along a concatenation is the product of the leg transports."""
    a = Line([0.1, 0.2], [0.5, 0.3])
    b = Line([0.5, 0.3], [0.4, 0.8])
    u = transport(su2_field, ConcatCurve(a, b), step=1.0 / 1024)
    ua = transport(su2_field, a, step=1.0 / 1024)
    ub = transport(su2_field, b, step=1.0 / 1024)
    assert maxabs(u - ub @ ua) < 1e-9


def test_gauge_covariance(su2_field, wiggly_curve):
    """U^psi = psi(gamma(1))^-1 U psi(gamma(0)); measured gap 3.4e-12."""
    psi = GaugeMap.random(
        rng_for(7, "unit/gauge"), su2_field.torus, n=2, factors=2, modes=2, amplitude=0.6, kmax=1
    )
    u = transport(su2_field, wiggly_curve, step=1.0 / 1024)
    v = transport(TransformedField(su2_field, psi), wiggly_curve, step=1.0 / 1024)
    p1 = gauge_map_value(psi, wiggly_curve.point(np.array(1.0)))
    p0 = gauge_map_value(psi, wiggly_curve.point(np.array(0.0)))
    assert maxabs(v - dagger(p1) @ u @ p0) < 1e-9


def test_duhamel_vs_fd():
    """The variation-of-constants derivative vs a central difference in eps."""
    z0, z1, z2 = (random_lie(RNG, 2) for _ in range(3))
    w0, w1 = (random_lie(RNG, 2, scale=0.5) for _ in range(2))

    def zfun(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return z0 + np.cos(2 * np.pi * t) * z1 + t * z2

    def dzfun(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return np.sin(np.pi * t) * w0 + t**2 * w1

    got = duhamel_derivative(zfun, dzfun, step=1.0 / 1024)
    eps = 1e-5
    up = propagator(lambda t: zfun(t) + eps * dzfun(t), step=1.0 / 1024)[1][-1]
    dn = propagator(lambda t: zfun(t) - eps * dzfun(t), step=1.0 / 1024)[1][-1]
    assert maxabs(got - (up - dn) / (2 * eps)) < 1e-7


def test_propagators_refuse_non_lie_generators():
    """Z must lie in su(N): a Hermitian or trace part beyond roundoff raises,
    one at roundoff (1e-15 relative) is taken as its su(N) part."""
    z0 = random_lie(RNG, 2)

    def zfun_with(extra):
        def zfun(t):
            return np.multiply.outer(np.cos(np.asarray(t, dtype=float)), z0 + extra)
        return zfun

    calls = (
        lambda zf: propagator(zf, step=1.0 / 64),
        lambda zf: propagator_endpoint(zf, step=1.0 / 64),
        lambda zf: duhamel_derivative(zf, zf, step=1.0 / 64),
    )
    for bad in (1e-6 * np.eye(2), 1e-6 * (z0 @ dagger(z0))):
        for call in calls:
            with pytest.raises(ValueError, match="non-su"):
                call(zfun_with(bad))
    tiny = 1e-15 * maxabs(z0) * np.eye(2)
    assert np.array_equal(propagator_endpoint(zfun_with(tiny), step=1.0 / 64),
                          propagator_endpoint(zfun_with(0.0), step=1.0 / 64))


@pytest.mark.parametrize("plateau_r", [None, 0.6], ids=["smooth", "plateau"])
def test_transport_derivative_vs_fd(su2_field, wiggly_curve, plateau_r):
    """Curve-variation derivative vs FD of transports along perturbed curves.

    One interior (vanishing-end) variation and one with free endpoints, so
    both the bulk curvature term and the endpoint connection terms are hit.
    The plateau curve has a junction at 0.6 with zero velocity after it.
    Measured: 5.7e-9 and 2.1e-8 (smooth), 4.4e-9 and 2.4e-8 (plateau).
    """
    curve = wiggly_curve if plateau_r is None else plateau(wiggly_curve, plateau_r)
    eps = 1e-5
    fields = [
        random_vanishing_field(np.random.default_rng(21), 2, modes=3),
        random_field(np.random.default_rng(22), 2, modes=3),
    ]
    for x in fields:
        got = transport_derivative(TransportContext(su2_field, curve, step=1.0 / 1024), x)
        up = transport(su2_field, perturb(curve, x, +eps), step=1.0 / 1024)
        dn = transport(su2_field, perturb(curve, x, -eps), step=1.0 / 1024)
        assert maxabs(got - (up - dn) / (2 * eps)) < 1e-6


def test_transport_s_derivative_vs_fd(torus2, su2_field, wiggly_curve):
    """Flow-time derivative vs FD across the one-parameter family A + s B."""
    b = AnalyticField.random_su(rng_for(7, "unit/sdot"), torus2, modes=2, amplitude=0.1, kmax=2)

    def family(s):
        return AnalyticField(
            torus2,
            2,
            np.concatenate([su2_field.kvecs, b.kvecs]),
            np.concatenate([su2_field.mus, b.mus]),
            np.concatenate([su2_field.coeffs, s * b.coeffs]),
            np.concatenate([su2_field.phases, b.phases]),
        )

    got = transport_s_derivative(TransportContext(su2_field, wiggly_curve, step=1.0 / 1024), b)
    eps = 1e-5
    up = transport(family(+eps), wiggly_curve, step=1.0 / 1024)
    dn = transport(family(-eps), wiggly_curve, step=1.0 / 1024)
    assert maxabs(got - (up - dn) / (2 * eps)) < 1e-6


def test_context_breakpoint_alignment(su2_field):
    """Integrator nodes contain every corner; each segment has an even count.

    The quadrature layout lists the corner twice, once per side, each copy
    with that side's velocity.
    """
    first, second = Line([0.1, 0.2], [0.5, 0.3]), Line([0.5, 0.3], [0.4, 0.8])
    curve = ConcatCurve(first, second)
    ctx = TransportContext(su2_field, curve, step=1.0 / 64)
    assert np.any(np.isclose(ctx.nodes, 0.5))
    assert ctx.nodes[0] == 0.0 and ctx.nodes[-1] == 1.0
    assert np.all(np.diff(ctx.nodes) > 0)
    (corner,) = np.flatnonzero(ctx.ts == 0.5)[:1]
    assert ctx.ts[corner + 1] == 0.5 and len(ctx.ts) == len(ctx.nodes) + 1
    assert corner % 2 == 0 and (len(ctx.ts) - corner - 2) % 2 == 0
    assert np.allclose(ctx.velocities[corner], 2.0 * (first.p1 - first.p0))
    assert np.allclose(ctx.velocities[corner + 1], 2.0 * (second.p1 - second.p0))
    assert np.allclose(ctx.points, curve.point(ctx.ts))


def test_context_quadrature(su2_field, wiggly_curve):
    """integrate and cumulative vs the antiderivative of the integrand.

    On the smooth curve the integrand is sin(2 pi t). On a kinked curve it is
    the speed |gammadot|, which jumps at the corner, so the integrals are the
    arc length and only the one-sided values on each side keep them exact.
    """
    ctx = TransportContext(su2_field, wiggly_curve, step=1.0 / 1024)
    fn = np.sin(2 * np.pi * ctx.ts)
    anti = lambda t: (1.0 - np.cos(2 * np.pi * t)) / (2 * np.pi)
    assert abs(ctx.integrate(fn)) < 1e-10
    cum = ctx.cumulative(fn)
    assert cum.shape == ctx.ts.shape
    assert np.max(np.abs(cum - anti(ctx.ts))) < 1e-6
    half = ctx.ts[len(ctx.ts) // 2 - (len(ctx.ts) // 2) % 2]  # an even node
    assert abs(ctx.integrate(fn, upto=half) - anti(half)) < 1e-10
    assert ctx.integrate(fn, upto=0.0) == 0.0
    with pytest.raises(ValueError):
        ctx.integrate(fn, upto=ctx.ts[1])

    first, second = Line([0.1, 0.2], [0.5, 0.3]), Line([0.5, 0.3], [0.4, 0.8])
    kinked = TransportContext(su2_field, ConcatCurve(first, second), step=1.0 / 64)
    speed = np.linalg.norm(kinked.velocities, axis=-1)
    s1 = np.linalg.norm(first.p1 - first.p0)
    s2 = np.linalg.norm(second.p1 - second.p0)
    arc = np.where(kinked.ts <= 0.5, 2 * s1 * kinked.ts, s1 + 2 * s2 * (kinked.ts - 0.5))
    assert abs(kinked.integrate(speed) - (s1 + s2)) < 1e-14
    assert abs(kinked.integrate(speed, upto=0.5) - s1) < 1e-14
    cum = kinked.cumulative(speed)
    assert np.max(np.abs(cum - arc)) < 1e-14
    (corner,) = np.flatnonzero(kinked.ts == 0.5)[:1]
    assert cum[corner] == cum[corner + 1]


def test_simpson_weights():
    w = simpson_weights(5, 0.25)
    assert abs(np.sum(w) - 1.0) < 1e-14
    # integrates cubics exactly: int_0^1 t^3 = 1/4
    t = np.linspace(0, 1, 5)
    assert abs(np.dot(w, t**3) - 0.25) < 1e-14
    with pytest.raises(ValueError):
        simpson_weights(4, 0.25)
    with pytest.raises(ValueError):
        simpson_weights(1, 0.25)


def test_prefix_products_matches_loop():
    """Every prefix of the scan against a left-to-right product loop, over the
    factor counts where the up-sweep's odd and even levels interleave."""
    rng = np.random.default_rng(3)
    for n in (2, 3):
        mats = random_group(rng, n, scale=0.1, shape=(8193,))
        loop = [np.eye(n, dtype=complex)]
        for a in mats:
            loop.append(a @ loop[-1])
        loop = np.array(loop)
        for m in [*range(71), 8191, 8192, 8193]:
            got = prefix_products(mats[:m])
            assert got.shape == (m + 1, n, n)
            assert maxabs(got[0] - loop[0]) == 0.0
            assert maxabs(got - loop[: m + 1]) < 1e-12, (n, m)


@pytest.mark.parametrize("n", [2, 3])
def test_endpoint_product_matches_scan_bitwise(n):
    """The pairwise reduction brackets exactly as the scan's last row."""
    rng = np.random.default_rng(5)
    for m in [*range(1, 70), 8191, 8192, 8193, 12345, 16384]:
        mats = random_group(rng, n, scale=0.1, shape=(m,))
        assert np.array_equal(_endpoint_product(mats), prefix_products(mats)[-1]), m


def test_to_start_direction_axes_match_per_slice_bitwise(su2_field, wiggly_curve):
    """A (K, d, d, N^2 - 1) stack goes to the start as the (K, N^2 - 1) route
    on each slice."""
    ctx = TransportContext(su2_field, plateau(wiggly_curve, 0.375), step=1.0 / 256)
    c = RNG.standard_normal((len(ctx.ts), 2, 2, 3))
    got = ctx.to_start(c)
    for a in range(2):
        for b in range(2):
            want = ctx.to_start(np.ascontiguousarray(c[:, a, b]))
            assert np.array_equal(got[:, a, b], want), (a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_integrate_transported_matches_matrix_quadrature(su2_field, su3_field, wiggly_curve, n):
    """integrate_transported(C) against the quadrature of the matrices
    U_{1,t} C(t) U_{t,0}, with U_{1,t} = U_{1,0} U_{t,0}^-1 built from `from_start`,
    over [0, 1]; and up to the plateau junction at 0.375, U_{1,0} times the
    prefix integral of `to_start(C)`, as R(r)'s integral route forms it. Measured
    relative gaps: 1.5e-15 and 4.7e-16 at N = 2, 8.5e-16 and 5.9e-16 at N = 3."""
    field = {2: su2_field, 3: su3_field}[n]
    ctx = TransportContext(field, plateau(wiggly_curve, 0.375), step=1.0 / 256)
    k = n * n - 1
    c = np.random.default_rng(10 + n).standard_normal((len(ctx.ts), 2, k))
    u = ctx.from_start[np.searchsorted(ctx.nodes, ctx.ts), None]
    density = ctx.endpoint @ dagger(u) @ lie_matrix(c) @ u
    prefix = ctx.endpoint @ lie_matrix(ctx.integrate(ctx.to_start(c), upto=0.375))
    for got, upto in ((ctx.integrate_transported(c), None), (prefix, 0.375)):
        want = ctx.integrate(density, upto=upto)
        assert maxabs(got - want) <= 1e-14 * maxabs(want)


def test_transport_matches_context_endpoint_bitwise(su2_field, wiggly_curve):
    """Endpoint-only transport equals the full node scan's endpoint bit for bit:
    the context's on [0, 1], and the scan of the factors on a sub-interval."""
    step = 1.0 / 512
    curve = plateau(wiggly_curve, 0.375)
    u = transport(su2_field, curve, step=step)
    assert np.array_equal(u, TransportContext(su2_field, curve, step=step).endpoint)
    s, t = 0.2, 0.7
    u = transport(su2_field, wiggly_curve, t=t, s=s, step=step)
    scan = prefix_products(_curve_factors(su2_field, wiggly_curve, step, s, t)[2])
    assert np.array_equal(u, scan[-1])


@pytest.mark.parametrize("n", [2, 3])
def test_context_plateaus_match_direct_contexts_bitwise(torus2, n):
    """A line context's plateau at r, built from the line's own Magnus factors,
    equals the context built along `plateau(line, r)` bit for bit, its U_{1,r}
    equals `transport(field, line, 1, r)`, and the integrands it lifts from the
    line's layout equal the ones read along the plateau: at r = 1, r = 1/2, an r
    whose junction opens a block of the order-2 lattice read (at N >= 3 a
    product's last bits follow the rows of its block) and r = 0. An r that is
    not an even node of the grid raises ValueError."""
    rng = rng_for(5, f"unit/plateaus/{n}")
    field = AnalyticField.random_su(rng, torus2, n=n, modes=2, amplitude=0.3, kmax=1)
    lat = LatticeField.sample(field, 16)
    line, step = Line([0.15, 0.35], [0.55, 0.65]), 1.0 / 1024

    def integrands(ctx):
        div_f = np.einsum("tmk,tm->tk", cov_div_curvature(lat, ctx.points), ctx.velocities)
        return div_f, lat.generator(ctx.points, ctx.velocities)

    ctx, plateaus = TransportContext.with_plateaus(lat, line, step=step)
    assert np.array_equal(ctx.from_start, TransportContext(lat, line, step=step).from_start)
    block = _gather_block(2, 3 * 2 * (n * n - 1))  # points per block of a curvature read
    for r in (1.0, 0.5, 2 * block * step, 0.0):
        got, tail, *lifted = plateaus(r, *integrands(ctx))
        want = TransportContext(lat, plateau(line, r), step=step)
        for name in ("from_start", "endpoint", "ts", "weights", "points", "velocities",
                     "adjoint"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (r, name)
        for mine, read in zip(lifted, integrands(want)):
            assert np.array_equal(mine, read), r
            assert np.array_equal(got.integrate_transported(mine),
                                  want.integrate_transported(read)), r
        assert np.array_equal(tail, transport(lat, line, 1.0, r, step=step)), r
    for r in (0.3, 3 * step):
        with pytest.raises(ValueError):
            plateaus(r)


def test_context_plateaus_take_nodes_off_by_roundoff(su2_field):
    """At a step that is not 1/2^j the line's node 100 and r = 1/3 differ in the
    last bits; r is still that node, and the derived plateau agrees with the
    direct one to roundoff (r_diagnostic.step = 1/3000 with r_divisions = 5
    ended in a ValueError)."""
    line, step, r = Line([0.15, 0.35], [0.55, 0.65]), 1.0 / 300, 1.0 / 3
    ctx, plateaus = TransportContext.with_plateaus(su2_field, line, step=step)
    want = TransportContext(su2_field, plateau(line, r), step=step)
    assert ctx.nodes[100] != r
    got, tail, lifted = plateaus(r, su2_field.generator(ctx.points, ctx.velocities))
    read = su2_field.generator(want.points, want.velocities)
    assert maxabs(got.from_start - want.from_start) < 1e-14
    assert maxabs(lifted - read) < 1e-14
    assert maxabs(got.integrate_transported(lifted) - want.integrate_transported(read)) < 1e-14
    assert maxabs(tail - transport(su2_field, line, 1.0, r, step=step)) < 1e-14


def test_propagator_matches_context_bitwise(su2_field, wiggly_curve):
    """The propagator of a curve's generator Z(t) = A_mu(gamma(t)) gammadot^mu(t)
    is the context's transport: both run one Magnus integrator."""
    assert wiggly_curve.breakpoints == ()

    def zfun(t):
        return lie_matrix(su2_field.generator(wiggly_curve.point(t), wiggly_curve.velocity(t)))

    step = 1.0 / 512
    nodes, p = propagator(zfun, step=step)
    ctx = TransportContext(su2_field, wiggly_curve, step=step)
    assert np.array_equal(nodes, ctx.nodes)
    assert np.array_equal(p, ctx.from_start)


@pytest.mark.parametrize("n", [2, 3])
def test_transport_variations_match_nested_perturb_bitwise(torus2, wiggly_curve, n):
    """The batched entry equals `transport` along the nested `perturb` curve bit
    for bit: a +-eps pair, the four Hessian corners and the unperturbed curve,
    on a smooth curve and on a plateau whose corner is a Magnus segment edge,
    for an analytic field and for a lattice sampled from it; a later batch on
    the same sample gets the same bits."""
    rng = rng_for(5, f"unit/variations/{n}")
    analytic = AnalyticField.random_su(rng, torus2, n=n, modes=2, amplitude=0.3, kmax=2)
    x = random_vanishing_field(rng, 2, modes=3, amplitude=0.9)
    y = random_field(rng, 2, modes=3, amplitude=0.6)
    eps, step = 1e-3, 1.0 / 512
    cases = [(analytic, wiggly_curve), (analytic, plateau(wiggly_curve, 0.375)),
             (LatticeField.sample(analytic, 16), wiggly_curve)]
    for field, curve in cases:
        pair = [[(x, eps)], [(x, -eps)]]
        corners = [[(x, ex), (y, ey)] for ex in (eps, -eps) for ey in (eps, -eps)]
        transports = variation_transports(field, curve, step=step)
        got = transports(pair + corners + [[]])
        assert np.array_equal(transports(corners[::-1]), got[2:6][::-1])
        want = [transport(field, perturb(curve, x, e), step=step) for e in (eps, -eps)]
        want += [transport(field, perturb(perturb(curve, x, ex), y, ey), step=step)
                 for ex in (eps, -eps) for ey in (eps, -eps)]
        want.append(transport(field, curve, step=step))
        assert got.shape == (7, n, n)
        for b, u in enumerate(want):
            assert np.array_equal(got[b], u), (type(field).__name__, curve.breakpoints, b)
    with pytest.raises(ValueError):
        variation_transports(analytic, wiggly_curve, step=0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_transports_take_no_lapack(monkeypatch, su2_field, su3_field, wiggly_curve, n):
    """Every N = 2 and N = 3 transport takes a closed-form exponential, and the
    Duhamel formula takes P^-1 as P^+: with the spectral `expm`,
    `np.linalg.eigh`, `np.linalg.solve` and `np.linalg.inv` made to raise, the
    context, `transport`, `variation_transports`, `propagator` and
    `duhamel_derivative` still run and give group elements."""
    from gaugeflow import algebra

    def refuse(*args, **kwargs):
        raise AssertionError(f"expm or LAPACK reached at N = {n}")

    field = {2: su2_field, 3: su3_field}[n]
    rng = np.random.default_rng(33)
    x = random_vanishing_field(rng, 2, modes=2, amplitude=0.5)
    z0, z1 = random_lie(rng, n), random_lie(rng, n)
    dz = random_lie(rng, n, scale=0.5)

    def zfun(t):
        return z0 + np.multiply.outer(np.cos(np.asarray(t, dtype=float)), z1)

    for name, module in (("expm", algebra), ("eigh", np.linalg), ("solve", np.linalg),
                         ("inv", np.linalg)):
        monkeypatch.setattr(module, name, refuse)
    step = 1.0 / 256
    ctx = TransportContext(field, wiggly_curve, step=step)
    u = transport(field, wiggly_curve, step=step)
    varied = variation_transports(field, wiggly_curve, step=step)([[(x, 1e-3)], []])
    _, p = propagator(zfun, step=step)
    dp = duhamel_derivative(zfun, lambda t: np.broadcast_to(dz, np.shape(t) + dz.shape), step=step)
    assert np.array_equal(varied[1], u)
    for g in (ctx.from_start, u, varied, p):
        assert group_defect(g) < 1e-12
    assert dp.shape == (n, n) and np.all(np.isfinite(dp))


def test_package_root_hides_no_module():
    """The package root re-exports nothing, so its submodules stay reachable."""
    import types

    from gaugeflow import transport as module

    assert isinstance(module, types.ModuleType)
    assert module.transport is transport
