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

from gaugeflow.algebra import dagger, expm, group_defect, maxabs, random_group, random_lie
from gaugeflow.experiments import rng_for
from gaugeflow.field import AnalyticField, GaugeMap, TransformedField
from gaugeflow.path import (
    ConcatCurve,
    Line,
    SineReparam,
    perturb,
    random_field,
    random_vanishing_field,
    reparametrize,
)
from gaugeflow.transport import (
    TransportContext,
    _endpoint_product,
    duhamel_derivative,
    prefix_products,
    propagator,
    propagator_endpoint,
    simpson_weights,
    transport,
    transport_derivative,
    transport_s_derivative,
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
    with pytest.raises(ValueError):
        TransportContext(su2_field, wiggly_curve, lo=0.5, hi=0.5)


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
def test_unitarity_and_to_end(torus2, wiggly_curve, n):
    """Magnus factors keep U_{t,0} in SU(N) with no projection (N = 3 runs the Pade expm)."""
    field = AnalyticField.random_su(
        rng_for(7, "unit/field"), torus2, n=n, modes=2, amplitude=0.3, kmax=2
    )
    ctx = TransportContext(field, wiggly_curve, step=1.0 / 1024)
    assert group_defect(ctx.from_start) < 1e-12
    assert group_defect(ctx.to_end) < 1e-12
    # U_{1,t} U_{t,0} = U_{1,0} at every node
    assert maxabs(ctx.to_end @ ctx.from_start - ctx.endpoint) < 1e-12


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
    p1 = psi.value(wiggly_curve.point(np.array(1.0)))
    p0 = psi.value(wiggly_curve.point(np.array(0.0)))
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


def test_transport_derivative_vs_fd(su2_field, wiggly_curve):
    """Curve-variation derivative vs FD of transports along perturbed curves.

    One interior (vanishing-end) variation and one with free endpoints, so
    both the bulk curvature term and the endpoint connection terms are hit.
    """
    eps = 1e-5
    fields = [
        random_vanishing_field(np.random.default_rng(21), 2, modes=3),
        random_field(np.random.default_rng(22), 2, modes=3),
    ]
    for x in fields:
        got = transport_derivative(su2_field, wiggly_curve, x, step=1.0 / 1024)
        up = transport(su2_field, perturb(wiggly_curve, x, +eps), step=1.0 / 1024)
        dn = transport(su2_field, perturb(wiggly_curve, x, -eps), step=1.0 / 1024)
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

    got = transport_s_derivative(su2_field, b, wiggly_curve, step=1.0 / 1024)
    eps = 1e-5
    up = transport(family(+eps), wiggly_curve, step=1.0 / 1024)
    dn = transport(family(-eps), wiggly_curve, step=1.0 / 1024)
    assert maxabs(got - (up - dn) / (2 * eps)) < 1e-6


def test_context_breakpoint_alignment(su2_field):
    """Integrator nodes contain every corner; each segment has an even count."""
    curve = ConcatCurve(Line([0.1, 0.2], [0.5, 0.3]), Line([0.5, 0.3], [0.4, 0.8]))
    ctx = TransportContext(su2_field, curve, step=1.0 / 64)
    assert np.any(np.isclose(ctx.nodes, 0.5))
    assert ctx.nodes[0] == 0.0 and ctx.nodes[-1] == 1.0
    assert np.all(np.diff(ctx.nodes) > 0)
    for seg in ctx.segments():
        assert (len(seg.ts) - 1) % 2 == 0


def test_context_quadrature(su2_field, wiggly_curve):
    """integrate/cumulative/integrate_prefix vs the antiderivative of sin(2 pi t)."""
    ctx = TransportContext(su2_field, wiggly_curve, step=1.0 / 1024)
    fn = lambda seg: np.sin(2 * np.pi * seg.ts)
    anti = lambda t: (1.0 - np.cos(2 * np.pi * t)) / (2 * np.pi)
    assert abs(ctx.integrate(fn)) < 1e-10
    cum = ctx.cumulative(fn)
    assert cum.shape == ctx.nodes.shape
    assert np.max(np.abs(cum - anti(ctx.nodes))) < 1e-6
    i = len(ctx.nodes) // 2
    i -= i % 2  # even node
    assert abs(ctx.integrate_prefix(fn, i) - anti(ctx.nodes[i])) < 1e-10
    assert ctx.integrate_prefix(fn, 0) == 0.0
    with pytest.raises(ValueError):
        ctx.integrate_prefix(fn, 1)


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
    mats = np.asarray(np.random.default_rng(3).standard_normal((9, 2, 2)), dtype=complex)
    got = prefix_products(mats.copy())
    acc = np.eye(2, dtype=complex)
    assert maxabs(got[0] - acc) == 0.0
    for i in range(9):
        acc = mats[i] @ acc
        assert maxabs(got[i + 1] - acc) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_endpoint_product_matches_scan_bitwise(n):
    """The pairwise reduction brackets exactly as the scan's last row."""
    rng = np.random.default_rng(5)
    for m in [*range(1, 70), 8191, 8192, 8193, 12345, 16384]:
        mats = random_group(rng, n, scale=0.1, shape=(m,))
        assert np.array_equal(_endpoint_product(mats), prefix_products(mats)[-1]), m


def test_transport_matches_context_endpoint_bitwise(su2_field, wiggly_curve):
    """Endpoint-only transport equals the full context's endpoint bit for bit."""
    from gaugeflow.path import plateau

    cases = [(plateau(wiggly_curve, 0.375), 0.0, 1.0), (wiggly_curve, 0.2, 0.7)]
    for curve, s, t in cases:
        u = transport(su2_field, curve, t=t, s=s, step=1.0 / 512)
        ctx = TransportContext(su2_field, curve, step=1.0 / 512, lo=s, hi=t)
        assert np.array_equal(u, ctx.endpoint)


def test_propagator_matches_context_bitwise(su2_field, wiggly_curve):
    """The propagator of a curve's generator Z(t) = A_mu(gamma(t)) gammadot^mu(t)
    is the context's transport: both run one Magnus integrator."""
    assert wiggly_curve.breakpoints == ()

    def zfun(t):
        a = su2_field.eval(wiggly_curve.point(t))
        return np.einsum("...mij,...m->...ij", a, wiggly_curve.velocity(t))

    step = 1.0 / 512
    nodes, p = propagator(zfun, step=step)
    ctx = TransportContext(su2_field, wiggly_curve, step=step)
    assert np.array_equal(nodes, ctx.nodes)
    assert np.array_equal(p, ctx.from_start)


def test_package_root_hides_no_module():
    """The package root re-exports nothing, so its submodules stay reachable."""
    import types

    from gaugeflow import transport as module

    assert isinstance(module, types.ModuleType)
    assert module.transport is transport
