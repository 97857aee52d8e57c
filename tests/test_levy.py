"""Second-derivative kernels, the Levy Laplacian, and the Cesaro oracle.

Independent oracles used here:

* finite differences of whole transports for the gradient pairing and the
  kernel-assembled bilinear form;
* a commuting-field series formula, derived from the mode data alone, for
  the Laplacian of transports of a commuting (abelian) connection;
* for curve functionals gamma -> int f(gamma), a hand-integrated closed
  form on a straight line (a single cos mode gives -8 pi).
"""

import numpy as np
import pytest
from scipy.integrate import simpson

from _oracles import cesaro_second_trace_per_curve, gauge_map_value
from gaugeflow.algebra import dagger, expm, fiber_metric, maxabs, random_lie
from gaugeflow.experiments import (
    DEFAULT_CONFIG,
    _curves,
    _functional_gaps,
    _functional_grad_pair,
    _functional_scalar,
    _torus,
    rng_for,
)
from gaugeflow.field import (
    AnalyticField,
    GaugeMap,
    ScalarFourier,
    Torus,
    TransformedField,
)
from gaugeflow.levy import (
    assemble_bilinear,
    cesaro_levy_estimate,
    cesaro_second_trace,
    h0_gradient_transport,
    levy_divergence,
    levy_laplacian_transport,
    second_kernels,
)
from gaugeflow.path import (
    Line,
    curve_integral,
    perturb,
    plateau,
    random_vanishing_field,
    variation_integrals,
)
from gaugeflow.transport import (
    TransportContext,
    transport,
    transport_derivative,
    variation_transports,
)

STEP = 1.0 / 1024


# ---------------------------------------------------------------------------
# H^0 gradient


def test_gradient_pair_vs_fd(su2_field, wiggly_curve):
    """<grad U, X phi>_{H^0} vs FD of eps -> <U(gamma + eps X), phi>."""
    grad = h0_gradient_transport(TransportContext(su2_field, wiggly_curve, step=STEP))
    rng = np.random.default_rng(64)
    eps = 1e-5
    for i in range(3):
        x = random_vanishing_field(rng, 2, modes=3)
        phi = random_lie(rng, 2)
        got = grad.pair(x, phi)
        up = fiber_metric(transport(su2_field, perturb(wiggly_curve, x, +eps), step=STEP), phi)
        dn = fiber_metric(transport(su2_field, perturb(wiggly_curve, x, -eps), step=STEP), phi)
        assert abs(got - (up - dn) / (2 * eps)) < 1e-6


def test_gradient_pair_matches_derivative_formula(su2_field, su3_field, wiggly_curve):
    """pair(X, phi) = <D U(X), phi> to roundoff for vanishing-end X (same ctx),
    at N = 2 and 3. Measured before the transport integrals moved to su(N)
    coordinates: 3.9e-16 and 6.7e-16; the su(3) bound has a 150x margin."""
    for field, bound in ((su2_field, 1e-12), (su3_field, 1e-13)):
        ctx = TransportContext(field, wiggly_curve, step=STEP)
        grad = h0_gradient_transport(ctx)
        rng = np.random.default_rng(65)
        x = random_vanishing_field(rng, 2, modes=3)
        phi = random_lie(rng, field.n)
        dv = transport_derivative(ctx, x)
        assert abs(grad.pair(x, phi) - fiber_metric(dv, phi)) < bound, field.n


# ---------------------------------------------------------------------------
# kernels


def test_kernel_symmetries(su2_field, wiggly_curve):
    """First-order kernel symmetric in its direction pair, singular kernel
    antisymmetric (it is the curvature), both as su(2) coordinates."""
    k = second_kernels(su2_field, wiggly_curve, step=STEP)
    assert k.levy.shape == k.singular.shape == (len(k.ctx.ts), 2, 2, 3)
    assert k.first.shape == (len(k.ctx.ts), 2, 3)
    assert maxabs(k.levy - np.swapaxes(k.levy, 1, 2)) < 1e-12
    assert maxabs(k.singular + np.swapaxes(k.singular, 1, 2)) < 1e-12


def test_bilinear_symmetric(su2_field, wiggly_curve):
    k = second_kernels(su2_field, wiggly_curve, step=STEP)
    rng = np.random.default_rng(66)
    x = random_vanishing_field(rng, 2, modes=3)
    y = random_vanishing_field(rng, 2, modes=3)
    assert maxabs(assemble_bilinear(k, x, y) - assemble_bilinear(k, y, x)) < 1e-12


@pytest.mark.parametrize("plateau_r, n, bound", [(None, 2, 1e-4), (0.6, 2, 1e-4), (None, 3, 6e-5)],
                         ids=["smooth", "plateau", "smooth-su3"])
def test_bilinear_vs_fd(su2_field, su3_field, wiggly_curve, plateau_r, n, bound):
    """Kernel-assembled D^2 U(X, Y) vs the 4-point mixed finite difference.

    eps = 2e-4 balances the eps^2 truncation against roundoff; the measured
    gap at step 1/2048 is 3.61e-5 on the smooth curve and 3.55e-5 on the
    plateau curve, whose junction at 0.6 the Volterra part integrates
    across, so 1e-4 has a 2.7x margin. The su(3) field on the smooth curve
    measured 2.02e-5 before the kernels moved to su(N) coordinates; its
    bound has a 3x margin.
    """
    field = {2: su2_field, 3: su3_field}[n]
    curve = wiggly_curve if plateau_r is None else plateau(wiggly_curve, plateau_r)
    step = 1.0 / 2048
    k = second_kernels(field, curve, step=step)
    rng = np.random.default_rng(67)
    x = random_vanishing_field(rng, 2, modes=3)
    y = random_vanishing_field(rng, 2, modes=3)
    got = assemble_bilinear(k, x, y)
    eps = 2e-4
    u = lambda cx, cy: transport(
        field, perturb(perturb(curve, x, cx * eps), y, cy * eps), step=step
    )
    fd = (u(1, 1) - u(1, -1) - u(-1, 1) + u(-1, -1)) / (4 * eps * eps)
    assert maxabs(got - fd) < bound


# ---------------------------------------------------------------------------
# Levy Laplacian of the transport


def test_laplacian_routes_agree(su2_field, su3_field, wiggly_curve):
    """Closed form vs kernel divergence: same integral, two code paths, at N = 2
    and 3. Before the transport integrals moved to su(N) coordinates, su(3)
    measured a relative mismatch of 1.7e-16 and an absolute gap of 8.9e-16;
    its bounds have margins of about 60x and 110x."""
    for field, bounds in ((su2_field, (1e-10, 1e-8)), (su3_field, (1e-14, 1e-13))):
        lap = levy_laplacian_transport(field, wiggly_curve, step=STEP)
        assert lap.mismatch < bounds[0], field.n
        assert maxabs(lap.value - lap.kernel_value) < bounds[1], field.n


def test_route_check_matches_levy_divergence_bitwise(su2_field, su3_field, wiggly_curve):
    """The route check's kernel value has the bits of `levy_divergence` of the
    kernel triple on the same context, at N = 2 and 3."""
    for field in (su2_field, su3_field):
        for curve in (wiggly_curve, plateau(wiggly_curve, 0.375)):
            ctx = TransportContext(field, curve, step=STEP)
            lap = levy_laplacian_transport(field, curve, ctx=ctx)
            want = levy_divergence(second_kernels(field, curve, ctx=ctx))
            assert np.array_equal(lap.kernel_value, want), field.n


def test_laplacian_check_modes(su2_field, wiggly_curve):
    fast = levy_laplacian_transport(su2_field, wiggly_curve, step=STEP, check=False)
    assert fast.mismatch == 0.0
    assert maxabs(fast.value - fast.kernel_value) == 0.0
    with pytest.raises(RuntimeError):
        levy_laplacian_transport(su2_field, wiggly_curve, step=STEP, check_tol=-1.0)


def test_laplacian_pure_gauge_vanishes(torus2, wiggly_curve):
    """A flat connection has div F = 0, so the Laplacian is exactly zero."""
    psi = GaugeMap.random(rng_for(7, "unit/gauge"), torus2, n=2, factors=2, modes=2,
                          amplitude=0.6, kmax=1)
    flat = TransformedField(AnalyticField.zero(torus2, 2), psi)
    lap = levy_laplacian_transport(flat, wiggly_curve, step=STEP)
    assert maxabs(lap.value) < 1e-12


@pytest.mark.parametrize("plateau_r", [None, 0.6], ids=["smooth", "plateau"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_laplacian_gauge_covariance(su2_field, wiggly_curve, plateau_r, seed):
    """Lap U^psi = psi(gamma(1))^-1 (Lap U) psi(gamma(0)) for the transformed field.

    Both sides run the route check (closed form against the kernel
    divergence). The measured relative gap is at most 4.2e-12.
    """
    curve = wiggly_curve if plateau_r is None else plateau(wiggly_curve, plateau_r)
    psi = GaugeMap.random(np.random.default_rng(seed), su2_field.torus, n=2, factors=2,
                          modes=2, amplitude=0.6, kmax=1)
    lap = levy_laplacian_transport(su2_field, curve, step=STEP).value
    lap_psi = levy_laplacian_transport(TransformedField(su2_field, psi), curve, step=STEP).value
    p1 = gauge_map_value(psi, curve.point(np.array(1.0)))
    p0 = gauge_map_value(psi, curve.point(np.array(0.0)))
    assert maxabs(lap_psi - dagger(p1) @ lap @ p0) / maxabs(lap) < 1e-8


def test_laplacian_abelian_series_oracle(torus2, abelian_field, wiggly_curve):
    """Commuting connection: everything is generated by one Lie direction, so

        Lap U = -(int (div F)_n gd^n dt) expm(-int A_n gd^n dt)

    with (div F)_n = sum_m c_m trig_m(x) (w_m,num w_m,n - |w_m|^2 d_{n,num}),
    assembled here directly from the stored mode data and integrated with
    scipy Simpson on a dense parameter grid.
    """
    t = np.linspace(0.0, 1.0, 4097)
    pts = wiggly_curve.point(t)
    vel = wiggly_curve.velocity(t)
    w = 2.0 * np.pi * abelian_field.kvecs / torus2.L  # (M, d)
    ang = pts @ w.T
    trig = np.where(abelian_field.phases == 0, np.cos(ang), np.sin(ang))  # (T, M)
    z_scal = np.zeros_like(t)
    div_scal = np.zeros_like(t)
    unit = abelian_field.coeffs[0] / np.max(np.abs(abelian_field.coeffs[0]))
    for m in range(len(abelian_field.kvecs)):
        cm = np.real(
            abelian_field.coeffs[m][np.unravel_index(np.argmax(np.abs(unit)), unit.shape)]
            / unit[np.unravel_index(np.argmax(np.abs(unit)), unit.shape)]
        )
        num = abelian_field.mus[m]
        z_scal += cm * trig[:, m] * vel[:, num]
        coef = w[m, num] * (vel @ w[m]) - np.sum(w[m] ** 2) * vel[:, num]
        div_scal += cm * trig[:, m] * coef
    z_int = simpson(z_scal, x=t)
    div_int = simpson(div_scal, x=t)
    want = -div_int * unit @ expm(-z_int * unit)
    got = levy_laplacian_transport(abelian_field, wiggly_curve, step=STEP)
    assert maxabs(got.value - want) < 1e-8


def test_cesaro_estimator_converges(su2_field, wiggly_curve):
    """Brute-force Cesaro mean approaches the closed form like O(1/n)."""
    closed = levy_laplacian_transport(su2_field, wiggly_curve, step=1.0 / 512,
                                      check=False).value
    res = cesaro_levy_estimate(su2_field, wiggly_curve, n_modes=16, eps=1e-3,
                               step=1.0 / 512, checkpoints=(4, 16))
    scale = maxabs(closed)
    err4 = maxabs(res.partial[4] - closed) / scale
    err16 = maxabs(res.partial[16] - closed) / scale
    assert err16 < 0.2
    assert err16 < err4
    assert res.n_modes == 16
    assert maxabs(res.estimate - res.partial[16]) == 0.0


def test_cesaro_driver_matches_per_curve_loop_bitwise(su2_field, wiggly_curve, torus2):
    """The batched Cesaro driver gives the bits of the per-curve loop, for the
    transport (`variation_transports`) and for a curve functional
    (`variation_integrals`), each sampling the curve once for the sweep."""
    step = 1.0 / 256
    f = ScalarFourier.random(np.random.default_rng(70), torus2, modes=3, amplitude=1.0, kmax=1)
    cases = [
        (variation_transports(su2_field, wiggly_curve, step=step),
         lambda c: transport(su2_field, c, step=step)),
        (variation_integrals(f.value, wiggly_curve), lambda c: curve_integral(f.value, c)),
    ]
    for batched, single in cases:
        got = cesaro_second_trace(batched, 2, 6, eps=1e-3, checkpoints=(2, 4))
        estimate, partial, base = cesaro_second_trace_per_curve(
            single, wiggly_curve, 2, 6, eps=1e-3, checkpoints=(2, 4))
        assert np.array_equal(got.estimate, estimate)
        assert np.array_equal(got.base, base)
        assert set(got.partial) == set(partial) == {2, 4, 6}
        assert all(np.array_equal(got.partial[k], partial[k]) for k in partial)


# ---------------------------------------------------------------------------
# curve functionals


def test_functional_gradient_vs_fd(torus2, wiggly_curve):
    f = ScalarFourier.random(np.random.default_rng(68), torus2, modes=4, amplitude=1.0, kmax=1)
    rng = np.random.default_rng(69)
    eps = 1e-4
    for _ in range(3):
        x = random_vanishing_field(rng, 2, modes=3)
        up = curve_integral(f.value, perturb(wiggly_curve, x, +eps))
        dn = curve_integral(f.value, perturb(wiggly_curve, x, -eps))
        assert abs(_functional_grad_pair(f, wiggly_curve, x) - (up - dn) / (2 * eps)) < 1e-6


def test_functional_laplacian_closed_form(torus2):
    """f = cos(2 pi x0) along the line (0,0) -> (1/4, 0):

    int_0^1 (lap f)(gamma(t)) dt = -(2 pi)^2 int_0^1 cos(pi t / 2) dt = -8 pi.
    """
    f = ScalarFourier(torus2, [[1, 0]], [1.0], [0])
    line = Line([0.0, 0.0], [0.25, 0.0])
    got = curve_integral(f.laplacian, line)
    assert abs(got - (-8.0 * np.pi)) < 1e-12


def test_functional_cesaro_matches_laplacian(torus2, wiggly_curve):
    """O(1/n) Cesaro convergence; measured errors 0.47 / 0.23 / 0.11 / 0.057
    at n = 8 / 16 / 32 / 64 for this draw."""
    f = ScalarFourier.random(np.random.default_rng(70), torus2, modes=3, amplitude=1.0, kmax=1)
    closed = curve_integral(f.laplacian, wiggly_curve)
    res = cesaro_second_trace(variation_integrals(f.value, wiggly_curve), 2, 64,
                              eps=1e-3, checkpoints=(8, 16, 32, 64))
    errs = [abs(res.partial[k] - closed) / abs(closed) for k in (8, 16, 32, 64)]
    assert errs[-1] < 0.1
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert set(res.partial) == {8, 16, 32, 64}


def test_functional_checks_across_master_seeds():
    """The curve-functional gaps of `levy` at master seeds 0-99, default config.

    The Hessian check passes at 99 of them. Seed 89 reads 6.3e-6: its
    curve-0 Hessian is -1.2e-3, against 11-26 on the other curves and
    seeds, so the relative error divides an absolute 7e-9 by a near-zero
    value. The gradient check, a five-point fourth-order difference at
    grad_eps 1e-3, also passes at 99. Seed 16 reads 1.27e-6: its curve-1
    gap is 7.7e-7, 4.8e-8 and 3.0e-9 at h = 2e-3, 1e-3 and 5e-4, the h^4
    truncation, divided by a gradient of -0.038 against 7.1 and -12.3 on the
    other curves. The route and heat gaps sit far below their tolerances at
    every seed.
    """
    cfg = DEFAULT_CONFIG
    fcfg, tol = cfg["functional"], cfg["tolerances"]
    curves = _curves(cfg, fcfg["curves"])
    torus = _torus(cfg)
    fails = {"functional_grad_fd": [], "functional_hessian_fd": []}
    for seed in range(100):
        gaps = _functional_gaps(_functional_scalar(fcfg, seed, torus), curves, fcfg, seed)
        for name, seeds in fails.items():
            if gaps[name] > tol[name]:
                seeds.append(seed)
        for name in ("functional_laplacian_routes", "functional_laplacian_fd", "heat_residual"):
            assert gaps[name] <= tol[name], (seed, name, gaps[name])
    assert all(len(seeds) <= 1 for seeds in fails.values()), fails
