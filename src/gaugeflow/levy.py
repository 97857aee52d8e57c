"""Functional calculus of the parallel transport on curve space.

The transport U_{1,0}(gamma) is a map from curves into the unitary group.
This module computes, numerically exactly (quadrature-limited):

  * its H^0 gradient along the curve,
  * the integral kernels of its second derivative (a regular part, a
    first-order "levy" part and a singular delta part),
  * the full second-derivative bilinear form assembled from the kernels,
  * the Levy Laplacian: the Cesaro mean over an orthonormal H^1_{0,0}
    basis of second directional derivatives, which for the transport has
    the closed form  -int U_{1,t} (div F)_n gammadot^n U_{t,0} dt,
  * a brute-force Cesaro estimator that touches none of the above,
    used to validate the closed forms. `cesaro_second_trace` is its one
    driver: for each sine mode it hands the 2 d +-eps variations to a
    batched evaluator, `transport.variation_transports` for the transport
    and `path.variation_integrals` for a curve functional, each of which
    samples the base curve once for the whole sweep.

All second-derivative quantities are checked two independent ways in the
test-suite; `levy_laplacian_transport` additionally cross-checks its two
internal routes on every call unless told not to: the kernels hold
untransported su(N) coordinates, so the full kernel triple costs the check
little beyond the nabla F it needs anyway.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .algebra import _matmul, fiber_metric, lie_matrix, maxabs
from .field import _curvature_and_cov_deriv, central_difference, cov_div_curvature
from .path import sine_basis
from .transport import DEFAULT_STEP, TransportContext, variation_transports


# ---------------------------------------------------------------------------
# first derivative
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class GradientField:
    """H^0 gradient of the transport along one curve.

    J^m(t) = -U_{1,t} g_m U_{t,0} with g_m = F_mn gammadot^n, whose su_basis
    coordinates `g` holds on the context's nodes `ctx.ts`, shape (K, d, N^2 - 1).
    """

    ctx: TransportContext
    g: np.ndarray

    def pair(self, x_field, phi):
        """H^0 inner product <grad U, X phi> = <int sum_m J^m X^m dt, phi>."""
        gx = np.einsum("tmk,tm->tk", self.g, x_field.value(self.ctx.ts))
        return float(fiber_metric(-self.ctx.integrate_transported(gx), phi))


def h0_gradient_transport(ctx):
    """The H^0 gradient of the transport along the context's curve in its field."""
    return GradientField(ctx, np.einsum("tmvk,tv->tmk", ctx.curvature, ctx.velocities))


# ---------------------------------------------------------------------------
# second derivative kernels
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class KernelTriple:
    """Kernels of the second derivative of the transport along one curve.

    The bilinear form splits into a double-time (Volterra) part with the
    factored kernel K_V(t, s), a same-time first-order part K_L(t) and a
    singular part K_S(t) paired against one derivative of a variation:

      D^2 U(X, Y) = U_{1,0} int_t IX(t) int_0^t IY(s) ds dt  + (X <-> Y)
                  + int K_L,ab X^a Y^b dt
                  + 1/2 int K_S,ab (X'^a Y^b + Y'^a X^b) dt

    with IX(t) = U_{t,0}^-1 first_a(t) X^a(t) U_{t,0}, K_L = U_{1,t} levy U_{t,0}
    and K_S = U_{1,t} singular U_{t,0}: the arrays hold su_basis coordinates
    of the untransported sources, sampled on the context's nodes `ctx.ts`.
    """

    ctx: TransportContext
    levy: np.ndarray      # (K, d, d, N^2 - 1)
    singular: np.ndarray  # (K, d, d, N^2 - 1)
    first: np.ndarray     # (K, d, N^2 - 1)


def second_kernels(field, curve, step=DEFAULT_STEP, ctx=None):
    if ctx is None:
        ctx = TransportContext(field, curve, step=step)
    f, df = _curvature_and_cov_deriv(field, ctx.points)  # df[a, b, c] = D_a F_bc
    h1 = np.einsum("tabck,tc->tabk", df, ctx.velocities)  # D_a F_{b .} gammadot
    return KernelTriple(ctx, -0.5 * (h1 + np.swapaxes(h1, 1, 2)), f,
                        np.einsum("tmvk,tv->tmk", f, ctx.velocities))


def levy_divergence(kernels):
    """Trace over directions of the first-order kernel: int sum_a K_L,aa dt.

    This is the kernel-route value of the Levy Laplacian of the transport;
    the double-time and singular kernels contribute nothing to the Cesaro
    mean (their sine-series coefficients are summable and average out).
    """
    return kernels.ctx.integrate_transported(np.einsum("taak->tk", kernels.levy))


def assemble_bilinear(kernels, x_field, y_field):
    """Second derivative D^2 U(X, Y) assembled from the kernel triple.

    X and Y must vanish at the endpoints (variations fixing both ends).
    Returns an (N, N) matrix; symmetric in X <-> Y by construction.
    """
    ctx = kernels.ctx
    xv, yv = x_field.value(ctx.ts), y_field.value(ctx.ts)
    dx, dy = x_field.deriv(ctx.ts), y_field.deriv(ctx.ts)

    # IX and IY along axis 1; each pairs with the other's cumulative integral
    ixy = lie_matrix(ctx.to_start(np.einsum("tmk,tsm->tsk", kernels.first, np.stack([xv, yv], 1))))
    volterra = ctx.integrate(np.sum(_matmul(ixy, ctx.cumulative(ixy)[:, ::-1]), axis=1))
    ks = kernels.singular
    local = (np.einsum("tabk,ta,tb->tk", kernels.levy, xv, yv)
             + 0.5 * (np.einsum("tabk,ta,tb->tk", ks, dx, yv)
                      + np.einsum("tabk,ta,tb->tk", ks, dy, xv)))
    return _matmul(ctx.endpoint, volterra) + ctx.integrate_transported(local)


# ---------------------------------------------------------------------------
# Levy Laplacian
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class LevyLaplacian:
    value: np.ndarray         # closed-form route
    kernel_value: np.ndarray  # divergence of the first-order kernel
    mismatch: float           # relative max-norm gap between the routes


def levy_laplacian_transport(field, curve, step=DEFAULT_STEP, ctx=None,
                             check=True, check_tol=1e-8):
    """Levy Laplacian of the transport along the curve.

    Closed form: -int U_{1,t} (div F)_n(gamma) gammadot^n U_{t,0} dt with
    (div F)_n = sum_m D_m F_{mn}. With check=True (default) the same value
    is recomputed from the second-derivative kernels and the two routes
    must agree to check_tol; a gap means a broken derivative somewhere.
    """
    if ctx is None:
        ctx = TransportContext(field, curve, step=step)

    c = np.einsum("tvk,tv->tk", cov_div_curvature(field, ctx.points), ctx.velocities)
    closed = ctx.integrate_transported(-c)
    if not check:
        return LevyLaplacian(closed, closed, 0.0)
    kernel_value = levy_divergence(second_kernels(field, curve, ctx=ctx))
    mismatch = maxabs(closed - kernel_value) / (1.0 + maxabs(closed))
    if mismatch > check_tol:
        raise RuntimeError(
            f"Levy Laplacian routes disagree: relative gap {mismatch:.3e}"
        )
    return LevyLaplacian(closed, kernel_value, mismatch)


# ---------------------------------------------------------------------------
# brute-force Cesaro estimator
# ---------------------------------------------------------------------------


def cesaro_second_trace(evaluate, d, n_modes, eps=1e-3, checkpoints=()):
    """Cesaro mean (1/n) sum_{k<=n} sum_axis D^2 evaluate (along sine modes).

    Second directional derivatives are central finite differences of a
    curve map (matrix or scalar) along the orthonormal H^1_{0,0} basis
    fields sqrt(2) sin(pi k t) e_axis. `evaluate(variations)` returns the
    map's values (B, ...) along variations of one curve (`path.CurveSample`),
    [()] giving the curve itself; it gets each mode's 2 d variations in one
    call. Returns the running means {n: mean} at each checkpoint and at
    n_modes, so convergence is visible to callers.
    """
    base = evaluate([()])[0]
    total = None
    means = {}
    for k in range(1, n_modes + 1):
        fields = [sine_basis(k, d, axis) for axis in range(d)]

        def along_axes(offsets):
            # each offset's values over the axes, the moved curves in one call
            moved = evaluate([[(x, j * eps)] for x in fields for j in offsets if j])
            moved = iter(np.moveaxis(moved.reshape((d, -1) + moved.shape[1:]), 1, 0))
            return [next(moved) if j else base for j in offsets]

        dd = central_difference(along_axes, eps, deriv=2)
        sk = sum(dd[1:], dd[0])  # the axes in order, from the first
        total = sk if total is None else total + sk
        if k in checkpoints or k == n_modes:
            means[k] = total / k
    return means


def cesaro_levy_estimate(field, curve, n_modes, eps, step, checkpoints):
    """Brute-force Cesaro estimate of the Levy Laplacian of the transport.

    Uses nothing but whole-transport evaluations (`variation_transports`,
    which samples the curve once for the whole sweep), so it is an oracle
    for `levy_laplacian_transport`; expect O(1/n) convergence of the mean.
    """
    return cesaro_second_trace(variation_transports(field, curve, step=step),
                               field.torus.d, n_modes, eps=eps, checkpoints=checkpoints)
