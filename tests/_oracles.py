"""Defect measures and readers the tests hold the library's output to.

Nothing in the package needs them at run time: they check that a result
lies in the set it claims (the Lie algebra), satisfies an identity the
formulas must keep (Bianchi), or has the inner products a basis claims,
and they read back the fields the package saves. `rk4_trajectory` is a
plain RK4 loop that the lattice flow is held to, and the `pair_stack_*`
kernels are the flow's bracket, curvature and velocity formed from stacks
of each direction pair's operands with the `np.roll` stencil
`oracle_stencil`: the reference the flow's kernels are held to bit for
bit. `ConcatCurve` builds the kinked curves that the breakpoint tests
integrate across.
`cesaro_second_trace_per_curve` is the Cesaro mean taken one perturbed
curve at a time, the loop the batched driver is held to. `ClosureField`,
`closure_sine_basis` and `closure_vanishing_field` build the sine fields as
a chain of value and derivative closures, the reference the coefficient
tables of `path.SineField` are held to bit for bit. `gauge_map_value` is
the product of a gauge map's factors. `HAND_STENCILS`
holds the finite-difference oracles' stencils as they were written out by
hand, the reference `field.central_difference` is held to bit for bit.
The `einsum_*` functions are the derivative-tensor kernels written term by
term as explicit index contractions, the reference the broadcast-product
kernels are held to, and the `matrix_*` curvature kernels are the complex
N x N forms the su(N)-coordinate curvature kernels replaced.
`stacked_spline_table` builds a lattice's spline table of one derivative
order from one stack of all its stencil grids, the build the grid-by-grid
tables are held to bit for bit. `matrix_jet` is the matrix read of one
order of a field's `coord_jets`, which the matrix oracles take and return.
"""

import json
import math
import pathlib

import numpy as np

from gaugeflow.algebra import (
    _matmul, _structure, dagger, exp_lie, expm, lie_coords, lie_matrix, maxabs, trace,
)
from gaugeflow.field import (
    AnalyticField, LatticeField, cov_deriv_curvature, spline_filter, stencil_d1,
)
from gaugeflow.heatflow import _BRACKET_FLOATS
from gaugeflow.path import Curve, gauss_legendre, perturb, sine_basis


def commutator(x, y):
    """[x, y] = xy - yx."""
    return x @ y - y @ x


def lie_defect(x):
    """How far x is from anti-Hermitian traceless."""
    return max(maxabs(x + dagger(x)), maxabs(trace(x)))


def bianchi_residual(field, x):
    """Max norm of the cyclic sum nabla_l F_mn + nabla_m F_nl + nabla_n F_lm."""
    df = lie_matrix(cov_deriv_curvature(field, x))
    cyc = df + np.moveaxis(df, (-5, -4, -3), (-3, -5, -4)) + np.moveaxis(
        df, (-5, -4, -3), (-4, -3, -5)
    )
    return float(np.max(np.abs(cyc)))


def h0_inner(x, y, panels=256):
    """G0 inner product of two curve fields: integral of X(t) . Y(t) dt."""
    t, w = gauss_legendre(panels)
    return float(np.einsum("td,td,t->", x.value(t), y.value(t), w))


def h1_inner(x, y, panels=256):
    """G1 inner product of two curve fields: integral of X . Y + X' . Y' dt."""
    t, w = gauss_legendre(panels)
    val = np.einsum("td,td,t->", x.value(t), y.value(t), w)
    val += np.einsum("td,td,t->", x.deriv(t), y.deriv(t), w)
    return float(val)


class ConcatCurve(Curve):
    """First curve on [0, 1/2], second on [1/2, 1]; endpoints must meet."""

    def __init__(self, first, second, tol=1e-12):
        gap = np.max(np.abs(first.point(np.array(1.0)) - second.point(np.array(0.0))))
        if gap > tol:
            raise ValueError(f"concatenation endpoint gap {gap:.3e}")
        super().__init__(first.d)
        self.first, self.second = first, second
        bps = tuple(0.5 * b for b in first.breakpoints)
        bps += (0.5,)
        bps += tuple(0.5 + 0.5 * b for b in second.breakpoints)
        self.breakpoints = bps

    def point(self, t):
        t = np.asarray(t, dtype=float)
        lo = self.first.point(np.clip(2.0 * t, 0.0, 1.0))
        hi = self.second.point(np.clip(2.0 * t - 1.0, 0.0, 1.0))
        return np.where((t <= 0.5)[..., None], lo, hi)

    def velocity(self, t, side=1):
        t = np.asarray(t, dtype=float)
        in_first = (t < 0.5) | ((t == 0.5) & (side < 0))
        lo = self.first.velocity(np.clip(2.0 * t, 0.0, 1.0), side)
        hi = self.second.velocity(np.clip(2.0 * t - 1.0, 0.0, 1.0), side)
        return 2.0 * np.where(in_first[..., None], lo, hi)


class ClosureField:
    """Curve field held as value and derivative closures, with sums and scalar
    multiples built as closures over their operands."""

    def __init__(self, value, deriv, d, vanishing_ends=False):
        self._value, self._deriv = value, deriv
        self.d = d
        self.vanishing_ends = vanishing_ends

    def value(self, t):
        return self._value(np.asarray(t, dtype=float))

    def deriv(self, t):
        return self._deriv(np.asarray(t, dtype=float))

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return ClosureField(
            lambda t: self.value(t) + other.value(t),
            lambda t: self.deriv(t) + other.deriv(t),
            self.d,
            self.vanishing_ends and other.vanishing_ends,
        )

    def __mul__(self, c):
        return ClosureField(
            lambda t: c * self.value(t),
            lambda t: c * self.deriv(t),
            self.d,
            self.vanishing_ends,
        )

    __rmul__ = __mul__


def closure_sine_basis(n, d, axis=0):
    """e_n(t) e_axis with e_n(t) = sqrt(2) sin(pi n t), as closures."""
    unit = np.zeros(d)
    unit[axis] = 1.0
    w = np.pi * n
    root2 = np.sqrt(2.0)

    def value(t):
        return root2 * np.sin(w * t)[..., None] * unit

    def deriv(t):
        return root2 * w * np.cos(w * t)[..., None] * unit

    return ClosureField(value, deriv, d, vanishing_ends=True)


def closure_vanishing_field(rng, d, modes=4, amplitude=1.0):
    """`path.random_vanishing_field` (modes >= 1) as a sum of closure terms, one
    per mode and axis, chained in mode order."""
    k = np.arange(1, modes + 1)[:, None]
    coeffs = amplitude * rng.standard_normal((modes, d)) / k
    field = None
    for n in range(1, modes + 1):
        for mu in range(d):
            term = coeffs[n - 1, mu] * closure_sine_basis(n, d, mu)
            field = term if field is None else field + term
    field.vanishing_ends = True
    return field


def gauge_map_value(gauge_map, x):
    """psi(x) = exp(theta_1(x) T_1) ... exp(theta_J(x) T_J), shape (..., N, N)."""
    x = np.asarray(x, dtype=float)
    n = gauge_map.n
    out = np.broadcast_to(np.eye(n, dtype=np.complex128), x.shape[:-1] + (n, n))
    for theta, t_dir in gauge_map.factors:
        out = out @ exp_lie(theta.value(x)[..., None] * lie_coords(t_dir))
    return out


def rk4_trajectory(rhs, y0, steps, ds, save_every):
    """Classical RK4 for dy/ds = rhs(y) from y0, `steps` steps of ds.

    Returns the states [(step, y)] at step 0, every `save_every` steps and
    the last step, and rhs(y) at the start of every step and at the end.
    """
    y, saved, rates = y0, [(0, y0)], []
    for i in range(1, steps + 1):
        k1 = rhs(y)
        rates.append(k1)
        k2 = rhs(y + (0.5 * ds) * k1)
        k3 = rhs(y + (0.5 * ds) * k2)
        k4 = rhs(y + ds * k3)
        y = y + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if i % save_every == 0 or i == steps:
            saved.append((i, y))
    rates.append(rhs(y))
    return saved, rates


def oracle_stencil(arr, axis, a):
    """4th-order central first derivative along a periodic axis, from np.roll."""
    f1, b1 = np.roll(arr, -1, axis), np.roll(arr, 1, axis)
    f2, b2 = np.roll(arr, -2, axis), np.roll(arr, 2, axis)
    return (8.0 * (f1 - b1) - (f2 - b2)) / (12.0 * a)


def pair_stack_bracket(x, y):
    """[x, y] of coordinate stacks (B, K, *sites), a block of sites at a time,
    with the flow's block partition: the stacked kernel the flow is held to."""
    b, k = x.shape[:2]
    ia, ib, s = _structure(math.isqrt(k + 1))
    xf, yf = x.reshape(b, k, -1), y.reshape(b, k, -1)
    out = np.empty_like(xf)
    step = max(1, _BRACKET_FLOATS // (b * len(ia)))
    for lo in range(0, xf.shape[-1], step):
        xs, ys = xf[..., lo:lo + step], yf[..., lo:lo + step]
        out[..., lo:lo + step] = s @ (xs[:, ia] * ys[:, ib] - xs[:, ib] * ys[:, ia])
    return out.reshape(x.shape)


def pair_stack_curvature(x, a):
    """F_mn (P, K, *sites) of flow coordinates x (d, K, *sites), pairs m < n in
    row-major order, from stacks of the pairs' operands."""
    pm, pn = np.triu_indices(len(x), 1)
    f = np.stack([oracle_stencil(x[n], 1 + m, a) - oracle_stencil(x[m], 1 + n, a)
                  for m, n in zip(pm, pn)])
    return f + pair_stack_bracket(x[pm], x[pn])


def pair_stack_velocity(x, a, f):
    """sum_m D_m F_mn, summed into zeros pair by pair, from f = pair_stack_curvature(x, a)."""
    pm, pn = np.triu_indices(len(x), 1)
    comm = pair_stack_bracket(x[np.concatenate([pm, pn])], np.concatenate([f, f]))
    out = np.zeros_like(x)
    for p, (m, n) in enumerate(zip(pm, pn)):
        out[n] += oracle_stencil(f[p], 1 + m, a) + comm[p]
        out[m] -= oracle_stencil(f[p], 1 + n, a) + comm[len(pm) + p]
    return out


def load_field(base):
    """Read a field written by `gaugeflow.field.save_field`."""
    base = pathlib.Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    if header["kind"] == "lattice":
        return LatticeField.load(base)
    if header["kind"] == "analytic":
        return AnalyticField.from_dict(header)
    raise ValueError(f"unknown serialized field kind {header['kind']!r}")


def stacked_spline_table(lat, order):
    """The (m^d, components) spline table of derivative order 0, 1 or 2 of
    `lat`, formed as one stack: the order's stencil grids (the coordinates,
    their partials along each site axis, or the partials along b of those
    along a for a <= b), one `spline_filter` over all of them and one
    transposed copy."""
    d, x, a = lat.torus.d, lat.coords, lat.a
    first = [stencil_d1(x, 2 + ax, a) for ax in range(d)]
    second = [stencil_d1(first[ax], 2 + bx, a) for ax in range(d) for bx in range(ax, d)]
    grids = np.stack(([x], first, second)[order])
    coeff = spline_filter(grids.reshape((-1,) + grids.shape[-d:]), d)
    return np.ascontiguousarray(coeff.reshape(len(coeff), -1).T)


def matrix_jet(field, x, k):
    """The matrices (..., d^k, d, N, N) of entry k of the field's `coord_jets` at x."""
    return lie_matrix(field.coord_jets(x, k)[k])


def analytic_mode_sum(field, x, order):
    """`matrix_jet` of an AnalyticField at `order` (0, 1 or 2), summed mode by
    mode as complex matrices into each mode's direction slot."""
    x = np.asarray(x, dtype=float)
    d, n = field.torus.d, field.n
    out = np.zeros(x.shape[:-1] + (d,) * order + (d, n, n), dtype=np.complex128)
    # the field's own angles: their rounding is not what this sum checks
    angles = x @ field._w.T
    for m, (mu, c, phase) in enumerate(zip(field.mus, field.coeffs, field.phases)):
        w, ang = field._w[m], angles[..., m]
        cos, sin = np.cos(ang), np.sin(ang)
        # derivatives of cos cycle through cos, -sin, -cos, sin; sin starts at the last
        weight = [cos, -sin, -cos, sin][(order - phase) % 4]
        for _ in range(order):
            weight = np.multiply.outer(weight, w)
        out[..., mu, :, :] += np.multiply.outer(weight, c)
    return out


# --- derivative tensors as explicit index contractions ----------------------


def einsum_factor_derivs(theta, t_dir, x):
    """exp(theta(x) T) and its derivative tensors through third order."""
    th0, th1, th2, th3 = theta.jets(x, 3)
    f0 = expm(th0[..., None, None] * t_dir)
    t2 = t_dir @ t_dir
    t3 = t2 @ t_dir
    e = np.einsum
    f1 = e("...a,ij,...jk->...aik", th1, t_dir, f0)
    f2 = e("...ab,ij,...jk->...abik", th2, t_dir, f0) + e(
        "...a,...b,ij,...jk->...abik", th1, th1, t2, f0
    )
    f3 = (
        e("...abc,ij,...jk->...abcik", th3, t_dir, f0)
        + e("...ab,...c,ij,...jk->...abcik", th2, th1, t2, f0)
        + e("...ac,...b,ij,...jk->...abcik", th2, th1, t2, f0)
        + e("...bc,...a,ij,...jk->...abcik", th2, th1, t2, f0)
        + e("...a,...b,...c,ij,...jk->...abcik", th1, th1, th1, t3, f0)
    )
    return [f0, f1, f2, f3]


def einsum_leibniz(u, v):
    """Derivative tensors (order 0..3) of a pointwise matrix product."""
    e = np.einsum
    out0 = u[0] @ v[0]
    out1 = e("...aij,...jk->...aik", u[1], v[0]) + e("...ij,...ajk->...aik", u[0], v[1])
    out2 = (
        e("...abij,...jk->...abik", u[2], v[0])
        + e("...aij,...bjk->...abik", u[1], v[1])
        + e("...bij,...ajk->...abik", u[1], v[1])
        + e("...ij,...abjk->...abik", u[0], v[2])
    )
    out3 = (
        e("...abcij,...jk->...abcik", u[3], v[0])
        + e("...abij,...cjk->...abcik", u[2], v[1])
        + e("...acij,...bjk->...abcik", u[2], v[1])
        + e("...bcij,...ajk->...abcik", u[2], v[1])
        + e("...aij,...bcjk->...abcik", u[1], v[2])
        + e("...bij,...acjk->...abcik", u[1], v[2])
        + e("...cij,...abjk->...abcik", u[1], v[2])
        + e("...ij,...abcjk->...abcik", u[0], v[3])
    )
    return [out0, out1, out2, out3]


def einsum_gauge_map_derivs(gauge_map, x):
    """psi and its derivative tensors [D0, D1, D2, D3] at x (at least one factor)."""
    x = np.asarray(x, dtype=float)
    tensors = None
    for theta, t_dir in gauge_map.factors:
        ft = einsum_factor_derivs(theta, t_dir, x)
        tensors = ft if tensors is None else einsum_leibniz(tensors, ft)
    return tensors


def einsum_transformed(field, x):
    """`matrix_jet` of a TransformedField at orders 0, 1 and 2, term by term."""
    x = np.asarray(x, dtype=float)
    psi = einsum_gauge_map_derivs(field.map, x)
    inv = [dagger(p) for p in psi]
    a0, a1, a2 = (matrix_jet(field.base, x, k) for k in range(3))
    e = np.einsum
    val = e("...ij,...mjk,...kl->...mil", inv[0], a0, psi[0])
    val = val + e("...ij,...mjk->...mik", inv[0], psi[1])
    p = e("...aij,...mjk,...kl->...amil", inv[1], a0, psi[0])
    p += e("...ij,...amjk,...kl->...amil", inv[0], a1, psi[0])
    p += e("...ij,...mjk,...akl->...amil", inv[0], a0, psi[1])
    p += e("...aij,...mjk->...amik", inv[1], psi[1])
    p += e("...ij,...amjk->...amik", inv[0], psi[2])
    s = e("...abij,...mjk,...kl->...abmil", inv[2], a0, psi[0])
    s += e("...aij,...bmjk,...kl->...abmil", inv[1], a1, psi[0])
    s += e("...bij,...amjk,...kl->...abmil", inv[1], a1, psi[0])
    s += e("...aij,...mjk,...bkl->...abmil", inv[1], a0, psi[1])
    s += e("...bij,...mjk,...akl->...abmil", inv[1], a0, psi[1])
    s += e("...ij,...abmjk,...kl->...abmil", inv[0], a2, psi[0])
    s += e("...ij,...amjk,...bkl->...abmil", inv[0], a1, psi[1])
    s += e("...ij,...bmjk,...akl->...abmil", inv[0], a1, psi[1])
    s += e("...ij,...mjk,...abkl->...abmil", inv[0], a0, psi[2])
    s += e("...abij,...mjk->...abmik", inv[2], psi[1])
    s += e("...aij,...bmjk->...abmik", inv[1], psi[2])
    s += e("...bij,...amjk->...abmik", inv[1], psi[2])
    s += e("...ij,...abmjk->...abmik", inv[0], psi[3])
    return val, p, s


# --- the complex-matrix curvature kernels the coordinate kernels replaced ----


def matrix_curvature(a0, p):
    """F_mn from A (..., d, N, N) and its partials (..., d, d, N, N)."""
    aa = _matmul(a0[..., :, None, :, :], a0[..., None, :, :, :])
    return p - np.swapaxes(p, -4, -3) + aa - np.swapaxes(aa, -4, -3)


def matrix_curvature_and_cov_deriv(field, x):
    """F_mn and nabla_l F_mn (..., d, d, d, N, N) from the field's matrix reads."""
    a0, p, s = (matrix_jet(field, x, k) for k in range(3))
    f = matrix_curvature(a0, p)
    y = s + _matmul(p[..., :, :, None, :, :], a0[..., None, None, :, :, :])
    y += _matmul(a0[..., None, :, None, :, :], p[..., :, None, :, :, :])
    al, fl = a0[..., :, None, None, :, :], f[..., None, :, :, :, :]
    return f, y - np.swapaxes(y, -4, -3) + _matmul(al, fl) - _matmul(fl, al)


def matrix_cov_div_curvature(field, x):
    """(div F)_n (..., d, N, N) from the field's matrix reads, without nabla F."""
    a0, p, s = (matrix_jet(field, x, k) for k in range(3))
    g = p + matrix_curvature(a0, p)
    div_a = np.einsum("...mmij->...ij", p)[..., None, :, :]
    am = a0[..., :, None, :, :]
    out = np.einsum("...mmnij->...nij", s) - np.einsum("...nmmij->...nij", s)
    out += _matmul(div_a, a0) - _matmul(a0, div_a)
    return out + np.sum(_matmul(am, g) - _matmul(g, am), axis=-4)


def einsum_curvature(a0, p):
    """F_mn = d_m A_n - d_n A_m + [A_m, A_n] from A and its partials."""
    aa = np.einsum("...mij,...vjk->...mvik", a0, a0)
    return p - np.swapaxes(p, -4, -3) + aa - np.swapaxes(aa, -4, -3)


def einsum_cov_deriv_curvature(a0, p, s):
    """nabla_l F_mn = d_l F_mn + [A_l, F_mn] from A and its partials, index order (l, m, n)."""
    e = np.einsum
    f = einsum_curvature(a0, p)
    df = s - np.swapaxes(s, -4, -3)
    df += e("...lmij,...vjk->...lmvik", p, a0) - e("...vij,...lmjk->...lmvik", a0, p)
    df += e("...mij,...lvjk->...lmvik", a0, p) - e("...lvij,...mjk->...lmvik", p, a0)
    df += e("...lij,...mvjk->...lmvik", a0, f) - e("...mvij,...ljk->...lmvik", f, a0)
    return df


def cesaro_second_trace_per_curve(evaluate, curve, d, n_modes, eps=1e-3, checkpoints=()):
    """The running means {n: mean} of `levy.cesaro_second_trace`, with `evaluate`
    a map of one curve, called on each perturbed curve in turn."""
    base = evaluate(curve)
    total = None
    means = {}
    for k in range(1, n_modes + 1):
        sk = None
        for axis in range(d):
            x = sine_basis(k, d, axis)
            up = evaluate(perturb(curve, x, eps))
            um = evaluate(perturb(curve, x, -eps))
            dd = (up - 2.0 * base + um) / (eps * eps)
            sk = dd if sk is None else sk + dd
        total = sk if total is None else total + sk
        if k in checkpoints or k == n_modes:
            means[k] = total / k
    return means


# The eleven finite-difference oracles' stencils as written out by hand before
# `field.central_difference` derived them: site -> (deriv, order, the
# expression of h and the values at the stencil's offsets in descending order).
HAND_STENCILS = {
    "run_duhamel": (1, 2, lambda eps, up, um: (up - um) / (2.0 * eps)),
    "run_gradient.first_derivative": (1, 2, lambda eps, up, um: (up - um) / (2.0 * eps)),
    "run_gradient.riesz_gaps": (1, 2, lambda eps, up, um: (up - um) / (2.0 * eps)),
    "run_levy.hessian": ((1, 1), 2, lambda keps, upp, upm, ump, umm:
                         (upp - upm - ump + umm) / (4 * keps * keps)),
    "_functional_gaps.fd1": (1, 4, lambda geps, l2, l1, m1, m2:
                             (-l2 + 8.0 * l1 - 8.0 * m1 + m2) / (12.0 * geps)),
    "_functional_gaps.fd2": (2, 4, lambda heps, l2, l1, l0, m1, m2:
                             (-l2 + 16.0 * l1 - 30.0 * l0 + 16.0 * m1 - m2) / (12.0 * heps * heps)),
    "_functional_gaps.fd_lap": (2, 4, lambda feps, f2, f1, f0, m1, m2:
                                (-f2 + 16.0 * f1 - 30.0 * f0 + 16.0 * m1 - m2)
                                / (12.0 * feps * feps)),
    "levy.cesaro_second_trace": (2, 2, lambda eps, up, base, um:
                                 (up - 2.0 * base + um) / (eps * eps)),
    "run_r_diagnostic": (1, 2, lambda delta, fp, fm: (fp - fm) / (2.0 * delta)),
    "run_theorem.route_ii": (1, 2, lambda delta, u_up, u_dn: (u_up - u_dn) / (2.0 * delta)),
    "run_theorem.ab_rel": (1, 2, lambda dd, u_up, u_dn: (u_up - u_dn) / (2 * dd)),
}
