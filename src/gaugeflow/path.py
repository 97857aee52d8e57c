"""Parametric curves on [0, 1] and vector fields along them.

Curves live in the universal cover R^d; field evaluation wraps them onto
the torus. Every curve exposes exact `point` and `velocity` maps that
broadcast over arrays of parameters, plus `breakpoints`: interior
parameters where the velocity jumps (plateau corners). Integrators align their grids with these so piecewise-smooth
curves lose no order.

`velocity(t, side)` takes one-sided limits at breakpoints: side=+1 is the
limit from above (default), side=-1 from below. Smooth curves ignore it.

A vector field X along a curve (`CurveField`) gives `value` and `deriv` at
parameters t. The H^1_{0,0} fields, `sine_basis` and `random_vanishing_field`,
are one `SineField` each: a (modes, d) coefficient table, one sine or cosine
per mode. A `CurveSample` reads a curve once at fixed parameters and gives
the points and velocities of any batch of its variations gamma + sum eps_i X_i
on them; `variation_integrals` maps such batches to curve integrals on one
sample.
"""

from __future__ import annotations

import functools

import numpy as np


class Curve:
    breakpoints: tuple = ()

    def __init__(self, d):
        self.d = d

    def point(self, t):
        raise NotImplementedError

    def velocity(self, t, side=1):
        raise NotImplementedError


class Line(Curve):
    def __init__(self, p0, p1):
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        super().__init__(len(p0))
        self.p0, self.p1 = p0, p1

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.p0 + t[..., None] * (self.p1 - self.p0)

    def velocity(self, t, side=1):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(self.p1 - self.p0, t.shape + (self.d,)).copy()


class Circle(Curve):
    """Circle of given radius in the (axes[0], axes[1]) coordinate plane."""

    def __init__(self, center, radius, axes=(0, 1), turns=1.0, phase=0.0):
        center = np.asarray(center, dtype=float)
        super().__init__(len(center))
        self.center, self.radius = center, float(radius)
        self.axes, self.turns, self.phase = tuple(axes), float(turns), float(phase)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * self.turns * t + self.phase
        out = np.broadcast_to(self.center, t.shape + (self.d,)).copy()
        out[..., self.axes[0]] += self.radius * np.cos(ang)
        out[..., self.axes[1]] += self.radius * np.sin(ang)
        return out

    def velocity(self, t, side=1):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * self.turns * t + self.phase
        w = 2.0 * np.pi * self.turns * self.radius
        out = np.zeros(t.shape + (self.d,))
        out[..., self.axes[0]] = -w * np.sin(ang)
        out[..., self.axes[1]] = w * np.cos(ang)
        return out


class TrigCurve(Curve):
    """p0 + (p1 - p0) t + sum_k a_k sin(pi k t); exact endpoints p0, p1."""

    def __init__(self, p0, p1, coeffs):
        p0 = np.asarray(p0, dtype=float)
        super().__init__(len(p0))
        self.p0 = p0
        self.p1 = np.asarray(p1, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)  # (K, d)

    @classmethod
    def random(cls, rng, d, modes=3, amplitude=0.2, closed=False):
        p0 = rng.uniform(0.0, 1.0, size=d)
        p1 = p0 if closed else p0 + rng.uniform(-0.5, 0.5, size=d)
        k = np.arange(1, modes + 1)[:, None]
        coeffs = amplitude * rng.standard_normal((modes, d)) / k
        return cls(p0, p1, coeffs)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        k = np.arange(1, len(self.coeffs) + 1)
        s = np.sin(np.pi * t[..., None] * k)  # (..., K)
        return self.p0 + t[..., None] * (self.p1 - self.p0) + s @ self.coeffs

    def velocity(self, t, side=1):
        t = np.asarray(t, dtype=float)
        k = np.arange(1, len(self.coeffs) + 1)
        c = np.pi * k * np.cos(np.pi * t[..., None] * k)
        return (self.p1 - self.p0) + c @ self.coeffs


class PerturbedCurve(Curve):
    """gamma + eps X for a vector field X along gamma."""

    def __init__(self, base, field, eps):
        super().__init__(base.d)
        self.base, self.field, self.eps = base, field, float(eps)
        self.breakpoints = base.breakpoints

    def point(self, t):
        return self.base.point(t) + self.eps * self.field.value(t)

    def velocity(self, t, side=1):
        return self.base.velocity(t, side) + self.eps * self.field.deriv(t)


class PlateauCurve(Curve):
    """Follows gamma up to r, then stands still at gamma(r)."""

    def __init__(self, base, r):
        if not 0.0 <= r <= 1.0:
            raise ValueError("plateau parameter must lie in [0, 1]")
        super().__init__(base.d)
        self.base, self.r = base, float(r)
        bps = tuple(b for b in base.breakpoints if b < r)
        self.breakpoints = bps + ((r,) if 0.0 < r < 1.0 else ())

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.base.point(np.minimum(t, self.r))

    def velocity(self, t, side=1):
        t = np.asarray(t, dtype=float)
        v = self.base.velocity(np.minimum(t, self.r), side)
        live = (t < self.r) | ((t == self.r) & (side < 0))
        return np.where(live[..., None], v, 0.0)


class ReparamCurve(Curve):
    """gamma(phi(t)) for a smooth monotone phi with phi(0)=0, phi(1)=1."""

    def __init__(self, base, phi):
        super().__init__(base.d)
        self.base, self.phi = base, phi
        self.breakpoints = tuple(float(t) for t in _invert_monotone(phi, base.breakpoints))

    def point(self, t):
        return self.base.point(self.phi.value(np.asarray(t, dtype=float)))

    def velocity(self, t, side=1):
        t = np.asarray(t, dtype=float)
        u = self.phi.value(t)
        return self.base.velocity(u, side) * self.phi.deriv(t)[..., None]


def _invert_monotone(phi, targets):
    """t in [0, 1] with phi(t) = target for increasing phi, by bisection.

    Each halving keeps phi(lo) < target <= phi(hi); 64 of them shrink the
    bracket to 2^-64 or to adjacent floats, and the end whose phi lies closer
    to the target is returned.
    """
    target = np.asarray(targets, dtype=float)
    lo, hi = np.zeros_like(target), np.ones_like(target)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = phi.value(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    closer = np.abs(phi.value(lo) - target) < np.abs(phi.value(hi) - target)
    return np.where(closer, lo, hi)


class SineReparam:
    """phi(t) = t - beta sin(2 pi t) / (2 pi); needs |beta| < 1."""

    def __init__(self, beta=0.7):
        if not abs(beta) < 1.0:
            raise ValueError("reparametrization must be strictly monotone")
        self.beta = float(beta)

    def value(self, t):
        return t - self.beta * np.sin(2.0 * np.pi * t) / (2.0 * np.pi)

    def deriv(self, t):
        return 1.0 - self.beta * np.cos(2.0 * np.pi * t)


class PolyReparam:
    """phi(t) = t + alpha t (1 - t) (2 t - 1); monotone for |alpha| < 2."""

    def __init__(self, alpha=1.0):
        if not abs(alpha) < 2.0:
            raise ValueError("reparametrization must be strictly monotone")
        self.alpha = float(alpha)

    def value(self, t):
        return t + self.alpha * t * (1.0 - t) * (2.0 * t - 1.0)

    def deriv(self, t):
        return 1.0 + self.alpha * (-6.0 * t * t + 6.0 * t - 1.0)


def perturb(curve, field, eps):
    return PerturbedCurve(curve, field, eps)


def _vary(base, variations, jet):
    """base (T, d) plus each variation's terms eps jet(X) in order, (B, T, d); each X read once."""
    read = {}
    out = []
    for terms in variations:
        value = base
        for x, eps in terms:
            if id(x) not in read:
                read[id(x)] = jet(x)
            value = value + float(eps) * read[id(x)]
        out.append(value)
    return np.stack(out)


class CurveSample:
    """A curve read once at parameters t, and its variations gamma + sum_i eps_i X_i
    on the same t.

    A variation is a sequence of (X, eps) terms, added in order, so
    [(X, ex), (Y, ey)] gives the bits of perturb(perturb(curve, X, ex), Y, ey)
    and [] those of the curve itself. The curve's points and velocities are
    read on first use, and every batch of variations reuses them.
    """

    def __init__(self, curve, t):
        self.curve, self.t = curve, t

    @functools.cached_property
    def points(self):
        return self.curve.point(self.t)

    @functools.cached_property
    def velocities(self):
        return self.curve.velocity(self.t)

    def perturbed_points(self, variations):
        """Points of each variation, shape (B, T, d)."""
        return _vary(self.points, variations, lambda x: x.value(self.t))

    def perturbed_velocities(self, variations):
        """Velocities of each variation, shape (B, T, d)."""
        return _vary(self.velocities, variations, lambda x: x.deriv(self.t))


def plateau(curve, r):
    return PlateauCurve(curve, r)


def reparametrize(curve, phi):
    return ReparamCurve(curve, phi)


# ---------------------------------------------------------------------------
# vector fields along a curve


class CurveField:
    """Vector field t -> X(t) in R^d along a curve, with exact derivative `deriv`.

    `vanishing_ends` flags membership in H^1_{0,0} (X(0) = X(1) = 0).
    """

    d: int
    vanishing_ends: bool

    def value(self, t):
        raise NotImplementedError

    def deriv(self, t):
        raise NotImplementedError


_ROOT2 = np.sqrt(2.0)


class SineField(CurveField):
    """sum_n c_n sqrt(2) sin(pi n t) over the modes n with coefficient rows c_n in R^d.

    Every such field vanishes at both ends. `value` takes one sine and `deriv`
    one cosine per mode, and each component sums its modes in order, as
    c_n (sqrt(2) sin(pi n t)) and c_n ((sqrt(2) pi n) cos(pi n t)).
    """

    vanishing_ends = True

    def __init__(self, modes, coeffs):
        self.modes = np.asarray(modes, dtype=int)
        self.coeffs = np.asarray(coeffs, dtype=float)  # (len(modes), d)
        self.d = self.coeffs.shape[1]

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (self.d,))
        for n, c in zip(self.modes, self.coeffs):
            out += c * (_ROOT2 * np.sin(np.pi * n * t))[..., None]
        return out

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (self.d,))
        for n, c in zip(self.modes, self.coeffs):
            w = np.pi * n
            out += c * (_ROOT2 * w * np.cos(w * t))[..., None]
        return out


def sine_basis(n, d, axis=0):
    """e_n(t) e_axis with e_n(t) = sqrt(2) sin(pi n t); H^1_{0,0} basis."""
    if axis not in range(d):
        raise ValueError(f"axis {axis} is not one of the {d} axes")
    unit = np.zeros((1, d))
    unit[0, axis] = 1.0
    return SineField([n], unit)


class TrigField(CurveField):
    """Per-component a + b t + sum_k (c_k cos(pi k t) + s_k sin(pi k t))."""

    def __init__(self, a, b, cos_coeffs, sin_coeffs):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)  # (K, d)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=float)
        self.d = len(self.a)
        self._k = np.arange(1, len(self.cos_coeffs) + 1)
        self.vanishing_ends = np.max(np.abs(self.value(np.array([0.0, 1.0])))) < 1e-15

    def value(self, t):
        t = np.asarray(t, dtype=float)
        ang = np.pi * t[..., None] * self._k
        out = self.a + t[..., None] * self.b
        out = out + np.cos(ang) @ self.cos_coeffs
        return out + np.sin(ang) @ self.sin_coeffs

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        ang = np.pi * t[..., None] * self._k
        out = np.broadcast_to(self.b, t.shape + (self.d,)).astype(float).copy()
        out -= (np.pi * self._k * np.sin(ang)) @ self.cos_coeffs
        return out + (np.pi * self._k * np.cos(ang)) @ self.sin_coeffs


def random_vanishing_field(rng, d, modes=4, amplitude=1.0):
    """Random H^1_{0,0} field: seeded sine series, zero at both ends."""
    k = np.arange(1, modes + 1)
    return SineField(k, amplitude * rng.standard_normal((modes, d)) / k[:, None])


def random_field(rng, d, modes=3, amplitude=1.0):
    """Random field with generically nonzero endpoint values."""
    a = amplitude * rng.standard_normal(d)
    b = amplitude * rng.standard_normal(d)
    k = np.arange(1, modes + 1)[:, None]
    cos_c = amplitude * rng.standard_normal((modes, d)) / k
    sin_c = amplitude * rng.standard_normal((modes, d)) / k
    return TrigField(a, b, cos_c, sin_c)


# ---------------------------------------------------------------------------
# quadrature on [0, 1]


@functools.lru_cache(maxsize=None)
def gauss_legendre(panels, order=8):
    """Composite Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 / panels
    nodes = (edges[:-1, None] + half * (x + 1.0)).ravel()
    weights = np.tile(half * w, panels)
    return nodes, weights


def curve_integral(fn, curve, panels=256):
    """integral of fn(gamma(t)) dt for a scalar function on the torus."""
    t, w = gauss_legendre(panels)
    return float(np.einsum("t,t->", fn(curve.point(t)), w))


def variation_integrals(fn, curve, panels=256):
    """The map from a batch of variations (`CurveSample`) to `curve_integral` along
    each of their curves, shape (B,), on one sample of the curve for every batch.

    fn runs once over a batch's stacked points (B, T, d), and each sum is taken
    as `curve_integral` takes it, so where fn gives a curve's points the same
    bits alone and in the stack (`ScalarFourier.value` does), so do the sums.
    """
    t, w = gauss_legendre(panels)
    sample = CurveSample(curve, t)
    return lambda variations: np.array(
        [np.einsum("t,t->", f, w) for f in fn(sample.perturbed_points(variations))])


# ---------------------------------------------------------------------------
# named curve library


def make_curve(spec, d=2):
    """Build a curve from a JSON-style dict, e.g.

    {"kind": "fourier", "seed": 7, "modes": 3, "amplitude": 0.2}
    """
    kind = spec.get("kind")
    params = {key: value for key, value in spec.items() if key not in ("kind", "seed")}
    if kind == "line":
        return Line(**params)
    if kind == "circle":
        return Circle(**params)
    if kind == "fourier":
        rng = np.random.default_rng(np.random.SeedSequence(spec["seed"]))
        return TrigCurve.random(rng, d, **params)
    raise ValueError(f"unknown curve kind {kind!r}")
