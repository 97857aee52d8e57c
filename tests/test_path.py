"""Curve library: parametrizations, one-sided velocities, quadrature.

Velocity oracles are central finite differences of the exact `point` maps;
inner-product oracles are hand-computed antiderivatives.
"""

import numpy as np
import pytest

from _oracles import (
    ClosureField,
    ConcatCurve,
    closure_sine_basis,
    closure_vanishing_field,
    h0_inner,
    h1_inner,
)
from gaugeflow.path import (
    Circle,
    CurveSample,
    Line,
    PolyReparam,
    SineReparam,
    TrigCurve,
    curve_integral,
    gauss_legendre,
    make_curve,
    perturb,
    plateau,
    random_field,
    random_vanishing_field,
    reparametrize,
    sine_basis,
    variation_integrals,
)

RNG = np.random.default_rng(515151)


def fd_velocity(curve, t, h=1e-7):
    return (curve.point(t + h) - curve.point(t - h)) / (2.0 * h)


def test_line_exact():
    c = Line([0.1, 0.2], [0.7, -0.3])
    t = np.linspace(0.0, 1.0, 7)
    assert np.allclose(c.point(t), np.outer(1 - t, [0.1, 0.2]) + np.outer(t, [0.7, -0.3]))
    assert np.allclose(c.velocity(t), np.tile([0.6, -0.5], (7, 1)))
    assert c.breakpoints == ()


def test_circle_closed_and_velocity():
    c = Circle([0.5, 0.5], 0.25, turns=2.0, phase=0.3)
    assert np.allclose(c.point(np.array(0.0)), c.point(np.array(1.0)))
    t = np.linspace(0.05, 0.95, 9)
    assert np.max(np.abs(c.velocity(t) - fd_velocity(c, t))) < 1e-6
    # speed is constant: 2 pi * turns * radius
    speed = np.linalg.norm(c.velocity(t), axis=-1)
    assert np.allclose(speed, 2.0 * np.pi * 2.0 * 0.25)


def test_circle_in_higher_dimension():
    c = Circle([0.2, 0.4, 0.6], 0.1, axes=(0, 2))
    pts = c.point(np.linspace(0, 1, 5))
    assert np.allclose(pts[:, 1], 0.4)  # untouched axis stays put


def test_trig_curve_endpoints_and_velocity():
    """TrigCurve interpolates p0 at t=0 and p1 at t=1 exactly (sin(pi k) = 0)."""
    c = TrigCurve.random(RNG, 2, modes=4, amplitude=0.3)
    assert np.max(np.abs(c.point(np.array(0.0)) - c.p0)) < 1e-15
    assert np.max(np.abs(c.point(np.array(1.0)) - c.p1)) < 1e-15
    t = np.linspace(0.1, 0.9, 11)
    assert np.max(np.abs(c.velocity(t) - fd_velocity(c, t))) < 1e-6


def test_trig_curve_closed():
    c = TrigCurve.random(RNG, 3, modes=2, closed=True)
    assert np.allclose(c.point(np.array(0.0)), c.point(np.array(1.0)))


def test_perturbed_curve():
    base = TrigCurve.random(RNG, 2, modes=3)
    x = random_field(RNG, 2)
    eps = 0.05
    c = perturb(base, x, eps)
    t = np.linspace(0.0, 1.0, 9)
    assert np.allclose(c.point(t), base.point(t) + eps * x.value(t))
    assert np.allclose(c.velocity(t), base.velocity(t) + eps * x.deriv(t))


def test_plateau_freezes_the_tail():
    base = TrigCurve.random(RNG, 2, modes=3)
    r = 0.4
    c = plateau(base, r)
    t_after = np.linspace(r, 1.0, 5)
    stop = base.point(np.array(r))
    assert np.allclose(c.point(t_after), np.tile(stop, (5, 1)))
    assert np.allclose(c.velocity(t_after[1:]), 0.0)
    # one-sided limits at the corner
    tr = np.array(r)
    assert np.allclose(c.velocity(tr, side=-1), base.velocity(tr))
    assert np.allclose(c.velocity(tr, side=+1), 0.0)
    assert c.breakpoints == (r,)


def test_plateau_edge_parameters():
    base = Line([0.0, 0.0], [1.0, 1.0])
    assert plateau(base, 0.0).breakpoints == ()
    assert plateau(base, 1.0).breakpoints == ()
    assert np.allclose(plateau(base, 0.0).point(np.array(0.7)), [0.0, 0.0])
    with pytest.raises(ValueError):
        plateau(base, 1.5)


def test_reparam_chain_rule():
    base = TrigCurve.random(RNG, 2, modes=3)
    for phi in (SineReparam(0.6), PolyReparam(1.2)):
        c = reparametrize(base, phi)
        t = np.linspace(0.05, 0.95, 9)
        assert np.allclose(c.point(t), base.point(phi.value(t)))
        assert np.max(np.abs(c.velocity(t) - fd_velocity(c, t))) < 1e-6


def test_reparam_maps_breakpoints():
    """A plateau corner at r must move to phi^{-1}(r) under reparametrization,
    to roundoff, including corners near the ends where phi flattens
    (PolyReparam(1.0) has phi'(0) = phi'(1) = 0)."""
    base = plateau(TrigCurve.random(RNG, 2, modes=2), 0.37)
    phi = SineReparam(0.5)
    c = reparametrize(base, phi)
    (bp,) = c.breakpoints
    assert abs(phi.value(bp) - 0.37) <= 1e-15
    first = plateau(TrigCurve.random(RNG, 2, modes=2), 1e-3)
    end = first.point(np.array(1.0))
    second = plateau(Line(end, end + [0.3, -0.2]), 0.998)
    base = ConcatCurve(first, second)  # corners at 0.0005, 0.5 and 0.999
    assert len(base.breakpoints) == 3
    for phi in (SineReparam(0.7), SineReparam(-0.9), PolyReparam(1.0), PolyReparam(-1.9)):
        bps = reparametrize(base, phi).breakpoints
        assert all(isinstance(b, float) for b in bps)
        assert list(bps) == sorted(bps)
        for b, target in zip(bps, base.breakpoints):
            assert abs(phi.value(b) - target) <= 1e-15


def test_reparam_endpoint_fixing():
    for phi in (SineReparam(0.7), PolyReparam(1.0)):
        assert abs(phi.value(0.0)) < 1e-15
        assert abs(phi.value(1.0) - 1.0) < 1e-15
        t = np.linspace(0.0, 1.0, 101)
        # nonnegative everywhere (PolyReparam(1.0) has phi'(0) = phi'(1) = 0),
        # strictly positive inside
        assert np.all(phi.deriv(t) >= 0.0)
        assert np.all(phi.deriv(t[1:-1]) > 0.0)
        h = 1e-6
        fd = (phi.value(t[1:-1] + h) - phi.value(t[1:-1] - h)) / (2 * h)
        assert np.max(np.abs(phi.deriv(t[1:-1]) - fd)) < 1e-8


def test_reparam_rejects_nonmonotone():
    with pytest.raises(ValueError):
        SineReparam(1.0)
    with pytest.raises(ValueError):
        PolyReparam(2.0)


def test_concat_halves_and_seam():
    a = Line([0.1, 0.2], [0.5, 0.3])
    b = Line([0.5, 0.3], [0.4, 0.8])
    c = ConcatCurve(a, b)
    t = np.linspace(0.0, 0.5, 6)
    assert np.allclose(c.point(t), a.point(2 * t))
    t = np.linspace(0.5, 1.0, 6)
    assert np.allclose(c.point(t), b.point(2 * t - 1))
    # velocities carry the factor 2 from the parameter split
    assert np.allclose(c.velocity(np.array(0.25)), 2 * np.array([0.4, 0.1]))
    half = np.array(0.5)
    assert np.allclose(c.velocity(half, side=-1), 2 * np.array([0.4, 0.1]))
    assert np.allclose(c.velocity(half, side=+1), 2 * np.array([-0.1, 0.5]))
    assert 0.5 in c.breakpoints


def test_concat_rejects_gap():
    a = Line([0.0, 0.0], [0.5, 0.5])
    b = Line([0.6, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        ConcatCurve(a, b)


def test_concat_nested_breakpoints():
    a = plateau(Line([0.0, 0.0], [0.5, 0.5]), 0.5)
    b = Line([0.5 * 0.5, 0.5 * 0.5], [1.0, 1.0])
    c = ConcatCurve(a, b)
    assert c.breakpoints == (0.25, 0.5)


def test_sine_basis_h0_orthonormal():
    """<e_m, e_n>_{G0} = delta_mn: integral of 2 sin(pi m t) sin(pi n t) dt."""
    fields = [sine_basis(n, 2, axis=0) for n in range(1, 5)]
    for i, x in enumerate(fields):
        for j, y in enumerate(fields):
            want = 1.0 if i == j else 0.0
            assert abs(h0_inner(x, y) - want) < 1e-13


def test_sine_basis_h1_norm():
    """<e_n, e_n>_{G1} = 1 + (pi n)^2."""
    for n in (1, 3, 5):
        x = sine_basis(n, 2, axis=1)
        assert abs(h1_inner(x, x) - (1.0 + (np.pi * n) ** 2)) < 1e-10
        assert x.vanishing_ends
        ends = x.value(np.array([0.0, 1.0]))
        assert np.max(np.abs(ends)) < 1e-13


def test_sine_basis_axes_orthogonal():
    x = sine_basis(2, 2, axis=0)
    y = sine_basis(2, 2, axis=1)
    assert abs(h0_inner(x, y)) < 1e-15


def test_random_fields_flags_and_derivs():
    xv = random_vanishing_field(RNG, 2, modes=3)
    assert xv.vanishing_ends
    assert np.max(np.abs(xv.value(np.array([0.0, 1.0])))) < 1e-13
    xf = random_field(RNG, 2, modes=3)
    assert not xf.vanishing_ends
    t = np.linspace(0.1, 0.9, 7)
    h = 1e-6
    for x in (xv, xf):
        fd = (x.value(t + h) - x.value(t - h)) / (2 * h)
        assert np.max(np.abs(x.deriv(t) - fd)) < 1e-7


def test_field_algebra():
    """The closure reference's sum and scalar multiple, which the sine-series
    oracle chains, add values, derivatives and end flags."""
    xf = random_field(RNG, 2)
    x = ClosureField(xf.value, xf.deriv, 2, xf.vanishing_ends)
    y = closure_vanishing_field(RNG, 2)
    z = 2.0 * x + y
    t = np.linspace(0, 1, 5)
    assert np.allclose(z.value(t), 2 * x.value(t) + y.value(t))
    assert np.allclose(z.deriv(t), 2 * x.deriv(t) + y.deriv(t))
    assert not z.vanishing_ends
    assert (y + y).vanishing_ends


SINE_GRID = np.concatenate([gauss_legendre(16)[0], [0.0, 1.0]])


@pytest.mark.parametrize("d", [2, 3])
def test_sine_fields_match_closure_chains_bitwise(d):
    """`sine_basis` and `random_vanishing_field` hold a coefficient table, one
    sine or cosine per mode, and give the bits of the closure chains they
    replaced: on a Gauss grid and at both ends, for modes 1-8 and several seeds."""
    for n in range(1, 9):
        for axis in range(d):
            got, want = sine_basis(n, d, axis), closure_sine_basis(n, d, axis)
            assert np.array_equal(got.value(SINE_GRID), want.value(SINE_GRID))
            assert np.array_equal(got.deriv(SINE_GRID), want.deriv(SINE_GRID))
    for seed in (0, 7, 42):
        for modes in range(1, 9):
            got = random_vanishing_field(np.random.default_rng(seed), d, modes, amplitude=0.8)
            want = closure_vanishing_field(np.random.default_rng(seed), d, modes, amplitude=0.8)
            assert got.vanishing_ends and got.d == d
            assert np.array_equal(got.value(SINE_GRID), want.value(SINE_GRID))
            assert np.array_equal(got.deriv(SINE_GRID), want.deriv(SINE_GRID))


def test_sine_field_edge_cases():
    """No modes is the zero field, which vanishes at the ends; an axis outside
    the d axes is refused."""
    zero = random_vanishing_field(np.random.default_rng(1), 2, modes=0)
    assert zero.vanishing_ends
    assert np.array_equal(zero.value(SINE_GRID), np.zeros((len(SINE_GRID), 2)))
    assert np.array_equal(zero.deriv(SINE_GRID), np.zeros((len(SINE_GRID), 2)))
    with pytest.raises(ValueError, match="axis"):
        sine_basis(1, 2, axis=2)


def test_gauss_legendre_exactness():
    """Composite order-8 rule integrates t^15 exactly; weights sum to 1."""
    t, w = gauss_legendre(4)
    assert abs(np.sum(w) - 1.0) < 1e-14
    for p in (3, 9, 15):
        assert abs(np.dot(w, t**p) - 1.0 / (p + 1)) < 1e-14


def test_curve_integral_closed_form():
    """fn(p) = p_x on the line (0,0)->(1,0): integral of t dt = 1/2."""
    c = Line([0.0, 0.0], [1.0, 0.0])
    val = curve_integral(lambda p: p[..., 0], c)
    assert abs(val - 0.5) < 1e-14
    val = curve_integral(lambda p: np.sin(2 * np.pi * p[..., 0]), c)
    assert abs(val) < 1e-14  # full period of sine integrates to zero


def test_perturbed_jets_and_integrals_match_nested_perturb_bitwise():
    """Terms add in order, so a batch of variations gives the bits of nested
    `perturb` curves, and `variation_integrals` those of `curve_integral`, for
    every batch it is handed."""
    rng = np.random.default_rng(31)
    curve = plateau(TrigCurve.random(rng, 2), 0.625)
    x = random_vanishing_field(rng, 2, modes=3)
    y = random_field(rng, 2, modes=2)
    t = np.linspace(0.0, 1.0, 257)
    variations = [[], [(x, 1e-3)], [(x, -2e-3), (y, 1e-3)], [(y, 1e-3), (x, -2e-3)]]
    curves = [curve, perturb(curve, x, 1e-3), perturb(perturb(curve, x, -2e-3), y, 1e-3),
              perturb(perturb(curve, y, 1e-3), x, -2e-3)]
    sample = CurveSample(curve, t)
    points = sample.perturbed_points(variations)
    velocities = sample.perturbed_velocities(variations)
    for b, c in enumerate(curves):
        assert np.array_equal(points[b], c.point(t))
        assert np.array_equal(velocities[b], c.velocity(t))

    def fn(p):
        return np.cos(2.0 * np.pi * p[..., 0]) * np.sin(2.0 * np.pi * p[..., 1])

    integrals = variation_integrals(fn, curve)
    got = integrals(variations)
    assert got.shape == (4,)
    assert np.array_equal(integrals(variations[::-1]), got[::-1])
    for b, c in enumerate(curves):
        assert got[b] == curve_integral(fn, c)


def test_make_curve_kinds():
    line = make_curve({"kind": "line", "p0": [0, 0], "p1": [1, 1]})
    assert isinstance(line, Line)
    circ = make_curve({"kind": "circle", "center": [0.5, 0.5], "radius": 0.2})
    assert isinstance(circ, Circle)
    f1 = make_curve({"kind": "fourier", "seed": 9, "modes": 3, "amplitude": 0.2})
    f2 = make_curve({"kind": "fourier", "seed": 9, "modes": 3, "amplitude": 0.2})
    t = np.linspace(0, 1, 9)
    assert np.array_equal(f1.point(t), f2.point(t))  # seeded => reproducible
    with pytest.raises(ValueError):
        make_curve({"kind": "zigzag"})

