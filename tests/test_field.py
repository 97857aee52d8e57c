"""Gauge-field representations, curvature, and the action functional.

Finite-difference oracles: every exact derivative in the interface is
checked against central differences of the corresponding lower-order map.
The action oracle re-integrates the analytic curvature on an independent
dense grid (96^2, well above the Nyquist rate of the kmax=2 test field).
"""

import functools
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    HAND_STENCILS,
    analytic_mode_sum,
    bianchi_residual,
    commutator,
    einsum_cov_deriv_curvature,
    einsum_curvature,
    einsum_gauge_map_derivs,
    einsum_transformed,
    gauge_map_value,
    lie_defect,
    load_field,
    matrix_cov_div_curvature,
    matrix_curvature_and_cov_deriv,
    matrix_jet,
    stacked_spline_table,
)
import gaugeflow
from gaugeflow.algebra import dagger, group_defect, lie_matrix, maxabs
from gaugeflow.experiments import rng_for
from gaugeflow.field import (
    AnalyticField,
    GaugeMap,
    LatticeField,
    ScalarFourier,
    Torus,
    GaugeField,
    TransformedField,
    _curvature_and_cov_deriv,
    _gather_block,
    _jet_keys,
    _trig,
    central_difference,
    central_weights,
    cov_deriv_curvature,
    cov_div_curvature,
    curvature,
    lattice_curvature_grid,
    make_field,
    save_field,
    stencil_d1,
    ym_action,
)

RNG = np.random.default_rng(777)


def random_points(rng, torus, shape=(7,)):
    return rng.uniform(0.0, torus.L, size=shape + (torus.d,))


# ---------------------------------------------------------------------------
# torus


def test_torus_validation():
    t = Torus(2, 1.0)
    assert t.volume == 1.0
    assert Torus(3, 2.0).volume == 8.0
    with pytest.raises(ValueError):
        Torus(4, 1.0)
    with pytest.raises(ValueError):
        Torus(2, 0.0)
    assert Torus.from_dict(t.to_dict()) == t
    assert t != Torus(3, 1.0)


# ---------------------------------------------------------------------------
# scalar Fourier functions


def test_scalar_fourier_derivatives():
    """grad/hess/third/laplacian vs central differences of value; `jets` gives
    value, grad and hess bit for bit whatever order it is asked for."""
    torus = Torus(2, 1.0)
    f = ScalarFourier.random(RNG, torus, modes=3, amplitude=1.0, kmax=2)
    x = random_points(RNG, torus, (5,))
    h = 1e-6
    eye = np.eye(2)
    for a in range(2):
        fd = (f.value(x + h * eye[a]) - f.value(x - h * eye[a])) / (2 * h)
        assert np.max(np.abs(f.grad(x)[:, a] - fd)) < 1e-7
        fd = (f.grad(x + h * eye[a]) - f.grad(x - h * eye[a])) / (2 * h)
        assert np.max(np.abs(f.hess(x)[:, a] - fd)) < 1e-6
        fd = (f.hess(x + h * eye[a]) - f.hess(x - h * eye[a])) / (2 * h)
        assert np.max(np.abs(f.jets(x, 3)[3][:, a] - fd)) < 1e-4
    jets = f.jets(x, 3)
    for order in range(3):
        assert all(np.array_equal(a, b) for a, b in zip(f.jets(x, order), jets))
    for got, want in zip(jets, (f.value(x), f.grad(x), f.hess(x))):
        assert np.array_equal(got, want)
    lap = np.trace(f.hess(x), axis1=-2, axis2=-1)
    assert np.max(np.abs(f.laplacian(x) - lap)) < 1e-12


def test_scalar_fourier_heat_closed_form():
    """heat(s) damps each mode by exp(-(2 pi |k| / L)^2 s); ds is its s-derivative."""
    torus = Torus(2, 1.0)
    f = ScalarFourier.random(RNG, torus, modes=3, amplitude=1.0, kmax=2)
    s = 0.013
    x = random_points(RNG, torus, (6,))
    fs = f.heat(s)
    # d_s f = Laplace f, checked by finite differences in s
    ds = 1e-6
    fd = (f.heat(s + ds).value(x) - f.heat(s - ds).value(x)) / (2 * ds)
    assert np.max(np.abs(fd - fs.laplacian(x))) < 1e-6
    assert np.max(np.abs(fd - f.ds(s).value(x))) < 1e-6
    # rates are (2 pi |k| / L)^2
    want = np.sum((2 * np.pi * f.kvecs / torus.L) ** 2, axis=1)
    assert np.allclose(f.decay_rates(), want)
    # heat flow fixes constants
    g = ScalarFourier(torus, [], [], [], const=0.75)
    assert np.allclose(g.heat(5.0).value(x), 0.75)
    assert np.allclose(g.ds(0.1).value(x), 0.0)


# ---------------------------------------------------------------------------
# analytic fields


def test_analytic_field_shapes_and_zero():
    torus = Torus(3, 1.0)
    z = AnalyticField.zero(torus, 2)
    x = random_points(RNG, torus, (4, 5))
    assert matrix_jet(z, x, 0).shape == (4, 5, 3, 2, 2)
    assert matrix_jet(z, x, 1).shape == (4, 5, 3, 3, 2, 2)
    assert matrix_jet(z, x, 2).shape == (4, 5, 3, 3, 3, 2, 2)
    assert maxabs(matrix_jet(z, x, 0)) == 0.0


def test_analytic_field_derivatives_vs_fd(torus2, su2_field):
    """The first and second derivative matrices vs central differences of the values."""
    x = random_points(RNG, torus2, (6,))
    h = 1e-6
    eye = np.eye(2)
    p = matrix_jet(su2_field, x, 1)
    s = matrix_jet(su2_field, x, 2)
    for a in range(2):
        fd = (matrix_jet(su2_field, x + h * eye[a], 0)
              - matrix_jet(su2_field, x - h * eye[a], 0)) / (2 * h)
        assert maxabs(p[:, a] - fd) < 1e-7
        fd2 = (
            matrix_jet(su2_field, x + h * eye[a], 1) - matrix_jet(su2_field, x - h * eye[a], 1)
        ) / (2 * h)
        assert maxabs(s[:, a] - fd2) < 1e-6
    # mixed partials commute
    assert maxabs(s - np.swapaxes(s, 1, 2)) < 1e-13


def test_analytic_field_periodicity(torus2, su2_field):
    x = random_points(RNG, torus2, (5,))
    shift = np.array([torus2.L, 0.0])
    assert maxabs(matrix_jet(su2_field, x, 0) - matrix_jet(su2_field, x + shift, 0)) < 1e-12


def test_random_su_lands_in_lie_algebra(torus2, su2_field):
    x = random_points(RNG, torus2, (5,))
    assert lie_defect(matrix_jet(su2_field, x, 0)) < 1e-13
    assert lie_defect(su2_field.coeffs) < 1e-13


def test_random_abelian_commutes(torus2):
    fld = AnalyticField.random_abelian(RNG, torus2, modes=4, kmax=2)
    x = random_points(RNG, torus2, (6,))
    a = matrix_jet(fld, x, 0)
    assert maxabs(commutator(a[..., 0, :, :], a[..., 1, :, :])) < 1e-14
    for i in range(len(fld.coeffs)):
        for j in range(len(fld.coeffs)):
            assert maxabs(commutator(fld.coeffs[i], fld.coeffs[j])) < 1e-14


def test_random_abelian_draws_every_mode():
    """A zero wave vector is redrawn, never skipped: `modes` modes at every seed,
    also where kmax 1 draws the zero vector first (seed 0 at modes 1 did)."""
    for d in (2, 3):
        torus = Torus(d, 1.0)
        for modes in (1, 3):
            for seed in range(50):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                fld = AnalyticField.random_abelian(rng, torus, modes=modes, kmax=1)
                assert len(fld.kvecs) == len(fld.mus) == len(fld.coeffs) == modes
                assert np.all(np.any(fld.kvecs != 0, axis=1))


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_analytic_field_matches_mode_sum(d, n):
    """The matrices of each order (one coordinate product each) vs the
    plain per-mode matrix sum, to 1e-15 relative; the zero field gives zeros."""
    torus = Torus(d, 1.0)
    rng = rng_for(10 * d + n, "unit/mode-sum")
    x = random_points(rng, torus, (6, 5))
    for fld in (AnalyticField.random_su(rng, torus, n=n, modes=3, amplitude=0.5, kmax=2),
                AnalyticField.random_abelian(rng, torus, n=n, modes=4, kmax=2),
                AnalyticField.zero(torus, n)):
        for order in range(3):
            got, want = matrix_jet(fld, x, order), analytic_mode_sum(fld, x, order)
            assert got.shape == want.shape == (6, 5) + (d,) * (order + 1) + (n, n)
            assert maxabs(got - want) <= 1e-15 * maxabs(want)


def test_analytic_field_refuses_non_su_coefficients(torus2, su2_field):
    """A coefficient with a Hermitian or trace part raises, built directly or read back."""
    for bad in (1e-6 * np.eye(2), 1e-3j * np.eye(2), 1e-4 * np.array([[0, 1], [1, 0]])):
        coeffs = su2_field.coeffs.copy()
        coeffs[1] += bad
        with pytest.raises(ValueError, match="non-su"):
            AnalyticField(torus2, 2, su2_field.kvecs, su2_field.mus, coeffs, su2_field.phases)
        spec = su2_field.to_dict()
        spec["modes"][1]["re"] = (np.real(coeffs[1])).tolist()
        spec["modes"][1]["im"] = (np.imag(coeffs[1])).tolist()
        with pytest.raises(ValueError, match="non-su"):
            AnalyticField.from_dict(spec)


def test_trig_matches_where_formula_bitwise():
    """`_trig` takes cos only of cos modes and sin only of sin modes, and
    gives the same bits as taking both everywhere and selecting."""
    torus = Torus(2, 1.0)
    fld = AnalyticField.random_su(RNG, torus, n=2, modes=5, kmax=3)
    x = random_points(RNG, torus, (40, 3))
    ang = x @ fld._w.T
    iscos = fld.phases == 0
    assert 0 < np.sum(iscos) < len(iscos)
    for order in range(4):
        if order % 2:
            want = np.where(iscos, -np.sin(ang), np.cos(ang))
        else:
            want = np.where(iscos, np.cos(ang), np.sin(ang))
        want = -want if order >= 2 else want
        assert np.array_equal(_trig(x, fld._w, fld.phases, order), want), order


@pytest.mark.parametrize("n", [2, 3])
def test_analytic_generator_matches_default(torus2, n):
    """AnalyticField's one real product for the coordinates of A_mu(x) v^mu
    agrees with the interface default (the order-0 jet contracted with v) to
    1e-15."""
    fld = AnalyticField.random_su(RNG, torus2, n=n, modes=3, amplitude=0.5, kmax=2)
    x = random_points(RNG, torus2, (9, 4))
    v = RNG.standard_normal((9, 4, 2))
    got = fld.generator(x, v)
    want = GaugeField.generator(fld, x, v)
    assert got.shape == want.shape == (9, 4, n * n - 1)
    assert maxabs(got - want) <= 1e-15 * maxabs(want)
    zero = AnalyticField.zero(torus2, n)
    assert np.array_equal(zero.generator(x, v), np.zeros((9, 4, n * n - 1)))


def test_analytic_round_trip(torus2, su2_field):
    clone = AnalyticField.from_dict(su2_field.to_dict())
    x = random_points(RNG, torus2, (5,))
    assert maxabs(matrix_jet(clone, x, 0) - matrix_jet(su2_field, x, 0)) < 1e-15
    assert clone.kmax == su2_field.kmax == 2


# ---------------------------------------------------------------------------
# curvature and covariant derivatives


def test_curvature_vs_fd(torus2, su2_field):
    """F_mn = d_m A_n - d_n A_m + [A_m, A_n] assembled from FD partials."""
    x = random_points(RNG, torus2, (5,))
    f = lie_matrix(curvature(su2_field, x))
    assert maxabs(f + np.swapaxes(f, -4, -3)) < 1e-13  # antisymmetry
    h = 1e-6
    eye = np.eye(2)
    a0 = matrix_jet(su2_field, x, 0)
    for m in range(2):
        for n in range(2):
            dm_an = (
                matrix_jet(su2_field, x + h * eye[m], 0) - matrix_jet(su2_field, x - h * eye[m], 0)
            )[:, n] / (2 * h)
            dn_am = (
                matrix_jet(su2_field, x + h * eye[n], 0) - matrix_jet(su2_field, x - h * eye[n], 0)
            )[:, m] / (2 * h)
            want = dm_an - dn_am + commutator(a0[:, m], a0[:, n])
            assert maxabs(f[:, m, n] - want) < 1e-7


def test_curvature_abelian_drops_commutator(torus2):
    fld = AnalyticField.random_abelian(RNG, torus2, modes=3, kmax=2)
    x = random_points(RNG, torus2, (5,))
    p = matrix_jet(fld, x, 1)
    want = p - np.swapaxes(p, -4, -3)
    assert maxabs(lie_matrix(curvature(fld, x)) - want) < 1e-14


def test_cov_deriv_curvature_vs_fd(torus2, su2_field):
    """nabla_l F_mn = d_l F_mn + [A_l, F_mn] with d_l F by central FD."""
    x = random_points(RNG, torus2, (4,))
    df = lie_matrix(cov_deriv_curvature(su2_field, x))
    h = 1e-6
    eye = np.eye(2)
    a0 = matrix_jet(su2_field, x, 0)
    f = lambda y: lie_matrix(curvature(su2_field, y))
    f0 = f(x)
    for l in range(2):
        fd = (f(x + h * eye[l]) - f(x - h * eye[l])) / (2 * h)
        want = fd + commutator(a0[:, l, None, None], f0)
        assert maxabs(df[:, l] - want) < 1e-6


def test_cov_div_is_trace_of_cov_deriv(torus2, su2_field):
    x = random_points(RNG, torus2, (4,))
    df = cov_deriv_curvature(su2_field, x)
    want = df[:, 0, 0] + df[:, 1, 1]
    assert maxabs(cov_div_curvature(su2_field, x) - want) < 1e-14


def test_bianchi_identity(torus2, su2_field):
    """Cyclic sum of nabla F vanishes identically for exact derivatives."""
    x = random_points(RNG, torus2, (16,))
    assert bianchi_residual(su2_field, x) < 1e-10


def test_bianchi_identity_su3():
    torus = Torus(2, 1.0)
    fld = AnalyticField.random_su(RNG, torus, n=3, modes=2, amplitude=0.3, kmax=2)
    x = random_points(RNG, torus, (8,))
    assert bianchi_residual(fld, x) < 1e-10


# ---------------------------------------------------------------------------
# gauge maps and gauge covariance


def gauge_map(torus, seed_label="unit/gauge"):
    return GaugeMap.random(
        rng_for(7, seed_label), torus, n=2, factors=2, modes=2, amplitude=0.6, kmax=1
    )


def test_gauge_map_is_special_unitary(torus2):
    psi = gauge_map(torus2)
    x = random_points(RNG, torus2, (6,))
    assert group_defect(gauge_map_value(psi, x)) < 1e-12


def test_gauge_map_derivs_vs_fd(torus2):
    """The einsum oracle's derivative tensors of psi, which the transformed
    field's oracle builds on, vs central differences of psi."""
    psi = gauge_map(torus2)
    x = random_points(RNG, torus2, (4,))
    d0, d1, d2, d3 = einsum_gauge_map_derivs(psi, x)
    assert maxabs(d0 - gauge_map_value(psi, x)) < 1e-14
    h = 1e-5
    eye = np.eye(2)
    for a in range(2):
        up, dn = (einsum_gauge_map_derivs(psi, x + s * h * eye[a]) for s in (1, -1))
        for k, want in enumerate((d1, d2, d3)):
            fd = (up[k] - dn[k]) / (2 * h)
            assert maxabs(want[:, a] - fd) < (1e-8, 1e-7, 1e-6)[k]


def test_gauge_map_empty_is_identity(torus2, su2_field):
    """A gauge map with no factors transforms nothing: the field's jets bit for bit."""
    fld = TransformedField(su2_field, GaugeMap(torus2, 2, []))
    x = random_points(RNG, torus2, (3, 2))
    for got, want in zip(fld.coord_jets(x), su2_field.coord_jets(x), strict=True):
        assert np.array_equal(got, want)


def test_transformed_field_derivatives_vs_fd(torus2, su2_field):
    """The exact chain-rule tensors of psi^-1 A psi + psi^-1 d psi vs FD."""
    fld = TransformedField(su2_field, gauge_map(torus2))
    x = random_points(RNG, torus2, (3,))
    h = 1e-5
    eye = np.eye(2)
    p = matrix_jet(fld, x, 1)
    s = matrix_jet(fld, x, 2)
    for a in range(2):
        fd = (matrix_jet(fld, x + h * eye[a], 0) - matrix_jet(fld, x - h * eye[a], 0)) / (2 * h)
        assert maxabs(p[:, a] - fd) < 1e-7
        fd2 = (matrix_jet(fld, x + h * eye[a], 1) - matrix_jet(fld, x - h * eye[a], 1)) / (2 * h)
        assert maxabs(s[:, a] - fd2) < 1e-6


def test_lattice_second_all_is_the_order_two_jet_bitwise(torus2, su2_field):
    """`LatticeField.second_all`, which reads the second-derivative table alone,
    gives the matrices of entry 2 of `coord_jets` bit for bit, over more than
    one gather block."""
    lat = LatticeField.sample(su2_field, 16)
    x = random_points(RNG, torus2, (60, 12))
    assert x[..., 0].size > _gather_block(2, len(_jet_keys(2)[0][2]) * 2 * 3)
    assert np.array_equal(lat.second_all(x), matrix_jet(lat, x, 2))


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_transformed_coord_jets_match_einsum_oracle(d, n):
    """The gauge transform in su(N) coordinates, one rotation Ad(e_j^-1) per
    factor, vs the term-by-term matrix contractions, on a zero and a random
    base field, to 1e-13 of the largest entry; each entry's bits do not depend
    on `order`."""
    torus = Torus(d, 1.0)
    rng = rng_for(10 * d + n, "unit/coordinate-transform")
    psi = GaugeMap.random(rng, torus, n=n, factors=3, modes=2, amplitude=0.6, kmax=1)
    x = random_points(rng, torus, (5, 3))
    for base in (AnalyticField.zero(torus, n),
                 AnalyticField.random_su(rng, torus, n=n, modes=2, amplitude=0.3, kmax=2)):
        fld = TransformedField(base, psi)
        full = fld.coord_jets(x)
        for k, (got, want) in enumerate(zip(full, einsum_transformed(fld, x), strict=True)):
            assert got.shape == (5, 3) + (d,) * (k + 1) + (n * n - 1,)
            assert maxabs(lie_matrix(got) - want) <= 1e-13 * maxabs(want)
        for order in range(2):
            jets = fld.coord_jets(x, order)
            assert len(jets) == order + 1
            assert all(np.array_equal(got, want) for got, want in zip(jets, full))


def test_curvature_gauge_covariance(torus2, su2_field):
    """F^psi = psi^-1 F psi pointwise, and the same for nabla F and div F."""
    psi = gauge_map(torus2)
    fld = TransformedField(su2_field, psi)
    x = random_points(RNG, torus2, (4,))
    u = gauge_map_value(psi, x)
    ud = dagger(u)
    conj = lambda t: np.einsum("...ij,...jk,...kl->...il", ud[:, None, None], t, u[:, None, None])
    f = lambda field: lie_matrix(curvature(field, x))
    assert maxabs(f(fld) - conj(f(su2_field))) < 1e-11
    dv = lie_matrix(cov_div_curvature(su2_field, x))
    got = lie_matrix(cov_div_curvature(fld, x))
    want = np.einsum("...ij,...mjk,...kl->...mil", ud, dv, u)
    assert maxabs(got - want) < 1e-10


def test_pure_gauge_is_flat(torus2):
    fld = TransformedField(AnalyticField.zero(torus2, 2), gauge_map(torus2))
    x = random_points(RNG, torus2, (6,))
    assert maxabs(lie_matrix(curvature(fld, x))) < 1e-11
    assert abs(ym_action(fld, samples=48)) < 1e-11


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_kernels_match_einsum_oracles(d, n):
    """Transformed-field and curvature tensors vs explicit contractions."""
    torus = Torus(d, 1.0)
    rng = rng_for(10 * d + n, "unit/einsum-oracle")
    psi = GaugeMap.random(rng, torus, n=n, factors=3, modes=2, amplitude=0.6, kmax=1)
    base = AnalyticField.random_su(rng, torus, n=n, modes=2, amplitude=0.3, kmax=2)
    x = random_points(rng, torus, (5,))

    def close(got, want):
        assert maxabs(got - want) <= 1e-13 * maxabs(want)

    fld = TransformedField(base, psi)
    want = einsum_transformed(fld, x)
    for k, w in enumerate(want):
        close(matrix_jet(fld, x, k), w)
    plain = [matrix_jet(base, x, k) for k in range(3)]
    for field, (a0, p, s) in ((fld, want), (base, plain)):
        df = einsum_cov_deriv_curvature(a0, p, s)
        close(lie_matrix(curvature(field, x)), einsum_curvature(a0, p))
        close(lie_matrix(cov_deriv_curvature(field, x)), df)
        close(lie_matrix(cov_div_curvature(field, x)), np.einsum("...mmvij->...vij", df))
        # one evaluation serves both tensors, bit for bit
        f_both, df_both = _curvature_and_cov_deriv(field, x)
        assert np.array_equal(f_both, curvature(field, x))
        assert np.array_equal(df_both, cov_deriv_curvature(field, x))


def _three_kinds(torus, n, label):
    """An analytic field, its 16^d lattice sample and a gauge transform of it."""
    rng = rng_for(n, label)
    base = AnalyticField.random_su(rng, torus, n=n, modes=2, amplitude=0.3, kmax=2)
    return base, LatticeField.sample(base, 16), TransformedField(base, GaugeMap.random(rng, torus, n=n))


@pytest.mark.parametrize("n", [2, 3])
def test_coordinate_curvature_matches_matrix_kernels(torus2, n):
    """F, nabla F and div F in su(N) coordinates, over several point blocks, vs
    the complex-matrix kernels they replaced, to 1e-14 of the largest terms
    each kernel sums: the gauge transform's F is ~1% of its terms."""
    x = random_points(rng_for(n, "unit/coordinate-curvature/x"), torus2, (60, 12))
    assert x[..., 0].size > _gather_block(2, len(_jet_keys(2)[0][2]) * 2 * (n * n - 1))
    for fld in _three_kinds(torus2, n, "unit/coordinate-curvature"):
        a, p, s = (maxabs(jet) for jet in fld.coord_jets(x))
        f, df = matrix_curvature_and_cov_deriv(fld, x)
        div = matrix_cov_div_curvature(fld, x)
        for got, want, terms in ((curvature(fld, x), f, p + a * a),
                                 (cov_deriv_curvature(fld, x), df, s + a * (p + a * a)),
                                 (cov_div_curvature(fld, x), div, s + a * (p + a * a))):
            assert got.shape == want.shape[:-2] + (n * n - 1,)
            assert maxabs(lie_matrix(got) - want) <= 1e-14 * terms, type(fld).__name__


@pytest.mark.parametrize("n", [2, 3])
def test_coord_jets_entries_do_not_depend_on_order(torus2, n):
    """Entry k of `coord_jets(x, order)` has its shape and the same bits for
    every order >= k, for each kind of field."""
    x = random_points(rng_for(n, "unit/coord-jets/x"), torus2, (5, 3))
    for fld in _three_kinds(torus2, n, "unit/coord-jets"):
        full = fld.coord_jets(x)
        for k, jet in enumerate(full):
            assert jet.shape == (5, 3) + (2,) * (k + 1) + (n * n - 1,)
        for order in range(3):
            jets = fld.coord_jets(x, order)
            assert len(jets) == order + 1
            assert all(np.array_equal(got, want) for got, want in zip(jets, full))


def test_coord_jets_refuse_non_su_matrices(torus2):
    """A field held as matrices with a Hermitian part raises ValueError in
    `coord_jets`, and so does sampling it on a lattice."""
    theta = ScalarFourier.random(rng_for(0, "unit/non-su"), torus2, modes=2, kmax=1)
    hermitian = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    fld = TransformedField(AnalyticField.zero(torus2, 2), GaugeMap(torus2, 2, [(theta, hermitian)]))
    with pytest.raises(ValueError, match="non-su"):
        fld.coord_jets(random_points(RNG, torus2, (3,)), 0)
    with pytest.raises(ValueError, match="non-su"):
        LatticeField.sample(fld, 8)


def test_gauge_rank_mismatch():
    torus = Torus(2, 1.0)
    fld3 = AnalyticField.zero(torus, 3)
    with pytest.raises(ValueError):
        TransformedField(fld3, gauge_map(torus))


# ---------------------------------------------------------------------------
# lattice representation


def test_lattice_exact_at_nodes(torus2, su2_field):
    lat = LatticeField.sample(su2_field, 32)
    axes = [np.arange(32) / 32.0] * 2
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    assert maxabs(lat.values - matrix_jet(su2_field, pts, 0)) < 1e-15
    # spline interpolation reproduces the stored node values
    assert maxabs(matrix_jet(lat, pts, 0) - lat.values) < 1e-12


def _scipy_spline_read(lat, key, x):
    """scipy.ndimage periodic cubic spline of one grid of `lat` at points x."""
    from scipy.ndimage import map_coordinates, spline_filter

    arr = lat._grid(key)  # su_basis coordinates (d, K, *sites)
    d = lat.torus.d
    flat = arr.reshape((-1,) + arr.shape[-d:])
    coords = (x.reshape(-1, d) / lat.a).T

    def read(part):
        coeff = spline_filter(np.ascontiguousarray(part), order=3, mode="grid-wrap")
        return map_coordinates(coeff, coords, order=3, mode="grid-wrap", prefilter=False)

    out = np.stack([read(c) for c in flat], -1)
    return lie_matrix(out.reshape(x.shape[:-1] + arr.shape[:2]))


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_lattice_spline_matches_scipy(d, n):
    """FFT prefilter and 4^d-tap gather vs scipy.ndimage `spline_filter` and
    `map_coordinates` (grid-wrap) for values, first and second derivatives,
    at sites, at 0, at L, and outside [0, L)."""
    torus = Torus(d, 1.0)
    rng = np.random.default_rng(40 + 10 * d + n)
    lat = LatticeField.sample(AnalyticField.random_su(rng, torus, n=n, amplitude=0.3), 12)
    sites = np.arange(5)[:, None] * lat.a * np.ones(d)
    edges = np.array([np.zeros(d), np.full(d, torus.L), np.full(d, -lat.a), np.full(d, 1.5)])
    x = np.concatenate([sites, edges, rng.uniform(-1.0, 2.0, size=(21, d))]).reshape(3, 10, d)
    read = functools.partial(_scipy_spline_read, lat, x=x)
    refs = [
        read("val"),
        np.stack([read(("d", a)) for a in range(d)], axis=-4),
        np.stack([np.stack([read(("dd", min(a, b), max(a, b))) for b in range(d)], axis=-4)
                  for a in range(d)], axis=-5),
    ]
    for k, ref in enumerate(refs):
        got = matrix_jet(lat, x, k)
        assert got.shape == ref.shape, k
        assert maxabs(got - ref) < 1e-14 * max(1.0, maxabs(ref)), k


@pytest.mark.parametrize("d", [2, 3])
def test_lattice_blocked_read_equals_one_block(monkeypatch, d):
    """A gather over many point blocks, the last one short, gives the bits of
    one block over all the points, for every order in one pass."""
    torus = Torus(d, 1.0)
    rng = rng_for(d, "unit/blocked-read")
    lat = LatticeField.sample(AnalyticField.random_su(rng, torus, n=2, amplitude=0.3), 8)
    x = random_points(rng, torus, (11, 3))
    keysets = _jet_keys(d)[0]
    widest = len(keysets[2]) * d * 3
    assert _gather_block(d, widest) >= 33
    whole = lat._interp(keysets, x)
    monkeypatch.setattr("gaugeflow.field._GATHER_FLOATS", 4**d * widest * 8)
    assert _gather_block(d, widest) == 8
    blocked = lat._interp(keysets, x)
    for got, want in zip(blocked, whole, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3])
def test_lattice_tables_equal_stacked_build(n):
    """The key-by-key spline tables have the bits of one stacked build for all
    three key sets, and after a full read the field holds no stencil grid:
    nothing but its coordinates, those tables and its scalars."""
    torus = Torus(2, 1.0)
    rng = rng_for(n, "unit/spline-tables")
    lat = LatticeField.sample(AnalyticField.random_su(rng, torus, n=n, amplitude=0.3), 16)
    lat.coord_jets(random_points(rng, torus, (7,)), 2)
    keysets = _jet_keys(2)[0]
    assert set(lat._splines) == set(keysets)
    for keys in keysets:
        got, want = lat._splines[keys], stacked_spline_table(lat, keys)
        assert got.shape == want.shape and np.array_equal(got, want), keys
    assert set(vars(lat)) == {"torus", "n", "m", "a", "coords", "_splines"}


def test_lattice_interpolation_error(torus2, su2_field):
    """Off-grid errors on a 64^2 lattice of the kmax=2 field.

    Measured: value 4.0e-7, first derivatives 3.6e-5, second 8.3e-4
    (spline + stencil truncation combined).
    """
    lat = LatticeField.sample(su2_field, 64)
    x = random_points(np.random.default_rng(5), torus2, (40,))
    assert maxabs(matrix_jet(lat, x, 0) - matrix_jet(su2_field, x, 0)) < 1e-6
    assert maxabs(matrix_jet(lat, x, 1) - matrix_jet(su2_field, x, 1)) < 1e-4
    assert maxabs(matrix_jet(lat, x, 2) - matrix_jet(su2_field, x, 2)) < 2e-3


def test_lattice_validation(torus2):
    with pytest.raises(ValueError):
        LatticeField(torus2, np.zeros((4, 6, 2, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        LatticeField(torus2, np.zeros((4, 4, 3, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        LatticeField(torus2, np.zeros((4, 4, 2, 2, 3), dtype=complex))


def test_stencil_symbol():
    """stencil_d1 on a pure mode multiplies by i(8 sin t - sin 2t)/(6a)."""
    m, k = 16, 3
    a = 1.0 / m
    j = np.arange(m)
    theta = 2 * np.pi * k / m
    mode = np.exp(1j * theta * j)
    got = stencil_d1(mode, 0, a)
    want = 1j * (8 * np.sin(theta) - np.sin(2 * theta)) / (6 * a) * mode
    assert maxabs(got - want) < 1e-12


def test_stencil_fourth_order():
    """Error against the exact derivative of sin(2 pi x) falls ~16x per refinement."""
    errs = []
    for m in (16, 32):
        x = np.arange(m) / m
        err = maxabs(stencil_d1(np.sin(2 * np.pi * x), 0, 1.0 / m) - 2 * np.pi * np.cos(2 * np.pi * x))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0


# ---------------------------------------------------------------------------
# derived central-difference stencils


def test_central_weights_match_textbook_tables():
    """Offsets descending, integer weights, common denominator."""
    assert central_weights(1, 2) == ((1, -1), (1, -1), 2)
    assert central_weights(2, 2) == ((1, 0, -1), (1, -2, 1), 1)
    assert central_weights(1, 4) == ((2, 1, -1, -2), (-1, 8, -8, 1), 12)
    assert central_weights(2, 4) == ((2, 1, 0, -1, -2), (-1, 16, -30, 16, -1), 12)
    assert central_weights(1, 6) == ((3, 2, 1, -1, -2, -3), (1, -9, 45, -45, 9, -1), 60)
    # the mixed second difference: the corners (+,+), (+,-), (-,+), (-,-)
    assert central_weights((1, 1), 2) == (((1, 1), (1, -1), (-1, 1), (-1, -1)),
                                          (1, -1, -1, 1), 4)
    for deriv, order in ((0, 2), (1, 3), (2, 0)):
        with pytest.raises(ValueError):
            central_weights(deriv, order)


@pytest.mark.parametrize("deriv, order", [(1, 2), (2, 2), (1, 4), (2, 4), (3, 2), (3, 4),
                                          (4, 2), (1, 8)])
def test_central_weights_have_the_order_asked_for(deriv, order):
    """The moments sum_i w_i o_i^p / denominator are p! at p = deriv and 0 at every
    other p < deriv + order, and the next moment (the error term) is not 0."""
    offsets, weights, den = central_weights(deriv, order)
    moments = [Fraction(sum(w * o**p for o, w in zip(offsets, weights)), den)
               for p in range(deriv + order + 1)]
    assert moments[:-1] == [math.factorial(deriv) if p == deriv else 0
                            for p in range(deriv + order)]
    assert moments[-1] != 0
    assert list(offsets) == sorted(offsets, reverse=True) and 0 not in weights
    assert math.gcd(den, *weights) == 1


def test_stencil_d1_writes_central_weights_1_4():
    """stencil_d1's (8 (f1 - b1) - (f2 - b2)) / (12 a) is central_weights(1, 4),
    to roundoff against central_difference over np.roll shifts."""
    assert central_weights(1, 4) == ((2, 1, -1, -2), (-1, 8, -8, 1), 12)
    arr = np.random.default_rng(19).standard_normal((3, 8, 16))
    for axis in (1, 2, -1):
        want = central_difference(lambda ks: [np.roll(arr, -k, axis) for k in ks], 0.1, 1, 4)
        assert maxabs(stencil_d1(arr, axis, 0.1) - want) <= 1e-13 * maxabs(want)


@pytest.mark.parametrize("site", sorted(HAND_STENCILS))
def test_central_difference_gives_the_hand_written_stencils_bits(site):
    """Each oracle's stencil as written out by hand and central_difference at its
    derivative and order agree bit for bit, signs of zero included: on seeded
    float scalars, real coordinate arrays and complex (N, N) stacks."""
    deriv, order, by_hand = HAND_STENCILS[site]
    offsets = central_weights(deriv, order)[0]
    rng = rng_for(0, f"central_difference/{site}")
    b = len(offsets)
    for h in (1e-5, 2e-4, 3e-4, 1e-3, float(rng.uniform(1e-6, 1e-2))):
        coords = rng.standard_normal((b, 3, 3, 8, 8))
        coords[:, 0, 0] = np.where(rng.random((b, 8, 8)) < 0.5, 0.0, -0.0)
        draws = [
            [float(v) for v in rng.standard_normal(b)],
            list(rng.standard_normal(b)),
            list(coords),
            [coords[0]] * b,
        ]
        for n in (2, 3):
            draws.append(list(rng.standard_normal((b, 4, n, n))
                              + 1j * rng.standard_normal((b, 4, n, n))))
        for values in draws:
            seen = []
            got = central_difference(lambda ks: seen.append(ks) or values, h, deriv, order)
            want = by_hand(h, *values)
            assert seen == [offsets]
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_finite_difference_oracles_write_no_stencil_denominator():
    """The oracles' stencils come from central_weights: no hand-written stencil
    denominator comes back in the modules that hold them."""
    src = pathlib.Path(gaugeflow.__file__).parent
    for name in ("experiments.py", "levy.py", "heatflow.py"):
        text = (src / name).read_text()
        for denominator in ("/ (2.0 *", "/ (2 *", "/ (4 *", "/ (6.0 *", "/ (12.0 *",
                            "/ (eps * eps)"):
            assert denominator not in text, f"{name} writes a stencil denominator {denominator!r}"


def test_lattice_curvature_grid(torus2, su2_field):
    """On-grid stencil curvature vs the analytic curvature at the sites."""
    lat = LatticeField.sample(su2_field, 64)
    axes = [np.arange(64) / 64.0] * 2
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    want = lie_matrix(curvature(su2_field, pts))
    assert maxabs(lie_matrix(lattice_curvature_grid(lat)) - want) < 1e-4


# ---------------------------------------------------------------------------
# action


def test_ym_action_oracle(torus2, su2_field):
    """Independent dense-grid quadrature of -1/2 tr(F F), and the frozen value.

    The integrand of a kmax=2 Fourier field is band-limited (|k| <= 8 after
    squaring), so a 96^2 periodic Riemann sum is exact to roundoff.
    """
    m = 96
    axes = [np.arange(m) / m] * 2
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    f = lie_matrix(curvature(su2_field, pts))
    dens = -0.5 * np.einsum("...mvij,...mvji->...", f, f)
    oracle = float(np.mean(np.real(dens)) * torus2.volume)
    got = ym_action(su2_field)
    assert abs(got - oracle) < 1e-12
    assert abs(got - 8.811686227864858) < 1e-9  # frozen regression value
    assert got > 0.0
    assert ym_action(AnalyticField.zero(torus2, 2)) == 0.0


def test_ym_action_gauge_invariant(torus2, su2_field):
    fld = TransformedField(su2_field, gauge_map(torus2))
    assert abs(ym_action(fld, samples=96) - ym_action(su2_field)) < 1e-9


def test_ym_action_lattice_close(torus2, su2_field):
    lat = LatticeField.sample(su2_field, 64)
    assert abs(ym_action(lat) - ym_action(su2_field)) < 1e-4


# ---------------------------------------------------------------------------
# serialization and the named library


def test_lattice_save_load_round_trip(tmp_path, torus2, su2_field):
    lat = LatticeField.sample(su2_field, 16)
    base = tmp_path / "snap"
    lat.save(base)
    # binary payload is the C-order little-endian complex128 buffer
    raw = (tmp_path / "snap.bin").read_bytes()
    assert raw == np.ascontiguousarray(lat.values).astype("<c16").tobytes()
    back = LatticeField.load(base)
    assert back.torus == torus2
    assert np.array_equal(back.values, lat.values)


def test_lattice_load_rejects_inconsistent_files(tmp_path, torus2, su2_field):
    base = tmp_path / "snap"
    LatticeField.sample(su2_field, 8).save(base)
    raw = (tmp_path / "snap.bin").read_bytes()
    (tmp_path / "snap.bin").write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="bytes"):
        LatticeField.load(base)
    (tmp_path / "snap.bin").write_bytes(raw)
    header = json.loads((tmp_path / "snap.json").read_text())
    for key, bad in (("kind", "analytic"), ("dtype", "complex64-little-endian")):
        (tmp_path / "snap.json").write_text(json.dumps(dict(header, **{key: bad})))
        with pytest.raises(ValueError, match=key):
            LatticeField.load(base)


def test_save_field_dispatch(tmp_path, torus2, su2_field):
    save_field(su2_field, tmp_path / "analytic")
    back = load_field(tmp_path / "analytic")
    x = random_points(RNG, torus2, (4,))
    assert maxabs(matrix_jet(back, x, 0) - matrix_jet(su2_field, x, 0)) < 1e-15
    lat = LatticeField.sample(su2_field, 8)
    save_field(lat, tmp_path / "lat")
    assert np.array_equal(load_field(tmp_path / "lat").values, lat.values)
    with pytest.raises(TypeError):
        save_field(TransformedField(su2_field, gauge_map(torus2)), tmp_path / "nope")


def test_make_field_kinds(torus2):
    assert maxabs(matrix_jet(make_field({"kind": "zero"}, torus2), np.zeros((1, 2)), 0)) == 0.0
    f1 = make_field({"kind": "random_su", "seed": 3, "modes": 2}, torus2)
    f2 = make_field({"kind": "random_su", "seed": 3, "modes": 2}, torus2)
    x = random_points(RNG, torus2, (4,))
    assert np.array_equal(matrix_jet(f1, x, 0), matrix_jet(f2, x, 0))
    ab = make_field({"kind": "abelian", "seed": 5}, torus2)
    a = matrix_jet(ab, x, 0)
    assert maxabs(commutator(a[..., 0, :, :], a[..., 1, :, :])) < 1e-14
    pg = make_field({"kind": "pure_gauge", "seed": 9}, torus2)
    assert maxabs(lie_matrix(curvature(pg, x))) < 1e-11
    # kmax reaches the gauge map's angles: kmax 1 is the default, 4 draws other wave vectors
    pg1 = make_field({"kind": "pure_gauge", "seed": 9, "kmax": 1}, torus2)
    pg4 = make_field({"kind": "pure_gauge", "seed": 9, "kmax": 4}, torus2)
    assert np.array_equal(matrix_jet(pg1, x, 0), matrix_jet(pg, x, 0))
    assert not np.array_equal(matrix_jet(pg4, x, 0), matrix_jet(pg1, x, 0))
    lat = make_field({"kind": "lattice", "base": {"kind": "random_su", "seed": 3}, "grid": 8}, torus2)
    assert isinstance(lat, LatticeField) and lat.m == 8
    with pytest.raises(ValueError):
        make_field({"kind": "mystery"}, torus2)
