"""Lattice gradient flow: stability guards, exact single-mode behavior,
the commuting-field closed form, and trajectory bookkeeping.

The sharpest oracle: a single transverse cos mode makes the lattice flow
exactly linear (every commutator vanishes and the stencil maps the mode
to itself), so the RK4 update must equal the scalar stability polynomial
R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 applied per step, to roundoff.
Measured: rhs-vs-(-rate A) gap 2.4e-15, RK4-factor gap 2.8e-17, abelian
oracle vs 32^2 lattice flow 1.3e-6.
"""

import numpy as np
import pytest

from _oracles import (
    matrix_jet,
    oracle_stencil,
    pair_stack_bracket,
    pair_stack_curvature,
    pair_stack_velocity,
    rk4_trajectory,
)
from gaugeflow.algebra import _structure, lie_coords, lie_matrix, maxabs, random_lie, su_basis
from gaugeflow.experiments import _bump_field, rng_for
from gaugeflow.field import (
    AnalyticField,
    LatticeField,
    Torus,
    central_difference,
    lattice_curvature_grid,
    stencil_d1,
    ym_action,
)
from gaugeflow.heatflow import (
    _BRACKET_FLOATS,
    BlowUp,
    CflViolation,
    _action,
    _bracket,
    _curvature,
    abelian_oracle,
    cfl_bound,
    flow,
    ym_rhs,
)

TORUS = Torus(2, 1.0)
T_BASIS = su_basis(2)


# --- einsum/np.roll reference kernels on matrices: the lattice flow's oracle ---


def oracle_curvature(vals, a):
    d = vals.shape[-3]
    p = np.stack([oracle_stencil(vals, ax, a) for ax in range(d)], axis=-4)
    aa = np.einsum("...mij,...vjk->...mvik", vals, vals)
    return p - np.swapaxes(p, -4, -3) + aa - np.swapaxes(aa, -4, -3)


def oracle_rhs(av, a):
    """Stencils the whole curvature along every axis, then keeps the trace."""
    f = oracle_curvature(av, a)
    d = av.shape[-3]
    df = np.stack([oracle_stencil(f, ax, a) for ax in range(d)], axis=-5)
    div = np.einsum("...mmvij->...vij", df)
    comm = np.einsum("...mij,...mvjk->...vik", av, f) - np.einsum(
        "...mvij,...mjk->...vik", f, av
    )
    return div + comm


def oracle_action(vals, torus, a):
    f = oracle_curvature(vals, a)
    dens = -0.5 * np.einsum("...mvij,...mvji->...", f, f)
    return float(np.mean(np.real(dens)) * torus.volume)


def rel_gap(got, want):
    return maxabs(got - want) / maxabs(want)


def transverse_mode(m, kx=2, amp=0.35):
    """A_1 = amp cos(2 pi kx x0) T0 sampled on an m^2 grid; transverse since
    the only nonzero direction is orthogonal to the wave vector."""
    fld = AnalyticField(TORUS, 2, [[float(kx), 0.0]], [1], [amp * T_BASIS[0]], [0])
    return fld, LatticeField.sample(fld, m)


def discrete_rate(kx, m):
    """Squared 4th-order stencil symbol for wave number kx on an m grid."""
    a = 1.0 / m
    theta = 2 * np.pi * kx * a
    st = (8 * np.sin(theta) - np.sin(2 * theta)) / (6 * a)
    return st * st


def test_cfl_bound_formula():
    assert cfl_bound(0.125, 2) == 0.125**2 / 16.0
    assert cfl_bound(0.125, 3) == 0.125**2 / 24.0


def test_flow_rejects_bad_steps():
    _, lat = transverse_mode(8)
    with pytest.raises(CflViolation):
        flow(lat, 5, ds=1e-3)  # bound on an 8-grid is ~9.8e-4
    for ds in (0.0, float("nan")):
        with pytest.raises(ValueError):
            flow(lat, 5, ds=ds)
    for save in ([-1], [2, 6]):  # a snapshot outside [0, steps]
        with pytest.raises(ValueError, match="not all in \\[0, 5\\]"):
            flow(lat, 5, ds=1e-4, save=save)


def test_zero_field_stationary():
    lat = LatticeField(TORUS, np.zeros((8, 8, 2, 2, 2), dtype=complex))
    traj = flow(lat, 10, ds=5e-4, save=[10], rhs_max=True)
    assert maxabs(traj.snapshots[10]) == 0.0
    assert all(row["rhs_max"] == 0.0 for row in traj.table)
    assert all(row["action"] == 0.0 for row in traj.table)


def test_constant_commuting_field_stationary():
    """Spatially constant, single Lie direction: F = 0, so nothing moves."""
    vals = np.zeros((8, 8, 2, 2, 2), dtype=complex)
    vals[..., 0, :, :] = 0.3 * T_BASIS[2]
    vals[..., 1, :, :] = -0.2 * T_BASIS[2]
    lat = LatticeField(TORUS, vals)
    traj = flow(lat, 10, ds=5e-4, save=[10], rhs_max=True)
    assert maxabs(traj.field(10).values - vals) < 1e-14
    assert traj.table[0]["rhs_max"] < 1e-14


def test_rhs_single_mode_is_minus_rate():
    """ym_rhs of a transverse mode is exactly -rate * A (rate = symbol^2)."""
    _, lat = transverse_mode(8, kx=2)
    rate = discrete_rate(2, 8)
    assert maxabs(ym_rhs(lat).values + rate * lat.values) < 1e-12


def test_flow_matches_rk4_stability_polynomial():
    """Linear single-mode flow: after n steps the values are R(z)^n A exactly."""
    _, lat = transverse_mode(8, kx=2)
    rate = discrete_rate(2, 8)
    ds, steps = 8e-4, 12
    z = -rate * ds
    r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    traj = flow(lat, steps, ds, save=[steps])
    assert maxabs(traj.field(steps).values - r**steps * lat.values) < 1e-13
    # and the continuum exponential is reproduced to the RK4 truncation level
    cont = np.exp(-rate * ds * steps) * lat.values
    assert maxabs(traj.field(steps).values - cont) < 1e-6


def test_flow_descends_action_and_snapshot_cadence():
    fld = AnalyticField.random_su(rng_for(7, "unit/su-flow"), TORUS, modes=2,
                                  amplitude=0.2, kmax=1)
    lat = LatticeField.sample(fld, 16)
    cadence = [*range(0, 30, 7), 30]
    traj = flow(lat, 30, ds=1e-4, save=cadence)
    actions = [row["action"] for row in traj.table]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(actions, actions[1:]))
    assert actions[-1] < 0.9 * actions[0]  # measured: 1.12 -> 0.60 over 40 steps
    assert list(traj.snapshots) == [0, 7, 14, 21, 28, 30]
    assert np.allclose([traj.table[step]["s"] for step in traj.snapshots],
                       [0.0, 7e-4, 14e-4, 21e-4, 28e-4, 30e-4])
    assert len(traj.table) == 31  # one row per step plus the final state
    assert traj.table[0]["step"] == 0 and traj.table[-1]["step"] == 30
    assert set(traj.table[0]) == {"step", "s", "action"}
    # rhs_max only adds its column: the states and actions keep their bits
    with_max = flow(lat, 30, ds=1e-4, save=cadence, rhs_max=True)
    assert all(np.array_equal(traj.snapshots[k], with_max.snapshots[k]) for k in traj.snapshots)
    assert [row["action"] for row in with_max.table] == actions
    assert all(set(row) == {"step", "s", "action", "rhs_max"} for row in with_max.table)


def test_flow_keeps_exactly_the_saved_steps():
    """`flow` keeps the steps in `save` and no others, in step order: neither
    step 0 nor the last step unless asked for. What it keeps does not change
    the states or the table."""
    lat = su_flow_start(2, 2)
    every = flow(lat, 6, 1e-4, save=range(7))
    for save in ((), (3,), (5, 1, 3, 1), (0, 6)):
        traj = flow(lat, 6, 1e-4, save=save)
        assert list(traj.snapshots) == sorted(set(save))
        assert all(np.array_equal(traj.snapshots[k], every.snapshots[k]) for k in save)
        assert traj.table == every.table


def test_blowup_guard_on_driven_flat_start():
    """A forcing drives a flat start uphill, its action growing from 0: with the
    guard on, the flow must abort."""
    flat = LatticeField(TORUS, np.zeros((16, 16, 2, 2, 2), dtype=complex))
    bump = _bump_field(TORUS, 16, [0.5, 0.5], 0.3, 5.0, 2)
    with pytest.raises(BlowUp, match="from 0 to"):
        flow(flat, 3, ds=1e-4, forcing=bump, guard=True)
    # the guard is off by default when a forcing is given, so the same run completes
    traj = flow(flat, 3, ds=1e-4, forcing=bump)
    assert len(traj.table) == 4 and traj.table[-1]["action"] > 0.0
    # a non-finite action aborts too, instead of flowing on as NaN
    nan = LatticeField(TORUS, np.full((16, 16, 2, 2, 2), np.nan, dtype=complex))
    with pytest.raises(BlowUp):
        flow(flat, 3, ds=1e-4, forcing=nan, guard=True)


def test_abelian_oracle_vs_lattice_flow():
    """Closed-form Fourier flow vs the RK4/stencil integrator (gap 1.3e-6 on
    a 32^2 grid at kmax = 1; stencil-symbol truncation dominates)."""
    ab = AnalyticField.random_abelian(rng_for(7, "unit/ab-flow"), TORUS, modes=3,
                                      amplitude=0.2, kmax=1)
    lat = LatticeField.sample(ab, 32)
    ds, steps = 5e-5, 40
    traj = flow(lat, steps, ds, save=[steps])
    exact = abelian_oracle(ab, ds * steps)
    pts = np.random.default_rng(9).uniform(0, 1, size=(30, 2))
    end = traj.field(steps)
    assert maxabs(matrix_jet(end, pts, 0) - matrix_jet(exact, pts, 0)) < 1e-5


def test_abelian_oracle_mode_structure():
    """Longitudinal components are fixed points; transverse ones decay by
    exp(-(2 pi |k| / L)^2 s); k = 0 components never move."""
    c = 0.4 * T_BASIS[1]
    s = 0.01
    pts = np.random.default_rng(11).uniform(0, 1, size=(20, 2))
    # longitudinal: A_0 varies along x0
    lon = AnalyticField(TORUS, 2, [[1.0, 0.0]], [0], [c], [1])
    assert maxabs(matrix_jet(abelian_oracle(lon, s), pts, 0) - matrix_jet(lon, pts, 0)) < 1e-14
    # transverse: A_1 varies along x0
    tr = AnalyticField(TORUS, 2, [[1.0, 0.0]], [1], [c], [1])
    lam = (2 * np.pi) ** 2
    decayed = np.exp(-lam * s) * matrix_jet(tr, pts, 0)
    assert maxabs(matrix_jet(abelian_oracle(tr, s), pts, 0) - decayed) < 1e-12
    # zero wave vector
    const = AnalyticField(TORUS, 2, [[0.0, 0.0]], [0], [c], [0])
    assert maxabs(matrix_jet(abelian_oracle(const, s), pts, 0) - matrix_jet(const, pts, 0)) < 1e-14
    # s = 0 is the identity
    assert maxabs(matrix_jet(abelian_oracle(tr, 0.0), pts, 0) - matrix_jet(tr, pts, 0)) < 1e-14


def test_abelian_oracle_rejects_bad_input():
    _, lat = transverse_mode(8)
    with pytest.raises(TypeError):
        abelian_oracle(lat, 0.01)
    non_commuting = AnalyticField(
        TORUS, 2, [[1.0, 0.0], [0.0, 1.0]], [0, 1],
        [0.3 * T_BASIS[0], 0.3 * T_BASIS[1]], [0, 0],
    )
    with pytest.raises(ValueError):
        abelian_oracle(non_commuting, 0.01)


def trajectory_difference(traj, step, width, ds):
    """The centered difference of the snapshots `width` steps either side of
    `step`, as a lattice: the trajectory's own flow velocity."""
    rate = central_difference(lambda ks: [traj.snapshots[step + k * width] for k in ks],
                              width * ds)
    return LatticeField.from_coords(traj.torus, rate)


def test_trajectory_lookup_and_fd():
    fld = AnalyticField.random_su(rng_for(7, "unit/su-flow"), TORUS, modes=2,
                                  amplitude=0.2, kmax=1)
    lat = LatticeField.sample(fld, 16)
    ds = 1e-4
    traj = flow(lat, 40, ds, save=(10, 20, 30))
    # each read is a new lattice on the saved coordinates
    assert traj.field(20) is not traj.field(20)
    assert traj.field(20).coords is traj.snapshots[20]
    with pytest.raises(KeyError):
        traj.field(15)  # between snapshots
    fd = trajectory_difference(traj, 20, 10, ds)
    rhs = ym_rhs(traj.field(20))
    scale = maxabs(rhs.values)
    # measured: gap 9.2e-3 against scale 7.4 (rel 1.3e-3) at delta = 1e-3
    assert maxabs(fd.values - rhs.values) < 5e-3 * scale


def test_fd_ds_field_second_order():
    """Halving the snapshot spacing cuts the trajectory FD error ~4x."""
    fld = AnalyticField.random_su(rng_for(7, "unit/su-flow"), TORUS, modes=2,
                                  amplitude=0.2, kmax=1)
    lat = LatticeField.sample(fld, 16)
    ds = 1e-4
    gaps = []
    for save_every in (10, 5):
        traj = flow(lat, 40, ds, save=(20 - save_every, 20, 20 + save_every))
        fd = trajectory_difference(traj, 20, save_every, ds)
        gaps.append(maxabs(fd.values - ym_rhs(traj.field(20)).values))
    assert gaps[0] / gaps[1] > 3.0


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_kernels_match_einsum_oracle(d, n, m):
    """Padded stencil is bit-identical to np.roll; the lattice curvature (the
    spline read of the stencil tables at the sites), the action summed from it
    and the su(N)-coordinate velocity of ym_rhs match einsum to roundoff
    (measured at most 1.1e-15, 4.4e-16 and 1.7e-15 relative), as do the
    flow's own curvature, pair by pair m < n, and its action."""
    torus = Torus(d, 1.0)
    fld = AnalyticField.random_su(rng_for(7, f"unit/kernels-{d}-{n}-{m}"), torus, n=n,
                                  modes=2, amplitude=0.3, kmax=2)
    lat = LatticeField.sample(fld, m)
    for ax in range(d):
        assert np.array_equal(stencil_d1(lat.values, ax, lat.a),
                              oracle_stencil(lat.values, ax, lat.a))
    want = oracle_curvature(lat.values, lat.a)
    assert rel_gap(lie_matrix(lattice_curvature_grid(lat)), want) <= 1e-13
    f = _curvature(lat.coords, lat.a)
    for p, (m, n_) in enumerate(zip(*np.triu_indices(d, 1))):
        assert rel_gap(lie_matrix(np.moveaxis(f[p], 0, -1)), want[..., m, n_, :, :]) <= 1e-13
    assert rel_gap(ym_rhs(lat).values, oracle_rhs(lat.values, lat.a)) <= 1e-13
    action = oracle_action(lat.values, torus, lat.a)
    assert abs(ym_action(lat) / action - 1.0) <= 1e-13
    assert abs(_action(torus, f) / action - 1.0) <= 1e-13


def su_flow_start(d, n):
    """The seeded su(N) start field of the flow tests, on 16^2 or 8^3 sites."""
    torus = Torus(d, 1.0)
    m = 16 if d == 2 else 8
    label = "unit/su-flow" if (d, n) == (2, 2) else f"unit/su-flow-{d}-{n}"
    fld = AnalyticField.random_su(rng_for(7, label), torus, n=n, modes=2,
                                  amplitude=0.2, kmax=1)
    return LatticeField.sample(fld, m)


def assert_matches_oracle_flow(traj, lat, forcing=0.0):
    """A 12-step flow of 1e-4 saved every 4 steps agrees to roundoff with
    `rk4_trajectory` on the einsum `oracle_rhs` plus `forcing`, in matrices:
    the snapshots, the action at each of them and every step's `rhs_max`."""
    saved, rates = rk4_trajectory(lambda v: oracle_rhs(v, lat.a) + forcing, lat.values,
                                  12, 1e-4, 4)
    assert list(traj.snapshots) == [s for s, _ in saved] == [0, 4, 8, 12]
    for step, want in saved:
        assert rel_gap(traj.field(step).values, want) <= 1e-13
        action = oracle_action(want, lat.torus, lat.a)
        assert abs(traj.table[step]["action"] / action - 1.0) <= 1e-13
    assert len(traj.table) == len(rates) == 13
    for i, (row, rate) in enumerate(zip(traj.table, rates)):
        assert (row["step"], row["s"]) == (i, i * 1e-4)
        assert abs(row["rhs_max"] / maxabs(rate) - 1.0) <= 1e-13


def test_flow_curvature_reuse_matches_oracle_rhs():
    """The plain flow (su(N) coordinates, k1 from the curvature the action
    guard built) agrees to roundoff with an RK4 loop over the einsum oracle
    on matrices, for d in {2, 3} and N in {2, 3}."""
    for d in (2, 3):
        for n in (2, 3):
            lat = su_flow_start(d, n)
            assert_matches_oracle_flow(flow(lat, 12, 1e-4, save=range(0, 13, 4), rhs_max=True),
                                       lat)


def test_driven_flow_matches_oracle_rhs():
    """The R-diagnostic's driven flow, forced by a compact bump, against the
    einsum oracle plus the same bump."""
    lat = su_flow_start(2, 2)
    bump = _bump_field(TORUS, lat.m, [0.5, 0.5], 0.3, 5.0, 2)
    driven = flow(lat, 12, 1e-4, save=range(0, 13, 4), forcing=bump, rhs_max=True)
    assert_matches_oracle_flow(driven, lat, bump.values)
    plain = flow(lat, 12, 1e-4, save=[12])
    assert rel_gap(driven.field(12).values, plain.field(12).values) > 1e-3


@pytest.mark.parametrize("n", [2, 3])
def test_coordinates_round_trip_and_bracket(n, tmp_path):
    """LatticeField holds su_basis coordinates (d, K, *sites): its matrices
    round-trip through them, `generator` contracts them with v directly,
    `load` refuses non-su(N) values, and the structure-constant bracket of
    two coordinate lattices is the matrix commutator, bit for bit the
    stacked reference's."""
    rng = rng_for(7, f"unit/coords-{n}")
    x = random_lie(rng, n, shape=(5, 5, 2))  # sites (5, 5), d = 2
    y = random_lie(rng, n, shape=(5, 5, 2))
    lx, ly = LatticeField(TORUS, x), LatticeField(TORUS, y)
    assert lx.coords.shape == (2, n * n - 1, 5, 5)
    assert maxabs(lx.values - x) <= 1e-15 * maxabs(x)
    again = LatticeField(TORUS, LatticeField.from_coords(TORUS, lx.coords).values)
    assert maxabs(again.coords - lx.coords) <= 1e-15 * maxabs(lx.coords)
    pts = rng.uniform(-0.5, 1.5, size=(3, 7, 2))
    v = rng.standard_normal((3, 7, 2))
    want = lie_coords(np.einsum("...mij,...m->...ij", matrix_jet(lx, pts, 0), v))
    assert maxabs(lx.generator(pts, v) - want) <= 1e-15 * maxabs(want)
    comm = x @ y - y @ x
    rows = np.arange(2)
    bracket = _bracket(lx.coords, rows, ly.coords, rows)
    assert np.array_equal(bracket, pair_stack_bracket(lx.coords, ly.coords))
    bracket = LatticeField.from_coords(TORUS, bracket)
    assert maxabs(bracket.values - comm) <= 1e-15 * maxabs(comm)
    lx.save(tmp_path / "lat")
    (tmp_path / "lat.bin").write_bytes((x + 0.1j * np.eye(n)).astype("<c16").tobytes())
    with pytest.raises(ValueError, match="su\\(N\\)"):
        LatticeField.load(tmp_path / "lat")


def assert_flow_matches_pair_stacks(lat, steps, ds, save, forcing=None):
    """`flow` reproduces, bit for bit, `rk4_trajectory` over the pair-stack
    reference kernels: every snapshot's coordinates and every table row."""
    a, torus = lat.a, lat.torus
    push = 0.0 if forcing is None else forcing.coords

    def rhs(v):
        return pair_stack_velocity(v, a, pair_stack_curvature(v, a)) + push

    states, rates = rk4_trajectory(rhs, lat.coords, steps, ds, 1)
    traj = flow(lat, steps, ds, save=save, forcing=forcing, rhs_max=True)
    assert list(traj.snapshots) == sorted(save)
    for step, coords in traj.snapshots.items():
        want = states[step][1]
        assert np.array_equal(coords, want)
        assert np.array_equal(np.signbit(coords), np.signbit(want))
    assert traj.table == [
        {"step": i, "s": i * ds, "action": _action(torus, pair_stack_curvature(y, a)),
         "rhs_max": maxabs(LatticeField.from_coords(torus, rate).values)}
        for i, ((_, y), rate) in enumerate(zip(states, rates))]


@pytest.mark.parametrize("driven", [False, True])
@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_flow_matches_pair_stack_kernels_bitwise(d, n, m, driven):
    """The flow's view-based kernels and cached-index stencil keep every bit
    of the stacked kernels, including the sign of zero: the start field
    holds -0.0 in one su(N) coordinate of every direction."""
    torus = Torus(d, 1.0)
    fld = AnalyticField.random_su(rng_for(7, f"unit/pair-stacks-{d}-{n}-{m}"), torus, n=n,
                                  modes=2, amplitude=0.3, kmax=2)
    coords = LatticeField.sample(fld, m).coords.copy()
    coords[:, 0] = -0.0
    lat = LatticeField.from_coords(torus, coords)
    forcing = None
    if driven:
        push = AnalyticField.random_su(rng_for(7, f"unit/pair-stacks-push-{d}-{n}-{m}"), torus,
                                       n=n, modes=1, amplitude=0.2, kmax=1)
        forcing = LatticeField.sample(push, m)
    assert_flow_matches_pair_stacks(lat, 5, 0.5 * cfl_bound(lat.a, d), (0, 2, 4, 5), forcing)


@pytest.mark.parametrize("n", [2, 3])
def test_negative_zero_flow_keeps_signs_of_pair_stacks(n):
    """From coordinates that are all -0.0 every velocity term is +0.0, and
    the stacked kernels' 0.0 + t and 0.0 - t keep it so: a velocity formed
    as -t would turn the state's zeros negative."""
    lat = LatticeField.from_coords(TORUS, np.full((2, n * n - 1, 8, 8), -0.0))
    assert_flow_matches_pair_stacks(lat, 2, 1e-4, (0, 1, 2))


def test_su3_flow_over_several_bracket_blocks_matches_pair_stacks():
    """At 32^2 sites an su(3) bracket runs in several blocks of sites, in both
    the curvature (one pair) and the velocity (two rows)."""
    lat = LatticeField.sample(AnalyticField.random_su(
        rng_for(7, "unit/pair-stacks-blocks"), TORUS, n=3, modes=2, amplitude=0.3, kmax=2), 32)
    assert 32 * 32 > _BRACKET_FLOATS // len(_structure(3)[0]) > 0
    assert_flow_matches_pair_stacks(lat, 4, 0.5 * cfl_bound(lat.a, 2), (0, 2, 4))


def test_stencil_matches_roll_on_views_negative_axes_and_extents():
    """stencil_d1 equals the np.roll stencil bit for bit on non-contiguous
    views, on negative axes, and with several extents in turn in one process,
    each with its own cached periodic index."""
    rng = np.random.default_rng(11)
    for m in (8, 5, 16, 8, 12, 5):
        base = rng.standard_normal((3, 2 * m, m + 3))
        view = base[:, ::2, 1:m + 1]
        assert not view.flags.c_contiguous
        for axis in (1, 2, -1, -2):
            assert np.array_equal(stencil_d1(view, axis, 0.1), oracle_stencil(view, axis, 0.1))
        swapped = base[:, :m, :m].swapaxes(1, 2)
        assert np.array_equal(stencil_d1(swapped, -1, 0.3), oracle_stencil(swapped, -1, 0.3))


def test_flow_refuses_values_outside_su_n():
    """A lattice (start field or forcing) with a non-su(N) part beyond roundoff
    is refused, not projected, and so is a forcing on another torus or grid;
    a roundoff-size non-su(N) part passes."""
    lat = su_flow_start(2, 2)
    bump = _bump_field(TORUS, lat.m, [0.5, 0.5], 0.3, 5.0, 2).values
    eye = np.eye(2)
    for bad in (bump + 1j * eye, bump + 1e-3 * np.diag([1.0, -1.0]), lat.values + 0.1j * eye):
        with pytest.raises(ValueError, match="su\\(N\\)"):
            LatticeField(TORUS, bad)
    for other in (LatticeField(Torus(2, 2.0), bump), LatticeField(TORUS, bump[::2, ::2])):
        with pytest.raises(ValueError, match="torus and grid"):
            flow(lat, 2, 1e-4, forcing=other)
    traj = flow(lat, 2, 1e-4, forcing=LatticeField(TORUS, bump + 1e-15j * eye))
    assert len(traj.table) == 3
