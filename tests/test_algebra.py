"""Matrix-algebra layer: Lie projections, exponentials, unitarization.

Oracles: scipy.linalg.expm for the spectral `expm` of anti-Hermitian
matrices and for `exp_lie` (and, on diagonal su(3) elements, the exponential
of the diagonal), direct identity checks for everything else. All batched
routines are compared entry-by-entry against a python loop over the batch.
"""

import pathlib

import numpy as np
import pytest
import scipy.linalg

import gaugeflow
from _oracles import commutator, lie_defect
from gaugeflow.algebra import (
    _ADJOINT_ENTRIES,
    _matmul,
    _structure,
    adjoint,
    bracket,
    dagger,
    exp_lie,
    expm,
    fiber_metric,
    group_defect,
    lie_coords,
    lie_matrix,
    maxabs,
    project_lie,
    random_fiber,
    random_group,
    random_lie,
    su_basis,
    trace,
    unitarize,
)

RNG = np.random.default_rng(20240811)


def test_commutator_bilinear_antisymmetric():
    """[x,y] = -[y,x], and Jacobi identity holds to roundoff."""
    for _ in range(10):
        x, y, z = (random_fiber(RNG, 3) for _ in range(3))
        assert maxabs(commutator(x, y) + commutator(y, x)) < 1e-12
        jac = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        assert maxabs(jac) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matmul_matches_operator(n):
    """The unrolled product equals `@` over broadcast shapes, to 1e-15 relative
    to |a| |b| entrywise (the rounding bound of an n-term complex dot product)."""
    rng = np.random.default_rng(n)
    for sa, sb in [((), ()), ((64,), ()), ((9, 1, 5), (7, 1)), ((1, 33), (40, 1)),
                   ((3,), (5, 3))]:
        a, b = random_fiber(rng, n, shape=sa), random_fiber(rng, n, shape=sb)
        want, got = a @ b, _matmul(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / (np.abs(a) @ np.abs(b))) < 1e-15


def test_dagger_and_trace_batched():
    m = random_fiber(RNG, 2, shape=(4, 5))
    d = dagger(m)
    for i in range(4):
        for j in range(5):
            assert maxabs(d[i, j] - m[i, j].conj().T) == 0.0
            assert abs(trace(m)[i, j] - np.trace(m[i, j])) < 1e-14


def test_project_lie_is_projection():
    """project_lie is idempotent, lands in the Lie algebra, and fixes it."""
    for n in (2, 3):
        m = random_fiber(RNG, n, shape=(6,))
        p = project_lie(m)
        assert lie_defect(p) < 1e-13
        assert maxabs(project_lie(p) - p) < 1e-13
        x = random_lie(RNG, n, shape=(6,))
        assert maxabs(project_lie(x) - x) < 1e-13


def test_project_lie_is_orthogonal():
    """The projection residual is fiber_metric-orthogonal to the subspace."""
    for _ in range(5):
        m = random_fiber(RNG, 3)
        p = project_lie(m)
        y = random_lie(RNG, 3)
        # <m - p, y> = 0 for every Lie y
        assert abs(fiber_metric(m - p, y)) < 1e-12


def test_fiber_metric_positive_definite_on_lie():
    for n in (2, 3):
        for _ in range(10):
            x = random_lie(RNG, n)
            val = fiber_metric(x, x)
            assert val > 0.0
            # -Re tr(x x) = sum |x_ij|^2 for anti-Hermitian x
            assert abs(val - np.sum(np.abs(x) ** 2)) < 1e-12


def test_expm_matches_scipy():
    """Spectral expm for N = 2, 3, 4 vs a loop over scipy.linalg.expm.

    Scales from 1e-3 to 10, each batch also reshaped to two leading axes;
    the last batch mixes all of them in one call. The results are group
    elements.
    """
    for n in (2, 3, 4):
        batches = []
        for scale in (1e-3, 0.5, 3.0, 10.0):
            x = random_lie(RNG, n, scale=scale, shape=(12,))
            assert group_defect(expm(x)) < 1e-13
            batches.append(x)
        batches.append(np.concatenate(batches[::-1]))
        for batch in batches:
            got = expm(batch.reshape((-1, 4, n, n))).reshape(batch.shape)
            for i in range(len(batch)):
                ref = scipy.linalg.expm(batch[i])
                assert maxabs(got[i] - ref) < 1e-13 * max(1.0, maxabs(ref))


def test_expm_refuses_non_anti_hermitian():
    """A Hermitian part beyond roundoff, relative to the largest entry, raises;
    one at roundoff is accepted, and x = 0 gives exactly Id."""
    x = random_lie(RNG, 3, shape=(5,))
    for bad in (random_fiber(RNG, 3), np.eye(3), x + 1e-9 * random_fiber(RNG, 3)):
        with pytest.raises(ValueError):
            expm(bad)
    assert group_defect(expm(x + 1e-15 * np.eye(3))) < 1e-13
    assert np.array_equal(expm(np.zeros((4, 3, 3))), np.broadcast_to(np.eye(3), (4, 3, 3)))


def test_expm_small_argument_stable():
    """Tiny x keeps its order-x part through expm1 with no cancellation:
    e^x = I + x + x^2/2 + O(x^3). The entries of order x agree to 1e-20; the
    real diagonal, 1 - O(x^2), to one unit in the last place of 1."""
    x = 1e-8 * random_lie(RNG, 2)
    diff = expm(x) - (np.eye(2) + x + 0.5 * x @ x)
    assert maxabs(np.real(np.diagonal(diff))) <= 2.0**-52
    diff.real[np.diag_indices(2)] = 0.0
    assert maxabs(diff) < 1e-20


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exp_lie_matches_scipy(n):
    """exp_lie of su_basis coordinates vs scipy.linalg.expm of their matrices.

    x = 0 gives exactly Id (N = 2 and N = 3 closed forms and spectral expm alike);
    |x| ~ 1e-9, O(1) and O(3) coordinates agree to 1e-14 and land in the group.
    """
    k = n * n - 1
    assert np.array_equal(exp_lie(np.zeros((4, k))), np.broadcast_to(np.eye(n), (4, n, n)))
    for scale in (1e-9, 0.3, 3.0):
        x = scale * RNG.standard_normal((20, k))
        got = exp_lie(x)
        assert got.shape == (20, n, n)
        for i in range(20):
            assert maxabs(got[i] - scipy.linalg.expm(lie_matrix(x[i]))) < 1e-14
        assert group_defect(got) < 1e-13


def test_exp_su3_on_degenerate_spectra():
    """The N = 3 closed form where its invariants degenerate, against the exact
    exponential of a diagonal matrix: along T_8 of either sign (two equal
    eigenvalues), along T_3 (det 0) and along T_8 + eps T_3 for eps from 1e-16
    to 1e-4, at scales from no squaring to four. x = 0 gives exactly Id."""
    assert np.array_equal(exp_lie(np.zeros(8)), np.eye(3))
    eye = np.eye(8)
    dirs = np.array([eye[7], -eye[7], eye[6]]
                    + [eye[7] + eps * eye[6] for eps in 10.0 ** np.arange(-16, -3)])
    for scale in (1e-9, 1e-3, 0.3, 1.0, 4.0, 20.0):
        x = scale * dirs
        want = np.exp(np.diagonal(lie_matrix(x), axis1=-2, axis2=-1))[..., None] * np.eye(3)
        assert maxabs(exp_lie(x) - want) < 1e-14


def test_exp_su3_scales():
    """Random su(3) coordinates from |x| ~ 1e-9 to ~ 30, where rows are scaled
    and squared, land in the group to 1e-13 and agree with scipy to 1e-13."""
    for scale in 10.0 ** np.arange(-9, 2):
        x = scale * RNG.standard_normal((16, 8))
        got = exp_lie(x)
        assert group_defect(got) < 1e-13
        for i in range(16):
            assert maxabs(got[i] - scipy.linalg.expm(lie_matrix(x[i]))) < 1e-13


def test_exp_su3_small_argument_stable():
    """Tiny x: e^X = Id + X + X^2/2 + O(x^3). The entries of order x agree to
    1e-20; the real diagonal, 1 - O(x^2), to one unit in the last place of 1."""
    x = 1e-8 * RNG.standard_normal(8)
    m = lie_matrix(x)
    diff = exp_lie(x) - (np.eye(3) + m + 0.5 * m @ m)
    assert maxabs(np.real(np.diagonal(diff))) <= 2.0**-52
    diff.real[np.diag_indices(3)] = 0.0
    assert maxabs(diff) < 1e-20


def test_exp_su3_rows_do_not_depend_on_each_other():
    """Each row is scaled, summed and squared on its own: a row keeps its bits
    when the other rows of an equal-length batch go from no squaring to several."""
    rows = RNG.standard_normal((5, 8))
    for own in (1e-3, 1.0, 30.0):
        got = [exp_lie(np.concatenate([own * rows[:1], other * rows[1:]]))[0]
               for other in (1e-6, 0.5, 40.0)]
        assert all(np.array_equal(g, got[0]) for g in got[1:])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lie_coordinates(n):
    """lie_matrix is sum_a x_a T_a; lie_coords inverts it (exactly at N = 2,
    where every entry is one coordinate times 1/2) and projects any matrix
    onto su(N); with check, a non-su(N) part beyond LIE_TOL raises."""
    k = n * n - 1
    x = RNG.standard_normal((7, 5, k))
    m = lie_matrix(x)
    assert m.shape == (7, 5, n, n)
    assert maxabs(m - np.einsum("...a,aij->...ij", x, su_basis(n))) < 1e-15
    assert maxabs(lie_coords(m, check=True) - x) < 1e-14
    if n == 2:
        x = RNG.standard_normal((100_000, 3))
        assert np.array_equal(lie_coords(lie_matrix(x)), x)
    f = random_fiber(RNG, n, shape=(6,))
    assert maxabs(lie_matrix(lie_coords(f)) - project_lie(f)) < 1e-14
    assert lie_coords(np.zeros((0, n, n))).shape == (0, k)
    for bad in (np.eye(n), random_fiber(RNG, n)):
        with pytest.raises(ValueError, match="non-su"):
            lie_coords(m[0, 0] + 1e-6 * bad, check=True)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_constants_give_the_commutator(n):
    """`bracket`, [x, y]_c = sum_p S[c, p] (x_a y_b - x_b y_a) over the pairs of
    `_structure`, is the matrix commutator through `lie_matrix`, broadcast over
    leading axes; it is exactly antisymmetric and exactly 0 on equal arguments."""
    k = n * n - 1
    x, y = RNG.standard_normal((2, 10, k))
    assert maxabs(lie_matrix(bracket(x, y)) - commutator(lie_matrix(x), lie_matrix(y))) < 1e-14
    ia, ib, s = _structure(n)
    assert np.array_equal(bracket(x, y), (x[:, ia] * y[:, ib] - x[:, ib] * y[:, ia]) @ s.T)
    assert np.array_equal(bracket(y, x), -bracket(x, y))
    assert not np.any(bracket(x, x))
    grid = bracket(x[:, None, None], y[None, :4, None])
    assert grid.shape == (10, 4, 1, k)
    spread = np.broadcast_to(x[:, None, None], grid.shape), np.broadcast_to(y[:4, None], grid.shape)
    assert np.array_equal(grid, bracket(*spread))


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_is_the_coordinate_conjugation(n):
    """Column b of `adjoint(U)` holds the coordinates of U^-1 T_b U: a real
    orthogonal matrix, to 1e-14, over more matrices than one of its blocks."""
    k = n * n - 1
    rows = _ADJOINT_ENTRIES // n**4 + 3
    u = exp_lie(RNG.standard_normal((rows, k)))
    got = adjoint(u.reshape(rows, 1, n, n))
    assert got.shape == (rows, 1, k, k)
    want = lie_coords(dagger(u)[:, None] @ su_basis(n) @ u[:, None])  # (rows, b, a)
    assert maxabs(got[:, 0] - np.swapaxes(want, -1, -2)) < 1e-14
    assert maxabs(np.swapaxes(got, -1, -2) @ got - np.eye(k)) < 1e-14


def test_one_written_form_of_the_coordinate_bracket():
    """The structure constants are read only by `algebra` (for `bracket`) and by
    the flow's site-blocked `heatflow._bracket`: every other module brackets
    su(N) coordinates through `algebra.bracket`."""
    src = pathlib.Path(gaugeflow.__file__).parent
    readers = sorted(p.name for p in src.glob("*.py") if "_structure(" in p.read_text())
    assert readers == ["algebra.py", "heatflow.py"]


def test_unitarize_newton():
    """Two Newton steps take a 1e-4 defect to below 1e-12."""
    u = random_group(RNG, 2, shape=(8,))
    noisy = u + 1e-4 * random_fiber(RNG, 2, shape=(8,))
    fixed, defect = unitarize(noisy)
    assert defect < 1e-12
    assert group_defect(fixed) < 1e-12
    # projection stays near the input
    assert maxabs(fixed - u) < 1e-3


def test_unitarize_fixes_special_unitary():
    u = random_group(RNG, 3)
    fixed, _ = unitarize(u)
    assert maxabs(fixed - u) < 1e-12


def test_su_basis_orthogonality():
    """n^2 - 1 anti-Hermitian traceless directions, pairwise orthogonal."""
    for n in (2, 3, 4):
        basis = su_basis(n)
        assert basis.shape[0] == n * n - 1
        assert lie_defect(basis) < 1e-14
        gram = np.array(
            [[fiber_metric(a, b) for b in basis] for a in basis]
        )
        off = gram - np.diag(np.diag(gram))
        assert maxabs(off) < 1e-14
        assert np.all(np.diag(gram) > 0.0)


def test_su2_basis_commutators():
    """[T_a, T_b] = eps_abc T_c for T_a = -i sigma_a / 2."""
    t = su_basis(2)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for a in range(3):
        for b in range(3):
            want = sum(eps[a, b, c] * t[c] for c in range(3))
            assert maxabs(commutator(t[a], t[b]) - want) < 1e-15


def test_random_generators_land_in_their_sets():
    x = random_lie(RNG, 3, scale=0.5, shape=(4,))
    assert lie_defect(x) < 1e-13
    u = random_group(RNG, 3, scale=0.5, shape=(4,))
    assert group_defect(u) < 1e-12


def test_defects_detect_violations():
    x = random_lie(RNG, 2)
    assert lie_defect(x + 1e-3 * np.eye(2)) > 1e-4
    u = random_group(RNG, 2)
    assert group_defect(1.001 * u) > 1e-4


def test_maxabs_empty():
    assert maxabs(np.zeros((0, 2, 2))) == 0.0
