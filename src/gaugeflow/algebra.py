"""su(N) matrix algebra used by every other module.

Conventions:

* Lie element: anti-Hermitian traceless complex (N, N) ndarray.
* Group element: special-unitary complex (N, N) ndarray.
* Fiber map: arbitrary complex (N, N) ndarray (endomorphism of a fiber);
  derivatives of transports live here.

Everything broadcasts over leading axes, so a batch of M elements is an
(M, N, N) array. `expm` takes anti-Hermitian matrices, for every N, through
their eigendecomposition. Its callers are the abelian Levy oracle in
`experiments`, `random_group` and `exp_lie` at N >= 4, which only the tests
reach.

A Lie element is also held as its real coordinates in `su_basis(n)`, a
trailing axis of K = N^2 - 1 floats: `lie_coords` and `lie_matrix` convert,
`bracket` (from the structure constants `_structure`) and `exp_lie` give
the bracket and the exponential in these coordinates. `exp_lie` has closed
forms at N = 2 and at N = 3, where exp(X) = f0 Id + f1 X + f2 X^2 by
Cayley-Hamilton (Morningstar & Peardon, Phys. Rev. D 69 (2004) 054501), so
no transport calls LAPACK. `adjoint` gives Ad(U^-1) of group elements U as
real orthogonal K x K matrices. Every su(N) element the package builds from
real data goes through these maps, which are built on first use for each N.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def dagger(u):
    """Conjugate transpose over the trailing two axes."""
    return np.swapaxes(u, -1, -2).conj()


def _matmul(a, b):
    """Broadcast product of trailing small matrices, unrolled over the inner
    index: for stacks of 2x2 and 3x3 matrices several times faster than `@`."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def maxabs(m):
    """Max-norm of the entries, the residual norm used everywhere."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def fiber_metric(phi, psi):
    """Inner product -Re tr(phi psi) on fiber maps.

    Restricted to Lie elements this is positive definite.
    """
    return -np.real(np.einsum("...ij,...ji->...", phi, psi))


def project_lie(m):
    """Nearest anti-Hermitian traceless matrix (orthogonal projection)."""
    a = 0.5 * (m - dagger(m))
    n = m.shape[-1]
    tr = trace(a) / n
    return a - tr[..., None, None] * np.eye(n)


def expm(x):
    """exp of anti-Hermitian matrices (..., N, N), for every N.

    Spectral (Moler & Van Loan, SIAM Rev. 45 (2003) 3): with the Hermitian
    i x = V diag(lam) V^+, exp(x) = Id + V diag(expm1(-i lam)) V^+, unitary to
    roundoff, exactly Id at x = 0 and accurate to roundoff in its order-x part
    at small x. Raises ValueError if x has a Hermitian part beyond LIE_TOL
    relative to its largest entry.
    """
    x = np.asarray(x, dtype=np.complex128)
    if maxabs(x + dagger(x)) > 2.0 * LIE_TOL * maxabs(x):
        raise ValueError("expm takes anti-Hermitian matrices")
    lam, v = np.linalg.eigh(1j * x)
    return np.eye(x.shape[-1]) + (v * np.expm1(-1j * lam)[..., None, :]) @ dagger(v)


# Newton iteration is quadratic, so two steps take a 1e-6 defect to roundoff.
NEWTON_STEPS = 2


def unitarize(u):
    """Project a near-unitary matrix back onto the unitary group.

    Newton iteration for the polar factor, NEWTON_STEPS steps. Input must
    already be close to unitary.
    """
    n = u.shape[-1]
    eye = np.eye(n)
    for _ in range(NEWTON_STEPS):
        u = 0.5 * (3.0 * u - u @ dagger(u) @ u)
    # remove the residual determinant phase mod the center
    det = np.linalg.det(u)
    phase = det ** (-1.0 / n)
    return phase[..., None, None] * u, maxabs(dagger(u) @ u - eye)


def group_defect(u):
    """How far u is from special-unitary."""
    n = u.shape[-1]
    uni = maxabs(dagger(u) @ u - np.eye(n))
    det = maxabs(np.linalg.det(u) - 1.0)
    return max(uni, det)


PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=np.complex128,
)


def su_basis(n):
    """Orthogonal anti-Hermitian traceless basis; for n = 2, -i sigma_a / 2."""
    if n == 2:
        return -0.5j * PAULI
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[i, j] = 1.0
            m[j, i] = -1.0
            basis.append(0.5 * m)
            m = np.zeros((n, n), dtype=np.complex128)
            m[i, j] = 1.0j
            m[j, i] = 1.0j
            basis.append(0.5 * m)
    for k in range(1, n):
        m = np.zeros((n, n), dtype=np.complex128)
        m[:k, :k] = np.eye(k) * 1.0j
        m[k, k] = -1.0j * k
        basis.append(m / np.sqrt(2.0 * k * (k + 1)))
    return np.stack(basis)


# largest non-su(N) part, relative to the values' scale, read as roundoff
LIE_TOL = 1e-12


@functools.cache
def _basis_maps(n):
    """Real matrices from interleaved (re, im) N x N entries to su_basis(n)
    coordinates, (2 N^2, K), and back, (K, 2 N^2).

    The basis is orthogonal with tr(T_a T_b) = -delta_ab / 2, so the
    coordinates of X are x_a = -2 Re tr(T_a X) and X = sum_a x_a T_a.
    """
    t = su_basis(n)
    k = len(t)
    to_coords = -2.0 * np.swapaxes(t, -1, -2).reshape(k, -1)  # tr(T X) = sum T_ij X_ji
    to_coords = np.stack([to_coords.real, -to_coords.imag], axis=-1).reshape(k, -1).T
    return np.ascontiguousarray(to_coords), np.ascontiguousarray(t.reshape(k, -1).view(np.float64))


@functools.cache
def _structure(n):
    """Pairs a < b with [T_a, T_b] != 0 and S (K, P): [T_a, T_b] = sum_c S[c, p] T_c."""
    t = su_basis(n)
    comm = t[:, None] @ t[None, :] - t[None, :] @ t[:, None]
    f = -2.0 * np.real(np.einsum("cij,abji->abc", t, comm))
    f[np.abs(f) < 1e-12] = 0.0
    ia, ib = np.nonzero(np.triu(np.any(f != 0.0, axis=-1), 1))
    return ia, ib, np.ascontiguousarray(f[ia, ib].T)


def bracket(x, y):
    """[x, y] of su_basis coordinates over the trailing K axis, leading axes broadcast.

    [x, y]_c = sum_p S[c, p] (x_a y_b - x_b y_a) over the pairs p = (a, b)
    of `_structure`: exactly antisymmetric, and exactly 0 where x = y.
    """
    ia, ib, s = _structure(math.isqrt(x.shape[-1] + 1))
    xy = x[..., ia] * y[..., ib]
    xy -= x[..., ib] * y[..., ia]
    return (xy.reshape(-1, len(ia)) @ s.T).reshape(xy.shape[:-1] + s.shape[:1])


def _maxabs_real(r):
    """Largest |entry| of a real array, without an |r| temporary; NaN if any entry is."""
    return max(np.max(r, initial=0.0), -np.min(r, initial=0.0))


def lie_coords(m, check=False):
    """su_basis coordinates (..., K) of matrices (..., N, N).

    The orthogonal projection onto su(N). With `check`, raises ValueError if
    m has a non-su(N) (Hermitian or trace) part beyond roundoff: LIE_TOL
    relative to its largest component.
    """
    m = np.ascontiguousarray(m, dtype=np.complex128)
    n = m.shape[-1]
    to_coords, _ = _basis_maps(n)
    flat = m.view(np.float64).reshape(-1, 2 * n * n)
    x = flat @ to_coords
    if check:
        gap = lie_matrix(x).view(np.float64).reshape(flat.shape)
        gap -= flat
        if _maxabs_real(gap) > LIE_TOL * _maxabs_real(flat):
            raise ValueError("values have a non-su(N) part beyond roundoff")
    return x.reshape(m.shape[:-2] + x.shape[-1:])


def lie_matrix(x):
    """su(N) matrices (..., N, N) of su_basis coordinates (..., K)."""
    k = x.shape[-1]
    n = math.isqrt(k + 1)
    _, from_coords = _basis_maps(n)
    out = np.ascontiguousarray(x, dtype=float).reshape(-1, k) @ from_coords
    return out.view(np.complex128).reshape(x.shape[:-1] + (n, n))


@functools.cache
def _adjoint_form(n):
    """Entry (kjli, ab): 2 conj(T_a)_ji (T_b)_kl, the form on conj(U) x U whose real part
    is 2 Re tr(T_a^+ U^+ T_b U), coordinate a of U^-1 T_b U (|T_a|^2 = 1/2)."""
    basis = su_basis(n)
    return 2.0 * np.einsum("aji,bkl->kjliab", basis.conj(), basis).reshape(n**4, -1)


# complex entries of conj(U) x U that `adjoint` forms at once: about 2 MB
_ADJOINT_ENTRIES = 1 << 17


def adjoint(u):
    """Ad(U^-1) of unitary U (..., N, N) on su_basis coordinates, (..., K, K): column b
    holds the coordinates of U^-1 T_b U, a real orthogonal matrix. Formed a block
    of matrices at a time, so no temporary outgrows about 2 MB."""
    n = u.shape[-1]
    flat = u.reshape(-1, n * n)
    out = np.empty((len(flat), (n * n - 1) ** 2))
    step = max(1, _ADJOINT_ENTRIES // n**4)
    for lo in range(0, len(flat), step):
        part = flat[lo:lo + step]
        out[lo:lo + step] = ((part.conj()[:, :, None] * part[:, None, :]).reshape(len(part), -1)
                             @ _adjoint_form(n)).real
    return out.reshape(u.shape[:-2] + (n * n - 1, n * n - 1))


@functools.cache
def _su3_maps():
    """Real maps of `_exp_su3`, derived from T = su_basis(3).

    For X = x.T, X^2 = -(|x|^2 / 6) Id + i W with W = w.T in su(3): `w_map` (8, 64) takes
    the outer products x_a x_b to w, weighting each by the su(3) part of -i T_a T_b.
    `out_map` (18, 18) takes su(3) coordinates p, q and a complex g, stacked as 18 reals,
    to the interleaved (re, im) entries of p.T + i q.T + g Id.
    """
    t = su_basis(3)
    w_map = lie_coords(-1j * (t[:, None] @ t[None, :])).reshape(64, 8).T
    eye = np.eye(3, dtype=np.complex128)[None]
    out_map = np.concatenate([t, 1j * t, eye, 1j * eye]).reshape(18, 9).view(np.float64)
    return np.ascontiguousarray(w_map), np.ascontiguousarray(out_map)


# Taylor terms of exp(i Q) that `_exp_su3` sums, and the |x| up to which they reach double
# precision: Q's eigenvalues are at most |x| / sqrt(3), and the first term left out,
# (1.4 / sqrt(3))^17 / 17!, is below 2^-53.
_SU3_TERMS = 16
_SU3_BOUND = 1.4


@functools.cache
def _su3_taylor_weights():
    """(2, _SU3_TERMS + 1): the real and imaginary parts of i^n / n!."""
    w = np.zeros((2, _SU3_TERMS + 1))
    for n in range(_SU3_TERMS + 1):
        w[n % 2, n] = (-1.0) ** (n // 2) / math.factorial(n)
    return w


# su(3) rows that `_exp_su3` takes at once: its temporaries stay below about 2 MB
_SU3_ROWS = 1 << 10


def _exp_su3(x):
    """exp(X) of su_basis(3) coordinates x (M, 8), (M, 3, 3): f0 Id + f1 X + f2 X^2.

    With Q = -iX, Cayley-Hamilton gives Q^3 = c1 Q + c0 Id with c1 = |x|^2 / 4 and
    c0 = det Q = -Im tr(X^3) / 3 = x.w / 6 (`_su3_maps`), so Q^n = a_n Id + b_n Q + c_n Q^2
    with (a, b, c) <- (c c0, a + c c1, b), and the Taylor series of exp(iQ) sums to scalars
    of the two invariants. Morningstar & Peardon (Phys. Rev. D 69 (2004) 054501,
    arXiv:hep-lat/0311018) evaluate them in trigonometric closed form; the series divides
    by no invariant, so the order-x part of exp(X) stays accurate to roundoff at small |x|.
    Each row is scaled by 2^-s below _SU3_BOUND, summed to _SU3_TERMS terms and squared s
    times, so its bits do not depend on the values in the other rows.
    """
    w_map, out_map = _su3_maps()
    m = len(x)
    norm = np.sqrt(np.einsum("ma,ma->m", x, x))
    squarings = np.ceil(np.log2(np.maximum(norm / _SU3_BOUND, 1.0))).astype(int)
    xt = np.ascontiguousarray(x.T) * np.ldexp(1.0, -squarings)
    w = w_map @ (xt[:, None] * xt[None]).reshape(64, m)
    c1 = 0.25 * np.einsum("am,am->m", xt, xt)
    invariants = np.stack([np.einsum("am,am->m", xt, w) / 6.0, c1])
    powers = np.zeros((_SU3_TERMS + 1, 3, m))
    powers[0, 0] = powers[1, 1] = powers[2, 2] = 1.0
    for n in range(3, _SU3_TERMS + 1):
        a, b, c = powers[n - 1]
        np.multiply(c, invariants, out=powers[n, :2])
        powers[n, 1] += a
        powers[n, 2] = b
    # exp(iQ) = F0 Id + F1 Q + F2 Q^2 with F_j = r_j + i i_j; as Q = -iX and Q^2 =
    # (|x|^2 / 6) Id - iW, exp(X) = (i1 x + i2 w).T - i (r1 x + r2 w).T + (F0 + F2 |x|^2 / 6) Id
    (r0, r1, r2), (i0, i1, i2) = (_su3_taylor_weights()
                                  @ powers.reshape(_SU3_TERMS + 1, -1)).reshape(2, 3, m)
    coef = np.empty((18, m))
    np.multiply(i1, xt, out=coef[:8])
    coef[:8] += i2 * w
    np.multiply(-r1, xt, out=coef[8:16])
    coef[8:16] -= r2 * w
    coef[16] = r0 + r2 * (c1 / 1.5)
    coef[17] = i0 + i2 * (c1 / 1.5)
    out = (coef.T @ out_map).view(np.complex128).reshape(m, 3, 3)
    for k in range(int(np.max(squarings, initial=0))):
        sel = squarings > k
        out[sel] = _matmul(out[sel], out[sel])
    return out


def exp_lie(x):
    """exp of the su(N) elements with su_basis coordinates x (..., K): (..., N, N).

    Closed forms at N = 2 and N = 3; only N >= 4, refused at validation, takes
    the spectral `expm`, whose other callers are the abelian Levy oracle and
    `random_group`. N = 2 is exp(X) = cos(r) Id + (sin(r) / r) X, r = |x| / 2,
    as X^2 = -r^2 Id in su(2). N = 3 is exp(X) = f0 Id + f1 X + f2 X^2 by
    Cayley-Hamilton (Morningstar & Peardon, Phys. Rev. D 69 (2004) 054501),
    the f_j from a Taylor series in two invariants of X (`_exp_su3`), taken
    _SU3_ROWS rows at a time. Both give exactly Id at x = 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 8:
        flat = x.reshape(-1, 8)
        out = np.empty((len(flat), 3, 3), dtype=np.complex128)
        for lo in range(0, len(flat), _SU3_ROWS):
            out[lo:lo + _SU3_ROWS] = _exp_su3(flat[lo:lo + _SU3_ROWS])
        return out.reshape(x.shape[:-1] + (3, 3))
    if x.shape[-1] != 3:
        return expm(lie_matrix(x))
    r = 0.5 * np.sqrt(np.sum(x * x, axis=-1))
    # sin(r) / r, and 0 where r = 0, which leaves exactly Id at x = 0
    half = (0.5 * np.sin(r) / np.where(r > 0.0, r, 1.0))[..., None] * x
    c = np.cos(r)
    # X = -(i/2) x . sigma; entries interleaved (re, im)
    out = np.stack([c, -half[..., 2], -half[..., 1], -half[..., 0],
                    half[..., 1], -half[..., 0], c, half[..., 2]], axis=-1)
    return out.view(np.complex128).reshape(x.shape[:-1] + (2, 2))


def random_lie(rng, n, scale=1.0, shape=()):
    """Seeded random Lie element(s) with entries O(scale)."""
    size = shape + (n, n)
    g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return project_lie(scale * g)


def random_group(rng, n, scale=1.0, shape=()):
    return expm(random_lie(rng, n, scale=scale, shape=shape))


def random_fiber(rng, n, scale=1.0, shape=()):
    size = shape + (n, n)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
