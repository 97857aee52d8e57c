"""su(N) matrix algebra used by every other module.

Conventions:

* Lie element: anti-Hermitian traceless complex (N, N) ndarray.
* Group element: special-unitary complex (N, N) ndarray.
* Fiber map: arbitrary complex (N, N) ndarray (endomorphism of a fiber);
  derivatives of transports live here.

Everything broadcasts over leading axes, so a batch of M elements is an
(M, N, N) array. The N = 2 exponential is a closed form (Pauli route); for
N > 2 it is one batched scaling-and-squaring Pade evaluation. Both are
numpy only.
"""

from __future__ import annotations

import math

import numpy as np


def dagger(u):
    """Conjugate transpose over the trailing two axes."""
    return np.conjugate(np.swapaxes(u, -1, -2))


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


def _sinhc(s):
    # sinh(s)/s, stable near 0
    small = np.abs(s) < 1e-5
    safe = np.where(small, 1.0, s)
    out = np.sinh(safe) / safe
    s2 = s * s
    return np.where(small, 1.0 + s2 / 6.0 + s2 * s2 / 120.0, out)


def _expm2(x):
    # closed form for 2x2: split off the trace, use m0^2 = -det(m0) I
    half_tr = 0.5 * trace(x)
    m0 = x - half_tr[..., None, None] * np.eye(2)
    det0 = m0[..., 0, 0] * m0[..., 1, 1] - m0[..., 0, 1] * m0[..., 1, 0]
    s = np.sqrt(-det0.astype(np.complex128))
    cosh = np.cosh(s)[..., None, None]
    shc = _sinhc(s)[..., None, None]
    out = cosh * np.eye(2) + shc * m0
    return np.exp(half_tr)[..., None, None] * out


# Pade degree m -> largest 1-norm for which scaling and squaring with it is
# accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)
# 1179, Table 2.3).
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


def _pade_coefficients(m):
    """Numerator coefficients b_0..b_m of the [m/m] Pade approximant of exp,
    scaled to the integers (2m - k)! / (k! (m - k)!) so that b_m = 1."""
    f = math.factorial
    return [f(2 * m - k) // (f(k) * f(m - k)) for k in range(m + 1)]


def _pade(a, m):
    """Degree-m Pade approximant (V - U)^-1 (V + U) of exp over a batch a."""
    b = _pade_coefficients(m)
    eye = np.eye(a.shape[-1])
    a2 = _matmul(a, a)
    if m < 13:
        powers = [eye, a2]
        while len(powers) <= m // 2:
            powers.append(_matmul(powers[-1], a2))
        u = _matmul(a, sum(b[2 * j + 1] * p for j, p in enumerate(powers)))
        v = sum(b[2 * j] * p for j, p in enumerate(powers))
    else:
        a4 = _matmul(a2, a2)
        a6 = _matmul(a4, a2)
        u = _matmul(a, _matmul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
                    + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (_matmul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    return np.linalg.solve(v - u, v + u)


def _expm_pade(x):
    """Scaling and squaring over a flat (M, N, N) batch.

    Each matrix gets the lowest degree whose bound covers its 1-norm; above
    the degree-13 bound it is scaled by 2^-s to fit and squared s times.
    """
    norm = np.max(np.sum(np.abs(x), axis=-2), axis=-1)
    degrees, thetas = list(_PADE_THETA), list(_PADE_THETA.values())
    group = np.minimum(np.searchsorted(thetas, norm), len(degrees) - 1)
    squarings = np.ceil(np.log2(np.maximum(norm / thetas[-1], 1.0))).astype(int)
    out = np.empty_like(x)
    for i, m in enumerate(degrees):
        sel = group == i
        if np.any(sel):
            out[sel] = _pade(x[sel] * 0.5 ** squarings[sel][:, None, None], m)
    for k in range(int(np.max(squarings, initial=0))):
        sel = squarings > k
        out[sel] = _matmul(out[sel], out[sel])
    return out


def expm(x):
    """Matrix exponential, vectorized over leading axes.

    N = 2 uses the closed form (exact special-unitary output for Lie
    element input); other N one batched scaling-and-squaring Pade, which
    takes any complex matrix.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-1] == 2:
        return _expm2(x)
    flat = x.reshape((-1,) + x.shape[-2:])
    return _expm_pade(flat).reshape(x.shape)


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
