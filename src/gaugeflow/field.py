"""Gauge fields on flat tori: representations, curvature, action.

A gauge field A assigns to each point x of the torus a d-tuple of Lie
elements A_mu(x) (connection coefficients in a fixed trivialization; the
torus is flat, so there are no Christoffel terms anywhere). Every field
implements one batched interface, `coord_jets(x, order)`: A and its
derivative tensors through `order` at points x (..., d), as su_basis
coordinates (`algebra`), entry k of shape (..., d^k, d, K) with
K = N^2 - 1. Three representations:

* `AnalyticField`: finite Fourier series with exact derivatives. Its
  coefficients must lie in su(N) (ValueError otherwise); they are held as
  su_basis coordinates, so each order is one real product of trig
  weights with a coordinate table.
* `LatticeField`: su_basis coordinates on an m^d grid, in the layout of
  the flow state (ValueError for matrices outside su(N)); derivatives by
  4th-order central stencils, off-grid reads by periodic cubic spline
  interpolation of the coordinates, a block of points at a time.
* `TransformedField`: the gauge transform of another field by a gauge map
  psi = e_1 ... e_J, e_j = exp(theta_j T_j), evaluated pointwise exactly (no
  sampling error) in coordinates: each factor rotates the jets of A by the
  real K x K matrix Ad(e_j^-1) and adds d theta_j T_j. A direction T_j
  outside su(N) raises ValueError.

A field is read only in coordinates: `generator` contracts them with a
velocity, and a caller that needs matrices forms them once with
`algebra.lie_matrix`.

Derived local quantities (`curvature`, `cov_deriv_curvature`,
`cov_div_curvature`) are free functions of `coord_jets`, so they work for
every representation. They run in coordinates, every product an
`algebra.bracket`, over blocks of points the size of one lattice gather
block, and return coordinates: a caller contracts them first and forms
matrices once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import pathlib
from fractions import Fraction

import numpy as np

from .algebra import adjoint, bracket, exp_lie, lie_coords, lie_matrix, random_lie


class Torus:
    """Flat torus (R/LZ)^d with d in {2, 3}."""

    def __init__(self, d=2, L=1.0):
        if d not in (2, 3):
            raise ValueError("torus dimension must be 2 or 3")
        if not L > 0:
            raise ValueError("torus side must be positive")
        self.d, self.L = int(d), float(L)

    @property
    def volume(self):
        return self.L**self.d

    def to_dict(self):
        return {"d": self.d, "L": self.L}

    @classmethod
    def from_dict(cls, obj):
        return cls(obj["d"], obj["L"])

    def __eq__(self, other):
        return isinstance(other, Torus) and (self.d, self.L) == (other.d, other.L)


def _trig(x, w, phases, order):
    """d^order/da^order of cos a (phase 0) or sin a (phase 1) at a = x . w_m, shape (..., M)."""
    ang = np.asarray(x, dtype=float) @ w.T
    iscos, issin = phases == 0, phases != 0
    # cos -> -sin -> -cos -> sin and sin -> cos -> -sin -> -cos
    out = np.empty_like(ang)
    if order % 2:
        out[..., iscos] = -np.sin(ang[..., iscos])
        out[..., issin] = np.cos(ang[..., issin])
    else:
        out[..., iscos] = np.cos(ang[..., iscos])
        out[..., issin] = np.sin(ang[..., issin])
    return -out if order >= 2 else out


class ScalarFourier:
    """Real scalar function on the torus: c0 + sum_m c_m trig(2 pi k_m.x / L).

    Carries exact derivatives to third order and closed-form heat evolution;
    used for curve functionals L_f and for gauge-map angles.
    """

    def __init__(self, torus, kvecs, coeffs, phases, const=0.0):
        self.torus = torus
        self.kvecs = np.asarray(kvecs, dtype=float).reshape(-1, torus.d)
        self.coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        self.phases = np.asarray(phases, dtype=int).reshape(-1)  # 0 cos, 1 sin
        self.const = float(const)
        self._w = 2.0 * np.pi * self.kvecs / torus.L  # (M, d)

    @classmethod
    def random(cls, rng, torus, modes=3, amplitude=1.0, kmax=2):
        kvecs, phases = [], []
        while len(kvecs) < modes:
            k = rng.integers(-kmax, kmax + 1, size=torus.d)
            if np.any(k):
                kvecs.append(k)
                phases.append(rng.integers(0, 2))
        coeffs = amplitude * rng.standard_normal(modes)
        coeffs /= np.sum(np.asarray(kvecs, dtype=float) ** 2, axis=1)
        return cls(torus, np.array(kvecs), coeffs, np.array(phases))

    def value(self, x):
        return self.const + _trig(x, self._w, self.phases, 0) @ self.coeffs

    def jets(self, x, order):
        """The value and the derivative tensors (..., d^k) through `order` <= 3 at x, from
        one table of angles: one sine and one cosine per angle serve every order."""
        ang = np.asarray(x, dtype=float) @ self._w.T
        cos, sin = np.cos(ang), np.sin(ang)
        iscos = self.phases == 0
        # cos -> -sin -> -cos -> sin and sin -> cos -> -sin -> -cos
        cycle = [np.where(iscos, cos, sin), np.where(iscos, -sin, cos)]
        cycle += [-cycle[0], -cycle[1]]
        out = [self.const + cycle[0] @ self.coeffs]
        for k in range(1, order + 1):
            axes = "abc"[:k]
            spec = "...m," + ",".join("m" + a for a in axes) + "->..." + axes
            out.append(np.einsum(spec, cycle[k % 4] * self.coeffs, *(self._w,) * k))
        return out

    def grad(self, x):
        return self.jets(x, 1)[1]

    def hess(self, x):
        return self.jets(x, 2)[2]

    def laplacian(self, x):
        t = _trig(x, self._w, self.phases, 2) * self.coeffs
        return t @ np.sum(self._w**2, axis=1)

    def decay_rates(self):
        """Heat decay rate (2 pi |k| / L)^2 per mode."""
        return np.sum(self._w**2, axis=1)

    def heat(self, s):
        """Solution of d_s f = Laplace f at time s with this initial value."""
        return ScalarFourier(
            self.torus,
            self.kvecs,
            self.coeffs * np.exp(-self.decay_rates() * s),
            self.phases,
            const=self.const,
        )

    def ds(self, s):
        """d_s of the heat evolution at time s, itself a scalar field."""
        rates = self.decay_rates()
        return ScalarFourier(
            self.torus, self.kvecs, -rates * np.exp(-rates * s) * self.coeffs, self.phases
        )


# ---------------------------------------------------------------------------
# gauge fields


class GaugeField:
    """Interface: torus, n and `coord_jets(x, order)`, A, dA, ..., d^order A at
    points x (..., d) as su_basis coordinates. Entry k has shape
    (..., d^k, d, K), the derivative axes first, and does not depend on
    `order`. `generator` derives from it.
    """

    torus: Torus
    n: int

    def generator(self, x, v):
        """su_basis coordinates (..., K) of A_mu(x) v^mu for x, v of shape (..., d)."""
        return np.einsum("...mk,...m->...k", self.coord_jets(x, 0)[0], v)


class AnalyticField(GaugeField):
    """Finite Fourier series A_mu(x) = sum_m C_m trig(2 pi k_m.x / L).

    Mode m carries its coefficient C_m in direction mu_m only. A C_m outside
    su(N) beyond roundoff raises ValueError.
    """

    def __init__(self, torus, n, kvecs=None, mus=None, coeffs=None, phases=None):
        self.torus, self.n = torus, int(n)
        d = torus.d
        self.kvecs = (
            np.zeros((0, d)) if kvecs is None else np.asarray(kvecs, dtype=float).reshape(-1, d)
        )
        m = len(self.kvecs)
        self.mus = np.zeros(m, dtype=int) if mus is None else np.asarray(mus, dtype=int)
        self.coeffs = (
            np.zeros((m, n, n), dtype=np.complex128)
            if coeffs is None
            else np.asarray(coeffs, dtype=np.complex128).reshape(m, n, n)
        )
        self.phases = np.zeros(m, dtype=int) if phases is None else np.asarray(phases, dtype=int)
        self._w = 2.0 * np.pi * self.kvecs / torus.L
        self._coords = lie_coords(self.coeffs, check=True)  # (M, K)
        k = self._coords.shape[1]
        # (M, d K): row m holds C_m's coordinates in the slot of direction mu_m
        slots = np.zeros((m, d, k))
        slots[np.arange(m), self.mus] = self._coords
        self._slots = slots.reshape(m, d * k)

    @classmethod
    def zero(cls, torus, n=2):
        return cls(torus, n)

    @classmethod
    def random_su(cls, rng, torus, n=2, modes=2, amplitude=0.2, kmax=2):
        """Seeded random field: `modes` Fourier modes per direction."""
        kvecs, mus, coeffs, phases = [], [], [], []
        for mu in range(torus.d):
            got = 0
            while got < modes:
                k = rng.integers(-kmax, kmax + 1, size=torus.d)
                if not np.any(k):
                    continue
                kvecs.append(k)
                mus.append(mu)
                phases.append(rng.integers(0, 2))
                coeffs.append(random_lie(rng, n, scale=amplitude) / np.sum(k.astype(float) ** 2))
                got += 1
        return cls(torus, n, np.array(kvecs), np.array(mus), np.stack(coeffs), np.array(phases))

    @classmethod
    def random_abelian(cls, rng, torus, n=2, modes=3, amplitude=0.2, kmax=2):
        """All coefficients proportional to one Lie direction (commuting)."""
        t_dir = random_lie(rng, n)
        t_dir = t_dir / np.max(np.abs(t_dir))
        kvecs, mus, coeffs, phases = [], [], [], []
        while len(kvecs) < modes:
            k = rng.integers(-kmax, kmax + 1, size=torus.d)
            if not np.any(k):
                continue
            kvecs.append(k)
            mus.append(rng.integers(0, torus.d))
            phases.append(rng.integers(0, 2))
            scale = amplitude * rng.standard_normal() / np.sum(k.astype(float) ** 2)
            coeffs.append(scale * t_dir)
        return cls(torus, n, np.array(kvecs), np.array(mus), np.stack(coeffs), np.array(phases))

    def _order_coords(self, x, order):
        """Coordinates (..., d^order, d, K) of d^order A: one real product of the
        trig derivative weights with the coefficient coordinates in their mu_m slots."""
        weights = _trig(x, self._w, self.phases, order)
        for _ in range(order):
            weights = weights[..., None, :] * self._w.T
        lead = weights.shape[:-1]
        out = weights.reshape(math.prod(lead), weights.shape[-1]) @ self._slots
        return out.reshape(lead + (self.torus.d, self._coords.shape[1]))

    def coord_jets(self, x, order=2):
        return [self._order_coords(x, k) for k in range(order + 1)]

    def generator(self, x, v):
        """One real product: sum_m trig_m(x) v^{mu_m} c_m with c_m the coefficient coordinates."""
        weights = _trig(x, self._w, self.phases, 0) * np.asarray(v, dtype=float)[..., self.mus]
        return weights @ self._coords

    @property
    def kmax(self):
        return int(np.max(np.abs(self.kvecs))) if len(self.kvecs) else 0

    def to_dict(self):
        modes = []
        for k, mu, c, ph in zip(self.kvecs, self.mus, self.coeffs, self.phases):
            modes.append(
                {
                    "k": [int(v) for v in k],
                    "mu": int(mu),
                    "phase": "cos" if ph == 0 else "sin",
                    "re": np.real(c).tolist(),
                    "im": np.imag(c).tolist(),
                }
            )
        return {"kind": "analytic", "torus": self.torus.to_dict(), "n": self.n, "modes": modes}

    @classmethod
    def from_dict(cls, obj):
        torus = Torus.from_dict(obj["torus"])
        modes = obj["modes"]
        if not modes:
            return cls(torus, obj["n"])
        kvecs = np.array([m["k"] for m in modes], dtype=float)
        mus = np.array([m["mu"] for m in modes], dtype=int)
        phases = np.array([0 if m["phase"] == "cos" else 1 for m in modes], dtype=int)
        coeffs = np.stack([np.array(m["re"]) + 1j * np.array(m["im"]) for m in modes])
        return cls(torus, obj["n"], kvecs, mus, coeffs, phases)


# --- lattice stencils (shared with the heat-flow module) -------------------


@functools.cache
def _periodic_shifts(m, axis, ndim):
    """The periodic images of an axis of extent m and the shifts that read them.

    Returns the sites -2 .. m + 1 wrapped into 0 .. m - 1, and the index
    tuples of the shifts by +1, -1, +2 and -2 sites into an array of `ndim`
    axes padded by them along `axis`.
    """
    index = np.arange(-2, m + 2) % m
    index.flags.writeable = False
    lead = (slice(None),) * (axis % ndim)
    return index, tuple(lead + (slice(k, k + m),) for k in (3, 1, 4, 0))


def stencil_d1(arr, axis, a):
    """4th-order central first derivative along a periodic site axis."""
    index, (f1, b1, f2, b2) = _periodic_shifts(arr.shape[axis], axis, arr.ndim)
    # one copy padded by two periodic images per side; shifts are views of it
    pad = arr.take(index, axis)
    # (8 (f1 - b1) - (f2 - b2)) / (12 a) with two temporaries
    out = pad[f1] - pad[b1]
    out *= 8.0
    out -= pad[f2] - pad[b2]
    out /= 12.0 * a
    return out


@functools.cache
def central_weights(deriv, order):
    """(offsets, integer weights, denominator) of the central difference of
    even `order` for the deriv-th derivative: f^(deriv)(0) ~ sum_i w_i f(o_i h)
    / (denominator h^deriv), the offsets of nonzero weight in descending order.
    Fornberg's recursion (Math. Comp. 51 (1988) 699-706) in exact fractions.
    A tuple `deriv` asks for the mixed partial: the product of its axes' stencils."""
    if isinstance(deriv, tuple):
        offsets, weights, dens = zip(*(central_weights(m, order) for m in deriv))
        return (tuple(itertools.product(*offsets)),
                tuple(map(math.prod, itertools.product(*weights))), math.prod(dens))
    if deriv < 1 or order < 2 or order % 2:
        raise ValueError(f"no central stencil of order {order} for derivative {deriv}")
    r = (deriv + 1) // 2 - 1 + order // 2
    x = range(-r, r + 1)
    # c[j][k]: weight of node x[j] for the k-th derivative over the nodes so far
    c = [[Fraction(0)] * (deriv + 1) for _ in x]
    c[0][0] = c1 = Fraction(1)
    for i in range(1, len(x)):
        c2 = math.prod(x[i] - x[j] for j in range(i))
        for k in range(min(i, deriv), -1, -1):
            c[i][k] = c1 * (k * c[i - 1][k - 1] - x[i - 1] * c[i - 1][k]) / c2
        for j in range(i):
            for k in range(min(i, deriv), -1, -1):
                c[j][k] = (x[i] * c[j][k] - k * c[j][k - 1]) / (x[i] - x[j])
        c1 = c2
    den = math.lcm(*(row[deriv].denominator for row in c))
    kept = [(o, int(row[deriv] * den)) for o, row in zip(x[::-1], c[::-1]) if row[deriv]]
    return tuple(o for o, _ in kept), tuple(w for _, w in kept), den


def central_difference(values_at, h, deriv=1, order=2):
    """The deriv-th derivative at step h by `central_weights(deriv, order)`;
    `values_at(offsets)` returns the values at its offsets (units of h) in order.
    The bits are those of the stencil written out: terms summed in offset order
    from the first, unit weights as plain sums, the scale as 12 * h * h."""
    offsets, weights, scale = central_weights(deriv, order)
    terms = zip(weights, values_at(offsets))
    w, v = next(terms)
    total = v if w == 1 else -v if w == -1 else w * v
    for w, v in terms:
        term = v if abs(w) == 1 else abs(w) * v
        total = total + term if w > 0 else total - term
    power = sum(deriv) if isinstance(deriv, tuple) else deriv
    return total / math.prod((scale,) + (h,) * power)  # left to right


def spline_filter(values, d):
    """Periodic cubic B-spline coefficients of real samples on the trailing d site axes.

    Interpolation at the sites asks sum_k c_k beta3(i - k) = f_i, a circulant
    system whose symbol along each axis is (4 + 2 cos theta) / 6 (Unser,
    IEEE SPM 16 (1999)), so one real FFT division solves it for every leading
    component at once.
    """
    sites, axes = values.shape[-d:], tuple(range(-d, 0))
    symbol = 1.0
    for i, m in enumerate(sites):
        # the real FFT keeps the m // 2 + 1 nonnegative frequencies of the last axis
        freqs = np.arange(m if i < d - 1 else m // 2 + 1)
        symbol = np.multiply.outer(symbol, (4.0 + 2.0 * np.cos(2.0 * np.pi * freqs / m)) / 6.0)
    return np.fft.irfftn(np.fft.rfftn(values, axes=axes) / symbol, s=sites, axes=axes)


# floats gathered per block of points: small enough to stay in cache
_GATHER_FLOATS = 1 << 17


def _gather_block(d, components):
    """Points per block of a 4^d-tap gather of `components` floats a tap."""
    return max(1, _GATHER_FLOATS // (4**d * components))


@functools.cache
def _jet_keys(d):
    """The grid keys a lattice read takes for orders 0, 1 and 2, and the index
    that spreads the order-2 keys (a <= b) over the (d, d) derivative axes."""
    second = [("dd", a, b) for a in range(d) for b in range(a, d)]
    pick = [[second.index(("dd", min(a, b), max(a, b))) for b in range(d)] for a in range(d)]
    return (("val",), tuple(("d", a) for a in range(d)), tuple(second)), pick


def _cubic_bspline_weights(t):
    """Weights of the taps at offsets -1, 0, 1, 2 from the cell for fractions t in [0, 1)."""
    t2, t3 = t * t, t * t * t
    return np.stack(
        [(1.0 - t) ** 3, 3.0 * t3 - 6.0 * t2 + 4.0, -3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0, t3],
        axis=-1,
    ) / 6.0


class LatticeField(GaugeField):
    """Gauge field sampled on a uniform m^d grid, x_i = a i, a = L / m.

    Held as su_basis coordinates `coords` (d, K, *grid), the flow state's
    layout. `LatticeField(torus, values)` takes matrices grid + (d, N, N),
    refusing a non-su(N) part beyond roundoff (ValueError), and `values`
    derives them back. Besides `coords` it keeps only spline tables of
    coordinates, built on first read; each key's stencil grid is formed while
    its columns are filled, then dropped. Off-grid reads interpolate the
    tables with periodic cubic splines, a block of points at a time.
    """

    def __init__(self, torus, values):
        values = np.asarray(values, dtype=np.complex128)
        d = torus.d
        if values.ndim != d + 3 or len(set(values.shape[:d])) != 1:
            raise ValueError("grid must have equal extent per axis")
        if values.shape[d] != d:
            raise ValueError("direction axis mismatch")
        if values.shape[-1] != values.shape[-2]:
            raise ValueError("matrix axes mismatch")
        coords = np.moveaxis(lie_coords(values, check=True), (-2, -1), (0, 1))
        self._setup(torus, np.ascontiguousarray(coords))

    @classmethod
    def from_coords(cls, torus, coords):
        """The lattice of su_basis coordinates (d, K, *grid), held as given."""
        field = cls.__new__(cls)
        field._setup(torus, coords)
        return field

    def _setup(self, torus, coords):
        self.torus, self.coords = torus, coords
        self.n = math.isqrt(coords.shape[1] + 1)
        self.m = coords.shape[2]
        self.a = torus.L / self.m
        self._splines = {}

    @property
    def values(self):
        """The matrices (*grid, d, N, N) of the coordinates."""
        return lie_matrix(np.moveaxis(self.coords, (0, 1), (-2, -1)))

    @classmethod
    def sample(cls, field, m):
        """Sample any gauge field's coordinates on an m^d grid (exact at the sites)."""
        torus = field.torus
        axes = [np.arange(m) * (torus.L / m)] * torus.d
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        coords = np.moveaxis(field.coord_jets(pts, 0)[0], (-2, -1), (0, 1))
        return cls.from_coords(torus, np.ascontiguousarray(coords))

    def _grid(self, key, first=None):
        """The grid of `key`, formed anew: "val" is `coords`, ("d", a) their
        partial along site axis a and ("dd", a, b) the partial of ("d", a)
        along b, with `first(a)` giving ("d", a) when the caller holds it."""
        if key == "val":
            return self.coords
        if key[0] == "d":
            return stencil_d1(self.coords, 2 + key[1], self.a)
        if key[0] == "dd":
            inner = first(key[1]) if first else self._grid(("d", key[1]))
            return stencil_d1(inner, 2 + key[2], self.a)
        raise KeyError(key)

    def _spline(self, keys):
        """Spline coefficients of the grids `keys`, one (m^d, components) table,
        filled a key at a time: one grid, one `spline_filter`, one block of
        columns. A second-derivative table forms each first partial once."""
        if keys not in self._splines:
            d, width = self.torus.d, self.coords.shape[0] * self.coords.shape[1]
            table = np.empty((self.m**d, len(keys) * width))
            first = functools.cache(lambda a: self._grid(("d", a)))
            for i, key in enumerate(keys):
                grid = self._grid(key, first)
                coeff = spline_filter(grid.reshape((width,) + grid.shape[-d:]), d)
                table[:, i * width:(i + 1) * width] = coeff.reshape(width, -1).T
            self._splines[keys] = table
        return self._splines[keys]

    def _interp(self, keysets, x):
        """Coordinates of the grids of each key tuple in `keysets` at points x:
        one array (..., len(keys), d, K) per tuple.

        A 4^d-tap gather, a block of points at a time: each block builds its
        tap index and weight table once and reads every component of every
        key with them, one gather per tuple, so no temporary outgrows a block.
        """
        tables = [self._spline(keys) for keys in keysets]
        d, m = self.torus.d, self.m
        x = np.asarray(x, dtype=float)
        u = x.reshape(-1, d) / self.a
        outs = [np.empty((len(u), table.shape[1])) for table in tables]
        block = _gather_block(d, max(table.shape[1] for table in tables))
        for lo in range(0, len(u), block):
            part = slice(lo, lo + block)
            cell = np.floor(u[part])
            taps = (cell.astype(np.int64)[..., None] + np.arange(-1, 3)) % m  # (B, d, 4)
            weights = _cubic_bspline_weights(u[part] - cell)
            rows, w = taps[:, 0], weights[:, 0]
            for ax in range(1, d):
                rows = (rows[:, :, None] * m + taps[:, ax, None, :]).reshape(len(cell), -1)
                w = (w[:, :, None] * weights[:, ax, None, :]).reshape(len(cell), -1)
            for out, table in zip(outs, tables):
                out[part] = np.einsum("pk,pkc->pc", w, np.take(table, rows, axis=0))
        return [out.reshape(x.shape[:-1] + (len(keys),) + self.coords.shape[:2])
                for out, keys in zip(outs, keysets)]

    def _jets(self, x, orders):
        """The coordinates of each order in `orders` at points x, from one `_interp` pass."""
        keys, pick = _jet_keys(self.torus.d)
        reads = self._interp([keys[k] for k in orders], x)
        return [r[..., 0, :, :] if k == 0 else r[..., pick, :, :] if k == 2 else r
                for k, r in zip(orders, reads)]

    def coord_jets(self, x, order=2):
        return self._jets(x, range(order + 1))

    def second_all(self, x):
        """The matrices (..., d, d, d, N, N) of d^2 A at points x, read from the
        second-derivative table alone."""
        return lie_matrix(self._jets(x, (2,))[0])

    # --- serialization: JSON header + flat little-endian binary ---

    def save(self, base):
        base = pathlib.Path(base)
        header = {
            "kind": "lattice",
            "torus": self.torus.to_dict(),
            "n": self.n,
            "grid": self.m,
            "dtype": "complex128-little-endian",
            "layout": "C order: site indices (row-major), direction mu, matrix row, matrix column",
            "data": base.with_suffix(".bin").name,
        }
        base.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
        base.with_suffix(".bin").write_bytes(self.values.astype("<c16", copy=False).tobytes())

    @classmethod
    def load(cls, base):
        base = pathlib.Path(base)
        head, body = base.with_suffix(".json"), base.with_suffix(".bin")
        header = json.loads(head.read_text())
        for key, want in (("kind", "lattice"), ("dtype", "complex128-little-endian")):
            if header.get(key) != want:
                raise ValueError(f"{head}: {key} is {header.get(key)!r}, expected {want!r}")
        torus = Torus.from_dict(header["torus"])
        m, n, d = header["grid"], header["n"], torus.d
        shape = (m,) * d + (d, n, n)
        data, size = body.read_bytes(), 16 * int(np.prod(shape))
        if len(data) != size:
            raise ValueError(f"{body}: {len(data)} bytes, but grid {m}, d {d}, n {n} "
                             f"in {head.name} need {size}")
        return cls(torus, np.frombuffer(data, "<c16").reshape(shape).astype(np.complex128))


# ---------------------------------------------------------------------------
# gauge maps and transformed fields


class GaugeMap:
    """Smooth map psi: torus -> SU(N), a product e_1 ... e_J of factors
    e_j = exp(theta_j(x) T_j).

    Each factor has a fixed Lie direction T_j and a scalar Fourier angle
    theta_j, so psi's derivatives are exact: d e_j = e_j T_j d theta_j.
    """

    def __init__(self, torus, n, factors):
        self.torus, self.n = torus, int(n)
        self.factors = list(factors)  # [(ScalarFourier, (n, n) Lie direction)]

    @classmethod
    def random(cls, rng, torus, n=2, factors=2, modes=2, amplitude=0.7, kmax=1):
        fs = []
        for _ in range(factors):
            theta = ScalarFourier.random(rng, torus, modes=modes, amplitude=amplitude, kmax=kmax)
            t_dir = random_lie(rng, n)
            t_dir = t_dir / np.sqrt(np.sum(np.abs(t_dir) ** 2))
            fs.append((theta, t_dir))
        return cls(torus, n, fs)


class TransformedField(GaugeField):
    """Gauge transform A' = psi^-1 A psi + psi^-1 d psi, evaluated exactly in
    su_basis coordinates.

    For psi = e_1 ... e_J, e_j = exp(theta_j T_j), and the coordinates a, t_j
    of A and T_j:

        A' = R_J (... (R_1 a + d theta_1 t_1) ...) + d theta_J t_J,

    with R_j = Ad(e_j^-1) = exp(-theta_j ad t_j) a real K x K rotation per
    point, built from e_j by `algebra.adjoint`. A direction T_j outside su(N)
    raises ValueError when the field is read.
    """

    def __init__(self, base, gauge_map):
        if base.n != gauge_map.n:
            raise ValueError("gauge rank mismatch")
        self.base, self.map = base, gauge_map
        self.torus, self.n = base.torus, base.n

    def coord_jets(self, x, order=2):
        """One factor at a time, on jets held points last, (d^k, d, K, P): with
        ad = ad t_j, R acts on a jet u as

            d_a (R u) = R (d_a u - d_a theta ad u),
            d_a d_b (R u) = R (d_a d_b u - d_a theta ad d_b u - d_b theta ad d_a u
                               - d_a d_b theta ad u + d_a theta d_b theta ad^2 u).
        """
        x = np.asarray(x, dtype=float)
        d, k = self.torus.d, self.n * self.n - 1
        pts = x.reshape(-1, d)
        u = [np.ascontiguousarray(np.moveaxis(jet, 0, -1))
             for jet in self.base.coord_jets(pts, order)]
        for theta, t_dir in self.map.factors:
            t = lie_coords(t_dir, check=True)
            th = [np.moveaxis(jet, 0, -1) for jet in theta.jets(pts, order + 1)]
            if not any(np.any(jet) for jet in u):  # R 0 = 0: a pure gauge's first factor
                u = [th[j + 1][..., None, :] * t[:, None] for j in range(order + 1)]
                continue
            ad = bracket(t, np.eye(k)).T  # ad @ u = [t, u]
            r = np.ascontiguousarray(np.moveaxis(adjoint(exp_lie(th[0][:, None] * t)), 0, -1))
            v = [u[0]]
            if order >= 1:
                w0 = ad @ u[0]
                v.append(u[1] - th[1][:, None, None] * w0)
            if order >= 2:
                w1 = ad @ u[1]
                g1 = th[1][:, None, None, None]
                v.append(u[2] - g1 * w1[None] - g1.swapaxes(0, 1) * w1[:, None]
                         - th[2][:, :, None, None] * w0 + (g1 * th[1][:, None, None]) * (ad @ w0))
            u = [np.einsum("abp,...bp->...ap", r, vk) + th[j + 1][..., None, :] * t[:, None]
                 for j, vk in enumerate(v)]
        return [np.moveaxis(jet, -1, 0).reshape(x.shape[:-1] + jet.shape[:-1]) for jet in u]


# ---------------------------------------------------------------------------
# local differential-geometric quantities


def _blockwise(local, field, x, order):
    """local(*field.coord_jets(block, order)), a tuple of arrays, over blocks of
    the points x (..., d): each output's blocks joined, with x's leading axes.
    A block is one `_interp` block of a lattice field's order-2 read."""
    x = np.asarray(x, dtype=float)
    d = field.torus.d
    pts = x.reshape(-1, d)
    step = _gather_block(d, len(_jet_keys(d)[0][2]) * d * (field.n**2 - 1))
    outs = None
    for lo in range(0, max(len(pts), 1), step):
        got = local(*field.coord_jets(pts[lo:lo + step], order))
        if outs is None:
            outs = [np.empty((len(pts),) + g.shape[1:]) for g in got]
        for out, g in zip(outs, got):
            out[lo:lo + step] = g
    return [out.reshape(x.shape[:-1] + out.shape[1:]) for out in outs]


def _curvature(a, p):
    """F_mn from the coordinates of A (..., d, K) and of its partials (..., d, d, K)."""
    return p - np.swapaxes(p, -3, -2) + bracket(a[..., :, None, :], a[..., None, :, :])


def _curvature_pair(a, p, s):
    """F_mn and nabla_l F_mn from the coordinates of A and its first two derivative tensors.

    d_l F_mn = y_lmn - y_lnm with y_lmn = d_l d_m A_n + [d_l A_m, A_n].
    """
    f = _curvature(a, p)
    y = s + bracket(p[..., :, :, None, :], a[..., None, None, :, :])
    return f, y - np.swapaxes(y, -3, -2) + bracket(a[..., :, None, None, :], f[..., None, :, :, :])


def _divergence(a, p, s):
    """(div F)_n from the coordinates of A and its first two derivative tensors,
    formed without nabla F:

    div F_n = sum_m (d_m d_m A_n - d_n d_m A_m) + [sum_m d_m A_m, A_n]
              + sum_m [A_m, d_m A_n + F_mn].
    """
    g = p + _curvature(a, p)
    out = np.einsum("...mmnk->...nk", s) - np.einsum("...nmmk->...nk", s)
    out += bracket(np.einsum("...mmk->...k", p)[..., None, :], a)
    out += np.sum(bracket(a[..., :, None, :], g), axis=-3)
    return out


def curvature(field, x):
    """F_mn = d_m A_n - d_n A_m + [A_m, A_n] as su_basis coordinates (..., d, d, K).

    F_mn and F_nm are formed from the same terms with opposite signs.
    """
    return _blockwise(lambda a, p: (_curvature(a, p),), field, x, 1)[0]


def _curvature_and_cov_deriv(field, x):
    """Coordinates of F_mn and nabla_l F_mn at x from one read of the field's jets."""
    return tuple(_blockwise(_curvature_pair, field, x, 2))


def cov_deriv_curvature(field, x):
    """nabla_l F_mn = d_l F_mn + [A_l, F_mn] as su_basis coordinates (..., d, d, d, K).

    Index order (l, m, n). The torus is flat, so the covariant derivative
    has no Christoffel part.
    """
    return _curvature_and_cov_deriv(field, x)[1]


def cov_div_curvature(field, x):
    """(div F)_n = sum_m nabla_m F_mn as su_basis coordinates (..., d, K)."""
    return _blockwise(lambda *jets: (_divergence(*jets),), field, x, 2)[0]


def lattice_curvature_grid(field):
    """On-grid curvature coordinates (*grid, d, d, K) of a LatticeField via 4th-order stencils."""
    d, a = field.torus.d, field.a
    p = np.stack([stencil_d1(field.coords, 2 + ax, a) for ax in range(d)])  # (d, d, K, *grid)
    x = np.moveaxis(field.coords, (0, 1), (-2, -1))
    return _curvature(x, np.moveaxis(p, (0, 1, 2), (-3, -2, -1)))


def _curvature_action(torus, f):
    """Riemann sum of -1/2 sum_mn tr(F_mn F_mn) = 1/4 sum_mn |F_mn|^2 over the sites of
    curvature coordinates f, as tr(T_a T_b) = -delta_ab / 2."""
    return float(0.25 * np.mean(np.sum(f * f, axis=(-3, -2, -1))) * torus.volume)


def ym_action(field, samples=None):
    """Yang-Mills action -1/2 integral sum_mn tr(F_mn F_mn) dx >= 0.

    Lattice fields use the on-grid stencil curvature and a Riemann sum;
    other representations sample a grid fine enough that the periodic
    Riemann sum is spectrally accurate.
    """
    torus = field.torus
    if isinstance(field, LatticeField):
        f = lattice_curvature_grid(field)
    else:
        if samples is None:
            kmax = field.kmax if isinstance(field, AnalyticField) else 12
            samples = max(32, 4 * kmax + 3)
        axes = [np.arange(samples) * (torus.L / samples)] * torus.d
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        f = curvature(field, pts)
    return _curvature_action(torus, f)


# ---------------------------------------------------------------------------
# named field library and serialization


def make_field(spec, torus, n=2):
    """Build a gauge field from a JSON-style dict.

    Kinds: zero | random_su | abelian | pure_gauge | lattice (wraps a base
    spec with {"grid": m}); a random kind's other keys go to its constructor.
    """
    kind = spec.get("kind", "random_su")
    rng = np.random.default_rng(np.random.SeedSequence(spec.get("seed", 0)))
    params = {key: value for key, value in spec.items() if key not in ("kind", "seed")}
    if kind == "zero":
        return AnalyticField.zero(torus, n)
    if kind == "random_su":
        return AnalyticField.random_su(rng, torus, n=n, **params)
    if kind == "abelian":
        return AnalyticField.random_abelian(rng, torus, n=n, **params)
    if kind == "pure_gauge":
        psi = GaugeMap.random(rng, torus, n=n, **params)
        return TransformedField(AnalyticField.zero(torus, n), psi)
    if kind == "lattice":
        return LatticeField.sample(make_field(spec["base"], torus, n), spec.get("grid", 64))
    raise ValueError(f"unknown field kind {spec.get('kind')!r}")


def save_field(field, base):
    base = pathlib.Path(base)
    if isinstance(field, LatticeField):
        field.save(base)
    elif isinstance(field, AnalyticField):
        base.with_suffix(".json").write_text(
            json.dumps(field.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    else:
        raise TypeError("only analytic and lattice fields serialize")
