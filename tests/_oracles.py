"""Defect measures and readers the tests hold the library's output to.

Nothing in the package needs them at run time: they check that a result
lies in the set it claims (the Lie algebra), satisfies an identity the
formulas must keep (Bianchi), or has the inner products a basis claims,
and they read back the fields the package saves.
"""

import json
import pathlib

import numpy as np

from gaugeflow.algebra import dagger, maxabs, trace
from gaugeflow.field import AnalyticField, LatticeField, cov_deriv_curvature
from gaugeflow.path import gauss_legendre


def commutator(x, y):
    """[x, y] = xy - yx."""
    return x @ y - y @ x


def lie_defect(x):
    """How far x is from anti-Hermitian traceless."""
    return max(maxabs(x + dagger(x)), maxabs(trace(x)))


def bianchi_residual(field, x):
    """Max norm of the cyclic sum nabla_l F_mn + nabla_m F_nl + nabla_n F_lm."""
    df = cov_deriv_curvature(field, x)
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


def load_field(base):
    """Read a field written by `gaugeflow.field.save_field`."""
    base = pathlib.Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    if header["kind"] == "lattice":
        return LatticeField.load(base)
    if header["kind"] == "analytic":
        return AnalyticField.from_dict(header)
    raise ValueError(f"unknown serialized field kind {header['kind']!r}")
