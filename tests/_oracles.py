"""Defect measures the tests hold the library's output to.

Nothing in the package needs them at run time: they check that a result
lies in the set it claims (the Lie algebra) or satisfies an identity the
formulas must keep (Bianchi).
"""

import numpy as np

from gaugeflow.algebra import dagger, maxabs, trace
from gaugeflow.field import cov_deriv_curvature


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
