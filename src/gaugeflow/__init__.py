"""Numerical laboratory for gauge transport and its curve-space calculus.

Layers, bottom up:

  algebra    matrix Lie-group/-algebra kernels (batched, closed-form su(2))
  path       curves on the torus, variation fields, quadrature
  field      gauge fields: Fourier series, lattices, gauge maps, curvature
  transport  parallel transport along curves and its derivatives
  levy       curve-space gradient, second-derivative kernels, Levy Laplacian
  heatflow   lattice gradient flow of the gauge action
  experiments  seeded end-to-end verification experiments
  cli        `gaugeflow` command line driving the experiments
"""

from .algebra import (
    commutator,
    dagger,
    expm,
    fiber_metric,
    group_defect,
    maxabs,
    project_lie,
    random_fiber,
    random_group,
    random_lie,
    su_basis,
    trace,
    unitarize,
)
from .path import (
    Circle,
    ConcatCurve,
    Curve,
    CurveField,
    Line,
    PerturbedCurve,
    PlateauCurve,
    PolyReparam,
    ReparamCurve,
    SineReparam,
    TrigCurve,
    TrigField,
    concat,
    curve_integral,
    gauss_legendre,
    h0_inner,
    h1_inner,
    make_curve,
    perturb,
    plateau,
    random_field,
    random_vanishing_field,
    reparametrize,
    sine_basis,
)
from .field import (
    AnalyticField,
    GaugeField,
    GaugeMap,
    LatticeField,
    ScalarFourier,
    Torus,
    TransformedField,
    cov_deriv_curvature,
    cov_div_curvature,
    curvature,
    gauge_transform,
    lattice_curvature_grid,
    load_field,
    make_field,
    save_field,
    ym_action,
)
from .transport import (
    TransportContext,
    duhamel_derivative,
    propagator,
    transport,
    transport_derivative,
    transport_s_derivative,
)
from .levy import (
    CesaroResult,
    GradientField,
    KernelTriple,
    LevyLaplacian,
    assemble_bilinear,
    cesaro_levy_estimate,
    cesaro_second_trace,
    h0_gradient_transport,
    levy_divergence,
    levy_laplacian_transport,
    second_kernels,
)
from .heatflow import (
    BlowUp,
    CflViolation,
    FlowTrajectory,
    abelian_oracle,
    cfl_bound,
    flow,
    ym_rhs,
)
from .experiments import (
    ALL_ORDER,
    DEFAULT_CONFIG,
    EXPERIMENTS,
    ConfigError,
    resolve_config,
    rng_for,
    run_experiment,
    validate_config,
)

__version__ = "0.1.0"
