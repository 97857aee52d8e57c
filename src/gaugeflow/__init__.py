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

The package root exports nothing; import names from the submodules, e.g.
`from gaugeflow.transport import transport`.
"""
