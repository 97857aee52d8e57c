"""Shrunken experiment configuration for fast end-to-end CLI runs.

Grids, step counts, curve counts and sample counts are cut far below the
defaults so the full `all` pipeline finishes in seconds. The tolerances
block relaxes exactly the checks whose accuracy scales with grid or step
resolution (lattice truncation is ~16x worse at half the grid); everything
else is held to the default tolerance. Used by the CLI plumbing tests and
by the byte-determinism acceptance criterion, which compares two runs of
the same reduced pipeline rather than asserting accuracy.
"""

REDUCED_CONFIG = {
    "schema": 1,
    "curves": [
        {"amplitude": 0.15, "kind": "fourier", "modes": 3, "seed": 201},
        {"amplitude": 0.15, "kind": "fourier", "modes": 3, "seed": 202},
        {"amplitude": 0.15, "kind": "fourier", "modes": 3, "seed": 203},
    ],
    "transport": {"triples": 8},
    "duhamel": {"pairs": 3},
    "gradient": {"cases": 4, "free_end_cases": 2, "riesz_curves": 1, "riesz_pairs": 2},
    "kernels": {"curves": 1, "fd_eps": 0.0002, "pairs": 2, "step": 0.00048828125},
    "laplacian": {"curves": 2, "step": 0.00048828125},
    "cesaro": {
        "checkpoints": [4, 8],
        "curves": 1,
        "eps": 0.001,
        "n_modes": 8,
        "step": 0.001953125,
    },
    "functional": {"curves": 1},
    "heatflow": {
        "critical_steps": 5,
        "ds": 5e-05,
        "grid": 32,
        "order_space": {"ds": 0.0002, "grids": [8, 16], "k": [1, 0], "total_s": 0.02},
        "order_time": {"ds": 0.0008, "grid": 8, "k": [2, 0], "steps": 10},
        "save_every": 20,
        "steps": 80,
        "su2_grid": 16,
        "su2_steps": 20,
    },
    "theorem": {
        "checkpoint_steps": [40, 80],
        "curves": 2,
        "ds": 5e-05,
        "grid": 32,
        "save_every": 20,
        "step": 0.00048828125,
        "steps": 100,
    },
    "r_diagnostic": {
        "checkpoint_step": 24,
        "ds": 5e-05,
        "grid": 32,
        "r_divisions": 8,
        "save_every": 4,
        "step": 0.00048828125,
        "steps": 28,
    },
    "tolerances": {
        "abelian_flow": 1e-05,
        "cesaro_error": 0.25,
        "critical_pure_gauge_drift": 1e-05,
        "fd_consistency": 0.005,
        "forward_consistency": 1e-05,
        "r_outside_slope": 0.0001,
    },
}
