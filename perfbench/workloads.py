"""The four benchmark workloads and the config each one runs with.

Each workload is a list of gaugeflow subcommands run one after another in
one process, plus the size overrides written to the `--config` file. The
overrides only shrink counts, step numbers and snapshot spacing; grids,
quadrature steps and every tolerance stay at `DEFAULT_CONFIG`, so each
check is held to its default accuracy. The sizes are chosen so that one
iteration takes a few seconds on a 2-core machine while each workload's
time stays concentrated in the layer it was chosen for.

The workload seed orders the subcommands: seed 42 runs them in
`gaugeflow all` order and any other seed runs a seeded shuffle of them.
The numerical inputs (field and curve specs, the experiments' master
`--seed`) stay at `DEFAULT_CONFIG` and 42 for every workload seed, because
gaugeflow's check tolerances are calibrated to those inputs and fail at
many others; README.md records the measurements.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 42

_CURVES = [
    {"kind": "fourier", "seed": 201 + i, "modes": 3, "amplitude": 0.15}
    for i in range(3)
]

WORKLOADS = {
    "flow": {
        "subcommands": ["heatflow"],
        "overrides": {
            "heatflow": {"steps": 8, "save_every": 4, "su2_steps": 8, "critical_steps": 4},
        },
    },
    "calculus": {
        "subcommands": ["transport", "verify-duhamel", "verify-gradient", "levy"],
        "overrides": {
            "curves": _CURVES,
            "transport": {"triples": 12},
            "duhamel": {"pairs": 3},
            "gradient": {"cases": 4, "free_end_cases": 2, "riesz_pairs": 3, "riesz_curves": 1},
            "kernels": {"pairs": 2, "curves": 1},
            "laplacian": {"curves": 1},
            "cesaro": {"curves": 1, "n_modes": 32, "checkpoints": [4, 8, 16, 32]},
        },
    },
    "identity": {
        "subcommands": ["verify-theorem", "r-diagnostic"],
        "overrides": {
            "theorem": {"steps": 16, "save_every": 8, "checkpoint_steps": [8], "curves": 1},
            "r_diagnostic": {"steps": 12, "save_every": 4, "checkpoint_step": 8, "r_divisions": 4},
        },
    },
    "su3": {
        "subcommands": ["transport", "verify-duhamel"],
        "overrides": {
            "gauge_rank": 3,
            "curves": _CURVES[:2],
            "transport": {"triples": 16},
            "duhamel": {"pairs": 6},
        },
    },
}


def subcommands(name, seed):
    """The workload's subcommands in the order this workload seed runs them."""
    names = list(WORKLOADS[name]["subcommands"])
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(names)
    return names


def config_overrides(name):
    """The `--config` overrides for one workload."""
    return dict(WORKLOADS[name]["overrides"], threads=1)
