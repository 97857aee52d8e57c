"""Planted formula errors: each fails exactly the checks that test its formula.

A row of `PLANTS` breaks one formula, patched where its caller looks the
name up. `experiments` imports its formulas with `from .levy import ...`,
so a plant on `levy.second_kernels` would change nothing; it goes on
`experiments.second_kernels`. The row runs, in process, the subcommands
that reach the planted name, at the reduced sizes of `tests/_reduced.py`
and N = 2, and names the checks that must fail. Unplanted, every check of
the seven subcommands passes at these sizes, so each failure is the
plant's (mutation analysis: DeMillo, Lipton and Sayward, IEEE Computer
11(4), 1978).
"""

import dataclasses

import numpy as np
import pytest

from _reduced import REDUCED_CONFIG
from gaugeflow import experiments, field
from gaugeflow.algebra import bracket
from gaugeflow.experiments import ALL_ORDER, resolve_config, run_experiment

SEED = 42


def _without_gauge_term(divergence):
    """(div F)_n without its [sum_m d_m A_m, A_n] term."""
    return lambda a, p, s: divergence(a, p, s) - bracket(
        np.einsum("...mmk->...k", p)[..., None, :], a)


def _half_singular(second_kernels):
    """The kernel triple with its singular kernel K_S halved."""
    def planted(*args, **kwargs):
        kern = second_kernels(*args, **kwargs)
        return dataclasses.replace(kern, singular=0.5 * kern.singular)
    return planted


def _scaled_derivative(transport_derivative):
    """The transport's first derivative scaled by 1 + 1e-3."""
    return lambda ctx, x_field: (1.0 + 1e-3) * transport_derivative(ctx, x_field)


# plant -> (module, name, the plant of the original, subcommands, checks that must fail)
PLANTS = {
    "divergence_without_gauge_term": (
        field, "_divergence", _without_gauge_term, ("levy", "verify-theorem", "r-diagnostic"),
        {"kernel_vs_closed", "pure_gauge_laplacian", "forward_consistency", "r_exact_flow",
         "r_outside_slope", "r_localization_ratio"}),
    "half_singular_kernel": (
        experiments, "second_kernels", _half_singular, ("levy",), {"hessian_fd"}),
    "scaled_transport_derivative": (
        experiments, "transport_derivative", _scaled_derivative, ("verify-gradient",),
        {"first_derivative_fd", "first_derivative_fd_free_ends", "riesz_formula_gap"}),
}


def _failed_checks(names):
    """The names of the checks that fail over the subcommands `names`."""
    failed = set()
    for name in names:
        report, _ = run_experiment(name, resolve_config(REDUCED_CONFIG), SEED)
        failed |= {check["name"] for check in report["checks"] if not check["pass"]}
    return failed


def test_unplanted_reduced_run_fails_no_check():
    assert _failed_checks(ALL_ORDER) == set()


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_error_fails_exactly_its_checks(monkeypatch, plant):
    module, name, planted, names, want = PLANTS[plant]
    monkeypatch.setattr(module, name, planted(getattr(module, name)))
    assert _failed_checks(names) == want
