"""Penalized-likelihood order estimation for finite-alphabet Markov chains.

The package has three layers: chain modelling and exact context counting
(``model``, ``counts``), the estimator with its penalty/cutoff families
(``likelihood``, ``penalty``, ``estimator``), and a diagnostics suite that
evaluates the concentration quantities behind the estimator's consistency
and verifies their inequalities by Monte Carlo (``diagnostics``).  The
``cli`` module wires everything to config-driven commands.
"""

import importlib

from .counts import ContextCounts, build_counts, extend_counts
from .estimator import (
    EstimateResult,
    ExperimentResult,
    consistency_experiment,
    estimate_order,
    underestimation_gap,
)
from .likelihood import (
    MixtureKernel,
    delta_running_max,
    kl_compensator,
    martingale_path,
    max_loglik,
    mixture_kernel,
)
from .model import (
    MarkovModel,
    ReducibleChainError,
    log_true_conditional_likelihood,
    random_model,
    read_model_file,
    sample_paths,
    stationary_block_law,
    stationary_distribution,
    true_order,
    write_model_file,
)
from .penalty import (
    AlphaLogCutoff,
    BICPenalty,
    ConstantCutoff,
    CsiszarPenalty,
    LogLogPenalty,
    SubLogCutoff,
    cutoff_value,
    parse_cutoff,
    parse_penalty,
    penalty_value,
)
from .rng import derive_seed

__version__ = "0.1.0"


def __getattr__(name):
    # only verify runs the diagnostics suite, so it is imported on first use
    if name == "diagnostics":
        return importlib.import_module(f"{__name__}.diagnostics")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
