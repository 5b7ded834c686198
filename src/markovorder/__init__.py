"""Penalized-likelihood order estimation for finite-alphabet Markov chains.

The package has three layers: chain modelling and exact context counting
(``model``, ``counts``), the estimator with its penalty/cutoff families
(``likelihood``, ``penalty``, ``estimator``), and a diagnostics suite that
evaluates the concentration quantities behind the estimator's consistency
and verifies their inequalities by Monte Carlo (``diagnostics``).  The
``cli`` module wires everything to config-driven commands.

``import markovorder`` loads none of them: a public name is imported from
its defining module when it is first read (PEP 562), so each command
compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it; ``diagnostics`` is the
# subpackage itself
_EXPORTS = {
    name: module
    for module, names in {
        "counts": "ContextCounts build_counts extend_counts",
        "estimator": "EstimateResult ExperimentResult consistency_experiment estimate_order "
        "underestimation_gap",
        "likelihood": "MixtureKernel delta_running_max kl_compensator martingale_path "
        "max_loglik mixture_kernel",
        "model": "MarkovModel ReducibleChainError log_true_conditional_likelihood random_model "
        "sample_paths stationary_block_law stationary_distribution true_order",
        "modelfile": "read_model_file write_model_file",
        "penalty": "AlphaLogCutoff BICPenalty ConstantCutoff CsiszarPenalty LogLogPenalty "
        "SubLogCutoff cutoff_value parse_cutoff parse_penalty penalty_value",
        "rng": "derive_seed",
        "diagnostics": "diagnostics",
    }.items()
    for name in names.split()
}
# a star import takes the names, not the diagnostics suite
__all__ = [name for name, module in _EXPORTS.items() if name != module]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # resolved once: later reads find the global
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
