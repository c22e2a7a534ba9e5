"""Covert pilot-scaling attack analysis for block-fading links.

A trojan embedded in a legitimate transmitter scales the known pilot by
``1 + epsilon`` to corrupt the monitoring receiver's channel estimate,
then rides the resulting cancellation residual to communicate covertly at
a positive rate.  The package provides the closed-form covertness and
detection analysis (divergence bounds, optimal radiometer thresholds,
chi-square error probabilities under the paper's noise-only
approximation, regime classification, achievable rates, square-root-law
scaling) together with Monte Carlo estimators that cross-validate every
analytic claim, plus a CLI for sweeps and verification suites.

Every exported name and submodule resolves on first use: ``import
covertpilot`` loads no submodule, and ``covertpilot.mc_pilot_kl`` loads
``montecarlo`` (and what it imports) when it is first read.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "channel": ("AttackParams", "ChannelParams", "ParameterError",
                "SystemConfig", "derive_rng", "gaussian_input",
                "link_capacity"),
    "detection": ("Regime", "analytic_error_probs", "classify_regime",
                  "regime_gaps", "solve_sqrt_law_coefficient",
                  "sqrt_law_bound", "tail_bound_sum", "tau_dagger",
                  "tau_eps"),
    "montecarlo": ("McConfig", "mc_comm_error_probs", "mc_estimator_error",
                   "mc_pilot_kl", "mc_sqrt_law"),
    "pilot": ("covertness_margin", "kl_pilot_exact", "kl_pilot_limit",
              "mmse_estimate", "mmse_limit"),
    "rates": ("attack_feasibility", "power_scaling_table",
              "solve_lambda_star", "willie_sinr"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "verification")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        # read at every access, so the name follows its module's attribute
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
