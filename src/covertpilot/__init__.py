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
"""

from .channel import (AttackParams, ChannelParams, ParameterError,
                      SystemConfig, derive_rng, gaussian_input,
                      link_capacity)
from .detection import (Regime, analytic_error_probs, classify_regime,
                        regime_gaps, solve_sqrt_law_coefficient,
                        sqrt_law_bound, tail_bound_sum, tau_dagger, tau_eps)
from .montecarlo import (McConfig, mc_comm_error_probs, mc_estimator_error,
                         mc_pilot_kl, mc_sqrt_law)
from .pilot import (covertness_margin, kl_pilot_exact, kl_pilot_limit,
                    mmse_estimate, mmse_limit)
from .rates import (attack_feasibility, power_scaling_table,
                    solve_lambda_star, willie_sinr)

__version__ = "0.1.0"

__all__ = [
    "AttackParams", "ChannelParams", "McConfig", "ParameterError",
    "Regime", "SystemConfig",
    "analytic_error_probs",
    "attack_feasibility", "classify_regime", "covertness_margin",
    "derive_rng", "gaussian_input", "kl_pilot_exact", "kl_pilot_limit",
    "link_capacity", "mc_comm_error_probs",
    "mc_estimator_error", "mc_pilot_kl", "mc_sqrt_law", "mmse_estimate",
    "mmse_limit", "power_scaling_table", "regime_gaps", "solve_lambda_star",
    "solve_sqrt_law_coefficient", "sqrt_law_bound", "tail_bound_sum",
    "tau_dagger", "tau_eps", "willie_sinr",
]
