"""Covert pilot-scaling attack analysis for block-fading links.

A trojan embedded in a legitimate transmitter scales the known pilot by
``1 + epsilon`` to corrupt the monitoring receiver's channel estimate,
then rides the resulting cancellation residual to communicate covertly at
a positive rate.  The package provides the closed-form covertness and
detection analysis (divergence bounds, optimal radiometer thresholds,
exact chi-square error probabilities, regime classification, achievable
rates, square-root-law scaling) together with Monte Carlo estimators that
cross-validate every analytic claim, plus a CLI for sweeps and
verification suites.
"""

from .channel import (AttackParams, ChannelParams, CommHypothesis,
                      ParameterError, Phase, PilotHypothesis, SignalBlock,
                      SystemConfig, alice_input, derive_rng, gaussian_input,
                      link_capacity, make_pilot, sample_fading,
                      synthesize_received, trojan_input)
from .detection import (Conditioning, ErrorProbabilities, Regime,
                        RegimeClassification, RegimeError, SqrtLawBound,
                        Thresholds, analytic_error_probs, classify_regime,
                        compute_thresholds, radiometer_statistic,
                        solve_sqrt_law_coefficient, sqrt_law_bound,
                        tail_bound_sum, tau_dagger, tau_eps)
from .montecarlo import (EstimatorErrorRow, McConfig, McResult, SqrtLawRow,
                         mc_comm_error_probs, mc_estimator_error, mc_pilot_kl,
                         mc_sqrt_law)
from .pilot import (CovertnessMargin, EstimateReport, PilotCovariances,
                    covertness_margin, kl_pilot_exact, kl_pilot_limit,
                    mmse_estimate, mmse_limit, pilot_covariances)
from .rates import (CriticalPower, FeasibilityReport, ScalingRow,
                    attack_feasibility, power_scaling_table,
                    solve_lambda_star, willie_sinr)

__version__ = "0.1.0"

__all__ = [
    "AttackParams", "ChannelParams", "CommHypothesis", "Conditioning",
    "CovertnessMargin", "CriticalPower", "ErrorProbabilities",
    "EstimateReport", "EstimatorErrorRow", "FeasibilityReport", "McConfig",
    "McResult", "ParameterError", "Phase", "PilotCovariances",
    "PilotHypothesis", "Regime", "RegimeClassification", "RegimeError",
    "ScalingRow", "SignalBlock", "SqrtLawBound", "SqrtLawRow",
    "SystemConfig", "Thresholds", "alice_input", "analytic_error_probs",
    "attack_feasibility", "classify_regime", "compute_thresholds",
    "covertness_margin", "derive_rng", "gaussian_input", "kl_pilot_exact",
    "kl_pilot_limit", "link_capacity", "make_pilot", "mc_comm_error_probs",
    "mc_estimator_error", "mc_pilot_kl", "mc_sqrt_law", "mmse_estimate",
    "mmse_limit", "pilot_covariances", "power_scaling_table",
    "radiometer_statistic", "sample_fading", "solve_lambda_star",
    "solve_sqrt_law_coefficient", "sqrt_law_bound", "synthesize_received",
    "tail_bound_sum", "tau_dagger", "tau_eps", "trojan_input", "willie_sinr",
]
