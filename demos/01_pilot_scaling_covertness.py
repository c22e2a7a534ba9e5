"""
Covertness of the pilot-scaling attack
======================================

During channel estimation the trojan multiplies the known pilot by
``1 + eps``.  The monitor sees a zero-mean Gaussian vector either way;
how distinguishable the two hypotheses are is measured by the divergence
between the received-pilot laws, which has a closed form in the pilot
energy and tends to ``2 log(1+eps) - 1 + (1+eps)^{-2}``.
"""

import math

import numpy as np

from covertpilot import (AttackParams, ChannelParams, McConfig,
                         covertness_margin, kl_pilot_exact, kl_pilot_limit,
                         mc_pilot_kl)

channel = ChannelParams(alpha_w_sq=0.1, alpha_e_sq=0.1, sigma_w_sq=0.1,
                        sigma_e_sq=0.1, sigma_h_sq=1.0, h_w=1 + 0j, h_e=1 + 0j)

##############################################################################
# The divergence grows with the pilot length and saturates at the limit.
# Whatever the channel constants, the limit never exceeds 2 eps^2, which is
# what makes the simple budget rule eps <= delta_1 / sqrt(2) sufficient.

attack = AttackParams(epsilon=0.1, lambda_t=0.0)
print(f"{'L':>7} {'divergence (nats)':>18}")
for L in (8, 32, 128, 512, 4096, 65536):
    print(f"{L:>7} {kl_pilot_exact(channel, attack, float(L)):>18.8f}")
print(f"{'limit':>7} {kl_pilot_limit(0.1):>18.8f}")
print(f"{'2eps^2':>7} {2 * 0.1 ** 2:>18.8f}")

##############################################################################
# Covertness budget: with delta_1 = 1/sqrt(10), scalings up to
# 1/sqrt(20) = 0.2236 stay covert.

delta_1 = 1 / math.sqrt(10)
for eps in (0.1, 0.2, 0.2236, 0.23, 0.3):
    covert = covertness_margin(eps, delta_1)
    print(f"eps = {eps:<6} covert = {str(covert):<5} "
          f"(divergence bound {2 * eps ** 2:.4f} nats)")

##############################################################################
# Monte Carlo cross-check: average the log-likelihood ratio over simulated
# pilot blocks and compare with the closed form.

for eps in (0.0, 0.1, 0.5):
    res = mc_pilot_kl(channel, AttackParams(eps, 0.0), l=32,
                      mc=McConfig(trials=20_000, base_seed=1))
    z = 0.0 if res.std_error == 0 else \
        (res.point_estimate - res.analytic_reference) / res.std_error
    print(f"eps = {eps}: estimate {res.point_estimate:.6f} "
          f"+- {res.std_error:.6f}, closed form {res.analytic_reference:.6f} "
          f"(z = {z:+.2f})")

##############################################################################
# The quadratic bound is never tight away from zero: on a dense grid the
# limit stays strictly below 2 eps^2.

eps_grid = np.linspace(0.0, 2.0, 1000)
gap = 2 * eps_grid[1:] ** 2 - np.array([kl_pilot_limit(e)
                                        for e in eps_grid[1:]])
print(f"min bound slack over (0, 2]: {gap.min():.3e} nats (always positive)")
