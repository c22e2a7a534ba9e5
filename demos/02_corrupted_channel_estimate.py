"""
What the attack does to the channel estimate
============================================

The monitor estimates the fading gain from the received pilot with the
linear-MMSE rule built for a clean pilot.  When the pilot was actually
scaled, the estimate converges to ``(1 + eps) h_w`` instead of ``h_w``:
the attack plants a multiplicative error the monitor cannot see.
"""

import math

import numpy as np

from covertpilot import (McConfig, build_scenario, mc_estimator_error,
                         mmse_estimate, mmse_limit)
from covertpilot.channel import complex_normal

channel, config, attack = build_scenario()

##############################################################################
# Noise-free view: the finite-length estimator shrinks toward zero by
# aS/(1+aS) and the scaled pilot adds the eps term on top.  The bias factor
# is the noiseless estimate divided by the true gain.  The estimate reads
# the pilot only through its energy S = ||s||^2, and the block y only
# through s^H y.

print(f"{'L':>6} {'bias factor (clean)':>20} {'bias factor (scaled)':>21}")
a_w = math.sqrt(channel.alpha_w_sq)
for L in (8, 32, 128, 1024):
    pilot = np.ones(L, complex)
    clean = a_w * channel.h_w * pilot
    scaled = a_w * channel.h_w * 1.1 * pilot
    b0 = (mmse_estimate(channel, L, np.vdot(pilot, clean)) / channel.h_w).real
    b1 = (mmse_estimate(channel, L, np.vdot(pilot, scaled)) / channel.h_w).real
    print(f"{L:>6} {b0:>20.6f} {b1:>21.6f}")
print(f"{'limit':>6} {1.0:>20.6f} {1 + attack.epsilon:>21.6f}")

##############################################################################
# With noise, one realization: the estimate lands near the corrupted limit.

pilot = np.ones(config.pilot_len, complex)
y = a_w * channel.h_w * (1 + attack.epsilon) * pilot \
    + complex_normal(np.random.default_rng(7), config.pilot_len,
                     channel.sigma_w_sq)
h_hat = mmse_estimate(channel, config.pilot_len, np.vdot(pilot, y))
print(f"\none noisy run, L = {config.pilot_len}: h_hat = {h_hat:.4f}, "
      f"corrupted limit = {mmse_limit(channel, attack)}")

##############################################################################
# Mean-squared error against the limit decays like 1/L (slope -1 on a
# log-log plot): the estimation noise variance scales with 1/pilot energy.

rows = mc_estimator_error(channel, attack, [2 ** k for k in range(4, 11)],
                          McConfig(trials=400, base_seed=11))
print(f"\n{'L':>6} {'mse clean':>12} {'mse scaled':>12}")
for r in rows:
    print(f"{r.l:>6} {r.mse_clean:>12.3e} {r.mse_scaled:>12.3e}")
print("each quadrupling of L divides the error by ~4")
