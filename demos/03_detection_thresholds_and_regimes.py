"""
The monitor's radiometer and why it saturates
=============================================

Having (unknowingly) mis-estimated the channel, the monitor cancels the
legitimate signal imperfectly and applies an energy test to the residual.
Its optimal threshold depends on the corrupted estimate.  If the attack
keeps that threshold below the residual-plus-noise floor, the test fires
on everything: false alarm plus missed detection tends to 1, which is no
better than guessing.
"""

import math
from dataclasses import replace

from covertpilot import (AttackParams, ChannelParams, McConfig, SystemConfig,
                         analytic_error_probs, classify_regime, link_capacity,
                         mc_comm_error_probs, regime_gaps,
                         solve_lambda_star, tail_bound_sum, tau_dagger,
                         tau_eps)

channel = ChannelParams(alpha_w_sq=0.1, alpha_e_sq=0.1, sigma_w_sq=0.1,
                        sigma_e_sq=0.1, sigma_h_sq=1.0, h_w=1 + 0j, h_e=1 + 0j)
config = SystemConfig.create(channel, lambda_a=20.0,
                             r_a=0.8 * link_capacity(channel, 20.0),
                             delta_1=1 / math.sqrt(10), delta_2=0.1,
                             pilot_len=64, block_len=10_000)

##############################################################################
# Finite-n optimal threshold converges (from below) to the asymptotic one.

attack = AttackParams(epsilon=0.1, lambda_t=0.3)
h_hat = (1 + attack.epsilon) * channel.h_w
print(f"{'n':>8} {'tau_dagger':>12}")
for n in (10, 100, 1000, 100_000):
    print(f"{n:>8} {tau_dagger(channel, h_hat, attack.lambda_t, n):>12.8f}")
print(f"{'limit':>8} {tau_eps(channel, attack):>12.8f}")

##############################################################################
# Regime map along the trojan power axis: below the critical power the
# threshold hides under the residual floor (blind regime); above it the
# test separates the hypotheses perfectly in the limit.

star = solve_lambda_star(channel, config, epsilon=0.1)
print(f"\ncritical power at eps=0.1: {star:.6f}")
for lt in (0.1, 0.3, star * 1.05, 1.0):
    point = AttackParams(0.1, lt)
    regime = classify_regime(channel, point, config)
    _, gap_below, _ = regime_gaps(channel, point, config)
    print(f"lambda_t = {lt:.4f}: {regime.value:>12}  "
          f"(gap below = {gap_below:+.5f})")

##############################################################################
# Noise-only chi-square error probabilities vs blocklength at a
# comfortably blind point, with the concentration bound on how far the sum
# can sit below 1.

deep = AttackParams(0.1, 0.12)
tau = tau_eps(channel, deep)
print(f"\n{'n':>8} {'P_F + P_M':>12} {'lower bound':>12}")
for n in (1000, 4000, 16_000, 64_000):
    cfg = replace(config, block_len=n)
    s = analytic_error_probs(channel, deep, cfg, tau).sum
    print(f"{n:>8} {s:>12.6f} {1 - tail_bound_sum(channel, deep, cfg):>12.6f}")

##############################################################################
# Exact simulation agrees: at the same point the empirical sum saturates,
# while without the pilot attack the same trojan power is caught cold.

cfg = replace(config, block_len=4000)
mc = McConfig(trials=3000, base_seed=5)
blind, _ = mc_comm_error_probs(channel, deep, cfg, mc)
caught, _ = mc_comm_error_probs(channel, AttackParams(0.0, 0.12), cfg, mc)
print(f"\nempirical P_F + P_M at n=4000: with attack {blind.sum:.4f}, "
      f"without {caught.sum:.4f}")
