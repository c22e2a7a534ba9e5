"""
With no pilot attack, the square-root law bites
===============================================

Kill the pilot attack (eps = 0) and the monitor's channel estimate is
perfect, so the only cover left is noise.  Trojan power decaying slower
than 1/sqrt(n) gets detected with certainty; faster is trivially covert
but carries a vanishing rate; exactly c/sqrt(n) pins the detector at a
constant distance from a blind test, tunable through c.  The achievable
rate then scales as n^{-1/2}: covert bits grow like sqrt(n), not n.
"""

import math

import numpy as np

from covertpilot import (ChannelParams, McConfig, SystemConfig, link_capacity,
                         mc_sqrt_law, solve_sqrt_law_coefficient,
                         power_scaling_table)

channel = ChannelParams(alpha_w_sq=0.1, alpha_e_sq=0.1, sigma_w_sq=0.1,
                        sigma_e_sq=0.1, sigma_h_sq=1.0, h_w=1 + 0j, h_e=1 + 0j)
config = SystemConfig.create(channel, lambda_a=20.0,
                             r_a=0.8 * link_capacity(channel, 20.0),
                             delta_1=0.0, delta_2=0.1,
                             pilot_len=64, block_len=10_000)

##############################################################################
# Three power schedules lambda_t = c * n^{-q}: the error sum P_F + P_M
# collapses for q < 1/2, flattens for q = 1/2, and fills up for q > 1/2.

n_grid = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
print(f"{'n':>9} {'q=0.25':>10} {'q=0.50':>10} {'q=0.75':>10}")
tables = {q: power_scaling_table(channel, config, q, 0.25, n_grid)
          for q in (0.25, 0.5, 0.75)}
for k, n in enumerate(n_grid):
    print(f"{n:>9} {tables[0.25][k].p_sum:>10.2e} "
          f"{tables[0.5][k].p_sum:>10.4f} {tables[0.75][k].p_sum:>10.4f}")

##############################################################################
# Tune c to a 10% covertness slack and verify by simulation that the
# empirical distance from a blind test stays within it.

c = solve_sqrt_law_coefficient(channel, target=0.1)
print(f"\nc for a limiting slack of 0.1: {c:.6f}")
rows = mc_sqrt_law(channel, c, [10_000, 100_000],
                   McConfig(trials=2000, base_seed=3))
for r in rows:
    print(f"n = {r.n:>7}: empirical 1 - P_F - P_M = {r.one_minus_sum:.4f} "
          f"(+- {r.std_error:.4f}), slack target 0.1")

##############################################################################
# Rate along the covert schedule: log-log slope -1/2 in the blocklength.

sched = power_scaling_table(channel, config, 0.5, c, n_grid)
slope = np.polyfit(np.log([r.n for r in sched]),
                   np.log([r.r_t for r in sched]), 1)[0]
print(f"\n{'n':>9} {'lambda_t':>12} {'rate (bpcu)':>12}")
for r in sched:
    print(f"{r.n:>9} {r.lambda_t:>12.6f} {r.r_t:>12.6f}")
print(f"log-log rate slope: {slope:.4f} (square-root law)")
