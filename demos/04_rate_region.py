"""
The achievable covert-rate region
=================================

A trojan operating point (eps, lambda_t) is feasible when the pilot attack
stays covert, the monitor's threshold saturates, and the legitimate link
still decodes.  Sweeping the plane shows the region and a non-obvious
effect: the best scaling is interior, because pushing eps higher buys a
larger admissible trojan power through the detector but costs the
legitimate link its margin.
"""

import numpy as np

from covertpilot import AttackParams, attack_feasibility, build_scenario

channel, config, _ = build_scenario()

##############################################################################
# Coarse text rendering of the region ('#' feasible, '.' not); rows are
# trojan powers, columns scalings.

eps_grid = np.linspace(0.0, 0.2475, 34)
lt_grid = np.linspace(0.97, 0.01, 25)
region = attack_feasibility(channel, AttackParams(eps_grid, lt_grid[:, None]),
                            config)
print("lambda_t")
for lt, row in zip(lt_grid, region.feasible):
    print(f"{lt:5.2f} |{''.join('#' if f else '.' for f in row)}")
print("      +" + "-" * len(eps_grid))
print("       eps from 0.00 to 0.2475")

##############################################################################
# Best achievable trojan rate per scaling value: the maximum sits strictly
# inside the covert range, not at its edge.

eps_rows = np.array([0.02, 0.06, 0.10, 0.14, 0.18, 0.21])
best = attack_feasibility(
    channel, AttackParams(eps_rows[:, None], np.linspace(0.01, 1.0, 200)),
    config)
best_rate = np.where(best.feasible, best.r_t_ic, 0.0).max(axis=1)
print(f"\n{'eps':>6} {'best feasible rate (bpcu)':>26}")
for e, rate in zip(eps_rows, best_rate):
    print(f"{e:>6.2f} {rate:>26.4f}")

##############################################################################
# The same sweep at full resolution is the CLI's job; it writes one CSV row
# per cell (see README for a plotting recipe):
#
#     covertpilot sweep --eps-min 0 --eps-max 0.2475 --eps-steps 100 \
#                       --lt-min 0.01 --lt-max 1.0 --lt-steps 100 \
#                       --out region.csv
