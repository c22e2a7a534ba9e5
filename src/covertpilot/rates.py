"""Achievable covert rates, feasibility conditions, and scaling regimes.

A trojan operating point ``(epsilon, lambda_t)`` is feasible when three
conditions hold simultaneously:

1. the pilot scaling stays covert, ``eps <= delta_1 / sqrt(2)``;
2. the communication-phase threshold saturates low,
   ``tau(eps) < eps^2 alpha_w^2 |h_w|^2 lambda_a + sigma_w^2``;
3. the legitimate link survives the interference,
   ``r_a <= log2(1 + gamma_w)`` with ``gamma_w`` the degraded SINR.

A feasible trojan reaches ``log2(1 + gain_e lambda_t / (gain_e lambda_a
+ sigma_e_sq))`` bits/use treating the legitimate signal as noise, and
``log2(1 + gain_e lambda_t / sigma_e_sq)`` when the rogue receiver can
first decode and cancel it.  With a zero estimation-phase budget the
attack collapses to ``epsilon = 0`` and covert power must scale as
``1/sqrt(n)`` (square-root law); :func:`power_scaling_table` tabulates that
dichotomy.

Rates are in bits/channel use throughout.  Array ``epsilon``/``lambda_t``
broadcast, so one call evaluates a whole grid (see
:mod:`~covertpilot.detection`).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import AttackParams, ChannelParams, SystemConfig, _require
from .detection import (_log2, analytic_error_probs, regime_gaps,
                        statistic_levels, tau_dagger, tau_eps)


class FeasibilityReport(NamedTuple):
    """Per-condition outcomes and the achievable trojan rates.

    ``feasible`` is the conjunction of the first three conditions;
    ``cond_eve_ic`` only decides whether the interference-cancellation
    rate applies (``r_t_ic`` falls back to ``r_t_tin`` when it fails).
    ``tau_eps`` and ``delta_1_gap`` decide ``cond_blind_comm``.  For a grid
    each field is an array that broadcasts to it.
    """

    cond_pilot_covert: bool
    cond_blind_comm: bool
    cond_no_disruption: bool
    cond_eve_ic: bool
    gamma_w: float
    r_t_tin: float
    r_t_ic: float
    feasible: bool
    tau_eps: float
    delta_1_gap: float


@dataclass(frozen=True)
class ScalingRow:
    """One blocklength of a power-scaling schedule lambda_t(n) = c * n^-exponent."""

    n: int
    lambda_t: float
    p_sum: float
    r_t: float


def willie_sinr(channel: ChannelParams, attack: AttackParams,
                config: SystemConfig) -> float:
    """Monitoring receiver's SINR once the attack is in place.

    gamma_w = gain_w lambda_a / (eps^2 gain_w lambda_a + gain_w lambda_t
    + sigma_w_sq): the first interference term is self-interference from
    mismatched decoding, the second the trojan's transmission (the
    denominator is the upper statistic level).  Strictly decreasing in
    both eps and lambda_t.
    """
    _, upper = statistic_levels(channel, attack, config)
    return channel.gain_w * config.lambda_a / upper


def rate_tin(channel: ChannelParams, signal: float,
             interference: float) -> float:
    """Rogue-link rate of power ``signal``, treating ``interference`` as noise."""
    g = channel.gain_e
    return _log2(1 + g * signal / (g * interference + channel.sigma_e_sq))


def rate_ic(channel: ChannelParams, attack: AttackParams) -> float:
    """Trojan rate after the rogue receiver cancels the legitimate signal."""
    with np.errstate(over="ignore"):
        snr = channel.gain_e * attack.lambda_t / channel.sigma_e_sq
    _require(np.all(np.isfinite(snr)), "the rogue-link SNR alpha_e^2 |h_e|^2 "
             "lambda_t / sigma_e^2 must be finite")
    return _log2(1 + snr)


def attack_feasibility(channel: ChannelParams, attack: AttackParams,
                       config: SystemConfig) -> FeasibilityReport:
    """Evaluate the feasibility conditions and achievable rates.

    The blind-communication condition is strict (boundary equality is
    infeasible); the no-disruption condition is non-strict, with a warning
    at exact equality since delay-limited decoding at capacity is an
    idealization.
    """
    cond1 = attack.epsilon <= config.delta_1 / math.sqrt(2)
    tau, d1, _ = regime_gaps(channel, attack, config)
    cond2 = d1 > 0

    g_w = willie_sinr(channel, attack, config)
    legit_rate_cap = _log2(1 + g_w)
    cond3 = config.r_a <= legit_rate_cap
    if np.any(config.r_a == legit_rate_cap):
        warnings.warn("legitimate rate sits exactly at the degraded capacity",
                      stacklevel=2)

    # the rogue receiver can cancel the legitimate signal only if it decodes
    # it treating the trojan's as noise
    cond4 = config.r_a <= rate_tin(channel, config.lambda_a, attack.lambda_t)

    tin = rate_tin(channel, attack.lambda_t, config.lambda_a)
    ic = np.where(cond4, rate_ic(channel, attack), tin)[()]
    return FeasibilityReport(
        cond_pilot_covert=cond1, cond_blind_comm=cond2,
        cond_no_disruption=cond3, cond_eve_ic=cond4,
        gamma_w=g_w, r_t_tin=tin, r_t_ic=ic,
        feasible=cond1 & cond2 & cond3, tau_eps=tau, delta_1_gap=d1)


def solve_lambda_star(channel: ChannelParams, config: SystemConfig,
                      epsilon: float) -> float:
    """Trojan power lambda* where tau(eps) meets the residual-plus-noise floor.

    tau(eps) is strictly increasing and unbounded in lambda_t while the
    floor ``eps^2 gain_w lambda_a + sigma_w_sq`` is fixed, so for any
    eps > 0 (and a nonzero link) there is a unique root; powers strictly
    below it are in the blind-below regime.  Bracketing doubles an upper
    power until the threshold crosses the floor, then Brent's method
    polishes to |tau - floor| <= 1e-10 * floor.  Raises
    :class:`ParameterError` when the residual part of the floor is within
    that tolerance, where every power from 0 to at least twice the root
    would meet it.
    """
    _require(epsilon > 0, "epsilon must be > 0: with a silent pilot attack the "
                          "threshold never falls below the floor")
    _require(channel.gain_w > 0, "needs a nonzero link gain")
    floor, _ = statistic_levels(channel, AttackParams(epsilon, 0.0), config)
    _require(floor - channel.sigma_w_sq > 1e-10 * floor,
             "solve_lambda_star needs the residual eps^2 alpha_w^2 |h_w|^2 "
             "lambda_a above its root tolerance 1e-10 (residual + sigma_w^2)")

    def f(lt: float) -> float:
        return tau_eps(channel, AttackParams(epsilon, lt)) - floor

    hi = 1.0
    while f(hi) < 0:
        hi *= 2
        _require(hi < 1e12, "failed to bracket the critical power")
    # lazy: `rate` and `sweep` must not pay for importing scipy.optimize
    from scipy.optimize import brentq

    lam = float(brentq(f, 0.0, hi, rtol=8.9e-16, maxiter=200))
    residual = abs(f(lam))
    _require(residual <= 1e-10 * floor,
             f"solve_lambda_star: root polish failed, residual {residual:.3e}")
    return lam


def power_scaling_table(channel: ChannelParams, config: SystemConfig,
                        exponent: float, c: float,
                        n_grid: list[int]) -> list[ScalingRow]:
    """Tabulate detection performance along lambda_t(n) = c * n^-exponent, eps = 0.

    For each blocklength the row holds the power, the noise-only error
    sum of the optimal test (clean pilot, no residual, threshold
    tau_dagger), and the rogue-link rate
    ``log2(1 + gain_e lambda_t(n) / sigma_e_sq)``, which is first-order
    linear in lambda_t.  Exponent 1/2 keeps the error sum at a constant;
    smaller exponents drive it to 0 (detectable), larger ones to 1.
    """
    _require(exponent >= 0, "exponent must be >= 0")
    _require(c > 0, "c must be > 0")
    rows = []
    for n in n_grid:
        _require(isinstance(n, numbers.Integral),
                 f"block lengths must be integers, got n = {n!r}")
        n = int(n)
        lt = c * float(n) ** -exponent
        attack = AttackParams(0.0, lt)
        cfg_n = replace(config, block_len=n)
        tau = tau_dagger(channel, channel.h_w, lt, n)
        probs = analytic_error_probs(channel, attack, cfg_n, tau)
        rows.append(ScalingRow(n=n, lambda_t=lt, p_sum=probs.sum,
                               r_t=rate_ic(channel, attack)))
    return rows
