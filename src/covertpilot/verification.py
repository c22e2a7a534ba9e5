"""Analytic-versus-oracle check suites behind the ``verify`` subcommand.

Each suite re-derives a family of claims with an independent method
(dense linear algebra, grid search, direct simulation) and compares it to
the closed-form implementation, printing measured values so a failure is
actionable.  Budgets are sized to finish in seconds; the pytest suite
runs the same checks at higher resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channel import AttackParams, ChannelParams, SystemConfig, link_capacity
from .detection import (Regime, analytic_error_probs, classify_regime,
                        tail_bound_sum, tau_dagger, tau_eps)
from .montecarlo import McConfig, mc_comm_error_probs
from .pilot import kl_pilot_exact, kl_pilot_limit, mmse_estimate
from .rates import power_scaling_table


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _reference_point() -> tuple[ChannelParams, SystemConfig, AttackParams]:
    channel = ChannelParams(0.1, 0.1, 0.1, 0.1, 1.0, 1 + 0j, 1 + 0j)
    config = SystemConfig.create(channel, lambda_a=20.0,
                                 r_a=0.8 * link_capacity(channel, 20.0),
                                 delta_1=1 / math.sqrt(10), delta_2=0.1,
                                 pilot_len=64, block_len=10_000)
    return channel, config, AttackParams(0.1, 0.3)


def verify_kl(seed: int = 0) -> list[CheckResult]:
    channel, _, _ = _reference_point()
    eps_grid = np.linspace(0.0, 2.0, 1000)
    lims = np.array([kl_pilot_limit(e) for e in eps_grid])
    bound_ok = bool(np.all(lims <= 2 * eps_grid ** 2 + 1e-15)
                    and np.all(lims[1:] < 2 * eps_grid[1:] ** 2))
    worst = float(np.max(lims - 2 * eps_grid ** 2))
    out = [CheckResult("limit_below_2eps2", bound_ok,
                       f"max(limit - 2 eps^2) = {worst:.3e} over 1000-point grid")]

    attack = AttackParams(0.1, 0.3)
    exact_big = kl_pilot_exact(channel, attack, 100_000.0)
    gap = abs(exact_big - kl_pilot_limit(0.1))
    out.append(CheckResult("finite_to_limit", gap <= 1e-3,
                           f"|exact(L=1e5) - limit| = {gap:.3e}"))

    ls = [4, 16, 64, 256, 1024]
    vals = [kl_pilot_exact(channel, attack, float(l)) for l in ls]
    mono = all(b >= a for a, b in zip(vals, vals[1:]))
    out.append(CheckResult("monotone_in_length", mono,
                           f"values over L={ls}: {[f'{v:.3e}' for v in vals]}"))
    return out


def verify_mmse(seed: int = 0) -> list[CheckResult]:
    channel, _, attack = _reference_point()
    a = channel.alpha_w_sq * channel.sigma_h_sq / channel.sigma_w_sq
    a_w = math.sqrt(channel.alpha_w_sq)
    out = []

    worst = 0.0
    for l in (4, 32, 128):
        pilot = np.ones(l, complex)
        s_en = l * 1.0
        y = a_w * channel.h_w * (1 + attack.epsilon) * pilot
        h_hat = mmse_estimate(channel, s_en, np.vdot(pilot, y))
        expect = (1 + attack.epsilon) * a * s_en / (1 + a * s_en) * channel.h_w
        worst = max(worst, abs(h_hat - expect) / abs(expect))
    out.append(CheckResult("noiseless_bias", worst <= 1e-12,
                           f"max relative bias error = {worst:.3e}"))

    errs = []
    for l in (64, 128, 256):
        pilot = np.ones(l, complex)
        y = a_w * channel.h_w * pilot
        errs.append(abs(mmse_estimate(channel, float(l), np.vdot(pilot, y))
                        - channel.h_w))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    halving = all(1.8 <= r <= 2.2 for r in ratios)
    out.append(CheckResult("error_halves_with_energy", halving,
                           f"noiseless error ratios per doubling = "
                           f"{[f'{r:.3f}' for r in ratios]}"))
    return out


def random_detection_config(rng: np.random.Generator
                            ) -> tuple[ChannelParams, float, int]:
    """Random (channel, lambda_t, n) with a resolvable error minimum.

    The trojan power is sized so the normalized detection margin
    ``gain_w lambda_t sqrt(n) / (2 sigma_w^2)`` lands in [0.3, 5]; outside
    that band the chi-square probabilities underflow and the objective
    ties at 0.0 across a wide threshold plateau, which no optimizer can
    be located on.
    """
    channel = ChannelParams(
        alpha_w_sq=rng.uniform(0.05, 1.0), alpha_e_sq=0.1,
        sigma_w_sq=rng.uniform(0.05, 1.0), sigma_e_sq=0.1, sigma_h_sq=1.0,
        h_w=complex(rng.normal(), rng.normal()) / math.sqrt(2), h_e=1 + 0j)
    n = int(rng.integers(50, 5000))
    z = rng.uniform(0.3, 5.0)
    lam_t = 2 * z * channel.sigma_w_sq / (channel.gain_w * math.sqrt(n))
    return channel, lam_t, n


def verify_threshold(seed: int = 0) -> list[CheckResult]:
    _, config, _ = _reference_point()
    rng = np.random.default_rng(seed)
    worst_steps = 0.0
    for _ in range(50):
        channel, lam_t, n = random_detection_config(rng)
        t_star = tau_dagger(channel, channel.h_w, lam_t, n)
        grid = np.linspace(0.3 * t_star, 3.0 * t_star, 10_000)
        sums = analytic_error_probs(channel, AttackParams(0.0, lam_t),
                                    replace(config, block_len=n), grid).sum
        t_grid = grid[int(np.argmin(sums))]
        step = grid[1] - grid[0]
        worst_steps = max(worst_steps, abs(t_grid - t_star) / step)
    ok = worst_steps <= 1.0 + 1e-9
    return [CheckResult("grid_argmin_at_tau_dagger", ok,
                        f"worst |argmin - tau| = {worst_steps:.3f} grid steps "
                        f"over 50 random configurations")]


def verify_regimes(seed: int = 0) -> list[CheckResult]:
    channel, config, _ = _reference_point()
    out = []

    expected = {(0.1, 0.1): Regime.BLIND_BELOW, (0.0, 0.3): Regime.DETECTABLE,
                (0.1, 1.0): Regime.DETECTABLE}
    got = {pt: classify_regime(channel, AttackParams(*pt), config)
           for pt in expected}
    out.append(CheckResult("classification", got == expected,
                           f"{ {k: v.value for k, v in got.items()} }"))

    cfg = replace(config, block_len=4000)
    deep = AttackParams(0.1, 0.1)
    mc = McConfig(trials=2000, base_seed=seed)
    probs, (rf, rm) = mc_comm_error_probs(channel, deep, cfg, mc)
    analytic = rf.analytic_reference + rm.analytic_reference
    se = 3 * math.hypot(rf.std_error, rm.std_error) + 1e-12
    ok = abs(probs.sum - analytic) <= se and probs.sum >= 0.99
    out.append(CheckResult("blind_below_saturates", ok,
                           f"analytic sum {analytic:.5f}, mc {probs.sum:.5f} "
                           f"(3se = {se:.5f}) at n=4000"))

    silent = AttackParams(0.0, 0.3)
    probs0, (rf0, rm0) = mc_comm_error_probs(channel, silent, cfg, mc)
    a0 = rf0.analytic_reference + rm0.analytic_reference
    out.append(CheckResult("detectable_vanishes",
                           probs0.sum <= 0.01 and a0 <= 0.01,
                           f"analytic {a0:.2e}, mc {probs0.sum:.2e}"))

    rng = np.random.default_rng(seed)
    ok, worst = True, -1.0
    for _ in range(100):
        eps = rng.uniform(0.0, 0.3)
        lt = rng.uniform(0.01, 1.0)
        att = AttackParams(eps, lt)
        if classify_regime(channel, att, config) is Regime.DETECTABLE:
            continue
        bound = tail_bound_sum(channel, att, config)
        actual = 1 - analytic_error_probs(channel, att, config,
                                          tau_eps(channel, att)).sum
        worst = max(worst, actual - bound)
        ok = ok and actual <= bound + 1e-12
    out.append(CheckResult("tail_bound_dominates", ok,
                           f"max(actual - bound) = {worst:.3e} over random draws"))
    return out


def verify_sqrtlaw(seed: int = 0) -> list[CheckResult]:
    channel, config, _ = _reference_point()
    n_grid = [1000, 10_000, 100_000, 1_000_000]
    out = []

    fast = power_scaling_table(channel, config, 0.25, 1.0, n_grid)
    sums = [r.p_sum for r in fast]
    out.append(CheckResult("super_sqrt_detectable",
                           all(b < a for a, b in zip(sums, sums[1:]))
                           and sums[-1] < 1e-3,
                           f"exponent 0.25 sums {[f'{s:.2e}' for s in sums]}"))

    const = power_scaling_table(channel, config, 0.5, 0.25, n_grid)
    sums = [r.p_sum for r in const]
    out.append(CheckResult("sqrt_rate_constant",
                           max(sums) - min(sums) <= 0.02,
                           f"exponent 0.5 sums {[f'{s:.4f}' for s in sums]}"))

    slow = power_scaling_table(channel, config, 0.75, 1.0, n_grid)
    sums = [r.p_sum for r in slow]
    out.append(CheckResult("sub_sqrt_blind",
                           all(b > a for a, b in zip(sums, sums[1:]))
                           and sums[-1] > 0.95,
                           f"exponent 0.75 sums {[f'{s:.4f}' for s in sums]}"))
    return out


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "kl": verify_kl,
    "mmse": verify_mmse,
    "threshold": verify_threshold,
    "regimes": verify_regimes,
    "sqrtlaw": verify_sqrtlaw,
}
