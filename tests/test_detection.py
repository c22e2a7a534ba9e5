import math
from dataclasses import replace

import numpy as np
import pytest

from covertpilot import (AttackParams, ChannelParams, CommHypothesis,
                         Conditioning, ParameterError, Phase, Regime,
                         RegimeError, alice_input, analytic_error_probs,
                         attack_feasibility, classify_regime, derive_rng,
                         radiometer_statistic, solve_lambda_star,
                         solve_sqrt_law_coefficient, sqrt_law_bound,
                         synthesize_received, tail_bound_sum, tau_dagger,
                         tau_eps)
from covertpilot.channel import STREAM_NOISE, complex_normal

TAU_REF = 0.1192456710036019   # tau(eps) at eps=0.1, lambda_t=0.3 (40-digit eval)


class TestRadiometer:
    def test_perfect_cancellation_gives_zero(self, channel, config, attack):
        x_a = alice_input(config, 4)
        y = math.sqrt(channel.alpha_w_sq) * channel.h_w * x_a.samples
        assert radiometer_statistic(y, x_a, channel.h_w, channel) == 0.0

    def test_residual_level_under_trojan_silence(self, channel, config, attack):
        big = replace(config, block_len=100_000)
        y = synthesize_received(big, channel, attack, Phase.COMMUNICATION,
                                comm_hypothesis=CommHypothesis.H0, seed=8)
        h_hat = (1 + attack.epsilon) * channel.h_w
        t = radiometer_statistic(y, alice_input(big, 8), h_hat, channel)
        expected = (attack.epsilon ** 2 * channel.gain_w * config.lambda_a
                    + channel.sigma_w_sq)
        assert t == pytest.approx(expected, rel=0.02)

    def test_residual_level_under_trojan_transmission(self, channel, config,
                                                      attack):
        big = replace(config, block_len=100_000)
        y = synthesize_received(big, channel, attack, Phase.COMMUNICATION,
                                comm_hypothesis=CommHypothesis.H1, seed=8)
        h_hat = (1 + attack.epsilon) * channel.h_w
        t = radiometer_statistic(y, alice_input(big, 8), h_hat, channel)
        expected = (channel.gain_w * (attack.epsilon ** 2 * config.lambda_a
                                      + attack.lambda_t) + channel.sigma_w_sq)
        assert t == pytest.approx(expected, rel=0.02)

    def test_length_mismatch(self, channel, config):
        with pytest.raises(ParameterError):
            radiometer_statistic(np.ones(4, complex), np.ones(5, complex),
                                 1 + 0j, channel)


class TestThresholds:
    def test_tau_dagger_approaches_tau_eps(self, channel, attack):
        h_hat = (1 + attack.epsilon) * channel.h_w
        ratio = tau_dagger(channel, h_hat, attack.lambda_t, 1_000_000) \
            / tau_eps(channel, attack)
        assert abs(ratio - 1) < 1e-5

    def test_tau_dagger_zero_power_extension(self, channel):
        assert tau_dagger(channel, channel.h_w, 0.0, 100) == channel.sigma_w_sq
        # continuity: small powers approach sigma_w^2 (up to the O(1/n) factor)
        near = tau_dagger(channel, channel.h_w, 1e-9, 10_000)
        assert near == pytest.approx(channel.sigma_w_sq, rel=1e-3)

    def test_tau_dagger_increases_toward_limit(self, channel, attack):
        h_hat = (1 + attack.epsilon) * channel.h_w
        vals = [tau_dagger(channel, h_hat, attack.lambda_t, n)
                for n in (10, 100, 1000, 10_000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < tau_eps(channel, attack) for v in vals)
        assert channel.sigma_w_sq < vals[-1] < tau_eps(channel, attack)

    def test_tau_eps_reference_value(self, channel, attack):
        assert tau_eps(channel, attack) == pytest.approx(TAU_REF, rel=1e-14)

    def test_tau_eps_monotone_in_eps_and_power(self, channel):
        eps_grid = np.linspace(0.0, 0.5, 20)
        taus = [tau_eps(channel, AttackParams(e, 0.3)) for e in eps_grid]
        assert all(b > a for a, b in zip(taus, taus[1:]))
        lt_grid = np.linspace(0.05, 2.0, 20)
        taus = [tau_eps(channel, AttackParams(0.1, lt)) for lt in lt_grid]
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_tau_eps_continuous_extension(self, channel):
        assert tau_eps(channel, AttackParams(0.0, 0.0)) == channel.sigma_w_sq

    def test_scalar_calls_return_scalars(self, channel, config, attack):
        # a scalar call is the 0-d case of the broadcast code; it must not
        # leak 0-d arrays (the mc JSON serializes these values)
        rep = attack_feasibility(channel, attack, config)
        probs = analytic_error_probs(channel, attack, config, TAU_REF,
                                     Conditioning.H1_TRUE)
        for v in (tau_eps(channel, attack), tau_eps(channel, AttackParams(0, 0)),
                  tau_dagger(channel, channel.h_w, 0.3, 100),
                  rep.r_t_ic, rep.gamma_w, rep.delta_1_gap, probs.p_f,
                  probs.p_m):
            assert isinstance(v, float)

    def test_tau_dagger_validates(self, channel):
        with pytest.raises(ParameterError):
            tau_dagger(channel, channel.h_w, 0.3, 1)
        with pytest.raises(ParameterError):
            tau_dagger(channel, channel.h_w, -0.1, 100)


class TestAnalyticErrorProbs:
    def test_extreme_thresholds(self, channel, config, attack):
        hi = analytic_error_probs(channel, attack, config, 1e9,
                                  Conditioning.H0_TRUE)
        assert (hi.p_f, hi.p_m) == (0.0, 1.0)
        lo = analytic_error_probs(channel, attack, config, 1e-12,
                                  Conditioning.H0_TRUE)
        assert (lo.p_f, lo.p_m) == (1.0, 0.0)

    def test_below_residual_floor(self, channel, config, attack):
        # tau under the leakage level: alarm always fires, never misses
        probs = analytic_error_probs(channel, attack, config, 0.015,
                                     Conditioning.H1_TRUE)
        assert (probs.p_f, probs.p_m) == (1.0, 0.0)

    def test_sum_field(self, channel, config, attack):
        probs = analytic_error_probs(channel, attack, config, TAU_REF,
                                     Conditioning.H1_TRUE)
        assert probs.sum == probs.p_f + probs.p_m

    def test_matches_noise_only_simulation(self, channel, attack):
        # The chi-square formulas model the statistic's randomness as the
        # empirical noise power alone; simulate exactly that at n = 200,
        # checking each probability at a threshold where it is mid-range.
        cfg = replace_config_n(200)
        res = attack.epsilon ** 2 * channel.gain_w * cfg.lambda_a
        trojan = channel.gain_w * attack.lambda_t
        trials = 100_000
        rng = derive_rng(99, STREAM_NOISE)
        lz = np.mean(np.abs(
            complex_normal(rng, 200 * trials, channel.sigma_w_sq)
            .reshape(trials, 200)) ** 2, axis=1)
        def se(p_hat, p):   # covers the Poisson regime where p_hat may be 0
            return math.sqrt(max(p_hat * (1 - p_hat), p * (1 - p)) / trials)

        for tau in (TAU_REF, res + trojan + channel.sigma_w_sq):
            probs = analytic_error_probs(channel, attack, cfg, tau,
                                         Conditioning.H1_TRUE)
            p_f_hat = np.mean(res + lz > tau)
            p_m_hat = np.mean(res + trojan + lz < tau)
            assert abs(probs.p_f - p_f_hat) <= 3 * se(p_f_hat, probs.p_f)
            assert abs(probs.p_m - p_m_hat) <= 3 * se(p_m_hat, probs.p_m)

    def test_sum_decreases_with_trojan_power(self, channel):
        # a stronger trojan is easier to detect at the optimal threshold
        for n in (100, 1000, 10_000):
            cfg = replace_config_n(n)
            sums = []
            for lt in (0.05, 0.1, 0.2, 0.4):
                att = AttackParams(0.0, lt)
                tau = tau_dagger(channel, channel.h_w, lt, n)
                sums.append(analytic_error_probs(channel, att, cfg, tau,
                                                 Conditioning.H0_TRUE).sum)
            assert all(b < a for a, b in zip(sums, sums[1:]))


def replace_config_n(n):
    from covertpilot import SystemConfig
    return SystemConfig(lambda_a=20.0, r_a=3.5, delta_1=1 / math.sqrt(10),
                        delta_2=0.1, pilot_len=64, block_len=n)


class TestRegimes:
    def test_reference_point_is_blind_below(self, channel, config, attack):
        cls = classify_regime(channel, attack, config)
        assert cls.regime is Regime.BLIND_BELOW
        assert cls.delta_1_gap == pytest.approx((0.12 - TAU_REF) / 0.1,
                                                rel=1e-10)

    def test_silent_pilot_attack_is_detectable(self, channel, config):
        for lt in (0.05, 0.3, 1.0):
            cls = classify_regime(channel, AttackParams(0.0, lt), config)
            assert cls.regime is Regime.DETECTABLE

    def test_strong_trojan_is_detectable(self, channel, config):
        # tau(0.1, 1.0) = 0.17241 sits inside the sandwich (0.12, 0.22)
        cls = classify_regime(channel, AttackParams(0.1, 1.0), config)
        assert cls.regime is Regime.DETECTABLE
        assert cls.delta_1_gap < 0 and cls.delta_2_gap < 0

    def test_blind_above_reachable(self, config):
        # a tiny legitimate noise floor pushes tau above the upper level
        channel = ChannelParams(0.1, 0.1, 0.004, 0.1, 1.0, 1 + 0j, 1 + 0j)
        cfg = replace_config_n(1000)
        att = AttackParams(0.0, 0.001)
        cls = classify_regime(channel, att, cfg)
        assert (cls.regime in (Regime.BLIND_ABOVE, Regime.DETECTABLE))

    def test_exact_boundary_warns_and_is_detectable(self, channel, config):
        # lambda_t = 0 puts tau exactly on both levels (degenerate boundary)
        with pytest.warns(UserWarning, match="boundary"):
            cls = classify_regime(channel, AttackParams(0.0, 0.0), config)
        assert cls.regime is Regime.DETECTABLE
        assert cls.delta_1_gap == 0.0 and cls.delta_2_gap == 0.0

    def test_critical_power_separates_regimes(self, channel, config):
        star = solve_lambda_star(channel, config, 0.1).lambda_star
        below = classify_regime(channel, AttackParams(0.1, star / 2), config)
        above = classify_regime(channel, AttackParams(0.1, 2 * star), config)
        assert below.regime is Regime.BLIND_BELOW
        assert above.regime is not Regime.BLIND_BELOW
        # the root itself sits within float noise of the boundary
        near = classify_regime(channel, AttackParams(0.1, star), config)
        assert abs(near.delta_1_gap) < 1e-12


class TestTailBound:
    def test_reference_point_value(self, channel, config, attack):
        d1 = classify_regime(channel, attack, config).delta_1_gap
        expected = math.exp(-0.5 * config.block_len * d1 ** 2)
        assert tail_bound_sum(channel, attack, config) == pytest.approx(expected)
        assert expected == pytest.approx(0.7523857528, rel=1e-8)

    def test_zero_gap_is_vacuous(self, channel, config):
        with pytest.warns(UserWarning):
            bound = tail_bound_sum(channel, AttackParams(0.0, 0.0), config)
        assert bound == 1.0

    def test_detectable_regime_raises(self, channel, config):
        with pytest.raises(RegimeError):
            tail_bound_sum(channel, AttackParams(0.0, 0.3), config)

    def test_dominates_analytic_probabilities(self, channel, config):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            att = AttackParams(rng.uniform(0.0, 0.3), rng.uniform(0.01, 1.0))
            cls = classify_regime(channel, att, config)
            if cls.regime is Regime.DETECTABLE:
                continue
            actual = 1 - analytic_error_probs(
                channel, att, config, tau_eps(channel, att),
                Conditioning.H1_TRUE).sum
            assert actual <= tail_bound_sum(channel, att, config) + 1e-12
            checked += 1
        assert checked > 20

    def test_upper_regime_bound_dominates_exact_tail(self):
        # blind-above branch: exp(-n (1 + d2 - sqrt(1 + 2 d2))) must sit
        # above the exact chi-square upper tail it bounds
        from scipy.stats import chi2
        for n, d2 in ((50, 0.5), (200, 1.0), (1000, 0.2)):
            bound = math.exp(-n * (1 + d2 - math.sqrt(1 + 2 * d2)))
            exact = chi2.sf(2 * n * (1 + d2), 2 * n)
            assert exact <= bound


class TestSqrtLawBound:
    def test_limit_vanishes_at_both_ends(self, channel):
        small = sqrt_law_bound(channel, 1e-9, 1000).limit
        large = sqrt_law_bound(channel, 1e6, 1000).limit
        assert small < 1e-8 and large < 1e-8

    def test_finite_n_approaches_limit(self, channel):
        c = 0.25
        vals = [sqrt_law_bound(channel, c, n).finite_n
                for n in (10 ** 3, 10 ** 5, 10 ** 7)]
        lim = sqrt_law_bound(channel, c, 10 ** 3).limit
        errs = [abs(v - lim) for v in vals]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-4

    def test_solve_coefficient(self, channel):
        c = solve_sqrt_law_coefficient(channel, 0.1)
        assert c == pytest.approx(0.2526712057364, rel=1e-10)
        assert sqrt_law_bound(channel, c, 100).limit == pytest.approx(0.1,
                                                                      rel=1e-12)

    def test_solve_coefficient_rejects_unreachable_target(self, channel):
        with pytest.raises(ParameterError):
            solve_sqrt_law_coefficient(channel, 0.99)


class TestThresholdOptimality:
    def test_grid_argmin_at_tau_dagger(self):
        from covertpilot.verification import random_detection_config
        rng = np.random.default_rng(12)
        for _ in range(10):
            channel, lam_t, n = random_detection_config(rng)
            t_star = tau_dagger(channel, channel.h_w, lam_t, n)
            grid = np.linspace(0.3 * t_star, 3.0 * t_star, 10_000)
            sums = analytic_error_probs(channel, AttackParams(0.0, lam_t),
                                        replace_config_n(n), grid,
                                        Conditioning.H0_TRUE).sum
            step = grid[1] - grid[0]
            assert abs(grid[int(np.argmin(sums))] - t_star) <= step * (1 + 1e-9)

    def test_grid_objective_matches_pointwise_probs(self, channel):
        # an array of thresholds runs the same model as the scalar path
        cfg = replace_config_n(500)
        att = AttackParams(0.0, 0.2)
        taus = np.array([0.08, 0.11, 0.13, 0.2])
        vec = analytic_error_probs(channel, att, cfg, taus,
                                   Conditioning.H0_TRUE).sum
        for t, v in zip(taus, vec):
            assert analytic_error_probs(channel, att, cfg, float(t),
                                        Conditioning.H0_TRUE).sum == \
                pytest.approx(float(v), rel=1e-12)
