import ast
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covertpilot
from covertpilot import (AttackParams, ParameterError, Regime,
                         analytic_error_probs, attack_feasibility,
                         classify_regime, derive_rng, regime_gaps,
                         solve_lambda_star, solve_sqrt_law_coefficient,
                         sqrt_law_bound, tail_bound_sum, tau_dagger, tau_eps)
from covertpilot.channel import _abs2, complex_normal
from covertpilot.detection import (_dagger_terms, _expm1, _log2,
                                   _sqrt_law_limit, _threshold)
from reference import (STREAM_NOISE, CommHypothesis, alice_input,
                       radiometer_statistic, synthesize_received)

TAU_REF = 0.1192456710036019   # tau(eps) at eps=0.1, lambda_t=0.3 (40-digit eval)
SQRT_LAW_PEAK = math.sqrt(2 / (math.pi * math.e))   # rounds up the true peak


class TestRadiometer:
    def test_perfect_cancellation_gives_zero(self, channel, config, attack):
        x_a = alice_input(config, 4)
        y = math.sqrt(channel.alpha_w_sq) * channel.h_w * x_a
        assert radiometer_statistic(y, x_a, channel.h_w, channel) == 0.0

    def test_residual_level_under_trojan_silence(self, channel, config, attack):
        big = replace(config, block_len=100_000)
        y = synthesize_received(big, channel, attack,
                                comm_hypothesis=CommHypothesis.H0, seed=8)
        h_hat = (1 + attack.epsilon) * channel.h_w
        t = radiometer_statistic(y, alice_input(big, 8), h_hat, channel)
        expected = (attack.epsilon ** 2 * channel.gain_w * config.lambda_a
                    + channel.sigma_w_sq)
        assert t == pytest.approx(expected, rel=0.02)

    def test_residual_level_under_trojan_transmission(self, channel, config,
                                                      attack):
        big = replace(config, block_len=100_000)
        y = synthesize_received(big, channel, attack,
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
        # b = 0 gives the limit (n-1)/n sigma_w^2 as b -> 0+
        assert tau_dagger(channel, channel.h_w, 0.0, 100) == \
            0.99 * channel.sigma_w_sq
        # continuity: small powers approach sigma_w^2 (up to the O(1/n) factor)
        near = tau_dagger(channel, channel.h_w, 1e-9, 10_000)
        assert near == pytest.approx(channel.sigma_w_sq, rel=1e-3)
        # the factor is (n-1)/n: at n = 2 the threshold is half of sigma_w^2
        # at lambda_t = 0 and at the smallest powers alike
        for lt in (0.0, 1e-12):
            assert tau_dagger(channel, channel.h_w, lt, 2) == \
                pytest.approx(channel.sigma_w_sq / 2, rel=1e-9)

    def test_subnormal_b_keeps_the_zero_power_value(self, channel):
        # where b or x = b / sigma_w^2 is subnormal, b / x has lost its
        # precision; where x underflows to 0 it was inf
        at_zero = tau_dagger(channel, channel.h_w, 0.0, 10_000)
        for lt in (5e-323, 1e-314):
            assert tau_dagger(channel, channel.h_w, lt, 10_000) == at_zero
        for s2, lt in ((1e300, 1e-12), (1e23, 5e-301)):
            loud = replace(channel, sigma_w_sq=s2)
            assert tau_eps(loud, AttackParams(0.0, lt)) == s2

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
        probs = analytic_error_probs(channel, attack, config, TAU_REF)
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
        # |h_hat|^2 overflows, or b does, or h_hat is nan
        for h_hat, lt in ((1e308 + 1e308j, 0.3),
                          (np.array([1.0, 1e308 + 1e308j]), 0.3),
                          (1e200 + 0j, 0.3),
                          (complex(math.nan, 0.0), 0.3)):
            with pytest.raises(ParameterError,
                               match="finite scaled trojan power"):
                tau_dagger(channel, h_hat, lt, 100)


# b / -expm1(-b / s2) rounds three times, so where the true increase is
# below that rounding a larger argument may read about one ulp lower
TAU_ULPS = 4 * 2.0 ** -52
# knobs down to the subnormal ones, and noise powers up to 1e300, where
# b / sigma_w^2 is subnormal for knobs of ordinary size
KNOB = st.one_of(st.floats(0.0, 1e100), st.floats(0.0, 1e-300))
NOISE = st.floats(1e-3, 1e300)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(fixed=KNOB, knobs=st.lists(KNOB, min_size=2, max_size=8),
       along_eps=st.booleans(), s2=NOISE)
def test_tau_eps_nondecreasing(channel, fixed, knobs, along_eps, s2):
    knobs = np.sort(knobs)
    attack = AttackParams(knobs, fixed) if along_eps \
        else AttackParams(fixed, knobs)
    taus = tau_eps(replace(channel, sigma_w_sq=s2), attack)
    assert np.all(np.isfinite(taus))
    assert np.all(taus[1:] >= taus[:-1] * (1 - TAU_ULPS))


class TestAnalyticErrorProbs:
    def test_extreme_thresholds(self, channel, config, attack):
        hi = analytic_error_probs(channel, attack, config, 1e9)
        assert (hi.p_f, hi.p_m) == (0.0, 1.0)
        lo = analytic_error_probs(channel, attack, config, 1e-12)
        assert (lo.p_f, lo.p_m) == (1.0, 0.0)

    def test_below_residual_floor(self, channel, config, attack):
        # tau under the leakage level: alarm always fires, never misses
        probs = analytic_error_probs(channel, attack, config, 0.015)
        assert (probs.p_f, probs.p_m) == (1.0, 0.0)

    def test_sum_field(self, channel, config, attack):
        probs = analytic_error_probs(channel, attack, config, TAU_REF)
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
            probs = analytic_error_probs(channel, attack, cfg, tau)
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
                sums.append(analytic_error_probs(channel, att, cfg, tau).sum)
            assert all(b < a for a, b in zip(sums, sums[1:]))


def replace_config_n(n):
    from covertpilot import SystemConfig
    return SystemConfig(lambda_a=20.0, r_a=3.5, delta_1=1 / math.sqrt(10),
                        delta_2=0.1, pilot_len=64, block_len=n)


class TestRegimes:
    def test_reference_point_is_blind_below(self, channel, config, attack):
        assert classify_regime(channel, attack, config) is Regime.BLIND_BELOW
        _, d1, _ = regime_gaps(channel, attack, config)
        assert d1 == pytest.approx((0.12 - TAU_REF) / 0.1, rel=1e-10)

    def test_silent_pilot_attack_is_detectable(self, channel, config):
        for lt in (0.05, 0.3, 1.0):
            assert classify_regime(channel, AttackParams(0.0, lt),
                                   config) is Regime.DETECTABLE

    def test_strong_trojan_is_detectable(self, channel, config):
        # tau(0.1, 1.0) = 0.17241 sits inside the sandwich (0.12, 0.22)
        att = AttackParams(0.1, 1.0)
        assert classify_regime(channel, att, config) is Regime.DETECTABLE
        _, d1, d2 = regime_gaps(channel, att, config)
        assert d1 < 0 and d2 < 0

    def test_blind_above_reachable(self, channel, config):
        # a strong trojan on a short block lifts tau above the upper level:
        # at n = 10, (0.1, 10) sits 0.90 noise units above it
        cfg = replace(config, pilot_len=1, block_len=10)
        att = AttackParams(0.1, 10.0)
        assert classify_regime(channel, att, cfg) is Regime.BLIND_ABOVE
        _, d1, d2 = regime_gaps(channel, att, cfg)
        assert d1 < 0 < d2

    def test_exact_boundary_warns_and_is_detectable(self, channel, config):
        # lambda_t = 0 puts tau exactly on both levels (degenerate boundary)
        att = AttackParams(0.0, 0.0)
        with pytest.warns(UserWarning, match="boundary"):
            regime = classify_regime(channel, att, config)
        assert regime is Regime.DETECTABLE
        _, d1, d2 = regime_gaps(channel, att, config)
        assert d1 == 0.0 and d2 == 0.0

    def test_critical_power_separates_regimes(self, channel, config):
        star = solve_lambda_star(channel, config, 0.1)
        below = classify_regime(channel, AttackParams(0.1, star / 2), config)
        above = classify_regime(channel, AttackParams(0.1, 2 * star), config)
        assert below is Regime.BLIND_BELOW
        assert above is not Regime.BLIND_BELOW
        # the root itself sits within float noise of the boundary
        _, d1, _ = regime_gaps(channel, AttackParams(0.1, star), config)
        assert abs(d1) < 1e-12


class TestTailBound:
    def test_reference_point_value(self, channel, config, attack):
        _, d1, _ = regime_gaps(channel, attack, config)
        expected = math.exp(-0.5 * config.block_len * d1 ** 2)
        assert tail_bound_sum(channel, attack, config) == pytest.approx(expected)
        assert expected == pytest.approx(0.7523857528, rel=1e-8)

    def test_zero_gap_is_vacuous(self, channel, config):
        # reads the gaps directly, so no classification warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = tail_bound_sum(channel, AttackParams(0.0, 0.0), config)
        assert bound == 1.0

    def test_detectable_regime_raises(self, channel, config):
        with pytest.raises(ParameterError, match="blind-test regimes"):
            tail_bound_sum(channel, AttackParams(0.0, 0.3), config)

    def test_dominates_analytic_probabilities(self, channel, config):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            att = AttackParams(rng.uniform(0.0, 0.3), rng.uniform(0.01, 1.0))
            if classify_regime(channel, att, config) is Regime.DETECTABLE:
                continue
            actual = 1 - analytic_error_probs(
                channel, att, config, tau_eps(channel, att)).sum
            assert actual <= tail_bound_sum(channel, att, config) + 1e-12
            checked += 1
        assert checked > 20

    def test_blind_above_point_of_reference_channel(self, channel, config):
        # (0.2, 10) puts tau(eps) 2.60 noise units above the upper level; at
        # n = 10 both the bound and 1 - (P_F + P_M) stay above underflow
        cfg = replace(config, pilot_len=1, block_len=10)
        att = AttackParams(0.2, 10.0)
        assert classify_regime(channel, att, cfg) is Regime.BLIND_ABOVE
        _, d1, d2 = regime_gaps(channel, att, cfg)
        assert d1 < 0 < d2
        assert d2 == pytest.approx(2.60, abs=0.005)
        bound = tail_bound_sum(channel, att, cfg)
        actual = 1 - analytic_error_probs(channel, att, cfg,
                                          tau_eps(channel, att)).sum
        assert 0 < actual <= bound < 1

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
        # the limit at the returned c meets the target to 2 ulp from the
        # tiny-target end to just below the peak, and c scales exactly with
        # sigma_w^2; one ulp under the rounded peak is still under the true
        # peak, so it has a root too
        targets = [1e-300, 1e-12, 1e-6, 0.05, 0.1, 0.3, 0.48,
                   math.nextafter(SQRT_LAW_PEAK, 0)]
        for ch in (channel, replace(channel, sigma_w_sq=1e-3),
                   replace(channel, h_w=3 + 4j)):
            doubled = replace(ch, sigma_w_sq=2 * ch.sigma_w_sq)
            for target in targets:
                c = solve_sqrt_law_coefficient(ch, target)
                assert abs(_sqrt_law_limit(ch, c) - target) \
                    <= 2 * math.ulp(target), (ch, target)
                assert solve_sqrt_law_coefficient(doubled, target) == 2 * c

    def test_solve_coefficient_rejects_unreachable_target(self, channel):
        # the rounded peak itself puts W0's argument on its branch point,
        # where it is NaN; above the peak W0 is complex
        for target in (SQRT_LAW_PEAK, math.nextafter(SQRT_LAW_PEAK, 1), 0.5,
                       0.99):
            with pytest.raises(ParameterError,
                               match="not below the peak bound 0.483941$"):
                solve_sqrt_law_coefficient(channel, target)


class TestThresholdOptimality:
    def test_grid_argmin_at_tau_dagger(self):
        from covertpilot.verification import random_detection_config
        rng = np.random.default_rng(12)
        for _ in range(10):
            channel, lam_t, n = random_detection_config(rng)
            t_star = tau_dagger(channel, channel.h_w, lam_t, n)
            grid = np.linspace(0.3 * t_star, 3.0 * t_star, 10_000)
            sums = analytic_error_probs(channel, AttackParams(0.0, lam_t),
                                        replace_config_n(n), grid).sum
            step = grid[1] - grid[0]
            assert abs(grid[int(np.argmin(sums))] - t_star) <= step * (1 + 1e-9)

    def test_grid_objective_matches_pointwise_probs(self, channel):
        # an array of thresholds runs the same model as the scalar path
        cfg = replace_config_n(500)
        att = AttackParams(0.0, 0.2)
        taus = np.array([0.08, 0.11, 0.13, 0.2])
        vec = analytic_error_probs(channel, att, cfg, taus).sum
        for t, v in zip(taus, vec):
            assert analytic_error_probs(channel, att, cfg, float(t)).sum == \
                pytest.approx(float(v), rel=1e-12)


# h_hat as a modulus and a phase, and lambda_t down to the smallest
# subnormal, where b = alpha_w^2 |h_hat|^2 lambda_t may be subnormal or
# underflow to 0; the monotonicity properties add b = 0 itself, where
# tau_dagger returns its limit (n-1)/n sigma_w^2 as b -> 0+
# (test_tau_dagger_zero_power_extension).
POSITIVE = st.floats(1e-100, 1e100)
POWER = st.one_of(POSITIVE, st.floats(5e-324, 1e-300))
GAIN = st.builds(lambda r, turn: r * complex(math.cos(turn), math.sin(turn)),
                 POSITIVE, st.floats(0.0, 2 * math.pi))
BLOCK = st.integers(2, 10 ** 6)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(gains=st.lists(GAIN, min_size=2, max_size=8), lt=POWER, n=BLOCK,
       s2=NOISE)
def test_tau_dagger_nondecreasing_in_gain(channel, gains, lt, n, s2):
    h_hat = np.array([0j] + sorted(gains, key=abs))        # b = 0 first
    taus = tau_dagger(replace(channel, sigma_w_sq=s2), h_hat, lt, n)
    assert np.all(np.isfinite(taus))
    assert np.all(taus[1:] >= taus[:-1] * (1 - TAU_ULPS))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(h_hat=GAIN, powers=st.lists(POWER, min_size=2, max_size=8),
       n=BLOCK, s2=NOISE)
def test_tau_dagger_nondecreasing_in_power(channel, h_hat, powers, n, s2):
    channel = replace(channel, sigma_w_sq=s2)
    taus = np.array([tau_dagger(channel, h_hat, lt, n)
                     for lt in [0.0] + sorted(powers)])    # b = 0 first
    assert np.all(np.isfinite(taus))
    assert np.all(taus[1:] >= taus[:-1] * (1 - TAU_ULPS))


# the sweep's tau_eps_w column and `rate` print thresholds of one
# broadcast core; an array call must give each element the bytes a scalar
# call gives, bit for bit
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(gains=st.lists(GAIN, min_size=1, max_size=16), lt=KNOB, n=BLOCK)
def test_tau_dagger_array_equals_scalar_calls(channel, gains, lt, n):
    taus = tau_dagger(channel, np.array(gains), lt, n)
    assert taus.tolist() == [tau_dagger(channel, h, lt, n) for h in gains]


# the two-phase Monte Carlo thresholds a chunk of estimates with
# tau_dagger's terms and np.expm1: each threshold within a few ulp of a
# scalar tau_dagger, b = 0 and subnormal b included, and exactly its
# limit (n-1)/n sigma_w^2 at lambda_t = 0
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(gains=st.lists(GAIN, min_size=1, max_size=16), lt=POWER, n=BLOCK,
       s2=NOISE)
def test_chunk_threshold_within_ulps_of_tau_dagger(channel, gains, lt, n, s2):
    channel = replace(channel, sigma_w_sq=s2)
    h_hat = np.array([0j] + gains)                         # b = 0 first

    def chunk_threshold(lt):
        return _threshold(*_dagger_terms(channel, h_hat, lt, n), np.expm1)

    taus = chunk_threshold(lt)
    ref = np.array([tau_dagger(channel, h, lt, n) for h in h_hat.tolist()])
    assert np.all(np.abs(taus - ref) <= 8 * 2.0 ** -52 * ref)
    assert chunk_threshold(0.0).tolist() == [(n - 1) / n * s2] * len(h_hat)


def _bits(x):
    """The float64 bit patterns of ``x``, every nan mapped to one pattern."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.uint64).tolist()


SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -4e-320,
            2.2250738585072014e-308, 1e308, -1e308, 1.0)


# |h|^2 is Re^2 + Im^2 in products and a sum, which round alike in numpy
# and Python: an array call matches the per-element scalar calls bit for
# bit, and a finite gain whose square overflows gives inf, never a raise
def test_abs2_array_equals_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(5)
    parts = rng.standard_normal((2, 50_000)) \
        * 10.0 ** rng.uniform(-320, 300, (2, 50_000))
    pairs = np.array([(a, b) for a in SPECIALS for b in SPECIALS]).T
    for re, im in (parts, pairs):
        z = re.astype(complex)
        z.imag = im   # re + 1j * im would turn inf * 0j into nan
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(_abs2(z)) == _bits([_abs2(v) for v in z.tolist()])
            assert _bits(_abs2(re)) == _bits([_abs2(v) for v in re.tolist()])
    for v in (1e200 + 1e200j, 1.5e308 + 1.5e308j):
        assert _abs2(v) == math.inf


# a second way of squaring in the analytic core would break the contract
# above (pow and hypot round otherwise than a product) or the covertness
# self-check, which compares kl_pilot_limit with 2 * (eps * eps)
@pytest.mark.parametrize("module", ["channel", "detection", "pilot", "rates"])
def test_analytic_core_squares_only_by_products(module):
    path = Path(covertpilot.__file__).parent / f"{module}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                and isinstance(node.right, ast.Constant) \
                and node.right.value == 2 \
                or isinstance(node, (ast.Name, ast.Attribute)) \
                and ast.unparse(node) in ("float_power", "np.float_power",
                                          "np.hypot"):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert found == []


# _expm1 and _log2 call math.expm1 and math.log2 once per element, so an
# array call equals the per-element math results bit for bit, in any shape
# or memory layout, and raises what math raises outside the domain
# each function over its domain: expm1 up to its overflow near 709.78,
# log2 over positive floats from the smallest subnormal to inf
@pytest.mark.parametrize("ours, ref, scale, bad", [
    (_expm1, math.expm1, lambda u: 700 * u, 1e3),
    (_log2, math.log2, lambda u: 10.0 ** (620 * np.abs(u) - 320), -1.0),
], ids=["expm1", "log2"])
def test_per_element_math_equals_math_bit_for_bit(ours, ref, scale, bad):
    values = scale(np.random.default_rng(6).uniform(-1, 1, 600))
    specials = [v for v in SPECIALS if _raised(ref, v) is None]
    values[:len(specials)] = specials
    for x in (values, values.reshape(20, 30), values.reshape(20, 30)[::3, 1::4],
              values[::-7], values[:0], values[:0].reshape(0, 4)):
        y = ours(x)
        assert isinstance(y, np.ndarray) and y.dtype == float
        assert y.shape == x.shape
        assert _bits(y.ravel()) == _bits([ref(v) for v in x.ravel().tolist()])
    for v in (np.array(0.5), np.float64(3.0), 2.0, values[-1]):
        y = ours(v)
        assert isinstance(y, float) and _bits(y) == _bits(ref(float(v)))
    # outside the domain: the exception math raises
    raised = type(_raised(ref, bad))
    for x in (bad, np.array(bad), np.array([1.0, bad]),
              np.array([[1.0], [bad]])[:, 0]):
        with pytest.raises(raised):
            ours(x)


def _raised(fn, x):
    """The exception ``fn(x)`` raises, or None."""
    try:
        fn(x)
    except (ValueError, OverflowError) as exc:
        return exc
    return None
