import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertpilot import (AttackParams, ChannelParams, ParameterError,
                         SystemConfig, link_capacity, solve_lambda_star,
                         attack_feasibility, power_scaling_table,
                         sqrt_law_bound, tau_eps, willie_sinr)
from covertpilot.detection import regime_gaps, statistic_levels

R_A_REF = 3.5138539382230082        # 0.8 * log2(21)
LOG2_1P3 = 0.37851162325372981       # interference-cancellation rate at 0.3


class TestWillieSinr:
    def test_clean_snr_without_attack(self, channel, config):
        g = willie_sinr(channel, AttackParams(0.0, 0.0), config)
        assert g == pytest.approx(channel.gain_w * config.lambda_a
                                  / channel.sigma_w_sq)

    def test_reference_value(self, channel, config, attack):
        assert willie_sinr(channel, attack, config) == pytest.approx(
            2 / 0.15, rel=1e-12)

    def test_strictly_decreasing_in_both_knobs(self, channel, config):
        for lt in (0.1, 0.5):
            vals = [willie_sinr(channel, AttackParams(e, lt), config)
                    for e in np.linspace(0, 0.4, 10)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        for eps in (0.0, 0.2):
            vals = [willie_sinr(channel, AttackParams(eps, lt), config)
                    for lt in np.linspace(0.01, 1.0, 10)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(fixed=st.floats(0.0, 1e100),
       knobs=st.lists(st.floats(0.0, 1e100), min_size=2, max_size=8),
       along_eps=st.booleans())
def test_willie_sinr_nonincreasing(channel, config, fixed, knobs, along_eps):
    knobs = np.sort(knobs)
    attack = AttackParams(knobs, fixed) if along_eps \
        else AttackParams(fixed, knobs)
    sinr = willie_sinr(channel, attack, config)
    assert np.all(np.isfinite(sinr))
    assert np.all(sinr[1:] <= sinr[:-1])


class TestAttackFeasibility:
    def test_reference_point_feasible_with_rates(self, channel, config, attack):
        rep = attack_feasibility(channel, attack, config)
        assert rep.feasible
        assert rep.cond_pilot_covert and rep.cond_blind_comm
        assert rep.cond_no_disruption and rep.cond_eve_ic
        assert rep.r_t_ic == pytest.approx(LOG2_1P3, abs=1e-12)
        assert rep.r_t_tin == pytest.approx(0.020464102559715532, rel=1e-12)
        assert rep.gamma_w == pytest.approx(13.333333333333334, rel=1e-12)
        # the margin driving condition 3 at this point
        assert math.log2(1 + rep.gamma_w) == pytest.approx(3.8413022539795186)
        assert config.r_a == pytest.approx(R_A_REF, rel=1e-14)

    def test_large_scaling_fails_pilot_covertness(self, channel, config):
        rep = attack_feasibility(channel, AttackParams(0.3, 0.1), config)
        assert not rep.cond_pilot_covert
        assert not rep.feasible

    def test_strong_attack_disrupts_link(self, channel, config):
        # (0.2, 0.5): covert pilot and low threshold hold, but the degraded
        # capacity log2(1 + 8.6957) = 3.2773 falls below r_a = 3.5139
        rep = attack_feasibility(channel, AttackParams(0.2, 0.5), config)
        assert rep.cond_pilot_covert and rep.cond_blind_comm
        assert not rep.cond_no_disruption
        assert not rep.feasible
        assert math.log2(1 + rep.gamma_w) == pytest.approx(3.277337944,
                                                           rel=1e-9)

    def test_silent_pilot_attack_fails_threshold_condition(self, channel,
                                                           config):
        rep = attack_feasibility(channel, AttackParams(0.0, 0.3), config)
        assert not rep.cond_blind_comm
        assert not rep.feasible

    def test_ic_rate_dominates_tin(self, channel, config):
        rng = np.random.default_rng(4)
        for _ in range(50):
            att = AttackParams(rng.uniform(0, 0.3), rng.uniform(0.01, 1.0))
            rep = attack_feasibility(channel, att, config)
            assert rep.r_t_ic >= rep.r_t_tin

    def test_tin_equals_ic_without_legitimate_interference(self, config):
        deaf = ChannelParams(0.1, 0.0, 0.1, 0.1, 1.0, 1 + 0j, 1 + 0j)
        rep = attack_feasibility(deaf, AttackParams(0.1, 0.3), config)
        assert rep.r_t_tin == rep.r_t_ic == 0.0

    def test_ic_fallback_when_cancellation_impossible(self, channel):
        # strong trojan power at the rogue receiver breaks its ability to
        # decode the legitimate signal first; rate falls back to the
        # treat-as-noise value
        cfg = SystemConfig(lambda_a=20.0, r_a=4.0, delta_1=0.99, delta_2=0.1,
                           pilot_len=4, block_len=100)
        rep = attack_feasibility(channel, AttackParams(0.1, 2.0), cfg)
        assert not rep.cond_eve_ic
        assert rep.r_t_ic == rep.r_t_tin

    def test_grid_matches_pointwise_calls(self, channel, config):
        # one broadcast call gives every cell the bytes of the scalar call
        eps = np.array([0.0, 0.1, 0.2])[:, None]
        lts = np.array([0.0, 0.1, 0.3, 1.0])
        grid = attack_feasibility(channel, AttackParams(eps, lts), config)
        for i, e in enumerate(eps[:, 0]):
            for j, lt in enumerate(lts):
                point = attack_feasibility(channel, AttackParams(e, lt), config)
                for name, value in point._asdict().items():
                    assert np.broadcast_to(getattr(grid, name),
                                           (3, 4))[i, j] == value, name

    def test_shrinking_trojan_power_preserves_conditions(self, channel,
                                                         config):
        base = AttackParams(0.1, 0.3)
        assert attack_feasibility(channel, base, config).feasible
        for lt in (0.2, 0.1, 0.02):
            rep = attack_feasibility(channel, AttackParams(0.1, lt), config)
            assert rep.cond_blind_comm and rep.cond_no_disruption

    def test_feasible_reports_respect_link_margin(self, channel, config):
        rng = np.random.default_rng(8)
        for _ in range(100):
            att = AttackParams(rng.uniform(0, 0.25), rng.uniform(0.01, 1.0))
            rep = attack_feasibility(channel, att, config)
            if rep.feasible:
                assert config.r_a < link_capacity(channel, config.lambda_a)


# grids of distinct values a thousandth of the axis apart, eps over [0, 0.5]
# (past the covertness limit delta_1 / sqrt(2) = 0.2236) and lambda_t over
# [0, 10], so that every step moves gamma_w by far more than a rounding
AXIS = st.lists(st.integers(0, 1000), min_size=1, max_size=12, unique=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(eps_steps=AXIS, lt_steps=AXIS)
def test_feasibility_grid_properties(channel, config, eps_steps, lt_steps):
    eps = np.sort(eps_steps)[:, None] * 5e-4
    lts = np.sort(lt_steps) * 1e-2
    shape = (eps.size, lts.size)
    rep = attack_feasibility(channel, AttackParams(eps, lts), config)
    feasible, gamma, tin, ic = (np.broadcast_to(v, shape) for v in (
        rep.feasible, rep.gamma_w, rep.r_t_tin, rep.r_t_ic))
    # a feasible cell stays feasible at every lower trojan power
    assert np.all(np.diff(feasible.astype(int), axis=1) <= 0)
    assert np.all(np.diff(gamma, axis=0) < 0)
    assert np.all(np.diff(gamma, axis=1) < 0)
    assert np.all(ic >= tin) and np.all(tin >= 0)


class TestLambdaStar:
    def test_reference_value_and_residual(self, channel, config):
        star = solve_lambda_star(channel, config, 0.1)
        assert star == pytest.approx(0.3111057828507945, rel=1e-10)
        floor = 0.01 * channel.gain_w * config.lambda_a + channel.sigma_w_sq
        residual = abs(tau_eps(channel, AttackParams(0.1, star)) - floor)
        assert residual <= 1e-10 * floor

    def test_rejects_silent_attack(self, channel, config):
        with pytest.raises(ParameterError):
            solve_lambda_star(channel, config, 0.0)

    def test_grows_with_eps(self, channel, config):
        stars = [solve_lambda_star(channel, config, e)
                 for e in (0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(stars, stars[1:]))


# the residual part of the floor, 2 eps^2 at the reference point, meets the
# root tolerance 1e-10 floor at eps = 2.24e-6
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(epsilon=st.floats(min_value=0, max_value=1, exclude_min=True))
@example(epsilon=5e-324)
@example(epsilon=2.2e-6)
@example(epsilon=2.3e-6)
@example(epsilon=1.0)
def test_lambda_star_sits_on_the_floor(channel, config, epsilon):
    floor, _ = statistic_levels(channel, AttackParams(epsilon, 0.0), config)
    if floor - channel.sigma_w_sq <= 1e-10 * floor:
        with pytest.raises(ParameterError, match="root tolerance"):
            solve_lambda_star(channel, config, epsilon)
        return
    star = solve_lambda_star(channel, config, epsilon)
    assert abs(tau_eps(channel, AttackParams(epsilon, star)) - floor) \
        <= 1e-10 * floor
    # blind below just under lambda*, not just over it
    _, below, _ = regime_gaps(channel, AttackParams(epsilon, 0.999 * star),
                              config)
    _, above, _ = regime_gaps(channel, AttackParams(epsilon, 1.001 * star),
                              config)
    assert below > 0 >= above


class TestPowerScalingTable:
    N_GRID = [1000, 10_000, 100_000, 1_000_000]

    def test_super_sqrt_power_is_detected(self, channel, config):
        rows = power_scaling_table(channel, config, 0.25, 1.0, self.N_GRID)
        sums = [r.p_sum for r in rows]
        assert all(b < a for a, b in zip(sums, sums[1:]))
        assert sums[-1] < 1e-3

    def test_sqrt_power_flattens_to_constant(self, channel, config):
        c = 0.25
        rows = power_scaling_table(channel, config, 0.5, c, self.N_GRID)
        sums = [r.p_sum for r in rows]
        assert max(sums) - min(sums) < 0.02
        # true limit of 1 - sum along fixed c: the statistic window spans
        # +-beta/2 around the noise floor, each margin worth c/2 noise
        # standard deviations, so the captured mass tends to erf(c / (2 sqrt 2))
        true_limit = math.erf(c / (2 * math.sqrt(2)))
        assert 1 - sums[-1] == pytest.approx(true_limit, abs=1e-3)
        # the closed-form limit expression agrees with the true limit to
        # O(c^2); it is an approximation near the mode, not a strict bound
        limits = [sqrt_law_bound(channel, r.lambda_t * math.sqrt(r.n),
                                 r.n).limit for r in rows]
        assert all(abs((1 - s) - lim) <= 0.25 * c ** 2 * lim
                   for s, lim in zip(sums, limits))

    def test_sub_sqrt_power_is_trivially_covert(self, channel, config):
        rows = power_scaling_table(channel, config, 0.75, 1.0, self.N_GRID)
        sums = [r.p_sum for r in rows]
        assert all(b > a for a, b in zip(sums, sums[1:]))
        assert sums[-1] > 0.95

    def test_rate_is_first_order_linear_in_power(self, channel, config):
        rows = power_scaling_table(channel, config, 0.5, 0.25, self.N_GRID)
        rel = []
        for r in rows:
            linear = channel.gain_e * r.lambda_t / (channel.sigma_e_sq
                                                    * math.log(2))
            rel.append(abs(r.r_t - linear) / linear)
        assert all(e < 0.01 for e in rel)
        assert all(b < a for a, b in zip(rel, rel[1:]))  # vanishing correction

    def test_rejects_negative_exponent(self, channel, config):
        with pytest.raises(ParameterError):
            power_scaling_table(channel, config, -0.5, 1.0, [100])


class TestNonMonotoneRateInEps:
    def test_best_eps_is_interior(self, channel, config):
        # max-over-power rate is not maximized by the largest covert eps:
        # the critical power grows with eps but the link-margin constraint
        # shrinks the admissible power quadratically
        eps_grid = np.linspace(0.005, 0.22, 44)
        best = []
        for eps in eps_grid:
            feas = [attack_feasibility(channel, AttackParams(eps, lt),
                                         config)
                    for lt in np.linspace(0.01, 1.0, 100)]
            rates = [r.r_t_ic for r in feas if r.feasible]
            best.append(max(rates) if rates else 0.0)
        k = int(np.argmax(best))
        assert 0 < k < len(eps_grid) - 1
        edge = 1 / math.sqrt(20)
        assert 0.0 < eps_grid[k] < edge
        assert best[k] > best[-1]
