import dataclasses
import math
import warnings

import numpy as np
import pytest

from covertpilot import (AttackParams, ChannelParams, McConfig,
                         ParameterError, SystemConfig, build_scenario,
                         derive_rng, gaussian_input, link_capacity,
                         mc_comm_error_probs)
from covertpilot.channel import REFERENCE, complex_normal
from reference import (STREAM_NOISE, STREAM_TROJAN, CommHypothesis,
                       alice_input, make_pilot, synthesize_received,
                       trojan_input)


class TestMakePilot:
    # the full-vector references' pilot; a non-unit pilot is sqrt(power)
    # times the unit one, as the tests that need one build it
    @pytest.mark.parametrize("length,power,energy",
                             [(4, 1.0, 4.0), (100, 0.5, 50.0), (1, 2.0, 2.0)])
    def test_energy(self, length, power, energy):
        pilot = math.sqrt(power) * make_pilot(length)
        assert np.vdot(pilot, pilot).real == pytest.approx(
            energy, abs=1e-12)

    def test_single_sample_amplitude(self):
        assert make_pilot(1).tolist() == [1 + 0j]

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError, match="pilot_len must be >= 1"):
            make_pilot(0)


class TestExactPower:
    def test_gaussian_input_block_power(self):
        for seed, (n, power) in enumerate([(16, 2.0), (1000, 0.3), (5, 7.0)]):
            x = gaussian_input(n, power, derive_rng(seed))
            assert np.mean(np.abs(x) ** 2) == pytest.approx(power, rel=1e-12)

    def test_alice_and_trojan_blocks(self, channel, config, attack):
        x_a, x_t = alice_input(config, 3), trojan_input(config, attack, 3)
        assert np.mean(np.abs(x_a) ** 2) == pytest.approx(config.lambda_a,
                                                          rel=1e-12)
        assert np.mean(np.abs(x_t) ** 2) == pytest.approx(attack.lambda_t,
                                                          rel=1e-12)

    def test_zero_power_block(self):
        assert np.all(gaussian_input(8, 0.0, derive_rng(0)) == 0)


class TestNoise:
    def test_empirical_noise_power(self):
        z = complex_normal(derive_rng(11), 100_000, 0.1)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(0.1, rel=0.01)


class TestSynthesize:
    def test_pilot_zero_noise_limit(self, config, attack):
        quiet = ChannelParams(0.1, 0.1, 1e-30, 0.1, 1.0, 0.7 - 0.2j, 1 + 0j)
        clean = AttackParams(0.0, attack.lambda_t)
        y = synthesize_received(config, quiet, clean, seed=5)
        expected = math.sqrt(0.1) * (0.7 - 0.2j) * make_pilot(config.pilot_len)
        assert np.max(np.abs(y - expected)) < 1e-10

    def test_eps_zero_hypotheses_coincide(self, channel, config):
        # an eps = 0 attack sends exactly the clean pilot block
        silent = AttackParams(0.0, 0.5)
        y = synthesize_received(config, channel, silent, seed=9)
        z = complex_normal(derive_rng(9, STREAM_NOISE), config.pilot_len,
                           channel.sigma_w_sq)
        clean = math.sqrt(channel.alpha_w_sq) * channel.h_w \
            * make_pilot(config.pilot_len) + z
        assert np.array_equal(y, clean)

    def test_pilot_scaling_applied(self, channel, config, attack):
        y0 = synthesize_received(config, channel,
                                 AttackParams(0.0, attack.lambda_t), seed=9)
        y1 = synthesize_received(config, channel, attack, seed=9)
        s = make_pilot(config.pilot_len)
        diff = y1 - y0
        expected = math.sqrt(0.1) * channel.h_w * attack.epsilon * s
        assert np.max(np.abs(diff - expected)) < 1e-12

    def test_comm_trojan_power_lln(self, channel, config, attack):
        y = synthesize_received(config, channel, attack,
                                comm_hypothesis=CommHypothesis.H1, seed=17)
        x_a = alice_input(config, 17)
        resid = y - math.sqrt(0.1) * channel.h_w * x_a
        level = np.mean(np.abs(resid) ** 2)
        expected = channel.gain_w * attack.lambda_t + channel.sigma_w_sq
        assert level == pytest.approx(expected, rel=0.05)

    def test_components_reconstruct_exactly(self, channel, config, attack):
        y = synthesize_received(config, channel, attack,
                                comm_hypothesis=CommHypothesis.H1, seed=23)
        a_w = math.sqrt(channel.alpha_w_sq)
        x_a = alice_input(config, 23)
        x_t = trojan_input(config, attack, 23)
        z = complex_normal(derive_rng(23, STREAM_NOISE), config.block_len,
                           channel.sigma_w_sq)
        rebuilt = (a_w * channel.h_w * x_a + z) + a_w * channel.h_w * x_t
        assert np.array_equal(y, rebuilt)

    def test_bit_identical_for_same_seed(self, channel, config, attack):
        kw = dict(comm_hypothesis=CommHypothesis.H1, seed=31)
        a = synthesize_received(config, channel, attack, **kw)
        b = synthesize_received(config, channel, attack, **kw)
        assert np.array_equal(a, b)

    def test_phase_hypothesis_consistency(self, channel, config, attack):
        # a communication hypothesis picks the data phase, which takes no
        # pilot; without one the block is the pilot observation
        y = synthesize_received(config, channel, attack, seed=0,
                                pilot=make_pilot(4))
        assert y.shape == (4,)
        with pytest.raises(ParameterError):
            synthesize_received(config, channel, attack,
                                comm_hypothesis=CommHypothesis.H0, seed=0,
                                pilot=make_pilot(4))


class TestStreamIndependence:
    def test_distinct_paths_differ(self):
        a = derive_rng(7, STREAM_NOISE).standard_normal(4)
        b = derive_rng(7, STREAM_TROJAN).standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_path_bit_identical(self):
        a = derive_rng(7, 1, 2).standard_normal(4)
        b = derive_rng(7, 1, 2).standard_normal(4)
        assert np.array_equal(a, b)


class TestParams:
    def test_channel_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            ChannelParams(-0.1, 0.1, 0.1, 0.1, 1.0, 1 + 0j, 1 + 0j)
        with pytest.raises(ParameterError):
            ChannelParams(0.1, 0.1, 0.0, 0.1, 1.0, 1 + 0j, 1 + 0j)
        with pytest.raises(ParameterError):
            ChannelParams(0.1, 0.1, 0.1, 0.1, 0.0, 1 + 0j, 1 + 0j)
        with pytest.raises(ParameterError, match="h_w must be finite"):
            ChannelParams(0.1, 0.1, 0.1, 0.1, 1.0, complex("nan+0j"), 1 + 0j)
        with pytest.raises(ParameterError, match="h_e must be finite"):
            ChannelParams(0.1, 0.1, 0.1, 0.1, 1.0, 1 + 0j, complex(0, math.inf))
        with pytest.raises(ParameterError, match="h_w must be a scalar"):
            ChannelParams(0.1, 0.1, 0.1, 0.1, 1.0, np.array([1 + 0j]), 1 + 0j)
        with pytest.raises(ParameterError, match="h_e must be a scalar"):
            ChannelParams(0.1, 0.1, 0.1, 0.1, 1.0, 1 + 0j, "1+0j")

    def test_attack_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            AttackParams(-0.1, 0.3)
        with pytest.raises(ParameterError):
            AttackParams(0.1, float("inf"))
        # a grid is checked element by element
        with pytest.raises(ParameterError, match="epsilon must be finite"):
            AttackParams(np.array([0.1, -0.1]), 0.3)
        with pytest.raises(ParameterError, match="lambda_t must be finite"):
            AttackParams(0.1, np.array([[0.3], [np.nan]]))
        # silent pilot attack with positive power is legal
        AttackParams(0.0, 0.3)

    # a Python float or int is checked as a scalar, an array or a numpy
    # scalar element by element; both paths accept and reject alike
    @pytest.mark.parametrize("wrap", [lambda v: v, np.array, np.float64],
                             ids=["python", "array", "numpy-scalar"])
    def test_attack_knob_paths_agree(self, wrap):
        for good in (0, 0.0, 3, 0.3, 1e300):
            AttackParams(wrap(good), wrap(good))
        for bad in (-1, -1e-300, math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterError, match="epsilon must be finite"):
                AttackParams(wrap(bad), 0.3)
            with pytest.raises(ParameterError, match="lambda_t must be finite"):
                AttackParams(0.1, wrap(bad))

    def test_attack_knob_of_int_beyond_float_range(self):
        with pytest.raises(ParameterError, match="lambda_t must be finite"):
            AttackParams(0.1, 10 ** 400)
        AttackParams(np.int64(2), np.float32(0.3))

    @pytest.mark.parametrize("knob,got", [
        ("0.1", "str"), (0.1 + 0j, "complex"), (None, "NoneType"),
        (np.complex128(0.1), "complex128"),
        (np.array(["0.1"]), "ndarray of dtype <U3"),
        (np.array([0.1 + 0j]), "ndarray of dtype complex128"),
        (np.array([0.1], dtype=object), "ndarray of dtype object")])
    def test_attack_rejects_non_real_knob_by_name(self, knob, got):
        with pytest.raises(ParameterError, match="^epsilon must be a real "
                           f"number or a real array, not {got}$"):
            AttackParams(knob, 0.3)
        with pytest.raises(ParameterError, match="^lambda_t must be a real"):
            AttackParams(0.1, knob)

    def test_config_link_margin_guard(self, channel):
        with pytest.raises(ParameterError, match="link margin"):
            build_scenario(r_a=4.5)
        # exactly at capacity is also rejected (strict margin)
        cap = math.log2(1 + channel.gain_w * 20.0 / channel.sigma_w_sq)
        with pytest.raises(ParameterError, match="link margin"):
            build_scenario(r_a=cap)

    def test_link_capacity_at_tiny_snr(self, channel):
        # log2(1 + snr) rounds 1 + snr and was wrong in the third digit
        # here; the capacity is snr (1 - snr / 2) / ln 2 to second order
        # (snr / ln 2 alone is 1.1e-15 off at this SNR)
        lambda_a = 2e-15
        snr = channel.gain_w * lambda_a / channel.sigma_w_sq
        assert math.isclose(link_capacity(channel, lambda_a),
                            snr * (1 - snr / 2) / math.log(2), rel_tol=1e-15)

    def test_only_two_phase_run_warns_on_long_pilot(self, channel, attack):
        # a configuration never sets its pilot against its block; the
        # two-phase run does, and warns unless the pilot is shorter
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = SystemConfig(lambda_a=1.0, r_a=0.5, delta_1=0.3,
                                  delta_2=0.1, pilot_len=200, block_len=100)
            mc = McConfig(trials=10, base_seed=0, n=100)
            mc_comm_error_probs(channel, attack, config, mc,
                                two_phase_pilot_len=99)
        with pytest.warns(UserWarning, match="two_phase_pilot_len >= n"):
            mc_comm_error_probs(channel, attack, config, mc,
                                two_phase_pilot_len=100)

    def test_config_field_ranges(self):
        with pytest.raises(ParameterError):
            SystemConfig(1.0, 0.5, 1.0, 0.1, 8, 100)   # delta_1 = 1
        with pytest.raises(ParameterError):
            SystemConfig(1.0, 0.5, 0.3, 0.0, 8, 100)   # delta_2 = 0
        with pytest.raises(ParameterError, match="delta_2 must be a scalar"):
            SystemConfig(1.0, 0.5, 0.3, np.array([0.1]), 8, 100)


def scenario_fields(**overrides):
    """The fields of ``build_scenario(**overrides)``, by name."""
    return {k: v for part in build_scenario(**overrides)
            for k, v in dataclasses.asdict(part).items()}


class TestBuildScenario:
    def test_defaults_are_the_reference(self, channel):
        # the policy's r_a, bit for bit
        r_a = 0.8 * link_capacity(channel, 20.0)
        assert scenario_fields() == {**REFERENCE, "r_a": r_a}

    # r_a is set, so that no override moves it through the link capacity
    @pytest.mark.parametrize("key, value", [
        ("alpha_w_sq", 0.2), ("alpha_e_sq", 0.2), ("sigma_w_sq", 0.2),
        ("sigma_e_sq", 0.2), ("sigma_h_sq", 2.0), ("h_w", 0.9 + 0.1j),
        ("h_e", 0.5j), ("lambda_a", 30.0), ("r_a", 2.0), ("delta_1", 0.2),
        ("delta_2", 0.05), ("pilot_len", 16), ("block_len", 256),
        ("epsilon", 0.2), ("lambda_t", 0.1)])
    def test_override_changes_only_its_field(self, key, value):
        assert scenario_fields(**{"r_a": 3.0, key: value}) \
            == {**scenario_fields(r_a=3.0), key: value}

    def test_unknown_key_is_named(self):
        with pytest.raises(ParameterError, match="sigma_q_sq"):
            build_scenario(sigma_q_sq=0.1)
