import contextlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincinv

from covertpilot import (AttackParams, McConfig, ParameterError,
                         kl_pilot_exact, kl_pilot_limit, mc_comm_error_probs,
                         mc_estimator_error, mc_pilot_kl, mc_sqrt_law,
                         mmse_estimate, mmse_limit, power_scaling_table,
                         solve_sqrt_law_coefficient, tau_dagger, tau_eps)
from covertpilot import montecarlo
from covertpilot.montecarlo import (BLOCKS_PER_TRIAL, CHUNK, STREAM_TRIAL,
                                    WORDS_PER_TRIAL, _gamma_cdf_grid,
                                    _per_chunk, _radiometer_tally, _uniforms)
from reference import (dense_pilot_llr, exact_comm_error_probs,
                       full_vector_comm_tally, full_vector_estimator_errors,
                       full_vector_sqrt_law_tally)


def assert_tallies_agree(reduced, full, trials_reduced, trials_full):
    """Each rate agrees within 4 combined binomial standard errors."""
    for k_red, k_full in zip(reduced, full):
        p, q = k_red / trials_reduced, k_full / trials_full
        se = math.hypot(math.sqrt(p * (1 - p) / trials_reduced),
                        math.sqrt(q * (1 - q) / trials_full))
        assert 0 < se and abs(p - q) <= 4 * se, (p, q, se)


AGREE_N, AGREE_REDUCED, AGREE_FULL = 40, 20_000, 5_000


def run_key(base_seed):
    """The two-word ``Philox`` key of a Monte Carlo run, as documented."""
    return np.random.SeedSequence(base_seed, spawn_key=(STREAM_TRIAL,)) \
        .generate_state(2, np.uint64)


class TestCommDetection:
    def test_detectable_point_vanishing_errors(self, channel, config):
        silent = AttackParams(0.0, 0.3)
        mc = McConfig(trials=2000, base_seed=2, n=4000)
        probs, (rf, rm) = mc_comm_error_probs(channel, silent, config, mc)
        assert probs.sum <= 0.01
        assert rf.analytic_reference + rm.analytic_reference <= 0.01

    def test_deep_blind_point_saturates_and_matches_analytic(self, channel,
                                                             config):
        deep = AttackParams(0.1, 0.12)
        mc = McConfig(trials=2000, base_seed=3, n=4000)
        probs, (rf, rm) = mc_comm_error_probs(channel, deep, config, mc)
        analytic = rf.analytic_reference + rm.analytic_reference
        assert probs.sum >= 0.99 and analytic >= 0.99
        se = math.hypot(rf.std_error, rm.std_error)
        assert abs(probs.sum - analytic) <= 3 * se + 1e-9

    def test_same_seed_gives_equal_results(self, channel, config, attack):
        mc = McConfig(trials=700, base_seed=4, n=300)
        a, _ = mc_comm_error_probs(channel, attack, config, mc)
        b, _ = mc_comm_error_probs(channel, attack, config, mc)
        assert a == b

    def test_split_runs_merge_to_serial(self, channel, config, attack,
                                        monkeypatch):
        # two workers with disjoint trial ranges reproduce the serial tally
        # because trial i owns the counter blocks [3i, 3i + 3); the oracle
        # draws each trial alone and maps its words as documented, with the
        # package's numpy operations on length-1 arrays.  The run spans two
        # chunks of 512 trials.
        monkeypatch.setattr(montecarlo, "CHUNK", 512)
        n, trials = 300, 1024
        mc_all = McConfig(trials=trials, base_seed=5, n=n)
        serial, _ = mc_comm_error_probs(channel, attack, config, mc_all)
        tau = tau_eps(channel, attack)

        s2 = channel.sigma_w_sq
        a_w = math.sqrt(channel.alpha_w_sq)
        h_hat = (1 + attack.epsilon) * channel.h_w
        c = a_w * math.sqrt(n * config.lambda_a) * (channel.h_w - h_hat)
        d = a_w * channel.h_w * math.sqrt(n * attack.lambda_t)
        key = run_key(5)
        fa = md = 0
        for i in range(trials):
            bits = np.random.Philox(key=key)
            bits.advance(3 * i)
            u = ((bits.random_raw(12) >> np.uint64(12)) + 0.5) * 2.0 ** -52
            col = [u[k:k + 1] for k in range(12)]
            z1 = np.sqrt(-s2 * np.log(col[0])) * np.exp(2j * np.pi * col[1])
            z2 = np.sqrt(-s2 * np.log(col[2])) * np.exp(2j * np.pi * col[3])
            rest = s2 * gammaincinv(n - 2, col[4])
            log_q = np.log1p(-col[5]) / (n - 1)
            rho = np.sqrt(-np.expm1(log_q)) * np.exp(2j * np.pi * col[6])
            a = c + z1
            t0 = (np.abs(a) ** 2 + np.abs(z2) ** 2 + rest) / n
            t1 = (np.abs(a + d * rho) ** 2
                  + np.abs(z2 + d * np.exp(log_q / 2)) ** 2 + rest) / n
            fa += int(t0[0] > tau)
            md += int(t1[0] < tau)
        assert serial.p_f == fa / trials
        assert serial.p_m == md / trials

    def test_two_phase_same_seed_gives_equal_results(self, channel, config,
                                                     attack):
        mc = McConfig(trials=1300, base_seed=19, n=300)
        a = mc_comm_error_probs(channel, attack, config, mc,
                                two_phase_pilot_len=16)
        b = mc_comm_error_probs(channel, attack, config, mc,
                                two_phase_pilot_len=16)
        assert a == b

    def test_reduced_sampler_matches_full_vectors(self, channel, config,
                                                  attack):
        config = replace(config, pilot_len=4, block_len=AGREE_N)
        probs, _ = mc_comm_error_probs(
            channel, attack, config,
            McConfig(trials=AGREE_REDUCED, base_seed=27, n=AGREE_N))
        reduced = (round(probs.p_f * AGREE_REDUCED),
                   round(probs.p_m * AGREE_REDUCED))
        full = full_vector_comm_tally(channel, attack, config, AGREE_N,
                                      AGREE_FULL, seed=28)
        assert_tallies_agree(reduced, full, AGREE_REDUCED, AGREE_FULL)

    def test_two_phase_reduced_sampler_matches_full_vectors(self, channel,
                                                            config, attack):
        config = replace(config, pilot_len=4, block_len=AGREE_N)
        probs, _ = mc_comm_error_probs(
            channel, attack, config,
            McConfig(trials=AGREE_REDUCED, base_seed=29, n=AGREE_N),
            two_phase_pilot_len=4)
        reduced = (round(probs.p_f * AGREE_REDUCED),
                   round(probs.p_m * AGREE_REDUCED))
        full = full_vector_comm_tally(channel, attack, config, AGREE_N,
                                      AGREE_FULL, seed=30, pilot_len=4)
        assert_tallies_agree(reduced, full, AGREE_REDUCED, AGREE_FULL)

    def test_matches_exact_finite_n_probabilities(self, channel, config,
                                                  attack):
        # the exact law resolves the input-correlation term rho, which the
        # full-vector agreement tests at n = 40 cannot
        n, trials = AGREE_N, 100_000
        config = replace(config, pilot_len=4, block_len=n)
        probs, _ = mc_comm_error_probs(channel, attack, config,
                                       McConfig(trials=trials, base_seed=33,
                                                n=n))
        exact = exact_comm_error_probs(channel, attack, config, n,
                                       tau_eps(channel, attack))
        assert exact[1] == pytest.approx(0.0831, abs=5e-5)
        for p_mc, p in zip((probs.p_f, probs.p_m), exact):
            assert abs(p_mc - p) <= 4 * math.sqrt(p * (1 - p) / trials), \
                (p_mc, p)

    def test_exact_miss_resolves_the_narrow_peak(self, channel, config,
                                                 attack):
        # at n = 10^4 the density of u has width 1/sqrt(n) = 0.01; a
        # 16-node Gauss-Jacobi rule for the weight (1 - u^2)^(n - 3/2),
        # normalised to sum 1, integrates the same P_M independently
        n, tau = 10_000, 0.14
        s2 = channel.sigma_w_sq
        a_w = math.sqrt(channel.alpha_w_sq)
        c = abs(a_w * channel.h_w * attack.epsilon) \
            * math.sqrt(n * config.lambda_a)
        d = abs(a_w * channel.h_w) * math.sqrt(n * attack.lambda_t)
        u, w = scipy.special.roots_jacobi(16, n - 1.5, n - 1.5)
        lam = 2 * (c ** 2 + d ** 2 + 2 * c * d * u) / s2
        miss = scipy.special.chndtr(2 * n * tau / s2, 2 * n, lam)
        jacobi = np.sum(w * miss) / np.sum(w)
        _, p_m = exact_comm_error_probs(channel, attack, config, n, tau)
        assert jacobi == pytest.approx(1.13719e-12, rel=1e-5)
        assert p_m == pytest.approx(jacobi, rel=1e-9)

    def test_two_symbol_block_gives_finite_probabilities(self, channel,
                                                         config, attack):
        # n = 2 leaves no remainder (Gamma shape 0), whose point mass
        # scipy's gammainc(0, x) does not give: it is NaN at x = 0
        config = replace(config, pilot_len=1, block_len=2)
        mc = McConfig(trials=600, base_seed=34, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for pilot_len in (None, 1):
                probs, results = mc_comm_error_probs(
                    channel, attack, config, mc,
                    two_phase_pilot_len=pilot_len)
                assert all(math.isfinite(r.std_error)
                           and math.isfinite(r.analytic_reference)
                           for r in results)
                assert 0 <= probs.p_f <= 1 and 0 <= probs.p_m <= 1

    def test_two_phase_simulation_reproduces_saturated_regimes(self, channel,
                                                               config):
        # with a long finite pilot the full two-phase run lands in the same
        # saturated regimes as the injected-limit conditioning; away from
        # saturation the estimate noise genuinely shifts the probabilities
        mc = McConfig(trials=300, base_seed=6, n=4000)
        deep = AttackParams(0.1, 0.12)
        inj, _ = mc_comm_error_probs(channel, deep, config, mc)
        with pytest.warns(UserWarning, match="two_phase_pilot_len >= n"):
            full, _ = mc_comm_error_probs(channel, deep, config, mc,
                                          two_phase_pilot_len=4096)
        assert inj.sum >= 0.99 and full.sum >= 0.99
        silent = AttackParams(0.0, 0.3)
        inj0, _ = mc_comm_error_probs(channel, silent, config, mc)
        with pytest.warns(UserWarning, match="two_phase_pilot_len >= n"):
            full0, _ = mc_comm_error_probs(channel, silent, config, mc,
                                           two_phase_pilot_len=4096)
        assert inj0.sum <= 0.01 and full0.sum <= 0.01

    def test_small_trial_count_reports_nan_se(self, channel, config, attack):
        mc = McConfig(trials=50, base_seed=7, n=200)
        _, (rf, rm) = mc_comm_error_probs(channel, attack, config, mc)
        assert math.isnan(rf.std_error) and math.isnan(rm.std_error)


class TestTrialKernel:
    def test_chunked_words_equal_one_serial_stream(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "CHUNK", 512)
        trials = 2 * 512 + 7
        serial = np.random.Philox(key=run_key(5)).random_raw(
            trials * WORDS_PER_TRIAL)
        chunked = _per_chunk(5, trials, lambda u: u)
        assert WORDS_PER_TRIAL == 4 * BLOCKS_PER_TRIAL
        assert np.array_equal(np.concatenate(chunked).ravel(),
                              _uniforms(serial))

        seen = []

        def record(u):
            # every statistic below the threshold: no alarm, all misses
            seen.append(u)
            return u[:, 0], u[:, 0], 1.0

        assert _radiometer_tally(5, trials, 0, 1.0, record) == (0, trials)
        assert [len(u) for u in seen] == [512, 512, 7]
        assert np.array_equal(np.concatenate(seen).ravel(), _uniforms(serial))

    def test_one_generator_per_run(self, monkeypatch):
        # a run reads its stream in one pass: one Philox, never advanced
        built, advanced = [], []

        class Counting(np.random.Philox):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

            def advance(self, delta):
                advanced.append(delta)
                return super().advance(delta)

        monkeypatch.setattr(np.random, "Philox", Counting)
        assert _per_chunk(5, 2 * CHUNK + 7, len) == [CHUNK, CHUNK, 7]
        assert (len(built), advanced) == (1, [])

    @pytest.mark.parametrize("a", [1, 38, 254, 9998, 10 ** 6])
    def test_gammaincinv_round_trip(self, a):
        words = np.concatenate([np.array([0, 2 ** 64 - 1], dtype=np.uint64),
                                np.random.Philox(key=run_key(0)).random_raw(
                                    100 * WORDS_PER_TRIAL)])
        u = _uniforms(words)
        assert 0 < u.min() and u.max() < 1
        x = gammaincinv(a, u)
        assert np.all(np.isfinite(x))
        assert np.max(np.abs(gammainc(a, x) - u)) <= 1e-12


def every_estimator(channel, config, attack):
    """One run of each estimator, 600 trials each."""
    mc = McConfig(trials=600, base_seed=21, n=256)
    return (mc_comm_error_probs(channel, attack, config, mc),
            mc_comm_error_probs(channel, attack, config, mc,
                                two_phase_pilot_len=16),
            mc_sqrt_law(channel, 0.3, [256, 2000],
                        McConfig(trials=600, base_seed=22)),
            mc_pilot_kl(channel, attack, 16,
                        McConfig(trials=600, base_seed=23)),
            mc_estimator_error(channel, attack, [16, 64],
                               McConfig(trials=600, base_seed=24)))


@pytest.mark.parametrize("chunk", [1, 7, 512, CHUNK])
def test_chunk_size_never_changes_a_result(channel, config, attack, chunk,
                                           monkeypatch):
    # tallies are integer sums and means run over the concatenated
    # per-trial values, so the chunk size bounds memory and nothing else
    single = every_estimator(channel, config, attack)
    monkeypatch.setattr(montecarlo, "CHUNK", chunk)
    assert every_estimator(channel, config, attack) == single


def _box_muller(u_mod, u_arg, var):
    return np.sqrt(-var * np.log(u_mod)) * np.exp(2j * np.pi * u_arg)


def inverse_comm_tally(channel, attack, config, n, mc, pilot_len=None,
                       threshold=None):
    """(false alarms, misses) of ``mc_comm_error_probs`` with the remainder
    drawn by inversion, ``R = s2 gammaincinv(n - 2, u[4])``, and each
    statistic divided by n before it meets the threshold, on the package's
    own uniforms.  ``threshold`` replaces the injected-limit ``tau_eps``."""
    s2, h = channel.sigma_w_sq, channel.h_w
    a_w = math.sqrt(channel.alpha_w_sq)
    root_a = a_w * math.sqrt(n * config.lambda_a)
    d = a_w * h * math.sqrt(n * attack.lambda_t)
    if pilot_len is not None:
        energy = float(pilot_len)

    def tally(u):
        z1 = _box_muller(u[:, 0], u[:, 1], s2)
        z2 = _box_muller(u[:, 2], u[:, 3], s2)
        rest = s2 * gammaincinv(n - 2, u[:, 4]) if n > 2 else 0.0
        log_q = np.log1p(-u[:, 5]) / (n - 1)
        rho = np.sqrt(-np.expm1(log_q)) * np.exp(2j * np.pi * u[:, 6])
        if pilot_len is None:
            h_hat = (1 + attack.epsilon) * h
            tau = tau_eps(channel, attack) if threshold is None else threshold
        else:
            mean = a_w * h * (1 + attack.epsilon) * energy
            h_hat = mmse_estimate(
                channel, energy,
                mean + _box_muller(u[:, 7], u[:, 8], s2 * energy))
            tau = tau_dagger(channel, h_hat, attack.lambda_t, n)
        a = root_a * (h - h_hat) + z1
        t0 = (np.abs(a) ** 2 + np.abs(z2) ** 2 + rest) / n
        t1 = (np.abs(a + d * rho) ** 2
              + np.abs(z2 + d * np.exp(log_q / 2)) ** 2 + rest) / n
        return np.count_nonzero(t0 > tau), np.count_nonzero(t1 < tau)

    return tuple(map(sum, zip(*_per_chunk(mc.base_seed, mc.trials, tally))))


class TestUniformSpaceDecisions:
    # the radiometer decides each trial by comparing u[4] with the Gamma
    # CDF at the decision's boundary; drawing R by inversion instead must
    # give the same decision in every trial, so the same tallies.  The
    # operating points keep both tallies away from 0 and from every trial.
    TRIALS = 4096

    def comm_case(self, config, n):
        attack = AttackParams(0.01, 2 / math.sqrt(n))
        return attack, replace(config, pilot_len=1, block_len=n), \
            McConfig(trials=self.TRIALS, base_seed=40 + n, n=n)

    # the inverse path thresholds with the scalar-exact tau_dagger; pilot 64
    # at n = 256 is the benchmark's two-phase shape, the one case here
    # whose pilot is shorter than the block at a short block
    @pytest.mark.parametrize("n, pilot_len", [
        pytest.param(n, pilot_len, id=f"{n}-{name}")
        for n in (2, 3, 256, 10_000)
        for pilot_len, name in ((None, "injected"), (1024, "two-phase"))
    ] + [pytest.param(256, 64, id="256-two-phase-short")])
    def test_comm_tallies_equal_inverse_path(self, channel, config, n,
                                             pilot_len):
        attack, config, mc = self.comm_case(config, n)
        long_pilot = pilot_len is not None and pilot_len >= n
        with pytest.warns(UserWarning, match="two_phase_pilot_len >= n") \
                if long_pilot else contextlib.nullcontext():
            probs, _ = mc_comm_error_probs(channel, attack, config, mc,
                                           two_phase_pilot_len=pilot_len)
        tally = (round(probs.p_f * mc.trials), round(probs.p_m * mc.trials))
        assert all(0 < k < mc.trials for k in tally), tally
        assert tally == inverse_comm_tally(channel, attack, config, n, mc,
                                           pilot_len)

    def test_sqrt_law_tallies_equal_inverse_path(self, channel, config):
        # mc_sqrt_law is the comm-detection sampler at eps = 0 with the
        # threshold tau_dagger(h_w)
        n, mc = 10_000, McConfig(trials=self.TRIALS, base_seed=48)
        row = mc_sqrt_law(channel, 1.0, [n], mc)[0]
        tally = (round(row.p_f * mc.trials), round(row.p_m * mc.trials))
        assert all(0 < k < mc.trials for k in tally), tally
        lt = 1.0 / math.sqrt(n)
        assert tally == inverse_comm_tally(
            channel, AttackParams(0.0, lt), config, n, mc,
            threshold=tau_dagger(channel, channel.h_w, lt, n))

    @pytest.mark.parametrize("n", [2, 3, 256, 10_000])
    def test_injected_limit_matches_exact_law(self, channel, config, n):
        attack, config, mc = self.comm_case(config, n)
        probs, _ = mc_comm_error_probs(channel, attack, config, mc)
        exact = exact_comm_error_probs(channel, attack, config, n,
                                       tau_eps(channel, attack))
        for p_mc, p in zip((probs.p_f, probs.p_m), exact):
            assert abs(p_mc - p) <= 4 * math.sqrt(p * (1 - p) / mc.trials), \
                (p_mc, p)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_phase_matches_full_vectors(self, channel, config, n):
        attack, config, mc = self.comm_case(config, n)
        with pytest.warns(UserWarning, match="two_phase_pilot_len >= n"):
            probs, _ = mc_comm_error_probs(channel, attack, config, mc,
                                           two_phase_pilot_len=1024)
        reduced = (round(probs.p_f * mc.trials), round(probs.p_m * mc.trials))
        full = full_vector_comm_tally(channel, attack, config, n, 2000,
                                      seed=50 + n, pilot_len=1024)
        assert_tallies_agree(reduced, full, mc.trials, 2000)


# boundaries P(k, .) is asked at: 0, below 0 and the ends, NaN, the grid's
# own abscissae, gammaincinv(k, u[4]) and its neighbours (near-ties with the
# trial's own uniform), and values spread over the bulk of Gamma(k)
BOUNDARY_KINDS = ("zero", "negative", "inf", "-inf", "nan", "grid", "tie",
                  "tie_up", "tie_down", "bulk")


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(k=st.sampled_from([1, 2, 38, 254, 9998, 10 ** 6]),
       trials=st.sampled_from([1, 511, 512, 1537, 4096]),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(BOUNDARY_KINDS), min_size=1,
                      max_size=8))
# at k = 1 and 10^5 trials the lowest abscissa, about 2.2e-3, is nearest 0
@example(k=1, trials=100_000, seed=0, kinds=["grid", "tie", "zero", "bulk"])
def test_bracketed_tally_equals_direct_comparison(k, trials, seed, kinds):
    # trial r of a chunk meets the boundaries kinds[r % len] (alarm) and
    # kinds[(r + 1) % len] (miss); the bracketed tally must count what
    # comparing u[4] with gammainc at every boundary counts
    abscissae, _ = _gamma_cdf_grid(k, trials)
    index = np.array([BOUNDARY_KINDS.index(kind) for kind in kinds])
    direct = [0, 0]

    def statistics(u):
        rows = np.arange(len(u))
        tie = gammaincinv(k, u[:, 4])
        table = np.stack(np.broadcast_arrays(
            0.0, -1.0, np.inf, -np.inf, np.nan,
            abscissae[rows % len(abscissae)], tie, np.nextafter(tie, np.inf),
            np.nextafter(tie, -np.inf), gammaincinv(k, u[:, 5])))
        x0, x1 = (table[index[(rows + shift) % len(index)], rows]
                  for shift in (0, 1))
        direct[0] += np.count_nonzero(u[:, 4] > gammainc(k, np.maximum(x0, 0)))
        direct[1] += np.count_nonzero(u[:, 4] < gammainc(k, np.maximum(x1, 0)))
        return -x0, -x1, 0.0            # level - e is exactly x

    assert _radiometer_tally(seed, trials, k, 1.0, statistics) == tuple(direct)


# two decisions per trial, so 2 * trials gammainc values without the grid.
# Cold caches count the grid's own values too; the long-block case, 96
# trials at n = 10^4, is counted after a run at another seed warmed them
@pytest.mark.parametrize("n, trials, pilot_len, warm, most", [
    (256, 10_000, 64, False, 1000),
    (10_000, 96, None, True, 30),
], ids=["two-phase-cold", "long-block-warm"])
def test_bracketed_tally_evaluates_few_cdf_values(channel, config, attack, n,
                                                  trials, pilot_len, warm,
                                                  most, monkeypatch,
                                                  cold_caches):
    def run(seed):
        return mc_comm_error_probs(channel, attack, config,
                                   McConfig(trials=trials, base_seed=seed, n=n),
                                   two_phase_pilot_len=pilot_len)

    if warm:
        run(2)
    counted = []

    def counting(a, x):
        counted.append(np.size(x))
        return gammainc(a, x)

    monkeypatch.setattr(scipy.special, "gammainc", counting)
    probs, _ = run(3)
    assert 0 < probs.p_f < 1
    # P_M is about 1e-263 at the long block, so its tally is 0 there
    assert probs.p_m == 0 if n == 10_000 else 0 < probs.p_m < 1
    assert 0 < sum(counted) <= most, sum(counted)


class TestOperatingPointCache:
    # tau_eps, the noise-only reference and the Gamma-CDF grid are cached per
    # operating point.  Each point's run from cold caches must match its run
    # after every other point warmed them, given in another form of the same
    # values (-0.0, 0-d array, numpy scalar); results compare by repr, so NaN
    # standard errors and types count
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(mode=st.sampled_from(["injected", "two-phase", "sqrtlaw"]),
           points=st.lists(st.tuples(
               st.sampled_from([0.0, -0.0, 0.01, 0.1, 0.25]),
               st.sampled_from([0.0, -0.0, 0.01, 0.3, 1.0]),
               st.sampled_from([2, 3, 40, 256, 3000]),
               st.sampled_from([1, 99, 100, 511, 512, 2000, 5000])),
               min_size=2, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1),
           form=st.sampled_from([np.array, np.float64, float]))
    def test_cold_and_warm_cache_agree(self, channel, config, mode, points,
                                       seed, form):
        def run(eps, lt, n, trials):
            mc = McConfig(trials=trials, base_seed=seed, n=n)
            if mode == "sqrtlaw":
                return mc_sqrt_law(channel, 1.0, [n], mc)
            return mc_comm_error_probs(
                channel, AttackParams(eps, lt), config, mc,
                two_phase_pilot_len=16 if mode == "two-phase" else None)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # pilot >= n
            cold = []
            for point in points:
                montecarlo._gamma_cdf_grid.cache_clear()
                montecarlo._injected_limit_reference.cache_clear()
                cold.append(repr(run(*point)))
            # the first pass fills the caches beside the other points' entries,
            # the second reads every point's own entries
            for (eps, lt, n, trials), expected in 2 * list(zip(points, cold)):
                warm = run(form(abs(eps)), form(abs(lt)), n, trials)
                assert repr(warm) == expected

    def test_value_equal_dataclasses_hit(self, channel, config, cold_caches):
        mc = McConfig(trials=600, base_seed=5, n=256)
        first = mc_comm_error_probs(channel, AttackParams(0.1, 0.3), config, mc)
        # 0-d array fields are stored as their values, so they hash
        fresh = (replace(channel, alpha_w_sq=np.array(0.1),
                         h_w=np.array(1 - 0j)),
                 AttackParams(np.array(0.1), np.float64(0.3)),
                 replace(config, lambda_a=np.array(20.0)))
        assert mc_comm_error_probs(*fresh, mc) == first
        info = montecarlo._injected_limit_reference.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        info = montecarlo._gamma_cdf_grid.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_out_of_domain_point_raises_every_time(self, channel, config,
                                                   cold_caches):
        attack = AttackParams(1e3, 1e300)
        mc = McConfig(trials=10, base_seed=0)
        for _ in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterError, match="n tau / sigma_w"):
                    mc_comm_error_probs(channel, attack, config, mc)
        assert montecarlo._injected_limit_reference.cache_info().currsize == 0

    def test_cached_grid_is_read_only(self, cold_caches):
        for array in _gamma_cdf_grid(254, 768):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_caches_are_bounded(self, cold_caches):
        assert montecarlo._injected_limit_reference.cache_info().maxsize == 256
        for shape in range(1, 40):
            _gamma_cdf_grid(shape, 1)
        info = montecarlo._gamma_cdf_grid.cache_info()
        assert info.currsize == info.maxsize < 39


class TestPilotKl:
    def test_zero_eps_estimates_zero(self, channel):
        res = mc_pilot_kl(channel, AttackParams(0.0, 0.3), 16,
                          McConfig(trials=2000, base_seed=8))
        assert res.analytic_reference == 0.0
        assert abs(res.point_estimate) <= max(3 * res.std_error, 1e-12)

    def test_matches_exact_formula_moderate_eps(self, channel):
        res = mc_pilot_kl(channel, AttackParams(0.1, 0.3), 32,
                          McConfig(trials=100_000, base_seed=9))
        assert abs(res.point_estimate - res.analytic_reference) \
            <= 3 * res.std_error

    def test_matches_exact_formula_large_eps(self, channel):
        res = mc_pilot_kl(channel, AttackParams(0.5, 0.3), 64,
                          McConfig(trials=30_000, base_seed=10))
        assert abs(res.point_estimate - res.analytic_reference) \
            <= 3 * res.std_error
        # at this scaling the reference is far from the quadratic bound
        assert res.analytic_reference < kl_pilot_limit(0.5)

    def test_same_seed_gives_equal_results(self, channel, attack):
        mc = McConfig(trials=1500, base_seed=11)
        a = mc_pilot_kl(channel, attack, 16, mc)
        b = mc_pilot_kl(channel, attack, 16, mc)
        assert a == b

    def test_long_pilot_matches_exact_formula(self, channel, attack):
        res = mc_pilot_kl(channel, attack, 4096,
                          McConfig(trials=100, base_seed=0))
        assert res.analytic_reference == kl_pilot_exact(channel, attack,
                                                        4096.0)
        assert abs(res.point_estimate - res.analytic_reference) \
            <= 3 * res.std_error

    def test_matches_dense_reference(self, channel):
        # the rank-one sampler against dense Cholesky likelihood ratios of
        # full pilot vectors: mean and spread of the LLR, 4 se each
        attack = AttackParams(0.5, 0.3)
        trials, dense_trials = 100_000, 5000
        res = mc_pilot_kl(channel, attack, 16,
                          McConfig(trials=trials, base_seed=35))
        llr = dense_pilot_llr(channel, attack, 16, dense_trials, seed=36)
        mean, sd = float(np.mean(llr)), float(np.std(llr, ddof=1))
        se_mean = math.hypot(res.std_error, sd / math.sqrt(dense_trials))
        assert abs(res.point_estimate - mean) <= 4 * se_mean
        # the sample sd has variance about (m4 - sd^4) / (4 n sd^2)
        m4 = float(np.mean((llr - mean) ** 4))
        var_sd = (m4 - sd ** 4) / (4 * sd ** 2)
        se_sd = math.sqrt(var_sd / trials + var_sd / dense_trials)
        assert abs(res.std_error * math.sqrt(trials) - sd) <= 4 * se_sd

    def test_agreement_regression_over_seeds(self, channel):
        # estimator is unbiased for the closed form: across independent
        # runs, nearly all land within 4 standard errors
        attack = AttackParams(0.2, 0.3)
        hits = 0
        runs = 12
        for seed in range(runs):
            res = mc_pilot_kl(channel, attack, 24,
                              McConfig(trials=4000, base_seed=100 + seed))
            hits += (abs(res.point_estimate - res.analytic_reference)
                     <= 4 * res.std_error)
        assert hits >= math.ceil(0.95 * runs)


class TestEstimatorError:
    def test_mse_slope_minus_one(self, channel, attack):
        l_grid = [2 ** k for k in range(4, 13)]
        rows = mc_estimator_error(channel, attack, l_grid,
                                  McConfig(trials=300, base_seed=12))
        logl = np.log([r.l for r in rows])
        for key in ("mse_clean", "mse_scaled"):
            slope = np.polyfit(logl, np.log([getattr(r, key) for r in rows]),
                               1)[0]
            assert slope == pytest.approx(-1.0, abs=0.15)

    def test_eps_zero_hypotheses_share_errors(self, channel):
        rows = mc_estimator_error(channel, AttackParams(0.0, 0.3), [16, 64],
                                  McConfig(trials=200, base_seed=13))
        for r in rows:
            assert r.mse_clean == r.mse_scaled

    def test_noise_free_limit_is_deterministic_bias(self, channel, attack):
        # With vanishing noise the MSE is the squared bias of the
        # finite-length estimate plus the noise term c^2 sigma_w^2 S.  At
        # sigma_w^2 = 1e-18 the squared bias rounds to 0.0 and the noise
        # term (3.1e-19) sets the MSE, so each MSE is compared with that
        # exact expectation, with no absolute slack.  A mean of |CN|^2
        # draws has relative standard deviation 1/sqrt(trials).
        quiet = replace(channel, sigma_w_sq=1e-18)
        trials, S = 50, 32.0
        rows = mc_estimator_error(quiet, attack, [32],
                                  McConfig(trials=trials, base_seed=14))
        a = quiet.alpha_w_sq * quiet.sigma_h_sq / quiet.sigma_w_sq
        g = a * S / (1 + a * S)
        c = math.sqrt(quiet.alpha_w_sq) * quiet.sigma_h_sq \
            / (quiet.sigma_w_sq + quiet.alpha_w_sq * quiet.sigma_h_sq * S)
        noise = c ** 2 * quiet.sigma_w_sq * S
        bias0 = abs(g * quiet.h_w - quiet.h_w) ** 2
        bias1 = abs((1 + attack.epsilon) * g * quiet.h_w
                    - mmse_limit(quiet, attack)) ** 2
        rel = 4 / math.sqrt(trials)
        assert rows[0].mse_clean == pytest.approx(bias0 + noise, rel=rel,
                                                  abs=0)
        assert rows[0].mse_scaled == pytest.approx(bias1 + noise, rel=rel,
                                                   abs=0)

    @pytest.mark.parametrize("l", [16, 64])
    def test_matches_full_vectors(self, channel, attack, l):
        trials, full_trials = 20_000, 4000
        row, = mc_estimator_error(channel, attack, [l],
                                  McConfig(trials=trials, base_seed=37))
        err = full_vector_estimator_errors(channel, attack, l, full_trials,
                                           seed=38)
        for mse, full in zip((row.mse_clean, row.mse_scaled), err):
            sd = float(np.std(full, ddof=1))
            se = sd * math.sqrt(1 / trials + 1 / full_trials)
            assert abs(mse - float(np.mean(full))) <= 4 * se, \
                (mse, float(np.mean(full)), se)


class TestSqrtLaw:
    def test_stays_under_calibrated_bound(self, channel):
        c = solve_sqrt_law_coefficient(channel, 0.05)
        rows = mc_sqrt_law(channel, c, [10_000, 40_000],
                           McConfig(trials=1500, base_seed=15))
        for r in rows:
            assert r.one_minus_sum <= 0.05 + 3 * r.std_error

    def test_tiny_coefficient_keeps_blind_sum(self, channel):
        rows = mc_sqrt_law(channel, 1e-4, [1000, 10_000],
                           McConfig(trials=400, base_seed=16))
        for r in rows:
            assert r.p_f + r.p_m >= 0.95

    def test_super_sqrt_schedule_becomes_detectable(self, channel):
        # lambda_t = n^{-1/4} corresponds to c(n) = n^{1/4} in the c/sqrt(n)
        # parameterization; emulate by calling per-n with matched c
        sums = []
        for n in (1000, 10_000, 100_000):
            c = float(n) ** 0.25
            row = mc_sqrt_law(channel, c, [n],
                              McConfig(trials=300, base_seed=17))[0]
            assert row.lambda_t == pytest.approx(float(n) ** -0.25)
            sums.append(row.p_f + row.p_m)
        assert sums[-1] <= 0.01
        assert sums[0] >= sums[-1]

    def test_reduced_sampler_matches_full_vectors(self, channel):
        row = mc_sqrt_law(channel, 1.0, [AGREE_N],
                          McConfig(trials=AGREE_REDUCED, base_seed=31))[0]
        reduced = (round(row.p_f * AGREE_REDUCED),
                   round(row.p_m * AGREE_REDUCED))
        full = full_vector_sqrt_law_tally(channel, 1.0, AGREE_N, AGREE_FULL,
                                          seed=32)
        assert_tallies_agree(reduced, full, AGREE_REDUCED, AGREE_FULL)

    def test_same_seed_gives_equal_results(self, channel):
        mc = McConfig(trials=600, base_seed=18)
        a = mc_sqrt_law(channel, 0.3, [2000], mc)
        b = mc_sqrt_law(channel, 0.3, [2000], mc)
        assert a == b


class TestIntegerInputs:
    # trial counts, seeds and pilot lengths are integers; anything else ends
    # in a named ParameterError before a stream is read.  numpy integers
    # give the same results as Python ones
    @pytest.mark.parametrize("args, match", [
        ((10, -1), "base_seed must be an integer >= 0"),
        ((10.0, 1), "trials must be an integer"),
    ], ids=["negative-seed", "float-trials"])
    def test_mc_config(self, args, match):
        with pytest.raises(ParameterError, match=match):
            McConfig(*args)

    def test_fractional_pilot_length(self, channel, attack):
        with pytest.raises(ParameterError,
                           match="pilot_len must be an integer >= 1"):
            mc_estimator_error(channel, attack, [4.5, 4], McConfig(200, 1))

    def test_numpy_integers(self, channel, attack):
        rows = mc_estimator_error(channel, attack, np.array([4, 16]),
                                  McConfig(np.int64(200), np.uint32(1)))
        assert rows == mc_estimator_error(channel, attack, [4, 16],
                                          McConfig(200, 1))

    # block lengths are integers too: a fractional n is refused, never
    # truncated or passed on as a Gamma shape
    def test_fractional_mc_block_length(self):
        with pytest.raises(ParameterError,
                           match="n must be None or an integer >= 2"):
            McConfig(2000, 1, n=300.5)

    def test_fractional_config_block_length(self, config):
        with pytest.raises(ParameterError,
                           match="block_len must be an integer >= 2"):
            replace(config, block_len=300.5)

    def test_fractional_config_pilot_length(self, config):
        with pytest.raises(ParameterError,
                           match="pilot_len must be an integer >= 1"):
            replace(config, pilot_len=64.5, block_len=300.5)

    def test_fractional_sqrt_law_block_length(self, channel):
        with pytest.raises(ParameterError,
                           match="block lengths must be integers"):
            mc_sqrt_law(channel, 0.3, [300.7], McConfig(200, 1))

    def test_fractional_scaling_table_block_length(self, channel, config):
        with pytest.raises(ParameterError,
                           match="block lengths must be integers"):
            power_scaling_table(channel, config, 0.5, 0.3, [300.7])

    def test_numpy_block_lengths(self, channel, config, attack):
        def runs(n):
            return (mc_comm_error_probs(channel, attack, config,
                                        McConfig(200, 1, n=n)),
                    mc_sqrt_law(channel, 0.3, [n], McConfig(200, 1)),
                    power_scaling_table(channel, config, 0.5, 0.3, [n]),
                    replace(config, block_len=n).block_len)
        assert runs(np.int64(300)) == runs(300)
