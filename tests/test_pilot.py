import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertpilot import (AttackParams, ChannelParams, ParameterError,
                         covertness_margin, kl_pilot_exact, kl_pilot_limit,
                         mmse_estimate, mmse_limit)
from reference import (make_pilot, pilot_covariances, pilot_estimate,
                       synthesize_received)


def dense_kl(channel, attack, pilot):
    """Dense-matrix oracle: -log|S1^-1 S0| - L + tr(S1^-1 S0) by direct linalg."""
    covs = pilot_covariances(channel, attack, pilot)
    L = len(pilot)
    _, ld0 = np.linalg.slogdet(covs.sigma0)
    _, ld1 = np.linalg.slogdet(covs.sigma1)
    tr = np.trace(np.linalg.solve(covs.sigma1, covs.sigma0)).real
    return (ld1 - ld0) - L + tr


def dense_lmmse(channel, pilot, received):
    """Generic linear-MMSE oracle: r_{h y} Sigma_0^{-1} y with full inversion."""
    covs = pilot_covariances(channel, AttackParams(0.0, 0.0), pilot)
    r = math.sqrt(channel.alpha_w_sq) * channel.sigma_h_sq * pilot.conj()
    return complex(r @ np.linalg.inv(covs.sigma0) @ received)


class TestKlExact:
    def test_zero_at_eps_zero(self, channel):
        assert kl_pilot_exact(channel, AttackParams(0.0, 0.3), 32.0) == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for L in (1, 2, 8, 32, 64):
            channel = ChannelParams(
                alpha_w_sq=rng.uniform(0.05, 1.0), alpha_e_sq=0.1,
                sigma_w_sq=rng.uniform(0.05, 1.0), sigma_e_sq=0.1,
                sigma_h_sq=rng.uniform(0.2, 2.0), h_w=1 + 0j, h_e=1 + 0j)
            attack = AttackParams(rng.uniform(0.0, 0.8), 0.3)
            pilot = math.sqrt(rng.uniform(0.5, 2.0)) * make_pilot(L)
            energy = np.vdot(pilot, pilot).real
            assert kl_pilot_exact(channel, attack, energy) == pytest.approx(
                dense_kl(channel, attack, pilot), abs=1e-9)

    def test_approaches_limit(self, channel):
        attack = AttackParams(0.1, 0.3)
        val = kl_pilot_exact(channel, attack, 10_000.0)
        assert val == pytest.approx(kl_pilot_limit(0.1), abs=3e-5)
        val5 = kl_pilot_exact(channel, attack, 100_000.0)
        assert abs(val5 - kl_pilot_limit(0.1)) <= 1e-3

    def test_monotone_in_length(self, channel):
        attack = AttackParams(0.2, 0.3)
        vals = [kl_pilot_exact(channel, attack, float(L))
                for L in (2, 8, 32, 128, 512, 2048)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_finite_beyond_resolvable_one_minus_q(self, channel):
        # at eps = 1e6 and 1e10, 1 - q is below the rounding of q, yet the
        # divergence is an ordinary number below its long-pilot limit
        for L in (1, 16, 64):
            vals = [kl_pilot_exact(channel, AttackParams(eps, 0.3), float(L))
                    for eps in (1e6, 1e10)]
            assert all(math.isfinite(v) for v in vals)
            assert vals[0] < vals[1]
            for eps, v in zip((1e6, 1e10), vals):
                assert v <= kl_pilot_limit(eps)

    def test_complex_pilot_supported(self, channel):
        # the divergence depends on the pilot only through its energy
        rotated = np.exp(2j * np.pi * np.arange(16) / 16)
        attack = AttackParams(0.3, 0.3)
        kl = kl_pilot_exact(channel, attack, np.vdot(rotated, rotated).real)
        assert kl == pytest.approx(kl_pilot_exact(channel, attack, 16.0),
                                   rel=1e-12)
        assert kl == pytest.approx(dense_kl(channel, attack, rotated),
                                   abs=1e-9)


class TestKlLimit:
    def test_values(self):
        assert kl_pilot_limit(0.0) == 0.0
        assert kl_pilot_limit(0.1) == pytest.approx(0.017066640600385208,
                                                    rel=1e-12)

    def test_below_quadratic_bound_at_budget_edge(self):
        eps = 1 / math.sqrt(20)
        assert kl_pilot_limit(eps) <= 2 * eps ** 2

    def test_quadratic_bound_on_grid(self):
        eps = np.linspace(0.0, 2.0, 1000)
        vals = np.array([kl_pilot_limit(e) for e in eps])
        assert np.all(vals <= 2 * eps ** 2 + 1e-15)
        assert np.all(vals[1:] < 2 * eps[1:] ** 2)   # equality only at 0

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            kl_pilot_limit(-0.01)

    @pytest.mark.parametrize("eps", [1e-9, 1e-8])
    def test_no_cancellation_near_zero(self, eps):
        assert 0 <= kl_pilot_limit(eps) <= 2 * eps ** 2

    def test_quadratic_bound_on_small_eps_sweep(self):
        # 2 log(1+eps) - 1 + (1+eps)^-2 cancels near 0; the bound as the
        # package evaluates it, 2 * (eps * eps), holds with no rounding
        # slack over the whole small-eps range
        eps = np.logspace(-300, -2, 200_000).tolist()
        over = [e for e in eps
                if not 0 <= kl_pilot_limit(e) <= 2 * (e * e)]
        assert over == []


class TestCovertnessMargin:
    def test_examples(self):
        assert covertness_margin(0.2, 1 / math.sqrt(10))
        assert not covertness_margin(0.3, 1 / math.sqrt(10))
        assert covertness_margin(0.0, 0.0)

    def test_zero_budget_needs_zero_eps(self):
        assert not covertness_margin(1e-9, 0.0)

    def test_bound_check_runs_under_optimize(self):
        # python -O strips assert statements; the bound check must survive
        import covertpilot
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(covertpilot.__file__)))
        code = ("import covertpilot.pilot as p\n"
                "p.kl_pilot_limit = lambda eps: 1.0\n"
                "p.covertness_margin(0.1, 0.3)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert "ArithmeticError: kl_pilot_limit(0.1) exceeds" in proc.stderr


# Rounding slack of the closed forms near eps = 0, where
# 2 log(1+eps) - 1 + (1+eps)^-2 cancels to about 1e-16.
CANCELLATION = 1e-15


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(eps=st.floats(min_value=0.0, max_value=1e300),
       L=st.integers(min_value=1, max_value=16),
       delta_1=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_closed_forms_in_range_or_parameter_error(channel, eps, L, delta_1):
    # every finite eps >= 0 gives a documented value or a ParameterError,
    # never an OverflowError, a math domain error or a NaN
    attack = AttackParams(eps, 0.3)
    pilot = make_pilot(L)

    limit = kl_pilot_limit(eps)
    assert math.isfinite(limit)
    assert -CANCELLATION <= limit <= 2 * eps * eps + CANCELLATION

    try:
        exact = kl_pilot_exact(channel, attack, float(L))
    except ParameterError:
        pass
    else:
        assert math.isfinite(exact)
        assert 0.0 <= exact <= limit + CANCELLATION

    try:
        covert = covertness_margin(eps, delta_1)
    except ParameterError:
        assert eps > 9e153           # 2 eps^2 overflows
    else:
        assert covert == (eps <= delta_1 / math.sqrt(2))

    try:
        covs = pilot_covariances(channel, attack, pilot)
    except ParameterError:
        pass
    else:
        for m in (covs.sigma0, covs.sigma1):
            assert np.all(np.isfinite(m))
            assert np.array_equal(m, m.conj().T)
        assert np.all(np.diag(covs.sigma1).real >= np.diag(covs.sigma0).real)


# kl_pilot_exact is a difference of terms as large as the value itself,
# so a longer pilot may read a few ulps lower where the true increase is
# smaller than that
ULPS = 8 * 2.0 ** -52


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(eps=st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e10)),
       lengths=st.lists(st.integers(1, 4096), min_size=2, max_size=8))
def test_kl_exact_nondecreasing_in_pilot_length(channel, eps, lengths):
    attack = AttackParams(eps, 0.3)
    vals = [kl_pilot_exact(channel, attack, float(L)) for L in sorted(lengths)]
    assert all(b >= a * (1 - ULPS) for a, b in zip(vals, vals[1:]))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(eps=st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 1e150)))
def test_kl_limit_below_quadratic_bound(eps):
    # 2 log1p(eps) - frac subtracts two terms of about 2 eps, so the
    # rounding error is a few ulps of 2 eps, which near eps = 0 exceeds the
    # true gap 2 eps^2 - limit, about (8/3) eps^3
    assert kl_pilot_limit(eps) <= 2 * eps * eps + 2 * eps * ULPS


class TestMmse:
    def _noiseless_received(self, channel, pilot, eps):
        return math.sqrt(channel.alpha_w_sq) * channel.h_w * (1 + eps) * pilot

    def test_noiseless_bias_clean(self, channel):
        pilot = make_pilot(32)
        rec = self._noiseless_received(channel, pilot, 0.0)
        h_hat = pilot_estimate(channel, pilot, rec)
        a = channel.alpha_w_sq * channel.sigma_h_sq / channel.sigma_w_sq
        g = a * 32 / (1 + a * 32)
        assert h_hat == pytest.approx(g * channel.h_w, rel=1e-12)

    def test_noiseless_bias_scaled(self, channel):
        pilot = make_pilot(64)
        rec = self._noiseless_received(channel, pilot, 0.25)
        h_hat = pilot_estimate(channel, pilot, rec)
        a = channel.alpha_w_sq * channel.sigma_h_sq / channel.sigma_w_sq
        g = a * 64 / (1 + a * 64)
        # extra attack term on top of the clean bias
        assert (h_hat / channel.h_w).real - g == pytest.approx(0.25 * g,
                                                               rel=1e-12)
        assert h_hat == pytest.approx(1.25 * g * channel.h_w, rel=1e-12)

    def test_matches_dense_lmmse_oracle(self, channel, config, attack):
        for seed in range(5):
            rec = synthesize_received(config, channel, attack, seed=seed)
            pilot = make_pilot(config.pilot_len)
            mine = pilot_estimate(channel, pilot, rec)
            assert mine == pytest.approx(dense_lmmse(channel, pilot, rec),
                                         abs=1e-9)

    def test_pilot_energy_is_checked(self, channel):
        # the estimate and the divergence take the pilot energy, checked as
        # a number
        attack = AttackParams(0.1, 0.3)
        for energy in (-1.0, -5e-324, math.nan, math.inf, 10 ** 400):
            with pytest.raises(ParameterError, match="pilot_energy"):
                mmse_estimate(channel, energy, 1 + 0j)
            with pytest.raises(ParameterError, match="pilot_energy"):
                kl_pilot_exact(channel, attack, energy)

    def test_array_projection_gives_array_of_estimates(self, channel):
        projections = np.array([0.3 - 1.2j, 0j, 7.5 + 2.25j, -1e-3 + 4j])
        h_hat = mmse_estimate(channel, 48.0, projections)
        assert h_hat.shape == projections.shape
        assert h_hat.tolist() == [mmse_estimate(channel, 48.0, complex(p))
                                  for p in projections]

    def test_limit_values(self, channel):
        assert mmse_limit(channel, AttackParams(0.2, 0.3)) \
            == pytest.approx(1.2 + 0j)
        assert mmse_limit(channel, AttackParams(0.0, 0.3)) == channel.h_w

    def test_noiseless_error_halves_when_energy_doubles(self, channel):
        attack = AttackParams(0.1, 0.3)
        errs = []
        for L in (64, 128, 256, 512):
            pilot = make_pilot(L)
            rec = self._noiseless_received(channel, pilot, 0.1)
            h_hat = pilot_estimate(channel, pilot, rec)
            errs.append(abs(h_hat - mmse_limit(channel, attack)))
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, rel=0.03)


class TestPilotCovariances:
    def test_positive_definite_and_rank_one_gap(self, channel):
        covs = pilot_covariances(channel, AttackParams(0.3, 0.1), make_pilot(16))
        assert np.all(np.linalg.eigvalsh(covs.sigma0) > 0)
        assert np.all(np.linalg.eigvalsh(covs.sigma1) > 0)
        gap_eigs = np.linalg.eigvalsh(covs.sigma1 - covs.sigma0)
        assert np.sum(gap_eigs > 1e-12) == 1
        assert np.all(gap_eigs > -1e-12)
