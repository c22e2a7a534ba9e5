import math

import pytest

from covertpilot import (AttackParams, ChannelParams, SystemConfig,
                         link_capacity)

# Reference operating point used throughout: symmetric 0.1 losses and noise
# powers, unit realized gains, lambda_a = 20, rate at 80% of link capacity,
# delta_1 = 1/sqrt(10).


@pytest.fixture(scope="session")
def channel() -> ChannelParams:
    return ChannelParams(alpha_w_sq=0.1, alpha_e_sq=0.1, sigma_w_sq=0.1,
                         sigma_e_sq=0.1, sigma_h_sq=1.0, h_w=1 + 0j, h_e=1 + 0j)


@pytest.fixture(scope="session")
def config(channel) -> SystemConfig:
    return SystemConfig.create(
        channel, lambda_a=20.0, r_a=0.8 * link_capacity(channel, 20.0),
        delta_1=1 / math.sqrt(10), delta_2=0.1, pilot_len=64, block_len=10_000)


@pytest.fixture(scope="session")
def attack() -> AttackParams:
    return AttackParams(epsilon=0.1, lambda_t=0.3)


@pytest.fixture
def cold_caches():
    """Empty the Monte Carlo module's per-operating-point caches."""
    from covertpilot import montecarlo
    montecarlo._gamma_cdf_grid.cache_clear()
    montecarlo._injected_limit_reference.cache_clear()
