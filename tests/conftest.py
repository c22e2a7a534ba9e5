import pytest

from covertpilot import build_scenario


@pytest.fixture(scope="session")
def scenario():
    return build_scenario()


@pytest.fixture(scope="session")
def channel(scenario):
    return scenario[0]


@pytest.fixture(scope="session")
def config(scenario):
    return scenario[1]


@pytest.fixture(scope="session")
def attack(scenario):
    return scenario[2]


@pytest.fixture
def cold_caches():
    """Empty the Monte Carlo module's per-operating-point caches."""
    from covertpilot import montecarlo
    montecarlo._gamma_cdf_grid.cache_clear()
    montecarlo._injected_limit_reference.cache_clear()
