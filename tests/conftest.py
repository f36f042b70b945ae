"""Shared fixtures: small radio worlds for substrate-level tests."""

import pytest

# Register the synthetic campaign cells in this process, as a server
# registers the cells it serves: a `module:function` reference resolves
# only through a module already imported (workers import it per cell).
import tests.campaign._pool_scenarios  # noqa: F401
from repro.radio import LogDistancePropagation, RadioMedium
from repro.sim import Environment, Monitor, RngRegistry


class World:
    """A bare radio world (no kernel): env + medium + bookkeeping."""

    def __init__(self, seed=42, **prop_kw):
        self.env = Environment()
        self.rng = RngRegistry(seed)
        self.monitor = Monitor()
        self.propagation = LogDistancePropagation(self.rng, **prop_kw)
        self.medium = RadioMedium(
            self.env, self.rng, self.monitor, self.propagation
        )


@pytest.fixture
def world():
    """Default world: moderate shadowing, light fading."""
    return World()


@pytest.fixture
def quiet_world():
    """World with no shadowing/fading: fully deterministic propagation."""
    return World(shadowing_sigma_db=0.0, fading_sigma_db=0.0)


@pytest.fixture
def make_world():
    """Factory for worlds with custom seeds/propagation parameters."""
    return World
