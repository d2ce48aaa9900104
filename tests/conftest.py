import gc

import numpy as np
import pytest
from hypothesis import settings

from helpers import hexagon_base, perturbed_hexagon_base
from stewart66.geometry import PlatformGeometry

settings.register_profile("suite", max_examples=100, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def hexagon_geometry():
    return PlatformGeometry(base=hexagon_base(), mu=0.5)


@pytest.fixture
def perturbed_geometry():
    return PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """The cyclic garbage collector switched on or off for the test, and
    restored after it; the value is whether it is on."""
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_on else gc.disable)()
