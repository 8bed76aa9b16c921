import numpy as np
import pytest

from ntcentral.core import Grid


def pytest_collection_modifyitems(session, config, items):
    # the acceptance criteria compute fine references (minutes each with a
    # cold cache), so they run after every unit test
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


@pytest.fixture
def unit_grid():
    return Grid(-1.0, 1.0, 40)


@pytest.fixture
def rng():
    return np.random.default_rng(871233)
