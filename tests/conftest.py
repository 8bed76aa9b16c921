import dataclasses

import numpy as np
import pytest

from ntcentral.core import Grid
from ntcentral.models import make_model


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


@pytest.fixture
def with_sources():
    """Builds the zoo model ``name`` whose nonlocal terms convolve ``sources``,
    one copy of its kernel each; "hook" stands for its own first term."""

    def build(name: str, sources: tuple):
        model = make_model(name)
        sources = tuple(model.nonlocal_sources[0] if s == "hook" else s for s in sources)
        kernels = model.kernels[:1] * len(sources)
        return dataclasses.replace(model, kernels=kernels, nonlocal_sources=sources)

    return build
