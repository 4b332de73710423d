"""Shared fixtures: the tiny model of the full-model gradient check, its
hand-built subgraph and its frozen noise, all defined in kgrank.selftest."""

import pytest

from kgrank import selftest
from kgrank.selftest import frozen_noise, tiny_config, tiny_subgraph  # noqa: F401


@pytest.fixture
def tiny_model():
    return selftest.tiny_model()


@pytest.fixture
def tiny_pair():
    return selftest.tiny_pair()
