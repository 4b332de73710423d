"""Shared fixtures: the tiny model of the full-model gradient check, its
hand-built subgraph and its frozen noise, all defined in kgrank.selftest; and
a settable wall clock."""

import time

import pytest

from kgrank import selftest
from kgrank.selftest import frozen_noise, tiny_config, tiny_subgraph  # noqa: F401


@pytest.fixture
def tiny_model():
    return selftest.tiny_model()


@pytest.fixture
def tiny_pair():
    return selftest.tiny_pair()


@pytest.fixture
def set_clock(monkeypatch):
    """set_clock(t) makes time.time() read t and time.localtime() read the
    local time of t, for code that stamps files with the wall clock."""
    localtime = time.localtime

    def set_clock(t: float) -> None:
        monkeypatch.setattr(time, "time", lambda: t)
        monkeypatch.setattr(time, "localtime",
                            lambda secs=None: localtime(t if secs is None else secs))
    return set_clock
