"""Benchmark tests import the program from the checkout's ``src`` and
run its processes with no ``REPRO_*`` knobs set.

Run from the repository root: ``python3 -m pytest perfbench/tests``."""

import os
import sys

import pytest

from perfbench import common

if common.SRC not in sys.path:
    sys.path.insert(0, common.SRC)


@pytest.fixture
def bench_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("PYTHONPATH", common.SRC)
