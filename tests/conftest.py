"""Shared fixtures: the four showcase propagations, run once per session.

Each fixture returns (trajectory, wall_seconds, settings) so the acceptance
tests can check both the physics and the runtime budget without repeating
the propagation.
"""

import time

import pytest

from svealab.cli import load_settings, _grid_from, _initial_from, _run_config
from svealab.solver import propagate


def run_preset(name):
    settings = load_settings(name, None)
    initial = _initial_from(settings, _grid_from(settings))
    cfg = _run_config(settings)
    t0 = time.monotonic()
    traj = propagate(initial, cfg)
    return traj, time.monotonic() - t0, settings


@pytest.fixture(scope="session")
def case1_run():
    return run_preset("case1")


@pytest.fixture(scope="session")
def case2_run():
    return run_preset("case2")


@pytest.fixture(scope="session")
def case3_run():
    return run_preset("case3")


@pytest.fixture(scope="session")
def case4_run():
    return run_preset("case4")
