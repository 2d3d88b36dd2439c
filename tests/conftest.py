"""Shared fixtures: the four showcase propagations, run once per session,
and a solver whose forward transform leaks.

Each propagation fixture returns (trajectory, wall_seconds, settings) so the
acceptance tests can check both the physics and the runtime budget without
repeating the propagation.
"""

import time

import pytest

from svealab import solver
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


@pytest.fixture
def leaky_forward(monkeypatch):
    """Every forward transform of the solver scales its result by 1 + 1e-6."""
    transform = solver._transform

    def leaky(a, forward, out=None):
        result = transform(a, forward, out)
        if forward:
            result *= 1.0 + 1e-6
        return result

    monkeypatch.setattr(solver, "_transform", leaky)
