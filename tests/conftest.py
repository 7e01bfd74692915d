import numpy as np
import pytest

from skillpipe.core import ControllerParams, Outcome, Skill
from skillpipe import sim


def make_params(values, lo=-1.0, hi=1.0):
    values = np.asarray(values, dtype=float)
    bounds = np.tile([lo, hi], (values.shape[0], 1))
    return ControllerParams(values=values, bounds=bounds)


def new_params(env, values):
    return ControllerParams(values=values, bounds=sim.theta_bounds(env))


def random_params(env, rng):
    b = sim.theta_bounds(env)
    return ControllerParams(values=rng.uniform(b[:, 0], b[:, 1]), bounds=b)


def make_skill(theta, outcome, quality=0.0, lo=-1.0, hi=1.0):
    return Skill(
        params=make_params(theta, lo=lo, hi=hi),
        outcome=Outcome(values=np.asarray(outcome, dtype=float)),
        quality=quality,
    )


@pytest.fixture(scope="session")
def throw_env():
    return sim.make_env("throw")


@pytest.fixture(scope="session")
def joystick_env():
    return sim.make_env("joystick")
