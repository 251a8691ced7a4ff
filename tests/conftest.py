import numpy as np
import pytest

from stealthpath import (DEFAULT_CELL_SIZE, DEFAULT_MAX_STEP,
                         build_environment, compute_exposure_field,
                         gen_boxes, gen_hills)


def _world(elev):
    env = build_environment(elev, cell_size=DEFAULT_CELL_SIZE,
                            max_step=DEFAULT_MAX_STEP)
    return env, compute_exposure_field(env)


@pytest.fixture(scope="session")
def boxes50():
    """50x50 boxes world; the expensive all-pairs field is built once."""
    return _world(gen_boxes(7, 50))


@pytest.fixture(scope="session")
def hills50():
    return _world(gen_hills(11, 50))


@pytest.fixture(scope="session")
def hills20():
    return _world(gen_hills(7, 20))


@pytest.fixture(scope="session")
def boxes12():
    """Small boxes world for cheap per-test planning."""
    return _world(gen_boxes(3, 12))


@pytest.fixture(scope="session")
def flat5():
    env = build_environment(np.zeros((5, 5)), cell_size=1.0)
    return env, compute_exposure_field(env)
