import time

import pytest

from make_golden import four_arm_experiment


@pytest.fixture(scope="session")
def default_world_experiment():
    """One 4-arm experiment on the default world shared by criteria 7 and 8 and its golden digest."""
    start = time.perf_counter()
    result = four_arm_experiment()
    return result, time.perf_counter() - start
