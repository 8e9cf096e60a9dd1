import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive, as the benchmark refuses a run that does; end it first."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.kill()
        process.join()
    if left:
        pytest.fail(f"the test left {len(left)} child processes running: {left}")
