import multiprocessing

import pytest

from kgcm import pipeline


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive, as the benchmark refuses a run that does; end it first.

    This process's helper, once a scoring pass has forked it, lives from one pass to the next and ends
    at interpreter exit, so it is ended first, through the close that exit uses; any other live child
    fails the test.
    """
    yield
    pipeline._end_helper()
    left = multiprocessing.active_children()
    for process in left:
        process.kill()
        process.join()
    if left:
        pytest.fail(f"the test left {len(left)} child processes running: {left}")
