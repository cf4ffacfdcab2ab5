"""A time limit on every test: a search that stops terminating fails its
test instead of hanging the run, and the run goes on."""

import signal

import pytest


@pytest.fixture(autouse=True)
def time_limit():
    # 120 s is about 60 times the slowest test
    def expire(signum, frame):
        raise TimeoutError("test ran past its 120 s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 120)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
