"""CL009: raw timing calls in a solver layer."""

import time


def bad(work):
    """Returns the seconds work() took, on a raw clock."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def clean(work, timeout):
    """Returns whether work() finished before the deadline."""
    deadline = time.monotonic() + timeout
    work()
    return time.monotonic() < deadline
