"""CL011: shared state mutated without a lock."""

import threading

_RESULTS = {}
_LOCK = threading.Lock()


def bad(rank, value):
    """Records a rank's value from its thread, unlocked."""
    _RESULTS[rank] = value


def clean(rank, value):
    """Records a rank's value from its thread, under the lock."""
    with _LOCK:
        _RESULTS[rank] = value
