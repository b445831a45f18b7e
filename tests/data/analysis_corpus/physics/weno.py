"""CP001 (violating): a float32 and a float64 operand meet in a kernel's
helper closure."""

import numpy as np

from repro.physics.state import COMPUTE_DTYPE, STORAGE_DTYPE


def _mix(a):
    x = np.zeros(4, dtype=STORAGE_DTYPE)
    y = np.zeros(4, dtype=COMPUTE_DTYPE)
    return x + y + a


def weno3(a):
    """Returns half the mixed-precision row."""
    return _mix(a) * 0.5
