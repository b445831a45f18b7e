"""CL007: reads of uninitialised np.empty buffers."""

import numpy as np


def bad(n):
    """Returns a buffer read before it is written."""
    buf = np.empty(n)
    return buf + 1.0


def clean(n):
    """Returns a buffer written before it is read."""
    buf = np.empty(n)
    buf[:] = 0.0
    return buf + 1.0
