"""CL001: raw float dtypes in a solver layer."""

import numpy as np

from repro.physics.state import STORAGE_DTYPE


def bad(n):
    """Returns a float32 array of shape (n,)."""
    return np.zeros(n, dtype=np.float32)


def clean(n):
    """Returns a STORAGE_DTYPE array of shape (n,)."""
    return np.zeros(n, dtype=STORAGE_DTYPE)
