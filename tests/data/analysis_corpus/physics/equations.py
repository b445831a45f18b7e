"""CP002 (violating): a strong float64 scalar in a kernel body."""

import numpy as np


def compute_rhs(a):
    """Returns a scaled by a strong float64 scalar."""
    half = np.asarray(0.5)
    return a * half
