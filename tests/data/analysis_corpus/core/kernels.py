"""CP003 violating and clean twin, CP006 violating; gather_conv is clean."""

import numpy as np

from repro.physics.state import COMPUTE_DTYPE


def gather_conv(a):
    """Returns a scaled by a scalar pinned to COMPUTE_DTYPE."""
    half = np.asarray(0.5, dtype=COMPUTE_DTYPE)
    return a * half * 2.0


def scatter_aos(a, b):
    """Returns a chain of twelve unfused array expressions."""
    t = (a + b) * (a - b) + (a * b) / (a + 1.0)
    u = (t + a) * (t - b) + (t * t) / (b + 1.0)
    v = (u + t) * (u - a) + (u * b) / (t + 1.0)
    return v


def rhs_kernel_slices(a, b, ws):
    """Returns the same chain threaded through out= buffers."""
    t0, t1 = ws
    np.add(a, b, out=t0)
    np.subtract(a, b, out=t1)
    np.multiply(t0, t1, out=t0)
    np.multiply(a, b, out=t1)
    np.add(t0, t1, out=t0)
    np.divide(t0, b, out=t0)
    np.add(t0, a, out=t0)
    np.multiply(t0, t0, out=t1)
    np.add(t1, a, out=t0)
    np.multiply(t0, b, out=t1)
    np.add(t0, t1, out=t0)
    np.subtract(t0, a, out=t0)
    return t0


def update_stage(a, b):
    """Returns a[0] to the sixth power: 2.5x the modeled intensity."""
    return a[0] * a[0] * a[0] * a[0] * a[0] * a[0]
