"""CP001 (clean twin): the operands agree; the closure reaches into
physics/eos.py."""

import numpy as np

from repro.physics.state import COMPUTE_DTYPE


def _same(a):
    x = np.zeros(4, dtype=COMPUTE_DTYPE)
    y = np.zeros(4, dtype=COMPUTE_DTYPE)
    return x + y + a


def hllc_flux(a, b):
    """Returns half the double-precision row times the sound speed."""
    return _same(a) * sound_speed(a, b) * 0.5
