"""A runtime check a kernel calls through an object: outside its closure."""

import numpy as np

from repro.physics.state import COMPUTE_DTYPE, STORAGE_DTYPE


class Sanitizer:
    """Checks blocks for non-finite values."""

    def check_block(self, a):
        """Returns whether a mixed-precision sum of the block is finite."""
        x = np.zeros(4, dtype=STORAGE_DTYPE)
        y = np.zeros(4, dtype=COMPUTE_DTYPE)
        total = x + y + a
        return bool(np.isfinite(total).all())
