"""A runtime check a kernel calls through an object: outside its closure."""


class Sanitizer:
    """Checks blocks for non-finite values."""

    def check_block(self, a):
        """Returns twelve unfused array expressions of the block."""
        t = (a + a) * (a - a) + (a * a) / (a + 1.0)
        u = (t + a) * (t - a) + (t * t) / (a + 1.0)
        v = (u + t) * (u - a) + (u * a) / (t + 1.0)
        return v
