"""CP006 (clean twin): counted intensity within 2x of the roofline table."""


def sound_speed(a, b):
    """Returns a[0] * b[0] squared plus one, per point."""
    return a[0] * b[0] * a[0] * b[0] + 1.0
