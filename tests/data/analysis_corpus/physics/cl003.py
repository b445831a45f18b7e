"""CL003: downcasts on a compute path."""


def bad(u):
    """Returns u rounded to single precision."""
    return u.astype("float32")


def clean(u):
    """Returns u in double precision."""
    return u.astype("float64")
