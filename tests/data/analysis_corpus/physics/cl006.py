"""CL006: undocumented return contracts."""


def bad(u, v):
    """Adds two fields."""
    return u + v


def clean(u, v):
    """Returns u + v, shaped like u."""
    return u + v
