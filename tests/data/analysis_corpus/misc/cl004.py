"""CL004: mutable default arguments."""


def bad(values=[]):
    """Returns the values with a zero appended."""
    values.append(0)
    return values


def clean(values=None):
    """Returns the values with a zero appended."""
    values = list(values or ())
    values.append(0)
    return values
