"""CL005: silent broad exception handlers."""


def bad(step):
    """Runs one step and forgets any failure."""
    try:
        step()
    except Exception:
        pass


def clean(step):
    """Runs one step and lets a failure through."""
    try:
        step()
    except Exception:
        raise
