"""CL010: unbounded recovery loops."""


def bad(step):
    """Retries step() for ever."""
    while True:
        if step():
            return


def clean(step, max_attempts):
    """Retries step() at most max_attempts times."""
    attempt = 0
    while True:
        if step():
            return
        attempt += 1
        if attempt >= max_attempts:
            raise RuntimeError("step kept failing")
