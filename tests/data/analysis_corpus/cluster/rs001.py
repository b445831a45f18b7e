"""RS001: a resource handle that is not released on every path."""


def _open_log(path):
    """Returns an open handle on the log (the caller releases it)."""
    fh = open(path, "a")
    return fh


def bad(path):
    """Returns a file's text; the handle is never closed."""
    fh = open(path)
    return fh.read()


def bad_discarded(path):
    """Opens the log through the helper and drops the handle."""
    _open_log(path)


def clean(path):
    """Returns a file's text; the with block closes the handle."""
    with open(path) as fh:
        return fh.read()
