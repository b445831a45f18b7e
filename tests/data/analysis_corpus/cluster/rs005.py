"""RS001: a started thread that is never joined."""

import threading


def _loop():
    """The thread body."""
    return None


def bad():
    """Starts a thread and never joins it."""
    t = threading.Thread(target=_loop)
    t.start()


def clean():
    """Starts a thread and joins it."""
    t = threading.Thread(target=_loop)
    t.start()
    t.join()
