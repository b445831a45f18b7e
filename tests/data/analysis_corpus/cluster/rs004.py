"""RS004: spawn targets that cannot cross the process boundary."""

from multiprocessing import Process


def _child(n):
    """Runs in the child."""
    return n + 1


def bad(n):
    """Spawns a lambda target."""
    p = Process(target=lambda: n)
    p.start()
    p.join()


def clean(n):
    """Spawns a module-level target."""
    p = Process(target=_child, args=(n,))
    p.start()
    p.join()
