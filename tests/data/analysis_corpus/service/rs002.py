"""RS002 (violating): the creating module never unlinks its segment."""

from multiprocessing import shared_memory


def bad(name):
    """Creates a segment, writes it and closes it, but never unlinks."""
    seg = shared_memory.SharedMemory(name=name, create=True, size=64)
    try:
        seg.buf[0] = 1
    finally:
        seg.close()
