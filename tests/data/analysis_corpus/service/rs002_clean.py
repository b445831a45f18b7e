"""RS002 (clean twin): the creating module unlinks what it created."""

from multiprocessing import shared_memory


def clean(name):
    """Creates a segment, writes it, closes and unlinks it."""
    seg = shared_memory.SharedMemory(name=name, create=True, size=64)
    try:
        seg.buf[0] = 1
    finally:
        seg.close()
        seg.unlink()
