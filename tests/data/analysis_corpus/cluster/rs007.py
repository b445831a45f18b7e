"""RS007 (violating): a kill-supervised child creates a named segment."""

from multiprocessing import Process, shared_memory


def _child(name):
    """Creates, writes and removes a named segment inside the child."""
    seg = shared_memory.SharedMemory(name=name, create=True, size=8)
    try:
        seg.buf[0] = 1
    finally:
        seg.close()
        seg.unlink()


def bad(name):
    """Spawns a child that owns a named segment."""
    p = Process(target=_child, args=(name,))
    p.start()
    p.join()
