"""RS007 (clean twin): the parent creates the segment, the child attaches."""

from multiprocessing import Process, shared_memory


def _attach(name):
    """Attaches to the parent's segment inside the child."""
    seg = shared_memory.SharedMemory(name=name)
    try:
        seg.buf[0] = 1
    finally:
        seg.close()


def clean(name):
    """Creates the segment, runs the child, then removes the segment."""
    seg = shared_memory.SharedMemory(name=name, create=True, size=8)
    try:
        p = Process(target=_attach, args=(name,))
        p.start()
        p.join()
    finally:
        seg.close()
        seg.unlink()
