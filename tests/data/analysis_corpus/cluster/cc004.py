"""CC004: the two ends of an edge disagree on the payload dtype."""

import numpy as np


def push_bad(comm, field):
    """Sends half-precision data on tag 401."""
    comm.send(field.astype("float16"), dest=1, tag=401)


def bad(comm):
    """Receives tag 401 into a single-precision buffer."""
    buf = np.zeros(8, dtype="float32")
    buf[:] = comm.recv(source=0, tag=401)
    return buf


def push_clean(comm, field):
    """Sends single-precision data on tag 402."""
    comm.send(field.astype("float32"), dest=1, tag=402)


def clean(comm):
    """Receives tag 402 into a single-precision buffer."""
    buf = np.zeros(8, dtype="float32")
    buf[:] = comm.recv(source=0, tag=402)
    return buf
