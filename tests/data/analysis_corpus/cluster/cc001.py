"""CC001: a send that no receive matches."""


def _send_frame(comm, nbr, tag, frame):
    """Posts one frame (the tag comes from the caller)."""
    comm.send(frame, dest=nbr, tag=tag)


def bad(comm, frame):
    """Posts tag 101, which nobody receives."""
    comm.send(frame, dest=1, tag=101)


def bad_wrapped(comm, frame):
    """Posts tags 111 and 112 through the wrapper; only 112 is received."""
    _send_frame(comm, 1, 111, frame)
    _send_frame(comm, 1, 112, frame)
    return comm.recv(source=0, tag=112)


def clean(comm, frame):
    """Posts the six face tags 120..125 and receives each of them."""
    for axis in range(3):
        for side in (-1, 1):
            comm.send(frame, dest=1, tag=120 + 2 * axis + (side + 1) // 2)
    for axis in range(3):
        for side in (-1, 1):
            frame = comm.recv(source=0, tag=120 + 2 * axis + (1 - side) // 2)
    return frame
