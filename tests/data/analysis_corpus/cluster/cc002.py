"""CC002: a receive that no send posts."""


def bad(comm):
    """Waits for tag 201, which nobody sends."""
    return comm.recv(source=0, tag=201)


def clean(comm, frame):
    """Sends tag 202 and waits for its partner."""
    comm.send(frame, dest=1, tag=202)
    return comm.recv(source=0, tag=202)
