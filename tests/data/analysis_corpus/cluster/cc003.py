"""CC003: collectives under a rank-dependent condition."""


def _gather_all(comm, field):
    """Returns every rank's field (a collective)."""
    return comm.gather(field)


def _save(comm, field):
    """Returns the gathered field (a collective, one call down)."""
    return _gather_all(comm, field)


class Sink:
    """Synchronises the ranks before it flushes."""

    def flush(self, comm):
        """Waits for every rank (a collective)."""
        comm.barrier()


class Writer:
    """Sums a value over the ranks before writing it."""

    def flush_totals(self, comm, value):
        """Returns the global sum of value (a collective)."""
        return comm.allreduce(value)


def bad(comm, field, writer, out):
    """Only rank 0 enters the barrier, the gather and the reduction."""
    if comm.rank == 0:
        comm.barrier()
        _save(comm, field)
        writer.flush_totals(comm, 1.0)
        out.flush(comm)


def clean(comm, field, writer):
    """Every rank enters the barrier, the gather and the reduction."""
    comm.barrier()
    _save(comm, field)
    return writer.flush_totals(comm, 1.0)
