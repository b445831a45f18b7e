"""How the program starts a child process, and how the child leaves.

A ``procs`` rank (:class:`repro.cluster.procs.ProcsWorld`) and a service
worker (:class:`repro.service.workers.WorkerPool`) are each one process
among others on the host, so each is spawned from :func:`get_context`:

* it starts as one core: ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
  and ``MKL_NUM_THREADS`` read 1 in the child unless the user set them,
  so NumPy's BLAS starts no thread pool sized for the host (no rank or
  worker path calls BLAS).  They are set first thing in the child's
  ``-c`` program, before any import; the parent's environment is never
  written, so its other subprocesses inherit nothing and a launch is
  safe while other parent threads run (``setenv`` could free the
  ``environ`` another thread's ``getenv`` is reading);
* it leaves when its target returns: stdio and logging are flushed and
  ``os._exit(0)`` -- the code a returning target exits with anyway --
  skips the interpreter's teardown while the parent waits in ``join``.
  A target that raises exits through :mod:`multiprocessing`'s normal
  path (traceback, code 1).  So a target sends its last message and
  closes its segments and files before it returns.
"""

from __future__ import annotations

import io
import os
import sys
from multiprocessing import context, popen_spawn_posix, spawn, util

#: The thread-pool sizes a child reads as 1 unless the user set them.
ONE_CORE = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_core_command(cmd: list[str]) -> list[str]:
    """``cmd`` (a spawn command line) with the :data:`ONE_CORE` variables
    the parent's environment does not set assigned first in its ``-c``
    program (list)."""
    unset = {name: "1" for name in ONE_CORE if name not in os.environ}
    if not unset:
        return cmd
    at = cmd.index("-c") + 1
    return [*cmd[:at],
            f"import os; os.environ.update({unset!r}); {cmd[at]}",
            *cmd[at + 1:]]


class _Popen(popen_spawn_posix.Popen):
    """The spawn launcher with :func:`one_core_command` as its command."""

    def _launch(self, process_obj):
        # multiprocessing.popen_spawn_posix.Popen._launch, but for the
        # command line.
        from multiprocessing import resource_tracker

        tracker_fd = resource_tracker.getfd()
        self._fds.append(tracker_fd)
        prep_data = spawn.get_preparation_data(process_obj._name)
        fp = io.BytesIO()
        context.set_spawning_popen(self)
        try:
            context.reduction.dump(prep_data, fp)
            context.reduction.dump(process_obj, fp)
        finally:
            context.set_spawning_popen(None)

        parent_r = child_w = child_r = parent_w = None
        try:
            parent_r, child_w = os.pipe()
            child_r, parent_w = os.pipe()
            cmd = one_core_command(spawn.get_command_line(
                tracker_fd=tracker_fd, pipe_handle=child_r))
            self._fds.extend([child_r, child_w])
            self.pid = util.spawnv_passfds(spawn.get_executable(), cmd,
                                           self._fds)
            self.sentinel = parent_r
            with open(parent_w, "wb", closefd=False) as f:
                f.write(fp.getbuffer())
        finally:
            self.finalizer = util.Finalize(
                self, util.close_fds,
                [fd for fd in (parent_r, parent_w) if fd is not None])
            for fd in (child_r, child_w):
                if fd is not None:
                    os.close(fd)


class _Process(context.SpawnProcess):
    """A spawned child that starts as one core and leaves when done."""

    @staticmethod
    def _Popen(process_obj):
        return _Popen(process_obj)

    def run(self) -> None:
        super().run()
        # os._exit drops whatever is still buffered: flush it first.
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.shutdown()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        os._exit(0)


class _Context(context.SpawnContext):
    Process = _Process


_SPAWN = _Context()


def get_context(method: str = "spawn"):
    """The :mod:`multiprocessing` context children start from: spawn's
    with the one-core start and the early exit; any other start method's
    unchanged (a forked child has no exec to start from and already ends
    in ``os._exit``)."""
    if method == "spawn":
        return _SPAWN
    from multiprocessing import get_context as stdlib_context

    return stdlib_context(method)
