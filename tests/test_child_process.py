"""A spawned child is one core and leaves when it is done.

Every process the program spawns -- a ``procs`` rank and a service
worker -- starts from :func:`repro._child.get_context`: it sees
``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS`` at
1 unless the user set them, the parent's own environment never changes,
and once its target returns it flushes stdio and ends in ``os._exit``
with the code it would have exited with anyway.
"""

import glob
import os
import signal
import subprocess
import sys

import pytest

from repro import _child
from repro.cluster import Simulation
from repro.cluster.mpi_sim import WorldError
from repro.cluster.procs import ProcsWorld, RankLostError
from repro.service import JobEngine, ServiceConfig
from repro.service import workers as workers_mod
from repro.sim.config import SimulationConfig
from repro.sim.ic import uniform
from repro.telemetry import read_flight

SRC = os.path.dirname(os.path.dirname(_child.__file__))


@pytest.fixture(autouse=True)
def _no_leaked_resources(resource_ledger):
    """No segment, child process or thread outlives a test."""
    yield
    assert not glob.glob("/dev/shm/rpr*")


def _one_core_view(*_args):
    """The three variables and the thread count of this process after
    NumPy (and its BLAS) loaded."""
    import numpy  # noqa: F401

    return ({name: os.environ.get(name) for name in _child.ONE_CORE},
            len(os.listdir("/proc/self/task")))


def _rank_view(comm):
    return _one_core_view()


def _worker_view(worker_id, task_r, result_w, hb):
    """Stands in for ``worker_main``: reports what the worker sees."""
    result_w.send(_one_core_view())


def _spawned_worker_view():
    pool = workers_mod.WorkerPool(1)
    pool.start()
    try:
        (handle,) = pool.workers.values()
        return handle.result_r.recv()
    finally:
        pool.stop()


class TestOneCore:
    def test_a_rank_starts_as_one_core(self):
        for env, threads in ProcsWorld(2).run(_rank_view):
            assert env == dict.fromkeys(_child.ONE_CORE, "1")
            assert threads == 1

    def test_a_worker_starts_as_one_core(self, monkeypatch):
        monkeypatch.setattr(workers_mod, "worker_main", _worker_view)
        env, threads = _spawned_worker_view()
        assert env == dict.fromkeys(_child.ONE_CORE, "1")
        assert threads == 1

    def test_the_users_values_win(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        expected = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3",
                    "MKL_NUM_THREADS": "1"}
        for env, _ in ProcsWorld(2).run(_rank_view):
            assert env == expected
        monkeypatch.setattr(workers_mod, "worker_main", _worker_view)
        assert _spawned_worker_view()[0] == expected

    def test_the_parents_environment_does_not_change(self, tmp_path):
        before = dict(os.environ)
        ProcsWorld(2).run(_rank_view)
        assert dict(os.environ) == before
        engine = JobEngine(ServiceConfig(workers=1,
                                         workdir=str(tmp_path / "w")))
        engine.start()
        try:
            assert dict(os.environ) == before
        finally:
            engine.shutdown()
        assert dict(os.environ) == before

    def test_the_command_line_sets_only_what_the_user_did_not(
            self, monkeypatch):
        cmd = ["python", "-B", "-c", "spawn_main()", "--multiprocessing-fork"]
        for name in _child.ONE_CORE:
            monkeypatch.setenv(name, "4")
        assert _child.one_core_command(cmd) == cmd
        monkeypatch.delenv("MKL_NUM_THREADS")
        program = _child.one_core_command(cmd)[3]
        assert program.startswith("import os; os.environ.update(")
        assert "'MKL_NUM_THREADS': '1'" in program
        assert "OMP_NUM_THREADS" not in program
        assert program.endswith("; spawn_main()")


def _returns():
    return None


def _raises():
    raise ValueError("typed failure")


def _exits_3():
    sys.exit(3)


def _kills_itself():
    os.kill(os.getpid(), signal.SIGKILL)


def _touch(path):
    with open(path, "w") as f:
        f.write("torn down")


def _registers_teardown(path):
    import atexit

    atexit.register(_touch, path)


def _returns_rank(comm):
    return comm.rank


def _raise_typed(comm):
    if comm.rank == 1:
        raise KeyError("rank 1 failed")
    return comm.rank


def _kill_rank_1(comm):
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    comm.barrier()
    return comm.rank


PRINTS = '''
import sys

from repro import _child


def say():
    sys.stdout.write("out before the exit")
    sys.stderr.write("err before the exit")


if __name__ == "__main__":
    p = _child.get_context().Process(target=say)
    p.start()
    p.join()
    print(f"|{p.exitcode}")
'''


class TestExit:
    @pytest.mark.parametrize("target,code", [
        (_returns, 0), (_raises, 1), (_exits_3, 3),
        (_kills_itself, -signal.SIGKILL)])
    def test_a_child_exits_with_the_code_it_always_had(self, target, code):
        p = _child.get_context().Process(target=target)
        p.start()
        p.join(timeout=60)
        assert p.exitcode == code

    def test_a_returning_child_skips_interpreter_teardown(self, tmp_path):
        marker = tmp_path / "teardown"
        p = _child.get_context().Process(target=_registers_teardown,
                                         args=(str(marker),))
        p.start()
        p.join(timeout=60)
        assert p.exitcode == 0
        assert not marker.exists()

    def test_unflushed_output_is_not_lost(self, tmp_path):
        script = tmp_path / "prints.py"
        script.write_text(PRINTS)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("out before the exit|0\n")
        assert "err before the exit" in done.stderr

    def test_ok_typed_error_and_kill_outcomes(self):
        assert ProcsWorld(2, timeout=60.0).run(_returns_rank) == [0, 1]
        with pytest.raises(WorldError) as err:
            ProcsWorld(2, timeout=60.0).run(_raise_typed)
        assert isinstance(err.value.failures[1], KeyError)
        with pytest.raises(WorldError) as err:
            ProcsWorld(2, timeout=60.0).run(_kill_rank_1)
        assert isinstance(err.value.failures[1], RankLostError)
        assert f"exitcode {-signal.SIGKILL}" in str(err.value.failures[1])

    def test_flight_parts_are_complete(self, tmp_path):
        out = tmp_path / "flight.jsonl"
        config = SimulationConfig(cells=16, block_size=8, max_steps=3,
                                  ranks=2, cluster_backend="procs",
                                  flight_out=str(out))
        Simulation(config, uniform(velocity=(1.0, 0.5, 0.25))).run()
        header, steps = read_flight(str(out))
        assert header["ranks"] == 2
        assert [(s["step"], s["rank"]) for s in steps] == [
            (step, rank) for step in range(1, 4) for rank in range(2)]
        assert not list(tmp_path.glob("flight.jsonl.rank*"))
