"""What a process imports: each entry point loads what it runs, and a
step imports nothing its set-up did not.

A procs rank, a service worker and the CLI start in a fresh interpreter,
so every module their first import pulls in is start-up they pay before
any work (``docs/ARCHITECTURE.md``, "What a process imports").  None of
them may load the lint or the leak ledger, the Blue Gene/Q models, the
zerotree / AMR half of the dump stack, the campaign tooling, the
reference solutions or SciPy.  A plain run -- no sanitizer, race tracker,
checkpoint, flight recording or slice ring -- loads none of the modules
only those run (``MOVED``); a run that uses one loads it in set-up.
Once set-up is done a step imports nothing: a module first loaded in
step 1 would move its import from the set-up time into the step time
the benchmarks measure.

Every case runs a fresh interpreter: this process's ``sys.modules``
holds whatever earlier tests imported.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Modules (and their submodules) no entry point may load.
DENIED = (
    "repro.analysis.cli",
    "repro.analysis.lint",
    "repro.analysis.program",
    "repro.analysis.rules",
    "repro.analysis.ledger",
    "repro.compression.zerotree",
    "repro.compression.amr_analysis",
    "repro.sim.campaign",
    "repro.sim.study",
    "repro.sim.visualization",
    "repro.sim.erosion",
    "repro.physics.exact_riemann",
    "repro.physics.rayleigh",
    "repro.validation",
    "scipy",
)
#: The part of ``repro.perf`` the runtime calls: telemetry's tables.
PERF_USED = ("repro.perf", "repro.perf.report")
#: Modules only a run with a sanitizer, race tracker, checkpoint, fault
#: injector, flight recording or the slice ring executes: a plain rank
#: or worker loads none of them.
MOVED = (
    "repro.analysis.sanitizer",
    "repro.analysis.concurrency.race",
    "repro.analysis.report",
    "repro.cluster.checkpoint",
    "repro.container",
    "repro.resilience.recover",
    "repro.resilience.inject",
    "repro.resilience.plan",
    "repro.telemetry.scorecard",
    "repro.perf.report",
    "repro.core.ringbuffer",
)
#: What a worker runs of those: every task carries its job's fault
#: injector, the channel of the worker's step heartbeat.
WORKER_RUNS = ("repro.resilience.inject", "repro.resilience.plan")
#: ``PATH`` with no compiler on it: ranks take the NumPy executor.
NO_COMPILER = {"PATH": "/nonexistent"}

#: name -> the modules its process imports first.
ENTRY_POINTS = {
    "rank": ("repro.cluster.procs", "repro.cluster.driver"),
    "worker": ("repro.service.workers",),
    "cli": ("repro.cli",),
}

#: Runs 0 and then 2 steps; prints the module sets after each.  A procs
#: rank runs ``probe``, which returns the rank's own set.
SCRIPT = '''
import json
import sys


def probe(comm, *args):
    from repro.cluster.driver import rank_main

    rank_main(comm, *args)
    return sorted(sys.modules)


def run(steps, ranks, backend, dump_dir, extra):
    from repro.cluster.driver import Simulation
    from repro.sim.config import SimulationConfig
    from repro.sim.ic import uniform

    config = SimulationConfig(cells=16, block_size=8, max_steps=steps,
                              ranks=ranks, cluster_backend=backend,
                              num_workers=1, dump_interval=int(bool(dump_dir)),
                              dump_dir=dump_dir or ".", **extra)
    ic = uniform(velocity=(1.0, 0.5, 0.25))
    if backend == "procs":
        from repro.cluster.procs import ProcsWorld

        return ProcsWorld(ranks).run(probe, config, ic, None, None), None
    result = Simulation(config, ic).run()
    return [sorted(sys.modules)], result.final_field


if __name__ == "__main__":
    ranks, backend, dump_dir = int(sys.argv[1]), sys.argv[2], sys.argv[3]
    extra = json.loads(sys.argv[4]) if len(sys.argv) > 4 else {}
    zero, _ = run(0, ranks, backend, dump_dir, extra)
    two, field = run(2, ranks, backend, dump_dir, extra)
    restored = None
    if dump_dir:
        from repro.compression.io import read_field
        from repro.physics.state import GAMMA

        gamma = read_field(dump_dir + "/dump_step000002_Gamma.rwz")
        restored = float(abs(gamma - field[..., GAMMA]).max())
    print(json.dumps({"zero": zero, "two": two, "restored": restored}))
'''


#: A worker loop run in this process: one plain 2-step job, then the
#: stop sentinel; prints the modules the worker ended up with (the task
#: is built from modules a worker loads anyway).
WORKER = '''
import json
import sys
import threading
from multiprocessing import Array, Pipe

from repro.resilience.inject import FaultInjector
from repro.service.request import ICSpec, JobRequest
from repro.service.workers import HB_SLOTS, worker_main
from repro.sim.config import SimulationConfig

if __name__ == "__main__":

    request = JobRequest(SimulationConfig(cells=16, block_size=8,
                                          max_steps=2), ICSpec("uniform"))
    task_r, task_w = Pipe(duplex=False)
    result_r, result_w = Pipe(duplex=False)
    task_w.send({"seq": 1, "request": request.to_payload(),
                 "injector": FaultInjector().child_clone()})
    task_w.send(None)
    results = []
    reader = threading.Thread(target=lambda: results.append(result_r.recv()))
    reader.start()
    worker_main(0, task_r, result_w, Array("d", HB_SLOTS))
    reader.join()
    assert results[0][1] == "ok", results[0]
    print(json.dumps(sorted(sys.modules)))
'''


def fresh(args, timeout=120, env_overrides=None):
    """Runs ``python *args`` in a fresh interpreter on this checkout;
    returns its last stdout line parsed as JSON."""
    env = dict(os.environ, **(env_overrides or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def denied(modules) -> list[str]:
    """The modules of ``modules`` no entry point may load (sorted)."""
    return sorted(
        m for m in modules
        if any(m == d or m.startswith(d + ".") for d in DENIED)
        or (m.startswith("repro.perf.") and m not in PERF_USED))


def moved(modules, runs=()) -> list[str]:
    """The modules of ``modules`` only a run that uses them loads,
    other than ``runs`` (sorted)."""
    return sorted(m for m in modules if m in MOVED and m not in runs)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_nothing_denied(entry):
    imports = "\n".join(f"import {m}" for m in ENTRY_POINTS[entry])
    loaded = fresh(["-c", f"import json, sys\n{imports}\n"
                          "print(json.dumps(sorted(sys.modules)))"])
    assert not denied(loaded)


def test_root_package_imports_no_subpackage():
    loaded = fresh(["-c", "import json, sys, repro\n"
                          "print(json.dumps(sorted(sys.modules)))"])
    assert [m for m in loaded if m.startswith("repro")] == [
        "repro", "repro._exports"]


@pytest.mark.parametrize("compiler", ["found", "hidden"])
@pytest.mark.parametrize("ranks,backend", [(1, "sim"), (2, "sim"),
                                           (2, "procs")])
def test_a_step_imports_nothing(tmp_path, ranks, backend, compiler):
    """... and a plain run loads none of the ``MOVED`` modules, on the
    compiled executor and on the NumPy one."""
    script = tmp_path / "steps.py"
    script.write_text(SCRIPT)
    out = fresh([str(script), str(ranks), backend, ""],
                env_overrides=NO_COMPILER if compiler == "hidden" else None)
    assert len(out["two"]) == (ranks if backend == "procs" else 1)
    for zero, two in zip(out["zero"], out["two"]):
        assert sorted(set(two) ^ set(zero)) == []
        assert not denied(two)
        assert not moved(two)


def test_a_plain_worker_loads_none_of_the_moved_modules(tmp_path):
    script = tmp_path / "worker.py"
    script.write_text(WORKER)
    loaded = fresh([str(script)])
    assert "repro.cluster.driver" in loaded
    assert not moved(loaded, runs=WORKER_RUNS)
    assert not denied(loaded)


@pytest.mark.parametrize("extra,runs", [
    ({"sanitize": "warn"}, ["repro.analysis.sanitizer"]),
    ({"checkpoint_interval": 1},
     ["repro.cluster.checkpoint", "repro.container"]),
    ({"flight_out": "flight.jsonl"},
     ["repro.perf.report", "repro.telemetry.scorecard"]),
    ({"use_slices": True}, ["repro.core.ringbuffer"]),
    ({"telemetry": "trace"}, []),
], ids=["sanitize", "checkpoint", "flight", "slices", "trace"])
def test_a_run_loads_what_it_uses_in_setup(tmp_path, extra, runs):
    script = tmp_path / "steps.py"
    script.write_text(SCRIPT)
    extra = dict(extra)
    if "checkpoint_interval" in extra:
        extra["checkpoint_dir"] = str(tmp_path / "ckpt")
    if "flight_out" in extra:
        extra["flight_out"] = str(tmp_path / extra["flight_out"])
    out = fresh([str(script), "1", "sim", "", json.dumps(extra)])
    (zero,), (two,) = out["zero"], out["two"]
    assert sorted(set(two) ^ set(zero)) == []
    assert moved(two) == runs


def test_a_dumping_run_loads_its_dump_stack_in_setup(tmp_path):
    script = tmp_path / "steps.py"
    script.write_text(SCRIPT)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    out = fresh([str(script), "1", "sim", str(dumps)])
    (zero,), (two,) = out["zero"], out["two"]
    assert sorted(set(two) ^ set(zero)) == []
    assert "repro.compression.io" in two
    # A uniform Gamma decimates to its mean: restored to round-off.
    assert out["restored"] is not None and out["restored"] < 1e-5


#: Modules a process may import before it first asks for a catalogue.
FIRST_IMPORTS = (
    "repro.analysis",
    "repro.analysis.lint",
    "repro.analysis.program",
    "repro.analysis.report",
    "repro.analysis.cli",
    "repro.analysis.concurrency",
    "repro.analysis.ledger",
    "repro.cluster.driver",
)

CATALOGUES = """
import json, sys
from repro.analysis.program import registered_rules
print(json.dumps([r.rule_id for r in registered_rules()]))
"""


def test_rule_catalogues_do_not_depend_on_import_order():
    full = fresh(["-c", "import repro.analysis.rules\n" + CATALOGUES])
    assert full == ["CL001", "CL005", "CL006", "CL007", "CL009", "CL011",
                    "CL012", "CP003"]
    for first in FIRST_IMPORTS:
        assert fresh(["-c", f"import {first}\n" + CATALOGUES]) == full, first
