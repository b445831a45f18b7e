"""What a process imports: each entry point loads what it runs, and a
step imports nothing its set-up did not.

A procs rank, a service worker and the CLI start in a fresh interpreter,
so every module their first import pulls in is start-up they pay before
any work (``docs/ARCHITECTURE.md``, "What a process imports").  None of
them may load the static analysers, the Blue Gene/Q models, the
zerotree / AMR half of the dump stack, the campaign tooling, the
reference solutions or SciPy.  Once set-up is done a step imports
nothing: a module first loaded in step 1 would move its import from the
set-up time into the step time the benchmarks measure.

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
    "repro.analysis.lint",
    "repro.analysis.rules",
    "repro.analysis.perfcheck",
    "repro.analysis.syscheck",
    "repro.analysis.concurrency.commcheck",
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


def run(steps, ranks, backend, dump_dir):
    from repro.cluster.driver import Simulation
    from repro.sim.config import SimulationConfig
    from repro.sim.ic import uniform

    config = SimulationConfig(cells=16, block_size=8, max_steps=steps,
                              ranks=ranks, cluster_backend=backend,
                              num_workers=1, dump_interval=int(bool(dump_dir)),
                              dump_dir=dump_dir or ".")
    ic = uniform(velocity=(1.0, 0.5, 0.25))
    if backend == "procs":
        from repro.cluster.procs import ProcsWorld

        return ProcsWorld(ranks).run(probe, config, ic, None, None), None
    result = Simulation(config, ic).run()
    return [sorted(sys.modules)], result.final_field


if __name__ == "__main__":
    ranks, backend, dump_dir = int(sys.argv[1]), sys.argv[2], sys.argv[3]
    zero, _ = run(0, ranks, backend, dump_dir)
    two, field = run(2, ranks, backend, dump_dir)
    restored = None
    if dump_dir:
        from repro.compression.io import read_field
        from repro.physics.state import GAMMA

        gamma = read_field(dump_dir + "/dump_step000002_Gamma.rwz")
        restored = float(abs(gamma - field[..., GAMMA]).max())
    print(json.dumps({"zero": zero, "two": two, "restored": restored}))
'''


def fresh(args, timeout=120):
    """Runs ``python *args`` in a fresh interpreter on this checkout;
    returns its last stdout line parsed as JSON."""
    env = dict(os.environ)
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


@pytest.mark.parametrize("ranks,backend", [(1, "sim"), (2, "sim"),
                                           (2, "procs")])
def test_a_step_imports_nothing(tmp_path, ranks, backend):
    script = tmp_path / "steps.py"
    script.write_text(SCRIPT)
    out = fresh([str(script), str(ranks), backend, ""])
    assert len(out["two"]) == (ranks if backend == "procs" else 1)
    for zero, two in zip(out["zero"], out["two"]):
        assert sorted(set(two) ^ set(zero)) == []
        assert not denied(two)


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
    "repro.analysis.cli",
    "repro.analysis.concurrency",
    "repro.analysis.perfcheck.rules",
    "repro.analysis.syscheck",
    "repro.cluster.driver",
)

CATALOGUES = """
import json, sys
from repro.analysis.concurrency.commcheck import registered_program_rules
from repro.analysis.lint import registered_rules
from repro.analysis.perfcheck.rules import registered_perf_rules
from repro.analysis.syscheck.rules import registered_sys_rules
print(json.dumps({
    "CL": [r.rule_id for r in registered_rules()],
    "CP": [r.rule_id for r in registered_perf_rules()],
    "RS": [r.rule_id for r in registered_sys_rules()],
    "CC": [r.rule_id for r in registered_program_rules()],
}))
"""


def test_rule_catalogues_do_not_depend_on_import_order():
    full = fresh(["-c", "import repro.analysis.rules\n" + CATALOGUES])
    assert all(full[family] for family in ("CL", "CP", "RS", "CC"))
    assert "CL001" in full["CL"]
    for first in FIRST_IMPORTS:
        assert fresh(["-c", f"import {first}\n" + CATALOGUES]) == full, first
