"""The loader of the compiled kernels (repro.native) at its edges.

Whatever goes wrong between the source and a loaded library -- no
compiler, a source that does not compile, a cache file that is garbage, a
directory someone else could have written -- the answer is the NumPy path
with a reason in ``status()``, in bounded time, never a crash.  Most cases
build a stub library (every entry point, no body) so that a build takes
tens of milliseconds; the real source is built by the suite's first kernel
call.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import native

pytestmark = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH")

#: Seconds any child process of this module may take.
BOUND = 120

#: What a child interpreter needs on ``PYTHONPATH`` to import ``repro``.
SRC = str(Path(native.__file__).resolve().parents[2])

#: Every entry point of the real library, doing nothing.
STUB = """
int repro_native_abi(void) { return %d; }
const char *repro_native_compiler(void) { return "stub"; }
void repro_rhs_sweeps(void) {}
void repro_gather_conv(void) {}
void repro_scatter_aos(void) {}
void repro_update_stage(void) {}
double repro_max_sos(void) { return 0.0; }
void repro_cell_pressure(void) {}
void repro_lift(void) {}
void repro_decimate(void) {}
"""

#: SHA-256 of the final field of the 2-step run in ``_RUN``, recorded at
#: the parent of the compiled kernels (a69c941).
RUN_DIGEST = "a2d599f60f1ee9908746a9ced376734b93e1401302669ffc105d9064fe8f17f5"

_RUN = """
import hashlib, json
import numpy as np
from repro import native
from repro.cluster import Simulation
from repro.sim import SimulationConfig, cloud_collapse, generate_cloud

config = SimulationConfig(cells=16, block_size=8, max_steps=2, num_workers=1,
                          diag_interval=0, dump_interval=0)
cloud = generate_cloud(3, (0.5, 0.5, 0.5), 0.38,
                       rng=np.random.default_rng(17), r_min=0.07, r_max=0.11)
result = Simulation(config, cloud_collapse(cloud, smoothing=config.h)).run()
print(json.dumps({
    "digest": hashlib.sha256(result.final_field.tobytes()).hexdigest(),
    "result": result.kernels, "status": native.status(),
    "lib_is_none": native.lib is None,
}))
"""


@pytest.fixture
def stub(tmp_path):
    source = tmp_path / "stub.c"
    source.write_text(STUB % native.ABI)
    return source


def _python(code, **env):
    """Run ``code`` in a fresh interpreter; returns its last stdout line
    as JSON."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", code],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, timeout=BOUND, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestFallback:
    def test_no_compiler_on_path_is_the_numpy_path_with_the_same_bytes(self):
        out = _python(_RUN, PATH="/nonexistent")
        assert out["lib_is_none"]
        for report in (out["status"], out["result"]):
            assert report["backend"] == "numpy"
            assert "compiler" in report["reason"]
            assert report["path"] is None
        assert out["digest"] == RUN_DIGEST

    def test_the_compiled_path_ends_in_the_same_bytes(self):
        out = _python(_RUN)
        assert out["result"]["backend"] == "c", out["result"]["reason"]
        assert out["result"] == out["status"]
        assert out["digest"] == RUN_DIGEST

    def test_a_source_that_does_not_compile(self, tmp_path):
        source = tmp_path / "broken.c"
        source.write_text("int repro_native_abi(void) { return ; oops }\n")
        lib, state = native.build_or_load(source, [tmp_path / "cache"])
        assert lib is None
        assert state["backend"] == "numpy"
        assert state["reason"].startswith("build failed: ")
        assert "error" in state["reason"] and "broken.c" in state["reason"]
        assert "\n" not in state["reason"]
        assert list((tmp_path / "cache").iterdir()) == []  # no temp left

    def test_a_library_without_the_entry_points(self, tmp_path):
        source = tmp_path / "other.c"
        source.write_text("int something_else(void) { return 0; }\n")
        lib, state = native.build_or_load(source, [tmp_path / "cache"])
        assert lib is None and "repro_" in state["reason"]

    @pytest.mark.parametrize("abi", [native.ABI - 1, native.ABI + 1])
    def test_a_library_of_another_abi(self, tmp_path, abi):
        source = tmp_path / "old.c"
        source.write_text(STUB % abi)
        lib, state = native.build_or_load(source, [tmp_path / "cache"])
        assert (lib is None
                and f"ABI {abi}, not {native.ABI}" in state["reason"])

    def test_a_missing_compiler_binary(self, stub, tmp_path):
        lib, state = native.build_or_load(
            stub, [tmp_path / "cache"], compiler=str(tmp_path / "no-gcc"))
        assert lib is None and "no-gcc" in state["reason"]


class TestCache:
    def test_built_once_then_found(self, stub, tmp_path):
        cache = tmp_path / "cache"
        lib, state = native.build_or_load(stub, [cache])
        assert lib is not None and state["backend"] == "c"
        assert state["reason"] == "" and "stub" in state["compiler"]
        (built,) = cache.iterdir()
        assert state["path"] == str(built)
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        assert not built.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        before = built.stat().st_mtime_ns
        again, state = native.build_or_load(stub, [cache])
        assert again is not None and state["path"] == str(built)
        assert built.stat().st_mtime_ns == before  # found, not rebuilt

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty"])
    def test_a_damaged_cache_file_is_rebuilt(self, stub, tmp_path, damage):
        # (damaged under a name this process has never loaded: writing
        # into a mapped library is not a cache fault, it is a bus error)
        native.build_or_load(stub, [tmp_path / "intact"])
        (intact,) = (tmp_path / "intact").iterdir()
        data = intact.read_bytes()
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        damaged = cache / intact.name
        damaged.write_bytes({"truncated": data[:len(data) // 3],
                             "garbage": b"\x7fELF" + b"\xa5" * 4096,
                             "empty": b""}[damage])
        damaged.chmod(0o755)
        lib, state = native.build_or_load(stub, [cache])
        assert lib is not None and state["backend"] == "c"
        assert state["path"] == str(damaged)
        assert lib.repro_native_abi() == native.ABI
        assert len(damaged.read_bytes()) >= len(data) // 2  # rebuilt

    def test_a_group_writable_directory_is_not_used(self, stub, tmp_path):
        shared, mine = tmp_path / "shared", tmp_path / "mine"
        native.build_or_load(stub, [shared])  # a valid library is there
        shared.chmod(0o770)
        lib, state = native.build_or_load(stub, [shared])
        assert lib is None and "writable" in state["reason"]
        lib, state = native.build_or_load(stub, [shared, mine])
        assert lib is not None and Path(state["path"]).parent == mine

    def test_a_world_writable_library_is_not_loaded(self, stub, tmp_path):
        cache = tmp_path / "cache"
        native.build_or_load(stub, [cache])
        (built,) = cache.iterdir()
        built.chmod(0o777)
        lib, state = native.build_or_load(stub, [cache])
        # rebuilt in a directory that is ours, under a mode that is safe
        assert lib is not None
        assert not built.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)

    def test_a_directory_of_another_user_is_not_used(self, stub, tmp_path,
                                                     monkeypatch):
        cache = tmp_path / "cache"
        native.build_or_load(stub, [cache])
        monkeypatch.setattr(os, "geteuid", lambda: os.stat(cache).st_uid + 1)
        lib, state = native.build_or_load(stub, [cache])
        assert lib is None and "owned by uid" in state["reason"]

    def test_an_unwritable_package_directory_falls_to_the_user_cache(
            self, stub, tmp_path):
        # (root ignores mode bits: a path below a file cannot be made)
        blocker = tmp_path / "package"
        blocker.write_text("not a directory")
        user = tmp_path / "home" / ".cache" / "repro" / "native"
        lib, state = native.build_or_load(
            stub, [blocker / "__pycache__", user])
        assert lib is not None and Path(state["path"]).parent == user
        assert stat.S_IMODE(user.stat().st_mode) == 0o700

    def test_no_usable_directory_is_the_fallback(self, stub, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        lib, state = native.build_or_load(stub, [blocker / "a", blocker / "b"])
        assert lib is None and state["backend"] == "numpy"
        assert str(blocker) in state["reason"]

    def test_default_directories(self):
        package, user = native.default_cache_dirs()
        assert package == Path(native.__file__).parent / "__pycache__"
        assert user == Path.home() / ".cache" / "repro" / "native"
        assert not any(str(d).startswith("/tmp") for d in (package, user))

    def test_two_processes_starting_cold_end_with_one_valid_file(
            self, stub, tmp_path):
        cache = tmp_path / "cache"
        code = textwrap.dedent(f"""
            import json
            from pathlib import Path
            from repro import native
            lib, state = native.build_or_load(Path({str(stub)!r}),
                                              [Path({str(cache)!r})])
            state["abi"] = lib.repro_native_abi() if lib else None
            print(json.dumps(state))
        """)
        procs = [subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC}) for _ in range(2)]
        states = []
        for proc in procs:
            out, err = proc.communicate(timeout=BOUND)
            assert proc.returncode == 0, err
            states.append(json.loads(out))
        assert [s["backend"] for s in states] == ["c", "c"]
        assert [s["abi"] for s in states] == [native.ABI] * 2
        assert states[0]["path"] == states[1]["path"]
        assert [p.name for p in cache.iterdir()] == [
            Path(states[0]["path"]).name]  # one file, no temporaries
        lib, _ = native.build_or_load(stub, [cache])
        assert lib is not None


class TestKey:
    def test_changes_with_source_flags_and_compiler(self, stub, tmp_path):
        gcc = native.find_compiler()
        base = native.cache_key(stub, gcc)
        assert base == native.cache_key(stub, gcc)
        assert native.cache_key(stub, gcc, native.FLAGS + ("-g",)) != base
        other = tmp_path / "other.c"
        other.write_text(stub.read_text() + "\n/* changed */\n")
        assert native.cache_key(other, gcc) != base
        # another compiler binary, then the same path "upgraded"
        fake = tmp_path / "gcc"
        shutil.copy(os.path.realpath(gcc), fake)
        first = native.cache_key(stub, str(fake))
        assert first != base
        with open(fake, "ab") as fh:
            fh.write(b"\0")
        assert native.cache_key(stub, str(fake)) != first

    def test_ctypes_lives_in_the_loader_alone(self):
        """Foreign-function plumbing stays behind one module: the kernels
        ask ``native.addressable`` / ``native.addresses``."""
        package = Path(native.__file__).resolve().parents[1]
        users = [str(path.relative_to(package))
                 for path in sorted(package.rglob("*.py"))
                 if "import ctypes" in path.read_text()
                 or "from ctypes" in path.read_text()]
        assert users == ["native/__init__.py"]

    def test_a_cached_library_of_the_previous_source_is_not_loaded(
            self, tmp_path):
        """The cache is keyed by the source's bytes: the ABI 2 library of
        a checkout before the wavelet kernels is left where it is and the
        new source built beside it, never handed to this loader."""
        old, new = tmp_path / "old" / "kernels.c", tmp_path / "kernels.c"
        old.parent.mkdir()
        old.write_text((STUB % 2).replace("void repro_lift(void) {}", "")
                       .replace("void repro_decimate(void) {}", ""))
        new.write_text(STUB % native.ABI)
        cache = tmp_path / "cache"
        stale, state = native.build_or_load(old, [cache])
        assert stale is None and "repro_lift" in state["reason"]
        (stale_path,) = cache.iterdir()
        lib, state = native.build_or_load(new, [cache])
        assert lib is not None and lib.repro_native_abi() == 4
        assert state["path"] != str(stale_path)
        assert sorted(cache.iterdir()) == sorted(
            [stale_path, Path(state["path"])])

    def test_real_source_is_package_data(self):
        assert native.SOURCE.is_file()
        assert native.SOURCE.parent == Path(native.__file__).parent


class TestStatus:
    def test_reports_the_loaded_library_and_follows_lib(self, monkeypatch):
        if native.lib is None:
            pytest.skip(native.status()["reason"])
        report = native.status()
        assert report["backend"] == "c" and report["reason"] == ""
        assert Path(report["path"]).is_file()
        assert report["flags"] == list(native.FLAGS)
        assert "-march=native" not in report["flags"]
        assert "-ffp-contract=off" in report["flags"]
        monkeypatch.setattr(native, "lib", None)
        assert native.status()["backend"] == "numpy"

    def test_importing_and_reading_dumps_never_builds(self):
        out = _python(textwrap.dedent("""
            import json
            import repro.cluster, repro.compression.io, repro.core.kernels
            from repro import native
            print(json.dumps({"loaded": "lib" in vars(native),
                              "status": native.status()}))
        """))
        assert out["loaded"] is False
        assert out["status"]["backend"] == "numpy"
        assert "not loaded" in out["status"]["reason"]

    @pytest.mark.parametrize("hidden", [False, True])
    def test_module_entry_point(self, hidden):
        env = {**os.environ, "PYTHONPATH": SRC}
        if hidden:
            env["PATH"] = "/nonexistent"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.native", "--require"], env=env,
            capture_output=True, text=True, timeout=BOUND, check=False)
        report = json.loads(proc.stdout)
        assert report["backend"] == ("numpy" if hidden else "c")
        assert report["abi"] == native.ABI == 4
        assert {"repro_lift", "repro_decimate", "repro_cell_pressure"} <= set(
            report["entry_points"])
        assert proc.returncode == (1 if hidden else 0)
