"""The door to the compiled kernels: build on first use, load, or fall back.

``kernels.c`` holds the tile bodies of RHS, UP and SOS, the per-cell
pressure of a dump or a diagnostic, and the lifting, decimation and
byte-plane packing of the compression layer, byte-identical to the NumPy
kernels they stand in for -- and ``repro_crc32``, the value of
``zlib.crc32`` by carry-less multiplication.  This module compiles it
with the host's ``gcc`` the first time a kernel is *used*, keeps the
result as ``kernels-<key>-<digest>.so`` and hands the loaded library out
as the module attribute :data:`lib` -- ``None`` where there is no
compiler, the build failed or the file cannot be loaded, in which case
every caller runs the NumPy path it ran before, silently and with the
same bytes.
:func:`status` says which it was, and why.

Reading ``native.lib`` is the trigger: until the first read the attribute
does not exist and the module-level ``__getattr__`` loads it (so importing
``repro``, reading a dump or a checkpoint never compiles); from then on it
is a plain attribute.  Tests choose a path by setting it
(``monkeypatch.setattr(native, "lib", None)``) -- a test seam, there is no
option.

Cache rules: the library is keyed by the SHA-256 of the source, the flags
and the compiler's identity (resolved path, size, mtime -- no process is
spawned to find a cached library), and named after its own bytes as well:
a file whose contents do not hash to its name (truncated, garbage) is
removed and built again, never handed to ``dlopen``.  It lives in
``__pycache__`` next to the source, with the trust of the ``.py`` beside
it; where that directory cannot be written, in ``~/.cache/repro/native``,
created 0700.  A directory or file that is not owned by the current user,
or that group or others may write, is never loaded, and there is no
``/tmp`` fallback.  A build goes to a temporary name and is moved into
place with ``os.replace``: processes that start cold together end with one
valid file.  The flags carry no ``-march``: the hot entry points are
``target_clones`` (AVX-512, AVX2, baseline), so a cached library never
meets an instruction its host lacks.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

#: The one source file, shipped as package data.
SOURCE = Path(__file__).with_name("kernels.c")

#: Value-safe flags only: no contraction into FMAs, no fast-math, so the
#: vector width never changes a bit.  ``-fno-math-errno`` and
#: ``-fno-trapping-math`` touch ``errno`` and the exception flags, which
#: nothing here reads, and are what lets ``sqrt`` and the NaN-aware
#: selects vectorize.  The two ``ggc`` parameters make the compiler collect
#: its own garbage from 4 MB on instead of from a share of the host's RAM:
#: ``cc1`` peaks at 44 MB instead of 69 (1.4 s either way), which matters
#: to whoever measures the peak RSS of a process tree that builds.
FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-fno-math-errno",
         "-fno-trapping-math", "--param", "ggc-min-expand=10", "--param",
         "ggc-min-heapsize=4096", "-shared", "-fPIC")

#: What ``repro_native_abi()`` of a library this module can drive returns.
ABI = 6

#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT = 120.0

#: ``argtypes`` of every entry point (pointers travel as addresses: the
#: callers validate dtype, shape and contiguity and keep the arrays alive).
_SIGNATURES = {
    "repro_rhs_sweeps": (None, [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_long, ctypes.c_double, ctypes.c_void_p]),
    "repro_gather_conv": (None, [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_long, ctypes.c_void_p]),
    "repro_scatter_aos": (None, [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_void_p, ctypes.c_long]),
    "repro_update_stage": (None, [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
        ctypes.c_double, ctypes.c_double, ctypes.c_double]),
    "repro_max_sos": (ctypes.c_double, [ctypes.c_void_p, ctypes.c_long]),
    "repro_cell_pressure": (None, [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]),
    "repro_lift": (None, [ctypes.c_void_p] + [ctypes.c_long] * 7
                   + [ctypes.c_void_p, ctypes.c_void_p]),
    "repro_decimate": (None, [ctypes.c_void_p] + [ctypes.c_long] * 6
                       + [ctypes.c_double, ctypes.c_void_p]),
    "repro_pack_planes": (ctypes.c_long, [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_void_p,
        ctypes.c_void_p]),
    "repro_unpack_planes": (ctypes.c_long, [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_void_p]),
    "repro_crc32": (ctypes.c_uint32, [
        ctypes.c_uint32, ctypes.c_void_p, ctypes.c_long]),
    "repro_native_abi": (ctypes.c_int, []),
    "repro_native_compiler": (ctypes.c_char_p, []),
}


def find_compiler() -> str | None:
    """Path of the C compiler on ``PATH`` (``gcc``, else ``cc``), or None."""
    return shutil.which("gcc") or shutil.which("cc")


def cache_key(source: Path, compiler: str, flags=FLAGS) -> str:
    """Hex digest naming the library built from ``source`` by ``compiler``
    with ``flags``: changes when any of the three does.  The compiler is
    identified by its resolved path, size and mtime."""
    real = os.path.realpath(compiler)
    st = os.stat(real)
    h = hashlib.sha256()
    h.update(source.read_bytes())
    h.update("\0".join(flags).encode())
    h.update(f"\0{real}\0{st.st_size}\0{st.st_mtime_ns}".encode())
    return h.hexdigest()[:32]


def default_cache_dirs() -> list[Path]:
    """Where a built library may live, in order of preference."""
    return [SOURCE.parent / "__pycache__",
            Path.home() / ".cache" / "repro" / "native"]


def _untrusted(path: Path) -> str | None:
    """Why ``path`` must not be loaded from (or into), or None: it has to
    belong to the current user, and no one else may write it."""
    st = os.stat(path)
    if st.st_uid != os.geteuid():
        return f"{path} is owned by uid {st.st_uid}, not {os.geteuid()}"
    if st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return f"{path} is group- or world-writable"
    return None


def _usable_dir(path: Path) -> str | None:
    """Make sure the cache directory ``path`` exists, is trusted and can be
    written; returns the reason it cannot be used, or None."""
    try:
        if not path.is_dir():
            # 0700 like any per-user cache; parents get the umask's mode.
            path.parent.mkdir(parents=True, exist_ok=True)
            path.mkdir(mode=0o700, exist_ok=True)
        reason = _untrusted(path)
        if reason is None and not os.access(path, os.W_OK | os.X_OK):
            reason = f"{path} is not writable"
        return reason
    except OSError as exc:
        return f"{path}: {exc.strerror or exc}"


def _open_library(path: Path):
    """``ctypes.CDLL`` of ``path`` with every signature declared, or an
    ``OSError`` saying why it is not a library this module can drive."""
    reason = _untrusted(path)
    if reason is not None:
        raise OSError(reason)
    library = ctypes.CDLL(str(path))
    try:
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(library, name)
            fn.restype, fn.argtypes = restype, argtypes
    except AttributeError as exc:
        raise OSError(f"{path}: {exc}") from None
    if library.repro_native_abi() != ABI:
        raise OSError(f"{path}: ABI {library.repro_native_abi()}, not {ABI}")
    return library


def _intact(path: Path) -> bool:
    """Whether the bytes of ``path`` are the ones its name was given for
    (``kernels-<key>-<digest>.so``).  ``dlopen`` maps what the ELF headers
    promise: a truncated file is a bus error, not an ``OSError``."""
    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return False
    return path.stem.rsplit("-", 1)[-1] == digest[:16]


def _build(source: Path, compiler: str, flags, directory: Path, key: str):
    """Compile ``source`` into ``directory`` through a temporary name;
    returns ``(path, None)``, the library named after its own bytes, or
    ``(None, reason)`` with the compiler's first error line."""
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"kernels-{key}.",
                               suffix=".tmp")
    os.close(fd)
    try:
        try:
            with subprocess.Popen(
                [compiler, *flags, "-o", tmp, str(source), "-lm"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            ) as proc:
                try:
                    _, stderr = proc.communicate(timeout=BUILD_TIMEOUT)
                except subprocess.TimeoutExpired as exc:
                    proc.kill()
                    return None, f"{compiler}: {exc}"
        except OSError as exc:
            return None, f"{compiler}: {exc}"
        if proc.returncode != 0:
            lines = stderr.decode(errors="replace").splitlines()
            first = next((ln for ln in lines if "error" in ln),
                         lines[0] if lines else f"exit {proc.returncode}")
            return None, f"build failed: {first.strip()}"
        os.chmod(tmp, 0o755)  # whatever the umask: not group-writable
        digest = hashlib.sha256(Path(tmp).read_bytes()).hexdigest()[:16]
        target = directory / f"kernels-{key}-{digest}.so"
        os.replace(tmp, target)
        return target, None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def build_or_load(source: Path = SOURCE, cache_dirs=None, compiler=None,
                  flags=FLAGS):
    """Find, or build, and load the library of ``source``.

    ``cache_dirs`` defaults to :func:`default_cache_dirs` and ``compiler``
    to :func:`find_compiler`.  Returns ``(library, state)``: ``library`` is
    the ``ctypes.CDLL`` or ``None``; ``state`` is the dict :func:`status`
    reports (``reason`` says why there is no library, or is empty).  Never
    raises for a missing compiler, a failed build, an untrusted directory
    or a file that does not load: those are the fallback.
    """
    state = {"backend": "numpy", "reason": "", "path": None,
             "compiler": compiler, "flags": list(flags), "abi": ABI,
             "entry_points": sorted(_SIGNATURES)}
    if compiler is None:
        compiler = state["compiler"] = find_compiler()
    if compiler is None:
        state["reason"] = "no C compiler (gcc, cc) on PATH"
        return None, state
    try:
        key = cache_key(source, compiler, flags)
    except OSError as exc:
        state["reason"] = f"{exc.filename}: {exc.strerror}"
        return None, state
    reasons = []
    for directory in map(Path, default_cache_dirs() if cache_dirs is None
                         else cache_dirs):
        reason = _usable_dir(directory)
        if reason is not None:
            reasons.append(reason)
            continue
        library = path = None
        for path in sorted(directory.glob(f"kernels-{key}-*.so")):
            if not _intact(path):
                # truncated or garbage: out of the way, and built again
                reasons.append(f"{path} is damaged")
                path.unlink(missing_ok=True)
                continue
            try:
                library = _open_library(path)
                break
            except OSError as exc:
                reasons.append(str(exc))
        if library is None:
            path, reason = _build(source, compiler, flags, directory, key)
            if path is not None:
                try:
                    library = _open_library(path)
                except OSError as exc:
                    reason = str(exc)
            if library is None:
                # not this directory's fault: no other one will help
                state["reason"] = reason
                return None, state
        state.update(
            backend="c", path=str(path), reason="",
            compiler=f"{compiler} ({library.repro_native_compiler().decode()})",
        )
        return library, state
    state["reason"] = "; ".join(reasons) or "no cache directory"
    return None, state


def addressable(array, dtype, writeable: bool = False) -> bool:
    """Whether ``array`` can be handed to the library by address: a
    C-contiguous array of ``dtype`` (writeable, for a destination).
    Shapes are the caller's to check."""
    return (array.dtype == dtype and array.flags.c_contiguous
            and (array.flags.writeable or not writeable))


def address(view: memoryview) -> int:
    """Where the first byte of ``view`` lies (int): a C-contiguous
    memoryview that is not empty, read-only ones through NumPy, which
    takes any buffer.  The caller keeps ``view`` alive for the call."""
    if not view.readonly:
        return ctypes.addressof(ctypes.c_char.from_buffer(view))
    import numpy as np

    return np.frombuffer(view, np.uint8).ctypes.data


_lock = threading.Lock()
_state: dict | None = None


def ensure_loaded():
    """The library (or ``None``), built or loaded on the first call.

    What reading :data:`lib` does; call it where a build should happen
    *now* -- before a parent spawns ranks or workers that would otherwise
    each start cold.
    """
    global _state
    with _lock:
        if "lib" not in globals():
            library, _state = build_or_load()
            globals()["lib"] = library
    return globals()["lib"]


def __getattr__(name: str):
    if name == "lib":
        return ensure_loaded()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def status() -> dict:
    """Which path kernels take in this process, and why.

    ``{"backend": "c" | "numpy", "reason", "path", "compiler", "flags",
    "abi", "entry_points"}`` -- the last two what this module drives, on
    either backend.
    Does not load or build: before the first kernel use it reports
    ``numpy`` with the reason that nothing has asked yet.  ``backend``
    follows the current value of :data:`lib`.
    """
    if "lib" not in globals() or _state is None:
        return {"backend": "numpy", "reason": "not loaded: no kernel has run",
                "path": None, "compiler": None, "flags": list(FLAGS),
                "abi": ABI, "entry_points": sorted(_SIGNATURES)}
    out = dict(_state)
    if globals()["lib"] is None and out["backend"] == "c":
        out.update(backend="numpy", reason="lib was set to None")
    return out
