"""Machine-readable kernel manifest emitted by the perf analyzer.

``kernel_manifest.json`` is the analyzer's record of the declared
hot-path kernels: one entry per kernel with its signature (read off the
source), dtype contract, helper closure, the entry points of the compiled
library its closure calls (``lib.repro_*``: the kernels with a door to
:mod:`repro.native`), and its statically counted arithmetic intensity
next to the shared roofline-model value.  CI regenerates it on every run
so drift between code and declaration is visible in review.

Schema (``repro.kernel_manifest/v2``)::

    {
      "schema": "repro.kernel_manifest/v2",
      "checks_run": <int>,
      "findings_total": <int>,
      "kernels": [
        {
          "name": ..., "module": ..., "signature": ...,
          "dtype_contract": ...,
          "native_entry_points": [...],
          "closure": [...],
          "arithmetic": {
            "counted_flops_per_point": <float>,
            "counted_bytes_per_point": <float>,
            "counted_intensity": <float|null>,
            "modeled_intensity": <float|null>,
            "model_key": <str|null>
          },
          "findings": <int>
        }, ...
      ]
    }
"""

from __future__ import annotations

import ast
import json
import os
from pathlib import Path

from ..lint import Violation
from .model import modeled_arithmetic
from .program import KernelInfo, PerfProgram
from .report import PerfReport

#: Manifest schema identifier.
MANIFEST_SCHEMA = "repro.kernel_manifest/v2"

#: Prefix of the entry points of ``native/kernels.c``.
_NATIVE_PREFIX = "repro_"


def _signature(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    """Source-level signature string of a kernel function."""
    args = fn.args
    parts: list[str] = []
    pos = list(args.posonlyargs) + list(args.args)
    defaults: list[ast.expr | None] = [None] * (len(pos) - len(args.defaults))
    defaults += list(args.defaults)
    for arg, default in zip(pos, defaults):
        text = arg.arg
        if default is not None:
            text += f"={ast.unparse(default)}"
        parts.append(text)
    if args.vararg is not None:
        parts.append(f"*{args.vararg.arg}")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        text = arg.arg
        if default is not None:
            text += f"={ast.unparse(default)}"
        parts.append(text)
    if args.kwarg is not None:
        parts.append(f"**{args.kwarg.arg}")
    return f"{fn.name}({', '.join(parts)})"


def _closure_findings(
    info: KernelInfo, program: PerfProgram, report: PerfReport
) -> list[Violation]:
    """Report findings that land inside the kernel's call closure."""
    spans: list[tuple[str, int, int]] = []
    for name in info.closure:
        entry = program.functions.get(name)
        if entry is None:
            continue
        end = getattr(entry.fn, "end_lineno", entry.fn.lineno)
        spans.append((entry.path, entry.fn.lineno, end or entry.fn.lineno))
    out = []
    for v in report.violations:
        for path, lo, hi in spans:
            if v.path == path and lo <= v.line <= hi:
                out.append(v)
                break
    return out


def native_entry_points(info: KernelInfo, program: PerfProgram) -> list[str]:
    """Entry points of the compiled library the kernel's closure calls
    (``<anything>.repro_*(...)``), sorted; empty for a NumPy-only kernel."""
    found: set[str] = set()
    for name in info.closure:
        entry = program.functions.get(name)
        if entry is None:
            continue
        for node in ast.walk(entry.fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr.startswith(_NATIVE_PREFIX)):
                found.add(node.func.attr)
    return sorted(found)


def build_kernel_manifest(
    program: PerfProgram, report: PerfReport
) -> dict:
    """Build the manifest payload from an analyzed program + report."""
    kernels = []
    for info in sorted(program.kernels, key=lambda k: k.spec.name):
        findings = _closure_findings(info, program, report)
        model = modeled_arithmetic(info.spec)
        kernels.append({
            "name": info.spec.name,
            "module": info.spec.module,
            "signature": _signature(info.entry.fn),
            "dtype_contract": info.spec.dtype_contract,
            "native_entry_points": native_entry_points(info, program),
            "closure": sorted(info.closure),
            "arithmetic": {
                "counted_flops_per_point": round(info.counted_flops, 1),
                "counted_bytes_per_point": round(info.counted_bytes, 1),
                "counted_intensity": (
                    round(info.counted_intensity, 4)
                    if info.counted_bytes > 0 else None
                ),
                "modeled_intensity": (
                    round(model.intensity, 4) if model is not None else None
                ),
                "model_key": info.spec.model_key,
            },
            "findings": len(findings),
        })
    return {
        "schema": MANIFEST_SCHEMA,
        "checks_run": report.checks_run,
        "findings_total": len(report.violations),
        "kernels": kernels,
    }


def write_kernel_manifest(
    program: PerfProgram, report: PerfReport, path: str | Path
) -> dict:
    """Write ``kernel_manifest.json`` atomically; returns the payload.

    The manifest gates CI (drift check), so a crash mid-write must
    never leave a torn file: write to a sibling tmp, fsync, then
    ``os.replace`` into place.
    """
    payload = build_kernel_manifest(program, report)
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
    return payload
