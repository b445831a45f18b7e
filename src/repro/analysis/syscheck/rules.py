"""RS-series rules: resource lifecycle, locks and durable writes.

Each rule consumes the facts of a :class:`~repro.analysis.syscheck.
program.SysProgram` and emits :class:`~repro.analysis.report.Violation`
records with the ast's 0-based column.  Findings honour the shared
``# lint: disable=RSxxx`` pragma system; the rule catalogue lives in
``docs/analysis.md``.
"""

from __future__ import annotations

from ..program import Program, Rule, register_rule, registered_rules
from ..report import Report, Violation
from .model import DURABLE_WRITER_PATHS, EAGER_KINDS, SYS_SCOPE
from .program import FuncInfo, SysProgram, _blocking_reason


def _scoped(rule: Rule, program: SysProgram) -> list[FuncInfo]:
    """The functions of ``program`` in the rule's scope."""
    return [i for i in program.infos() if rule.applies(i.path)]


@register_rule
class ReleaseOnAllPaths(Rule):
    """RS001: a resource handle must be released on every path."""

    family = "sys"
    rule_id = "RS001"
    name = "release-on-all-paths"
    description = (
        "SharedMemory/file/Process/Thread handles must be closed, "
        "unlinked or joined on every control-flow path (with, "
        "try/finally, or unconditional straight-line release)."
    )
    paths = SYS_SCOPE
    col_base = 0

    def check(self, program: SysProgram) -> list[Violation]:
        out: list[Violation] = []
        for info in _scoped(self, program):
            for acq in info.acquisitions:
                out.extend(self._check_acq(program, info, acq))
        return out

    def _check_acq(self, program, info, acq) -> list[Violation]:
        out = []
        what = (f"the {acq.kind} from {acq.from_helper}()"
                if acq.from_helper else f"this {acq.kind}")
        if acq.discarded:
            origin = (f"{acq.from_helper}() returns a live {acq.kind}"
                      if acq.from_helper
                      else f"a {acq.kind} handle is created")
            out.append(self.violation(
                info.path, acq.call,
                f"{origin} and discarded at the call site: the handle "
                f"can never be released -- bind it and release on every "
                f"path",
            ))
            return out
        if acq.bulk and not acq.bulk_guarded:
            out.append(self.violation(
                info.path, acq.call,
                f"bulk {acq.kind} acquisition in a loop is not "
                f"exception-safe: a mid-loop failure leaks every handle "
                f"acquired so far -- wrap the loop in try/except and "
                f"release the partial set",
            ))
        if acq.escaped:
            return out  # ownership transferred (stored/returned/passed)
        if acq.kind in ("process", "thread") and not acq.started:
            return out  # no OS state before .start()
        if not acq.releases:
            out.append(self.violation(
                info.path, acq.call,
                f"{what} acquired here is never released in "
                f"{info.qualname}() on any path",
            ))
            return out
        if any(r.covered_by_finally for r in acq.releases):
            return out
        # Method calls on a process/thread handle (h.start()) raising
        # mean no OS state exists yet: not a leak window.
        excl = acq.var if acq.kind not in EAGER_KINDS else None
        fin = next((r for r in acq.releases if r.finally_after_acq), None)
        if fin is not None:
            lo = getattr(acq.stmt, "end_lineno", acq.stmt.lineno)
            if program.risky_between(info, lo, fin.guard_try.lineno,
                                     exclude_receiver=excl):
                out.append(self.violation(
                    info.path, acq.call,
                    f"{what} is acquired before the try/finally that "
                    f"releases it (line {fin.guard_try.lineno}): an "
                    f"exception in between leaks the handle -- acquire "
                    f"inside the try block",
                ))
            return out
        unconditional = [r for r in acq.releases if not r.conditional]
        if not unconditional:
            out.append(self.violation(
                info.path, acq.call,
                f"{what} is released only on some paths (line(s) "
                f"{', '.join(str(r.line) for r in acq.releases)}): "
                f"branches that skip the release leak the handle",
            ))
            return out
        first = min(unconditional, key=lambda r: r.line)
        lo = getattr(acq.stmt, "end_lineno", acq.stmt.lineno)
        if program.risky_between(info, lo, first.line,
                                 exclude_receiver=excl):
            out.append(self.violation(
                info.path, acq.call,
                f"{what} is released at line {first.line} but a call "
                f"in between can raise and leak the handle -- use "
                f"try/finally or a with block",
            ))
        return out


@register_rule
class LockAcrossBlocking(Rule):
    """RS003: no blocking call while holding a lock."""

    family = "sys"
    rule_id = "RS003"
    name = "lock-across-blocking"
    description = (
        "A lock held across join/recv/sleep/queue-get/file IO "
        "serializes every other thread behind one slow operation "
        "(and deadlocks if the blocked peer needs the same lock). "
        "Waiting on the held condition itself is exempt."
    )
    paths = SYS_SCOPE
    col_base = 0

    def check(self, program: SysProgram) -> list[Violation]:
        out: list[Violation] = []
        for info in _scoped(self, program):
            for lc in info.locked_calls:
                held = ", ".join(sorted(lc.held))
                reason = _blocking_reason(lc.call, lc.held)
                if reason is not None:
                    out.append(self.violation(
                        info.path, lc.call,
                        f"blocking call under lock ({held}): {reason} "
                        f"-- move it outside the locked region",
                    ))
                    continue
                target = program.resolve(lc.call, info)
                if target is None:
                    continue
                bearing = program.bearing_reason(target)
                if bearing is not None:
                    out.append(self.violation(
                        info.path, lc.call,
                        f"{target.qualname}() blocks while {held} is "
                        f"held: {bearing} -- move the call outside the "
                        f"locked region",
                    ))
        return out


@register_rule
class AtomicDurableWrite(Rule):
    """RS006: checkpoint/cache/manifest writers must be atomic."""

    family = "sys"
    rule_id = "RS006"
    name = "atomic-durable-write"
    description = (
        "Durable state (checkpoints, result cache, kernel manifest, "
        "baselines) must be written tmp + fsync + os.replace so a "
        "crash mid-write can never leave a torn file behind."
    )
    paths = DURABLE_WRITER_PATHS
    col_base = 0

    def check(self, program: SysProgram) -> list[Violation]:
        out: list[Violation] = []
        for info in _scoped(self, program):
            for call in info.write_opens:
                if not info.calls_replace:
                    out.append(self.violation(
                        info.path, call,
                        f"non-atomic durable write in {info.qualname}(): "
                        f"open(..., 'w') without os.replace -- write a "
                        f"tmp file, fsync, then os.replace over the "
                        f"final path",
                    ))
                elif not info.calls_fsync:
                    out.append(self.violation(
                        info.path, call,
                        f"durable write in {info.qualname}() renames "
                        f"without os.fsync: the data can vanish on "
                        f"power loss after the rename is visible",
                    ))
            for call in info.path_writes:
                out.append(self.violation(
                    info.path, call,
                    f"Path.write_text/write_bytes in {info.qualname}() "
                    f"is non-atomic: a crash mid-write leaves a torn "
                    f"file -- write tmp + fsync + os.replace",
                ))
        return out


# -- entry points -------------------------------------------------------


def analyze(program: Program) -> tuple[SysProgram, Report]:
    """sys-check ``program``; returns ``(facts, report)``.

    ``checks_run`` counts (function, rule) pairs over the functions any
    rule's scope covers.
    """
    facts = SysProgram(program)
    rules = [cls() for cls in registered_rules("sys")]
    sites = [i for i in facts.infos()
             if any(r.applies(i.path) for r in rules)]
    found = program.unsuppressed(v for rule in rules
                                 for v in rule.check(facts))
    return facts, Report("sys", sorted(found), len(sites) * len(rules))


def check_sources(sources: dict[str, str]) -> Report:
    """Analyze in-memory sources (``{path: text}``)."""
    return analyze(Program(sources))[1]
