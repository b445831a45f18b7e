"""Step-level flight recorder: an incremental JSONL stream of the run.

The paper's performance story is built on *step-resolved* measurement:
the per-phase time distributions of Fig. 7 and the load-imbalance study
of Table 4 are distributions over steps and ranks, not run totals.  The
existing :class:`~repro.telemetry.MetricsSnapshot` is a post-mortem
aggregate; the flight recorder (schema :data:`FLIGHT_SCHEMA`) is the
time series it collapses -- one JSON record per ``(step, rank)`` with

* ``dt`` and the *per-step* phase wall-time deltas (``DT`` / ``RHS`` /
  ``COMM_WAIT`` / ``UP`` / ``IO_WAVELET`` ...),
* the instantaneous throughput in Gcells/s,
* sanitizer and resilience event counts observed during the step,
* conservation-drift deltas (relative mass/energy change vs the initial
  state -- the quantity the V&V suite bounds),
* the node-level dispatcher schedule summary (per-worker busy
  imbalance, paper Table 4's metric).

Every rank, thread or process, writes its own part file
(``<path>.rank<NNNN>``, each with its own header), buffered and flushed
every :data:`FLUSH_EVERY` records (and on close), so a tailing consumer
sees the run *live* while the per-step cost stays at a dict build and an
occasional write -- the < 5 % overhead budget vs ``telemetry="metrics"``.
Once the world has finished, :func:`merge_flight_parts` merges the parts
into the final stream at ``path``: one header, step records ordered by
``(step, rank)`` -- the same file on either cluster backend.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Iterator

#: Schema identifier stamped on the header record of every flight file.
FLIGHT_SCHEMA = "repro.flight/v1"

#: Buffered records between flushes of a part file.
FLUSH_EVERY = 32


class FlightRecorder:
    """One rank's writer of its part of a flight recording.

    Parameters
    ----------
    path:
        Flight file (JSONL) the parts merge into; this rank writes
        ``part_path(path, rank)``, truncating it and writing the header
        record first.
    rank:
        Owning rank, stamped on every record this handle writes.
    meta:
        Run metadata merged into the header record (ranks, cells,
        ``max_steps``, telemetry mode, ...).  The merged file keeps the
        lowest rank's header.
    """

    def __init__(self, path: str, rank: int = 0, meta: dict | None = None):
        self.path = str(path)
        self.rank = int(rank)
        self.records = 0  #: step records written by this handle
        self._buffer: list[str] = []
        self._file = open(part_path(self.path, self.rank), "w",
                          encoding="utf-8")
        self._write({"kind": "header", "schema": FLIGHT_SCHEMA,
                     **(meta or {})})

    def _write(self, record: dict) -> None:
        self._buffer.append(json.dumps(record, sort_keys=True))
        if len(self._buffer) >= FLUSH_EVERY:
            self.flush()

    def record(self, step: int, **fields) -> None:
        """Append one ``(step, rank)`` record to the stream.

        ``fields`` carry the step payload (``dt``, ``phases``,
        ``gcells_per_s``, ``drift``, ...); ``kind``/``step``/``rank``
        are stamped here.
        """
        if self._file.closed:
            raise ValueError(f"flight recorder for {self.path} is closed")
        self._write({"kind": "step", "step": int(step), "rank": self.rank,
                     **fields})
        self.records += 1

    def flush(self) -> None:
        """Force buffered records to disk."""
        if self._buffer:
            self._file.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._file.flush()

    def close(self) -> None:
        """Flush and close the part file (idempotent).

        Crashing ranks must close in a ``finally`` so chaos runs never
        leak buffered records.
        """
        if not self._file.closed:
            self.flush()
            self._file.close()


def part_path(path: str, rank: int) -> str:
    """The part file rank ``rank`` writes of ``path`` (str)."""
    return f"{path}.rank{rank:04d}"


def merge_flight_parts(path: str) -> int:
    """Merge ``<path>.rank*`` part files into one flight file at ``path``.

    Produces a single header record (taken from the lowest-ranked part)
    followed by every step record ordered by ``(step, rank)``.  Part files are deleted on
    success.  Missing or empty parts are tolerated -- a crashed rank's
    flushed prefix still merges, so chaos runs keep a usable stream.
    Returns the number of step records merged; with no parts present
    the target file is left untouched and 0 is returned.
    """
    parts = sorted(glob.glob(f"{path}.rank*"))
    if not parts:
        return 0
    header: dict | None = None
    steps: list[dict] = []
    for part in parts:
        for rec in iter_flight(part):
            if rec.get("kind") == "header":
                if header is None:
                    header = rec
            else:
                steps.append(rec)
    steps.sort(key=lambda r: (r.get("step", 0), r.get("rank", 0)))
    if header is None:
        header = {"kind": "header", "schema": FLIGHT_SCHEMA}
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in steps:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    for part in parts:
        os.remove(part)
    return len(steps)


def iter_flight(path: str) -> Iterator[dict]:
    """Yield the parsed records of a flight file in file order.

    Yields dicts (the header first, ``kind="step"`` records after);
    blank lines are skipped so partially flushed files read cleanly.
    """
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_flight(path: str) -> tuple[dict, list[dict]]:
    """Load a flight file; returns ``(header, step_records)``.

    Raises :class:`ValueError` when the file carries no
    :data:`FLIGHT_SCHEMA` header (not a flight recording).
    """
    header: dict | None = None
    steps: list[dict] = []
    for rec in iter_flight(path):
        if rec.get("kind") == "header":
            if rec.get("schema") != FLIGHT_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported flight schema "
                    f"{rec.get('schema')!r} (expected {FLIGHT_SCHEMA})"
                )
            header = rec
        elif rec.get("kind") == "step":
            steps.append(rec)
    if header is None:
        raise ValueError(f"{path}: no {FLIGHT_SCHEMA} header record")
    return header, steps
