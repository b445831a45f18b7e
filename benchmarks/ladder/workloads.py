"""The five workloads: untraced end-to-end runs and traced per-layer runs.

Each ``run_*`` builds its inputs from the seed, measures, checks its
outputs and returns an :class:`Outcome`.  Untraced runs produce every
end-to-end metric (definitions per workload in README.md), the timings
at reference host speed (``layers.HostSpeed``); traced runs
produce the per-layer metrics of the layers the workload enters and
leave the rest at 0.  A sample is always the same fixed piece of work;
``--seconds`` only decides how many samples are taken.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import catalog
import inputs
import layers
import steploop


@dataclass
class Checks:
    """Operations attempted and operations that failed a check."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ops(self, n: int) -> None:
        self.attempted += n

    def require(self, ok: bool, what: str, ops: int = 1) -> None:
        if not ok:
            self.failed += ops
            self.failures.append(what)


@dataclass
class Budget:
    """How much to measure: derived from ``--seconds`` and ``--smoke``."""

    seconds: float
    smoke: bool = False
    #: Count a closure gate above its ceiling as a failed check.  The
    #: gates hold timings, not outputs, and one traced run on a shared
    #: host can exceed them on noise alone: ladder mode enforces them,
    #: a single ``--workload`` run (the driver's) only reports them.
    gates: bool = False

    @property
    def setups(self) -> int:
        """Repeats of an expensive set-up (process spawn)."""
        return 1 if self.smoke else 3

    @property
    def min_samples(self) -> int:
        return 1 if self.smoke else 2

    @property
    def pairs(self) -> int:
        """Untraced/traced run pairs behind ``trace_overhead_frac``."""
        return 1 if self.smoke else 2

    @property
    def slice_s(self) -> float:
        """Time slice of one per-layer rung (0: a single round)."""
        return 0.0 if self.smoke else self.seconds / 40.0

    def steps(self, full: int) -> int:
        """Steps of one sample: ``full``, a quarter of it under smoke."""
        return max(1, full // 4) if self.smoke else full


@dataclass
class Outcome:
    metrics: dict[str, float]
    #: workload-native numbers for the human table: name -> (value, unit)
    extras: dict[str, tuple[float, str]]
    checks: Checks
    #: exact per-run counts (steps, requests, ...) for the provenance block
    counts: dict[str, int]
    #: closure gates found above their ceiling (enforced or not)
    gates_exceeded: list[str] = field(default_factory=list)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


#: Share of a run's measuring time spent reading the host's speed.
HOST_WATCH_SHARE = 0.1


def sample_until(fn, seconds: float, min_n: int,
                 host: layers.HostSpeed | None = None) -> list:
    """Call ``fn`` at least ``min_n`` times, then for as long as one more
    call of the mean length so far still ends within ``seconds``.  With
    ``host``, its speed is read after every call, so that the readings
    cover the same stretch of time as the samples (without, ``fn`` takes
    its own readings)."""
    out = []
    t0 = time.perf_counter()
    while True:
        t_call = time.perf_counter()
        out.append(fn())
        if host is not None:
            host.watch(HOST_WATCH_SHARE * (time.perf_counter() - t_call))
        elapsed = time.perf_counter() - t0
        if len(out) >= min_n and elapsed * (1 + 1 / len(out)) > seconds:
            return out


def end_to_end(host: layers.HostSpeed, raw: dict[str, float],
               factors: dict[str, float] | None = None):
    """``(metrics, extras)``: the timing metrics at reference host speed
    (times divided by their host factor, the rate multiplied) and, for
    the human table, the raw readings and the factors.  ``raw`` is keyed
    by metric name; without ``factors`` every metric takes the factor of
    the whole run."""
    if factors is None:
        factors = dict.fromkeys(raw, host.factor())
    metrics, extras = {}, {"host_readings": (len(host.readings), "count")}
    for kernel in host.REFERENCE_S:
        extras[f"host_{kernel}"] = (statistics.median(
            r[kernel] for r in host.readings), "ratio")
        if host.paired_readings:
            extras[f"host_paired_{kernel}"] = (statistics.median(
                r[kernel] for r in host.paired_readings), "ratio")
    for name, unit, better, _ in catalog.END_TO_END:
        if name in raw:
            faster = factors[name] if better == "higher" else 1 / factors[name]
            metrics[name] = raw[name] * faster
            extras[f"{name}_raw"] = (raw[name], unit)
            extras[f"{name}_host_factor"] = (factors[name], "ratio")
    return metrics, extras


def field_ok(fld: np.ndarray) -> bool:
    """Finite everywhere, with positive density and Gamma."""
    from repro.physics import GAMMA, RHO

    return bool(np.isfinite(fld).all() and (fld[..., RHO] > 0).all()
                and (fld[..., GAMMA] > 0).all())


#: Time units of the catalog and their scale from seconds.
TIME_UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}


def idle_layers() -> dict[str, float]:
    """Every per-layer metric as a workload that enters no layer reads it.

    Counts, shares and rates read 0.  A time reads what the rung timer
    measures when there is nothing to measure -- its own floor, the
    median of a few timed no-ops (~0.1 us) -- because the driver takes a
    time that repeats exactly on every run for a constant, not a
    measurement.  Runners overwrite the layers they do enter.
    """
    out = {}
    for name, unit, _ in catalog.PER_LAYER:
        scale = TIME_UNITS.get(unit)
        out[name] = (0.0 if scale is None else
                     scale * layers.median_seconds(lambda: None, 1e-4))
    return out


# -- step workloads ------------------------------------------------------------

#: Steps of one timed sample.  A cloud64_b32 step is ~2.5 s, so one step
#: is one sample there; a 2-rank procs sample pays ~0.9 s of spawn twice
#: (the zero-step run and the run itself), so it is made long enough for
#: the stepping to outweigh that.
SAMPLE_STEPS = {"cloud64_b32": 1, "cloud32_b8": 3, "halo2_b8": 40}
#: Steps of the 1-rank baseline sample of halo2_b8 (~105 ms each).
HALO_BASELINE_STEPS = 10
#: Steps of the cross-backend identity check that includes 2-rank sim
#: (3-4x slower per step than 1 rank: GIL convoy), kept short.
HALO_CHECK_STEPS = 5


def run_sim(name: str, seed: int, steps: int, ranks: int = 1,
            backend: str = "sim"):
    """``(wall, RunResult)`` of one untraced ``Simulation.run()``."""
    from repro.cluster import Simulation

    config, ic = inputs.step_case(name, seed, steps, ranks, backend)
    return timed(Simulation(config, ic).run)


def run_pair(name, seed, steps, checks, reference, host, ranks=1,
             backend="sim"):
    """One zero-step run and one ``steps``-step run taken back to back,
    the host's speed read after each for a tenth of its wall.

    Returns ``(setup wall, wall per step, non-RHS ms per step, messages
    per rank per step)``.  The zero-step run is the set-up a user pays
    (launch the world, fill the initial condition, collect the field,
    tear down); taking it next to the run it is subtracted from keeps a
    host that drifts between fast and slow spells from leaking into the
    difference.  ``reference`` holds the first final field seen for each
    step count; every later one must equal it bit for bit (and is then
    dropped, so memory does not grow with the number of samples).
    """
    setup_s, _ = run_sim(name, seed, 0, ranks, backend)
    host.watch(HOST_WATCH_SHARE * setup_s)
    wall, result = run_sim(name, seed, steps, ranks, backend)
    host.watch(HOST_WATCH_SHARE * wall)
    reference.setdefault(steps, result.final_field)
    checks.ops(steps)
    checks.require(
        len(result.records) == steps and field_ok(result.final_field)
        and np.array_equal(result.final_field, reference[steps]),
        f"{name}: {ranks}-rank {backend} run incomplete, not finite and "
        "positive, or different from the first run", steps)
    # Per step, the phase-timer time outside RHS (DT + UP + COMM_WAIT).
    rest, prev = [], {}
    for rec in result.records:
        rest.append(1e3 * sum(v - prev.get(k, 0.0)
                              for k, v in rec.timers.items() if k != "RHS"))
        prev = rec.timers
    msgs = max(rr.messages_sent for rr in result.rank_results) // steps
    return setup_s, (wall - setup_s) / steps, rest, msgs


def run_cloud(name: str, seed: int, budget: Budget, workdir: str) -> Outcome:
    checks, reference = Checks(), {}
    host = layers.HostSpeed(workdir)
    steps = budget.steps(SAMPLE_STEPS[name])
    cells = int(np.prod(inputs.step_case(name, seed, 0)[0].cells))
    pairs = sample_until(
        lambda: run_pair(name, seed, steps, checks, reference, host),
        budget.seconds, budget.min_samples)
    step_s = statistics.median(p[1] for p in pairs)
    metrics, extras = end_to_end(host, {
        "mcells_per_s": cells / step_s / 1e6,
        "second_path_ms": statistics.median(ms for p in pairs for ms in p[2]),
        "setup_s": statistics.median(p[0] for p in pairs)})
    return Outcome(
        metrics=metrics,
        extras={**extras, "step_ms": (step_s * 1e3, "ms"),
                "samples": (len(pairs), "count")},
        checks=checks,
        counts={"steps_per_sample": steps, "samples": len(pairs)},
    )


def run_halo(name: str, seed: int, budget: Budget, workdir: str) -> Outcome:
    checks, reference = Checks(), {}
    steps = budget.steps(SAMPLE_STEPS[name])
    base_steps = budget.steps(HALO_BASELINE_STEPS)
    short = budget.steps(HALO_CHECK_STEPS)
    cells = int(np.prod(inputs.step_case(name, seed, 0)[0].cells))

    def identity():
        # 2-rank sim is per-layer only (its step time varies +-15 %); here
        # it is run just long enough to hold all three ways of running
        # the problem to bit-identity.
        one, sim2, procs2 = (
            run_sim(name, seed, short, ranks, backend)[1].final_field
            for ranks, backend in ((1, "sim"), (2, "sim"), (2, "procs")))
        checks.ops(3 * short)
        checks.require(
            field_ok(one) and np.array_equal(one, sim2)
            and np.array_equal(one, procs2),
            "halo2_b8: 1 rank, 2-rank sim and 2-rank procs differ", 3 * short)

    def cycle():
        # The 2-rank procs run and its 1-rank baseline side by side, so
        # their ratio (strong_eff) sees the same host conditions.
        return (run_pair(name, seed, steps, checks, reference, host, 2,
                         "procs"),
                run_pair(name, seed, base_steps, checks, reference, host))

    identity_s, _ = timed(identity)
    # Two ranks need both cores at once, and the host takes one away for
    # spells that a reading of one process does not see: the 2-rank
    # timings are held against paired readings, the 1-rank step against
    # single ones.
    host = layers.HostSpeed(workdir, paired=True)
    try:
        cycles = sample_until(cycle, budget.seconds - identity_s,
                              budget.min_samples)
    finally:
        host.close()
    step_procs = statistics.median(procs[1] for procs, _ in cycles)
    step_one = statistics.median(one[1] for _, one in cycles)
    metrics, extras = end_to_end(
        host,
        {"mcells_per_s": cells / step_procs / 1e6,
         "second_path_ms": step_one * 1e3,
         "setup_s": statistics.median(procs[0] for procs, _ in cycles)},
        {"mcells_per_s": host.paired_factor(),
         "second_path_ms": host.factor(),
         "setup_s": host.paired_factor()})
    return Outcome(
        metrics=metrics,
        extras={**extras,
                "strong_eff": (step_one / (2 * step_procs), "ratio"),
                "procs2_step_ms": (step_procs * 1e3, "ms"),
                "rank1_step_ms": (step_one * 1e3, "ms"),
                "msgs_per_rank_step": (cycles[0][0][3], "count"),
                "samples": (len(cycles), "count")},
        checks=checks,
        counts={"procs_steps_per_sample": steps,
                "rank1_steps_per_sample": base_steps, "samples": len(cycles)},
    )


#: Traced variants ``(label, ranks, backend, steps)``; the last one is the
#: end-to-end path and owns the ``step.*`` budget.
TRACED_VARIANTS = {
    "cloud64_b32": (("sim1", 1, "sim", 2),),
    "cloud32_b8": (("sim1", 1, "sim", 6),),
    "halo2_b8": (("sim1", 1, "sim", 10), ("sim2", 2, "sim", 6),
                 ("procs2", 2, "procs", 20)),
}
#: Most untraced/traced pairs the gated variant takes (10 s a pair at most).
MAX_PAIRS = 6


def closure_gates(name: str, metrics: dict, smoke: bool) -> list[str]:
    """The budget-closure gates found above their ceiling, one line each.

    A smoke run is one pair of one or two steps: its overhead is noise,
    and like the bounds that ceiling is not applied to it.
    """
    gates = [("step.unattributed_frac", catalog.UNATTRIBUTED_CEILING)]
    if not smoke:
        gates.append(("trace_overhead_frac", catalog.TRACE_OVERHEAD_CEILING))
    return [f"{name}: {gate} {metrics[gate]:.4f} above its ceiling {ceiling}"
            for gate, ceiling in gates if metrics[gate] > ceiling]


def run_traced_step(name: str, seed: int, budget: Budget,
                    workdir: str) -> Outcome:
    """Per-layer run of a step workload: rungs, traced loops, budget."""
    checks = Checks()
    metrics = idle_layers()
    config, ic = inputs.step_case(name, seed, 0)
    metrics.update(layers.solver_rungs(config, ic, budget.slice_s))
    metrics.update(layers.host_calibration(workdir))

    trace_runs, step_ms = [], {}
    variants = TRACED_VARIANTS[name]
    for variant in variants:
        label, ranks, backend, steps = variant
        steps = budget.steps(steps)
        config, ic = inputs.step_case(name, seed, steps, ranks, backend)
        gated = (variant == variants[-1] and budget.gates
                 and not budget.smoke)
        overheads = []
        # A pair on a busy shared host reads +-20 % (2-rank procs most);
        # where the overhead gate is enforced, the variant that owns it
        # takes more pairs, up to MAX_PAIRS, until one of them is within
        # the ceiling.
        while len(overheads) < budget.pairs or (
                gated and len(overheads) < MAX_PAIRS
                and min(overheads) > catalog.TRACE_OVERHEAD_CEILING):
            pair = len(overheads)
            # Alternate which side runs first so drift cancels.
            if pair % 2 == 0:
                wall, plain = run_sim(name, seed, steps, ranks, backend)
                traced = steploop.run_traced(config, ic)
            else:
                traced = steploop.run_traced(config, ic)
                wall, plain = run_sim(name, seed, steps, ranks, backend)
            overheads.append(traced["wall"] / wall - 1.0)
            checks.ops(2 * steps)
            checks.require(
                field_ok(traced["field"])
                and np.array_equal(traced["field"], plain.final_field),
                f"{name}/{label}: traced loop != Simulation.run()", 2 * steps)
            trace_runs.append((f"{name}/{label}/{pair}", traced["ranks"]))
        rows = [rr["spans"] for rr in traced["ranks"]]
        cluster = steploop.cluster_metrics(rows)
        step_ms[label] = cluster["step_ms"]
        if ranks == 2 or len(variants) == 1:
            for key, value in cluster.items():
                metrics[f"cluster.{backend}.{key}"] = value
            world = steploop.make_world(ranks, backend)
            metrics[f"cluster.{backend}.launch_s"] = statistics.median(
                timed(lambda: world.run(steploop.noop_rank_main))[0]
                for _ in range(budget.setups))
        if variant != variants[-1]:
            continue
        # The last variant is the end-to-end path: it owns the exact
        # counts, the step budget and the overhead gate.
        metrics["cluster.msgs_per_step"] = max(
            rr["messages"] for rr in traced["ranks"]) // steps
        metrics["cluster.bytes_per_step"] = max(
            rr["bytes"] for rr in traced["ranks"]) // steps
        for phase, share in steploop.step_budget(rows).items():
            metrics[f"step.{phase}_frac"] = share
        all_steps = [d for r in rows for d in steploop.durations(r, "step")]
        metrics["step.median_ms"] = statistics.median(all_steps) * 1e3
        metrics["step.p90_ms"] = steploop.percentile(all_steps, 0.9) * 1e3
        # The best pair bounds the overhead from above: host noise only
        # ever inflates one side of a pair, a real overhead shows in all.
        metrics["trace_overhead_frac"] = min(overheads)
        pairs_taken = len(overheads)
    if "procs2" in step_ms:
        metrics["cluster.strong_eff"] = (
            step_ms["sim1"] / (2 * step_ms["procs2"]))
    exceeded = closure_gates(name, metrics, budget.smoke)
    if budget.gates:
        for what in exceeded:
            checks.require(False, what)
    spans = steploop.write_chrome_trace(os.path.join(workdir, "trace.json"),
                                        trace_runs)
    return Outcome(metrics=metrics,
                   extras={"trace_spans": (spans, "count"),
                           "overhead_pairs": (pairs_taken, "count")},
                   checks=checks,
                   counts={"traced_runs": len(trace_runs)},
                   gates_exceeded=exceeded)


# -- dump128 -------------------------------------------------------------------

class DumpCycle:
    """Compress+write and read+decompress of both dumped quantities."""

    def __init__(self, fields, workdir: str):
        from repro.cluster import SimWorld

        self.fields = fields
        self.workdir = workdir
        self.comm = SimWorld(1).comm(0)
        self.payload_bytes: dict[str, set[int]] = {
            q: set() for q, _ in inputs.DUMP_QUANTITIES}

    def path(self, quantity: str) -> str:
        return os.path.join(self.workdir, f"dump_{quantity}.rwz")

    def compressor(self, eps: float):
        from repro.compression import WaveletCompressor

        return WaveletCompressor(eps=eps, block_size=inputs.DUMP_BLOCK,
                                 num_threads=1, guaranteed=False)

    def dump(self) -> float:
        from repro.compression import write_compressed_parallel

        t0 = time.perf_counter()
        for quantity, eps in inputs.DUMP_QUANTITIES:
            cf = self.compressor(eps).compress(self.fields[quantity])
            write_compressed_parallel(self.comm, self.path(quantity),
                                      quantity, cf)
            self.payload_bytes[quantity].add(len(cf.payload))
        return time.perf_counter() - t0

    def restore(self, checks: Checks | None = None) -> float:
        """Wall of reading both dumps back; with ``checks``, also hold the
        round-trip error to the decimation bound (outside the timing)."""
        from repro.compression import (
            exact_amplification,
            max_levels,
            read_field,
        )

        wall, restored = timed(lambda: {
            quantity: read_field(self.path(quantity), self.compressor(eps))
            for quantity, eps in inputs.DUMP_QUANTITIES})
        if checks is not None:
            block = inputs.DUMP_BLOCK
            amp = exact_amplification((block,) * 3, max_levels(block))
            for quantity, eps in inputs.DUMP_QUANTITIES:
                err = float(np.abs(restored[quantity]
                                   - self.fields[quantity]).max())
                checks.require(err <= eps * amp,
                               f"dump128: {quantity} round-trip error "
                               f"{err:.3g} > {eps * amp:.3g}")
        return wall


def run_dump(name: str, seed: int, budget: Budget, workdir: str) -> Outcome:
    checks = Checks()
    host = layers.HostSpeed(workdir)
    grid = inputs.dump_grid(seed)
    cycle = DumpCycle(inputs.dump_fields(grid), workdir)
    fields = cycle.fields
    # The cold first cycle and the last restore carry the error check.
    first = cycle.dump() + cycle.restore(checks)
    # Collect, dump and restore take turns, so the three medians see the
    # same stretch of host time.
    rounds = sample_until(
        lambda: (timed(lambda: inputs.dump_fields(grid))[0], cycle.dump(),
                 cycle.restore()),
        budget.seconds, budget.min_samples, host)
    cycle.restore(checks)
    checks.ops(2 * len(rounds) + 3)
    checks.require(all(len(s) == 1 for s in cycle.payload_bytes.values()),
                   "dump128: payload size changed between repeats")
    cells = 2 * fields["p"].size
    collect_s, dump_s, restore_s = (statistics.median(r[i] for r in rounds)
                                    for i in range(3))
    written = sum(max(s) for s in cycle.payload_bytes.values())
    metrics, extras = end_to_end(host, {
        "mcells_per_s": cells / dump_s / 1e6,
        "second_path_ms": restore_s * 1e3, "setup_s": collect_s})
    return Outcome(
        metrics=metrics,
        extras={**extras,
                "dump_mcells_per_s": (cells / dump_s / 1e6, "Mcells/s"),
                "restore_mcells_per_s": (cells / restore_s / 1e6, "Mcells/s"),
                "compression_ratio": (
                    sum(f.nbytes for f in fields.values()) / written, "ratio"),
                "first_cycle_ms": (first * 1e3, "ms"),
                "samples": (len(rounds), "count")},
        checks=checks,
        counts={"dumps": len(rounds), "restores": len(rounds),
                "payload_bytes": written},
    )


def run_traced_dump(name: str, seed: int, budget: Budget,
                    workdir: str) -> Outcome:
    checks = Checks()
    fields = inputs.dump_fields(inputs.dump_grid(seed))
    metrics = idle_layers()
    metrics.update(layers.compression_rungs(
        fields, inputs.DUMP_QUANTITIES, inputs.DUMP_BLOCK, workdir,
        budget.slice_s))
    metrics.update(layers.host_calibration(workdir))
    cycle = DumpCycle(fields, workdir)
    cycle.dump()
    cycle.restore(checks)
    checks.ops(2)
    return Outcome(metrics=metrics, extras={}, checks=checks,
                   counts={"payload_bytes":
                           int(metrics["compression.bytes_out"])})


# -- service_mix ---------------------------------------------------------------

#: Distinct requests and sequential cache hits per second of ``--seconds``
#: (a cold request is ~105 ms on 2 workers, a hit ~0.2 ms).
DISTINCT_PER_SECOND = 8
HITS_PER_SECOND = 200
SAMPLED_KEYS = 5
REQUEST_TIMEOUT = 120.0
#: Sequential hits between two host-speed readings (~40 ms of hits).
HOT_BATCH = 250
#: A cache hit is hashing the request in the interpreter, then read + CRC +
#: copy of a result file: the two host kernels that do just that.  On the
#: build host a hit follows them through slow spells (to within 1.5x over
#: 300 runs) and follows the NumPy kernels not at all (3x).
HOT_KERNELS = ("interpreter", "file")
#: The closed loop runs in this many slices with the host's speed read
#: in between: the loop keeps both cores busy, so a reading inside it
#: would measure the loop, and readings on either side of 12 s of loop
#: say little about those 12 s.
LOOP_SLICES = 8


def start_engine(workdir: str, warm_seeds, sink):
    """``(engine, start_s, ready_s)``: start a 2-worker engine and wait
    for one warm-up request per worker.  Logs go to ``sink``: a null sink
    keeps the logging code path but not the terminal's speed."""
    from repro.service import JobEngine, ServiceConfig
    from repro.telemetry import configure

    t0 = time.perf_counter()
    engine = JobEngine(ServiceConfig(workers=2, workdir=workdir))
    configure(stream=sink)
    engine.start()
    start_s = time.perf_counter() - t0
    handles = [engine.submit(inputs.service_request(s)) for s in warm_seeds]
    for handle in handles:
        handle.result(REQUEST_TIMEOUT)
    return engine, start_s, time.perf_counter() - t0


def closed_loop(engine, requests, order, clients: int = 2):
    """Drive ``order`` through ``clients`` closed-loop threads.

    Returns ``(wall, records, errors)`` with one ``(position, latency,
    cached)`` record per served request.  Taking the next position and
    submitting it happen under one lock, so submissions reach the engine
    in sequence order and the first occurrence of a key is the one that
    runs a worker.
    """
    from repro.service import JobFailedError

    records, errors = [], []
    lock = threading.Lock()
    position = iter(range(len(order)))

    def client() -> None:
        while True:
            with lock:
                pos = next(position, None)
                if pos is None:
                    return
                t0 = time.perf_counter()
                handle = engine.submit(requests[order[pos]])
            try:
                result = handle.result(REQUEST_TIMEOUT)
            except (JobFailedError, TimeoutError) as exc:
                errors.append((pos, repr(exc)))
                continue
            records.append((pos, time.perf_counter() - t0, result.cached))

    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, records, errors


def hot_hits(engine, requests, hits: int, host: layers.HostSpeed):
    """``(latency, cached)`` of ``hits`` sequential repeats of served keys,
    with a host-speed reading every ``HOT_BATCH`` hits."""
    out = []
    for k in range(hits):
        if k % HOT_BATCH == 0:
            host.read()
        latency, result = timed(lambda: engine.submit(
            requests[k % len(requests)]).result(REQUEST_TIMEOUT))
        out.append((latency, result.cached))
        # Consume and release the result, as a front end that has sent
        # the response would.  The engine keeps every result it ever
        # served (~120 KB each); without this the process grows with
        # every hit, and on the build host a first-touched page costs
        # 1 us or 20 us depending on what ran just before, which makes a
        # hit read 0.2 ms or 0.9 ms at random.
        result.payload.clear()
    return out


def run_service(name: str, seed: int, budget: Budget, workdir: str,
                trace: bool = False) -> Outcome:
    from repro.cluster import Simulation
    from repro.telemetry import configure

    checks = Checks()
    host = layers.HostSpeed(workdir)
    distinct = max(SAMPLED_KEYS, int(DISTINCT_PER_SECOND * budget.seconds))
    hits = max(10, int(HITS_PER_SECOND * budget.seconds))
    ic_seeds, order = inputs.service_mix(seed, distinct)
    requests = [inputs.service_request(s) for s in ic_seeds]
    total = len(order)

    starts, readies, shutdown_s = [], [], []
    engine = None
    with open(os.devnull, "w") as sink:
        try:
            # Set-up, several times: engine start until both workers
            # have answered a warm-up request; the last engine serves.
            for i in range(budget.setups):
                if engine is not None:
                    shutdown_s.append(timed(engine.shutdown)[0])
                warm = [ic_seeds[0] - 1 - 2 * i, ic_seeds[0] - 2 - 2 * i]
                engine, start_s, ready_s = start_engine(
                    os.path.join(workdir, f"service-{i}"), warm, sink)
                starts.append(start_s)
                readies.append(ready_s)
                host.watch(HOST_WATCH_SHARE * ready_s)
            before = dict(engine.counters)
            loop_from = len(host.readings)
            wall, records, errors = 0.0, [], []
            for k in range(LOOP_SLICES):
                lo, hi = (k * total // LOOP_SLICES,
                          (k + 1) * total // LOOP_SLICES)
                slice_s, served, failed = closed_loop(engine, requests,
                                                      order[lo:hi])
                wall += slice_s
                records += [(lo + pos, lat, cached)
                            for pos, lat, cached in served]
                errors += [(lo + pos, exc) for pos, exc in failed]
                host.watch(HOST_WATCH_SHARE * slice_s)
            hot_from = len(host.readings)
            hot = hot_hits(engine, requests, hits, host)
            sampled = [engine.submit(requests[k]).result(REQUEST_TIMEOUT)
                       for k in range(SAMPLED_KEYS)]
            counters = {k: engine.counters[k] - before[k] for k in before}
        finally:
            if engine is not None:
                shutdown_s.append(timed(engine.shutdown)[0])
            configure(stream=sys.stderr)

    # -- checks ------------------------------------------------------------------
    checks.ops(total + hits + SAMPLED_KEYS)
    checks.require(not errors, f"service_mix: requests failed: {errors[:3]}",
                   max(1, len(errors)))
    seen, cold, repeats_uncached = set(), [], 0
    for pos, latency, cached in sorted(records):
        if order[pos] not in seen:
            seen.add(order[pos])
            cold.append(latency)
            checks.require(not cached, "service_mix: first sight was cached")
        elif not cached:
            repeats_uncached += 1
    computed = counters["computed"]
    checks.require(
        computed + counters["dedup_joined"] + counters["cache_hits"]
        == total + hits + SAMPLED_KEYS and computed >= distinct,
        f"service_mix: counts do not add up: {counters}")
    # A repeat is uncached only if it joined an in-flight job (or lost the
    # engine's probe/complete race and recomputed).
    checks.require(
        repeats_uncached == counters["dedup_joined"] + computed - distinct,
        "service_mix: cached flags contradict the request sequence")
    checks.require(all(cached for _, cached in hot),
                   "service_mix: a sequential repeat missed the cache")
    local_s = []
    for k, served in enumerate(sampled):
        request = requests[k]
        local_wall, local = timed(
            Simulation(request.config, request.ic.build()).run)
        local_s.append(local_wall)
        checks.require(
            field_ok(served.final_field)
            and np.array_equal(served.final_field, local.final_field)
            and np.array_equal(served.payload["dts"],
                               [r.dt for r in local.records]),
            f"service_mix: key {k} not positive or differs from the "
            "in-process run")

    cold_ms = statistics.median(cold) * 1e3
    cold_p90 = steploop.percentile(cold, 0.9) * 1e3
    hot_ms = statistics.median(lat for lat, _ in hot) * 1e3
    hot_p95 = steploop.percentile([lat for lat, _ in hot], 0.95) * 1e3
    cell_steps = inputs.SERVICE_CELLS ** 3 * inputs.SERVICE_STEPS
    counts = {"requests": total, "distinct": distinct, "hot_requests": hits,
              "cold_runs": computed,
              "dedup_joined": counters["dedup_joined"],
              "cache_hits": counters["cache_hits"]}
    if not trace:
        cache_dir = engine.cache.root
        cache_mb = sum(os.path.getsize(os.path.join(cache_dir, f))
                       for f in os.listdir(cache_dir)) / 1e6
        # Each phase is held against the host readings taken in it.
        metrics, extras = end_to_end(
            host,
            {"mcells_per_s": total * cell_steps / wall / 1e6,
             "second_path_ms": hot_ms, "setup_s": statistics.median(readies)},
            {"mcells_per_s": host.factor(loop_from, hot_from),
             "second_path_ms": host.factor(hot_from, kernels=HOT_KERNELS),
             "setup_s": host.factor(0, loop_from)})
        return Outcome(
            metrics=metrics,
            extras={**extras, "requests_per_s": (total / wall, "1/s"),
                    "cold_ms": (cold_ms, "ms"),
                    "cold_p90_ms": (cold_p90, "ms"),
                    "cold_n": (len(cold), "count"),
                    "hot_ms": (hot_ms, "ms"),
                    "hot_p95_ms": (hot_p95, "ms"),
                    "hot_n": (hits, "count"),
                    "cache_on_disk_mb_page_cache_resident": (cache_mb, "MB")},
            checks=checks, counts=counts)

    metrics = idle_layers()
    metrics.update(layers.service_rungs(requests[0], sampled[0].payload,
                                        workdir, budget.slice_s))
    metrics.update(layers.host_calibration(workdir))
    metrics.update({
        "service.engine_start_ms": statistics.median(starts) * 1e3,
        "service.worker_spawn_s":
            statistics.median(r - s for r, s in zip(readies, starts)),
        "service.cold_ms": cold_ms,
        "service.cold_p90_ms": cold_p90,
        "service.cold_overhead_ms":
            cold_ms - statistics.median(local_s) * 1e3,
        "service.hot_p95_ms": hot_p95,
        "service.requests_per_s": total / wall,
        "service.shutdown_ms": statistics.median(shutdown_s) * 1e3,
        "service.cold_runs": computed,
        "service.dedup_joined": counters["dedup_joined"],
        "service.cache_hits": counters["cache_hits"],
    })
    return Outcome(metrics=metrics, extras={}, checks=checks, counts=counts)


#: name -> (untraced runner, traced runner)
RUNNERS = {
    "cloud64_b32": (run_cloud, run_traced_step),
    "cloud32_b8": (run_cloud, run_traced_step),
    "halo2_b8": (run_halo, run_traced_step),
    "dump128": (run_dump, run_traced_dump),
    "service_mix": (run_service,
                    functools.partial(run_service, trace=True)),
}
