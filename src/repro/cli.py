"""Command-line interface.

Three subcommands mirror the workflow of the paper's software:

``run``
    Execute a cloud-cavitation-collapse simulation and print diagnostics
    (optionally with compressed dumps and a wall-erosion map).
``report``
    Print the performance-model reproduction of every paper table.
``compress``
    Wavelet-compress a 3D ``.npy`` scalar field to a dump file (and back).
``validate``
    Run the physics V&V suite against the committed golden baselines
    (forwards its flags to :mod:`repro.validation.cli`).
``analyze-flight``
    Cross-rank imbalance / straggler / critical-path report over a
    flight recording written with ``run --flight-out``.
``submit``
    Canonicalize a simulation request into a service job line (JSONL)
    and print its content-addressed cache key.
``serve``
    Run a batch of job lines through the fault-tolerant job service
    (supervised worker pool, result cache, retry/backoff, circuit
    breaker) and print the service scorecard.

Failures exit with the documented taxonomy codes of
:mod:`repro.exitcodes` (e.g. 66 deadlock, 67 rank lost, 69 poisoned).

Usage::

    python -m repro.cli run --cells 32 --bubbles 4
    python -m repro.cli report
    python -m repro.cli compress field.npy --eps 1e-3
    python -m repro.cli validate --suite smoke --check
    python -m repro.cli run --ranks 4 --flight-out flight.jsonl
    python -m repro.cli analyze-flight flight.jsonl
    python -m repro.cli submit --cells 16 --steps 4 --out jobs.jsonl
    python -m repro.cli serve jobs.jsonl --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _cmd_run(args: argparse.Namespace) -> int:
    """Run a cloud-collapse simulation and print diagnostics."""
    from .cluster import Simulation
    from .sim import SimulationConfig, cloud_collapse, generate_cloud
    from .sim.diagnostics import format_sanitizer_report
    from .sim.erosion import ErosionModel

    bubbles = generate_cloud(
        args.bubbles, (0.5, 0.5, 0.5), 0.38, rng=args.seed,
        r_min=0.07, r_max=0.11,
    )
    erosion = (
        ErosionModel(p_threshold=args.erosion_threshold)
        if args.erosion_threshold else None
    )
    telemetry = args.telemetry
    if args.trace_out and telemetry != "trace":
        telemetry = "trace"  # --trace-out implies span recording
    fault_plan = None
    if args.fault_plan:
        from .resilience import FaultPlan

        fault_plan = FaultPlan.from_file(args.fault_plan)
    resilient = args.resilience or fault_plan is not None
    # Prefer the paper-like block size, but the block grid must also
    # decompose across the requested ranks.
    from .cluster.topology import balanced_dims

    dims = balanced_dims(args.ranks)
    block_size = next(
        (bs for bs in (16, 8)
         if args.cells % bs == 0
         and all((args.cells // bs) % d == 0 for d in dims)),
        8,
    )
    config = SimulationConfig(
        cells=args.cells,
        block_size=block_size,
        max_steps=args.steps,
        ranks=args.ranks,
        wall=(0, -1) if (args.wall or erosion) else None,
        erosion=erosion,
        dump_interval=args.dump_interval,
        dump_dir=args.dump_dir,
        sanitize=args.sanitize,
        telemetry=telemetry,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_keep=args.checkpoint_keep,
        fault_plan=fault_plan,
        max_recoveries=args.max_recoveries,
        comm_timeout=args.comm_timeout,
        concurrency_check=args.concurrency_check,
        cluster_backend=args.cluster_backend,
        flight_out=args.flight_out,
        progress_interval=args.progress,
    )
    ic = cloud_collapse(bubbles, p_liquid=args.pressure,
                        smoothing=config.h)
    rres = None
    if resilient:
        from .resilience import ResilientSimulation

        rres = ResilientSimulation(config, ic).run()
        result = rres.result
    else:
        result = Simulation(config, ic).run()
    print(f"{'step':>5} {'time':>9} {'max p':>10} {'kinetic E':>11} "
          f"{'r_eq':>8}")
    for rec in result.records[:: max(1, len(result.records) // 20)]:
        if rec.diagnostics is None:
            continue
        d = rec.diagnostics
        print(f"{rec.step:5d} {rec.time:9.5f} {d.max_pressure:10.2f} "
              f"{d.kinetic_energy:11.4e} {d.equivalent_radius:8.4f}")
    if result.wall_damage is not None:
        dmg = result.wall_damage
        print(f"\nwall damage: peak {dmg.max():.3e}, "
              f"damaged cells {(dmg > 0).sum()}/{dmg.size}")
    print("\ntimers [s]:",
          {k: round(v, 2) for k, v in sorted(result.timers.items())})
    print(f"run: {len(result.records)} steps in "
          f"{result.wall_seconds:.2f} s wall, "
          f"{result.cells_per_second / 1e6:.3f} Mcells/s")
    if args.flight_out:
        print(f"flight recording written to {args.flight_out} "
              "(analyze with: python -m repro.cli analyze-flight "
              f"{args.flight_out})")
    if telemetry != "off":
        from .telemetry import format_run_scorecard, write_chrome_trace

        print()
        print(format_run_scorecard(result))
        if args.trace_out:
            n = write_chrome_trace(args.trace_out, result)
            print(f"\ntrace: {n} events written to {args.trace_out} "
                  "(open at https://ui.perfetto.dev)")
    if args.sanitize != "off":
        print()
        print(format_sanitizer_report(result.sanitizer_report))
    if result.concurrency_report is not None:
        print()
        print(result.concurrency_report.summary())
        for v in result.concurrency_report.violations:
            print(f"  {v.rule} {v.message}")
        if args.concurrency_out:
            import json

            with open(args.concurrency_out, "w") as f:
                json.dump(result.concurrency_report.to_dict(), f, indent=2)
            print(f"concurrency report written to {args.concurrency_out}")
    if rres is not None:
        from .resilience import all_faults_recovered, format_resilience_scorecard

        print()
        print(format_resilience_scorecard(rres))
        if args.resilience_out:
            import json

            with open(args.resilience_out, "w") as f:
                json.dump(
                    {
                        "attempts": rres.attempts,
                        "recovery_overhead": rres.recovery_overhead,
                        "all_faults_recovered": all_faults_recovered(rres),
                        "counters": rres.counters,
                        "events": [vars(ev) for ev in rres.events],
                    },
                    f, indent=2,
                )
            print(f"\nresilience scorecard written to {args.resilience_out}")
        if not all_faults_recovered(rres):
            return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .perf import (
        format_table,
        machines_table,
        rhs_issue_bounds,
        table3,
        table5,
        table7,
        table10,
        throughput_cells_per_second,
        time_per_step,
    )

    print(format_table(machines_table(), "Table 1"))
    print()
    print(format_table(
        [
            {"kernel": e.kernel, "naive OI": e.naive_oi,
             "reordered OI": e.reordered_oi, "gain": e.gain}
            for e in table3()
        ],
        "Table 3",
    ))
    print()
    print(format_table([vars(b) for b in rhs_issue_bounds()], "Table 8"))
    print()
    print(format_table(table7(), "Table 7"))
    print()
    print(format_table(table5(), "Table 5"))
    print()
    print(format_table(table10(), "Table 10"))
    print()
    print(f"throughput (96 racks): "
          f"{throughput_cells_per_second(96) / 1e9:.0f} Gcells/s; "
          f"step time: {time_per_step(13.2e12, 96):.1f} s")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from .compression import WaveletCompressor
    from .physics.state import COMPUTE_DTYPE, STORAGE_DTYPE

    field = np.load(args.field)
    if field.ndim != 3:
        print("error: expected a 3D array", file=sys.stderr)
        return 2
    comp = WaveletCompressor(eps=args.eps, guaranteed=not args.paper_thresholds)
    cf = comp.compress(field.astype(STORAGE_DTYPE))
    out = args.output or (os.path.splitext(args.field)[0] + ".rwz.npy")
    np.save(out, np.frombuffer(cf.payload, dtype=np.uint8))
    restored = comp.decompress(cf)
    err = float(np.abs(restored.astype(COMPUTE_DTYPE) - field).max())
    print(f"{args.field}: {field.nbytes} B -> {cf.nbytes} B "
          f"({cf.stats.rate:.1f}:1), L-inf error {err:.3e} (eps {args.eps})")
    print(f"payload written to {out}")
    return 0


def _cmd_analyze_flight(args: argparse.Namespace) -> int:
    """Print the cross-rank analytics report of a flight recording."""
    from .telemetry import analyze_flight, format_flight_report

    try:
        analysis = analyze_flight(args.flight)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_flight_report(analysis, max_step_rows=args.worst))
    return 0


def _job_request_from_args(args: argparse.Namespace):
    """Build a canonical JobRequest from submit-style flags."""
    from .service import ICSpec, JobRequest
    from .sim import SimulationConfig

    config = SimulationConfig(
        cells=args.cells,
        block_size=args.block_size,
        max_steps=args.steps,
        diag_interval=args.diag_interval,
        ranks=args.ranks,
        cluster_backend=args.cluster_backend,
    )
    ic = ICSpec("generated_cloud", {
        "n_bubbles": args.bubbles,
        "seed": args.seed,
        "p_liquid": args.pressure,
        "smoothing": config.h,
    })
    return JobRequest(config=config, ic=ic)


def _cmd_submit(args: argparse.Namespace) -> int:
    """Canonicalize a request into a service job line (JSONL)."""
    import json

    request = _job_request_from_args(args)
    line = json.dumps({
        "request": request.to_payload(),
        "priority": args.priority,
    }, sort_keys=True)
    if args.out:
        with open(args.out, "a") as f:
            f.write(line + "\n")
        print(f"job appended to {args.out}")
    else:
        print(line)
    print(f"key: {request.key()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a batch of job lines through the job service."""
    import json

    from .exitcodes import EXIT_OK, classify_exit
    from .perf import format_table
    from .service import (
        BackoffPolicy,
        JobEngine,
        JobRequest,
        ServiceConfig,
        format_service_scorecard,
        health_snapshot,
    )

    service_plan = None
    if args.fault_plan:
        from .resilience import FaultPlan

        service_plan = FaultPlan.from_file(args.fault_plan)
    svc = ServiceConfig(
        workers=args.workers,
        workdir=args.workdir,
        cache_dir=args.cache_dir,
        max_pending=args.max_pending,
        park_capacity=args.park_capacity,
        job_timeout=args.job_timeout,
        backoff=BackoffPolicy(max_attempts=args.retries),
        breaker_threshold=args.breaker_threshold,
        checkpoint_interval=args.checkpoint_interval,
        fault_plan=service_plan,
        seed=args.seed,
    )
    with open(args.jobs) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    # Every line decoded before a worker is spawned: a bad request (a
    # mistyped boundary kind, say) fails here, with its field named.
    jobs = []
    for doc in lines:
        plan = doc.get("fault_plan")
        if plan is not None:
            from .resilience import FaultPlan

            plan = FaultPlan.from_dict(plan)
        jobs.append((JobRequest.from_payload(doc["request"]),
                     int(doc.get("priority", 0)), plan))
    engine = JobEngine(svc).start()
    worst = EXIT_OK
    rows = []
    try:
        handles = [
            engine.submit(request, priority=priority, fault_plan=plan)
            for request, priority, plan in jobs
        ]
        engine.drain(timeout=args.drain_timeout)
        for i, h in enumerate(handles):
            row = {"job": i, "key": h.key[:16], "status": h.status,
                   "attempts": h.attempts}
            try:
                result = h.result(timeout=0)
                row["cached"] = result.cached
            except BaseException as exc:  # lint: disable=CL005 -- reported per-job
                code, name = classify_exit(exc)
                row["error"] = name
                worst = max(worst, code)
            rows.append(row)
        snapshot = health_snapshot(engine)
    finally:
        engine.shutdown(drain=True, timeout=args.drain_timeout)
    print(format_table(rows, title="jobs"))
    print()
    print(format_service_scorecard(snapshot))
    if args.health_out:
        with open(args.health_out, "w") as f:
            json.dump(snapshot, f, indent=2, default=str)
        print(f"\nhealth snapshot written to {args.health_out}")
    return worst


def _cmd_validate(args: argparse.Namespace) -> int:
    """Delegate to the validation CLI (single source of truth)."""
    from .validation.cli import main as validation_main

    return validation_main(list(args.validation_args))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the repro CLI."""
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a cloud collapse simulation")
    run.add_argument("--cells", type=int, default=32)
    run.add_argument("--bubbles", type=int, default=4)
    run.add_argument("--steps", type=int, default=60)
    run.add_argument("--ranks", type=int, default=1)
    run.add_argument("--cluster-backend", choices=["sim", "procs"],
                     default="sim",
                     help="cluster runtime: 'sim' (rank threads, "
                          "deterministic default) or 'procs' (rank "
                          "processes over shared-memory rings; real "
                          "multi-core scaling, bit-identical results)")
    run.add_argument("--pressure", type=float, default=1000.0)
    run.add_argument("--seed", type=int, default=2013)
    run.add_argument("--wall", action="store_true")
    run.add_argument("--erosion-threshold", type=float, default=0.0,
                     help="enable erosion accumulation above this wall "
                          "pressure")
    run.add_argument("--dump-interval", type=int, default=0)
    run.add_argument("--dump-dir", default=".")
    run.add_argument("--sanitize", choices=["off", "warn", "raise"],
                     default="off",
                     help="runtime numerics sanitizer policy (see "
                          "repro.analysis)")
    run.add_argument("--telemetry", choices=["off", "metrics", "trace"],
                     default="off",
                     help="run telemetry policy: metrics snapshot + "
                          "scorecard, or full span tracing (see "
                          "repro.telemetry)")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write a Perfetto-loadable Chrome trace-event "
                          "JSON of the run (implies --telemetry trace)")
    run.add_argument("--checkpoint-interval", type=int, default=0,
                     help="steps between lossless checkpoints (0 = never)")
    run.add_argument("--checkpoint-dir", default=".")
    run.add_argument("--checkpoint-keep", type=int, default=0,
                     help="checkpoint generations kept by rotation "
                          "(0 = keep everything)")
    run.add_argument("--fault-plan", metavar="PATH", default=None,
                     help="JSON chaos plan injected into the run (implies "
                          "--resilience; see repro.resilience)")
    run.add_argument("--resilience", action="store_true",
                     help="run under the supervised recovery loop "
                          "(checkpoint rollback on world failure)")
    run.add_argument("--max-recoveries", type=int, default=3)
    run.add_argument("--comm-timeout", type=float, default=None,
                     help="receive/collective timeout in seconds")
    run.add_argument("--concurrency-check", choices=["off", "warn", "raise"],
                     default="off",
                     help="runtime race detector + deadlock watchdog "
                          "policy for the thread-based cluster runtime "
                          "(see repro.analysis.concurrency)")
    run.add_argument("--concurrency-out", metavar="PATH", default=None,
                     help="write the runtime concurrency report as JSON")
    run.add_argument("--resilience-out", metavar="PATH", default=None,
                     help="write the resilience scorecard as JSON")
    run.add_argument("--flight-out", metavar="PATH", default=None,
                     help="write a step-level flight recording (JSONL, "
                          "schema repro.flight/v1) of the run")
    run.add_argument("--progress", type=int, default=0, metavar="N",
                     help="emit a structured progress heartbeat every N "
                          "steps (0 = silent)")
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="print the performance models")
    rep.set_defaults(func=_cmd_report)

    comp = sub.add_parser("compress", help="compress a 3D .npy field")
    comp.add_argument("field")
    comp.add_argument("--eps", type=float, default=1e-3)
    comp.add_argument("--output")
    comp.add_argument("--paper-thresholds", action="store_true",
                      help="raw thresholds (no strict L-inf guarantee)")
    comp.set_defaults(func=_cmd_compress)

    fl = sub.add_parser(
        "analyze-flight",
        help="cross-rank imbalance report over a flight recording",
    )
    fl.add_argument("flight", help="flight JSONL written by run --flight-out")
    fl.add_argument("--worst", type=int, default=12, metavar="N",
                    help="per-step rows shown (worst N by imbalance)")
    fl.set_defaults(func=_cmd_analyze_flight)

    sb = sub.add_parser(
        "submit",
        help="canonicalize a request into a service job line (JSONL)",
    )
    sb.add_argument("--cells", type=int, default=16)
    sb.add_argument("--block-size", type=int, default=8)
    sb.add_argument("--steps", type=int, default=4)
    sb.add_argument("--diag-interval", type=int, default=1)
    sb.add_argument("--bubbles", type=int, default=2)
    sb.add_argument("--seed", type=int, default=2013,
                    help="physics seed of the generated bubble cloud "
                         "(semantic: part of the cache key)")
    sb.add_argument("--pressure", type=float, default=1000.0)
    sb.add_argument("--ranks", type=int, default=1)
    sb.add_argument("--cluster-backend", choices=["sim", "procs"],
                    default="sim")
    sb.add_argument("--priority", type=int, default=0,
                    help="admission priority (lower = more urgent)")
    sb.add_argument("--out", metavar="PATH", default=None,
                    help="append the job line to this JSONL file "
                         "(default: print to stdout)")
    sb.set_defaults(func=_cmd_submit)

    sv = sub.add_parser(
        "serve",
        help="run a JSONL job batch through the fault-tolerant service",
    )
    sv.add_argument("jobs", help="JSONL job file written by submit")
    sv.add_argument("--workers", type=int, default=2)
    sv.add_argument("--workdir", default="service-work")
    sv.add_argument("--cache-dir", default=None,
                    help="result cache root (default: <workdir>/cache; "
                         "reuse across invocations for cross-run hits)")
    sv.add_argument("--max-pending", type=int, default=64)
    sv.add_argument("--park-capacity", type=int, default=64)
    sv.add_argument("--job-timeout", type=float, default=None,
                    help="per-job wall-clock budget in seconds")
    sv.add_argument("--retries", type=int, default=3, metavar="N",
                    help="total attempts per job (first try included)")
    sv.add_argument("--breaker-threshold", type=int, default=3,
                    help="distinct-worker failures before a config is "
                         "quarantined as poison")
    sv.add_argument("--checkpoint-interval", type=int, default=0,
                    help="steps between retry-resume checkpoints "
                         "(0 = retry from scratch)")
    sv.add_argument("--fault-plan", metavar="PATH", default=None,
                    help="service-level JSON chaos plan (cache-write "
                         "corruption etc.)")
    sv.add_argument("--drain-timeout", type=float, default=600.0)
    sv.add_argument("--health-out", metavar="PATH", default=None,
                    help="write the service health snapshot as JSON")
    sv.add_argument("--seed", type=int, default=2013,
                    help="service seed (backoff jitter streams)")
    sv.set_defaults(func=_cmd_serve)

    val = sub.add_parser(
        "validate", add_help=False,
        help="run the physics V&V suite (see python -m repro.validation "
             "--help)",
    )
    val.add_argument("validation_args", nargs=argparse.REMAINDER,
                     help="flags forwarded to repro.validation")
    val.set_defaults(func=_cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # "validate" forwards everything to the validation CLI up front:
    # argparse's REMAINDER does not capture leading option tokens.
    if argv[:1] == ["validate"]:
        from .validation.cli import main as validation_main

        return validation_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        # Map failures onto the documented exit-code taxonomy so
        # supervisors can classify without parsing tracebacks.
        from .exitcodes import classify_exit

        code, name = classify_exit(exc)
        print(f"error[{name}] {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
