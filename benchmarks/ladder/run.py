"""The benchmark ladder: one command for every rung.

One workload, as the benchmark driver calls it (the last stdout line is
the result object)::

    python3 benchmarks/ladder/run.py --workload cloud32_b8 --seed 7 \
        --seconds 20 --trace 0

The whole ladder into a result file, each workload in its own process::

    python3 benchmarks/ladder/run.py --seed 2013 --out FILE [--traced]
        [--repeats N] [--smoke]

Two result files against the benchmark's own bounds::

    python3 benchmarks/ladder/run.py --compare PARENT.json CHANGE.json

See README.md for every metric, unit and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# The program under test lives in <checkout>/src; the driver sets no
# PYTHONPATH.  Spawned ranks and workers inherit sys.path.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

DEFAULT_SECONDS = 20
SMOKE_SECONDS = 1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run this one workload in-process")
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"measuring time per run (default {DEFAULT_SECONDS})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from the traced run")
    p.add_argument("--trace-out", help="keep the Chrome trace JSON here")
    p.add_argument("--out", help="ladder mode: write the result file here")
    p.add_argument("--traced", action="store_true",
                   help="ladder mode: also run every workload traced, once")
    p.add_argument("--repeats", type=int, default=1,
                   help="ladder mode: runs per workload, seeds seed..seed+N-1")
    p.add_argument("--smoke", action="store_true",
                   help="same code path, counts cut to finish in < 60 s")
    p.add_argument("--gates", action="store_true",
                   help="with --workload: a traced run's closure gates fail "
                        "the run (ladder mode always passes this)")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    return args


# -- one workload, in this process ----------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    import resource

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def leftovers() -> list[str]:
    """Child processes still alive and shared-memory segments left behind."""
    import multiprocessing

    found = [f"child process {p.name} alive"
             for p in multiprocessing.active_children()]
    prefix = f"rpr{os.getpid():x}"  # how repro.cluster.procs names segments
    if os.path.isdir("/dev/shm"):
        found += [f"/dev/shm/{n} left behind"
                  for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    return found


def stop_resource_tracker() -> None:
    """Wait for multiprocessing's helper process, which otherwise only
    exits some time after this process does."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def run_workload(args: argparse.Namespace) -> int:
    try:
        import repro  # noqa: F401 -- fail early, before any result is printed
    except ImportError as exc:
        print(f"ladder: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import catalog
    import report
    import workloads

    if args.workload not in workloads.RUNNERS:
        print(f"ladder: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.RUNNERS)}", file=sys.stderr)
        return 2
    runner = workloads.RUNNERS[args.workload][args.trace]
    budget = workloads.Budget(seconds=args.seconds, smoke=args.smoke,
                              gates=args.gates)
    # Everything written (dumps, caches, workdirs, the trace) lives under
    # one temporary directory inside the checkout.
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            outcome = runner(args.workload, args.seed, budget, workdir)
            trace_file = os.path.join(workdir, "trace.json")
            if args.trace_out and os.path.exists(trace_file):
                os.replace(trace_file, args.trace_out)
    finally:
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it
    checks = outcome.checks
    for problem in leftovers():
        checks.require(False, problem)
    stop_resource_tracker()

    if args.trace:
        units = {n: u for n, u, _ in catalog.PER_LAYER}
    else:
        units = {n: u for n, u, _, _ in catalog.END_TO_END}
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    metrics = {n: {"value": float(outcome.metrics[n]), "unit": u}
               for n, u in units.items()}
    rows = [(n, m["value"], m["unit"]) for n, m in metrics.items()]
    rows += [(n, v, u) for n, (v, u) in outcome.extras.items()]
    rows.append(("failed_frac", checks.failed / max(1, checks.attempted),
                 "ratio"))
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(report.format_rows(rows))
    for failure in checks.failures:
        print(f"  CHECK FAILED: {failure}")
    if not args.gates:
        for gate in outcome.gates_exceeded:
            print(f"  GATE EXCEEDED (reported only; --gates enforces): {gate}")
    print("details: " + json.dumps(
        {"counts": outcome.counts,
         "extras": {n: v for n, (v, _) in outcome.extras.items()}},
        sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": max(1, checks.attempted),
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


# -- the whole ladder, one process per run ----------------------------------------

def run_ladder(args: argparse.Namespace) -> int:
    import catalog
    import report

    runs, ok = [], True
    for trace in (0, 1) if (args.traced or args.smoke) else (0,):
        for workload in catalog.WORKLOADS:
            # Repeats are for the end-to-end spreads; traced once is enough.
            for repeat in range(1 if trace else args.repeats):
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed",
                       str(args.seed + repeat), "--seconds",
                       str(args.seconds), "--trace", str(trace), "--gates"]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.rstrip().splitlines()
                print("\n".join(lines[:-1]), flush=True)
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    print(f"ladder: {workload} printed no result "
                          f"(exit {proc.returncode})", file=sys.stderr)
                    ok = False
                    continue
                ok &= result["correct"] and proc.returncode == 0
                details = [ln for ln in lines if ln.startswith("details: ")]
                runs.append({"workload": workload, "trace": trace,
                             "seed": args.seed + repeat,
                             **json.loads(details[-1][9:]), **result})
    if args.out:
        report.write_results(args.out, {
            "schema": report.SCHEMA,
            "provenance": report.provenance(args.seed, args.seconds),
            "smoke": args.smoke,
            "runs": runs,
        })
        print(f"ladder: {len(runs)} runs written to {args.out}")
    print("ladder: all checks passed" if ok else "ladder: CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import report

        table, any_worse = report.compare(*map(report.load_results,
                                               args.compare))
        print(table)
        return 1 if any_worse else 0
    if args.workload:
        return run_workload(args)
    return run_ladder(args)


if __name__ == "__main__":
    sys.exit(main())
