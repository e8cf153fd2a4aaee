#!/usr/bin/env python3
"""Run one matshare benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ring-wide --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The workload runs single-threaded in this process, as one
closed-loop client.  Every op's output is checked, and a failed check is
counted, not fatal.

``--trace 0`` runs whole units of the workload until the next one would
overrun ``--seconds`` (at least one cycle of the workload's units), and
reports the end-to-end metrics named in ``BENCHMARK.json``.  Their times
are paced seconds (see ``pace.py``): wall time corrected for the speed
of the shared host at that moment.  ``--trace 1`` runs one fixed unit
untraced, then the same unit traced, and reports the per-layer metrics,
including the tracing overhead (traced minus untraced wall time, over
untraced).  Its counts depend only on the seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pace
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: set-ups per run; setup_s is their median
SETUP_REPS = 15
#: units run untraced and then traced by --trace 1
TRACE_UNITS = 1


def measure(wl, ms, fixture, seed: int, rec, *, seconds=None, units=None) -> list:
    """Run whole units, stopping after `units` of them, or once a cycle of the
    workload's units is done and the next unit would end past `seconds`;
    returns each unit's (ops, start, end) on the perf_counter clock."""
    started = perf_counter()
    done = []
    while True:
        unit_started, ops_before = perf_counter(), rec.attempted
        wl.run_unit(ms, fixture, seed, len(done), rec)
        now = perf_counter()
        done.append((rec.attempted - ops_before, unit_started, now))
        if units is not None:
            if len(done) == units:
                return done
        elif len(done) >= wl.cycle and now + (now - unit_started) > started + seconds:
            return done


def wall(done: list) -> float:
    return sum(end - start for _, start, end in done)


def op_rate(done: list, cycle: int, seconds) -> float:
    """Ops per second over one cycle of units, taking each place in the cycle
    at its median `seconds(start, end)`, so that a run that ends mid-cycle
    keeps the mix of units fixed."""
    ops = spent = 0.0
    for place in range(cycle):
        same = done[place::cycle]
        ops += statistics.median(n for n, _, _ in same)
        spent += statistics.median(seconds(start, end) for _, start, end in same)
    return ops / spent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        rec = workloads.Recorder()
        if not args.trace:
            with pace.Pace() as paced:
                setups = []
                for _ in range(SETUP_REPS):
                    started = perf_counter()
                    ms = workloads.import_matshare()
                    fixture = wl.setup(ms, args.seed, workdir)
                    setups.append((started, perf_counter()))
                done = measure(wl, ms, fixture, args.seed, rec, seconds=args.seconds)
            values = {
                "ops_per_s": op_rate(done, wl.cycle, paced.paced),
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": statistics.median(paced.paced(*setup) for setup in setups),
            }
            named = wl.report(rec, values["ops_per_s"]) + [
                ("setup_s", values["setup_s"], "s"),
                ("peak_rss_mb", values["peak_rss_mb"], "MB"),
                ("wall_ops_per_s", op_rate(done, wl.cycle, lambda a, b: b - a), "1/s"),
                ("wall_setup_s", statistics.median(b - a for a, b in setups), "s"),
            ]
            attempted, failed = rec.attempted, rec.failed
        else:
            ms = workloads.import_matshare()
            fixture = wl.setup(ms, args.seed, workdir)
            ref = measure(wl, ms, fixture, args.seed, rec, units=TRACE_UNITS)
            traced = workloads.Recorder()
            tracer = tracing.Tracer(ms)
            tracer.install()
            try:
                # traced set-up: the dealing ring-wide and attack-search do before timing
                fixture = wl.setup(ms, args.seed, workdir)
                setup_covered = tracer.top_s
                done = measure(wl, ms, fixture, args.seed, traced, units=TRACE_UNITS)
                covered = tracer.top_s - setup_covered
            finally:
                tracer.uninstall()
            values = tracer.metrics()
            traced_wall, ref_wall = wall(done), wall(ref)
            values["trace.overhead_ratio"] = (traced_wall - ref_wall) / ref_wall
            values["trace.top_span_coverage"] = covered / traced_wall
            named = []
            attempted, failed = rec.attempted + traced.attempted, rec.failed + traced.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: metrics differ from BENCHMARK.json {kind}: "
            f"{sorted(set(values) ^ set(units))}"
        )

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops checked, {len(done)} units timed in {wall(done):.3f} s of wall time")
    rows = named or [(name, values[name], units[name]) for name in sorted(values)]
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>16.6g} ({failed} of {attempted})")
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": {op: len(times) for op, times in sorted(rec.times.items())},
        "unit_walls_s": [end - start for _, start, end in done],
    }
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def invoke(workload: str, seed: int, seconds: int, trace: int):
    """Run one workload in a process of its own; returns (report, env, result)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} (trace {trace}) exited with {proc.returncode}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return "\n".join(lines[:-1]), env, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "matshare" / "__init__.py").is_file():
        print(f"perfbench: no matshare sources under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"perfbench: missing {SPEC}", file=sys.stderr)
        return 2
    result = run(args, json.loads(SPEC.read_text(encoding="utf-8")))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
