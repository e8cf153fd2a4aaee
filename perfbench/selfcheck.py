#!/usr/bin/env python3
"""Check that the benchmark repeats itself and that every workload passes.

    python3 perfbench/selfcheck.py [--seed 1] [--second-seed 2]

For each workload:

- two traced runs with the same seed must report identical per-layer
  counts (calls, nodes, bits, envelopes, bytes: every per-layer metric
  except self times and the trace's own overhead and coverage);
- the top-level spans of a traced run must cover at least 90% of its
  timed wall time;
- an untraced run with the second seed must fail no op.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

import workloads
from run import invoke

MIN_COVERAGE = 0.9


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] != "s" and not name.startswith("trace.")
    }


def check(name: str, seed: int, second_seed: int) -> list:
    """The failed checks of one workload, as messages."""
    problems = []
    _, _, first = invoke(name, seed, 1, 1)
    _, _, again = invoke(name, seed, 1, 1)
    a, b = counts(first), counts(again)
    problems += [f"{metric}: {a[metric]} then {b[metric]}" for metric in a if a[metric] != b[metric]]
    coverage = first["metrics"]["trace.top_span_coverage"]["value"]
    if coverage < MIN_COVERAGE:
        problems.append(f"top-level spans cover {coverage:.3f} of the traced pass")
    _, _, other = invoke(name, second_seed, 1, 0)
    for label, result in (("traced", first), ("traced again", again), (f"seed {second_seed}", other)):
        if result["failed"] or not result["correct"]:
            problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int, default=2)
    args = parser.parse_args(argv)
    failed = False
    for name in workloads.WORKLOADS:
        try:
            problems = check(name, args.seed, args.second_seed)
        except RuntimeError as err:
            problems = [str(err)]
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        if not problems:
            print(f"PASS {name}: per-layer counts repeat, spans cover the pass, no op failed")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
