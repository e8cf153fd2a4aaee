#!/usr/bin/env python3
"""Run every workload, untraced and then traced, and print every metric.

    python3 perfbench/all.py [--seed 1] [--seconds N] [--out .perfbench_results.json]

Each run is a process of its own.  Next to the metrics, the results file
records the Python version, the processor count, the git commit, the
seed and each workload's op counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads
from run import ROOT, SPEC, invoke


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_results.json")
    args = parser.parse_args(argv)

    record = {"commit": git_commit(ROOT), "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    correct = True
    for name in workloads.WORKLOADS:
        entry = record["workloads"][name] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            try:
                report, env, result = invoke(name, args.seed, args.seconds, trace)
            except RuntimeError as err:
                print(f"perfbench: {err}", file=sys.stderr)
                return 1
            print(report, flush=True)
            record.update(python=env["python"], nproc=env["nproc"])
            entry[f"{kind}_ops"] = env["ops"]
            entry[f"{kind}_failed"] = result["failed"]
            entry[kind] = result["metrics"]
            correct = correct and result["correct"]
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results written to {args.out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
