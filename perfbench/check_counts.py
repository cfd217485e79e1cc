#!/usr/bin/env python3
"""Check that the traced counts repeat exactly between two runs of one seed.

    python3 perfbench/check_counts.py [--seed 7] [--workload solve-3d ...]

Runs each workload twice with ``--trace 1`` and the shortest run length, and
compares every per-layer metric that is not a time: transform calls and
points, NUDFT points, Picard iterations, both repeat ratios and bytes
written.  Exits 1 and names the metric if any differs, or if a run reports a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("solve-3d", "sequence-2d", "cli-1d")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: traced run failed: {result}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = {k: (v, second.get(k)) for k, v in first.items() if second.get(k) != v}
        print(f"{workload}: {len(first)} counts, "
              + ("all repeat exactly" if not diff else f"differ: {diff}"))
        ok = ok and not diff and first.keys() == second.keys()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
