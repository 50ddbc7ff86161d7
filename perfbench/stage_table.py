#!/usr/bin/env python3
"""Print the per-stage seconds of every traced cell as a Markdown table.

This regenerates the stage table of ROADMAP's Baseline (phase one, the
phase-two selections, single phase) from the span files a traced run writes:

    python3 perfbench/run.py --workload sparse-greedy --seed 42 --seconds 30 --trace 1
    python3 perfbench/stage_table.py .perfbench_out/*-spans.jsonl
"""

import json
import sys
from pathlib import Path

PHASE1, PHASE2, SINGLE = "twophase.run_phase1", "twophase.run_phase2", "twophase.run_single_phase"


def stage_rows(path):
    """``{cell: {stage: seconds, "observations": n}}`` for one span file."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for span in map(json.loads, fh):
            if span["name"] in (PHASE1, PHASE2, SINGLE):
                row = rows.setdefault(span["cell"], {PHASE1: 0.0, PHASE2: 0.0, SINGLE: 0.0,
                                                     "observations": 0})
                row[span["name"]] += span["end"] - span["start"]
                row["observations"] += span["name"] == PHASE2
    return rows


def main(paths) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    print("| Spans | Cell (selector@master seed) | Phase one | Phase-two selections | Single phase |")
    print("|-------|-----------------------------|-----------|----------------------|--------------|")
    for path in paths:
        for cell, row in stage_rows(path).items():
            print(f"| {Path(path).name} | {cell} | {row[PHASE1]:.2f} s "
                  f"| {row['observations']} in {row[PHASE2]:.2f} s | {row[SINGLE]:.2f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
