#!/usr/bin/env python3
"""Layered benchmark of profitmax's two-phase protocol.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-greedy --seed 1 --seconds 36 --trace 0

``--trace 0`` times the workload's cells with the program untouched and
reports the end-to-end metrics; ``--trace 1`` runs the cells once untraced and
once with spans around every public layer function, and reports the per-layer
metrics.  Every metric is printed with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The span file and a run record (git sha, Python, cores, seed,
fixture size, result digest, work counters) are written to ``.perfbench_out/``.
The exit code is 1 when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_program():
    # benchmark the checkout's own sources, never an installed copy
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import profitmax

    if Path(profitmax.__file__).resolve().parent != (src / "profitmax").resolve():
        raise SystemExit(f"profitmax imported from {profitmax.__file__}, not from {src}")


def _git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children are the pool workers run_batch joined
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def timed_run(workload, setup, seed, seconds, workers):
    """Repeat the workload's identical pass until another would overrun ``seconds``.

    Set-up is timed again between cells, so ``setup_s`` samples the machine
    across the run rather than at its two ends.
    """
    passes = []
    start = perf_counter()
    while True:
        passes.append(workload.run_pass(setup, seed, OUT_DIR, workers,
                                        between=lambda: workload.setup(setup)))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    first = passes[0]
    metrics = {
        "run_s": (median(p.seconds for p in passes), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "two_phase_profit_mean": (first.two_phase_profit_mean, "profit"),
        "one_phase_profit": (first.one_phase_profit, "profit"),
    }
    return metrics, passes, {}


COUNTER_SUFFIXES = (".calls", "profit.cascades", ".evals_per_select", "distinct_observations")


def traced_run(workload, setup, seed, workers):
    """One untraced pass, then the same pass traced in-process."""
    import tracing

    untraced = workload.run_pass(setup, seed, OUT_DIR, workers)
    with tracing.Tracer() as tracer:
        traced = workload.run_pass(setup, seed, OUT_DIR, 1)
    tracer.write(OUT_DIR / f"{workload.name}-seed{seed}-spans.jsonl")

    metrics = tracing.layer_metrics(tracer.spans)
    if workload.pooled:
        cell_s = untraced.cell_seconds
        metrics["experiment.cell_s_max"] = (max(cell_s), "s")
        metrics["experiment.worker_busy_frac"] = (sum(cell_s) / (workers * untraced.seconds), "frac")
    else:
        metrics["experiment.cell_s_max"] = (0.0, "s")
        metrics["experiment.worker_busy_frac"] = (0.0, "frac")
    # for the pooled workload this compares cell seconds in-process against in the pool
    overhead = sum(traced.cell_seconds) / sum(untraced.cell_seconds) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "frac")
    counters = {k: v for k, (v, _) in metrics.items() if k.endswith(COUNTER_SUFFIXES)}
    return metrics, [untraced, traced], counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workers = min(2, _nproc())
    if workload.pooled:
        workload.install_checks()

    setup = workloads.Setup()
    workload.setup(setup)
    fixture = {"nodes": setup.graph.node_count, "arcs": setup.graph.arc_count}
    if args.trace:
        metrics, passes, counters = traced_run(workload, setup, args.seed, workers)
    else:
        metrics, passes, counters = timed_run(workload, setup, args.seed, args.seconds, workers)
    # a second round of set-ups, after the passes, samples the machine at another time
    workload.setup(setup)
    if args.trace:
        metrics = {"loader.build_s": (setup.build_s, "s"),
                   "loader.attributes_s": (setup.attributes_s, "s"), **metrics}
    else:
        metrics = {"setup_s": (setup.setup_s, "s"), **metrics}

    problems = {}
    for k, p in enumerate(passes):
        problems.update({f"pass{k}/{op}": msg for op, msg in p.problems.items()})
        if p.digest != passes[0].digest:
            problems[f"pass{k}/digest"] = f"pass {k} digest {p.digest} differs from {passes[0].digest}"
    attempted = sum(p.attempted for p in passes)
    failed = min(len(problems), attempted)

    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:16.6f} {unit}")
    print(f"{'failed_frac':46s} {failed / attempted:16.6f} frac ({failed} of {attempted} operations)")
    print(f"passes {len(passes)}, result digest {passes[0].digest}, "
          f"set-up repeated {len(setup.builds)}x, fixture {fixture['nodes']} nodes / {fixture['arcs']} arcs")
    for msg in list(problems.values())[:20]:
        print(f"FAILED: {msg}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": _nproc(),
        "workers": workers,
        "fixture": fixture,
        "digest": passes[0].digest,
        "passes": [p.seconds for p in passes],
        "counters": counters,
        "attempted": attempted,
        "failed": failed,
        "problems": list(problems.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"run record: {record_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
