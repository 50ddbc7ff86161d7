"""Spans around profitmax's public functions, and the per-layer metrics from them.

Tracing patches each function where its caller binds it (for example
``profitmax.selection.estimate_profit``), so the program itself is unchanged.
Spans stay in memory as ``[name, start, end, parent, cell, info]`` and are
written out once, after the run.  A span's cell is the ``PhaseConfig`` it or an
ancestor was called with; ``info`` carries what a metric needs from the call
(the selector name, the replication count, the distinct observations).
"""

from __future__ import annotations

import json
from statistics import median, quantiles
from time import perf_counter

from profitmax import experiment, profit, selection, twophase
from profitmax.twophase import PhaseConfig


def _algorithm(args, result):
    return args[0]


def _replications(args, result):
    return result.replications


def _distinct_observations(args, result):
    _, observations = result
    return len({(o.already_active, o.newly_active) for o in observations})


# (module, attribute, span name, info) -- the span name is layer.function
PATCHES = (
    (experiment, "run_batch", "experiment.run_batch", None),
    (experiment, "write_outputs", "experiment.write_outputs", None),
    (experiment, "run_two_phase", "twophase.run_two_phase", None),
    (experiment, "run_single_phase", "twophase.run_single_phase", None),
    (twophase, "run_two_phase", "twophase.run_two_phase", None),
    (twophase, "run_single_phase", "twophase.run_single_phase", None),
    (twophase, "run_phase1", "twophase.run_phase1", _distinct_observations),
    (twophase, "run_phase2", "twophase.run_phase2", None),
    (twophase, "select", "selection.select", _algorithm),
    (twophase, "observe_until", "diffusion.observe_until", None),
    (twophase, "exclude_nodes", "graph.exclude_nodes", None),
    (twophase, "estimate_profit", "profit.estimate_profit", _replications),
    (selection, "estimate_profit", "profit.estimate_profit", _replications),
    (selection, "marginal_profit_gain", "profit.marginal_profit_gain", None),
    (selection, "degree", "graph.degree", None),
    (selection, "clustering_coefficient", "graph.clustering_coefficient", None),
    # marginal_profit_gain's own two estimates
    (profit, "estimate_profit", "profit.estimate_profit", _replications),
)

ALGORITHMS = tuple(sorted(selection.SELECTORS))


class Tracer:
    """Context manager that patches :data:`PATCHES` and records spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr, name, info in PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, info))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if args and isinstance(args[0], PhaseConfig):
                cell = f"{args[0].algorithm}@{args[0].master_seed}"
            else:
                cell = spans[parent][4] if parent >= 0 else None
            span = [name, 0.0, 0.0, parent, cell, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cell, info in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "cell": cell, "info": info,
                }) + "\n")


def _self_seconds(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def _enclosing(spans, i, name):
    parent = spans[i][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans):
    """Per-layer metrics, as ``{name: (value, unit)}``, from one traced pass."""
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    dur = [end - start for _, start, end, _, _, _ in spans]
    self_s = _self_seconds(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    m = {}
    for fn in ("exclude_nodes", "degree", "clustering_coefficient"):
        m[f"graph.{fn}.calls"] = (calls(f"graph.{fn}"), "count")
        m[f"graph.{fn}.s"] = (total(f"graph.{fn}"), "s")
    m["diffusion.observe_until.calls"] = (calls("diffusion.observe_until"), "count")
    m["diffusion.observe_until.s"] = (total("diffusion.observe_until"), "s")

    estimates = by_name.get("profit.estimate_profit", [])
    cascades = sum(spans[i][5] for i in estimates)
    estimate_s = total("profit.estimate_profit")
    m["profit.estimate_profit.calls"] = (len(estimates), "count")
    m["profit.estimate_profit.s"] = (estimate_s, "s")
    m["profit.estimate_profit.ms_p50"] = (_pct([dur[i] * 1e3 for i in estimates], 50), "ms")
    m["profit.cascades"] = (cascades, "count")
    m["profit.cascades_per_s"] = (cascades / estimate_s if estimate_s else 0.0, "1/s")
    m["profit.marginal_profit_gain.calls"] = (calls("profit.marginal_profit_gain"), "count")
    m["profit.marginal_profit_gain.s"] = (total("profit.marginal_profit_gain"), "s")

    selects = by_name.get("selection.select", [])
    evals = {i: 0 for i in selects}
    for i in estimates:
        owner = _enclosing(spans, i, "selection.select")
        if owner >= 0:
            evals[owner] += 1
    for alg in ALGORITHMS:
        mine = [i for i in selects if spans[i][5] == alg]
        secs = [dur[i] for i in mine]
        m[f"selection.{alg}.select.calls"] = (len(mine), "count")
        m[f"selection.{alg}.select.s_p50"] = (median(secs) if secs else 0.0, "s")
        m[f"selection.{alg}.select.s_max"] = (max(secs, default=0.0), "s")
        m[f"selection.{alg}.evals_per_select"] = (
            sum(evals[i] for i in mine) / len(mine) if mine else 0.0, "evals/select")
        m[f"selection.{alg}.self_s"] = (sum(self_s[i] for i in mine), "s")

    phase2 = [dur[i] * 1e3 for i in by_name.get("twophase.run_phase2", [])]
    m["twophase.run_phase1.s"] = (total("twophase.run_phase1"), "s")
    m["twophase.run_phase2.calls"] = (len(phase2), "count")
    m["twophase.run_phase2.ms_p50"] = (_pct(phase2, 50), "ms")
    m["twophase.run_phase2.ms_p90"] = (_pct(phase2, 90), "ms")
    m["twophase.run_phase2.self_s"] = (
        sum(self_s[i] for i in by_name.get("twophase.run_phase2", [])), "s")
    m["twophase.run_single_phase.s"] = (total("twophase.run_single_phase"), "s")
    m["twophase.distinct_observations"] = (
        sum(spans[i][5] for i in by_name.get("twophase.run_phase1", [])), "count")
    m["experiment.write_outputs.s"] = (total("experiment.write_outputs"), "s")
    return m

