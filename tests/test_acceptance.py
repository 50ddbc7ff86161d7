"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The protocol-scale checks (criteria 5 and 6) take a few minutes.
"""

import itertools
import os
import random
import time
from pathlib import Path

import pytest

from profitmax.diffusion import sample_live_graphs
from profitmax.experiment import BatchConfig, run_batch
from profitmax.graph import NodeEconomics, build_graph, exclude_nodes, seed_cost
from profitmax.loader import AttributeSpec, generate_attributes, load_snap_edge_list, preferential_attachment_graph
from profitmax.profit import (
    estimate_profit,
    exact_benefit,
    exact_profit,
)
from profitmax.rng import RandomSource
from profitmax.selection import SELECTORS, SNAPSHOT_SELECTORS, double_greedy, select, single_greedy
from profitmax.twophase import PhaseConfig, exact_two_phase_profit, run_single_phase, run_two_phase

DATA = Path(__file__).parent / "data"


def _report(num, label, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\n[criterion {num}] {label}: {status}{timing}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def _random_instance(rnd, uniform):
    n = rnd.randint(2, 6)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = rnd.randint(1, min(12, len(pairs)))
    chosen = rnd.sample(pairs, m)
    levels = [round(0.1 * k, 1) for k in range(1, 10)]
    if uniform:
        p = rnd.choice(levels)
        edges = [(u, v, p) for u, v in chosen]
    else:
        edges = [(u, v, rnd.choice(levels)) for u, v in chosen]
    g = build_graph(edges, directed=True)
    size = g.base_node_count
    econ = NodeEconomics(tuple(rnd.randint(50, 100) for _ in range(size)),
                         tuple(rnd.randint(800, 1000) for _ in range(size)))
    seeds = sorted(rnd.sample(range(size), rnd.randint(1, min(2, size))))
    return g, econ, seeds


def test_criterion_1_estimator_matches_enumeration_oracle():
    started = time.perf_counter()
    rnd = random.Random(20240802)
    source = RandomSource(910)
    replications = 200_000
    failures = []
    for k in range(20):
        g, econ, seeds = _random_instance(rnd, uniform=(k % 2 == 0))
        true_benefit = exact_benefit(g, econ, seeds)
        true_profit = true_benefit - seed_cost(econ, seeds)
        # benefit is the profit estimate with the seed cost added back
        est_b = estimate_profit(g, econ, seeds, replications, source.stream("benefit", k))
        est_p = estimate_profit(g, econ, seeds, replications, source.stream("profit", k))
        for name, est, mean, truth in (
                ("benefit", est_b, est_b.mean + seed_cost(econ, seeds), true_benefit),
                ("profit", est_p, est_p.mean, true_profit)):
            if abs(mean - truth) > 3 * est.std_error + 1e-9:
                failures.append(f"graph {k} {name}: |{mean:.3f} - {truth:.3f}| > 3se={3 * est.std_error:.3f}")
            if abs(mean - truth) > 0.01 * abs(truth):
                failures.append(f"graph {k} {name}: relative error above 1%")
    elapsed = time.perf_counter() - started
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _report(1, "Monte Carlo estimates agree with the enumeration oracle", failures, elapsed)


def test_criterion_2_trivial_identities():
    failures = []
    g = build_graph([(0, 1, 0.5), (1, 2, 0.5)], directed=True)
    econ = NodeEconomics((3, 3, 3), (10, 10, 10))
    replications = 100
    src = RandomSource(0)
    # influence is profit plus the seed count under unit economics, and
    # benefit is profit plus the seed cost
    unit = NodeEconomics((1, 1, 1), (1, 1, 1))
    if estimate_profit(g, unit, set(), replications, src.stream("i")).mean != 0.0:
        failures.append("influence of empty seed set not exactly 0")
    empty = estimate_profit(g, econ, set(), replications, src.stream("b"))
    if empty.mean + seed_cost(econ, set()) != 0.0:
        failures.append("benefit of empty seed set not exactly 0")
    if estimate_profit(g, econ, set(), replications, src.stream("p")).mean != 0.0:
        failures.append("profit of empty seed set not exactly 0")
    if exact_benefit(g, econ, set()) != 0.0 or exact_profit(g, econ, set()) != 0.0:
        failures.append("exact oracle not exactly 0 on the empty set")

    # deterministic instance: diamond plus tail, every arc certain
    det = build_graph([(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
                      directed=True)
    det_econ = NodeEconomics((7, 5, 5, 5, 5), (800, 850, 900, 950, 1000))
    hand_benefit = 800 + 850 + 900 + 950 + 1000  # seeds {0} reach everything
    hand_profit = hand_benefit - 7
    est = estimate_profit(det, det_econ, {0}, replications, src.stream("d"))
    if est.mean != hand_profit or est.std_error != 0.0:
        failures.append(f"deterministic estimate {est.mean} != {hand_profit}")
    if exact_profit(det, det_econ, {0}) != pytest.approx(hand_profit):
        failures.append("deterministic exact profit mismatch")
    partial = estimate_profit(det, det_econ, {1}, replications, src.stream("e"))
    if partial.mean + seed_cost(det_econ, {1}) != 850 + 950 + 1000:  # 1 -> 3 -> 4
        failures.append("deterministic partial reachability mismatch")
    _report(2, "trivial identities hold exactly", failures)


def test_criterion_3_objective_shape_witnesses():
    started = time.perf_counter()
    arc_patterns = [
        [(0, 1), (1, 2)],
        [(0, 1), (0, 2)],
        [(0, 2), (1, 2)],
        [(0, 1), (1, 2), (0, 2)],
        [(0, 1), (1, 0), (1, 2)],
    ]
    cost_grid = [(1, 1, 1), (1, 3, 1), (3, 1, 1), (9, 1, 1), (1, 1, 9), (2, 5, 2)]
    benefit_grid = [(2, 2, 2), (1, 1, 8), (8, 1, 1), (1, 8, 1), (5, 5, 5)]
    nodes = [0, 1, 2]
    witnesses = {
        "positive value": None,
        "negative value": None,
        "gain above zero": None,
        "gain below zero": None,
        "submodularity violated": None,
        "supermodularity violated": None,
        "subadditivity violated": None,
        "superadditivity violated": None,
    }

    def record(name, item):
        if witnesses[name] is None:
            witnesses[name] = item

    for pattern, p, costs, benefits, d, b2 in itertools.product(
            arc_patterns, [0.5, 1.0], cost_grid, benefit_grid, [1, 2], [0, 1, 3, 9]):
        if all(witnesses.values()):
            break
        g = build_graph([(u, v, p) for u, v in pattern], directed=True)
        econ = NodeEconomics(costs, benefits)
        cache = {}

        def objective(s):
            key = frozenset(s)
            if key not in cache:
                cache[key] = exact_two_phase_profit(g, econ, sorted(key), d, b2)
            return cache[key]

        witness_tag = (pattern, p, costs, benefits, d, b2)
        for u in nodes:
            others = [x for x in nodes if x != u]
            subsets = [set(c) for k in range(len(others) + 1)
                       for c in itertools.combinations(others, k)]
            for s in subsets:
                value = objective(s | {u})
                if value > 1e-9:
                    record("positive value", witness_tag)
                if value < -1e-9:
                    record("negative value", witness_tag)
                gain = value - objective(s)
                if gain > 1e-9:
                    record("gain above zero", witness_tag)
                if gain < -1e-9:
                    record("gain below zero", witness_tag)
                for t in subsets:
                    if not s < t:
                        continue
                    gain_small, gain_large = gain, objective(t | {u}) - objective(t)
                    if gain_small < gain_large - 1e-9:
                        record("submodularity violated", witness_tag)
                    if gain_small > gain_large + 1e-9:
                        record("supermodularity violated", witness_tag)
        # additivity over arbitrary pairs (overlap allowed, as in the standard
        # definition); disjoint pairs alone never violate subadditivity here
        pairs = [({0}, {1}), ({0}, {2}), ({1}, {2}), ({0, 1}, {2}), ({0}, {0, 1}),
                 ({1}, {1, 2}), ({0, 2}, {2}), ({0, 1}, {1, 2})]
        for a, b in pairs:
            lhs = objective(a | b)
            rhs = objective(a) + objective(b)
            if lhs > rhs + 1e-9:
                record("subadditivity violated", witness_tag)
            if lhs < rhs - 1e-9:
                record("superadditivity violated", witness_tag)

    elapsed = time.perf_counter() - started
    failures = [f"no witness: {name}" for name, w in witnesses.items() if w is None]
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(3, "objective sign/monotonicity/modularity/additivity witnesses found", failures, elapsed)


def _shared(name, g, replications, source):
    # what select takes for name: a greedy selector's sample, from source's
    # snapshots stream; None for a baseline
    if name not in SNAPSHOT_SELECTORS:
        return None
    return sample_live_graphs(g, replications, source.stream("snapshots"))


def test_criterion_4_selector_contracts():
    started = time.perf_counter()
    rnd = random.Random(515)
    failures = []
    replications = 10
    for trial in range(100):
        n = rnd.randint(2, 7)
        edges = [(u, v, rnd.choice([0.2, 0.5, 0.8]))
                 for u in range(n) for v in range(n) if u != v and rnd.random() < 0.35]
        if not edges:
            edges = [(0, n - 1, 0.5)]
        g = build_graph(edges, directed=True)
        size = g.base_node_count
        econ = NodeEconomics(tuple(rnd.randint(1, 9) for _ in range(size)),
                             tuple(rnd.randint(1, 25) for _ in range(size)))
        budget = rnd.randint(0, 30)
        source = RandomSource(trial)
        for name in SELECTORS:
            out = select(name, g, econ, budget, replications, source.child(name),
                         _shared(name, g, replications, source.child(name)))
            if out.spent > budget or out.spent != seed_cost(econ, out.seeds):
                failures.append(f"trial {trial} {name}: budget violated")
        sample = _shared("single_greedy", g, replications, source.child("single_greedy"))
        sg_out = single_greedy(g, econ, budget, sample)
        # a sample redrawn from the same stream replays the outcome
        sample = _shared("single_greedy", g, replications, source.child("single_greedy"))
        if select("single_greedy", g, econ, budget, replications, None, sample) != sg_out:
            failures.append(f"trial {trial}: single-greedy trace does not replay")
        dg_sample = _shared("double_greedy", g, replications, source.child("double_greedy"))
        dg_out = double_greedy(g, econ, budget, dg_sample)
        added = {e.node for e in dg_out.trace if e.decision == "accepted"}
        dropped = {e.node for e in dg_out.trace if e.decision in ("unaffordable", "rejected_gain")}
        if added != set(dg_out.seeds) or added | dropped != set(g.nodes) or added & dropped:
            failures.append(f"trial {trial}: double-greedy grow/shrink sets diverge")
    elapsed = time.perf_counter() - started
    _report(4, "selector contracts over 100 randomized configurations", failures, elapsed)


FIXTURE_SEED = 7


def _fixture_200():
    g = preferential_attachment_graph(200, 3, seed=FIXTURE_SEED, probability=0.01)
    econ = generate_attributes(g, AttributeSpec((50, 100), (800, 1000), attribute_seed=11))
    return g, econ


def test_criterion_5_protocol_scale_run():
    g, econ = _fixture_200()
    failures = []
    timings = {}
    for algorithm, bound in (("single_greedy", 600.0), ("double_greedy", 300.0)):
        cfg = PhaseConfig(total_budget=500, split_fraction=0.6, observation_step=3,
                          phase1_observations=100, phase2_runs_per_observation=100,
                          algorithm=algorithm, master_seed=2024, selection_replications=100)
        started = time.perf_counter()
        result = run_two_phase(cfg, g, econ)
        elapsed = time.perf_counter() - started
        timings[algorithm] = elapsed
        if elapsed >= bound:
            failures.append(f"{algorithm}: {elapsed:.1f}s >= {bound}s")
        for rec in result.observations:
            if result.phase1.spent + rec.phase2_selection.spent > cfg.total_budget:
                failures.append(f"{algorithm} obs {rec.index}: rollover conservation violated")
            if set(rec.phase2_selection.seeds) & rec.already_active:
                failures.append(f"{algorithm} obs {rec.index}: phase-two seeds overlap active set")
    label = (f"full protocol on the 200-node fixture "
             f"(single {timings['single_greedy']:.0f}s, double {timings['double_greedy']:.0f}s)")
    _report(5, label, failures)


def test_criterion_6_series_emission_and_deterministic_dominance(tmp_path):
    started = time.perf_counter()
    failures = []
    # (a) complete plot series for every algorithm over the five budget levels;
    # replication counts are scaled down to keep this at desk runtime
    budgets = (500, 1000, 1500, 2000, 2500)
    cfg = BatchConfig(
        dataset=f"pa:200:3:{FIXTURE_SEED}",
        algorithms=tuple(sorted(SELECTORS)),
        budgets=budgets,
        probability=0.01,
        split=0.6,
        observation_step=3,
        observations=5,
        phase2_runs=5,
        selection_replications=10,
        cost_range=(50, 100),
        benefit_range=(800, 1000),
        attribute_seed=11,
        master_seed=31,
        output_dir=str(tmp_path / "series"),
    )
    records = run_batch(cfg)
    seen = {(r.algorithm, r.budget) for r in records}
    expected = {(a, b) for a in cfg.algorithms for b in budgets}
    if seen != expected:
        failures.append(f"incomplete series: missing {expected - seen}")
    out = tmp_path / "series"
    for name in ("results.csv", "plot_seed_cardinality.csv", "plot_profit_difference.csv"):
        lines = (out / name).read_text().splitlines()
        if len(lines) != 1 + len(expected):
            failures.append(f"{name}: {len(lines) - 1} rows, expected {len(expected)}")

    # (b) with certain arcs, rolling unspent budget forward can only help:
    # each greedy selector's two-phase profit must reach its one-phase profit
    chains = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8)]
    det = build_graph([(u, v, 1.0) for u, v in chains], directed=True)
    det_econ = NodeEconomics((5, 4, 4, 4, 6, 4, 4, 5, 4), (90, 80, 70, 60, 85, 75, 65, 88, 78))
    for algorithm in ("single_greedy", "double_greedy"):
        pc = PhaseConfig(total_budget=11, split_fraction=0.6, observation_step=2,
                         phase1_observations=3, phase2_runs_per_observation=3,
                         algorithm=algorithm, master_seed=5, selection_replications=5)
        two = run_two_phase(pc, det, det_econ)
        _, single = run_single_phase(pc, det, det_econ)
        if two.best_total_profit < single.mean - 1e-9:
            failures.append(
                f"{algorithm}: two-phase {two.best_total_profit:.4f} < one-phase {single.mean:.4f}")
    elapsed = time.perf_counter() - started
    _report(6, "plot series complete; deterministic two-phase never trails one-phase", failures, elapsed)


SNAP_FILES = {
    "email-Eu-core.txt": (False, 1005, 16706),
    "wiki-Vote.txt": (True, 7115, 103689),
    "soc-sign-bitcoin-alpha.csv": (True, 3783, 24186),
}


def _snap_root():
    for candidate in (os.environ.get("PROFITMAX_DATA_DIR"), "data", "datasets"):
        if candidate and Path(candidate).is_dir():
            return Path(candidate)
    return None


def test_criterion_7_dataset_loader_counts():
    failures = []
    g = load_snap_edge_list(DATA / "mini_undirected.txt", directed=False)
    if (g.node_count, g.arc_count // 2) != (5, 6):
        failures.append("bundled undirected fixture counts wrong")
    if g.self_loops_dropped != 1 or g.duplicates_collapsed != 1:
        failures.append("bundled fixture cleanup counts wrong")
    g = load_snap_edge_list(DATA / "mini_directed.txt", directed=True)
    if (g.node_count, g.arc_count) != (4, 4):
        failures.append("bundled directed fixture counts wrong")
    g = load_snap_edge_list(DATA / "mini_weighted.csv", directed=True)
    if (g.node_count, g.arc_count) != (4, 4):
        failures.append("bundled weighted fixture counts wrong")

    root = _snap_root()
    checked = []
    if root is not None:
        for filename, (directed, nodes, edges) in SNAP_FILES.items():
            path = root / filename
            if not path.exists():
                continue
            g = load_snap_edge_list(path, directed=directed)
            count = g.arc_count if directed else g.arc_count // 2
            if (g.node_count, count) != (nodes, edges):
                failures.append(f"{filename}: got {g.node_count}/{count}, want {nodes}/{edges}")
            checked.append(filename)
    note = f"real SNAP files checked: {checked}" if checked else "real SNAP files absent, fixtures only"
    _report(7, f"dataset loader counts ({note})", failures)


def test_criterion_8_byte_identical_reruns(tmp_path):
    base = dict(
        dataset="pa:40:2:9", algorithms=("random", "double_greedy"), budgets=(8, 14),
        probability=0.05, split=0.6, observation_step=2, observations=4, phase2_runs=5,
        selection_replications=8, cost_range=(2, 5), benefit_range=(10, 20),
        attribute_seed=3, master_seed=77,
    )
    outputs = []
    for tag, workers in (("first", 1), ("second", 1), ("parallel", 2)):
        cfg = BatchConfig(output_dir=str(tmp_path / tag), workers=workers, **base)
        run_batch(cfg)
        outputs.append({
            name: (tmp_path / tag / name).read_bytes()
            for name in ("results.csv", "plot_seed_cardinality.csv", "plot_profit_difference.csv")
        })
    failures = []
    if outputs[0] != outputs[1]:
        failures.append("rerun with identical seed changed the outputs")
    if outputs[0] != outputs[2]:
        failures.append("worker count changed the outputs")
    _report(8, "reruns are byte-identical regardless of worker count", failures)
