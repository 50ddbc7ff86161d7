"""The benchmark's workloads: fixture set-up, the cells a run times, output checks.

A workload is a fixed fixture plus a list of protocol cells whose master seeds
come from the workload seed.  ``sparse-greedy`` and ``dense-double`` call
``run_two_phase`` and ``run_single_phase`` directly; ``wiki-baselines`` goes
through the pooled ``run_batch``.  Every cell is checked against the protocol's
invariants (criterion 5) and folded into a result digest of its seeds and its
4-decimal profits, so repeated runs of one seed can be compared exactly.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from profitmax import experiment, graph, loader, twophase
from profitmax.rng import RandomSource

# pinned for every workload: only the master seeds follow the workload seed
ATTRIBUTES = loader.AttributeSpec(cost_range=(50, 100), benefit_range=(800, 1000), attribute_seed=11)
SPARSE_FIXTURE = "pa:200:3:7"
WIKI_FIXTURE = "pa:7115:15:7"
UNIFORM_P = 0.01


class OutputCheckError(Exception):
    """A cell's output broke a protocol invariant."""


@dataclass
class PassResult:
    """One timed pass over a workload's cells."""

    seconds: float
    cell_seconds: list
    digest: str
    attempted: int
    problems: dict
    two_phase_profit_mean: float
    one_phase_profit: float


@dataclass
class Setup:
    """The fixture, and the seconds of every time it was materialised."""

    graph: object = None
    econ: object = None
    builds: list = field(default_factory=list)
    attributes: list = field(default_factory=list)

    @property
    def setup_s(self):
        return median(b + a for b, a in zip(self.builds, self.attributes))

    @property
    def build_s(self):
        return median(self.builds)

    @property
    def attributes_s(self):
        return median(self.attributes)


# -- set-up ---------------------------------------------------------------------


def _uniform_graph(spec):
    return experiment.resolve_dataset(spec, False, UNIFORM_P)


def _weighted_cascade_graph():
    # p(u->v) = 1/deg(v) is non-uniform, so the estimator takes the Bernoulli sampler
    base = experiment.resolve_dataset(SPARSE_FIXTURE, False, UNIFORM_P)
    arcs = [(u, v, 1.0 / graph.degree(base, v)) for u, v, _ in base.arc_list()]
    return graph.build_graph(arcs, directed=True)


def time_setup(build, setup, min_repeats, min_seconds):
    """Materialise the fixture and its attributes until both floors are met.

    Keeps the first graph and economics on ``setup``; later repeats only add
    timings, whose medians make a 2 ms set-up as steady as a 0.4 s one.
    """
    spent = 0.0
    repeats = 0
    while repeats < min_repeats or spent < min_seconds:
        t0 = perf_counter()
        g = build()
        t1 = perf_counter()
        econ = loader.generate_attributes(g, ATTRIBUTES)
        t2 = perf_counter()
        setup.builds.append(t1 - t0)
        setup.attributes.append(t2 - t1)
        if setup.graph is None:
            setup.graph, setup.econ = g, econ
        del g, econ
        spent += t2 - t0
        repeats += 1


# -- output checks ----------------------------------------------------------------


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def check_two_phase(cfg, econ, result) -> dict:
    """Criterion-5 invariants of one two-phase result, keyed by failing operation."""
    problems = {}
    p1 = result.phase1
    if p1.spent != graph.seed_cost(econ, p1.seeds) or p1.spent > cfg.budget_phase1:
        problems["phase1"] = f"phase one spent {p1.spent} of budget {cfg.budget_phase1}"
    for rec in result.observations:
        sel = rec.phase2_selection
        op = f"phase2[{rec.index}]"
        if sel.spent != graph.seed_cost(econ, sel.seeds) or sel.spent > rec.phase2_budget:
            problems[op] = f"{op} spent {sel.spent} of budget {rec.phase2_budget}"
        elif p1.spent + sel.spent > cfg.total_budget:
            problems[op] = f"{op} total spend {p1.spent + sel.spent} over {cfg.total_budget}"
        elif not rec.already_active.isdisjoint(sel.seeds):
            problems[op] = f"{op} reseeded already-active nodes"
        elif not _finite(rec.total_profit, rec.phase2_profit.mean):
            problems[op] = f"{op} profit is not finite"
    if not _finite(result.best_total_profit, result.mean_total_profit, result.std_total_profit):
        problems["cell"] = "two-phase aggregate profit is not finite"
    return problems


def check_single_phase(cfg, econ, result) -> dict:
    outcome, est = result
    if outcome.spent != graph.seed_cost(econ, outcome.seeds) or outcome.spent > cfg.total_budget:
        return {"single": f"single phase spent {outcome.spent} of budget {cfg.total_budget}"}
    if not _finite(est.mean):
        return {"single": "single-phase profit is not finite"}
    return {}


def _raising(fn, check):
    # run_batch's pool workers cannot report back a problem list, so there a
    # violated invariant raises and fails the whole batch
    def checked(cfg, g, econ):
        result = fn(cfg, g, econ)
        problems = check(cfg, econ, result)
        if problems:
            raise OutputCheckError(f"{cfg.algorithm}: " + "; ".join(problems.values()))
        return result
    return checked


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _ops(observations) -> int:
    # a cell, its phase-one selection, one phase-two selection per
    # observation, and its single-phase selection
    return observations + 3


def _fmt(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


# -- workloads ----------------------------------------------------------------------


class CellWorkload:
    """Cells run in-process through ``run_two_phase`` and ``run_single_phase``."""

    pooled = False

    def __init__(self, name, build, configs):
        self.name = name
        self._build = build
        self._configs = configs

    def setup(self, setup):
        time_setup(self._build, setup, min_repeats=25, min_seconds=0.5)

    def run_pass(self, setup, seed, out_dir, workers, between=None) -> PassResult:
        g, econ = setup.graph, setup.econ
        cell_seconds, lines, problems = [], [], {}
        attempted = 0
        two_means, one_means = [], []
        for k, cfg in enumerate(self._configs(seed)):
            if k and between is not None:
                between()
            attempted += _ops(cfg.phase1_observations)
            cell = f"{cfg.algorithm}@{cfg.master_seed}"
            t0 = perf_counter()
            try:
                two = twophase.run_two_phase(cfg, g, econ)
                single = twophase.run_single_phase(cfg, g, econ)
                t1 = perf_counter()
                found = {**check_two_phase(cfg, econ, two), **check_single_phase(cfg, econ, single)}
            except Exception as exc:  # a failing cell is counted, not fatal
                cell_seconds.append(perf_counter() - t0)
                for op in range(_ops(cfg.phase1_observations)):
                    problems[f"{cell}/op{op}"] = f"{cell}: {type(exc).__name__}: {exc}"
                continue
            cell_seconds.append(t1 - t0)
            problems.update({f"{cell}/{op}": msg for op, msg in found.items()})
            outcome, est = single
            two_means.append(two.mean_total_profit)
            one_means.append(est.mean)
            lines.append("|".join([
                cell,
                f"p1={list(two.phase1.seeds)}",
                "p2=" + ";".join(str(list(r.phase2_selection.seeds)) for r in two.observations),
                "totals=" + ",".join(f"{r.total_profit:.4f}" for r in two.observations),
                f"sp={list(outcome.seeds)}",
                f"one={est.mean:.4f}",
            ]))
        return PassResult(
            seconds=sum(cell_seconds),
            cell_seconds=cell_seconds,
            digest=_digest(lines),
            attempted=attempted,
            problems=problems,
            two_phase_profit_mean=_mean(two_means),
            one_phase_profit=_mean(one_means),
        )


class BatchWorkload:
    """Cells run by ``run_batch`` in a process pool, outputs written to disk."""

    pooled = True
    OBSERVATIONS = 4
    ALGORITHMS = ("random", "high_degree", "clustering_coefficient", "single_discount")

    def __init__(self, name):
        self.name = name

    def setup(self, setup):
        time_setup(lambda: _uniform_graph(WIKI_FIXTURE), setup, min_repeats=4, min_seconds=1.5)

    def batch_config(self, seed, out_dir, workers):
        return experiment.BatchConfig(
            dataset=WIKI_FIXTURE,
            algorithms=self.ALGORITHMS,
            budgets=(500,),
            probability=UNIFORM_P,
            observations=self.OBSERVATIONS,
            phase2_runs=100,
            selection_replications=100,
            cost_range=ATTRIBUTES.cost_range,
            benefit_range=ATTRIBUTES.benefit_range,
            attribute_seed=ATTRIBUTES.attribute_seed,
            master_seed=seed,
            output_dir=str(out_dir / f"{self.name}-batch"),
            workers=workers,
        )

    def install_checks(self):
        """Make every cell of ``run_batch`` check its own outputs.

        The checks are bound into ``profitmax.experiment`` before the pool
        starts; pool workers inherit them only when forked, so fork is
        required rather than left to the platform default.
        """
        multiprocessing.set_start_method("fork", force=True)
        experiment.run_two_phase = _raising(experiment.run_two_phase, check_two_phase)
        experiment.run_single_phase = _raising(experiment.run_single_phase, check_single_phase)

    def run_pass(self, setup, seed, out_dir, workers, between=None) -> PassResult:
        cfg = self.batch_config(seed, out_dir, workers)
        attempted = len(cfg.algorithms) * len(cfg.budgets) * _ops(cfg.observations)
        t0 = perf_counter()
        try:
            records = experiment.run_batch(cfg)
        except Exception as exc:  # includes OutputCheckError raised in a worker
            seconds = perf_counter() - t0
            msg = f"run_batch: {type(exc).__name__}: {exc}"
            problems = {f"op{op}": msg for op in range(attempted)}
            return PassResult(seconds, [seconds], "", attempted, problems, 0.0, 0.0)
        seconds = perf_counter() - t0
        problems = {}
        for r in records:
            cell = f"{r.algorithm}:{r.budget}"
            if not _finite(r.one_phase_profit, r.two_phase_profit_max, r.two_phase_profit_mean):
                problems[cell] = f"{cell} profit is not finite"
            elif r.total_seed_count != r.phase1_seed_count + r.phase2_seed_count:
                problems[cell] = f"{cell} phase-two seeds overlap phase-one seeds"
        lines = ["|".join(_fmt(getattr(r, column)) for column in experiment.RESULT_COLUMNS)
                 for r in records]
        return PassResult(
            seconds=seconds,
            cell_seconds=[r.wall_clock_seconds for r in records],
            digest=_digest(lines),
            attempted=attempted,
            problems=problems,
            two_phase_profit_mean=_mean([r.two_phase_profit_mean for r in records]),
            one_phase_profit=_mean([r.one_phase_profit for r in records]),
        )


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _cells(seed, count, **knobs):
    # distinct master seeds per cell average out how much work one seed draws
    source = RandomSource(seed)
    return [twophase.PhaseConfig(master_seed=source.child("cell", k).seed64(), **knobs)
            for k in range(count)]


def _sparse_cells(seed):
    return _cells(seed, 3, total_budget=500, split_fraction=0.6, observation_step=3,
                  phase1_observations=100, phase2_runs_per_observation=100,
                  algorithm="single_greedy", selection_replications=100)


def _dense_cells(seed):
    return _cells(seed, 2, total_budget=1000, split_fraction=0.6, observation_step=3,
                  phase1_observations=3, phase2_runs_per_observation=100,
                  algorithm="double_greedy", selection_replications=100)


WORKLOADS = {
    w.name: w for w in (
        CellWorkload("sparse-greedy", lambda: _uniform_graph(SPARSE_FIXTURE), _sparse_cells),
        CellWorkload("dense-double", _weighted_cascade_graph, _dense_cells),
        BatchWorkload("wiki-baselines"),
    )
}
