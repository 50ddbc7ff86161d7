"""Batch experiment harness: config parsing, execution, CSV and plot emission.

A batch runs the two-phase protocol and its single-phase comparison for every
(algorithm, budget) cell of a flat key=value config.  Results are written as a
deterministic CSV (rerunning with the same master seed reproduces it byte for
byte, whatever the worker count), plus plot-ready series of seed-set
cardinality and two-minus-one-phase profit difference per algorithm.  Wall
clock goes to a separate timings sidecar so it never breaks reproducibility.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .graph import SocialGraph
from .loader import AttributeSpec, generate_attributes, load_snap_edge_list, preferential_attachment_graph
from .rng import RandomSource
from .selection import SELECTORS
from .twophase import PhaseConfig, run_single_phase, run_two_phase

__all__ = [
    "ExperimentRecord",
    "BatchConfig",
    "parse_config",
    "resolve_dataset",
    "run_batch",
    "write_outputs",
    "parse_experiment_csv",
    "RESULT_COLUMNS",
]

DATA_DIR_ENV = "PROFITMAX_DATA_DIR"

RESULT_COLUMNS = [
    "dataset",
    "algorithm",
    "budget",
    "split",
    "observation_step",
    "phase1_seed_count",
    "phase2_seed_count",
    "total_seed_count",
    "one_phase_profit",
    "two_phase_profit_max",
    "two_phase_profit_mean",
    "profit_difference",
    "master_seed",
]


@dataclass(frozen=True)
class ExperimentRecord:
    """One result row: a (dataset, algorithm, budget) cell."""

    dataset: str
    algorithm: str
    budget: int
    split: float
    observation_step: int
    phase1_seed_count: int
    phase2_seed_count: int
    total_seed_count: int
    one_phase_profit: float
    two_phase_profit_max: float
    two_phase_profit_mean: float
    profit_difference: float
    master_seed: int
    wall_clock_seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class BatchConfig:
    dataset: str
    algorithms: tuple
    budgets: tuple
    directed: bool = False
    probability: float = 0.01
    split: float = 0.6
    observation_step: int = 3
    observations: int = 100
    phase2_runs: int = 100
    selection_replications: int = 100
    cost_range: tuple = (50, 100)
    benefit_range: tuple = (800, 1000)
    attribute_seed: int = 1
    master_seed: int = 0
    output_dir: str = "out"
    workers: int = 1

    def __post_init__(self):
        for name in self.algorithms:
            if name not in SELECTORS:
                raise ValueError(f"unknown algorithm {name!r}; known: {', '.join(sorted(SELECTORS))}")
        if not self.budgets:
            raise ValueError("at least one budget is required")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.selection_replications < 1:
            raise ValueError(
                f"selection_replications must be >= 1, got {self.selection_replications}")


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

_PARSERS = {
    "dataset": str,
    "algorithms": lambda v: tuple(s.strip() for s in v.split(",") if s.strip()),
    "budgets": lambda v: tuple(int(s) for s in v.split(",")),
    "directed": lambda v: _BOOL[v.lower()],
    "probability": float,
    "split": float,
    "observation_step": int,
    "observations": int,
    "phase2_runs": int,
    "selection_replications": int,
    "cost_range": lambda v: tuple(int(s) for s in v.split(",")),
    "benefit_range": lambda v: tuple(int(s) for s in v.split(",")),
    "attribute_seed": int,
    "master_seed": int,
    "output_dir": str,
    "workers": int,
}


def parse_config(path) -> BatchConfig:
    """Parse a flat key=value config file (comma-separated list values)."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _PARSERS[key](value)
            except (ValueError, KeyError):
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    missing = {"dataset", "algorithms", "budgets"} - values.keys()
    if missing:
        raise ValueError(f"{path}: missing required config keys: {', '.join(sorted(missing))}")
    return BatchConfig(**values)


def resolve_dataset(spec: str, directed: bool, probability: float) -> SocialGraph:
    """Materialize a dataset spec: a file path or a ``pa:<n>:<attach>:<seed>`` fixture.

    Relative paths are also tried against the directory named by the
    PROFITMAX_DATA_DIR environment variable.
    """
    if spec.startswith("pa:"):
        try:
            _, n, attach, seed = spec.split(":")
            return preferential_attachment_graph(int(n), int(attach), int(seed), probability)
        except ValueError:
            raise ValueError(f"bad synthetic dataset spec {spec!r}; expected pa:<nodes>:<attach>:<seed>") from None
    path = Path(spec)
    if not path.exists():
        root = os.environ.get(DATA_DIR_ENV)
        if root and (Path(root) / spec).exists():
            path = Path(root) / spec
        else:
            raise FileNotFoundError(f"dataset not found: {spec}")
    return load_snap_edge_list(path, directed, probability)


def dataset_label(spec: str) -> str:
    if spec.startswith("pa:"):
        return spec
    return Path(spec).stem


def _run_cell(args):
    g, econ, label, algorithm, budget, cfg = args
    phase_cfg = PhaseConfig(
        total_budget=budget,
        split_fraction=cfg.split,
        observation_step=cfg.observation_step,
        phase1_observations=cfg.observations,
        phase2_runs_per_observation=cfg.phase2_runs,
        algorithm=algorithm,
        master_seed=RandomSource(cfg.master_seed).child(algorithm, budget).seed64(),
        selection_replications=cfg.selection_replications,
    )
    started = time.perf_counter()
    two = run_two_phase(phase_cfg, g, econ)
    _, single_est = run_single_phase(phase_cfg, g, econ)
    elapsed = time.perf_counter() - started
    best = two.observations[two.best_index]
    # profits carry the emitted 4-decimal precision so CSV rows round-trip
    # exactly; the difference column derives from the emitted operands
    quantize = lambda v: float(f"{v:.4f}")
    one_phase = quantize(single_est.mean)
    two_phase_max = quantize(two.best_total_profit)
    return ExperimentRecord(
        dataset=label,
        algorithm=algorithm,
        budget=budget,
        split=cfg.split,
        observation_step=cfg.observation_step,
        phase1_seed_count=len(two.phase1.seeds),
        phase2_seed_count=len(best.phase2_selection.seeds),
        total_seed_count=two.total_seed_count,
        one_phase_profit=one_phase,
        two_phase_profit_max=two_phase_max,
        two_phase_profit_mean=quantize(two.mean_total_profit),
        profit_difference=quantize(two_phase_max - one_phase),
        master_seed=cfg.master_seed,
        wall_clock_seconds=elapsed,
    )


def run_batch(cfg: BatchConfig, write: bool = True):
    """Run every (algorithm, budget) cell and optionally write the output files.

    Rows come back in config order whatever the worker count; each cell draws
    from streams derived only from names and the master seed, so scheduling
    cannot change any result.
    """
    g = resolve_dataset(cfg.dataset, cfg.directed, cfg.probability)
    econ = generate_attributes(g, AttributeSpec(cfg.cost_range, cfg.benefit_range, cfg.attribute_seed))
    label = dataset_label(cfg.dataset)
    cells = [(g, econ, label, algorithm, budget, cfg)
             for algorithm in cfg.algorithms for budget in cfg.budgets]
    if cfg.workers == 1:
        records = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_run_cell, cells))
    if write:
        write_outputs(cfg.output_dir, records)
    return records


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def write_outputs(output_dir, records):
    """Write results.csv, the two plot series, and the timing sidecar."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in records:
            writer.writerow([
                r.dataset, r.algorithm, r.budget, repr(r.split), r.observation_step,
                r.phase1_seed_count, r.phase2_seed_count, r.total_seed_count,
                _fmt(r.one_phase_profit), _fmt(r.two_phase_profit_max),
                _fmt(r.two_phase_profit_mean), _fmt(r.profit_difference), r.master_seed,
            ])
    with open(out / "plot_seed_cardinality.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "budget", "total_seed_count"])
        for r in records:
            writer.writerow([r.algorithm, r.budget, r.total_seed_count])
    with open(out / "plot_profit_difference.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "budget", "profit_difference"])
        for r in records:
            writer.writerow([r.algorithm, r.budget, _fmt(r.profit_difference)])
    with open(out / "timings.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "budget", "wall_clock_seconds"])
        for r in records:
            writer.writerow([r.algorithm, r.budget, _fmt(r.wall_clock_seconds)])


def parse_experiment_csv(path):
    """Read results.csv back into :class:`ExperimentRecord` rows (timing defaults to 0)."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV columns {reader.fieldnames}")
        for row in reader:
            records.append(ExperimentRecord(
                dataset=row["dataset"],
                algorithm=row["algorithm"],
                budget=int(row["budget"]),
                split=float(row["split"]),
                observation_step=int(row["observation_step"]),
                phase1_seed_count=int(row["phase1_seed_count"]),
                phase2_seed_count=int(row["phase2_seed_count"]),
                total_seed_count=int(row["total_seed_count"]),
                one_phase_profit=float(row["one_phase_profit"]),
                two_phase_profit_max=float(row["two_phase_profit_max"]),
                two_phase_profit_mean=float(row["two_phase_profit_mean"]),
                profit_difference=float(row["profit_difference"]),
                master_seed=int(row["master_seed"]),
            ))
    return records
