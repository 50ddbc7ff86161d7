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
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .graph import SocialGraph
from .loader import AttributeSpec, generate_attributes, load_snap_edge_list, preferential_attachment_graph
from .rng import RandomSource
from .twophase import PhaseConfig, run_single_phase, run_two_phase

__all__ = [
    "ExperimentRecord",
    "BatchConfig",
    "parse_config",
    "resolve_dataset",
    "run_batch",
    "write_outputs",
    "RESULT_COLUMNS",
]

DATA_DIR_ENV = "PROFITMAX_DATA_DIR"


@dataclass(frozen=True)
class ExperimentRecord:
    """One result row: a (dataset, algorithm, budget) cell.

    The fields that take part in comparison are the ``results.csv`` columns,
    in order; a field's ``format`` metadata overrides how it is written.
    """

    dataset: str
    algorithm: str
    budget: int
    split: float = field(metadata={"format": repr})  # a config echo, written exactly
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


_RESULT_FIELDS = [f for f in fields(ExperimentRecord) if f.compare]
RESULT_COLUMNS = [f.name for f in _RESULT_FIELDS]


@dataclass(frozen=True)
class BatchConfig:
    """The config keys, as init fields; construction builds and checks every cell."""

    dataset: str
    algorithms: tuple[str, ...]
    budgets: tuple[int, ...]
    directed: bool = False
    probability: float = 0.01
    split: float = 0.6
    observation_step: int = 3
    observations: int = 100
    phase2_runs: int = 100
    selection_replications: int = 100
    cost_range: tuple[int, int] = (50, 100)
    benefit_range: tuple[int, int] = (800, 1000)
    attribute_seed: int = 1
    master_seed: int = 0
    output_dir: str = "out"
    workers: int = 1
    attributes: AttributeSpec = field(init=False, repr=False, compare=False)
    cells: tuple[PhaseConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")
        for key, entries in (("algorithms", self.algorithms), ("budgets", self.budgets)):
            if len(set(entries)) < len(entries):
                raise ValueError(f"{key} repeats an entry: {entries}")
        source = RandomSource(self.master_seed)
        object.__setattr__(self, "attributes", AttributeSpec(
            self.cost_range, self.benefit_range, self.attribute_seed))
        object.__setattr__(self, "cells", tuple(
            PhaseConfig(
                total_budget=budget,
                split_fraction=self.split,
                observation_step=self.observation_step,
                phase1_observations=self.observations,
                phase2_runs_per_observation=self.phase2_runs,
                algorithm=algorithm,
                master_seed=source.child(algorithm, budget).seed64(),
                selection_replications=self.selection_replications,
            )
            for algorithm in self.algorithms for budget in self.budgets))
        if not self.cells:
            raise ValueError("at least one algorithm and one budget are required")


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _value_parser(hint):
    # every list: comma-separated items, blanks stripped, empty items dropped
    if get_origin(hint) is tuple:
        item = _value_parser(get_args(hint)[0])
        return lambda v: tuple(item(s.strip()) for s in v.split(",") if s.strip())
    if hint is bool:
        return lambda v: _BOOL[v.lower()]
    return hint


_CONFIG_TYPES = get_type_hints(BatchConfig)
_CONFIG_KEYS = {f.name: _value_parser(_CONFIG_TYPES[f.name])
                for f in fields(BatchConfig) if f.init}
_REQUIRED_KEYS = {f.name for f in fields(BatchConfig) if f.init and f.default is MISSING}


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
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                if not value:
                    raise ValueError(key)
                values[key] = _CONFIG_KEYS[key](value)
            except (ValueError, KeyError):
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    missing = _REQUIRED_KEYS - values.keys()
    if missing:
        raise ValueError(f"{path}: missing required config keys: {', '.join(sorted(missing))}")
    return BatchConfig(**values)


def resolve_dataset(spec: str, directed: bool, probability: float) -> SocialGraph:
    """Materialize a dataset spec: a file path or a ``pa:<n>:<attach>:<seed>`` fixture.

    A ``pa:`` fixture is undirected.  Relative paths are also tried against
    the directory named by the PROFITMAX_DATA_DIR environment variable.
    """
    if spec.startswith("pa:"):
        if directed:
            raise ValueError(f"pa: fixtures are undirected; {spec!r} cannot be directed")
        try:
            n, attach, seed = (int(part) for part in spec[3:].split(":"))
        except ValueError:
            raise ValueError(f"bad synthetic dataset spec {spec!r}; expected pa:<nodes>:<attach>:<seed>") from None
        return preferential_attachment_graph(n, attach, seed, probability)
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


# a pool worker's batch: (graph, economics, dataset label, master seed)
_batch = None


def _start_worker(*batch):
    global _batch
    _batch = batch


def _run_pooled(phase_cfg):
    return _run_cell((*_batch, phase_cfg))


def _run_cell(args):
    g, econ, label, master_seed, phase_cfg = args
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
        algorithm=phase_cfg.algorithm,
        budget=phase_cfg.total_budget,
        split=phase_cfg.split_fraction,
        observation_step=phase_cfg.observation_step,
        phase1_seed_count=len(two.phase1.seeds),
        phase2_seed_count=len(best.phase2_selection.seeds),
        total_seed_count=two.total_seed_count,
        one_phase_profit=one_phase,
        two_phase_profit_max=two_phase_max,
        two_phase_profit_mean=quantize(two.mean_total_profit),
        profit_difference=quantize(two_phase_max - one_phase),
        master_seed=master_seed,
        wall_clock_seconds=elapsed,
    )


def run_batch(cfg: BatchConfig):
    """Run every cell of ``cfg`` and write the output files.

    Rows come back in config order whatever the worker count; each cell draws
    from streams derived only from names and the master seed, so scheduling
    cannot change any result.  Pool workers receive the graph, economics,
    label and master seed once, when they start (a forked worker inherits
    them, a spawned one unpickles them once), and each task carries only
    its cell's :class:`PhaseConfig`.
    """
    g = resolve_dataset(cfg.dataset, cfg.directed, cfg.probability)
    econ = generate_attributes(g, cfg.attributes)
    batch = (g, econ, dataset_label(cfg.dataset), cfg.master_seed)
    # a forked pool starts all its workers at once: never more than there are cells
    workers = min(cfg.workers, len(cfg.cells))
    if workers == 1:
        records = [_run_cell((*batch, phase_cfg)) for phase_cfg in cfg.cells]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=batch) as pool:
            records = list(pool.map(_run_pooled, cfg.cells))
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
            writer.writerow([f.metadata.get("format", _fmt)(getattr(r, f.name))
                             for f in _RESULT_FIELDS])
    for name, column in (("plot_seed_cardinality.csv", "total_seed_count"),
                         ("plot_profit_difference.csv", "profit_difference"),
                         ("timings.csv", "wall_clock_seconds")):
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "budget", column])
            for r in records:
                writer.writerow([r.algorithm, r.budget, _fmt(getattr(r, column))])

