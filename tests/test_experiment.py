import csv
from dataclasses import replace
from pathlib import Path

import pytest

from profitmax import cli, experiment, twophase
from profitmax.cli import main
from profitmax.experiment import (
    RESULT_COLUMNS,
    parse_config,
    resolve_dataset,
    run_batch,
)
from profitmax.selection import SELECTORS

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"


def write_config(path, **overrides):
    values = {
        "dataset": "pa:12:2:3",
        "algorithms": "random,high_degree",
        "budgets": "6,9",
        "probability": "0.1",
        "split": "0.6",
        "observation_step": "2",
        "observations": "3",
        "phase2_runs": "4",
        "selection_replications": "8",
        "cost_range": "2,4",
        "benefit_range": "8,12",
        "attribute_seed": "5",
        "master_seed": "9",
        "output_dir": str(path.parent / "out"),
        "workers": "1",
    }
    values.update(overrides)
    lines = ["# generated test config"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_parse_config_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.txt"))
    assert cfg.dataset == "pa:12:2:3"
    assert cfg.algorithms == ("random", "high_degree")
    assert cfg.budgets == (6, 9)
    assert cfg.cost_range == (2, 4)
    assert cfg.workers == 1


def test_parse_config_defaults(tmp_path):
    path = tmp_path / "minimal.txt"
    path.write_text("dataset = pa:8:2:1\nalgorithms = random\nbudgets = 5\n")
    cfg = parse_config(path)
    assert cfg.split == 0.6
    assert cfg.observation_step == 3
    assert cfg.observations == 100
    assert cfg.cost_range == (50, 100)
    assert cfg.benefit_range == (800, 1000)


def test_parse_config_errors(tmp_path):
    bad_key = tmp_path / "bad.txt"
    bad_key.write_text("dataset = x\nwhatever = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(bad_key)

    missing = tmp_path / "missing.txt"
    missing.write_text("algorithms = random\n")
    with pytest.raises(ValueError, match="missing required"):
        parse_config(missing)

    bad_alg = tmp_path / "alg.txt"
    bad_alg.write_text("dataset = x\nalgorithms = nope\nbudgets = 5\n")
    with pytest.raises(ValueError, match="unknown algorithm"):
        parse_config(bad_alg)

    no_samples = tmp_path / "samples.txt"
    no_samples.write_text("dataset = x\nalgorithms = random\nbudgets = 5\nselection_replications = 0\n")
    with pytest.raises(ValueError, match="selection_replications must be >= 1"):
        parse_config(no_samples)

    repeated = tmp_path / "repeated.txt"
    repeated.write_text("dataset = x\nalgorithms = random\nbudgets = 500\nbudgets = 1000\n")
    with pytest.raises(ValueError, match=r"repeated\.txt:4: duplicate config key 'budgets'"):
        parse_config(repeated)

    empty = tmp_path / "empty.txt"
    empty.write_text("dataset =\nalgorithms = random\nbudgets = 5\n")
    with pytest.raises(ValueError, match=r"empty\.txt:1: bad value for 'dataset': ''"):
        parse_config(empty)

    no_equals = tmp_path / "equals.txt"
    no_equals.write_text("dataset = x\nalgorithms random\nbudgets = 5\n")
    with pytest.raises(ValueError,
                       match=r"equals\.txt:2: expected key = value, got 'algorithms random'"):
        parse_config(no_equals)

    no_workers = tmp_path / "workers.txt"
    no_workers.write_text("dataset = x\nalgorithms = random\nbudgets = 5\nworkers = 0\n")
    with pytest.raises(ValueError, match="workers must be >= 1"):
        parse_config(no_workers)

    no_cells = tmp_path / "cells.txt"
    no_cells.write_text("dataset = x\nalgorithms = ,\nbudgets = 5\n")
    with pytest.raises(ValueError, match="at least one algorithm and one budget are required"):
        parse_config(no_cells)


@pytest.mark.parametrize("key, value", [
    ("split", "1.5"), ("budgets", "-5"), ("observations", "0"),
    ("cost_range", "50"), ("benefit_range", "1,2,3"),
    ("algorithms", "random,random"), ("budgets", "500,500"),
    ("probability", "0"), ("probability", "1.5"), ("output_dir", ""),
])
def test_parse_config_rejects_bad_values_before_loading(tmp_path, key, value):
    # the dataset does not exist, so the refusal cannot come from loading it
    path = write_config(tmp_path / "c.txt", dataset=str(tmp_path / "absent.txt"), **{key: value})
    with pytest.raises(ValueError):
        parse_config(path)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    parse_config(path)


def test_resolve_dataset_sources(tmp_path, monkeypatch):
    g = resolve_dataset("pa:10:2:4", directed=False, probability=0.1)
    assert g.node_count == 10
    with pytest.raises(FileNotFoundError):
        resolve_dataset("no_such_file.txt", directed=True, probability=0.1)
    monkeypatch.setenv("PROFITMAX_DATA_DIR", str(DATA))
    g2 = resolve_dataset("mini_directed.txt", directed=True, probability=0.1)
    assert g2.node_count == 4
    with pytest.raises(ValueError):
        resolve_dataset("pa:bad", directed=False, probability=0.1)
    # a well-formed spec the builder refuses keeps the builder's own message
    with pytest.raises(ValueError, match="need at least 6 nodes for attach=5"):
        resolve_dataset("pa:3:5:1", directed=False, probability=0.1)
    with pytest.raises(ValueError, match="attach must be >= 1"):
        resolve_dataset("pa:10:0:1", directed=False, probability=0.1)
    with pytest.raises(ValueError, match="bad synthetic dataset spec 'pa:x:1:1'"):
        resolve_dataset("pa:x:1:1", directed=False, probability=0.1)
    # a pa: fixture is undirected: asking for a directed one fails before
    # anything is generated, instead of silently running undirected
    monkeypatch.setattr(experiment, "preferential_attachment_graph", None)
    with pytest.raises(ValueError, match="pa: fixtures are undirected"):
        resolve_dataset("pa:50:2:1", directed=True, probability=0.01)


def test_run_batch_shape_and_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.txt"))
    records = run_batch(cfg)
    assert len(records) == 4  # 2 algorithms x 2 budgets
    assert [(r.algorithm, r.budget) for r in records] == [
        ("random", 6), ("random", 9), ("high_degree", 6), ("high_degree", 9)]
    for r in records:
        assert r.profit_difference == pytest.approx(r.two_phase_profit_max - r.one_phase_profit)
        assert r.wall_clock_seconds > 0

    out = Path(cfg.output_dir)
    results = out / "results.csv"
    assert results.exists()
    header = results.read_text().splitlines()[0]
    assert header.split(",") == RESULT_COLUMNS
    with open(results, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row, rec in zip(rows, records):
        for name in RESULT_COLUMNS:  # every column reads back to the value written
            value = getattr(rec, name)
            assert type(value)(row[name]) == value, name
    for name in ("plot_seed_cardinality.csv", "plot_profit_difference.csv", "timings.csv"):
        assert (out / name).exists()
    card_lines = (out / "plot_seed_cardinality.csv").read_text().splitlines()
    assert len(card_lines) == 5


def test_run_batch_deterministic_across_runs_and_workers(tmp_path):
    cfg1 = parse_config(write_config(tmp_path / "a.txt", output_dir=str(tmp_path / "o1")))
    cfg2 = parse_config(write_config(tmp_path / "b.txt", output_dir=str(tmp_path / "o2"), workers="2"))
    run_batch(cfg1)
    run_batch(cfg2)
    first = (tmp_path / "o1" / "results.csv").read_bytes()
    second = (tmp_path / "o2" / "results.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize("workers, algorithms, budgets", [
    (64, "random,high_degree", "6,9"),
    (3, "random,high_degree", "6,9"),
    (2, "random", "6"),
])
def test_run_batch_pool_never_outnumbers_its_cells(tmp_path, monkeypatch, workers, algorithms,
                                                   budgets):
    cells = len(algorithms.split(",")) * len(budgets.split(","))
    pools = []

    class RecordingPool:
        # stands in for the process pool: checks its size, starts its one
        # in-process worker as a pool would, and maps in-process
        def __init__(self, max_workers, initializer, initargs):
            assert max_workers == min(workers, cells)
            pools.append(max_workers)
            self.start = lambda: initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            # each task carries its cell's config only: the graph travels
            # once per worker, in initargs
            items = list(items)
            assert all(isinstance(item, twophase.PhaseConfig) for item in items)
            self.start()
            return map(fn, items)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    # the in-process worker's batch is dropped again after the test
    monkeypatch.setattr(experiment, "_batch", None)
    cfg = parse_config(write_config(tmp_path / "c.txt", algorithms=algorithms, budgets=budgets,
                                    workers=str(workers)))
    assert len(run_batch(cfg)) == cells
    # a single cell runs in-process, with no pool at all
    assert pools == ([min(workers, cells)] if min(workers, cells) > 1 else [])


def test_cli_run(tmp_path, capsys):
    path = write_config(tmp_path / "c.txt")
    assert main(["run", str(path), "--output", str(tmp_path / "cli_out")]) == 0
    assert (tmp_path / "cli_out" / "results.csv").exists()
    assert "4 result rows" in capsys.readouterr().out


def test_cli_run_workers_override_the_config(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_batch", lambda cfg: ran.append(cfg) or [])
    path = write_config(tmp_path / "c.txt", workers="3")
    assert main(["run", str(path), "--workers", "2"]) == 0
    assert main(["run", str(path)]) == 0
    assert [cfg.workers for cfg in ran] == [2, 3]


def test_cli_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dataset = missing.txt\nalgorithms = random\nbudgets = 5\n")
    assert main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    # a directed pa: fixture fails before any cell runs
    assert main(["run", str(write_config(tmp_path / "c.txt", directed="true"))]) == 1
    assert "pa: fixtures are undirected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_inspect(capsys):
    assert main(["inspect", str(DATA / "mini_undirected.txt")]) == 0
    out = capsys.readouterr().out
    assert "nodes:        5" in out
    assert "edges:        6" in out
    assert "self-loops dropped:   1" in out


def test_cli_inspect_refuses_a_bad_probability_on_an_empty_file(capsys):
    assert main(["inspect", str(DATA / "empty.txt"), "--probability", "7"]) == 1
    assert "arc probability must be in (0, 1], got 7.0" in capsys.readouterr().err


def test_cli_inspect_synthetic(capsys):
    assert main(["inspect", "pa:20:2:1"]) == 0
    assert "nodes:        20" in capsys.readouterr().out
    # a pa: fixture is undirected, and says so rather than printing one
    assert main(["inspect", "pa:50:2:1", "--directed"]) == 1
    assert "pa: fixtures are undirected" in capsys.readouterr().err


def test_cli_oracle(capsys):
    code = main([
        "oracle", str(DATA / "mini_directed.txt"), "--seeds", "0",
        "--probability", "0.5", "--costs", "3,3,3,3", "--benefits", "10,10,10,10",
        "--phase2-budget", "6", "--observation-step", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "exact benefit:" in out
    assert "exact profit:" in out
    assert "two-phase objective" in out


def test_cli_oracle_free_seeds_earn_nothing(tmp_path, capsys):
    edges = tmp_path / "chain.txt"
    edges.write_text("0 1\n1 2\n")
    chain = [str(edges), "--directed", "--probability", "1.0",
             "--costs", "3,3,3", "--benefits", "10,10,10", "--free", "0"]
    # the free frontier 0 earns nothing; only what it newly reaches counts
    assert main(["oracle", *chain, "--seeds", ""]) == 0
    assert "exact benefit: 20.000000" in capsys.readouterr().out
    # priced seed 1 earns; 2 is reached by both and counted once
    assert main(["oracle", *chain, "--seeds", "1"]) == 0
    assert "exact profit:  17.000000" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [["--phase2-budget", "-1"],
                                 ["--phase2-budget", "6", "--observation-step", "-1"]])
def test_cli_oracle_refuses_before_printing(capsys, bad):
    assert main(["oracle", str(DATA / "mini_directed.txt"), "--seeds", "0", *bad]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be >= 0" in err


def test_cli_oracle_missing_file(capsys):
    assert main(["oracle", "nope.txt", "--seeds", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_oracle_refuses_economics_of_another_size(capsys):
    assert main(["oracle", str(DATA / "mini_directed.txt"), "--seeds", "0",
                 "--costs", "1,2", "--benefits", "1,2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "economics table covers 2 nodes, graph has 4" in err


def _check_golden(tmp_path, config, golden):
    cfg = replace(parse_config(CONFIGS / config), output_dir=str(tmp_path), workers=1)
    run_batch(cfg)
    for name in ("results.csv", "plot_seed_cardinality.csv", "plot_profit_difference.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / golden / name).read_bytes(), name


def test_desk_outputs_match_golden_copy(tmp_path):
    # the desk config at desk scale; the pinned files change only with a
    # change that moves results on purpose
    _check_golden(tmp_path, "desk.cfg", "desk_golden")


def test_desk_costly_outputs_match_golden_copy(tmp_path):
    # the cost-bound desk config, where the profit gates turn nodes down
    _check_golden(tmp_path, "desk-costly.cfg", "desk_costly_golden")


def test_desk_directed_outputs_match_golden_copy(tmp_path, monkeypatch):
    # the directed desk config, whose views drop in-arcs as well as out-arcs;
    # its dataset path is relative to the repository root
    monkeypatch.setenv(experiment.DATA_DIR_ENV, str(CONFIGS.parent))
    _check_golden(tmp_path, "desk-directed.cfg", "desk_directed_golden")


def _cell(algorithm):
    cfg = experiment.BatchConfig(dataset="pa:30:2:5", algorithms=(algorithm,), budgets=(12,),
                                 probability=0.1, observations=4, phase2_runs=5,
                                 selection_replications=6, cost_range=(2, 5),
                                 benefit_range=(8, 20), attribute_seed=3, master_seed=7)
    g = resolve_dataset(cfg.dataset, cfg.directed, cfg.probability)
    econ = experiment.generate_attributes(g, cfg.attributes)
    return g, econ, cfg.dataset, cfg.master_seed, cfg.cells[0]


@pytest.mark.parametrize("algorithm", ["single_greedy", "double_greedy"])
def test_greedy_cell_draws_its_sample_once(monkeypatch, algorithm):
    # both runs of a cell select on one draw; run each from an empty slot
    # instead, and each draws its own, from the same stream, to the same record
    cell = _cell(algorithm)
    draws = []
    draw = twophase.sample_live_graphs

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(twophase, "sample_live_graphs", counted)
    shared = experiment._run_cell(cell)
    assert len(draws) == 1
    draws.clear()
    for name in ("run_two_phase", "run_single_phase"):
        run = getattr(experiment, name)

        def from_empty_slot(cfg, g, econ, run=run):
            monkeypatch.setattr(twophase, "_last_cell", None)
            return run(cfg, g, econ)

        monkeypatch.setattr(experiment, name, from_empty_slot)
    assert experiment._run_cell(cell) == shared
    assert len(draws) == 2


def _three_arguments(run):
    # the benchmark's output checks wrap both runs with exactly these parameters
    def checked(cfg, g, econ):
        return run(cfg, g, econ)
    return checked


@pytest.mark.parametrize("algorithm", sorted(SELECTORS))
def test_cell_calls_both_runs_with_three_arguments(monkeypatch, algorithm):
    for name in ("run_two_phase", "run_single_phase"):
        monkeypatch.setattr(experiment, name, _three_arguments(getattr(experiment, name)))
    assert experiment._run_cell(_cell(algorithm)).algorithm == algorithm
