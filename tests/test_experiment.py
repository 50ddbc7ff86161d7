from pathlib import Path

import pytest

from profitmax.cli import main
from profitmax.experiment import (
    BatchConfig,
    RESULT_COLUMNS,
    parse_config,
    parse_experiment_csv,
    resolve_dataset,
    run_batch,
)

DATA = Path(__file__).parent / "data"


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
    parsed = parse_experiment_csv(results)
    assert len(parsed) == 4
    for row, rec in zip(parsed, records):
        assert row == rec  # wall clock excluded from equality
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


def test_cli_run(tmp_path, capsys):
    path = write_config(tmp_path / "c.txt")
    assert main(["run", str(path), "--output", str(tmp_path / "cli_out")]) == 0
    assert (tmp_path / "cli_out" / "results.csv").exists()
    assert "4 result rows" in capsys.readouterr().out


def test_cli_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dataset = missing.txt\nalgorithms = random\nbudgets = 5\n")
    assert main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_inspect(capsys):
    assert main(["inspect", str(DATA / "mini_undirected.txt")]) == 0
    out = capsys.readouterr().out
    assert "nodes:        5" in out
    assert "edges:        6" in out
    assert "self-loops dropped:   1" in out


def test_cli_inspect_synthetic(capsys):
    assert main(["inspect", "pa:20:2:1"]) == 0
    assert "nodes:        20" in capsys.readouterr().out


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


def test_cli_oracle_missing_file(capsys):
    assert main(["oracle", "nope.txt", "--seeds", "0"]) == 1
    assert "error:" in capsys.readouterr().err
