"""Command-line interface: run batches, inspect datasets, query the exact oracle."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiment import parse_config, resolve_dataset, run_batch
from .graph import NodeEconomics, degrees, exclude_nodes, seed_cost
from .loader import load_snap_edge_list
from .profit import exact_benefit
from .twophase import exact_two_phase_profit


def _int_list(text):
    return [int(s) for s in text.split(",") if s.strip()] if text else []


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.output is not None:
        cfg = replace(cfg, output_dir=args.output)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    records = run_batch(cfg)
    print(f"wrote {len(records)} result rows to {cfg.output_dir}/results.csv")
    for r in records:
        print(f"  {r.algorithm:24s} B={r.budget:5d}  seeds={r.total_seed_count:3d}  "
              f"two-phase={r.two_phase_profit_max:12.2f}  diff={r.profit_difference:10.2f}")
    return 0


def _cmd_inspect(args) -> int:
    g = resolve_dataset(args.dataset, args.directed, args.probability)
    node_degrees = list(degrees(g).values()) or [0]
    edge_count = g.arc_count if g.directed else g.arc_count // 2
    print(f"dataset:      {args.dataset}")
    print(f"type:         {'directed' if g.directed else 'undirected'}")
    print(f"nodes:        {g.node_count}")
    print(f"edges:        {edge_count}")
    print(f"arcs stored:  {g.arc_count}")
    print(f"max degree:   {max(node_degrees)}")
    print(f"avg degree:   {sum(node_degrees) / len(node_degrees):.2f}")
    if g.self_loops_dropped:
        print(f"self-loops dropped:   {g.self_loops_dropped}")
    if g.duplicates_collapsed:
        print(f"duplicates collapsed: {g.duplicates_collapsed}")
    return 0


def _cmd_oracle(args) -> int:
    g = load_snap_edge_list(args.edges, args.directed, args.probability)
    n = g.base_node_count
    costs = _int_list(args.costs) or [1] * n
    benefits = _int_list(args.benefits) or [1] * n
    econ = NodeEconomics(tuple(costs), tuple(benefits))
    seeds = set(_int_list(args.seeds))
    view = exclude_nodes(g, _int_list(args.exclude))
    benefit = exact_benefit(view, econ, seeds, free_seeds=_int_list(args.free))
    lines = [f"exact benefit: {benefit:.6f}",
             f"exact profit:  {benefit - seed_cost(econ, seeds):.6f}"]
    if args.phase2_budget is not None:
        value = exact_two_phase_profit(view, econ, seeds, args.observation_step, args.phase2_budget)
        lines.append(f"exact two-phase objective (d={args.observation_step}, "
                     f"phase-two budget {args.phase2_budget}): {value:.6f}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profitmax",
        description="Two-phase profit maximization experiments on social networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch experiment from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("--output", help="override the configured output directory")
    p_run.add_argument("--workers", type=int, help="override the configured worker count")
    p_run.set_defaults(func=_cmd_run)

    p_inspect = sub.add_parser("inspect", help="print basic statistics of a dataset")
    p_inspect.add_argument("dataset", help="edge-list path or pa:<nodes>:<attach>:<seed>")
    p_inspect.add_argument("--directed", action="store_true")
    p_inspect.add_argument("--probability", type=float, default=0.01)
    p_inspect.set_defaults(func=_cmd_inspect)

    p_oracle = sub.add_parser("oracle", help="exact profit of a seed set on a tiny instance")
    p_oracle.add_argument("edges", help="edge-list path (small graphs only)")
    p_oracle.add_argument("--seeds", required=True, help="comma-separated seed node ids")
    p_oracle.add_argument("--directed", action="store_true")
    p_oracle.add_argument("--probability", type=float, default=0.5)
    p_oracle.add_argument("--costs", help="comma-separated per-node costs (default all 1)")
    p_oracle.add_argument("--benefits", help="comma-separated per-node benefits (default all 1)")
    p_oracle.add_argument("--exclude", help="comma-separated nodes removed from the graph")
    p_oracle.add_argument("--free", help="cost-free seeds that earn nothing (an observed frontier)")
    p_oracle.add_argument("--phase2-budget", type=int, dest="phase2_budget",
                          help="also print the exact two-phase objective with this budget")
    p_oracle.add_argument("--observation-step", type=int, default=1, dest="observation_step")
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
