"""Command-line experiment harness.

Subcommands: generate, simulate, resilience, bounds, beta, intervene.
Every run is pinned by its flags plus --seed; CSV outputs are
byte-reproducible, and a JSON result envelope (code version, resolved
arguments, output paths, wall time) is printed to stdout.

Exit codes: 0 success, 1 usage, 2 validation, 3 numeric precondition,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
from .contagion import dag_beta, fixed_point_beta, katz_beta, vulnerability_ranking
from .errors import ConvergenceError, ParameterError, PreconditionError, ProdnetError, check_int
from .estimator import DEFAULT_EPSILON_GRID, resilience_curve
from .fileio import (
    load_network_json,
    parse_edge_csv,
    parse_io_table,
    save_network_json,
    write_beta_csv,
    write_csv,
    write_histogram_csv,
    write_intervention_csv,
    write_resilience_csv,
)
from .generators import (
    BranchingDistribution,
    generate_backward_tree,
    generate_gw_tree,
    generate_parallel,
    generate_rdag,
    generate_trellis,
)
from .interventions import _protection_planner, post_intervention_resilience_lb
from .network import ProductionNetwork
from .percolation import PercolationConfig, run_batch

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_NONCONVERGENCE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_dist(spec: str) -> BranchingDistribution:
    kind, _, arg = spec.partition(":")
    try:
        if kind == "point":
            return BranchingDistribution.point(int(arg))
        if kind == "binomial":
            k_str, p_str = arg.split(",")
            return BranchingDistribution.binomial(int(k_str), float(p_str))
        if kind == "poisson":
            return BranchingDistribution.poisson(float(arg))
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"bad --dist value {spec!r}: {exc}") from exc
    raise ParameterError(f"unknown distribution kind {kind!r} (point/binomial/poisson)")


def _load_network(args) -> ProductionNetwork:
    path = Path(args.net)
    fmt = args.net_format
    if fmt == "auto":
        fmt = "json" if path.suffix.lower() == ".json" else "edge-csv"
    if fmt == "json":
        return load_network_json(path)
    if fmt == "edge-csv":
        return parse_edge_csv(path)
    return parse_io_table(path, threshold=args.io_threshold)


def _add_net_args(p: argparse.ArgumentParser):
    p.add_argument("--net", required=True, help="network file")
    p.add_argument(
        "--net-format",
        choices=["auto", "json", "edge-csv", "io-table"],
        default="auto",
        help="input format (auto: .json as JSON, otherwise edge CSV)",
    )
    p.add_argument("--io-threshold", type=float, default=0.0, help="io-table edge threshold")


def _eps_grid(spec: str | None):
    if spec is None:
        return DEFAULT_EPSILON_GRID
    try:
        return [float(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --eps-grid value {spec!r}: {exc}") from exc


def _generate(args) -> ProductionNetwork:
    arch = args.arch
    if arch == "rdag":
        return generate_rdag(args.K, args.p, args.seed)
    if arch == "parallel":
        return generate_parallel(args.K, args.m, args.d, args.seed)
    if arch == "backward-tree":
        return generate_backward_tree(args.m, args.D)
    if arch == "gw-tree":
        return generate_gw_tree(_parse_dist(args.dist), args.max_depth, args.seed).network
    return generate_trellis(args.w, args.D, args.p, args.seed)


def _require(args, names):
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ParameterError(f"--arch {args.arch} requires {', '.join(missing)}")


def _envelope(command: str, args, outputs: list[str], started: float, extra=None) -> dict:
    spec = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    doc = {
        "command": command,
        "version": __version__,
        "spec": spec,
        "outputs": outputs,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    if extra:
        doc.update(extra)
    return doc


def _cmd_generate(args):
    started = time.monotonic()
    if args.arch in ("rdag", "parallel", "trellis", "gw-tree") and args.seed is None:
        raise ParameterError(f"--arch {args.arch} requires --seed")
    if args.arch == "rdag":
        _require(args, ["K", "p"])
    elif args.arch == "parallel":
        _require(args, ["K", "m", "d"])
    elif args.arch == "backward-tree":
        _require(args, ["m", "D"])
    elif args.arch == "gw-tree":
        _require(args, ["dist", "max_depth"])
    else:
        _require(args, ["w", "D", "p"])
    net = _generate(args)
    save_network_json(net, args.out)
    doc = _envelope("generate", args, [args.out], started, {"k": net.node_count, "edges": net.edge_count})
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_simulate(args):
    started = time.monotonic()
    net = _load_network(args)
    n = args.n if args.n is not None else net.supplier_count
    cfg = PercolationConfig(x=args.x, y=args.y, n=n, seed=args.seed)
    batch = run_batch(net, cfg, args.trials)
    write_histogram_csv(batch.pmf, args.trials, args.out)
    doc = _envelope(
        "simulate",
        args,
        [args.out],
        started,
        {"mean_failures": float(batch.F.mean()), "k": net.node_count},
    )
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_resilience(args):
    started = time.monotonic()
    net = _load_network(args)
    n = args.n if args.n is not None else net.supplier_count
    curve = resilience_curve(
        net,
        epsilon_grid=_eps_grid(args.eps_grid),
        n=n,
        trials=args.trials,
        x_step=args.x_step,
        seed=args.seed,
    )
    write_resilience_csv(curve, args.out)
    doc = _envelope("resilience", args, [args.out], started, {"auc": curve.auc, "k": net.node_count})
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_bounds(args):
    started = time.monotonic()
    rows = []
    if args.arch == "rdag":
        _require(args, ["K", "p"])
        value = bnd.rdag_lb_x(args.K, args.p, args.epsilon, args.n)
        rows.append(("rdag", "tail-majorant", value, ""))
    elif args.arch == "parallel":
        _require(args, ["K", "m", "d"])
        for scope in ("complex-only", "all-products"):
            r = bnd.parallel_bounds(args.K, args.m, args.d, args.epsilon, args.n, scope)
            rows.append(("parallel", r.regime, r.lower, r.upper))
    elif args.arch == "backward-tree":
        _require(args, ["m", "D"])
        r = bnd.tree_bounds(args.m, args.D, args.epsilon, args.n)
        rows.append(("backward-tree", r.regime, r.lower, r.upper))
    elif args.arch == "gw":
        _require(args, ["mu", "tau"])
        upper, lower = bnd.gw_bounds(args.mu, args.tau, args.epsilon, args.n)
        rows.append(("gw", "per-extinction-depth", lower, upper))
    else:
        _require(args, ["w", "D", "p"])
        r = bnd.trellis_bounds(args.w, args.D, args.p, args.epsilon, args.n)
        rows.append(("trellis", r.regime, r.lower, r.upper))
    write_csv(args.out, ["architecture", "regime", "lower", "upper"], rows)
    doc = _envelope("bounds", args, [args.out], started)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_beta(args):
    started = time.monotonic()
    net = _load_network(args)
    n = args.n if args.n is not None else net.supplier_count
    if args.method == "auto":
        ranking = vulnerability_ranking(net, args.x, args.y, n)
    else:
        if args.method == "dag":
            bv = dag_beta(net, args.x, args.y, n)
        elif args.method == "fixed-point":
            bv = fixed_point_beta(net, args.x, args.y, n)
        else:
            bv = katz_beta(net, args.x, args.y, n)
        order = sorted(range(1, net.node_count + 1), key=lambda i: (-bv.beta[i - 1], i))
        ranking = [(i, float(bv.beta[i - 1])) for i in order]
    write_beta_csv(ranking, args.out)
    doc = _envelope(
        "beta",
        args,
        [args.out],
        started,
        {"total_beta": float(sum(b for _, b in ranking)), "k": net.node_count},
    )
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_intervene(args):
    started = time.monotonic()
    net = _load_network(args)
    n = args.n if args.n is not None else net.supplier_count
    y = args.y
    if y is None:
        # the spectral default: safely below 1/max(Delta, Delta_R)
        y = 1.0 / (1e-5 + max(net.max_out_degree, net.max_in_degree, 1))
    t_max = net.node_count if args.t_max is None else check_int(args.t_max, "--t-max", minimum=0)
    if t_max > net.node_count:
        raise ParameterError(f"--t-max {t_max} exceeds the product count {net.node_count}")
    plan_for = _protection_planner(net, y)  # one reverse-Katz solve for the whole sweep
    rows = []
    for budget in range(0, t_max + 1):
        plan = plan_for(budget)
        lb = post_intervention_resilience_lb(net, plan, args.epsilon, n)
        rows.append((budget, budget / net.node_count, plan.objective(args.x, n), lb))
    write_intervention_csv(rows, args.out)
    doc = _envelope("intervene", args, [args.out], started, {"y": y, "k": net.node_count})
    print(json.dumps(doc, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prodnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"prodnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="emit a network file from a generator")
    gen.add_argument(
        "--arch",
        required=True,
        choices=["rdag", "parallel", "backward-tree", "gw-tree", "trellis"],
    )
    gen.add_argument("--K", type=int)
    gen.add_argument("--p", type=float)
    gen.add_argument("--m", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--D", type=int)
    gen.add_argument("--w", type=int)
    gen.add_argument("--dist", help="branching distribution, e.g. poisson:0.8 or binomial:4,0.2")
    gen.add_argument("--max-depth", type=int, default=1000)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    sim = sub.add_parser("simulate", help="batch percolation trials, emit F histogram")
    _add_net_args(sim)
    sim.add_argument("--x", type=float, required=True)
    sim.add_argument("--y", type=float, default=1.0)
    sim.add_argument("--n", type=int)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    res = sub.add_parser("resilience", help="estimate the resilience curve and AUC")
    _add_net_args(res)
    res.add_argument("--eps-grid", help="comma-separated eps values (default 0.05..0.95)")
    res.add_argument("--n", type=int)
    res.add_argument("--trials", type=int, default=1000)
    res.add_argument(
        "--x-step", type=float, default=0.01, help="no effect: r_hat is the exact supremum"
    )
    res.add_argument("--seed", type=int, default=0)
    res.add_argument("--out", required=True)
    res.set_defaults(func=_cmd_resilience)

    bds = sub.add_parser("bounds", help="closed-form bound table for an architecture")
    bds.add_argument(
        "--arch", required=True, choices=["rdag", "parallel", "backward-tree", "gw", "trellis"]
    )
    bds.add_argument("--K", type=int)
    bds.add_argument("--p", type=float)
    bds.add_argument("--m", type=int)
    bds.add_argument("--d", type=int)
    bds.add_argument("--D", type=int)
    bds.add_argument("--w", type=int)
    bds.add_argument("--mu", type=float)
    bds.add_argument("--tau", type=int)
    bds.add_argument("--epsilon", type=float, required=True)
    bds.add_argument("--n", type=int, default=1)
    bds.add_argument("--out", required=True)
    bds.set_defaults(func=_cmd_bounds)

    bet = sub.add_parser("beta", help="per-product failure bounds and ranking")
    _add_net_args(bet)
    bet.add_argument("--x", type=float, required=True)
    bet.add_argument("--y", type=float, default=1.0)
    bet.add_argument("--n", type=int)
    bet.add_argument("--method", choices=["auto", "dag", "fixed-point", "katz"], default="auto")
    bet.add_argument("--out", required=True)
    bet.set_defaults(func=_cmd_beta)

    itv = sub.add_parser("intervene", help="protection sweep over budgets 0..K")
    _add_net_args(itv)
    itv.add_argument("--y", type=float, help="edge survival (default: 1/(1e-5 + max degree))")
    itv.add_argument("--x", type=float, default=0.1)
    itv.add_argument("--n", type=int)
    itv.add_argument("--epsilon", type=float, default=0.2)
    itv.add_argument("--t-max", type=int)
    itv.add_argument("--out", required=True)
    itv.set_defaults(func=_cmd_intervene)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"prodnet: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"prodnet: failed to converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ProdnetError, OSError) as exc:  # bad arguments or input, unreadable or unwritable files
        print(f"prodnet: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
