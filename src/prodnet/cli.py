"""Command-line experiment harness.

Subcommands: generate, simulate, resilience, bounds, beta, intervene.
Every run is pinned by its flags plus --seed; CSV outputs are
byte-reproducible.  `main` builds the one JSON result envelope (code
version, resolved arguments, output paths, wall time, plus the fields
the subcommand returns) and prints it to stdout.

Exit codes: 0 success, 1 usage, 2 validation, 3 numeric precondition,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import __version__
from . import bounds as bnd
from .contagion import _ranking, _root_bound, dag_beta, fixed_point_beta, katz_beta, vulnerability_ranking
from .errors import ConvergenceError, ParameterError, PreconditionError, ProdnetError, check_int, check_real
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
from .interventions import _check_budget, _ranked_reverse_katz
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


def _load_network(args):
    """The --net network and the supplier count n (default: the network's own)."""
    path = Path(args.net)
    fmt = args.net_format
    if fmt == "auto":
        fmt = "json" if path.suffix.lower() == ".json" else "edge-csv"
    if fmt == "json":
        net = load_network_json(path)
    elif fmt == "edge-csv":
        net = parse_edge_csv(path)
    else:
        net = parse_io_table(path, threshold=args.io_threshold)
    return net, net.supplier_count if args.n is None else args.n


def _add_net_args(p: argparse.ArgumentParser):
    p.add_argument("--net", required=True, help="network file")
    p.add_argument(
        "--net-format",
        choices=["auto", "json", "edge-csv", "io-table"],
        default="auto",
        help="input format (auto: .json as JSON, otherwise edge CSV)",
    )
    p.add_argument("--io-threshold", type=float, default=0.0, help="nonnegative io-table edge threshold")
    p.add_argument("--n", type=int, help="suppliers per product (default: the network's n)")


def _eps_grid(spec: str | None):
    if spec is None:
        return DEFAULT_EPSILON_GRID
    try:
        return [float(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --eps-grid value {spec!r}: {exc}") from exc


# --arch -> (flags it reads, builder).  A flag that another --arch reads
# is refused (`_by_arch`).  Every flag read is required unless it has an
# entry in _DEFAULTS, which `_by_arch` resolves when the flag is left out.
# The builders are lambdas so that every call looks its target up in the
# module namespace when it runs.
_DEFAULTS = {"max_depth": 1000}
_GENERATORS = {
    "rdag": (("K", "p", "seed"), lambda a: generate_rdag(a.K, a.p, a.seed)),
    "parallel": (("K", "m", "d", "seed"), lambda a: generate_parallel(a.K, a.m, a.d, a.seed)),
    "backward-tree": (("m", "D"), lambda a: generate_backward_tree(a.m, a.D)),
    "gw-tree": (
        ("dist", "seed", "max_depth"),
        lambda a: generate_gw_tree(_parse_dist(a.dist), a.max_depth, a.seed).network,
    ),
    "trellis": (("w", "D", "p", "seed"), lambda a: generate_trellis(a.w, a.D, a.p, a.seed)),
}


def _regime_row(r) -> tuple:
    return (r.regime, r.lower, r.upper)


# --arch -> (flags it reads, builder of the (regime, lower, upper) rows)
_BOUNDS = {
    "rdag": (
        ("K", "p"),
        lambda a: [("tail-majorant", bnd.rdag_lb_x(a.K, a.p, a.epsilon, a.n), "")],
    ),
    "parallel": (
        ("K", "m", "d"),
        lambda a: [
            _regime_row(bnd.parallel_bounds(a.K, a.m, a.d, a.epsilon, a.n, scope))
            for scope in ("complex-only", "all-products")
        ],
    ),
    "backward-tree": (
        ("m", "D"),
        lambda a: [_regime_row(bnd.tree_bounds(a.m, a.D, a.epsilon, a.n))],
    ),
    "gw": (  # gw_bounds returns (upper, lower)
        ("mu", "tau"),
        lambda a: [("per-extinction-depth", *bnd.gw_bounds(a.mu, a.tau, a.epsilon, a.n)[::-1])],
    ),
    "trellis": (
        ("w", "D", "p"),
        lambda a: [_regime_row(bnd.trellis_bounds(a.w, a.D, a.p, a.epsilon, a.n))],
    ),
}


def _by_arch(table, args):
    """Check that --arch got every flag it requires and none that only another --arch reads, then build.

    A flag with a default that --arch reads is resolved to it in args, so
    the JSON record's spec shows the value the build used.
    """
    read, build = table[args.arch]
    flags = lambda names: ", ".join(f"--{n.replace('_', '-')}" for n in names)
    for name in read:
        if getattr(args, name) is None and name in _DEFAULTS:
            setattr(args, name, _DEFAULTS[name])
    missing = [n for n in read if getattr(args, n) is None]
    if missing:
        raise ParameterError(f"--arch {args.arch} requires {flags(missing)}")
    others = dict.fromkeys(n for names, _ in table.values() for n in names if n not in read)
    unread = [n for n in others if getattr(args, n) is not None]
    if unread:
        raise ParameterError(f"--arch {args.arch} does not read {flags(unread)}")
    return build(args)


def _add_arch_args(p: argparse.ArgumentParser, table):
    p.add_argument("--arch", required=True, choices=list(table))
    for flag, kind in (("K", int), ("p", float), ("m", int), ("d", int), ("D", int), ("w", int)):
        p.add_argument(f"--{flag}", type=kind)


def _cmd_generate(args):
    net = _by_arch(_GENERATORS, args)
    save_network_json(net, args.out)
    return {"k": net.node_count, "edges": net.edge_count}


def _cmd_simulate(args):
    net, n = _load_network(args)
    cfg = PercolationConfig(x=args.x, y=args.y, n=n, seed=args.seed)
    batch = run_batch(net, cfg, args.trials)
    write_histogram_csv(batch.pmf, args.trials, args.out)
    return {"mean_failures": float(batch.F.mean()), "k": net.node_count}


def _cmd_resilience(args):
    net, n = _load_network(args)
    curve = resilience_curve(
        net, epsilon_grid=_eps_grid(args.eps_grid), n=n, trials=args.trials, seed=args.seed
    )
    write_resilience_csv(curve, args.out)
    return {"auc": curve.auc, "k": net.node_count}


def _cmd_bounds(args):
    rows = [(args.arch, *row) for row in _by_arch(_BOUNDS, args)]
    write_csv(args.out, ["architecture", "regime", "lower", "upper"], rows)
    return {}


def _cmd_beta(args):
    net, n = _load_network(args)
    if args.method == "auto":
        ranking = vulnerability_ranking(net, args.x, args.y, n)
    else:
        solve = {"dag": dag_beta, "fixed-point": fixed_point_beta, "katz": katz_beta}[args.method]
        ranking = _ranking(solve(net, args.x, args.y, n))
    write_beta_csv(ranking, args.out)
    return {"total_beta": float(sum(b for _, b in ranking)), "k": net.node_count}


def _cmd_intervene(args):
    net, n = _load_network(args)
    y = args.y
    if y is None:
        # the spectral default: safely below 1/max(Delta, Delta_R)
        y = 1.0 / (1e-5 + max(net.max_out_degree, net.max_in_degree, 1))
    t_max = net.node_count if args.t_max is None else _check_budget(net, args.t_max, "--t-max")
    # row T holds optimal_protection(net, T, y)'s objective and bound, read off one ranked pass
    mass = _ranked_reverse_katz(net, y)[2][: t_max + 1].tolist()
    epsilon, n = check_real(args.epsilon, "epsilon", "(0, 1)"), check_int(n, "n")
    xn = bnd._power(check_real(args.x, "x"), n)
    rows = [(T, T / net.node_count, xn * m, _root_bound(epsilon, m, n)[0]) for T, m in enumerate(mass)]
    write_intervention_csv(rows, args.out)
    return {"y": y, "k": net.node_count}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = _Parser(prog="prodnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"prodnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="emit a network file from a generator")
    _add_arch_args(gen, _GENERATORS)
    gen.add_argument("--dist", help="branching distribution, e.g. poisson:0.8 or binomial:4,0.2")
    gen.add_argument("--max-depth", type=int, help=f"gw-tree depth cap (default {_DEFAULTS['max_depth']})")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    sim = sub.add_parser("simulate", help="batch percolation trials, emit F histogram")
    _add_net_args(sim)
    sim.add_argument("--x", type=float, required=True)
    sim.add_argument("--y", type=float, default=1.0)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    res = sub.add_parser("resilience", help="estimate the resilience curve and AUC")
    _add_net_args(res)
    res.add_argument("--eps-grid", help="comma-separated eps values (default 0.05..0.95)")
    res.add_argument("--trials", type=int, default=1000)
    res.add_argument("--seed", type=int, default=0)
    res.add_argument("--out", required=True)
    res.set_defaults(func=_cmd_resilience)

    bds = sub.add_parser("bounds", help="closed-form bound table for an architecture")
    _add_arch_args(bds, _BOUNDS)
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
    bet.add_argument("--method", choices=["auto", "dag", "fixed-point", "katz"], default="auto")
    bet.add_argument("--out", required=True)
    bet.set_defaults(func=_cmd_beta)

    itv = sub.add_parser("intervene", help="protection sweep over budgets 0..K")
    _add_net_args(itv)
    itv.add_argument("--y", type=float, help="edge survival (default: 1/(1e-5 + max degree))")
    itv.add_argument("--x", type=float, default=0.1)
    itv.add_argument("--epsilon", type=float, default=0.2)
    itv.add_argument("--t-max", type=int)
    itv.add_argument("--out", required=True)
    itv.set_defaults(func=_cmd_intervene)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        extra = args.func(args)
    except PreconditionError as exc:
        print(f"prodnet: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"prodnet: failed to converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ProdnetError, OSError) as exc:  # bad arguments or input, unreadable or unwritable files
        print(f"prodnet: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    doc = {
        "command": args.command,
        "version": __version__,
        "spec": {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None},
        "outputs": [args.out],
        "wall_time_s": round(time.monotonic() - started, 6),
        **extra,
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
