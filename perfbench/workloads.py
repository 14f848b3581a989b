"""The benchmark's workloads: their input files, command lists and checks.

A workload is a fixed list of operations.  Most are `prodnet` CLI
commands driven in-process through `prodnet.cli.main(argv)`; the
planning calls are public API calls.  `make_inputs` runs in the set-up
process and writes every input file from the workload seed; `operations`
runs in the workload process and prepares, untimed, everything the
checks need.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Metric groups: each operation's time is added to `<kind>_s`.
KINDS = (
    "simulate",
    "simulate_joint",
    "resilience",
    "resilience_cyclic",
    "beta",
    "intervene",
    "plan_api",
)

EPSILON_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))  # the CLI default grid
X_STEP = 0.01  # the CLI default


@dataclass
class Operation:
    """One timed call plus the untimed check of what it produced."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    outputs: list = field(default_factory=list)  # files that must repeat byte for byte


def input_seed(seed: int, index: int) -> int:
    """Generator seed of a workload's index-th input."""
    return seed * 1000 + index


def run_cli(argv: list) -> tuple[int, dict | None]:
    """`prodnet.cli.main(argv)` with its stdout envelope captured."""
    from prodnet.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    text = buffer.getvalue().strip()
    return code, (json.loads(text.splitlines()[-1]) if code == 0 and text else None)


def cli_operation(kind, label, argv, check, out) -> Operation:
    def checked(result):
        code, envelope = result
        if code != 0 or envelope is None:
            return [f"exit code {code}"]
        return check(envelope)

    return Operation(kind, label, lambda: run_cli(argv), checked, [out])


def write_io_table(path: Path, k: int, density: float, seed: int) -> None:
    """A square input-output table with random positive cells (cyclic w.h.p.)."""
    rng = np.random.default_rng(seed)
    values = rng.random((k, k))
    mask = rng.random((k, k)) < density
    np.fill_diagonal(mask, False)
    labels = [f"s{i}" for i in range(1, k + 1)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + labels)
        for i in range(k):
            writer.writerow([labels[i]] + [repr(float(v)) if m else "0" for v, m in zip(values[i], mask[i])])


# -- small_k_trials ----------------------------------------------------------


class SmallKTrials:
    """The criterion-1 networks, where per-trial seeding dominates."""

    name = "small_k_trials"
    why = (
        "tiny networks at thousands of trials: per-trial seeding dominates and "
        "closure, scan and Katz work is trivial"
    )
    X = 0.35
    TRIALS = 2000

    def make_inputs(self, seed, root: Path):
        """The criterion-1 networks exactly, plus the D=4 tree.

        Their generator seeds are the acceptance suite's, not derived from
        the workload seed: rdag8's edge count ranges from 5 to 15 over
        workload seeds 1-3, and the per-trial propagation cost grows with
        the edges, so seeded networks would add that to the run-to-run
        spread.  The workload seed drives the trials.
        """
        import prodnet as pn

        networks = {
            "chain6": pn.ProductionNetwork(6, [(i, i + 1) for i in range(1, 6)]),
            "star7": pn.ProductionNetwork(7, [(1, i) for i in range(2, 8)]),
            "tree3": pn.generate_backward_tree(2, 3),
            "parallel": pn.generate_parallel(3, 2, 2, seed=0),
            "rdag8": pn.generate_rdag(8, 0.3, seed=5),
            "rdag10": pn.generate_rdag(10, 0.25, seed=17),
            "tree4": pn.generate_backward_tree(2, 4),
        }
        for name, net in networks.items():
            pn.save_network_json(net, root / f"{name}.json")

    def operations(self, seed, root: Path) -> list:
        import prodnet as pn
        from oracles import exact_cascade_stats

        ops = []
        for name in ("chain6", "star7", "tree3", "parallel", "rdag8", "rdag10"):
            net = pn.load_network_json(root / f"{name}.json")
            for n in (1, 2):
                for y in (1.0, 0.5):
                    stats = exact_cascade_stats(net, self.X, y, n)
                    out = root / f"sim_{name}_n{n}_y{y}.csv"
                    argv = ["simulate", "--net", str(root / f"{name}.json"), "--x", str(self.X),
                            "--y", str(y), "--n", str(n), "--trials", str(self.TRIALS),
                            "--seed", str(seed), "--out", str(out)]

                    def check(envelope, out=out, stats=stats):
                        return checks.check_against_exact(checks.read_histogram(out), stats, self.TRIALS)

                    kind = "simulate" if y == 1.0 else "simulate_joint"
                    ops.append(cli_operation(kind, f"{kind} {name} n={n}", argv, check, out))
        for name in ("tree4", "rdag10"):
            net = pn.load_network_json(root / f"{name}.json")
            exact = checks.ExactSurvival(net)
            bands = [checks.resilience_band(exact, 1, e, self.TRIALS, X_STEP) for e in EPSILON_GRID]
            out = root / f"res_{name}.csv"
            argv = ["resilience", "--net", str(root / f"{name}.json"), "--trials", str(self.TRIALS),
                    "--seed", str(seed), "--out", str(out)]

            def check(envelope, out=out, bands=bands):
                eps, r = checks.read_curve(out)
                return checks.check_curve_shape(eps, r, EPSILON_GRID) + checks.check_curve_band(
                    eps, r, envelope["auc"], bands
                )

            ops.append(cli_operation("resilience", f"resilience {name}", argv, check, out))
        return ops


# -- large_k_percolation -----------------------------------------------------


class LargeKPercolation:
    """Large networks, where closure, matmul and DFS dominate."""

    name = "large_k_percolation"
    why = (
        "K in the thousands: dense closure, per-level matmul scan and per-trial DFS "
        "dominate, seeding is under 2%"
    )
    TRIALS = 200
    SIM_X = 0.05
    # (file, K, generator parameters); the index is the input_seed index
    RDAG_SCAN = ("rdag_scan.json", 1500, 0.002)
    TRELLIS = ("trellis.json", 40, 40, 0.05)
    IO_TABLE = ("io_cyclic.csv", 1000, 0.0015)
    RDAG_JOINT = ("rdag_joint.json", 2000, 0.01)
    RDAG_BIG = ("rdag_big.json", 10_000, 0.00005)
    # AUC of each resilience input at this trial count, as the mean over
    # workload seeds 1001-1020 (inputs and trials both vary), and the
    # tolerance: six standard deviations of those 20 values plus x_step.
    # Each baseline lies well above its tolerance, so a curve of zeros fails.
    AUC_BASELINE = {
        "rdag_scan": (0.2381, 0.0445),  # sd 0.0057
        "trellis": (0.0772, 0.0435),  # sd 0.0056
        "io_cyclic": (0.1251, 0.0688),  # sd 0.0098
    }

    def make_inputs(self, seed, root: Path):
        import prodnet as pn

        f, k, p = self.RDAG_SCAN
        pn.save_network_json(pn.generate_rdag(k, p, input_seed(seed, 0)), root / f)
        f, w, d, p = self.TRELLIS
        pn.save_network_json(pn.generate_trellis(w, d, p, input_seed(seed, 1)), root / f)
        f, k, density = self.IO_TABLE
        write_io_table(root / f, k, density, input_seed(seed, 2))
        f, k, p = self.RDAG_JOINT
        pn.save_network_json(pn.generate_rdag(k, p, input_seed(seed, 3)), root / f)
        f, k, p = self.RDAG_BIG
        pn.save_network_json(pn.generate_rdag(k, p, input_seed(seed, 4)), root / f)

    def operations(self, seed, root: Path) -> list:
        import prodnet as pn

        if pn.parse_io_table(root / self.IO_TABLE[0]).acyclic:
            raise ValueError(f"{self.IO_TABLE[0]} has no cycle; choose another seed")
        ops = []
        for (f, *_), kind in (
            (self.RDAG_SCAN, "resilience"),
            (self.TRELLIS, "resilience"),
            (self.IO_TABLE, "resilience_cyclic"),
        ):
            stem = Path(f).stem
            out = root / f"res_{stem}.csv"
            argv = ["resilience", "--net", str(root / f), "--trials", str(self.TRIALS),
                    "--seed", str(seed), "--out", str(out)]
            if f.endswith(".csv"):
                argv[3:3] = ["--net-format", "io-table"]
            baseline, tolerance = self.AUC_BASELINE[stem]

            def check(envelope, out=out, baseline=baseline, tolerance=tolerance):
                eps, r = checks.read_curve(out)
                return checks.check_curve_shape(eps, r, EPSILON_GRID) + checks.check_auc_baseline(
                    envelope["auc"], baseline, tolerance
                )

            ops.append(cli_operation(kind, f"{kind} {stem}", argv, check, out))
        # joint percolation: mean F at least the spontaneous mean
        f, k, _ = self.RDAG_JOINT
        out = root / f"sim_{Path(f).stem}.csv"
        ops.append(cli_operation(
            "simulate_joint", f"simulate_joint {Path(f).stem}", self.simulate_argv(root / f, 0.5, seed, out),
            lambda envelope, out=out, k=k: checks.check_large_batch(
                checks.read_histogram(out), k, self.TRIALS, self.SIM_X
            ),
            out,
        ))
        # node percolation: mean F at its exact value
        f = self.RDAG_BIG[0]
        net = pn.load_network_json(root / f)
        descendants, ancestors = checks.closure_sizes(net.node_count, net.edges)
        out = root / f"sim_{Path(f).stem}.csv"
        ops.append(cli_operation(
            "simulate", f"simulate {Path(f).stem}", self.simulate_argv(root / f, 1.0, seed, out),
            lambda envelope, out=out: checks.check_node_batch(
                checks.read_histogram(out), self.TRIALS, self.SIM_X, descendants, ancestors
            ),
            out,
        ))
        return ops

    def simulate_argv(self, net, y, seed, out) -> list:
        return ["simulate", "--net", str(net), "--x", str(self.SIM_X), "--y", str(y), "--n", "1",
                "--trials", str(self.TRIALS), "--seed", str(seed), "--out", str(out)]


# -- katz_planning -----------------------------------------------------------


class KatzPlanning:
    """Dense Katz solves for beta bounds and protection planning."""

    name = "katz_planning"
    why = "K=1000 DAG and cyclic io-table: dense K x K Katz solves dominate and percolation is not used"
    X = 0.1
    T_MAX = 15
    BUDGETS = (0, 2, 5, 10, 25)
    ALLOC_BUDGET = 50
    RDAG = ("rdag.json", 1000, 0.003)
    IO_TABLE = ("io_cyclic.csv", 1000, 0.003)

    def make_inputs(self, seed, root: Path):
        import prodnet as pn

        f, k, p = self.RDAG
        pn.save_network_json(pn.generate_rdag(k, p, input_seed(seed, 0)), root / f)
        f, k, density = self.IO_TABLE
        write_io_table(root / f, k, density, input_seed(seed, 1))

    def operations(self, seed, root: Path) -> list:
        import prodnet as pn

        ops = []
        for f, loader, fmt in (
            (self.RDAG[0], pn.load_network_json, []),
            (self.IO_TABLE[0], pn.parse_io_table, ["--net-format", "io-table"]),
        ):
            path = root / f
            net = loader(path)
            # y well inside every Katz precondition: y < 1/max(Delta, Delta_R)
            # and x < 1 - y Delta, so the three beta routes must agree
            y = 0.5 / max(net.max_out_degree, net.max_in_degree, 1)
            stem = path.stem
            outs = {}
            for method in ("auto", "katz", "fixed-point"):
                out = outs[method] = root / f"beta_{stem}_{method}.csv"
                argv = ["beta", "--net", str(path), *fmt, "--x", str(self.X), "--y", repr(y),
                        "--method", method, "--out", str(out)]

                def check(envelope, outs=outs, last=method == "fixed-point"):
                    if not last:
                        return []
                    return checks.check_beta_agreement({m: checks.read_beta(p) for m, p in outs.items()})

                ops.append(cli_operation("beta", f"beta {stem} {method}", argv, check, out))
            out = root / f"intervene_{stem}.csv"
            argv = ["intervene", "--net", str(path), *fmt, "--x", str(self.X), "--y", repr(y),
                    "--t-max", str(self.T_MAX), "--out", str(out)]
            ops.append(
                cli_operation(
                    "intervene", f"intervene {stem}", argv,
                    lambda envelope, out=out: checks.check_intervention_sweep(out, self.T_MAX), out,
                )
            )
            ops.append(
                Operation(
                    "plan_api", f"plan_api {stem}",
                    lambda path=path, loader=loader, y=y: self.plan(loader(path), y),
                    self.check_plan,
                )
            )
        return ops

    def plan(self, net, y):
        """The planning calls of demos/vulnerability_and_interventions.py."""
        import prodnet as pn

        sweep = []
        for budget in self.BUDGETS:
            plan = pn.optimal_protection(net, budget, y)
            damage, _ = pn.evaluate_intervention(net, plan.protected, self.X, y, 1)
            sweep.append((damage, plan.objective(self.X, 1)))
        caps = np.full(net.node_count, 2)
        return sweep, pn.supplier_allocation(net, y, 1, caps, self.ALLOC_BUDGET)

    def check_plan(self, result) -> list:
        sweep, alloc = result
        damage = np.array([d for d, _ in sweep])
        planned = np.array([p for _, p in sweep])
        problems = []
        if np.any(np.diff(damage) > 1e-12 * damage[0]):
            problems.append("evaluated damage increases with the budget")
        # sum of (I - y A^T)^-1 x(1-t) equals x times the unprotected reverse-Katz mass
        if np.any(np.abs(damage - planned) > 1e-9 * np.maximum(1.0, planned)):
            problems.append("evaluate_intervention disagrees with the plan objective")
        extra = alloc.extra
        if extra.sum() > self.ALLOC_BUDGET or np.any(extra < 0) or np.any(extra > alloc.caps):
            problems.append("supplier allocation is infeasible")
        if alloc.objective(self.X) > float(alloc.reverse_katz.sum()) + 1e-12:
            problems.append("supplier allocation makes the objective worse")
        return problems


WORKLOADS = {w.name: w for w in (SmallKTrials(), LargeKPercolation(), KatzPlanning())}
