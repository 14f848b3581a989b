"""prodnet benchmark: closed-loop CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports prodnet from the
checkout's src/ and exits nonzero when there is none.

One run is one fresh process and one client issuing the workload's
operations in sequence (a closed loop).  It first writes the inputs from
--seed in a separate set-up process, five times, and checks that the
five sets of files are identical.  It then repeats the workload's
operation list until --seconds would be exceeded (at least three times,
five with --trace 1), checking every output, and reports per-iteration
medians.

--trace 0 reports the end-to-end metrics: `wall_s` (all timed
operations), `setup_s` (generating and writing the inputs, median of
five) and `peak_rss_mb` (this process).
--trace 1 alternates untraced and traced iterations and reports
per-layer self times and counts, the tracing overhead (paired traced
minus untraced iteration time, and the direct cost of the wrappers), the
per-operation-kind times and three time shares.  Both print
`metric NAME VALUE UNIT` lines and then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import environment

environment.pin_numpy_settings()

import tracer as tracing  # noqa: E402  (numpy loads after the pin)
from workloads import KINDS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = environment.ROOT / ".perfbench_run"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150
MIN_ITERATIONS = 3

# per-layer self time: metric -> the span names it sums
SELF_TIME = {
    "percolation.derive_subseed_s": ("percolation.derive_subseed",),
    "rng.default_rng_s": ("rng.default_rng",),
    "percolation.supplier_maxima_s": ("percolation.supplier_maxima",),
    "percolation.run_batch_s": ("percolation.run_batch",),
    "estimator.resilience_curve_s": ("estimator.resilience_curve",),
    "network.reachability_s": ("network.reachability",),
    "network.build_s": ("network.build",),
    "network.reverse_graph_s": ("network.reverse_graph",),
    "network.topological_order_s": ("network.topological_order",),
    "contagion.dag_beta_s": ("contagion.dag_beta",),
    # the iteration together with its contraction steps
    "contagion.fixed_point_beta_s": ("contagion.fixed_point_beta", "contagion.contraction_step"),
    "contagion.katz_centrality_s": ("contagion.katz_centrality",),
    "interventions.optimal_protection_s": ("interventions.optimal_protection",),
    "interventions.evaluate_intervention_s": ("interventions.evaluate_intervention",),
    "interventions.supplier_allocation_s": ("interventions.supplier_allocation",),
    "fileio.load_network_json_s": ("fileio.load_network_json",),
    "fileio.parse_io_table_s": ("fileio.parse_io_table",),
    "fileio.write_csv_s": (
        "fileio.write_csv",
        "fileio.write_histogram_csv",
        "fileio.write_resilience_csv",
        "fileio.write_beta_csv",
        "fileio.write_intervention_csv",
    ),
    "cli.self_s": ("cli.main", "cli.build_parser"),
}
CALLS = {
    "percolation.derive_subseed_calls": "percolation.derive_subseed",
    "rng.default_rng_calls": "rng.default_rng",
    "network.reverse_graph_calls": "network.reverse_graph",
    "contagion.katz_centrality_calls": "contagion.katz_centrality",
}
COUNTERS = ("network.reachability_bytes", "contagion.fixed_point_iterations")
# share metric -> (numerator span names, the operation kind it is a share of)
SHARES = {
    "share.seeding_in_simulate": (("percolation.derive_subseed", "rng.default_rng"), "simulate"),
    "share.reach_curve_in_resilience": (
        ("network.reachability", "estimator.resilience_curve"),
        "resilience",
    ),
    "share.katz_in_intervene": (("contagion.katz_centrality",), "intervene"),
}
PER_LAYER = (
    *SELF_TIME,
    *CALLS,
    *COUNTERS,
    "generators.generate_s",
    *SHARES,
    "trace.overhead_s",
    "trace.wrapper_s",
    *(f"cmd.{kind}_s" for kind in KINDS),
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B-computed"  # from array shapes, not measured
    if name.startswith("share.") or name.endswith("_frac"):
        return "frac"
    return "count"


# -- set-up ------------------------------------------------------------------


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(workload: str, seed: int, work: Path, trace: bool):
    """Write the inputs SETUP_REPEATS times, each in a fresh process.

    Returns (input directory, set-up times, traced generator self times,
    number of failed repeats).  A set-up time is the time the process
    spends generating and writing; interpreter start and imports are left
    out, because they vary with the machine's file cache far more than
    the work does.  A repeat fails when its process fails or its files
    differ from the first repeat's.
    """
    times, generate, failed = [], [], 0
    reference = None
    for rep in range(SETUP_REPEATS):
        out = work / f"inputs{rep}"
        cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
               "--out", str(out), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            if rep == 0:
                sys.exit(f"perfbench: set-up for {workload} failed")
            failed += 1
            continue
        report = json.loads(proc.stdout.splitlines()[-1])
        times.append(report["seconds"])
        generate.append(report["layers"].get("generators", 0.0))
        files = {p.name: digest(p) for p in sorted(out.iterdir())}
        if reference is None:
            reference = files
        elif files != reference:
            print(f"perfbench: set-up repeat {rep} wrote different files", file=sys.stderr)
            failed += 1
    return work / "inputs0", times, generate, failed


# -- the closed loop ---------------------------------------------------------


class Loop:
    """Runs a workload's operations repeatedly and checks every output."""

    def __init__(self, ops):
        self.ops = ops
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0

    def iteration(self, tracer=None) -> dict:
        """One pass over the operations; returns the time per kind."""
        times = dict.fromkeys(KINDS, 0.0)
        for index, op in enumerate(self.ops):
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    with tracer.span(f"cmd.{op.kind}"):
                        result = op.run()
                times[op.kind] += time.perf_counter() - start
                problems = op.check(result)
                for path in op.outputs:
                    now = digest(path)
                    if self.digests.setdefault((index, path), now) != now:
                        problems.append(f"{path.name} differs from the first iteration's")
            except Exception:  # a failed operation is counted, and the loop goes on
                times[op.kind] += time.perf_counter() - start
                problems = [traceback.format_exc()]
            if problems:
                self.failed += 1
                print(f"perfbench: FAILED {op.label}: " + "; ".join(problems), file=sys.stderr)
            result = None
            gc.collect()  # each operation starts from the same heap, as a fresh CLI process would
        return times


def run_loop(loop: Loop, seconds: float, trace: bool):
    """Iterate until the next iteration would overrun `seconds`.

    With trace, iterations alternate untraced and traced.  Returns the
    untraced and the traced iterations as (times per kind, spans,
    counters) records.
    """
    tracer = tracing.Tracer()
    plain, traced, durations = [], [], []
    deadline = time.perf_counter() + seconds
    minimum = 2 * MIN_ITERATIONS - 1 if trace else MIN_ITERATIONS
    while True:
        start = time.perf_counter()
        if trace and len(durations) % 2 == 1:
            tracer.reset()
            with tracer.patched():
                times = loop.iteration(tracer)
            traced.append((times, tracer.spans, dict(tracer.counters)))
        else:
            plain.append((loop.iteration(), None, None))
        durations.append(time.perf_counter() - start)
        if len(durations) >= minimum and time.perf_counter() + max(durations[-2:]) > deadline:
            return plain, traced


# -- metrics -----------------------------------------------------------------


def wall(times: dict) -> float:
    return sum(times.values())


def layer_metrics(times: dict, spans, counters: dict) -> dict:
    own = tracing.self_times(spans)
    root = tracing.roots(spans)
    self_by_name, calls = defaultdict(float), defaultdict(int)
    for (name, *_), t in zip(spans, own):
        self_by_name[name] += t
        calls[name] += 1
    out = {m: sum(self_by_name[n] for n in names) for m, names in SELF_TIME.items()}
    out.update({m: calls[n] for m, n in CALLS.items()})
    out.update({c: counters.get(c, 0) for c in COUNTERS})
    for metric, (names, kind) in SHARES.items():
        part = sum(t for (name, *_), t, r in zip(spans, own, root)
                   if name in names and spans[r][0] == f"cmd.{kind}")
        out[metric] = part / times[kind] if times[kind] > 0 else 0.0
    return out


def median_of(records: list, key) -> float:
    return statistics.median(key(r) for r in records)


def write_trace(path: Path, spans):
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    doc = {"names": names, "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in spans]}
    path.write_text(json.dumps(doc))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    environment.import_prodnet()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        inputs, setup_times, generate, setup_failed = set_up(workload, seed, work, trace)
        loop = Loop(WORKLOADS[workload].operations(seed, inputs))
        plain, traced = run_loop(loop, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = loop.attempted + SETUP_REPEATS
    failed = loop.failed + setup_failed
    shown = {f"{kind}_s": median_of(plain, lambda r: r[0][kind]) for kind in KINDS}
    shown["failed_frac"] = failed / attempted
    shown["iterations"] = len(plain) + len(traced)
    if not trace:
        metrics = {
            "wall_s": median_of(plain, lambda r: wall(r[0])),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        per_iteration = [layer_metrics(*r) for r in traced]
        metrics = {m: statistics.median(it[m] for it in per_iteration) for m in per_iteration[0]}
        metrics["generators.generate_s"] = statistics.median(generate)
        # each traced iteration against the untraced one right after it, so
        # the machine's drift over the run cancels; the first untraced
        # iteration also pays first-call costs and has no traced partner
        metrics["trace.overhead_s"] = statistics.median(
            wall(t[0]) - wall(p[0]) for t, p in zip(traced, plain[1:])
        )
        # the direct cost of the wrappers: spans per iteration times the
        # cost of one traced call
        metrics["trace.wrapper_s"] = median_of(traced, lambda r: len(r[1])) * tracing.wrapper_cost()
        metrics.update({f"cmd.{kind}_s": shown[f"{kind}_s"] for kind in KINDS})
        write_trace(WORK / f"trace-{workload}-{seed}.json", traced[-1][1])
    for name, value in {**shown, **metrics}.items():
        print(f"metric {name} {value!r} {unit(name)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{workload} {line}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = value
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
