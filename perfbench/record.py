"""Record a trajectory point: repeated runs of every workload, summarised.

    python3 perfbench/record.py

Runs two sets, one after the other, of `run.py` once per workload and
seed (seeds 1-10, each in a fresh process, for BENCHMARK.json's
run_seconds) with tracing off, then once more per workload with tracing
on.  Writes to perfbench/baseline.json, for each set, the medians,
quartiles and spreads (interquartile range over median) of every
end-to-end metric, the change of each median from the first set to the
second, the per-operation-kind breakdown, the traced per-layer metrics,
the machine description and a cross-check against the hand-measured
costs that ROADMAP.md lists under "Recent".
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment

environment.pin_numpy_settings()

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
OUT = HERE / "baseline.json"
SECONDS = json.loads((environment.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETS = 2  # the first set against the second shows how far medians drift
SEEDS = range(1, 11)
LABEL = "first trajectory point: prodnet with perfbench added"
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)$")

# hand-measured costs quoted in ROADMAP.md "Recent"
ROADMAP_SEED_US_PER_TRIAL = 55.0
ROADMAP_CURVE_K3000_S = 6.05


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(metric lines, final JSON) of one benchmark run."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=environment.ROOT)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    shown = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            shown[match[1]] = {"value": float(match[2]), "unit": match[3]}
    return shown, json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def curve_k3000() -> float:
    """One untraced K=3000, p=0.001 resilience curve at 200 trials, in seconds."""
    environment.import_prodnet()
    import prodnet as pn

    net = pn.generate_rdag(3000, 0.001, seed=1)
    start = time.perf_counter()
    pn.resilience_curve(net, trials=200, seed=1)
    return time.perf_counter() - start


def main():
    doc = {
        "label": LABEL,
        "environment": environment.describe(),
        "settings": {"sets": SETS, "seconds": SECONDS, "seeds": list(SEEDS)},
        "workloads": {w: {"why": WORKLOADS[w].why, "failed": 0, "attempted": 0, "sets": []} for w in WORKLOADS},
    }
    runs = {w: [] for w in WORKLOADS}
    for _ in range(SETS):
        for workload, entry in doc["workloads"].items():
            results = [run(workload, seed, 0) for seed in SEEDS]
            runs[workload] += results
            entry["sets"].append(
                {m: summary([r["metrics"][m]["value"] for _, r in results]) for m in results[0][1]["metrics"]}
            )
            print(workload, json.dumps({m: v["spread"] for m, v in entry["sets"][-1].items()}), flush=True)
    for workload, entry in doc["workloads"].items():
        first, second = entry["sets"]
        entry["median_change"] = {m: second[m]["median"] / first[m]["median"] - 1.0 for m in first}
        traced, traced_result = run(workload, 1, 1)
        results = runs[workload] + [(traced, traced_result)]
        entry["failed"] = sum(r["failed"] for _, r in results)
        entry["attempted"] = sum(r["attempted"] for _, r in results)
        entry["breakdown"] = {
            m: statistics.median(s[m]["value"] for s, _ in runs[workload])
            for m in runs[workload][0][0]
            if m.endswith("_s") or m == "failed_frac"
        }
        entry["trace_seed_1"] = {m: v["value"] for m, v in traced_result["metrics"].items()}
    small = doc["workloads"]["small_k_trials"]["trace_seed_1"]
    derive = small["percolation.derive_subseed_s"] / small["percolation.derive_subseed_calls"]
    rng = small["rng.default_rng_s"] / small["rng.default_rng_calls"]
    doc["cross_check"] = {
        "seed_us_per_trial": {
            "roadmap": ROADMAP_SEED_US_PER_TRIAL,
            "traced_derive_subseed_us": derive * 1e6,
            "traced_default_rng_us": rng * 1e6,
            "traced_total_us": (derive + rng) * 1e6,
        },
        "curve_k3000_200_trials_s": {"roadmap": ROADMAP_CURVE_K3000_S, "untraced": curve_k3000()},
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
