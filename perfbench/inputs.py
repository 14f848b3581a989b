"""Set-up process: write one workload's input files from its seed.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR [--trace 1]

Runs as its own process because generating the largest random DAG
briefly needs over a gigabyte, which must not count towards the
workload process's peak memory.  Prints one JSON line: the seconds spent
generating and writing (interpreter start and imports excluded) and,
with --trace 1, the self time of each traced layer.
"""

from __future__ import annotations

import argparse
import json
import time
from collections import defaultdict
from pathlib import Path

import environment

environment.pin_numpy_settings()

from tracer import Tracer, self_times  # noqa: E402  (numpy loads after the pin)
from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    environment.import_prodnet()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    start = time.perf_counter()
    if args.trace:
        with tracer.patched():
            workload.make_inputs(args.seed, out)
    else:
        workload.make_inputs(args.seed, out)
    seconds = time.perf_counter() - start
    layers = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        layers[name.split(".")[0]] += own
    print(json.dumps({"seconds": seconds, "layers": layers}))


if __name__ == "__main__":
    main()
