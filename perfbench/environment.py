"""Process settings shared by the benchmark's entry points.

`pin_numpy_settings` must run before numpy is first imported: OpenBLAS
reads its thread count, and numpy its huge-page setting, once, at load.
Both are fixed rather than left to the environment, so two commits are
always compared under the same settings:

- one BLAS thread (never more than nproc), because the dense matmuls and
  solves change speed with the thread count;
- no transparent huge pages for numpy arrays (numpy asks the kernel for
  them on arrays of 4 MB and more), because whether the kernel can supply
  them depends on the state of the machine's memory, and they change
  speed and peak RSS: large_k_percolation peaks at about 538 MB with
  them and about 488 MB without.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent  # the checkout


def pin_numpy_settings():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def import_prodnet():
    """Import prodnet from this checkout's src/, and the test oracles.

    Exits with a nonzero status when the checkout has no src/prodnet: the
    benchmark measures the source next to it, never an installed copy.
    """
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    try:
        import prodnet
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import prodnet from {src}: {exc}")
    if not Path(prodnet.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: prodnet was imported from {prodnet.__file__}, not from {src}")
    return prodnet


def describe() -> dict:
    """The machine and library facts a result depends on."""
    import numpy as np

    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "3":
            l3 = (index / "size").read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }
