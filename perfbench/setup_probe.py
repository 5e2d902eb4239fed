"""One set-up measurement, in a fresh interpreter.

Times ``import repro``, the native kernel load probe and plan
construction for one workload, and prints the CPU seconds on the last
line.
``run.py`` runs this several times and reports the median as
``setup_s``; the kernel compile happens before, in ``run.py``, and is
not part of it.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path


def main(workload: str, seed: int) -> float:
    start = time.process_time()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro.api  # noqa: F401
    from repro import native
    from workloads import make_plans

    native.available()
    make_plans(workload, seed)
    return time.process_time() - start


if __name__ == "__main__":
    print(main(sys.argv[1], int(sys.argv[2])))
