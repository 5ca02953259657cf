"""Record the reference answers for every pool entry.

    python3 perfbench/record.py

Runs each request of every pool once through the library in ``src/`` and
writes ``perfbench/reference.json``. The stored answers are what ``run.py``
compares later runs against, so re-record only when the library's answers
are meant to change, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    pools = workloads.build_pools()
    out = {"pool_seed": workloads.POOL_SEED,
           "recorded_with": {"numpy": numpy.__version__,
                             "scipy": scipy.__version__},
           "pools": {}}
    for name, pool in pools.items():
        t0 = time.perf_counter()
        cells = []
        for cell in pool:
            entries = []
            for params in cell:
                answer = workloads.execute(name, params)
                entries.append({"params": params, "answer": answer})
            cells.append(entries)
        out["pools"][name] = cells
        n = sum(len(c) for c in cells)
        print(f"{name}: {n} entries in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr, flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
