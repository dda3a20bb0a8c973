"""One round of one workload, in a fresh process; prints the round as JSON.

run.py starts this script once per round, so that every round imports
squarepack afresh and no lru-cached table of one round serves the next:

  python3 perfbench/worker.py WORKLOAD SEED ROUND TRACED SPAWN_MONOTONIC

SPAWN_MONOTONIC is time.monotonic() in the parent just before the start;
set-up time runs from it to the first timed call. The package is
imported from the checkout's src/ only.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_IDS = {"ordered_pair": 1, "sticks": 2, "exact": 3, "stationarity": 4}


def _import_package():
    if not (SRC / "squarepack" / "__init__.py").is_file():
        raise SystemExit(f"squarepack sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import squarepack

    if not Path(squarepack.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported squarepack from {squarepack.__file__}, not {SRC}")
    return squarepack


def main(argv) -> None:
    workload, seed, index, traced, spawn = argv
    seed, index, traced, spawn = int(seed), int(index), traced == "1", float(spawn)
    squarepack = _import_package()
    import numpy as np

    import workloads
    from tracing import Recorder, Tracer

    rec = Tracer() if traced else Recorder()
    rnd = workloads.Round(rec, spawn)
    wid = WORKLOAD_IDS[workload]
    workloads.WORKLOADS[workload](rnd, np.random.default_rng([seed, wid, index]))

    out = {
        "round": index,
        "traced": traced,
        "setup_s": rnd.setup_s,
        "wall_s": rnd.wall_s,
        "peak_rss_mb": rnd.peak_rss_mb,
        "sample_s": rec.sample_s.tolist(),
        "counts": dict(rec.counts),
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "failures": rnd.failures,
        "series": rnd.series,
        "digests": rnd.digests,
        "extra": rnd.extra,
        "pooled": rnd.pooled,
        "versions": {
            "squarepack": squarepack.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if traced:
        out["layers"] = {
            "setup": rec.summary(rnd.setup_span),
            "round": rec.summary(rnd.round_span),
        }
        rec.write(BENCH / "out" / "spans" / f"{workload}-seed{seed}-round{index}.npz")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
