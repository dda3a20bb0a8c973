#!/usr/bin/env python3
"""Columnar order experiment: parity densities and phase stability.

Runs a single chain seeded in a chosen phase at high fugacity and
reports per-parity occupation probabilities, the classified-phase
fractions over thinned samples, and the offset-row vacancy check.

Example:
    python scripts/columnar_order_experiment.py --lambda 130 --size 64 \
        --sweeps 100000 --burn-in 20000 --out columnar.json
"""

import argparse
import json
import math
import sys
import time

from squarepack.observables import (
    batch_mean_stderr,
    offset_row_vacancy_check,
    parity_density,
)
from squarepack.sampler import Chain, ChainParams, iter_samples
from squarepack.sticks import classify_phase


def _estimate(series):
    mean, err = batch_mean_stderr(series)
    # one measurement has no stderr: null, not NaN
    return {"mean": mean, "stderr": err if math.isfinite(err) else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=130.0)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--phase", default="ver0")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sweeps", type=int, default=100_000)
    ap.add_argument("--burn-in", dest="burn_in", type=int, default=20_000)
    ap.add_argument("--thinning", type=int, default=100)
    # pure heat bath by default: single-tile slides speed up interface
    # drift between the columnar phases, which this experiment avoids
    ap.add_argument("--translation-fraction", type=float, default=0.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    params = ChainParams(
        width=args.size,
        height=args.size,
        lam=args.lam,
        seed=args.seed,
        sweeps=args.sweeps,
        burn_in=args.burn_in,
        thinning=args.thinning,
        translation_move_fraction=args.translation_fraction,
        initial=args.phase,
    )
    t0 = time.time()
    even_series, odd_series = [], []
    labels = {}
    vacancy_checks = {"checked": 0, "violations": 0}
    for i, cfg in enumerate(iter_samples(Chain(params))):
        dens = parity_density([cfg])
        even_series.append(dens["even_x"])
        odd_series.append(dens["odd_x"])
        label = classify_phase(cfg, lam=params.lam)
        labels[label] = labels.get(label, 0) + 1
        if i % 50 == 0:
            for row in offset_row_vacancy_check(cfg):
                if row["flanked"]:
                    vacancy_checks["checked"] += 1
                    if row["vacancies"] < 4:
                        vacancy_checks["violations"] += 1
    n_meas = len(even_series)
    report = {
        "spec": params.describe(),
        "elapsed_seconds": round(time.time() - t0, 1),
        "even_x": _estimate(even_series),
        "odd_x": _estimate(odd_series),
        "phase_fractions": {k: v / n_meas for k, v in labels.items()},
        "offset_row_vacancy_check": vacancy_checks,
        "note": "Theta constants are fitted, not asserted; see report fields",
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
