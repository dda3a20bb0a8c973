#!/usr/bin/env python3
"""Anisotropy sweep: correlation lengths vs fugacity.

For each fugacity, measures the vertical correlation length of a
phase-seeded chain by exponential fit of the even-lag autocorrelation,
then runs a phase-matched chain pair and fits the directional decay
lengths of disagreement-cluster reach. Reports the xi_y / xi_x ratio at
the middle fugacity and the log-log slope of xi_y across the sweep.

Example:
    python scripts/anisotropy_sweep.py --lambdas 25 100 400 --out aniso.json
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from squarepack.coupling import radius_tail_experiment
from squarepack.observables import autocorrelation_curve, fit_decay_length
from squarepack.sampler import Chain, ChainParams, iter_samples


def measure_xi_y(lam, width, height, seed, sweeps, thinning, burn_in, lag_max):
    params = ChainParams(
        width=width,
        height=height,
        lam=lam,
        seed=seed,
        sweeps=sweeps,
        burn_in=burn_in,
        thinning=thinning,
        translation_move_fraction=0.1,
        initial="ver0",
    )
    samples = list(iter_samples(Chain(params)))
    curve = autocorrelation_curve(samples, "y", list(range(2, lag_max, 2)))
    xi, err = fit_decay_length(curve, floor=5e-3)
    return xi, err, curve


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambdas", type=float, nargs="+", default=[25.0, 100.0, 400.0])
    ap.add_argument("--width", type=int, default=32)
    ap.add_argument("--height", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sweeps", type=int, default=30_000)
    ap.add_argument("--burn-in", dest="burn_in", type=int, default=4000)
    ap.add_argument("--thinning", type=int, default=50)
    ap.add_argument("--coupling-lambda", type=float, default=100.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    t0 = time.time()
    rows = []
    for lam in args.lambdas:
        lag_max = max(12, min(int(5 * math.sqrt(lam)), args.height // 3))
        xi, err, curve = measure_xi_y(
            lam,
            args.width,
            args.height,
            args.seed + int(lam),
            args.sweeps,
            args.thinning,
            args.burn_in,
            lag_max,
        )
        rows.append({"lambda": lam, "xi_y": xi, "stderr": err})
        print(f"lambda={lam}: xi_y={xi:.2f} +- {err:.2f}", file=sys.stderr)
    finite = [r for r in rows if math.isfinite(r["xi_y"]) and r["xi_y"] > 0]
    slope = float(
        np.polyfit(
            [math.log(r["lambda"]) for r in finite],
            [math.log(r["xi_y"]) for r in finite],
            1,
        )[0]
    )

    # coupling pairs run under quarantine: pure heat bath and a tall
    # lattice keep the seeded phase from drifting
    template = ChainParams(
        width=args.width,
        height=max(args.height, 256),
        lam=args.coupling_lambda,
        seed=args.seed,
        sweeps=8_000,
        burn_in=2_000,
        thinning=40,
        translation_move_fraction=0.0,
        initial="ver0",
    )
    tails = radius_tail_experiment(
        template, (args.seed + 11, args.seed + 22), phase="ver0"
    )
    fit_x = tails.fits.get("horizontal", {}).get("decay_length")
    fit_y = tails.fits.get("vertical", {}).get("decay_length")
    ratio = (fit_y / fit_x) if fit_x and fit_y else None

    report = {
        "spec": {
            "lambdas": args.lambdas,
            "dims": [args.width, args.height],
            "seed": args.seed,
            "sweeps": args.sweeps,
            "coupling_lambda": args.coupling_lambda,
        },
        "xi_y_rows": rows,
        "loglog_slope": slope,
        "coupling_fits": tails.fits,
        "coupling_ratio_y_over_x": ratio,
        "pairs": {"used": tails.pairs_used, "skipped": tails.pairs_skipped},
        "elapsed_seconds": round(time.time() - t0, 1),
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
