"""Benchmark of squarepack: runs workloads, checks outputs, prints metrics.

  python3 perfbench/run.py --workload ordered_pair --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py                      # every workload in turn
  python3 perfbench/run.py --compare BASE NEW   # result files or directories
  python3 perfbench/run.py --selftest           # tau_int, ESS and span tests

A run repeats rounds of fixed work, each in a fresh process (worker.py),
until --seconds have passed and the workload's minimum round count is
met, and aggregates the rounds' values (see end_to_end). With --trace 1
rounds alternate untraced and traced; the traced ones give the per-layer
metrics and the tracing overhead. The last line of output is one JSON
object with the metrics that BENCHMARK.json names for the mode; the full
result, with provenance, chain digests and the metrics that not every
workload has, goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from statistics import median

from stats import effective_sample_size, nearest_rank, quartiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "out" / "results"

WORKLOADS = ("ordered_pair", "sticks", "exact", "stationarity")
# enough rounds for at least 100 samples, so that the tail percentile
# leaves ten beyond it, and, on stationarity, 5 * 10^5 steps per geometry
# for the pooled TV check. ESS is computed over exactly these rounds.
MIN_ROUNDS = {"ordered_pair": 3, "sticks": 4, "exact": 5, "stationarity": 10}
# sample_ms.tail on every workload; further out, short samples read
# interrupts and collector pauses more than the package
TAIL_PCT = 90.0
# Timed per-round values are taken at the slow side of the run, the 90th
# percentile over rounds, rather than the median. On a shared host other
# tenants slow rounds down in episodes of seconds to minutes, and the
# share of slow rounds in a run decides its median; in five sets of ten
# runs on a 2-vCPU VM, the slow-side decile spread less than the median
# on every time metric of every workload.
SLOW_PCT = 90.0
MIN_TRACED_ROUNDS = 4  # two untraced and two traced
MAX_ROUNDS = 500
ROUND_TIMEOUT_S = 150
TV_LIMIT = 0.02  # criterion 7
LAYERS = ("sampler", "observables", "sticks", "coupling", "exact", "graphs")
# single-threaded BLAS, and one string-hash seed so that set iteration
# order, and with it the work of a round, repeats from run to run
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """A round could not run; the benchmark prints no result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- running -------------------------------------------------------------------


def run_round(workload: str, seed: int, index: int, traced: bool) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    spawn = time.monotonic()
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(index),
            "1" if traced else "0", repr(spawn)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round {index} exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} round {index} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list:
    min_rounds = MIN_ROUNDS[workload]
    if trace:
        min_rounds = max(min_rounds, MIN_TRACED_ROUNDS)
    start = time.monotonic()
    rounds = []
    while len(rounds) < MAX_ROUNDS and (
        len(rounds) < min_rounds or time.monotonic() - start < seconds
    ):
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, seed, len(rounds), traced))
    return rounds


# -- metrics -------------------------------------------------------------------


def end_to_end(rounds: list) -> dict:
    """setup_s and peak_rss_mb are medians over rounds; wall_s, the
    per-round sample rate and the per-round median sample time are taken
    at SLOW_PCT over rounds; the tail is a percentile of all samples."""
    samples = np.concatenate([r["sample_s"] for r in rounds])
    rates = [len(r["sample_s"]) / sum(r["sample_s"]) for r in rounds]
    p50s = [nearest_rank(r["sample_s"], 50.0) for r in rounds]
    return {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "wall_s": nearest_rank([r["wall_s"] for r in rounds], SLOW_PCT),
        "samples_per_s": nearest_rank(rates, 100.0 - SLOW_PCT),
        "sample_ms.p50": nearest_rank(p50s, SLOW_PCT) * 1e3,
        "sample_ms.tail": nearest_rank(samples, TAIL_PCT) * 1e3,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }


def chain_metrics(rounds: list) -> dict:
    """Sweeps/s and ESS/s of the workloads that run chains.

    ``rounds`` are the first MIN_ROUNDS rounds of a run. The chains of a
    round depend only on the workload seed and the round index, not on
    tracing, so ESS is a deterministic function of the seed. The rates
    are given only when none of these rounds was traced.
    """
    out = {}
    pooled = defaultdict(list)
    for r in rounds:
        for name, chains in r["series"].items():
            pooled[name].extend(chains)
    if pooled:
        out["ess"] = {name: effective_sample_size(chains) for name, chains in pooled.items()}
    if any(r["traced"] for r in rounds):
        return out
    wall = sum(r["wall_s"] for r in rounds)
    sweeps = sum(r["counts"].get("sampler.sweeps", 0) for r in rounds)
    if sweeps:
        out["sweeps_per_s"] = sweeps / wall
    if pooled:
        out["ess_per_s"] = sum(out["ess"].values()) / wall
    return out


def layer_metrics(traced: list, untraced: list) -> dict:
    n = len(traced)
    spans = {"setup": defaultdict(lambda: [0, 0.0]), "round": defaultdict(lambda: [0, 0.0])}
    counts = defaultdict(float)
    for r in traced:
        for phase, summary in r["layers"].items():
            for name, s in summary.items():
                spans[phase][name][0] += s["calls"]
                spans[phase][name][1] += s["self_s"]
        for name, value in r["counts"].items():
            counts[name] += value
    wall = sum(r["wall_s"] for r in traced)

    def per_call(name, scale, phase="round"):
        calls, self_s = spans[phase][name]
        return self_s / calls * scale if calls else 0.0

    def per_round(name, scale=1.0):
        return spans["round"][name][1] / n * scale

    def share(layer):
        return sum(v[1] for k, v in spans["round"].items() if k.startswith(layer + ".")) / wall

    sweeps = counts["sampler.sweeps"]
    out = {
        "sampler.sweep_us": spans["round"]["sampler.sweep"][1] / sweeps * 1e6 if sweeps else 0.0,
        "sampler.setup_ms": per_call("sampler.setup", 1e3, "setup"),
        "sampler.configuration_ms": per_call("sampler.configuration", 1e3),
        "sampler.state_key_us": per_call("sampler.state_key", 1e6),
        "lattice.enumerate_ms": per_call("lattice.enumerate", 1e3, "setup"),
        "observables.parity_density_ms": per_call("observables.parity_density", 1e3),
        "observables.correlation_ms": per_round("observables.correlation", 1e3),
        "sticks.detect_ms": per_call("sticks.detect", 1e3),
        "sticks.extract_ms": per_call("sticks.extract", 1e3),
        "sticks.divided_ms": per_call("sticks.divided", 1e3),
        "sticks.psi_ms": per_call("sticks.psi", 1e3),
        "sticks.classify_ms": per_call("sticks.classify", 1e3),
        "coupling.disagreement_ms": per_call("coupling.disagreement", 1e3),
        "coupling.clusters_ms": per_call("coupling.clusters", 1e3),
        "coupling.pairs_used_frac": (
            counts["coupling.pairs_used"] / counts["coupling.pairs"] if counts["coupling.pairs"] else 0.0
        ),
        "exact.transfer_s": per_round("exact.transfer"),
        "exact.brute_s": per_round("exact.brute"),
        "exact.seminorm_s": per_round("exact.seminorm"),
        "graphs.enumerate_s": per_round("graphs.enumerate"),
        "graphs.bounds_ms": per_call("graphs.bounds", 1e3),
        "trace.wall_s": wall / n,
        "trace.other_s": share("bench") * wall / n,
        "trace.overhead_frac": median([r["wall_s"] for r in traced])
        / median([r["wall_s"] for r in untraced]) - 1.0,
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = share(layer)
    for name in ("sampler.sweeps", "sampler.site_updates", "sampler.translation_proposals",
                 "lattice.states", "sticks.psi_points", "coupling.disagreement_sites",
                 "coupling.clusters", "exact.configs", "graphs.components"):
        out[name] = counts[name] / n
    # every span under a round root is in exactly one layer, so the layer
    # self times and the benchmark's own remainder add up to the wall time
    out["trace.accounted_s"] = sum(v[1] for v in spans["round"].values()) / n
    return out


def pooled_checks(rounds: list) -> list:
    """Checks that need every round: (passed, description)."""
    out = []
    for name, reference in rounds[0]["pooled"].get("references", {}).items():
        hist = defaultdict(int)
        for r in rounds:
            for key, c in r["pooled"]["histograms"][name].items():
                hist[key] += c
        n = sum(hist.values())
        tv = 0.5 * sum(abs(hist.get(k, 0) / n - p) for k, p in reference.items())
        out.append((tv < TV_LIMIT, f"{name}: TV {tv:.5f} over {n} steps, limit {TV_LIMIT}"))
    return out


def provenance(seed: int, rounds: list) -> dict:
    return {
        **rounds[0]["versions"],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = run_rounds(workload, seed, seconds, trace)
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    metrics = end_to_end(untraced)
    extra = chain_metrics(rounds[: MIN_ROUNDS[workload]])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    pooled = pooled_checks(rounds)
    for ok, what in pooled:
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed, rounds),
        "metrics": metrics,
        "chain_metrics": extra,
        "failed_frac": failed / attempted,
        "checks": {"attempted": attempted, "failed": failed, "failures": failures[:50],
                   "pooled": [what for _, what in pooled]},
        "tail": {"percentile": TAIL_PCT, "samples": sum(len(r["sample_s"]) for r in untraced)},
        "rounds": [
            {
                "traced": r["traced"],
                "digests": r["digests"],
                **end_to_end([r]),
            }
            for r in rounds
        ],
        "extra": [r["extra"] for r in rounds],
    }
    if trace:
        result["per_layer"] = layer_metrics(traced, untraced)
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["path"] = str(path.relative_to(ROOT))
    return result


# -- printing ------------------------------------------------------------------


def print_result(result: dict, spec: dict) -> None:
    p = result["provenance"]
    print(f"== {result['workload']}  seed={result['seed']}  rounds={len(result['rounds'])}"
          f"  trace={result['trace']}")
    print(f"   squarepack {p['squarepack']}  numpy {p['numpy']}  python {p['python']}"
          f"  git {p['git_sha'][:12]}  nproc {p['nproc']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in result["metrics"].items():
        print(f"   {name:<22} {value:14.6g} {units[name]}")
    extra = result["chain_metrics"]
    if "sweeps_per_s" in extra:
        print(f"   {'sweeps_per_s':<22} {extra['sweeps_per_s']:14.6g} sweeps/s")
    if "ess_per_s" in extra:
        print(f"   {'ess_per_s':<22} {extra['ess_per_s']:14.6g} 1/s")
    c = result["checks"]
    print(f"   {'failed_frac':<22} {result['failed_frac']:14.6g} ({c['failed']}/{c['attempted']})")
    print(f"   sample_ms.tail is p{result['tail']['percentile']:g} of "
          f"{result['tail']['samples']} samples")
    for what in c["pooled"]:
        print(f"   check: {what}")
    for what in c["failures"][:10]:
        print(f"   FAILED: {what}")
    print(f"   chain digests, round 0: {result['rounds'][0]['digests']}")
    for name, value in result.get("per_layer", {}).items():
        print(f"   {name:<32} {value:14.6g} {units.get(name, 's')}")
    print(f"   result file: {result['path']}")


def final_line(results: list, spec: dict, trace: bool) -> str:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    attempted = sum(r["checks"]["attempted"] for r in results)
    failed = sum(r["checks"]["failed"] for r in results)
    metrics = {}
    for r in results:
        values = r["per_layer"] if trace else r["metrics"]
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


# -- compare -------------------------------------------------------------------


def load_results(target: str) -> dict:
    """Untraced result files under a path, grouped by workload."""
    path = Path(target)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    grouped = defaultdict(list)
    for f in files:
        data = json.loads(f.read_text())
        if data.get("trace") == 0:
            grouped[data["workload"]].append(data)
    return grouped


def side_values(runs: list, name: str) -> list:
    """Run values when there are several runs, else the rounds of one."""
    if len(runs) > 1:
        return [r["metrics"][name] for r in runs]
    return [r[name] for r in runs[0]["rounds"] if not r["traced"]]


def verdict(base: list, new: list, bound: float, better: str) -> str:
    qb, qn = quartiles(base), quartiles(new)
    if max((qb[2] - qb[0]) / qb[1], (qn[2] - qn[0]) / qn[1]) > bound:
        return "unresolved"
    change = qn[1] / qb[1] - 1.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "within bound"


def compare(base_path: str, new_path: str, spec: dict) -> None:
    base, new = load_results(base_path), load_results(new_path)
    print(f"{'workload':<13} {'metric':<15} {'base':>11} {'new':>11} {'ratio':>7}  "
          f"{'base q1..q3':>23}  {'new q1..q3':>23}  verdict")
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            continue
        for m in spec["end_to_end"]:
            b = side_values(base[workload], m["name"])
            n = side_values(new[workload], m["name"])
            qb, qn = quartiles(b), quartiles(n)
            print(f"{workload:<13} {m['name']:<15} {qb[1]:11.5g} {qn[1]:11.5g} "
                  f"{qn[1] / qb[1]:7.3f}  {qb[0]:11.5g}..{qb[2]:<11.5g} {qn[0]:11.5g}..{qn[2]:<11.5g}"
                  f"  {verdict(b, n, m['bound'], m['better'])}")


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "squarepack" / "__init__.py").is_file():
        print(f"error: no squarepack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return 0
    if args.selftest:
        import selftest

        return selftest.main()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, seconds, bool(args.trace)))
            print_result(results[-1], spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(final_line(results, spec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
