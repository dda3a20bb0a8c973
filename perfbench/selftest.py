"""Tests of the benchmark's own statistics and tracing.

  python3 perfbench/run.py --selftest

Kept out of the package's pytest suite: they test the benchmark, not
squarepack.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from stats import effective_sample_size, nearest_rank, tau_int
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + noise[i]
    return x


def test_tau_int_matches_ar1() -> str:
    """2 tau_int of an AR(1) series is (1 + phi) / (1 - phi)."""
    worst = 0.0
    for phi in (0.0, 0.5, 0.9):
        exact = (1 + phi) / (1 - phi)
        tau, _ = tau_int([ar1(phi, 1_000_000, seed=int(phi * 10) + 1)])
        rel = abs(2 * tau - exact) / exact
        assert rel < 0.05, f"phi={phi}: 2 tau_int={2 * tau:.4f}, exact {exact:.4f}"
        worst = max(worst, rel)
    return f"2 tau_int matches (1+phi)/(1-phi) at phi in (0, 0.5, 0.9), max rel err {worst:.3f}"


def test_pooled_chains_match_one_long_chain() -> str:
    x = ar1(0.8, 400_000, seed=3)
    one, _ = tau_int([x])
    split, _ = tau_int(np.split(x, 8))
    assert abs(one - split) / one < 0.05, (one, split)
    return f"tau_int of 8 pooled pieces {split:.3f} vs one chain {one:.3f}"


def test_ess_is_deterministic_for_a_fixed_seed_chain() -> str:
    sys.path.insert(0, str(SRC))
    from squarepack.sampler import Chain, ChainParams

    def ess_of_chain() -> float:
        chain = Chain(ChainParams(4, 4, 2.0, seed=1107, sweeps=0))
        chain.sweep(1000)
        tiles = []
        for _ in range(20_000):
            chain.sweep()
            tiles.append(chain.state_key().bit_count())
        return effective_sample_size([tiles])

    first, second = ess_of_chain(), ess_of_chain()
    assert first == second, (first, second)
    assert 0 < first <= 2 * 20_000
    return f"ESS of the fixed-seed 4x4 chain is {first!r} on both runs"


def test_self_time_subtracts_children() -> str:
    tr = Tracer()
    root = tr.open("bench.round")
    t0 = tr.begin_sample()
    tr.wrap("layer.inner", time.sleep)(0.02)
    time.sleep(0.01)
    tr.end_sample(t0)
    tr.close(root)
    summary = tr.summary(root)
    inner = summary["layer.inner"]["self_s"]
    sample = summary["bench.sample"]["self_s"]
    total = sum(s["self_s"] for s in summary.values())
    wall = tr.end[root] - tr.start[root]
    assert 0.02 <= inner < 0.03 and 0.01 <= sample < 0.02, summary
    assert abs(total - wall) < 1e-9
    assert list(tr.sample) == [-1, 0, 0]
    return "self times exclude children and add up to the root span"


def test_percentiles() -> str:
    values = [1.0] * 50 + [10.0] * 50
    assert nearest_rank(values, 50) == 1.0 and nearest_rank(values, 51) == 10.0
    assert nearest_rank(values, 90) == 10.0 and nearest_rank([3.0, 1.0, 2.0], 90) == 3.0
    return "nearest-rank percentiles"


TESTS = (
    test_tau_int_matches_ar1,
    test_pooled_chains_match_one_long_chain,
    test_ess_is_deterministic_for_a_fixed_seed_chain,
    test_self_time_subtracts_children,
    test_percentiles,
)


def main() -> int:
    failed = 0
    for test in TESTS:
        try:
            print(f"PASS {test.__name__}: {test()}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0
