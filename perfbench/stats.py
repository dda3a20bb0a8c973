"""Statistics of the benchmark: autocorrelation times, ESS, percentiles.

tau_int follows Sokal's convention (Madras & Sokal, J. Stat. Phys. 50,
1988): tau_int = 1/2 + sum_{t=1}^{M} rho(t), with the window M chosen
automatically as the smallest M >= SOKAL_C * tau_int(M). The variance of a
sample mean of n correlated values is then 2 tau_int / n times the
variance of one value, so the effective sample size is n / (2 tau_int).
For an AR(1) series with coefficient phi, 2 tau_int = (1 + phi) / (1 - phi).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple

import numpy as np

SOKAL_C = 5.0


def _autocovariance_sums(series: Sequence[np.ndarray], mean: float, max_lag: int) -> np.ndarray:
    """Sum over series of sum_i (x_i - m)(x_{i+t} - m) for t = 0..max_lag."""
    out = np.zeros(max_lag + 1)
    for x in series:
        d = np.asarray(x, dtype=np.float64) - mean
        n = d.size
        if n == 0:
            continue
        size = 1 << (2 * n - 1).bit_length()
        f = np.fft.rfft(d, size)
        acov = np.fft.irfft(f * np.conj(f), size)[: min(n, max_lag + 1)]
        out[: acov.size] += acov
    return out


def tau_int(series: Iterable[Sequence[float]]) -> Tuple[float, int]:
    """Integrated autocorrelation time by Sokal's automatic windowing.

    ``series`` holds one or more independent chains of the same
    observable; their autocovariances are pooled around the common mean.
    Returns (tau_int, window M). A constant observable has tau_int 1/2.
    """
    chains = [np.asarray(s, dtype=np.float64) for s in series]
    chains = [s for s in chains if s.size]
    if not chains:
        raise ValueError("tau_int needs at least one value")
    mean = float(np.mean(np.concatenate(chains)))
    max_lag = max(s.size for s in chains) - 1
    acov = _autocovariance_sums(chains, mean, max_lag)
    if acov[0] <= 0:
        return 0.5, 0
    rho = acov / acov[0]
    tau = 0.5
    for m in range(1, max_lag + 1):
        tau += rho[m]
        if m >= SOKAL_C * tau:
            return float(tau), m
    return float(tau), max_lag


def effective_sample_size(series: Iterable[Sequence[float]]) -> float:
    """n / (2 tau_int) over the pooled chains."""
    chains = [np.asarray(s, dtype=np.float64) for s in series]
    n = sum(s.size for s in chains)
    tau, _ = tau_int(chains)
    return n / (2.0 * tau)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Percentile by the nearest-rank rule: a value that occurred.

    Unlike interpolation, this never mixes two samples, so a percentile
    that falls between two groups of calls of different sizes reads a
    member of one group.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(round(pct * arr.size / 100.0, 9)))
    return float(np.partition(arr, rank - 1)[rank - 1])


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]
