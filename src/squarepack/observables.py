"""Estimators over configuration samples and the structured run report.

Standard errors use batch means with 32 batches, which is robust to the
autocorrelation of Markov chain output without spectral estimation.
Theta-style predictions are reported as fitted constants, never asserted
against unspecified universal constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, InsufficientData, ParameterError
from .lattice import FACE_MARGIN, Configuration, face_cover

BATCHES = 32


def batch_mean_stderr(values: Sequence[float]):
    """(mean, stderr) by splitting the sequence into BATCHES consecutive
    batches."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise InsufficientData("no measurements")
    mean = float(arr.mean())
    nb = min(BATCHES, arr.size)
    if nb < 2:
        return mean, float("nan")
    usable = arr[: arr.size - arr.size % nb]
    means = usable.reshape(nb, -1).mean(axis=1)
    return mean, float(means.std(ddof=1) / math.sqrt(nb))


def _residue_class_sizes(width: int, height: int, boundary: str) -> Dict[Tuple[int, int], int]:
    """Model sites per residue class (x mod 2, y mod 2), from the even
    dimensions: a torus axis has size/2 residues of each parity, the
    interior points 1 .. size-1 of a rectangle one even residue fewer."""
    fewer = boundary != "periodic"
    nx, ny = (width // 2 - fewer, width // 2), (height // 2 - fewer, height // 2)
    return {(i, j): nx[i] * ny[j] for i in (0, 1) for j in (0, 1)}


def parity_density(samples: Sequence[Configuration]) -> Dict[str, float]:
    """Occupation probability per residue class of (x mod 2, y mod 2).

    Averages over the model sites of each sample; classes are keyed
    "xy" by the two residues. Also reports the even/odd x marginals.
    Counts are sums over the four residue-class slices of each sample's
    occupancy grid. A tile off the model sites, on a rectangle's
    boundary, is a DimensionError.
    """
    if not samples:
        raise InsufficientData("no samples")
    totals = {(i, j): 0.0 for i in (0, 1) for j in (0, 1)}
    sizes = {(i, j): 0 for i in (0, 1) for j in (0, 1)}
    for cfg in samples:
        off = cfg._tile_off_the_sites()
        if off is not None:
            raise DimensionError(f"tile at {off} is not on a model site")
        grid = cfg.occupancy_grid()  # indexed [y, x]
        for (i, j), size in _residue_class_sizes(cfg.width, cfg.height, cfg.boundary).items():
            sizes[i, j] += size
            totals[i, j] += int(np.count_nonzero(grid[j::2, i::2]))
    out = {}
    for (i, j), c in totals.items():
        out[f"{i}{j}"] = c / sizes[(i, j)] if sizes[(i, j)] else 0.0
    even_sites = sizes[(0, 0)] + sizes[(0, 1)]
    odd_sites = sizes[(1, 0)] + sizes[(1, 1)]
    out["even_x"] = (totals[(0, 0)] + totals[(0, 1)]) / even_sites if even_sites else 0.0
    out["odd_x"] = (totals[(1, 0)] + totals[(1, 1)]) / odd_sites if odd_sites else 0.0
    return out


def occupancy_stack(samples: Sequence[Configuration]) -> np.ndarray:
    """Samples as a (n, H, W) float array over the torus site grid."""
    grids = [c.occupancy_grid().astype(np.float64) for c in samples]
    return np.stack(grids)


def autocorrelation_curve(
    samples: Sequence[Configuration], axis: str, lags: Sequence[int]
) -> Dict[int, float]:
    """Connected occupancy autocorrelation along one axis of a torus.

    The mean is removed per site (so the frozen parity pattern of an
    ordered phase does not masquerade as correlation), then products are
    averaged over positions and samples for each lag. ``axis`` is "x"
    or "y"; any other is a ParameterError.
    """
    if axis not in ("x", "y"):
        raise ParameterError(f"axis must be 'x' or 'y', got {axis!r}")
    if not samples:
        raise InsufficientData("no samples")
    if samples[0].boundary != "periodic":
        raise InsufficientData("autocorrelation curves require a torus")
    stack = occupancy_stack(samples)
    centered = stack - stack.mean(axis=0, keepdims=True)
    var = float((centered**2).mean())
    if var <= 0:
        return {d: 0.0 for d in lags}
    shift_axis = 1 if axis == "y" else 2
    curve = {}
    for d in lags:
        shifted = np.roll(centered, -d, axis=shift_axis)
        curve[d] = float((centered * shifted).mean() / var)
    return curve


def fit_decay_length(
    curve: Mapping[int, float], floor: float = 1e-4
) -> Tuple[float, float]:
    """Least-squares exponential decay length from a correlation curve.

    Fits log c(d) = a - d / xi over the lags where the curve stays above
    the noise floor. Returns (xi, stderr); a curve already below the
    floor at the first lag fits as length 0 (below resolution).
    """
    pts = [(d, c) for d, c in sorted(curve.items()) if d > 0]
    usable = []
    for d, c in pts:
        if c <= floor:
            break
        usable.append((d, math.log(c)))
    if not usable:
        return 0.0, float("nan")
    if len(usable) < 2:
        raise InsufficientData("fewer than two usable lags for the decay fit")
    xs = np.array([d for d, _ in usable])
    ys = np.array([v for _, v in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    if slope >= 0:
        return float("inf"), float("nan")
    resid = ys - (slope * xs + intercept)
    dof = max(len(usable) - 2, 1)
    denom = float(((xs - xs.mean()) ** 2).sum())
    slope_err = math.sqrt(float((resid**2).sum()) / dof / denom) if denom else float("nan")
    xi = -1.0 / slope
    return float(xi), float(xi * xi * slope_err)


def offset_row_vacancy_check(cfg: Configuration) -> List[dict]:
    """Structural check on offset tiles of a columnar sample.

    For every tile centered at even x, find the nearest flanking even-x
    vertical sticks spanning the tile's two face rows; where both exist,
    count the vacant faces strictly between the sticks in those rows.
    Each such tile forces at least four vacancies.
    """
    from .sticks import extract_sticks

    results = []
    sticks = [
        s
        for s in extract_sticks(cfg)
        if s.orientation == "vertical" and s.parity == 0
    ]
    w = cfg.width
    periodic = cfg.boundary == "periodic"
    cover = face_cover(cfg)
    for (x, y) in sorted(cfg.occupied):
        if x % 2:
            continue
        rows = (y - 1, y)

        def spans(stick):
            # the face rows y - 1 and y lie within the stick, which on a
            # torus may wrap past y = 0
            if stick.wraps:
                return True
            below = rows[0] - stick.anchor[1]
            if periodic:
                below %= cfg.height
            return 0 <= below and below + 2 <= stick.length

        left = [s for s in sticks if spans(s) and (s.anchor[0] - x) % w > w // 2]
        right = [s for s in sticks if spans(s) and 0 < (s.anchor[0] - x) % w <= w // 2]
        if not left or not right:
            results.append({"center": (x, y), "flanked": False, "vacancies": None})
            continue
        lx = max(left, key=lambda s: (s.anchor[0] - x) % w).anchor[0]
        rx = min(right, key=lambda s: (s.anchor[0] - x) % w).anchor[0]
        count = 0
        a = lx
        while a != rx:
            for fy in rows:
                if cover[fy + FACE_MARGIN, a + FACE_MARGIN] < 0:
                    count += 1
            a = (a + 1) % w
        results.append({"center": (x, y), "flanked": True, "vacancies": count})
    return results


@dataclass
class ObservableReport:
    """Structured estimator output with provenance."""

    params: dict
    estimators: Dict[str, dict] = field(default_factory=dict)
    phase_fractions: Dict[str, float] = field(default_factory=dict)
    weight_convention: dict = field(default_factory=dict)
    samples: Optional[List[dict]] = None
    measurements: int = 0

    def to_dict(self) -> dict:
        """The report as the JSON object that ``sample`` prints, in its
        key order."""
        payload = {
            "params": self.params,
            "measurements": self.measurements,
            "estimators": self.estimators,
            "phase_fractions": self.phase_fractions,
            "weight_convention": self.weight_convention,
        }
        if self.samples is not None:
            payload["samples"] = self.samples
        return payload


def summarize_series(series: Mapping[str, List[float]]) -> Dict[str, dict]:
    out = {}
    for name, values in series.items():
        mean, err = batch_mean_stderr(values)
        out[name] = {"mean": mean, "stderr": err, "n": len(values)}
    return out
