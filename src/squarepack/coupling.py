"""Disagreement percolation between independent chains.

The disagreement set of two configurations is the set of sites where
their occupancies differ; its clusters are taken under king-move
(8-neighbor) adjacency, matching the model's Markov blanket. Swapping
the two configurations on the finite disagreement cluster of an anchor
set preserves the product measure; finite clusters therefore bound how
far information can travel, and the directional reach of clusters
measures the anisotropic correlation structure of a phase.

``_king_labels`` labels the clusters of a point set once, as arrays:
``king_clusters`` lists them ordered by their least member (tuple order,
x first), and ``radius_tail_experiment`` takes each point's reach along
x and along y from the labels with ``_line_reach``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .errors import ParameterError, RegionOutOfBounds, ShapeMismatch, TooLarge
from .lattice import Configuration, Point, component_labels
from .observables import fit_decay_length
from .sampler import PHASE_SEEDS, Chain, ChainParams, iter_samples
from .sticks import classify_phase


def disagreement_set(a: Configuration, b: Configuration) -> FrozenSet[Point]:
    """Sites where the two configurations differ (symmetric difference),
    read off the XOR of their occupancy grids."""
    if (a.width, a.height, a.boundary) != (b.width, b.height, b.boundary):
        raise ShapeMismatch(
            f"{a.width}x{a.height}/{a.boundary} vs {b.width}x{b.height}/{b.boundary}"
        )
    ys, xs = np.nonzero(a.occupancy_grid() ^ b.occupancy_grid())
    return frozenset(zip(xs.tolist(), ys.tolist()))


def _king_labels(
    x: np.ndarray, y: np.ndarray, width: Optional[int], height: Optional[int], periodic: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """The order ``perm`` that sorts the distinct points (x[i], y[i]) by x
    then y, and in that order each point's cluster label: the index of its
    cluster's least member.

    Each point is joined to the points at the four forward king offsets,
    wrapping on a torus, where the points must lie in the fundamental
    domain (else RegionOutOfBounds), by a search of their sorted keys
    x * span + y, in memory linear in the points (TooLarge where a key
    would not fit int64, on a torus of more than 2^63 sites).
    """
    if periodic and (width is None or height is None):
        raise ParameterError("king clusters on a torus need its width and height")
    perm = np.lexsort((y, x))
    x, y = x[perm], y[perm]
    n = len(x)
    if not n:
        return perm, perm  # no points, no labels
    dx, dy = np.array([1, 1, 1, 0])[:, None], np.array([-1, 0, 1, 1])[:, None]
    if periodic:
        if x.min() < 0 or y.min() < 0 or x.max() >= width or y.max() >= height:
            raise RegionOutOfBounds(f"points outside the {width}x{height} torus")
        extent, span = int(width), int(height)
        qx, qy = (x + dx) % width, (y + dy) % height
    else:
        # a free key below and above each column
        extent, span = int(x.max()) - int(x.min()) + 2, int(y.max()) - int(y.min()) + 3
        x, y = x - x.min(), y - y.min() + 1
        qx, qy = x + dx, y + dy
    if extent * span > np.iinfo(np.int64).max:
        raise TooLarge("the points' keys would not fit int64")
    # keys ascend in the points' order, each below extent * span
    key, want = x * span + y, qx * span + qy
    v = np.searchsorted(key, want).clip(max=n - 1)
    v[key[v] != want] = -1
    hit = v >= 0
    return perm, component_labels(n, np.nonzero(hit)[1], v[hit])


def king_clusters(
    points: Iterable[Point],
    width: Optional[int] = None,
    height: Optional[int] = None,
    periodic: bool = False,
) -> List[FrozenSet[Point]]:
    """Connected components under 8-neighbor adjacency, ordered by their
    least member, as ``_king_labels`` finds them. A torus needs its width
    and height (else ParameterError)."""
    pts = list(set(points))
    xy = np.fromiter(chain.from_iterable(pts), dtype=np.int64, count=2 * len(pts))
    perm, label = _king_labels(xy[::2], xy[1::2], width, height, periodic)
    # a label is its cluster's least index, so the points' sort order
    # orders the clusters by least member
    order = np.argsort(label, kind="stable")
    members = [pts[i] for i in perm[order].tolist()]
    cuts = [*np.flatnonzero(np.diff(label[order], prepend=-1)).tolist(), len(pts)]
    return [frozenset(members[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


# -- directional reach tails ---------------------------------------------------


def _line_reach(
    label: np.ndarray, line: np.ndarray, pos: np.ndarray, span: int, periodic: bool
) -> np.ndarray:
    """Each point's reach along one axis, in the points' order: its
    farthest displacement in ``pos`` to a point of its cluster ``label``
    on its ``line`` (the coordinate across the axis), so 0 when alone.

    On a rectangle that is max(pos - min, max - pos) over the group. On a
    torus of period ``span`` each group's line is cut after its first
    largest gap in sorted order, and the reach is capped at span // 2,
    which every point of a full line reaches.
    """
    order = np.lexsort((pos, line, label))
    lab, ln, s = label[order], line[order], pos[order]
    # a group starts at a new label or line; labels are never negative
    new = (np.diff(lab, prepend=-1) != 0) | (np.diff(ln, prepend=ln[:1]) != 0)
    first, group = np.flatnonzero(new), np.cumsum(new) - 1
    if periodic:
        # the next point of each group in cyclic order, and the gap to it
        after = np.arange(1, len(s) + 1)
        after[first - 1] = np.roll(first, 1)
        gap = (s[after] - s) % span
        widest = np.flatnonzero(gap == np.maximum.reduceat(gap, first)[group])
        start = s[after[widest[np.searchsorted(widest, first)]]]
        s = (s - start[group]) % span
    lo, hi = np.minimum.reduceat(s, first)[group], np.maximum.reduceat(s, first)[group]
    reach = np.maximum(s - lo, hi - s)
    if periodic:
        reach = np.minimum(reach, span // 2)
    return reach[np.argsort(order)]


@dataclass
class TailReport:
    """Cluster reach tails of a phase-matched chain pair."""

    params: dict
    counts: Dict[str, Dict[int, int]]
    totals: int
    pairs_used: int
    pairs_skipped: int
    fits: Dict[str, dict] = field(default_factory=dict)

    def tail_counts(self, direction: str) -> List[int]:
        """Number of reaches at least d, for d = 0 .. the largest reach."""
        hist = self.counts[direction]
        per_d = [hist.get(r, 0) for r in range(max(hist, default=-1) + 1)]
        return np.cumsum(per_d[::-1])[::-1].tolist()

    def tail_rows(self) -> List[dict]:
        rows = []
        for direction in self.counts:
            for d, c in enumerate(self.tail_counts(direction)):
                rows.append(
                    {
                        "direction": direction,
                        "d": d,
                        "count": c,
                        "probability": c / self.totals if self.totals else 0.0,
                    }
                )
        return rows

    def to_csv(self) -> str:
        lines = ["direction,d,count,probability"]
        for row in self.tail_rows():
            lines.append(
                f"{row['direction']},{row['d']},{row['count']},{row['probability']:.8g}"
            )
        return "\n".join(lines) + "\n"


def radius_tail_experiment(
    template: ChainParams,
    seeds: Tuple[int, int],
    *,
    phase: Optional[str] = "ver0",
) -> TailReport:
    """Empirical reach tails of disagreement clusters for a chain pair.

    Two chains with independent seeds run from the same phase seed, and
    their ``iter_samples`` are taken in pairs; pairs whose classified
    phase does not match are excluded and counted. For every site in the
    disagreement set, the cluster through it contributes its horizontal
    and vertical reach; tails are fitted by least squares on
    log-probabilities over the distances with at least 50 observations.
    ``phase`` is None (no phase filter; the chains start from the
    template's initial state) or one of the four phase seeds, since the
    classifier labels no state "empty".
    """
    from dataclasses import replace

    if phase is not None and phase not in PHASE_SEEDS:
        raise ParameterError(
            f"phase must be one of {', '.join(PHASE_SEEDS)} or None, got {phase!r}"
        )
    init = phase if phase is not None else template.initial
    chain_a = Chain(replace(template, seed=seeds[0], initial=init))
    chain_b = Chain(replace(template, seed=seeds[1], initial=init))
    periodic = template.boundary == "periodic"
    # a reach is at most the span of the sampled grid's lines
    axes = (("horizontal", template.width), ("vertical", template.height))
    hists = {direction: np.zeros(span + 1, dtype=np.int64) for direction, span in axes}
    used = skipped = 0
    # the chains' PCG64 streams are independent, so interleaving their
    # sweeps leaves each chain as it would be alone
    for cfg_a, cfg_b in zip(iter_samples(chain_a), iter_samples(chain_b)):
        if phase is not None:
            if (
                classify_phase(cfg_a, lam=template.lam) != phase
                or classify_phase(cfg_b, lam=template.lam) != phase
            ):
                skipped += 1
                continue
        used += 1
        y, x = np.nonzero(cfg_a.occupancy_grid() ^ cfg_b.occupancy_grid())
        perm, label = _king_labels(x, y, template.width, template.height, periodic)
        x, y = x[perm], y[perm]
        for (direction, span), line, pos in zip(axes, (y, x), (x, y)):
            reach = _line_reach(label, line, pos, span, periodic)
            hists[direction] += np.bincount(reach, minlength=span + 1)
    report = TailReport(
        params={**template.describe(), "seeds": list(seeds), "phase": phase},
        counts={k: {r: int(c) for r, c in enumerate(h) if c} for k, h in hists.items()},
        totals=used * chain_a.geom.n_sites,
        pairs_used=used,
        pairs_skipped=skipped,
    )
    for direction in ("horizontal", "vertical"):
        # no pair used leaves every tail empty
        tail = report.tail_counts(direction)
        curve = {d: c / report.totals for d, c in enumerate(tail) if d >= 1 and c >= 50}
        if len(curve) >= 2:
            xi, err = fit_decay_length(curve, floor=0.0)
            report.fits[direction] = {
                "decay_length": xi,
                "stderr": err,
                "points": len(curve),
            }
    return report
