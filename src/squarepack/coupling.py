"""Disagreement percolation between independent chains.

The disagreement set of two configurations is the set of sites where
their occupancies differ; its clusters are taken under king-move
(8-neighbor) adjacency, matching the model's Markov blanket. Swapping
the two configurations on the finite disagreement cluster of an anchor
set preserves the product measure; finite clusters therefore bound how
far information can travel, and the directional reach of clusters
measures the anisotropic correlation structure of a phase.

``king_clusters`` lists the clusters ordered by their least member
(tuple order, x first), a function of the point set alone.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, RegionOutOfBounds, ShapeMismatch
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


def king_clusters(
    points: Iterable[Point],
    width: Optional[int] = None,
    height: Optional[int] = None,
    periodic: bool = False,
) -> List[FrozenSet[Point]]:
    """Connected components under 8-neighbor adjacency, ordered by their
    least member.

    The points are labelled on a dense index grid: their bounding box with
    a margin of one, or the torus when periodic, where they must lie in
    the fundamental domain (else RegionOutOfBounds). Each point is joined
    to the points at the four forward king offsets, wrapping on a torus,
    and labelled by ``component_labels``.
    """
    pts = list(set(points))
    n = len(pts)
    if not n:
        return []
    xy = np.fromiter(chain.from_iterable(pts), dtype=np.int64, count=2 * n)
    perm = np.lexsort((xy[1::2], xy[::2]))
    x, y = xy[::2][perm], xy[1::2][perm]
    if periodic:
        if x.min() < 0 or y.min() < 0 or x.max() >= width or y.max() >= height:
            raise RegionOutOfBounds(f"points outside the {width}x{height} torus")
        shape = (width, height)
    else:
        x, y = x - (x.min() - 1), y - (y.min() - 1)
        shape = (int(x.max()) + 2, int(y.max()) + 2)
    index = np.full(shape, -1, dtype=np.int64)
    index[x, y] = np.arange(n)
    qx = x + np.array([1, 1, 1, 0])[:, None]
    qy = y + np.array([-1, 0, 1, 1])[:, None]
    if periodic:
        qx, qy = qx % width, qy % height
    v = index[qx, qy]
    hit = v >= 0
    u, v = np.nonzero(hit)[1], v[hit]
    label = component_labels(n, u, v)
    # a root is its cluster's least index, so the points' sort order
    # orders the clusters by least member
    order = np.argsort(label, kind="stable")
    members = [pts[i] for i in perm[order].tolist()]
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), n]
    return [frozenset(members[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


# -- directional reach tails ---------------------------------------------------


def _axis_reach(positions: Sequence[int], span: int, periodic: bool) -> Dict[int, int]:
    """Farthest displacement from each position to any other, one axis.

    Returns {position: reach}. Toroidal sets are unwrapped through the
    largest residue gap; a set meeting every residue saturates at
    span // 2 (the toroidal diameter).
    """
    coords = sorted(set(positions))
    if not periodic:
        lo, hi = coords[0], coords[-1]
        return {c: max(c - lo, hi - c) for c in coords}
    if len(coords) == span:
        return {c: span // 2 for c in coords}
    gap_end = max(
        range(len(coords)),
        key=lambda i: (coords[(i + 1) % len(coords)] - coords[i]) % span,
    )
    start = coords[(gap_end + 1) % len(coords)]
    cap = span // 2
    shifted = {(c - start) % span: c for c in coords}
    hi = max(shifted)
    return {c: min(max(s, hi - s), cap) for s, c in shifted.items()}


def _directional_reach(
    cluster: Sequence[Point], axis: int, span: int, periodic: bool
) -> List[int]:
    """Per-member reach along one axis through purely axis-aligned targets.

    The horizontal reach of a member u is the largest |x_v - x_u| over
    cluster members v in the same row as u (vertical reach analogously),
    probing the displacement sets with zero transverse offset. Members
    with no axis-aligned partner report 0.
    """
    lines: Dict[int, List[int]] = defaultdict(list)
    other = 1 - axis
    for p in cluster:
        lines[p[other]].append(p[axis])
    out: List[int] = []
    for positions in lines.values():
        out.extend(_axis_reach(positions, span, periodic).get(c, 0) for c in positions)
    return out


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
    counts = {"horizontal": defaultdict(int), "vertical": defaultdict(int)}
    totals = 0
    used = skipped = 0
    sites = chain_a.geom.n_sites
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
        totals += sites
        delta = disagreement_set(cfg_a, cfg_b)
        for cluster in king_clusters(
            delta, template.width, template.height, periodic
        ):
            members = sorted(cluster)
            for r in _directional_reach(members, 0, template.width, periodic):
                counts["horizontal"][r] += 1
            for r in _directional_reach(members, 1, template.height, periodic):
                counts["vertical"][r] += 1
    report = TailReport(
        params={**template.describe(), "seeds": list(seeds), "phase": phase},
        counts={k: dict(v) for k, v in counts.items()},
        totals=totals,
        pairs_used=used,
        pairs_skipped=skipped,
    )
    for direction in ("horizontal", "vertical"):
        # no pair used leaves every tail empty
        tail = report.tail_counts(direction)
        curve = {d: c / totals for d, c in enumerate(tail) if d >= 1 and c >= 50}
        if len(curve) >= 2:
            xi, err = fit_decay_length(curve, floor=0.0)
            report.fits[direction] = {
                "decay_length": xi,
                "stderr": err,
                "points": len(curve),
            }
    return report
