"""Sticks: maximal boundary lines between tiles of distinct parities.

An edge of the unit lattice is a stick edge when the two faces it bounds
are covered by tiles of distinct parities. Stick edges of one
configuration form disjoint straight segments (sticks), each vertical or
horizontal; a vertical stick at even x is of type (ver, 0), at odd x of
type (ver, 1), and analogously for horizontal sticks via their
y-coordinate.

Rectangles are divided by sticks spanning their full extent while
staying strictly interior in the transverse direction; the "properly
divides" refinement additionally requires dividing the concentric
rectangle shrunk by a factor (N - 2)/N.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import DimensionError, WrapError
from .lattice import FACE_MARGIN, Configuration, Point, edge_sides, face_cover

Edge = Tuple[str, int, int]  # ("v", x, y) from (x,y) to (x,y+1); ("h", x, y) to (x+1,y)

PHASES = ("ver0", "ver1", "hor0", "hor1")
DEFAULT_N = 4


@dataclass(frozen=True)
class Stick:
    """A maximal run of stick edges.

    ``anchor`` is the lowest endpoint (vertical) or leftmost endpoint
    (horizontal); ``length`` counts edges. A wrapping stick closes into a
    torus cycle and its length equals the full torus dimension.
    """

    orientation: str  # "vertical" | "horizontal"
    anchor: Point
    length: int
    wraps: bool = False

    @property
    def parity(self) -> int:
        fixed = self.anchor[0] if self.orientation == "vertical" else self.anchor[1]
        return fixed % 2

    @property
    def type(self) -> str:
        return PHASES[_phase_index(self.orientation == "vertical", self.parity)]


def _phase_index(vertical, fixed):
    """Index into PHASES of sticks (ints or arrays) by orientation and by
    the coordinate across the stick: vertical ones first, then parity."""
    return 2 * (1 - vertical) + fixed % 2


@dataclass(frozen=True)
class Rect:
    """Axis-parallel rectangle [x, x+width] x [y, y+height]."""

    corner: Point
    width: int
    height: int

    def inner(self, n: int = DEFAULT_N) -> "Rect":
        """Concentric rectangle with dimensions scaled by (n - 2)/n."""
        if self.width % n or self.height % n:
            raise DimensionError(
                f"rectangle {self.width}x{self.height} not divisible by N={n}"
            )
        dx, dy = self.width // n, self.height // n
        return Rect(
            (self.corner[0] + dx, self.corner[1] + dy),
            self.width - 2 * dx,
            self.height - 2 * dy,
        )


# -- stick edge detection ---------------------------------------------------


def _stick_edge_grids(config: Configuration) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Boolean grids of vertical and horizontal stick edges over the edges
    that ``edge_sides`` scans, and the corner (x0, y0) of entry [0, 0]."""
    left, below, here, x0, y0 = edge_sides(
        config.width, config.height, config.boundary, face_cover(config), -1
    )
    covered = here >= 0
    ver, hor = ((other >= 0) & covered & (other != here) for other in (left, below))
    return ver, hor, x0, y0


def detect_stick_edges(config: Configuration) -> Set[Edge]:
    """All stick edges of the configuration.

    Torus edges are reported in the fundamental domain. For the rectangle
    modes the scan covers the two-face margin of ``face_cover`` so that
    boundary sticks against the fully-packed exterior are found.
    """
    ver, hor, x0, y0 = _stick_edge_grids(config)
    edges: Set[Edge] = set()
    for orientation, grid in (("v", ver), ("h", hor)):
        ys, xs = np.nonzero(grid)
        edges.update(
            (orientation, x, y) for x, y in zip((xs + x0).tolist(), (ys + y0).tolist())
        )
    return edges


def _edge_set_grids(
    config: Configuration, edges: Set[Edge]
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """``_stick_edge_grids`` of a given edge set; ValueError for an edge
    outside the scanned edges."""
    m = 0 if config.boundary == "periodic" else FACE_MARGIN
    grids = np.zeros((2, config.height + 2 * m, config.width + 2 * m), dtype=bool)
    kinds, xs, ys = zip(*edges) if edges else ((), (), ())
    horizontal = np.fromiter(map("h".__eq__, kinds), dtype=np.int64, count=len(kinds))
    at = (horizontal, np.array(ys, dtype=np.int64) + m, np.array(xs, dtype=np.int64) + m)
    grids.reshape(-1)[np.ravel_multi_index(at, grids.shape)] = True
    return grids[0], grids[1], -m, -m


Runs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _stick_runs(
    config: Configuration, edges: Optional[Set[Edge]] = None
) -> Tuple[Runs, Runs]:
    """Maximal runs of stick edges, vertical then horizontal.

    Each orientation gives (fixed, start, length, wraps) arrays, ordered
    by the coordinate across the stick and then along it. On a torus a
    full line is one wrapping run from 0, and a run ending at the
    modulus continues the run starting at 0 on its line: the two merge,
    anchored at the tail's start and listed first on the line.
    """
    if edges is None:
        ver, hor, x0, y0 = _stick_edge_grids(config)
    else:
        ver, hor, x0, y0 = _edge_set_grids(config, edges)
    periodic = config.boundary == "periodic"
    runs = []
    for lines, fixed0, start0 in ((ver.T, x0, y0), (hor, y0, x0)):
        # the lines laid end to end, each after one 0, and a final 0: the
        # value changes at each run's first edge and after its last
        nlines, modulus = lines.shape
        flat = np.zeros(nlines * (modulus + 1) + 1, dtype=bool)
        flat[:-1].reshape(nlines, modulus + 1)[:, 1:] = lines
        change = np.flatnonzero(flat[1:] != flat[:-1])
        begin = change[0::2]
        length = change[1::2] - begin
        line, start = np.divmod(begin, modulus + 1)
        if periodic and (lines[:, 0] & lines[:, -1]).any():
            head = np.flatnonzero(start == 0)
            tail = np.searchsorted(line, line[head], side="right") - 1
            merge = (tail != head) & (start[tail] + length[tail] == modulus)
            head, tail = head[merge], tail[merge]
            start[head] = start[tail]
            length[head] += length[tail]
            keep = np.ones(len(start), dtype=bool)
            keep[tail] = False
            line, start, length = line[keep], start[keep], length[keep]
        wraps = (length == modulus) & periodic
        runs.append((line + fixed0, start + start0, length, wraps))
    return runs[0], runs[1]


def extract_sticks(
    config: Configuration, edges: Optional[Set[Edge]] = None
) -> List[Stick]:
    """Partition the stick edges into maximal straight runs.

    Vertical sticks come first, then horizontal ones, each ordered by
    their line and along it as ``_stick_runs`` gives them. ``edges``
    defaults to ``detect_stick_edges(config)``.
    """
    sticks: List[Stick] = []
    for orientation, (fixed, start, length, wraps) in zip(
        ("vertical", "horizontal"), _stick_runs(config, edges)
    ):
        fixed, start = fixed.tolist(), start.tolist()
        anchors = zip(fixed, start) if orientation == "vertical" else zip(start, fixed)
        sticks.extend(
            map(Stick, repeat(orientation), anchors, length.tolist(), wraps.tolist())
        )
    return sticks


# -- division predicates -----------------------------------------------------


def divides(p1: Point, p2: Point, rect: Rect) -> bool:
    """Does the segment from p1 to p2 divide the rectangle?

    A vertical segment divides when it spans the rectangle's full height
    and its x-coordinate is strictly between the rectangle's sides; the
    horizontal case is symmetric. Non-axis-aligned segments never divide.
    """
    (x1, y1), (x2, y2) = p1, p2
    x0, y0 = rect.corner
    if x1 == x2 and y1 != y2:
        lo, hi = min(y1, y2), max(y1, y2)
        return lo <= y0 and y0 + rect.height <= hi and x0 < x1 < x0 + rect.width
    if y1 == y2 and x1 != x2:
        lo, hi = min(x1, x2), max(x1, x2)
        return lo <= x0 and x0 + rect.width <= hi and y0 < y1 < y0 + rect.height
    return False


def _stick_segments(stick: Stick, config: Configuration):
    """Planar segments representing a stick, including torus shift copies."""
    x, y = stick.anchor
    if stick.orientation == "vertical":
        base = ((x, y), (x, y + stick.length))
        shifts = [(0, 0)]
        if config.boundary == "periodic":
            if stick.wraps:
                # a cycle spans every window at its x-line
                return [((x, -config.height), (x, 2 * config.height))]
            shifts = [(0, 0), (0, -config.height), (0, config.height)]
    else:
        base = ((x, y), (x + stick.length, y))
        shifts = [(0, 0)]
        if config.boundary == "periodic":
            if stick.wraps:
                return [((-config.width, y), (2 * config.width, y))]
            shifts = [(0, 0), (-config.width, 0), (config.width, 0)]
    (p1, p2) = base
    return [
        ((p1[0] + dx, p1[1] + dy), (p2[0] + dx, p2[1] + dy)) for dx, dy in shifts
    ]


def stick_divides(stick: Stick, rect: Rect, config: Configuration) -> bool:
    return any(divides(p1, p2, rect) for p1, p2 in _stick_segments(stick, config))


def properly_divides(
    stick: Stick, rect: Rect, config: Configuration, n: int = DEFAULT_N
) -> bool:
    """True when the stick divides both the rectangle and its inner copy."""
    inner = rect.inner(n)
    return stick_divides(stick, rect, config) and stick_divides(stick, inner, config)


Segments = Tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=8)
def _segments(
    sticks: Tuple[Stick, ...], periods: Optional[Tuple[int, int]]
) -> Tuple[Segments, Segments]:
    """(fixed, lo, hi) over the planar segments of the vertical and of the
    horizontal sticks, as ``_stick_segments`` gives them: each segment's
    coordinate across the stick and the span [lo, hi] it covers along it.
    ``periods`` is (width, height) on a torus and None otherwise. The
    arrays are shared by every caller, so they are read-only."""
    flat = np.array(
        [(s.orientation == "vertical", *s.anchor, s.length, s.wraps) for s in sticks],
        dtype=np.int64,
    ).reshape(-1, 5)
    out = []
    for vertical in (1, 0):
        _, x, y, length, wraps = flat[flat[:, 0] == vertical].T
        fixed, lo = (x, y) if vertical else (y, x)
        hi = lo + length
        if periods is not None:
            period = periods[vertical]
            # a cycle is one segment over [-period, 2 * period]; any other
            # stick also gets copies shifted by one period either way
            widen = period * wraps
            lo, hi, step = lo - widen, hi + widen, period - widen
            fixed = np.concatenate((fixed, fixed, fixed))
            lo = np.concatenate((lo, lo - step, lo + step))
            hi = np.concatenate((hi, hi - step, hi + step))
        for v in (fixed, lo, hi):
            v.flags.writeable = False
        out.append((fixed, lo, hi))
    return out[0], out[1]


def _segment_arrays(sticks: Sequence[Stick], config: Configuration) -> Tuple[Segments, Segments]:
    """``_segments`` of a stick list, built once for the rectangles and
    windows that one configuration's list is tested against."""
    periods = (config.width, config.height) if config.boundary == "periodic" else None
    return _segments(tuple(sticks), periods)


def _divided(segments, cross_lo, cross_hi, start, stop) -> np.ndarray:
    """Bitmap over (a, b): some segment lies strictly between cross_lo[a]
    and cross_hi[a] across the stick and spans [start[b], stop[b]] along it.

    This is ``divides`` for every segment and every rectangle whose
    transverse interval is indexed by a and whose extent by b.
    """
    fixed, lo, hi = (v[:, None] for v in segments)
    inside = (cross_lo < fixed) & (fixed < cross_hi)
    span = (lo <= start) & (stop <= hi)
    return (inside[:, :, None] & span[:, None, :]).any(axis=0)


def divided_directions(
    config: Configuration, rect: Rect, sticks: Optional[Sequence[Stick]] = None
) -> Tuple[bool, bool]:
    """(vertically divided, horizontally divided) by any stick."""
    if sticks is None:
        sticks = extract_sticks(config)
    x = np.array([rect.corner[0], rect.corner[0] + rect.width])
    y = np.array([rect.corner[1], rect.corner[1] + rect.height])
    vertical, horizontal = _segment_arrays(sticks, config)
    ver = _divided(vertical, x[:1], x[1:], y[:1], y[1:])
    hor = _divided(horizontal, y[:1], y[1:], x[:1], x[1:])
    return bool(ver.any()), bool(hor.any())


def check_n(n: int) -> None:
    """Raise DimensionError unless the window scale N is at least 3."""
    if n < 3:
        raise DimensionError(f"N={n}: the (N - 2)/N inner rectangle needs N >= 3")


def psi_set(
    config: Configuration,
    k: int,
    l: int,
    stick_type: str,
    n: int = DEFAULT_N,
    sticks: Optional[Sequence[Stick]] = None,
) -> Set[Point]:
    """Grid points whose NK x NL window is properly divided by a stick
    of the requested type ("ver0", "ver1", "hor0", "hor1", "ver", "hor").

    The window with grid coordinates (x, y) has its corner at (xK, yL);
    windows must fit inside the region without torus wrap. K and L must
    be at least 1 and N at least 3.
    """
    if stick_type not in ("ver", "hor") + PHASES:
        raise ValueError(f"unknown stick type {stick_type!r}")
    if k < 1 or l < 1:
        raise DimensionError(f"window scales K={k}, L={l} must be at least 1")
    check_n(n)
    win_w, win_h = n * k, n * l
    if win_w > config.width or win_h > config.height:
        raise WrapError(
            f"window {win_w}x{win_h} does not fit in {config.width}x{config.height}"
        )
    if sticks is None:
        sticks = extract_sticks(config)
    vertical = stick_type.startswith("ver")
    segments = _segment_arrays(sticks, config)[not vertical]
    if stick_type in PHASES:
        keep = _phase_index(vertical, segments[0]) == PHASES.index(stick_type)
        segments = tuple(v[keep] for v in segments)
    x0 = np.arange((config.width - win_w) // k + 1) * k
    y0 = np.arange((config.height - win_h) // l + 1) * l
    # a segment divides a window and its inner copy (inset by K across x
    # and L across y) exactly when it spans the window and lies strictly
    # inside the inner copy across the stick
    if vertical:
        hit = _divided(segments, x0 + k, x0 + win_w - k, y0, y0 + win_h)
    else:
        hit = _divided(segments, y0 + l, y0 + win_h - l, x0, x0 + win_w).T
    gx, gy = np.nonzero(hit)
    return set(zip(gx.tolist(), gy.tolist()))


# -- phase classification -----------------------------------------------------


def default_stick_threshold(lam: float, n: int = DEFAULT_N, c: float = 1.0) -> int:
    """Length scale b = 2 * floor(c * sqrt(lambda) / (2N)), at least 2.

    The paper's constant c is an existence constant; c = 1 here is a
    calibration choice and is flagged in reports. N must be at least 3.
    """
    check_n(n)
    return max(2, 2 * int(c * lam**0.5 / (2 * n)))


def classify_phase(
    config: Configuration,
    b: Optional[int] = None,
    *,
    lam: Optional[float] = None,
    n: int = DEFAULT_N,
) -> str:
    """Majority stick type among sticks of length >= b.

    Returns one of "ver0", "ver1", "hor0", "hor1" when one type holds a
    strict majority of the qualifying sticks, else "undetermined". The
    threshold b defaults from lam when given, else to a quarter of the
    smaller dimension. N must be at least 3.
    """
    check_n(n)
    if b is None:
        if lam is not None:
            b = default_stick_threshold(lam, n)
        else:
            b = max(2, min(config.width, config.height) // 4)
    if b <= 0:
        raise ValueError("threshold b must be positive")
    types = [
        _phase_index(vertical, fixed[length >= b])
        for vertical, (fixed, _, length, _) in zip((True, False), _stick_runs(config))
    ]
    counts = np.bincount(np.concatenate(types), minlength=len(PHASES))
    total = int(counts.sum())
    best = int(counts.argmax())
    if 2 * counts[best] > total:
        return PHASES[best]
    return "undetermined"


def stick_census(config: Configuration, sticks: Optional[Sequence[Stick]] = None) -> dict:
    """Per-type counts and length histograms, JSON-friendly."""
    if sticks is None:
        sticks = extract_sticks(config)
    census = {p: {"count": 0, "lengths": defaultdict(int)} for p in PHASES}
    for s in sticks:
        census[s.type]["count"] += 1
        census[s.type]["lengths"][s.length] += 1
    return {
        p: {"count": c["count"], "lengths": dict(sorted(c["lengths"].items()))}
        for p, c in census.items()
    }
