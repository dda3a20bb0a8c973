"""Configurations of 2x2 tiles on finite rectangles and tori.

A tile is a closed 2x2 axis-parallel square centered at a lattice point.
A configuration stores the set of occupied centers together with the
region dimensions and a boundary mode:

* ``periodic``      -- centers are residues on the width x height torus,
* ``free``          -- centers are lattice points of the closed rectangle
                       [0, width] x [0, height]; tiles may overhang,
* ``fully_packed``  -- like free, but the exterior is implicitly packed
                       with tiles at all (odd, odd) points outside the
                       open rectangle; interior tiles must not overlap
                       that exterior.

Validity means every two occupied centers are at ell-infinity distance
at least 2 (torus metric when periodic), equivalently the open tiles are
pairwise disjoint.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

import numpy as np

from .errors import (
    BoundaryConflict,
    DimensionError,
    OverlapError,
    ParseError,
    TooLarge,
)

Point = Tuple[int, int]

BOUNDARIES = ("periodic", "free", "fully_packed")


@dataclass(frozen=True)
class ParityClass:
    """Tile parity ((x-1) mod 2, (y-1) mod 2) of a center (x, y)."""

    hpar: int
    vpar: int

    def as_tuple(self) -> Tuple[int, int]:
        return (self.hpar, self.vpar)


def tile_parity_class(center: Point) -> ParityClass:
    x, y = center
    return ParityClass((x - 1) % 2, (y - 1) % 2)


def _check_dims(width: int, height: int, boundary: str) -> None:
    if boundary not in BOUNDARIES:
        raise DimensionError(f"unknown boundary mode {boundary!r}")
    if width < 4 or height < 4:
        raise DimensionError(f"dimensions must be at least 4, got {width}x{height}")
    if width % 2 or height % 2:
        raise DimensionError(
            f"dimensions must be even for boundary={boundary}, got {width}x{height}"
        )


def _site_layout(width: int, height: int, boundary: str) -> Tuple[bool, int, int]:
    """(cyclic, nx, ny): whether the model sites wrap round, and the
    sites per row and rows of them. A torus's sites are all its residues,
    its whole center grid; a rectangle's are the interior points of its
    closed center grid, at offset 1. DimensionError for invalid
    dimensions."""
    _check_dims(width, height, boundary)
    if boundary == "periodic":
        return True, width, height
    return False, width - 1, height - 1


def _sites_of(grid: np.ndarray, boundary: str) -> np.ndarray:
    """The model sites of center grids laid out as ``occupancy_grid``'s,
    under any leading axes: a view of shape (..., ny, nx)."""
    return grid if boundary == "periodic" else grid[..., 1:-1, 1:-1]


def _grid_of_sites(sites: np.ndarray, boundary: str) -> np.ndarray:
    """Center grids of arrays over the model sites, under any leading
    axes, the inverse of ``_sites_of``: a torus's sites are its grid, and
    a rectangle's sit inside zeros."""
    if boundary == "periodic":
        return sites
    *lead, ny, nx = sites.shape
    grid = np.zeros((*lead, ny + 2, nx + 2), dtype=sites.dtype)
    grid[..., 1:-1, 1:-1] = sites
    return grid


def _is_integer_type(kind: type) -> bool:
    """Python and numpy integers; not bool, which JSON's true becomes."""
    return issubclass(kind, numbers.Integral) and kind is not bool


@dataclass(frozen=True)
class Configuration:
    """Immutable, validated hard-square configuration.

    Every configuration holds its occupancy grid, read-only and laid out
    as ``occupancy_grid`` returns it, from construction on: the
    constructor fills it from the centers and validates on it. One made
    by ``_from_grid`` builds ``occupied`` only when it is first read;
    comparison, hashing, repr and copying read it like any other field.
    """

    width: int
    height: int
    boundary: str
    occupied: FrozenSet[Point]

    # -- construction ---------------------------------------------------

    def __post_init__(self):
        """Normalize the centers, fill the grid from them and check it.
        Under fully_packed boundary a tile overlaps the exterior exactly
        when its center lies on the rectangle's boundary, off the model
        sites; two tiles overlap exactly when one 2x2 window of centers
        holds both, the windows of a torus wrapping round."""
        w, h = self.width, self.height
        _check_dims(w, h, self.boundary)
        periodic = self.boundary == "periodic"
        try:
            xs, ys = zip(*self.occupied, strict=True) if self.occupied else ((), ())
        except (TypeError, ValueError):
            raise DimensionError("every center must be a pair of coordinates") from None
        kinds = set(map(type, xs)) | set(map(type, ys))
        if not all(map(_is_integer_type, kinds)):
            center = next(p for p in self.occupied if not all(_is_integer_type(type(v)) for v in p))
            raise DimensionError(f"center {center!r} has a coordinate that is not an integer")
        # an object array of Python ints where one exceeds int64
        given = np.array([xs, ys], dtype=None if xs else np.int64)
        xy = given % np.array([[w], [h]]) if periodic else given
        try:
            xy = xy.astype(np.int64)
        except OverflowError:  # torus centers are reduced; a rectangle's may be huge
            raise DimensionError(f"a center lies far outside the closed {w}x{h} rectangle")
        if not periodic:
            outside = np.flatnonzero(((xy < 0) | (xy > [[w], [h]])).any(axis=0))
            if len(outside):
                center = tuple(xy[:, outside[0]].tolist())
                raise DimensionError(f"center {center} outside the closed {w}x{h} rectangle")
        if kinds <= {int} and np.array_equal(xy, given):
            # already plain int pairs on the sites: the sampler's case, where
            # rebuilding the set from the grid coordinates costs a third more
            occ = frozenset(self.occupied)
        else:
            occ = frozenset(zip(*xy.tolist()))
        object.__setattr__(self, "occupied", occ)
        grid = np.zeros((h, w) if periodic else (h + 1, w + 1), dtype=bool)
        grid[xy[1], xy[0]] = True
        grid.flags.writeable = False
        object.__setattr__(self, "_grid", grid)
        if self.boundary == "fully_packed":
            off = self._tile_off_the_sites()
            if off is not None:
                raise BoundaryConflict(f"tile at {off} overlaps the fully-packed exterior")
        g = grid.view(np.uint8)
        if periodic:
            g = np.concatenate([g, g[:1]])
            g = np.concatenate([g, g[:, :1]], axis=1)
        windows = g[:-1, :-1] + g[:-1, 1:] + g[1:, :-1] + g[1:, 1:]
        if windows.max() > 1:
            y, x = np.argwhere(windows > 1)[0].tolist()
            rows, cols = grid.shape
            a, b = [
                ((x + i) % cols, (y + j) % rows)
                for j, i in np.argwhere(g[y : y + 2, x : x + 2])[:2].tolist()
            ]
            raise OverlapError(f"tiles at {a} and {b} overlap")

    def _tile_off_the_sites(self) -> Optional[Point]:
        """A tile whose center is not a model site, or None: on a
        rectangle, one on its boundary."""
        off = self._grid.copy()
        _sites_of(off, self.boundary)[...] = False
        if not np.count_nonzero(off):
            return None
        y, x = np.argwhere(off)[0].tolist()
        return (x, y)

    def __getattr__(self, name):
        # called only for attributes not found: the center set of a
        # configuration made by _from_grid, before its first read
        if name != "occupied":
            raise AttributeError(name)
        ys, xs = np.nonzero(self._grid)
        occupied = frozenset(zip(xs.tolist(), ys.tolist()))
        object.__setattr__(self, "occupied", occupied)
        return occupied

    def __setstate__(self, state) -> None:
        # pickle and deepcopy hand over a writable copy of the grid
        self.__dict__.update(state)
        state["_grid"].flags.writeable = False

    # -- basic queries ---------------------------------------------------

    @property
    def area(self) -> int:
        """Number of unit faces in the region."""
        return self.width * self.height

    @property
    def tile_count(self) -> int:
        return int(np.count_nonzero(self._grid))

    def occupancy_grid(self) -> np.ndarray:
        """Boolean grid indexed [y, x] over the center lattice.

        Shape is (height, width) for periodic and
        (height + 1, width + 1) for the rectangle modes. A fresh copy of
        the grid the configuration holds.
        """
        return self._grid.copy()

    def translate(self, dx: int, dy: int) -> "Configuration":
        """Translate all centers; periodic only (rectangles lose validity)."""
        if self.boundary != "periodic":
            raise DimensionError("translation is defined for periodic configurations")
        moved = np.roll(self._grid, (dy, dx), axis=(0, 1))
        return _from_grid(self.width, self.height, self.boundary, moved)

    def transpose(self) -> "Configuration":
        """Exchange the x and y axes."""
        return _from_grid(self.height, self.width, self.boundary, self._grid.T.copy())


def create_configuration(
    width: int, height: int, boundary: str, occupied: Iterable[Point]
) -> Configuration:
    """Validated constructor; see module docstring for the conventions."""
    return Configuration(width, height, boundary, frozenset(occupied))


def _from_grid(width: int, height: int, boundary: str, grid: np.ndarray) -> Configuration:
    """Internal fast path: a Configuration holding a valid occupancy grid,
    laid out as ``occupancy_grid`` lays it out, without validation.

    Takes the grid over and makes it read-only; the center set is built
    only when ``occupied`` is first read.
    """
    cfg = object.__new__(Configuration)
    object.__setattr__(cfg, "width", width)
    object.__setattr__(cfg, "height", height)
    object.__setattr__(cfg, "boundary", boundary)
    grid.flags.writeable = False
    object.__setattr__(cfg, "_grid", grid)
    return cfg


FACE_MARGIN = 2


def face_cover(config: Configuration) -> np.ndarray:
    """Parity code ``2 * hpar + vpar`` of the tile covering each face.

    An int8 array indexed [fy + FACE_MARGIN, fx + FACE_MARGIN] over the
    faces with corners -2 <= fx < width + 2, -2 <= fy < height + 2; -1
    marks an uncovered face. On a torus the margin wraps; under
    fully_packed boundary the exterior tiles cover it.
    """
    return grid_face_cover(config.width, config.height, config.boundary, config._grid)


@lru_cache(maxsize=32)
def _cover_tables(width: int, height: int, boundary: str):
    """Tables of ``grid_face_cover`` over the centers -m .. size + m, one
    more than the faces, since the tile at (cx, cy) covers the faces with
    corners cx - 1 .. cx, cy - 1 .. cy: each center's parity code, the
    code of the center with nothing of the grid on it (-1, or the
    exterior tile's code under fully_packed boundary) and, on a torus,
    the grid cell each center reads in a flattened grid."""
    w, h, m = width, height, FACE_MARGIN
    cx = np.arange(-m, w + m + 1)
    cy = np.arange(-m, h + m + 1)[:, None]
    code = (2 * ((cx - 1) % 2) + (cy - 1) % 2).astype(np.int8)
    empty = np.full(code.shape, -1, dtype=np.int8)
    if boundary == "fully_packed":
        interior = (cx >= 1) & (cx <= w - 1) & (cy >= 1) & (cy <= h - 1)
        exterior = (cx % 2 == 1) & (cy % 2 == 1) & ~interior
        empty[exterior] = code[exterior]
    cells = cy % h * w + cx % w if boundary == "periodic" else None
    for table in (code, empty, cells):
        if table is not None:
            table.flags.writeable = False
    return code, empty, cells


def grid_face_cover(width: int, height: int, boundary: str, grids: np.ndarray) -> np.ndarray:
    """``face_cover`` of occupancy grids laid out as ``occupancy_grid``'s,
    under any leading axes: a stack of configurations gives a stack of
    covers."""
    m = FACE_MARGIN
    code, empty, cells = _cover_tables(width, height, boundary)
    if cells is not None:
        centers = np.where(grids.reshape(grids.shape[:-2] + (-1,))[..., cells], code, empty)
    else:
        # the grid's centers 0 .. size carry no exterior tile
        centers = np.broadcast_to(empty, grids.shape[:-2] + empty.shape).copy()
        centers[..., m:-m, m:-m] = np.where(grids, code[m:-m, m:-m], -1)
    # open tiles are disjoint, so at most one of the four centers around
    # a face holds a tile, and every other one reads -1
    return np.maximum(
        np.maximum(centers[..., :-1, :-1], centers[..., :-1, 1:]),
        np.maximum(centers[..., 1:, :-1], centers[..., 1:, 1:]),
    )


def edge_sides(width: int, height: int, boundary: str, faces: np.ndarray, fill):
    """Faces on both sides of the unit edges that bulk scans visit.

    ``faces`` is any array over the extent of ``face_cover``, under any
    leading axes. Returns (left, below, here, x0, y0): entry [..., i, j]
    is the face with corner (x0 + j, y0 + i), where the vertical edge
    from ``left`` and the horizontal edge from ``below`` start. A torus
    scans its region only, as the margin repeats it; rectangles scan the
    whole extent, with ``fill`` beyond it.
    """
    m = FACE_MARGIN
    if boundary == "periodic":
        # views: the faces left of and below the region lie in the margin
        rows, cols = slice(m, m + height), slice(m, m + width)
        left = faces[..., rows, m - 1 : m - 1 + width]
        below = faces[..., m - 1 : m - 1 + height, cols]
        return left, below, faces[..., rows, cols], 0, 0
    left = np.full_like(faces, fill)
    left[..., 1:] = faces[..., :-1]
    below = np.full_like(faces, fill)
    below[..., 1:, :] = faces[..., :-1, :]
    return left, below, faces, -m, -m



def stick_edge_grids(width: int, height: int, boundary: str, cover: np.ndarray):
    """Boolean grids of the vertical and horizontal stick edges among the
    edges that ``edge_sides`` scans, for face covers under any leading
    axes, and the corner (x0, y0) of entry [..., 0, 0]."""
    left, below, here, x0, y0 = edge_sides(width, height, boundary, cover, -1)
    # codes are -1 (uncovered) to 3, so a ^ b > 0 exactly when both faces
    # are covered, by tiles of distinct parities
    return (left ^ here) > 0, (below ^ here) > 0, x0, y0

def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least node of each node's connected component, for the nodes
    0 .. n - 1 joined by the edges (u[i], v[i]).

    Min-label hooking with pointer jumping: each pass hooks the larger
    label of every edge whose ends disagree onto the smaller one, then
    jumps every label to its root, until no edge disagrees.
    """
    # label[i] <= i throughout; after the jumps every label is a root,
    # the least index of its tree, and each pass hooks roots onto lesser ones
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        np.minimum.at(label, np.maximum(lu, lv)[apart], np.minimum(lu, lv)[apart])
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped


# -- ASCII codec ---------------------------------------------------------


def encode(config: Configuration) -> str:
    """Render as a header line plus one text row per center row, top first."""
    rows = np.where(config._grid[::-1], "o", ".").tolist()
    lines = [f"{config.width} {config.height} {config.boundary}", *map("".join, rows)]
    return "\n".join(lines) + "\n"


def decode(text: str) -> Configuration:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError("header must be 'W H BOUNDARY'", line=1)
    try:
        width, height = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("non-integer dimensions in header", line=1)
    boundary = header[2]
    if boundary not in BOUNDARIES:
        raise ParseError(f"unknown boundary {boundary!r}", line=1)
    nrows = height if boundary == "periodic" else height + 1
    ncols = width if boundary == "periodic" else width + 1
    rows = lines[1 : 1 + nrows]
    if len(rows) < nrows:
        raise ParseError(f"expected {nrows} rows, got {len(rows)}", line=len(lines))
    occupied = set()
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ParseError(
                f"row has {len(row)} columns, expected {ncols}", line=i + 2
            )
        y = (nrows - 1) - i
        for x, ch in enumerate(row):
            if ch == "o":
                occupied.add((x, y))
            elif ch != ".":
                raise ParseError(f"unexpected character {ch!r}", line=i + 2, column=x + 1)
    return create_configuration(width, height, boundary, occupied)


def from_json(text: str) -> Configuration:
    try:
        payload = json.loads(text)
        return create_configuration(
            payload["width"],
            payload["height"],
            payload["boundary"],
            [tuple(p) for p in payload["occupied"]],
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ParseError(f"bad JSON configuration: {exc}") from exc


# -- enumeration -------------------------------------------------------------

_BLOCK = 1 << 16  # partial configurations per row step


def _reversed_bits(s: np.ndarray, positions: int) -> np.ndarray:
    """Each pattern read backwards: bit i moves to bit positions - 1 - i."""
    bit = np.arange(positions)
    return ((s[..., None] >> bit & 1) << positions - 1 - bit).sum(axis=-1)


@lru_cache(maxsize=64)
def _row_states(positions: int, cyclic: bool) -> Tuple[int, ...]:
    """Occupancy patterns of one row, no two tiles within distance 1,
    ascending in the bit-reversed value (position 0 most significant)."""
    s = np.arange(1 << positions, dtype=np.int64)
    s = s[(s & s << 1 | cyclic * (s & s >> (positions - 1) & 1)) == 0]
    return tuple(s[np.argsort(_reversed_bits(s, positions))].tolist())


@lru_cache(maxsize=16)
def _row_tables(positions: int, cyclic: bool):
    """Row states as uint64 patterns, their tile counts, and each row's
    neighbours end to end, ascending: row i's are flat[first[i] :
    first[i] + degree[i]]. Two rows are neighbours when no tile of one
    lies within distance 1 of a tile of the other, a symmetric relation;
    the empty row is a neighbour of every row. Read-only, as every
    caller shares them."""
    states = _row_states(positions, cyclic)
    s = np.array(states, dtype=np.int32)  # at most 21 positions, as below
    spread = s | s << 1 | s >> 1
    if cyclic:
        spread |= s >> (positions - 1) | (s & 1) << (positions - 1)
    step = max(1, (1 << 22) // len(s))  # 2^22 pairs a slice; 21 positions: 28,657 rows
    degree, flat = [], []
    for lo in range(0, len(s), step):
        fits = (s[None, :] & spread[lo : lo + step, None]) == 0
        degree.append(np.count_nonzero(fits, axis=1))
        flat.append(np.flatnonzero(fits) % len(s))
    degree, flat = np.concatenate(degree), np.concatenate(flat)
    counts = np.array([v.bit_count() for v in states], dtype=np.int16)
    tables = np.array(states, dtype=np.uint64), counts, degree, np.cumsum(degree) - degree, flat
    for table in tables:
        table.flags.writeable = False
    return tables


def _successors(first: np.ndarray, flat: np.ndarray, last: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """The neighbours of each row of ``last`` end to end, in that order,
    deg = degree[last] of them each."""
    ends = np.cumsum(deg)
    return flat[np.arange(ends[-1]) + np.repeat(first[last] - ends + deg, deg)]


def _row_layout(width: int, height: int, boundary: str) -> Tuple[bool, int, int]:
    """``_site_layout``: the model sites fill the mask bits row by row,
    so TooLarge above 64 sites."""
    cyclic, nx, ny = _site_layout(width, height, boundary)
    if nx * ny > 64:
        raise TooLarge(f"{nx * ny} sites do not fit the 64-bit configuration masks")
    return cyclic, nx, ny


def iter_mask_blocks(
    width: int, height: int, boundary: str
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Valid configurations as blocks of (masks uint64, tile counts int16).

    A configuration grows one row of sites at a time into each row state
    that fits next to its last row, from each first-row state in turn, in
    blocks of at most 2^16; on a torus the last row must also fit next to
    the first. The blocks concatenate to the order of iter_valid_masks.
    """
    cyclic, positions, nrows = _row_layout(width, height, boundary)
    values, counts, degree, first, flat = _row_tables(positions, cyclic)
    for start in range(len(values)):
        closes = np.zeros(len(values), dtype=bool)
        closes[flat[first[start] : first[start] + degree[start]]] = True
        pending = [(1, values[start : start + 1], counts[start : start + 1], np.array([start]))]
        while pending:
            row, masks, tiles, last = pending.pop()
            if row == nrows:
                keep = closes[last] if cyclic else slice(None)
                yield masks[keep], tiles[keep]
                continue
            deg = degree[last]
            if deg.sum() > _BLOCK and len(last) > 1:
                # expand the head now and the rest after it, keeping the order
                cut = max(1, int(np.searchsorted(np.cumsum(deg), _BLOCK, side="right")))
                pending.append((row, masks[cut:], tiles[cut:], last[cut:]))
                pending.append((row, masks[:cut], tiles[:cut], last[:cut]))
                continue
            # children in parent order, each parent's in neighbour order
            nxt = _successors(first, flat, last, deg)
            masks = np.repeat(masks, deg) | values[nxt] << np.uint64(row * positions)
            pending.append((row + 1, masks, np.repeat(tiles, deg) + counts[nxt], nxt))


def iter_valid_masks(width: int, height: int, boundary: str) -> Iterator[Tuple[int, int]]:
    """Yield (bitmask, tile_count) as Python ints for every valid configuration.

    Bit i of the mask is model site i in raster order, the flat index of
    the (ny, nx) sites of ``_site_layout``. The order is
    lexicographic over the sites, site 0 first and an empty site before
    an occupied one: ascending in the bit-reversed mask, as a site-by-site
    depth-first search that tries the empty branch first gives it. Raises
    TooLarge above 64 sites, the width of the masks.
    """
    for masks, tiles in iter_mask_blocks(width, height, boundary):
        yield from zip(masks.tolist(), tiles.tolist())
