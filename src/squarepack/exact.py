"""Exact partition functions and chessboard seminorms.

Partition functions are stored as exact integer coefficient vectors over
the tile count n; the vacancy-convention value differs from the
tile-convention value by the constant factor lambda^(-Area/4), since a
tile of the finite-volume model always covers four region faces.

Two enumeration paths are provided and must agree coefficient-wise:
brute force counts the tiles of every configuration, listed as masks
grown row by row in numpy arrays (``lattice.iter_mask_blocks``), and a
row-transfer recursion sums over row sequences. They share only the
flat row tables of ``lattice._row_tables``. The transfer packs each
row's polynomial into one int of an object array, so a row step is one
``np.add.reduceat`` over the neighbour lists and a shift by each row's
tiles. It walks only half of the rows: a row sequence is two walks that
meet at its middle row, and since the neighbour relation is symmetric
both halves are read from one walk, joined by squaring each row's
packed int (at most one big-int product per row state and start). On
a torus one walk carries one start row per orbit of the rows under
rotation and mirroring, each in its own byte-aligned bit field and
weighted by the orbit size; a rectangle walks one row of each mirror
pair.

Chessboard seminorms and disseminated products are a band transfer: a
float row transfer along the torus's narrow side whose steps span one
row of reflected blocks each, with the tile count kept as a polynomial
degree and the fugacity applied in logs at the end. Reflection
positivity is the same transfer over a block and its mirror image.
Nothing here lists configurations; the tests keep per-configuration
loops over the listed ensemble as the reference for both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BlockConditionViolated,
    GeometryMismatch,
    OddLength,
    OutOfFloatRange,
    ParameterError,
    TooLarge,
    check_fugacity,
)
from .lattice import (
    Point,
    _check_dims,
    _reversed_bits,
    _row_tables,
    _site_layout,
    _successors,
    iter_mask_blocks,
)

DEFAULT_AREA_CAP = 36
TRANSFER_WIDTH_CAP = 14
TRANSFER_AREA_CAP = 4096
# entries of the band transfer's largest array, 8 bytes each; the 12x24
# torus fits (7,568,932 floats), 14x14 does not (35,532,450)
BAND_SIZE_CAP = 1 << 23
# bits of one packed int in the torus row transfer, which walks as many
# start orbits at once as fit: one start of the 14x40 torus takes 17,184,
# two share a walk, and the 843 rows of 14 sites hold 3.9 MB
PACK_BITS = 9 << 12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


# -- one-dimensional systems ------------------------------------------------


def one_dim_transfer(lam: float) -> Tuple[float, float]:
    """Eigenvalues (gamma_plus, gamma_minus) of [[lam^-1/2, 1], [1, 0]]."""
    check_fugacity(lam)
    t = lam ** -0.5
    root = math.sqrt(1.0 / lam + 4.0)
    return (t + root) / 2.0, (t - root) / 2.0


def z1d_periodic(length: int, lam: float) -> float:
    """Partition value gamma_plus^L + gamma_minus^L of the periodic 1D system.

    Equals the sum over cyclic sequences r_0..r_L (r_0 = r_L, no two
    consecutive ones) of lam^(-1/2 * sum (1-r_i)(1-r_{i+1})).
    """
    if length % 2 or length < 0:
        raise OddLength(f"periodic 1D length must be even and >= 0, got {length}")
    gp, gm = one_dim_transfer(lam)
    value = _float_value(
        (g**length for g in (gp, gm)),
        lambda: length * math.log(gp) + math.log1p((gm / gp) ** length),
    )
    if value is None:
        raise OutOfFloatRange(f"periodic 1D value at L={length}, lambda={lam} exceeds the float range")
    return value


def z1d_free(length: int, lam: float) -> float:
    """Free-boundary 1D partition value, vacancy weight convention.

    Sum over n of C(L - n, n) * lam^(n - L/2); n tiles stack in a
    2 x L strip with at least one skip between consecutive tiles.
    """
    if length % 2 or length < 0:
        raise OddLength(f"free 1D length must be even and >= 0, got {length}")
    check_fugacity(lam)
    coefficients = [math.comb(length - n, n) for n in range(length // 2 + 1)]
    value = _float_value(
        (a * lam ** (n - length / 2.0) for n, a in enumerate(coefficients)),
        lambda: _log_sum(
            [math.log(a) + (n - length / 2.0) * math.log(lam) for n, a in enumerate(coefficients)]
        ),
    )
    if value is None:
        raise OutOfFloatRange(f"free 1D value at L={length}, lambda={lam} exceeds the float range")
    return value


# -- partition polynomials ---------------------------------------------------


@dataclass(frozen=True)
class PartitionPolynomial:
    """Exact coefficients a_n = number of valid configurations with n tiles."""

    width: int
    height: int
    boundary: str
    coefficients: Tuple[int, ...]

    @property
    def area(self) -> int:
        return self.width * self.height

    def evaluate_tile(self, lam: float) -> Optional[float]:
        """Sum a_n lam^n (tile-count weight convention); None beyond the float range."""
        check_fugacity(lam)
        return _float_value(
            (a * lam**n for n, a in enumerate(self.coefficients)), lambda: self.log_tile(lam)
        )

    def evaluate_vacancy(self, lam: float) -> Optional[float]:
        """Sum a_n lam^(n - Area/4) (vacancy weight convention); None beyond the float range."""
        check_fugacity(lam)
        return _float_value(
            (a * lam ** (n - self.area / 4.0) for n, a in enumerate(self.coefficients)),
            lambda: self.log_vacancy(lam),
        )

    def log_tile(self, lam: float) -> float:
        """log of sum a_n lam^n, summed relative to the largest term so
        that it is finite for every positive lam."""
        check_fugacity(lam)
        return _log_sum(
            [math.log(a) + n * math.log(lam) for n, a in enumerate(self.coefficients) if a]
        )

    def log_vacancy(self, lam: float) -> float:
        """log of sum a_n lam^(n - Area/4)."""
        return self.log_tile(lam) - self.area / 4.0 * math.log(lam)

    def report(self, lambdas: Iterable[float] = ()) -> dict:
        return {
            "dims": [self.width, self.height],
            "boundary": self.boundary,
            "coefficients": list(self.coefficients),
            "weight_conventions": {
                "tile": "sum a_n lambda^n",
                "vacancy": "tile value times lambda^(-Area/4)",
            },
            "evaluations": [
                {
                    "lambda": lam,
                    "value_tile_convention": self.evaluate_tile(lam),
                    "value_vacancy_convention": self.evaluate_vacancy(lam),
                    "log_value_tile_convention": self.log_tile(lam),
                    "log_value_vacancy_convention": self.log_vacancy(lam),
                }
                for lam in lambdas
            ],
        }


def _log_sum(logs: Sequence[float]) -> float:
    """log of sum exp(v), summed relative to the largest v."""
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _float_value(terms: Iterable[float], log_value: Callable[[], float]) -> Optional[float]:
    """A sum of terms as a float; from its log when a term overflows
    (a coefficient can exceed the float range while the sum does not),
    None when the sum itself does not fit."""
    try:
        value = float(sum(terms))
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    log = log_value()
    return math.exp(log) if log < _LOG_FLOAT_MAX else None


def _trim(coeffs: List[int]) -> Tuple[int, ...]:
    last = max((i for i, c in enumerate(coeffs) if c), default=0)
    return tuple(coeffs[: last + 1])


def _brute_coefficients(width: int, height: int, boundary: str) -> List[int]:
    """Configurations per tile count."""
    counts = np.zeros(width * height // 4 + 1, dtype=np.int64)
    for _, tiles in iter_mask_blocks(width, height, boundary):
        counts += np.bincount(tiles, minlength=len(counts))
    return counts.tolist()


def _dihedral_orbits(
    states: Sequence[int], positions: int
) -> Tuple[List[Tuple[int, int]], np.ndarray]:
    """(index of one row, orbit size) for each orbit of the cyclic rows
    under rotation and mirroring, largest orbits first, and each row's
    orbit as its place in that list."""
    s = np.array(states, dtype=np.int64)
    both = np.stack([s, _reversed_bits(s, positions)])[:, None]
    k = np.arange(positions)[:, None]
    images = (both << k | both >> positions - k) & (1 << positions) - 1
    members = {}
    for i, least in enumerate(images.min(axis=(0, 1)).tolist()):
        members.setdefault(least, []).append(i)
    orbits = sorted(members.values(), key=len, reverse=True)
    label = np.zeros(len(s), dtype=np.int64)
    for k, rows in enumerate(orbits):
        label[rows] = k
    return [(rows[0], len(rows)) for rows in orbits], label


def _limb(degree: np.ndarray, first: np.ndarray, flat: np.ndarray, nrows: int) -> int:
    """Bits that hold the number of all sequences of nrows rows, each
    next to the one before: its bit length from a float count walk,
    rescaled to its largest entry at every row with the scale kept as a
    log, plus one bit against rounding."""
    counts, log2 = np.ones(len(degree)), 0.0
    for _ in range(nrows - 1):
        counts = np.add.reduceat(counts[flat], first)
        top = counts.max()
        counts, log2 = counts / top, log2 + math.log2(top)
    return int(log2 + math.log2(counts.sum())) + 2


def _walk(
    vec: np.ndarray, first: np.ndarray, flat: np.ndarray, shifts: np.ndarray, steps: int
) -> np.ndarray:
    """``steps`` row steps of packed polynomials, an object array of ints
    over the rows of (first, flat): each row's entry becomes the sum over
    its neighbours, shifted up by its tiles."""
    for _ in range(steps):
        # no segment of flat is empty: every row has the empty row as a neighbour
        vec = np.add.reduceat(vec[flat], first)
        np.left_shift(vec, shifts, out=vec)
    return vec


def _torus_total(width: int, height: int, shifts: np.ndarray, limb: int) -> int:
    """The packed torus polynomial, cut at a start row and at the middle
    row height/2 rows on (see ``_transfer_coefficients``)."""
    values, _, degree, first, flat = _row_tables(width, True)
    # largest orbits first: the middle rows of orbit k join k + 1 starts
    orbits, label = _dihedral_orbits(values, width)
    half = height // 2
    nbytes = -(-((half // 2) * (width // 2) + 1) * limb // 8)
    field = 8 * nbytes
    walks = -(-len(orbits) // max(1, PACK_BITS // field))
    group = -(-len(orbits) // walks)
    total = 0
    for lo in range(0, len(orbits), group):
        starts = orbits[lo : lo + group]
        vec = np.zeros(len(first), dtype=object)
        for j, (start, _) in enumerate(starts):
            vec[start] = 1 << j * field
        # g[s] of each middle row s that this group joins (orbit lo or
        # later), named vec so the next group's start frees it
        rows = np.flatnonzero(label >= lo)
        deg = degree[rows]
        vec = _walk(vec, first, flat, shifts, half - 1)
        vec = np.add.reduceat(vec[_successors(first, flat, rows, deg)], np.cumsum(deg) - deg)
        size = len(starts) * nbytes
        spans = [(a, a + nbytes) for a in range(0, size, nbytes)]
        # each start's closed walks through middle rows of its own orbit
        # and of later ones, which count twice
        sums = [0] * len(starts)
        for k, gs, shift in zip((label[rows] - lo).tolist(), vec, shifts[rows].tolist()):
            raw = gs.to_bytes(size, "little")
            for j, (a, b) in enumerate(spans[: k + 1]):
                g = int.from_bytes(raw[a:b], "little")
                sums[j] += g * g << shift + (j < k)
        for (start, weight), x in zip(starts, sums):
            total += weight * x << int(shifts[start])
    return total


def _transfer_coefficients(width: int, height: int, boundary: str) -> List[int]:
    """Row transfer with each row's polynomial packed into one int, walked
    half way and joined at the middle row.

    Coefficient n of a packed polynomial sits in bits [n*limb, (n+1)*limb).
    A row sequence cut at a middle row s is two walks that end next to s,
    and the neighbour relation is symmetric, so both come from one walk.
    With g[s] the polynomial of the walks of one half that end next to
    s, the sequences through s hold x^tiles(s) * g[s]^2, and squaring a
    packed int multiplies its polynomial by itself (Kronecker
    substitution). Every limb of every walk entry, square and weighted
    sum counts row sequences of at most nrows rows (a shorter one extends
    by empty rows), and never more than the whole sum does, so it is at
    most the number of all sequences of nrows rows. That fixes limb
    (``_limb``) and keeps every carry inside its limb.

    A torus of H rows, H even, is cut at a start row r and at the middle
    row s, H/2 rows on: Z = sum over r and s of x^(tiles(r) + tiles(s)) *
    g_r[s]^2, where g_r[s] is a walk of H/2 - 1 steps from r, which
    leaves out the tiles of r, summed over the neighbours of s. Rotating
    or mirroring every row maps closed walks to closed walks with the
    same tiles, and the term is symmetric in r and s. So the starts are
    one row per orbit (``_dihedral_orbits``), weighted by orbit size, and
    the start of orbit j joins only the middle rows of orbits k >= j,
    those of k > j twice. The starts share walks: start j of a walk owns
    the bits [j*field, (j+1)*field) of each packed int. A field holds the
    tiles of the H/2 - 1 rows between r and s, at most (H/2 // 2) *
    width/2 as two adjacent rows hold at most width/2, in whole bytes, so
    one to_bytes of g[s] cuts it at its fields. The starts go into as few
    walks as keep every packed int within PACK_BITS, at least one start a
    walk, and the walks share them evenly.

    The rectangle modes have an odd number N of rows. The top N // 2 rows
    walk from every first row, and up/down symmetry gives the bottom
    ones: Z = sum over s of x^tiles(s) * n[s]^2. The start vector and the
    neighbour relation are mirror symmetric, so every partial vector is;
    the walk keeps one row of each mirror pair, and the middle row of a
    pair counts twice.
    """
    periodic, positions, nrows = _site_layout(width, height, boundary)
    values, counts, degree, first, flat = _row_tables(positions, periodic)
    limb = _limb(degree, first, flat, nrows)
    shifts = counts.astype(np.int64) * limb
    if periodic:
        total = _torus_total(width, height, shifts, limb)
    else:
        # rows ascend in their reversed patterns, so the mirror image of
        # row i is the row at the rank of its pattern among them
        v = values.astype(np.int64)
        mirror = np.searchsorted(_reversed_bits(v, positions), v)
        keep = mirror >= np.arange(len(v))
        rep = np.cumsum(keep) - 1
        rep = np.minimum(rep, rep[mirror])  # the kept row of each pair
        # the kept rows' neighbour lists, each neighbour as its pair's kept row
        flat = rep[flat[np.repeat(keep, degree)]]
        first = np.cumsum(degree[keep]) - degree[keep]
        shifts = shifts[keep]
        top = np.left_shift(np.ones(len(first), dtype=object), shifts)
        top = _walk(top, first, flat, shifts, nrows // 2 - 1)
        n = np.add.reduceat(top[flat], first)
        total = int(np.left_shift(n * n, shifts + (mirror != np.arange(len(v)))[keep]).sum())
    low = (1 << limb) - 1
    return [total >> n * limb & low for n in range(width * height // 4 + 1)]


def partition_polynomial(
    width: int,
    height: int,
    boundary: str = "periodic",
    *,
    method: str = "auto",
    area_cap: int = DEFAULT_AREA_CAP,
) -> PartitionPolynomial:
    """Exact partition polynomial by brute force or row transfer.

    method: 'auto' (brute force within the area cap, else row transfer),
    'brute', or 'transfer'.
    """
    _check_dims(width, height, boundary)
    area = width * height
    if method == "auto":
        method = "brute" if area <= area_cap else "transfer"
    if method == "brute":
        if area > area_cap:
            raise TooLarge(f"area {area} exceeds brute-force cap {area_cap}")
        coeffs = _brute_coefficients(width, height, boundary)
    elif method == "transfer":
        if width > TRANSFER_WIDTH_CAP:
            raise TooLarge(
                f"row-transfer path requires width <= {TRANSFER_WIDTH_CAP}, got {width}"
            )
        if area > TRANSFER_AREA_CAP:
            raise TooLarge(f"area {area} exceeds transfer cap {TRANSFER_AREA_CAP}")
        coeffs = _transfer_coefficients(width, height, boundary)
    else:
        raise ParameterError(f"unknown method {method!r}; choose auto, brute or transfer")
    return PartitionPolynomial(width, height, boundary, _trim(coeffs))


# -- chessboard seminorm and reflection positivity ---------------------------

Event = Callable[[Mapping[Point, int]], bool]
LocalFunction = Callable[[Mapping[Point, int]], float]


@dataclass(frozen=True)
class SeminormQuery:
    """A block rectangle on a torus together with a block-local function.

    The block R has corner (x0, y0) and dimensions k x l; the torus
    dimensions must be even multiples of the block dimensions. The event
    (more generally, any real-valued local function) receives a mapping
    from the (k+1)(l+1) lattice points of the closed block to occupancies.
    """

    width: int
    height: int
    corner: Point
    block_width: int
    block_height: int
    event: LocalFunction

    def __post_init__(self):
        if self.block_width < 1 or self.block_height < 1:
            raise BlockConditionViolated(
                f"block dimensions must be positive, got {self.block_width}x{self.block_height}"
            )
        if self.width % (2 * self.block_width) or self.height % (2 * self.block_height):
            raise BlockConditionViolated(
                f"{self.block_width}x{self.block_height} block does not tile the "
                f"{self.width}x{self.height} torus with even multiplicity"
            )


def _block_points(corner: Point, k: int, l: int) -> List[Point]:
    x0, y0 = corner
    return [(x0 + dx, y0 + dy) for dy in range(l + 1) for dx in range(k + 1)]


def _reflected_point(q: Point, i: int, j: int, corner: Point, k: int, l: int) -> Point:
    x, y = q
    x0, y0 = corner
    rx = x + i * k if i % 2 == 0 else 2 * x0 + (i + 1) * k - x
    ry = y + j * l if j % 2 == 0 else 2 * y0 + (j + 1) * l - y
    return rx, ry


def _eval_local(
    fn: LocalFunction, points: List[Point], pattern_ids: np.ndarray
) -> np.ndarray:
    """Evaluate a local function on every pattern id, calling it once per
    distinct id in ascending order.

    The distinct ids come from a count over all 2^points ids when there
    are no more of those than given ids, and from a sort otherwise.
    """
    if 1 << len(points) <= len(pattern_ids):
        seen = np.bincount(pattern_ids, minlength=1 << len(points)) > 0
        ids, inverse = np.flatnonzero(seen), (np.cumsum(seen) - 1)[pattern_ids]
    else:
        ids, inverse = np.unique(pattern_ids, return_inverse=True)
    values = np.array(
        [float(fn({q: pid >> b & 1 for b, q in enumerate(points)})) for pid in ids.tolist()],
        dtype=np.float64,
    )
    return values[inverse]


def _band_pairs(positions: int, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every run of rows + 1 cyclic row states, each next to the one
    before, as state indices (runs, rows + 1), and the tiles of the
    first ``rows`` states of each run."""
    _, counts, degree, first, flat = _row_tables(positions, True)
    runs = np.arange(len(counts))[:, None]
    for _ in range(rows):
        last = runs[:, -1]
        deg = degree[last]
        runs = np.column_stack([np.repeat(runs, deg, axis=0), _successors(first, flat, last, deg)])
    return runs, counts[runs[:, :-1]].sum(axis=1)


def _check_band_size(width: int, height: int, k: int, l: int, cells: int) -> None:
    """TooLarge unless the band transfer of ``cells`` reflected k x l
    blocks on the torus stays within BAND_SIZE_CAP, before it builds any
    of its arrays.

    The two largest are the bits the run table gathers, runs x cells x
    points, and the kernel product, (area/4 + 1) x S^2 floats for the S
    cyclic row states along the narrow side. S is a Lucas number, and
    the runs of l + 1 rows are walks counted on the degree vector of the
    row tables. Each is counted only while it stays within the cap, so a
    refused size may be a lower bound.
    """
    _check_dims(width, height, "periodic")
    torus = f"{width}x{height}"
    if height < width:
        width, height, k, l = height, width, l, k
    rows, step = 2, 1  # Lucas numbers L_0 and L_1
    for _ in range(width):
        if rows > BAND_SIZE_CAP:
            break
        rows, step = step, rows + step
    size = (width * height // 4 + 1) * rows * rows
    if size <= BAND_SIZE_CAP:
        _, _, degree, first, flat = _row_tables(width, True)
        per_run = cells * (k + 1) * (l + 1)
        runs = degree.astype(np.float64)
        for _ in range(l - 1):
            if runs.sum() * per_run > BAND_SIZE_CAP:
                break
            runs = np.add.reduceat(runs[flat], first)
        size = max(size, int(runs.sum()) * per_run)
    if size > BAND_SIZE_CAP:
        raise TooLarge(
            f"the band transfer on the {torus} torus needs at least {size} "
            f"array entries, more than the {BAND_SIZE_CAP} it admits"
        )


def _log_disseminated(
    width: int,
    height: int,
    lam: float,
    corner: Point,
    k: int,
    l: int,
    events: Mapping[Tuple[int, int], LocalFunction],
) -> Tuple[int, float]:
    """(sign, log |value|) of mu^per(prod over cells (i, j) of events[i, j]
    at reflection (i, j)), by a row transfer along the narrow side.

    Reflection row j spans the l rows of band j and the first row of band
    j + 1. The runs of l + 1 row states give every (band, next row) pair,
    and its factor is x^tiles(band) times the product of its cells' values
    at the bits the reflected block points read. K_j folds these into an
    S x S matrix of polynomials in the tile count, and the torus sum is
    tr(K_0 ... K_{ny-1}), rescaled at every step into a log. lam enters
    only at the end, summed relative to the largest term as in log_tile,
    so no weight overflows or underflows at any fugacity.
    """
    _check_band_size(width, height, k, l, len(events))
    points = _block_points(corner, k, l)
    cells = list(events)
    # the block at the corner taken on the torus reflects onto the same
    # sites, and its coordinates fit int64 whatever the corner
    home = (corner[0] % width, corner[1] % height)
    home_points = _block_points(home, k, l)
    sites = np.array(
        [[_reflected_point(q, i, j, home, k, l) for q in home_points] for i, j in cells],
        dtype=np.int64,
    ).reshape(len(cells), len(points), 2) % (width, height)
    axis = 1
    if height < width:  # rows along the narrow side: transpose the query
        width, height, l, axis = height, width, k, 0
        sites = sites[..., ::-1]
    band = np.array([cell[axis] for cell in cells], dtype=np.int64)
    runs, tiles = _band_pairs(width, l)
    row_values = _row_tables(width, True)[0]
    size = len(row_values)
    states = row_values[runs]
    # each point's row within its run, and its bit in that row's state
    row = (sites[..., 1] - home[axis] - band[:, None] * l) % height
    bits = states[:, row] >> sites[..., 0].astype(np.uint64) & np.uint64(1)
    ids = (bits << np.arange(len(points), dtype=np.uint64)).sum(axis=2).astype(np.int64)
    # one evaluation per local function, over all of its cells
    factors = np.ones((height // l, len(runs)))
    by_function = {}
    for c, cell in enumerate(cells):
        by_function.setdefault(id(events[cell]), []).append(c)
    for group in by_function.values():
        values = _eval_local(events[cells[group[0]]], points, ids[:, group].ravel())
        for c, column in zip(group, values.reshape(len(runs), len(group)).T):
            factors[band[c]] *= column
    index = (tiles * size + runs[:, 0]) * size + runs[:, -1]
    degrees = int(tiles.max()) + 1
    product, log_scale = np.eye(size)[None], 0.0
    for factor in factors:
        kernel = np.bincount(index, factor, degrees * size * size).reshape(degrees, size, size)
        out = np.zeros((len(product) + degrees - 1, size, size))
        for t, term in enumerate(kernel):
            out[t : t + len(product)] += product @ term
        top = float(np.abs(out).max()) or 1.0
        product, log_scale = out / top, log_scale + math.log(top)
    trace = np.einsum("nii->n", product)
    n = np.flatnonzero(trace)
    logs = np.log(np.abs(trace[n])) + n * math.log(lam)
    top = logs.max(initial=-math.inf)
    total = float(np.sign(trace[n]) @ np.exp(logs - top))
    if total == 0.0:
        return 0, -math.inf
    coefficients = _trim(_transfer_coefficients(width, height, "periodic"))
    log_z = PartitionPolynomial(width, height, "periodic", coefficients).log_tile(lam)
    return (1 if total > 0 else -1), log_scale + top + math.log(abs(total)) - log_z


def chessboard_seminorm(query: SeminormQuery, lam: float) -> float:
    """Chessboard seminorm: mu^per(prod over all reflections)^(1/#reflections).

    The expectation of the disseminated product is nonnegative by
    reflection positivity; tiny negative float residue is clamped to 0.
    """
    check_fugacity(lam)
    nx, ny = query.width // query.block_width, query.height // query.block_height
    # admitted before its nx * ny cells are listed
    _check_band_size(query.width, query.height, query.block_width, query.block_height, nx * ny)
    sign, log_value = _log_disseminated(
        query.width,
        query.height,
        lam,
        query.corner,
        query.block_width,
        query.block_height,
        {(i, j): query.event for i in range(nx) for j in range(ny)},
    )
    return math.exp(log_value / (nx * ny)) if sign > 0 else 0.0


def disseminated_expectation(
    width: int,
    height: int,
    lam: float,
    corner: Point,
    block_width: int,
    block_height: int,
    events: Mapping[Tuple[int, int], Event],
) -> float:
    """mu^per of a product of reflected block events, one per grid cell.

    ``events`` maps reflection indices (i, j), with 0 <= i < W/k and
    0 <= j < H/l, to block-local events; missing cells contribute no
    constraint. This is the left-hand side of the chessboard estimate.
    """
    check_fugacity(lam)
    SeminormQuery(width, height, corner, block_width, block_height, lambda _: True)
    nx, ny = width // block_width, height // block_height
    for i, j in events:
        if not (0 <= i < nx and 0 <= j < ny):
            raise BlockConditionViolated(f"reflection index {(i, j)} out of range")
    sign, log_value = _log_disseminated(
        width, height, lam, corner, block_width, block_height, events
    )
    return sign * math.exp(log_value)


def reflection_positivity_value(
    width: int,
    height: int,
    lam: float,
    corner: Point,
    block_width: int,
    block_height: int,
    f: LocalFunction,
) -> float:
    """mu^per(f * (f o reflection)) for a block-local function f.

    The torus must be the block doubled along one axis, with the
    reflection through the shared block edge: the disseminated product
    of f at the block and at its mirror image. Nonnegative up to float
    rounding for every local f.
    """
    check_fugacity(lam)
    if width == 2 * block_width and height == block_height:
        mirror = (1, 0)
    elif height == 2 * block_height and width == block_width:
        mirror = (0, 1)
    else:
        raise GeometryMismatch(
            f"torus {width}x{height} is not the block {block_width}x{block_height} "
            "doubled along one axis"
        )
    sign, log_value = _log_disseminated(
        width, height, lam, corner, block_width, block_height, {(0, 0): f, mirror: f}
    )
    return sign * math.exp(log_value)


def face_vacant_event(corner: Point) -> Tuple[Point, int, int, Event]:
    """Block and event for 'the unit face at corner is vacant'."""
    x0, y0 = corner
    cells = [(x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)]

    def event(pattern: Mapping[Point, int]) -> bool:
        return not any(pattern[c] for c in cells)

    return corner, 1, 1, event
