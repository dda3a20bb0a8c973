"""Grand-canonical Markov chain Monte Carlo for the hard-square model.

The target measure weights a configuration by lambda^(number of tiles)
under the chosen boundary mode (equivalently the vacancy convention up
to a constant on tori). One sweep is

  1. a heat-bath pass over the four parity sublattices in fixed order:
     every site of a sublattice resamples its occupancy from the
     conditional law, occupied with probability lambda / (1 + lambda)
     when no other tile blocks it, forced vacant otherwise. Sites of one
     sublattice are at pairwise distance >= 2, so the simultaneous
     update equals the sequential one and the pass is a composition of
     exact heat-bath kernels;
  2. a run of single-tile translation proposals: a uniformly random site
     and direction, moved when the tile exists and the target
     neighborhood is free (weight-neutral, accepted with probability 1).

Both move families leave the target measure invariant; every
intermediate configuration is valid. Chains are deterministic functions
of their parameters. Each sweep draws, from one PCG64 stream seeded
with the chain's seed, n_sites uniforms (site i is offered a tile when
uniform i < lambda / (1 + lambda)) and then n_trans proposals in
[0, 4 n_sites) (site q // 4, direction q % 4): exactly what
``Generator.random(n_sites)`` and ``Generator.integers(0, 4 * n_sites,
size=n_trans)`` of numpy's Generator over that stream return, in that
order. ``SweepDraws`` decodes those values for a block of sweeps from
one ``random_raw`` call, by the rules numpy uses (53-bit doubles,
Lemire's bounded integers on buffered 32-bit halves). Chains therefore
equal those of the installed numpy's Generator; a numpy release that
changed that stream would fail the oracle test in tests/test_sampler.py
rather than drift silently. Two engines hold the occupancy as one int,
one bit per site, take the same draws and produce identical chains.
Both read one geometry table, built at most once, at set-up: the 3x3
block mask around each site and the target site of each proposal (-1
off the grid). The scalar engine runs grids of at most
SCALAR_ENGINE_MAX_SITES (36) sites: its heat bath is one dict lookup per
sublattice, keyed by the occupancy outside it, and its translations
walk one move table, indexed by the proposal, that it builds from the
blocks and targets. The bitboard engine updates a whole sublattice with
a few shift and mask operations and runs every larger grid; it builds
the table only when the chain proposes moves, and a proposal is then a
byte test on its source, one target read and one block test. On a
2-vCPU VM (python 3.11.7) a scalar sweep() + state_key() step takes
about 1.6 us on the 4x4 torus and on the 4x6 free rectangle (heat bath
0.6 us, translations and draws 0.3 us each) and 3.0 us on the 6x6
torus; the bitboard engine takes 5.6 to 9 us on these grids, and about
19-31 us a sweep on the 24x24 grids of criterion 9 at translation
fraction 0.1 (46-53 us when each proposal built its block).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionError, ParameterError, check_fugacity
from .lattice import (
    Configuration,
    _check_dims,
    _from_grid,
    _grid_of_sites,
    _site_layout,
    _sites_of,
    create_configuration,
)
from .observables import ObservableReport, parity_density, summarize_series
from .sticks import classify_phase, stick_census

SCALAR_ENGINE_MAX_SITES = 36
# entries of one heat-bath dict of the scalar engine, about 6 MB; a dict
# that reaches it is emptied on its next miss
FREE_OF_CAP = 1 << 16
# 64-bit words of one random_raw block: about 220 sweeps of a 4x4 torus
BLOCK_WORDS = 4096
_LOW32 = np.uint64(0xFFFFFFFF)
PHASE_SEEDS = ("ver0", "ver1", "hor0", "hor1")
# translation directions, indexed by proposal % 4
DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def seed_phase_configuration(
    width: int,
    height: int,
    phase: str,
    offsets: Optional[Sequence[int]] = None,
    boundary: str = "periodic",
) -> Configuration:
    """Fully packed configuration of one column or row family.

    ver0 fills columns at odd x, column i shifted vertically by
    offsets[i] (alternating 0, 1 by default); ver1 is its translate by
    (1, 0); the hor phases exchange the axes. In the rectangle modes
    the seed is the torus seed's tiles on the interior grid [1, width -
    1] x [1, height - 1]: a shifted column loses the tile that wraps
    round, ver1 and hor1 their last column or row.
    """
    if phase not in PHASE_SEEDS:
        raise ParameterError(f"unknown phase {phase!r}")
    _check_dims(width, height, boundary)
    transpose = phase.startswith("hor")
    w, h = (height, width) if transpose else (width, height)
    ncols = w // 2
    if offsets is None:
        offsets = [i % 2 for i in range(ncols)]
    if len(offsets) != ncols:
        raise DimensionError(f"need {ncols} column offsets, got {len(offsets)}")
    # column i, at x = 2i + 1, holds the rows of parity 1 + offsets[i]
    grid = np.zeros((h, w), dtype=bool)
    grid[:, 1::2] = np.arange(h)[:, None] % 2 == (1 + np.asarray(offsets)) % 2
    cfg = _from_grid(w, h, "periodic", grid)
    if transpose:
        cfg = cfg.transpose()
    if phase in ("ver1", "hor1"):
        cfg = cfg.translate(1, 0) if phase == "ver1" else cfg.translate(0, 1)
    if boundary != "periodic":
        cfg = _from_grid(width, height, boundary, _grid_of_sites(cfg._grid[1:, 1:], boundary))
    return cfg


@dataclass(frozen=True)
class ChainParams:
    """Parameters of one Monte Carlo chain."""

    width: int
    height: int
    lam: float
    seed: int
    sweeps: int
    boundary: str = "periodic"
    burn_in: int = 0
    translation_move_fraction: float = 0.25
    thinning: int = 1
    initial: Union[str, Configuration, None] = None  # "empty", a phase seed, or explicit

    def __post_init__(self):
        _check_dims(self.width, self.height, self.boundary)
        check_fugacity(self.lam)
        if self.sweeps < 0 or self.burn_in < 0:
            raise ParameterError("sweeps and burn_in must be nonnegative")
        if not 0 <= self.translation_move_fraction <= 1:
            raise ParameterError("translation_move_fraction must be in [0, 1]")
        if self.thinning < 1:
            raise ParameterError("thinning must be at least 1")
        init = self.initial
        if not (
            init is None
            or isinstance(init, Configuration)
            or isinstance(init, str) and init in ("empty", *PHASE_SEEDS)
        ):
            raise ParameterError(
                f"unknown initial state {init!r}; choose empty, "
                f"{', '.join(PHASE_SEEDS)} or a Configuration"
            )
        if isinstance(init, Configuration):
            shape = (self.width, self.height, self.boundary)
            if (init.width, init.height, init.boundary) != shape:
                raise DimensionError(
                    f"initial configuration is {init.width}x{init.height} {init.boundary}, "
                    f"the chain {self.width}x{self.height} {self.boundary}"
                )

    def initial_configuration(self) -> Configuration:
        if isinstance(self.initial, Configuration):
            return self.initial
        if self.initial in (None, "empty"):
            return create_configuration(self.width, self.height, self.boundary, [])
        return seed_phase_configuration(
            self.width, self.height, self.initial, boundary=self.boundary
        )

    def describe(self) -> dict:
        init = self.initial
        if isinstance(init, Configuration):
            init = "explicit"
        return {
            "width": self.width,
            "height": self.height,
            "boundary": self.boundary,
            "lambda": self.lam,
            "seed": self.seed,
            "sweeps": self.sweeps,
            "burn_in": self.burn_in,
            "translation_move_fraction": self.translation_move_fraction,
            "thinning": self.thinning,
            "initial": init or "empty",
        }


class _Geometry:
    """Site grid of the sampled model: the model sites of
    ``lattice._site_layout``, as the enumeration paths take them. Site
    (x, y) of the grid has flat index y * nx + x, which is also its bit
    in an occupancy mask.
    """

    def __init__(self, width: int, height: int, boundary: str):
        self.boundary = boundary
        self.periodic, self.nx, self.ny = _site_layout(width, height, boundary)
        self.n_sites = self.nx * self.ny
        flat = np.arange(self.n_sites).reshape(self.ny, self.nx)
        self.class_indices: List[np.ndarray] = [
            flat[cy::2, cx::2].ravel() for cy in (0, 1) for cx in (0, 1)
        ]

    def blocks_and_targets(self) -> Tuple[List[int], List[int]]:
        """The 3x3 block around each site as an occupancy mask, wrapping
        round on a torus and clipped to the grid on a rectangle, and the
        target site of each proposal q = 4 * site + direction, -1 when
        the move leaves the grid.

        A block is the product of its columns' bits in row 0 and its
        rows' first bits; the rows are disjoint, so nothing carries.
        """
        nx, ny = self.nx, self.ny

        # bit k * stride for each cell k within 1 of c on one axis
        def near(c: int, size: int, stride: int) -> int:
            cells = {c - 1, c, c + 1}
            if self.periodic:
                cells = {k % size for k in cells}
            return sum(1 << k * stride for k in cells if 0 <= k < size)

        rows = [near(y, ny, nx) for y in range(ny)]
        columns = [near(x, nx, 1) for x in range(nx)]
        blocks = [r * c for r in rows for c in columns]
        y, x = np.divmod(np.arange(self.n_sites), nx)
        step = np.array(DIRECTIONS)
        tx, ty = x[:, None] + step[:, 0], y[:, None] + step[:, 1]
        if self.periodic:
            target = ty % ny * nx + tx % nx
        else:
            target = np.where((tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny), ty * nx + tx, -1)
        return blocks, target.ravel().tolist()

    def from_configuration(self, cfg: Configuration) -> List[int]:
        """Flat indices of the configuration's tiles; DimensionError for
        a tile off the sites."""
        off = cfg._tile_off_the_sites()
        if off is not None:
            raise DimensionError(f"initial tile at {off} outside the sampled site grid")
        return np.flatnonzero(_sites_of(cfg._grid, self.boundary)).tolist()


def _mask(indices: Sequence[int], n_sites: int) -> int:
    """Occupancy mask with the bits of the given site indices set."""
    bits = np.zeros(n_sites, dtype=bool)
    bits[indices] = True
    return _pack_rows(bits[None])[0]


def _pack_rows(bits: np.ndarray) -> List[int]:
    """Occupancy masks of the rows of a boolean array, bit i from column i."""
    if bits.shape[1] < 63:  # the masks fit an int64: one matrix product
        return (bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))).tolist()
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _unpack(mask: int, n_sites: int) -> np.ndarray:
    """One uint8 per site, 1 where the occupancy mask has the bit set."""
    raw = np.frombuffer(mask.to_bytes((n_sites + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n_sites, bitorder="little")


class SweepDraws:
    """The random draws of successive sweeps, decoded a block at a time.

    Iterating yields, per sweep, the acceptance mask (bit i set when
    uniform i is below ``p_accept``) and the list of ``n_integers``
    values in [0, bound), equal to ``Generator.random(n_uniform) <
    p_accept`` and ``Generator.integers(0, bound, size=n_integers)`` of a
    Generator over ``PCG64(seed)``, called in that order once per sweep.

    A refill takes one ``random_raw`` block of as many whole sweeps as fit
    BLOCK_WORDS 64-bit words, at least one. A numpy double is
    (raw >> 11) * 2^-53, so it is below p exactly when raw >> 11 is below
    ceil(p * 2^53). A bounded integer reads a 32-bit word: the low half
    of a fresh raw, whose high half is kept for the next word (doubles
    never touch that buffer, so it carries across sweeps), and maps word
    w to w * bound >> 32, rejecting w, and reading another, when
    w * bound mod 2^32 is below (2^32 - bound) mod bound (Lemire, ACM
    TOMACS 29(1), 2019). A block is laid out as if nothing were rejected;
    from the first sweep with a rejection on, the block is decoded word
    by word, reading further raws as needed.
    """

    def __init__(self, seed: int, n_uniform: int, n_integers: int, bound: int, p_accept: float):
        if not 2 <= bound < 1 << 32:
            raise ValueError(f"integer bound must lie in [2, 2^32), got {bound}")
        self.bitgen = np.random.PCG64(seed)
        self.n_uniform, self.n_integers, self.bound = n_uniform, n_integers, bound
        # raw >> 11 < ceil(p * 2^53) as one comparison of the raw; at
        # p = 1 the bound is 2^64 - 1, which every raw meets
        self.accept_max = np.uint64((math.ceil(p_accept * 2.0**53) << 11) - 1)
        self.reject_below = ((1 << 32) - bound) % bound
        self.sweeps_per_block = max(1, BLOCK_WORDS // (n_uniform + (n_integers + 1) // 2))
        self.half: Optional[int] = None  # buffered high half of the last raw
        self._layouts: Dict[bool, tuple] = {}

    def __iter__(self) -> Iterator[Tuple[int, List[int]]]:
        return itertools.chain.from_iterable(iter(self._block, None))

    def _layout(self, carry: bool) -> tuple:
        """Raw positions of a block's draws when no word is rejected:
        the block's length, whether a half word is left over, the raw of
        each uniform (sweeps, n_uniform), the raw and shift of each word
        (sweeps, n_integers), and each sweep's first raw and carry-in."""
        n, k = self.n_uniform, self.n_integers
        starts, carries = [], []
        pos, c = 0, int(carry)
        for _ in range(self.sweeps_per_block):
            starts.append(pos)
            carries.append(c)
            pos += n
            if k:
                fresh = k - c
                pos += (fresh + 1) // 2
                c = fresh % 2
        first = np.array(starts)[:, None]
        # word t of a sweep's fresh raws: raw t // 2, half t % 2; t = -1
        # is the carried high half of the raw before the sweep, which for
        # the block's first sweep is self.half, set in _block
        t = np.arange(k) - np.array(carries)[:, None]
        word_raw = np.where(t >= 0, first + n + t // 2, np.maximum(first - 1, 0))
        word_shift = np.where(t >= 0, 32 * (t % 2), 32).astype(np.uint64)
        return pos, bool(c), first + np.arange(n), word_raw, word_shift, starts, carries

    def _block(self) -> List[Tuple[int, List[int]]]:
        carry = self.half is not None
        if carry not in self._layouts:
            self._layouts[carry] = self._layout(carry)
        total, carry_out, uniform, word_raw, word_shift, starts, carries = self._layouts[carry]
        raw = self.bitgen.random_raw(total)
        if self.n_integers and len(starts) > 1:
            uniforms = raw[uniform]
        else:  # one sweep, or no integers: the uniforms are a prefix of the block
            uniforms = raw[: len(starts) * self.n_uniform].reshape(len(starts), -1)
        masks = _pack_rows(uniforms <= self.accept_max)
        if not self.n_integers:
            return [(mask, []) for mask in masks]
        words = raw[word_raw] >> word_shift & _LOW32
        if carry:
            words[0, 0] = self.half
        scaled = words * np.uint64(self.bound)
        if self.reject_below:
            rejected = (scaled & _LOW32 < self.reject_below).any(axis=1)
            if rejected.any():
                s = int(rejected.argmax())
                if s:
                    self.half = int(raw[starts[s] - 1] >> 32) if carries[s] else None
                head = list(zip(masks[:s], (scaled[:s] >> 32).tolist()))
                return head + self._decode_words(raw[starts[s]:].tolist(), len(masks) - s)
        self.half = int(raw[-1] >> 32) if carry_out else None
        return list(zip(masks, (scaled >> 32).tolist()))

    def _decode_words(self, raws: List[int], sweeps: int) -> List[Tuple[int, List[int]]]:
        """Decode sweeps one word at a time, from the given raws and then
        from fresh ones."""
        stream = itertools.chain(raws, iter(self.bitgen.random_raw, None))
        accept_max, bound, reject_below = int(self.accept_max), self.bound, self.reject_below
        out = []
        for _ in range(sweeps):
            mask = 0
            for i in range(self.n_uniform):
                if next(stream) <= accept_max:
                    mask |= 1 << i
            values = []
            while len(values) < self.n_integers:
                if self.half is None:
                    raw = next(stream)
                    word, self.half = raw & 0xFFFFFFFF, raw >> 32
                else:
                    word, self.half = self.half, None
                scaled = word * bound
                if scaled & 0xFFFFFFFF >= reject_below:
                    values.append(scaled >> 32)
            out.append((mask, values))
        return out


class _ScalarEngine:
    """Table-driven updates of a bit-packed occupancy, for small grids.

    Sites of one parity sublattice are at king distance >= 2, so which
    of them are free depends only on a = occ & others, the occupancy
    outside the sublattice. The heat bath looks a class's free sites up
    in its dict ``free_of`` by a, computes them on a miss from the
    class's (bit, king neighbours) pairs in ``sites``, and sets occ = a
    | free & accept. A key is a valid configuration with one class
    emptied, so a dict holds at most the grid's number of valid
    configurations: 133 on the 4x4 torus, 42,938 on the 6x6 torus and
    159,651 on the 6x8 rectangles, the most of any grid the engine
    runs. A miss empties a dict that holds FREE_OF_CAP entries, so a
    long chain on the 6x8 rectangles keeps at most that many; the dicts
    are caches, and the chain is the same with or without the cap.
    Translations walk ``moves``, one (source bit, source | target bit,
    mask of cells that must be empty) per proposal q = 4 * site +
    direction, read from the geometry's blocks and targets (empty when
    the chain proposes no moves); an off-grid move's mask is its source
    bit, so it never fires. Both kinds of table grow too fast for large
    grids.
    """

    def __init__(self, geom: _Geometry, initial: List[int], translates: bool):
        self.geom = geom
        full = (1 << geom.n_sites) - 1
        blocks, targets = geom.blocks_and_targets()
        self.sites: List[List[Tuple[int, int]]] = [
            [(1 << i, blocks[i] ^ 1 << i) for i in idx.tolist()] for idx in geom.class_indices
        ]
        self.free_of: List[Dict[int, int]] = [{} for _ in self.sites]
        others = [full ^ _mask(idx, geom.n_sites) for idx in geom.class_indices]
        self.classes = list(zip(others, self.free_of, self.sites))
        self.moves: List[Tuple[int, int, int]] = []
        if translates:
            bits = [1 << (q >> 2) for q in range(len(targets))]
            self.moves = [
                (bit, bit | 1 << t, blocks[t] ^ bit) if t >= 0 else (bit, bit, bit)
                for bit, t in zip(bits, targets)
            ]
        self.occ = _mask(initial, geom.n_sites)

    def heat_bath(self, accept: int) -> None:
        """Resample every site; an unblocked site i takes a tile when bit
        i of ``accept`` is set."""
        occ = self.occ
        for others, free_of, sites in self.classes:
            a = occ & others
            free = free_of.get(a)
            if free is None:
                if len(free_of) >= FREE_OF_CAP:
                    free_of.clear()
                free = free_of[a] = sum(bit for bit, nbrs in sites if not a & nbrs)
            occ = a | free & accept
        self.occ = occ

    def translations(self, proposals: List[int]) -> None:
        occ = self.occ
        moves = self.moves
        for q in proposals:
            bit, flip, blocked = moves[q]
            if occ & bit and not occ & blocked:
                occ ^= flip
        self.occ = occ


class _BitboardEngine:
    """Whole-sublattice updates of a bit-packed occupancy, for large grids.

    The sites of one parity class are pairwise at distance >= 2, so the
    class updates at once: with a = occ outside the class and D its 3x3
    dilation, the new occupancy is a | (class & ~D & U), where U has bit
    i set when uniform i is below the occupation probability. D is
    separable, h = a | E(a) | W(a), D = h | N(h) | S(h). A translation
    reads its target and the 3x3 block around it from the geometry's
    tables, built at set-up when the chain proposes moves.
    """

    def __init__(self, geom: _Geometry, initial: List[int], translates: bool):
        self.geom = geom
        nx, n = geom.nx, geom.n_sites
        self.occ = _mask(initial, n)
        full = (1 << n) - 1
        first_col = _mask(range(0, n, nx), n)
        last_col = first_col << (nx - 1)
        # sites that shift east (west) without leaving their row, and
        # the column that wraps round on a torus
        self.east = (full ^ last_col, last_col)
        self.west = (full ^ first_col, first_col)
        self.classes = []
        for idx in geom.class_indices:
            members = _mask(idx, n)
            self.classes.append((members, full ^ members))
        # on a 32x256 grid the blocks hold about 6 MB: none when the
        # chain proposes no moves
        self.blocks, self.targets = geom.blocks_and_targets() if translates else ([], [])

    def heat_bath(self, accept: int) -> None:
        nx, n = self.geom.nx, self.geom.n_sites
        (east, east_wrap), (west, west_wrap) = self.east, self.west
        wrap = self.geom.periodic
        occ = self.occ
        # the dilation may set bits at or above n_sites; the class mask
        # clears them. free ^ (free & d) is free & ~d without a negative
        # int, which CPython masks far more slowly.
        for members, others in self.classes:
            a = occ & others
            h = a | (a & east) << 1 | (a & west) >> 1
            if wrap:
                h |= (a & east_wrap) >> (nx - 1) | (a & west_wrap) << (nx - 1)
            d = h | h << nx | h >> nx
            if wrap:
                d |= h >> (n - nx) | h << (n - nx)
            free = members & accept
            occ = a | free ^ (free & d)
        self.occ = occ

    def translations(self, proposals: List[int]) -> None:
        blocks, targets = self.blocks, self.targets
        occ = self.occ
        # a bit test on the mask costs O(n_sites); most proposals stop
        # at an empty source, so test those on a byte per site
        occupied = bytearray(_unpack(occ, self.geom.n_sites))
        for q in proposals:
            i = q >> 2
            if not occupied[i]:
                continue
            j = targets[q]
            if j < 0:
                continue
            bit = 1 << i
            # the source lies in the target's block; nothing else may
            if occ & blocks[j] != bit:
                continue
            occ ^= bit | 1 << j
            occupied[i], occupied[j] = 0, 1
        self.occ = occ


ENGINES = {"scalar": _ScalarEngine, "bitboard": _BitboardEngine}


class Chain:
    """Mutable chain state: current configuration, step counter, draws."""

    def __init__(self, params: ChainParams, engine: Optional[str] = None):
        self.params = params
        self.geom = _Geometry(params.width, params.height, params.boundary)
        if engine is None:
            engine = "scalar" if self.geom.n_sites <= SCALAR_ENGINE_MAX_SITES else "bitboard"
        if engine not in ENGINES:
            raise ParameterError(
                f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}"
            )
        initial = self.geom.from_configuration(params.initial_configuration())
        self.step = 0
        self.p_occ = params.lam / (1.0 + params.lam)
        self.n_trans = int(round(params.translation_move_fraction * self.geom.n_sites))
        self.engine_name = engine
        self.engine = ENGINES[engine](self.geom, initial, self.n_trans > 0)
        n = self.geom.n_sites
        self._draws = iter(SweepDraws(params.seed, n, self.n_trans, 4 * n, self.p_occ))

    def sweep(self, count: int = 1) -> "Chain":
        engine, draws = self.engine, self._draws
        for _ in range(count):
            accept, proposals = next(draws)
            engine.heat_bath(accept)
            if proposals:
                engine.translations(proposals)
        if count > 0:
            self.step += count
        return self

    def configuration(self) -> Configuration:
        """The current state: its center set is built only when
        ``occupied`` is first read."""
        geom = self.geom
        sites = _unpack(self.engine.occ, geom.n_sites).view(bool).reshape(geom.ny, geom.nx)
        grid = _grid_of_sites(sites, geom.boundary)
        return _from_grid(self.params.width, self.params.height, geom.boundary, grid)

    def state_key(self) -> int:
        """Occupancy bitmask; cheap identity of the current state."""
        return self.engine.occ


def iter_samples(chain: Chain) -> Iterator[Configuration]:
    """The measured configurations of a chain run by its own parameters.

    Burns in, then yields the configuration after each full block of
    ``thinning`` sweeps: ``sweeps // thinning`` measurements. When that
    is 0, it runs the ``sweeps`` sweeps (none when 0) and yields once. A
    trailing partial block is not run, since nothing measures it.
    """
    p = chain.params
    chain.sweep(p.burn_in)
    blocks, block = p.sweeps // p.thinning, p.thinning
    if not blocks:
        blocks, block = 1, p.sweeps
    for _ in range(blocks):
        chain.sweep(block)
        yield chain.configuration()


# -- observable registry -------------------------------------------------------


def _tile_density(cfg: Configuration, params: ChainParams) -> float:
    _, nx, ny = _site_layout(cfg.width, cfg.height, cfg.boundary)
    return cfg.tile_count / (nx * ny)


def _vacancy_density(cfg: Configuration, params: ChainParams) -> float:
    return 1.0 - 4.0 * cfg.tile_count / cfg.area


def _parity_density(cfg: Configuration, params: ChainParams) -> dict:
    return parity_density([cfg])


def _tile_count(cfg: Configuration, params: ChainParams) -> float:
    return float(cfg.tile_count)


def _phase(cfg: Configuration, params: ChainParams) -> str:
    return classify_phase(cfg, lam=params.lam)


def _stick_counts(cfg: Configuration, params: ChainParams) -> dict:
    census = stick_census(cfg)
    return {t: float(c["count"]) for t, c in census.items()}


OBSERVABLES: Dict[str, Callable] = {
    "tile_count": _tile_count,
    "tile_density": _tile_density,
    "vacancy_density": _vacancy_density,
    "parity_density": _parity_density,
    "phase": _phase,
    "stick_counts": _stick_counts,
}


def run_chain(
    params: ChainParams,
    observables: Sequence[str] = ("tile_density",),
    *,
    keep_samples: bool = False,
) -> ObservableReport:
    """Run a chain and aggregate the named observables over the
    configurations of ``iter_samples``: ``sweeps // thinning``
    measurements after burn-in, or one after all ``sweeps`` sweeps when
    there are fewer than ``thinning`` (the initial configuration when
    ``sweeps`` is 0). Reports are deterministic functions of the
    parameters.
    """
    funcs = {name: OBSERVABLES[name] for name in observables}
    chain = Chain(params)
    series: Dict[str, List[float]] = {}
    labels: Dict[str, int] = {}
    samples: List[dict] = []
    measured = 0
    for cfg in iter_samples(chain):
        measured += 1
        for name, fn in funcs.items():
            value = fn(cfg, params)
            if isinstance(value, str):
                labels[value] = labels.get(value, 0) + 1
            elif isinstance(value, dict):
                for k, v in value.items():
                    series.setdefault(f"{name}.{k}", []).append(float(v))
            else:
                series.setdefault(name, []).append(float(value))
        if keep_samples:
            samples.append({"step": chain.step, "occupied": sorted(cfg.occupied)})

    return ObservableReport(
        params={**params.describe(), "engine": chain.engine_name},
        estimators=summarize_series(series) if series else {},
        phase_fractions={k: v / measured for k, v in labels.items()},
        weight_convention={
            "sampler": "tile count, weight lambda^n",
            "vacancy_offset": "on tori the vacancy convention differs by "
            "the constant lambda^(-Area/4)",
        },
        samples=samples if keep_samples else None,
        measurements=measured,
    )
