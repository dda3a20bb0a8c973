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
of their parameters: the RNG draw schedule is fixed per sweep. Two
engines hold the occupancy as one int, one bit per site, consume
identical streams and produce identical chains: the scalar engine
updates site by site from per-site tables and runs grids of at most
SCALAR_ENGINE_MAX_SITES (36) sites, where it is the faster; the
bitboard engine updates a whole sublattice with a few shift and mask
operations and runs every larger grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionError
from .lattice import Configuration, _unchecked, create_configuration
from .observables import ObservableReport, summarize_series
from .sticks import classify_phase, stick_census

SCALAR_ENGINE_MAX_SITES = 36
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
    (1, 0); the hor phases exchange the axes.
    """
    if phase not in PHASE_SEEDS:
        raise ValueError(f"unknown phase {phase!r}")
    if width % 2 or height % 2:
        raise DimensionError("phase seeds need even dimensions")
    transpose = phase.startswith("hor")
    w, h = (height, width) if transpose else (width, height)
    ncols = w // 2
    if offsets is None:
        offsets = [i % 2 for i in range(ncols)]
    if len(offsets) != ncols:
        raise DimensionError(f"need {ncols} column offsets, got {len(offsets)}")
    occ = []
    for i, x in enumerate(range(1, w, 2)):
        t = offsets[i] % 2
        occ.extend((x, (1 + t + 2 * k) % h) for k in range(h // 2))
    cfg = create_configuration(w, h, boundary, occ)
    if transpose:
        cfg = cfg.transpose()
    if phase in ("ver1", "hor1"):
        cfg = cfg.translate(1, 0) if phase == "ver1" else cfg.translate(0, 1)
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
        if self.lam <= 0:
            raise ValueError(f"fugacity must be positive, got {self.lam}")
        if self.sweeps < 0 or self.burn_in < 0:
            raise ValueError("sweeps and burn_in must be nonnegative")
        if not 0 <= self.translation_move_fraction <= 1:
            raise ValueError("translation_move_fraction must be in [0, 1]")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")

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
    """Site grid of the sampled model.

    Periodic mode samples all torus residues; the rectangle modes sample
    the interior lattice points, matching the enumeration paths. Site
    (x, y) of the grid has flat index y * nx + x, which is also its bit
    in an occupancy mask.
    """

    def __init__(self, width: int, height: int, boundary: str):
        self.boundary = boundary
        self.periodic = boundary == "periodic"
        if self.periodic:
            self.nx, self.ny = width, height
            self.origin = (0, 0)
        else:
            self.nx, self.ny = width - 1, height - 1
            self.origin = (1, 1)
        self.n_sites = self.nx * self.ny
        flat = np.arange(self.n_sites).reshape(self.ny, self.nx)
        self.class_indices: List[np.ndarray] = [
            flat[cy::2, cx::2].ravel() for cy in (0, 1) for cx in (0, 1)
        ]

    def target(self, i: int, d: int) -> Optional[Tuple[int, int]]:
        """Grid point reached from site i in direction d, or None off the grid."""
        y, x = divmod(i, self.nx)
        dx, dy = DIRECTIONS[d]
        tx, ty = x + dx, y + dy
        if self.periodic:
            return tx % self.nx, ty % self.ny
        if 0 <= tx < self.nx and 0 <= ty < self.ny:
            return tx, ty
        return None

    def to_centers(self, flat_indices: Iterable[int]) -> frozenset:
        ox, oy = self.origin
        return frozenset(
            (i % self.nx + ox, i // self.nx + oy) for i in flat_indices
        )

    def from_configuration(self, cfg: Configuration) -> List[int]:
        ox, oy = self.origin
        out = []
        for x, y in cfg.occupied:
            gx, gy = x - ox, y - oy
            if not (0 <= gx < self.nx and 0 <= gy < self.ny):
                raise DimensionError(
                    f"initial tile at {(x, y)} outside the sampled site grid"
                )
            out.append(gy * self.nx + gx)
        return out


def _mask(indices: Sequence[int], n_sites: int) -> int:
    """Occupancy mask with the bits of the given site indices set."""
    bits = np.zeros(n_sites, dtype=bool)
    bits[indices] = True
    return _pack(bits)


def _pack(bits: np.ndarray) -> int:
    """Occupancy mask of a boolean site array, bit i from element i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack(mask: int, n_sites: int) -> np.ndarray:
    """One uint8 per site, 1 where the occupancy mask has the bit set."""
    raw = np.frombuffer(mask.to_bytes((n_sites + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n_sites, bitorder="little")


class _ScalarEngine:
    """Site-by-site updates of a bit-packed occupancy, for small grids.

    Holds, for every site, the mask of its king neighbours and, for
    every (site, direction), the target and the mask of cells that must
    be empty; tables of O(n_sites^2) bits, so only for small grids.
    """

    def __init__(self, geom: _Geometry, initial: List[int]):
        self.geom = geom
        nx, ny = geom.nx, geom.ny

        def block(x: int, y: int) -> int:
            mask = 0
            for qx in (x - 1, x, x + 1):
                for qy in (y - 1, y, y + 1):
                    if geom.periodic:
                        mask |= 1 << ((qy % ny) * nx + qx % nx)
                    elif 0 <= qx < nx and 0 <= qy < ny:
                        mask |= 1 << (qy * nx + qx)
            return mask

        self.nbr_masks: List[int] = []
        self.move_target: List[List[Optional[int]]] = []
        self.block_masks: List[List[Optional[int]]] = []
        for i in range(geom.n_sites):
            y, x = divmod(i, nx)
            src = 1 << i
            self.nbr_masks.append(block(x, y) & ~src)
            targets = [geom.target(i, d) for d in range(4)]
            self.move_target.append(
                [None if t is None else t[1] * nx + t[0] for t in targets]
            )
            self.block_masks.append(
                [None if t is None else block(*t) & ~src for t in targets]
            )
        self.occ = _mask(initial, geom.n_sites)

    def heat_bath(self, uniforms: np.ndarray, p_occ: float) -> None:
        occ = self.occ
        u = uniforms.tolist()
        for idx_arr in self.geom.class_indices:
            masks = self.nbr_masks
            for i in idx_arr.tolist():
                bit = 1 << i
                if occ & masks[i]:
                    occ &= ~bit
                elif u[i] < p_occ:
                    occ |= bit
                else:
                    occ &= ~bit
        self.occ = occ

    def translations(self, proposals: np.ndarray) -> None:
        occ = self.occ
        targets = self.move_target
        blocks = self.block_masks
        for q in proposals.tolist():
            i, d = divmod(q, 4)
            bit = 1 << i
            if not occ & bit:
                continue
            t = targets[i][d]
            if t is None:
                continue
            if occ & blocks[i][d]:
                continue
            occ = (occ & ~bit) | (1 << t)
        self.occ = occ


class _BitboardEngine:
    """Whole-sublattice updates of a bit-packed occupancy, for large grids.

    The sites of one parity class are pairwise at distance >= 2, so the
    class updates at once: with a = occ outside the class and D its 3x3
    dilation, the new occupancy is a | (class & ~D & U), where U has bit
    i set when uniform i is below the occupation probability. D is
    separable, h = a | E(a) | W(a), D = h | N(h) | S(h). A translation
    tests the 3x3 stencil around its target, one of three base stencils
    (first column, interior, last column) shifted into place.
    """

    def __init__(self, geom: _Geometry, initial: List[int]):
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
        # 3x3 blocks on rows 0-2 around columns 0, 1 and nx - 1; torus
        # blocks wrap in x, rectangle blocks are clipped
        self.stencils = [
            sum(
                1 << (row * nx + qx % nx)
                for row in range(3)
                for qx in (cx - 1, cx, cx + 1)
                if geom.periodic or 0 <= qx < nx
            )
            for cx in (0, 1, nx - 1)
        ]

    def heat_bath(self, uniforms: np.ndarray, p_occ: float) -> None:
        u = _pack(uniforms < p_occ)
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
            free = members & u
            occ = a | free ^ (free & d)
        self.occ = occ

    def _stencil(self, tx: int, ty: int) -> int:
        """The 3x3 block around grid point (tx, ty) as a mask.

        Bits at or above n_sites may be set; the occupancy it is tested
        against has none there.
        """
        nx = self.geom.nx
        if tx == 0:
            base, shift = self.stencils[0], (ty - 1) * nx
        elif tx == nx - 1:
            base, shift = self.stencils[2], (ty - 1) * nx
        else:
            base, shift = self.stencils[1], (ty - 1) * nx + tx - 1
        if self.geom.periodic:
            shift %= self.geom.n_sites
            return base << shift | base >> (self.geom.n_sites - shift)
        return base << shift if shift >= 0 else base >> -shift

    def translations(self, proposals: np.ndarray) -> None:
        occ = self.occ
        nx = self.geom.nx
        target = self.geom.target
        # a bit test on the mask costs O(n_sites); most proposals stop
        # at an empty source, so test those on a byte per site
        occupied = bytearray(_unpack(occ, self.geom.n_sites))
        for q in proposals.tolist():
            i, d = divmod(q, 4)
            if not occupied[i]:
                continue
            t = target(i, d)
            if t is None:
                continue
            bit = 1 << i
            # the source lies in the stencil; nothing else may
            if occ & self._stencil(*t) != bit:
                continue
            j = t[1] * nx + t[0]
            occ ^= bit | 1 << j
            occupied[i], occupied[j] = 0, 1
        self.occ = occ


ENGINES = {"scalar": _ScalarEngine, "bitboard": _BitboardEngine}


class Chain:
    """Mutable chain state: current configuration, step counter, RNG."""

    def __init__(self, params: ChainParams, engine: Optional[str] = None):
        self.params = params
        self.geom = _Geometry(params.width, params.height, params.boundary)
        if engine is None:
            engine = "scalar" if self.geom.n_sites <= SCALAR_ENGINE_MAX_SITES else "bitboard"
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}"
            )
        initial = self.geom.from_configuration(params.initial_configuration())
        self.engine_name = engine
        self.engine = ENGINES[engine](self.geom, initial)
        self.rng = np.random.default_rng(np.random.PCG64(params.seed))
        self.step = 0
        self.p_occ = params.lam / (1.0 + params.lam)
        self.n_trans = int(round(params.translation_move_fraction * self.geom.n_sites))

    def sweep(self, count: int = 1) -> "Chain":
        for _ in range(count):
            uniforms = self.rng.random(self.geom.n_sites)
            self.engine.heat_bath(uniforms, self.p_occ)
            if self.n_trans:
                proposals = self.rng.integers(
                    0, self.geom.n_sites * 4, size=self.n_trans
                )
                self.engine.translations(proposals)
            self.step += 1
        return self

    def configuration(self) -> Configuration:
        return _unchecked(
            self.params.width,
            self.params.height,
            self.params.boundary,
            self.geom.to_centers(
                np.flatnonzero(_unpack(self.engine.occ, self.geom.n_sites)).tolist()
            ),
        )

    def state_key(self) -> int:
        """Occupancy bitmask; cheap identity of the current state."""
        return self.engine.occ


def mcmc_sweep(state: Chain, count: int = 1) -> Chain:
    """Advance the chain by full sweeps; returns the same (mutated) state."""
    return state.sweep(count)


# -- observable registry -------------------------------------------------------


def _tile_density(cfg: Configuration, params: ChainParams) -> float:
    geom_sites = (
        cfg.width * cfg.height
        if cfg.boundary == "periodic"
        else (cfg.width - 1) * (cfg.height - 1)
    )
    return cfg.tile_count / geom_sites


def _vacancy_density(cfg: Configuration, params: ChainParams) -> float:
    return 1.0 - 4.0 * cfg.tile_count / cfg.area


def _parity_density(cfg: Configuration, params: ChainParams) -> dict:
    from .observables import parity_density

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
    observables: Union[Sequence[str], Dict[str, Callable]] = ("tile_density",),
    *,
    keep_samples: bool = False,
    engine: Optional[str] = None,
) -> ObservableReport:
    """Run a chain and aggregate the requested observables.

    Measurements are taken every ``thinning`` sweeps after burn-in; with
    zero sweeps the initial configuration is measured once. Reports are
    deterministic functions of the parameters.
    """
    if isinstance(observables, dict):
        funcs = dict(observables)
    else:
        funcs = {name: OBSERVABLES[name] for name in observables}
    chain = Chain(params, engine=engine)
    chain.sweep(params.burn_in)
    series: Dict[str, List[float]] = {}
    labels: Dict[str, int] = {}
    samples: List[dict] = []
    measured = 0

    def measure():
        nonlocal measured
        cfg = chain.configuration()
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

    if params.sweeps == 0:
        measure()
    else:
        remaining = params.sweeps
        while remaining > 0:
            block = min(params.thinning, remaining)
            chain.sweep(block)
            remaining -= block
            if block == params.thinning:
                measure()
        if measured == 0:
            measure()

    report = ObservableReport(
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
    return report


def collect_samples(
    params: ChainParams, engine: Optional[str] = None
) -> List[Configuration]:
    """Thinned post-burn-in configurations of one chain."""
    chain = Chain(params, engine=engine)
    chain.sweep(params.burn_in)
    out = []
    remaining = params.sweeps
    while remaining > 0:
        block = min(params.thinning, remaining)
        chain.sweep(block)
        remaining -= block
        if block == params.thinning:
            out.append(chain.configuration())
    if not out:
        out.append(chain.configuration())
    return out
