"""The four benchmark workloads, one round each, with their output checks.

A round runs in a fresh process (see worker.py): set-up, then a timed
phase of fixed work, then checks outside the timed phase. Every call
into squarepack that the timed phase makes goes through ``rec.wrap`` so
that a traced round records a span around it; the span names are the
per-layer metrics' sources. All inputs come from the generator that the
worker derives from the workload seed and the round index.

Why these workloads: ordered_pair is large-lattice heat bath plus the
coupling analysis (sampler-bound); sticks is structure analysis on small
lattices in torus and fully-packed rectangle modes (sticks-bound);
exact is integer enumeration with no sampler work (exact/graphs-bound);
stationarity is the scalar engine on tiny lattices, where per-call
overhead dominates, with an exact check of the sampled distribution.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from squarepack.coupling import disagreement_set, king_clusters
from squarepack.errors import SquarepackError
from squarepack.exact import (
    SeminormQuery,
    chessboard_seminorm,
    face_vacant_event,
    partition_polynomial,
)
from squarepack.graphs import enumerate_components, verify_counting_bounds
from squarepack.lattice import create_configuration, iter_valid_masks
from squarepack.observables import autocorrelation_curve, fit_decay_length, parity_density
from squarepack.sampler import Chain, ChainParams
from squarepack.sticks import (
    PHASES,
    Rect,
    classify_phase,
    detect_stick_edges,
    divided_directions,
    extract_sticks,
    psi_set,
)

MAX_FAILURES_KEPT = 20


class Round:
    """Bookkeeping of one round: phase times, checks and outputs."""

    def __init__(self, rec, spawn_monotonic: float):
        self.rec = rec
        self.spawn = spawn_monotonic
        self.setup_span = rec.open("bench.setup")
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.series: Dict[str, list] = {}
        self.digests: Dict[str, str] = {}
        self.extra: dict = {}  # small per-round outputs for the result file
        self.pooled: dict = {}  # inputs of checks over all rounds of a run

    def start(self) -> None:
        """End of set-up; the timed phase begins."""
        self.rec.close(self.setup_span)
        self.setup_s = time.monotonic() - self.spawn
        self.round_span = self.rec.open("bench.round")
        self.t0 = perf_counter()

    def stop(self) -> None:
        self.wall_s = perf_counter() - self.t0
        self.rec.close(self.round_span)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(what)

    def burn_in(self, sweep: Callable, sweeps: int) -> None:
        span = self.rec.open("bench.burn_in")
        sweep(sweeps)
        self.rec.close(span)

    def count_sweeps(self, chain: Chain, sweeps: int) -> None:
        """Sampler work of a chain, derived from its parameters."""
        self.rec.count("sampler.sweeps", sweeps)
        self.rec.count("sampler.site_updates", sweeps * chain.geom.n_sites)
        self.rec.count("sampler.translation_proposals", sweeps * chain.n_trans)

    def digest(self, name: str, chain: Chain) -> None:
        key = chain.state_key()
        self.digests[name] = hashlib.sha256(str(key).encode()).hexdigest()[:16]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- ordered_pair --------------------------------------------------------------

PAIR_W, PAIR_H, PAIR_LAM = 32, 256, 100.0
PAIR_THIN = 40
PAIR_BURN_IN = 200
PAIR_SAMPLES = 35
PAIR_LAGS = list(range(2, 40, 2))


def ordered_pair(rnd: Round, rng: np.random.Generator) -> None:
    """Two ver0-seeded chains at lambda=100, the coupling setup of criterion 11."""
    rec = rnd.rec
    make = rec.wrap("sampler.setup", Chain)
    chains = [
        make(
            ChainParams(
                PAIR_W, PAIR_H, PAIR_LAM, seed=_seed(rng), sweeps=0,
                translation_move_fraction=0.0, initial="ver0",
            )
        )
        for _ in range(2)
    ]
    sweep_a, sweep_b = (rec.wrap("sampler.sweep", c.sweep) for c in chains)
    conf_a, conf_b = (rec.wrap("sampler.configuration", c.configuration) for c in chains)
    density = rec.wrap("observables.parity_density", parity_density)
    classify = rec.wrap("sticks.classify", classify_phase)
    disagree = rec.wrap("coupling.disagreement", disagreement_set)
    clusters = rec.wrap("coupling.clusters", king_clusters)
    curve = rec.wrap("observables.correlation", autocorrelation_curve)
    fit = rec.wrap("observables.correlation", fit_decay_length)
    kept_a, kept_b, phases = [], [], []

    rnd.start()
    rnd.burn_in(sweep_a, PAIR_BURN_IN)
    rnd.burn_in(sweep_b, PAIR_BURN_IN)
    for _ in range(PAIR_SAMPLES):
        t0 = rec.begin_sample()
        sweep_a(PAIR_THIN)
        sweep_b(PAIR_THIN)
        a, b = conf_a(), conf_b()
        density([a])
        pa, pb = classify(a, lam=PAIR_LAM), classify(b, lam=PAIR_LAM)
        rec.count("coupling.pairs")
        if pa == pb != "undetermined":
            delta = disagree(a, b)
            found = clusters(delta, PAIR_W, PAIR_H, True)
            rec.count("coupling.pairs_used")
            rec.count("coupling.disagreement_sites", len(delta))
            rec.count("coupling.clusters", len(found))
        rec.end_sample(t0)
        kept_a.append(a)
        kept_b.append(b)
        phases.append([pa, pb])
    xi, _ = fit(curve(kept_a, "y", PAIR_LAGS), floor=5e-3)
    rnd.stop()

    for name, chain in zip("ab", chains):
        rnd.count_sweeps(chain, PAIR_BURN_IN + PAIR_SAMPLES * PAIR_THIN)
        rnd.digest(name, chain)
    for cfg in kept_a + kept_b:
        try:
            create_configuration(cfg.width, cfg.height, cfg.boundary, cfg.occupied)
            valid = True
        except SquarepackError:
            valid = False
        rnd.check(valid, "measured configuration fails validation")
    rnd.check(
        len(phases) == PAIR_SAMPLES
        and all(p in PHASES or p == "undetermined" for pair in phases for p in pair),
        "classified phase missing for a pair",
    )
    rnd.check(0 < xi < float("inf"), f"y decay length {xi} not finite and positive")
    sites = PAIR_W * PAIR_H
    rnd.series["tile_density"] = [
        [c.tile_count / sites for c in kept_a],
        [c.tile_count / sites for c in kept_b],
    ]
    rnd.extra = {"phases": phases, "xi_y": xi}


# -- sticks --------------------------------------------------------------------

STICK_SIZE = 24
STICK_THIN = 4
STICK_BURN_IN = 200
STICK_SAMPLES = 25
STICK_CHAINS = (
    ("torus_l10", "periodic", 10.0, "empty"),
    ("torus_l130", "periodic", 130.0, "ver0"),
    ("packed_l130", "fully_packed", 130.0, "empty"),
)
STICK_RECTS = ((4, 8), (8, 4), (6, 6), (8, 8))


def _random_rects(rng: np.random.Generator, count: int) -> List[Rect]:
    out = []
    for _ in range(count):
        rw, rh = STICK_RECTS[int(rng.integers(len(STICK_RECTS)))]
        corner = (int(rng.integers(STICK_SIZE - rw)), int(rng.integers(STICK_SIZE - rh)))
        out.append(Rect(corner, rw, rh))
    return out


def _shared_vertices(edges, boundary: str) -> bool:
    wrap = STICK_SIZE if boundary == "periodic" else None
    v_pts, h_pts = set(), set()
    for orient, x, y in edges:
        if orient == "v":
            v_pts.update({(x, y), (x, (y + 1) % wrap if wrap else y + 1)})
        else:
            h_pts.update({(x, y), ((x + 1) % wrap if wrap else x + 1, y)})
    return bool(v_pts & h_pts)


def _king_adjacent(pv, ph) -> bool:
    return any(
        (x + dx, y + dy) in ph for x, y in pv for dx in (-1, 0, 1) for dy in (-1, 0, 1)
    )


def sticks(rnd: Round, rng: np.random.Generator) -> None:
    """Criterion-9 structure analysis on three 24x24 chains."""
    rec = rnd.rec
    make = rec.wrap("sampler.setup", Chain)
    chains = [
        make(
            ChainParams(
                STICK_SIZE, STICK_SIZE, lam, seed=_seed(rng), sweeps=0,
                boundary=boundary, translation_move_fraction=0.1, initial=initial,
            )
        )
        for _, boundary, lam, initial in STICK_CHAINS
    ]
    rects = [_random_rects(rng, 4 * STICK_SAMPLES) for _ in chains]
    sweeps = [rec.wrap("sampler.sweep", c.sweep) for c in chains]
    confs = [rec.wrap("sampler.configuration", c.configuration) for c in chains]
    detect = rec.wrap("sticks.detect", detect_stick_edges)
    extract = rec.wrap("sticks.extract", extract_sticks)
    divided = rec.wrap("sticks.divided", divided_directions)
    psi = rec.wrap("sticks.psi", psi_set)
    records = []

    rnd.start()
    for sweep in sweeps:
        rnd.burn_in(sweep, STICK_BURN_IN)
    # a sample takes one configuration from each chain, so that sample
    # times have one mode rather than one per chain
    for i in range(STICK_SAMPLES):
        t0 = rec.begin_sample()
        for sweep, conf, chain_rects in zip(sweeps, confs, rects):
            sweep(STICK_THIN)
            cfg = conf()
            edges = detect(cfg)
            found = extract(cfg, edges)
            splits = [divided(cfg, r, found) for r in chain_rects[4 * i : 4 * i + 4]]
            pv = psi(cfg, 2, 2, "ver", 4, found)
            ph = psi(cfg, 2, 2, "hor", 4, found)
            rec.count("sticks.psi_points", len(pv) + len(ph))
            records.append((cfg.boundary, edges, splits, pv, ph))
        rec.end_sample(t0)
    rnd.stop()

    for (name, *_), chain in zip(STICK_CHAINS, chains):
        rnd.count_sweeps(chain, STICK_BURN_IN + STICK_SAMPLES * STICK_THIN)
        rnd.digest(name, chain)
    for boundary, edges, splits, pv, ph in records:
        rnd.check(not _shared_vertices(edges, boundary), "vertical and horizontal sticks share a vertex")
        for ver, hor in splits:
            rnd.check(not (ver and hor), "rectangle divided in both directions")
        rnd.check(not _king_adjacent(pv, ph), "Psi_ver and Psi_hor points are king-adjacent")


# -- exact ---------------------------------------------------------------------

EXACT_POLYNOMIALS = (
    ("exact.transfer", 10, 10, "periodic", "transfer"),
    ("exact.transfer", 14, 14, "free", "transfer"),
    ("exact.brute", 6, 6, "periodic", "brute"),
    ("exact.brute", 6, 6, "free", "brute"),
)
SEMINORM_TORI = ((4, 4), (4, 6), (6, 4), (4, 8), (8, 4), (6, 6))
SEMINORM_LAMBDAS = (1.0, 16.0, 256.0)
COMPONENT_WINDOW = (6, 4)


def _sites(w: int, h: int, boundary: str) -> int:
    return w * h if boundary == "periodic" else (w - 1) * (h - 1)


def _clear_package_caches() -> None:
    """Empty every lru cache of squarepack, so that the next call is cold."""
    for name, module in list(sys.modules.items()):
        if name == "squarepack" or name.startswith("squarepack."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def exact(rnd: Round, rng: np.random.Generator) -> None:
    """Cold exact calls: polynomials, the criterion-6 seminorms, components.

    Every call is cold, as each exact2d/chessboard CLI call is: the
    package's lru caches (row states, ensembles, site indices) are emptied
    before each sample, outside its sample window, so no call reuses the
    tables of an earlier one, not even a seminorm at another fugacity on
    the same torus. The seed places the vacant face of each seminorm
    query; the value is translation invariant on a torus, so the seed
    moves no cost and no bound.
    """
    rec = rnd.rec
    poly_calls = [
        (rec.wrap(name, partition_polynomial), (w, h, b), {"method": method})
        for name, w, h, b, method in EXACT_POLYNOMIALS
    ]
    seminorm = rec.wrap("exact.seminorm", chessboard_seminorm)
    queries = []
    for w, h in SEMINORM_TORI:
        face = (int(rng.integers(w)), int(rng.integers(h)))
        corner, k, l, event = face_vacant_event(face)
        queries.append(SeminormQuery(w, h, corner, k, l, event))
    enumerate_ = rec.wrap("graphs.enumerate", enumerate_components)
    bounds = rec.wrap("graphs.bounds", verify_counting_bounds)

    def cold(fn, *args, **kwargs):
        _clear_package_caches()
        t0 = rec.begin_sample()
        out = fn(*args, **kwargs)
        rec.end_sample(t0)
        return out

    rnd.start()
    polys = [cold(fn, *args, **kwargs) for fn, args, kwargs in poly_calls]
    zetas = [(lam, cold(seminorm, query, lam)) for query in queries for lam in SEMINORM_LAMBDAS]
    catalog = cold(enumerate_, *COMPONENT_WINDOW)
    result = cold(bounds, catalog, [1, 2, 3], [100.0, 1e4])
    rnd.stop()

    rec.count("exact.configs", sum(sum(p.coefficients) for p in polys))
    rec.count("graphs.components", result["components"])
    for (_, w, h, b, method), poly in zip(EXACT_POLYNOMIALS, polys):
        rnd.check(
            poly.coefficients[0] == 1 and poly.coefficients[1] == _sites(w, h, b),
            f"{w}x{h} {b}: a_0, a_1 = {poly.coefficients[:2]}",
        )
        if method == "brute":
            reference = partition_polynomial(w, h, b, method="transfer")
            rnd.check(
                reference.coefficients == poly.coefficients,
                f"{w}x{h} {b}: brute force differs from row transfer",
            )
    for lam, zeta in zetas:
        rnd.check(zeta <= lam**-0.25 + 1e-12, f"seminorm {zeta} > lambda^-1/4 at lambda={lam}")
    rnd.check(
        result["violations"] == [] and result["components"] > 0,
        f"counting bounds: {len(result['violations'])} violations",
    )


# -- stationarity --------------------------------------------------------------

STAT_GEOMETRIES = (
    ("torus_4x4", 4, 4, "periodic"),
    ("free_4x6", 4, 6, "free"),
)
# One fugacity of criterion 7's set for every seed, so that the seed moves
# neither the cost of a step nor the power of the TV check. At lambda=8
# the 4x4 torus tunnels slowly between its columnar states and the pooled
# TV over 5 * 10^5 steps reached 0.018 in 25 trials; at lambda=2 it stays
# near 0.008 (torus) and 0.009 (4x6 free), well under the 0.02 limit.
STAT_LAMBDA = 2.0
STAT_FRAC = 0.25
STAT_BURN_IN = 2000
STAT_STEPS = 50_000
# steps per sample: one step takes about 15 us, so its time reads timer
# and interrupt noise; a block of steps reads the engine
STAT_BLOCK = 100


def stationarity(rnd: Round, rng: np.random.Generator) -> None:
    """sweep() + state_key() on the scalar engine; the exact reference."""
    rec = rnd.rec
    lam = STAT_LAMBDA
    enumerate_states = rec.wrap("lattice.enumerate", lambda *a: list(iter_valid_masks(*a)))
    make = rec.wrap("sampler.setup", Chain)
    runs = []
    for name, w, h, boundary in STAT_GEOMETRIES:
        states = enumerate_states(w, h, boundary)
        rec.count("lattice.states", len(states))
        chain = make(
            ChainParams(
                w, h, lam, seed=_seed(rng), sweeps=0, boundary=boundary,
                translation_move_fraction=STAT_FRAC,
            )
        )
        runs.append((name, states, chain))

    rnd.start()
    visited = []
    for name, _, chain in runs:
        sweep = rec.wrap("sampler.sweep", chain.sweep)
        key = rec.wrap("sampler.state_key", chain.state_key)
        rnd.burn_in(sweep, STAT_BURN_IN)
        keys = []
        append = keys.append
        begin, end = rec.begin_sample, rec.end_sample
        for _ in range(STAT_STEPS // STAT_BLOCK):
            t0 = begin()
            for _ in range(STAT_BLOCK):
                sweep()
                append(key())
            end(t0)
        visited.append(keys)
    rnd.stop()

    histograms, references = {}, {}
    for (name, states, chain), keys in zip(runs, visited):
        rnd.count_sweeps(chain, STAT_BURN_IN + STAT_STEPS)
        rnd.digest(name, chain)
        weights = {mask: lam**cnt for mask, cnt in states}
        total = sum(weights.values())
        counts = Counter(keys)
        rnd.check(
            all(k in weights for k in counts),
            f"{name}: a visited state is not a valid configuration",
        )
        histograms[name] = {str(k): c for k, c in counts.items()}
        references[name] = {str(m): w / total for m, w in weights.items()}
        rnd.series[f"tile_count.{name}"] = [[k.bit_count() for k in keys]]
    rnd.pooled = {"histograms": histograms, "references": references}


WORKLOADS = {
    "ordered_pair": ordered_pair,
    "sticks": sticks,
    "exact": exact,
    "stationarity": stationarity,
}
