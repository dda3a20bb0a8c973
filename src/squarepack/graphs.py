"""Component graphs of configurations: sticks and vacancies together.

Directing every lattice edge up or right and marking it as a stick edge,
a vacancy edge (bounding an uncovered face) or a regular edge, then
deleting the regular edges, yields the configuration graph. Its finite
connected components are rigid: the embedding is determined by the
marked graph up to translation, so a translation-normalized edge list is
a complete canonical key.

Edges are stored as (start, end, kind) with start < end, pointing up or
right; unit steps in a raw component graph, full stick spans after
compression. Exhaustive enumeration harvests every component arising
from any configuration of a bounded window under fully-packed boundary
conditions, which realizes all components fitting inside the window.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import TooLarge
from .lattice import (
    FACE_MARGIN,
    Configuration,
    Point,
    _unchecked,
    edge_sides,
    face_cover,
    iter_mask_blocks,
    map_start_rows,
    model_sites,
)

Edge = Tuple[Point, Point, str]  # (start, end, "stick" | "vacancy")

DEFAULT_WINDOW_CAP = 64  # window area; 8x8 interior


def edge_orientation(edge: Edge) -> str:
    (x1, _), (x2, _), _ = edge
    return "v" if x1 == x2 else "h"


@dataclass(frozen=True)
class ComponentGraph:
    """One finite connected component of a configuration graph."""

    edges: FrozenSet[Edge]
    vacancies: FrozenSet[Point]  # lower-left corners of vacant faces that belong

    @property
    def vertices(self) -> FrozenSet[Point]:
        return frozenset(p for a, b, _ in self.edges for p in (a, b))

    @property
    def v_count(self) -> int:
        return len(self.vacancies)

    @property
    def trivial(self) -> bool:
        return not self.edges


class _UnionFind:
    def __init__(self):
        self.parent: Dict = {}

    def find(self, a):
        parent = self.parent
        root = parent.setdefault(a, a)
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _marked_edges(config: Configuration) -> Tuple[List[Edge], Set[Point]]:
    """Unit stick and vacancy edges, plus vacant face corners.

    Torus coordinates are reduced to canonical residues, so components
    crossing the periodic seam stay connected (their stick runs, however,
    are reported in fundamental-domain pieces). For the rectangle modes
    the scan covers the margin of ``face_cover`` so fully-packed boundary
    structure is included. Only uncovered faces inside the region are
    vacant: under free boundary the margin is outside the model. Edges
    are listed by start point, x before y, vertical before horizontal.
    """
    w, h, m = config.width, config.height, FACE_MARGIN
    periodic = config.boundary == "periodic"
    cover = face_cover(config)
    region_vacant = cover[m : m + h, m : m + w] < 0
    # the torus margin repeats the region's vacancies; outside a
    # rectangle nothing is vacant
    vacant_faces = np.pad(region_vacant, m, mode="wrap" if periodic else "constant")
    left, below, here, x0, y0 = edge_sides(config, cover, -1)
    vac_left, vac_below, vac_here, _, _ = edge_sides(config, vacant_faces, False)

    def marks(before, vacant_before):
        stick = (before >= 0) & (here >= 0) & (before != here)
        return np.where(vacant_before | vac_here, 2, stick)

    # indexed [x, y, orientation] for the edge order: 0 regular, 1 stick,
    # 2 vacancy; orientation 0 is vertical, 1 horizontal
    kinds = np.stack([marks(left, vac_left), marks(below, vac_below)], axis=-1)
    kinds = kinds.transpose(1, 0, 2)
    xs, ys, orients = np.nonzero(kinds)
    found = kinds[xs, ys, orients]
    edges: List[Edge] = []
    for x, y, orient, kind in zip(
        (xs + x0).tolist(), (ys + y0).tolist(), orients.tolist(), found.tolist()
    ):
        end = (x + orient, y + 1 - orient)  # up from a vertical, right from a horizontal
        if periodic:
            end = (end[0] % w, end[1] % h)
        edges.append(((x, y), end, "vacancy" if kind == 2 else "stick"))
    vy, vx = np.nonzero(region_vacant)
    return edges, set(zip(vx.tolist(), vy.tolist()))


def build_component_graph(config: Configuration) -> List[ComponentGraph]:
    """Connected components of the configuration graph, trivial ones omitted."""
    edges, vacant = _marked_edges(config)
    uf = _UnionFind()
    for a, b, _ in edges:
        uf.union(a, b)
    grouped: Dict = defaultdict(list)
    for e in edges:
        grouped[uf.find(e[0])].append(e)
    periodic = config.boundary == "periodic"
    w, h = config.width, config.height
    vac_by_root: Dict = defaultdict(set)
    for fx, fy in vacant:
        corners = [(fx + dx, fy + dy) for dx in (0, 1) for dy in (0, 1)]
        if periodic:
            corners = [(x % w, y % h) for x, y in corners]
        roots = {uf.find(c) for c in corners if c in uf.parent}
        # the four bounding edges of a vacancy lie in one component
        if len(roots) == 1:
            vac_by_root[roots.pop()].add((fx, fy))
    return [
        ComponentGraph(frozenset(comp_edges), frozenset(vac_by_root.get(root, ())))
        for root, comp_edges in grouped.items()
    ]


def _subcomponent_count(graph: ComponentGraph, drop_orientation: str) -> int:
    """Non-trivial components after dropping stick edges of one orientation."""
    kept = [
        e
        for e in graph.edges
        if not (e[2] == "stick" and edge_orientation(e) == drop_orientation)
    ]
    uf = _UnionFind()
    for a, b, _ in kept:
        uf.union(a, b)
    return len({uf.find(e[0]) for e in kept})


def component_stats(graph: ComponentGraph) -> Tuple[int, int, int]:
    """(vacancy count, vertical sub-components, horizontal sub-components)."""
    if graph.trivial:
        return (0, 0, 0)
    return (graph.v_count, _subcomponent_count(graph, "h"), _subcomponent_count(graph, "v"))


def _stick_runs(graph: ComponentGraph):
    """Maximal stick paths as (lo, hi, fixed, orientation); hi - lo edges."""
    by_line: Dict[Tuple[str, int], List[Tuple[int, int]]] = defaultdict(list)
    for a, b, kind in graph.edges:
        if kind != "stick":
            continue
        if a[0] == b[0]:
            by_line[("v", a[0])].append((min(a[1], b[1]), max(a[1], b[1])))
        else:
            by_line[("h", a[1])].append((min(a[0], b[0]), max(a[0], b[0])))
    runs = []
    for (orient, fixed), spans in by_line.items():
        spans.sort()
        lo, hi = spans[0]
        for s_lo, s_hi in spans[1:]:
            if s_lo == hi:
                hi = s_hi
                continue
            runs.append((lo, hi, fixed, orient))
            lo, hi = s_lo, s_hi
        runs.append((lo, hi, fixed, orient))
    return runs


def max_stick_run(graph: ComponentGraph) -> int:
    """Length of the longest maximal stick path in the component."""
    return max((hi - lo for lo, hi, _, _ in _stick_runs(graph)), default=0)


def compress(graph: ComponentGraph) -> ComponentGraph:
    """Replace each maximal stick path by a single stick edge.

    The replacement edge spans from the start of the path to its end;
    internal vertices disappear. Vacancy edges are untouched, so the
    sub-component counts are preserved. Intended for planar (window)
    components; torus seam-crossing runs stay split.
    """
    new_edges: List[Edge] = [e for e in graph.edges if e[2] == "vacancy"]
    for lo, hi, fixed, orient in _stick_runs(graph):
        if orient == "v":
            new_edges.append(((fixed, lo), (fixed, hi), "stick"))
        else:
            new_edges.append(((lo, fixed), (hi, fixed), "stick"))
    return ComponentGraph(frozenset(new_edges), graph.vacancies)


EMPTY_KEY = "trivial"


def canonicalize(graph: ComponentGraph) -> str:
    """Translation-invariant serialization of an embedded component.

    Components are rigid (the marked graph determines the embedding up
    to translation), so translating the minimal vertex to the origin and
    sorting the edge list is a complete invariant.
    """
    if graph.trivial:
        return EMPTY_KEY
    ox, oy = min(graph.vertices)
    items = sorted(
        (a[0] - ox, a[1] - oy, b[0] - ox, b[1] - oy, kind)
        for a, b, kind in graph.edges
    )
    return ";".join(f"{x1},{y1},{x2},{y2},{kind[0]}" for x1, y1, x2, y2, kind in items)


def canonicalize_compressed(graph: ComponentGraph) -> str:
    """Canonical key of a compressed graph up to stick-length changes.

    Stick lengths are free parameters of a compressed class, so the
    embedded key cannot be used. Each vertex has at most one incident
    edge per (orientation, direction) slot, which makes a deterministic
    slot-order traversal a canonical encoding once minimized over roots.

    The first four tokens of an encoding are the root's own slots, and
    none of those is a prefix of another, so only roots with the least
    four tokens can give the least key; only those are encoded in full.
    """
    if graph.trivial:
        return EMPTY_KEY
    slots: Dict[Point, Dict[Tuple[str, str], Tuple[Point, str]]] = defaultdict(dict)
    for a, b, kind in graph.edges:
        orient = "v" if a[0] == b[0] else "h"
        slots[a][(orient, "out")] = (b, kind)
        slots[b][(orient, "in")] = (a, kind)
    order = (("v", "out"), ("v", "in"), ("h", "out"), ("h", "in"))

    def encode_from(root: Point, limit: Optional[int] = None) -> str:
        ids: Dict[Point, int] = {root: 0}
        out: List[str] = []
        stack = [root]
        while stack and (limit is None or len(out) < limit):
            v = stack.pop()
            for slot in order:
                entry = slots[v].get(slot)
                if entry is None:
                    out.append(".")
                    continue
                w, kind = entry
                if w in ids:
                    out.append(f"{slot[0]}{slot[1][0]}{kind[0]}>{ids[w]}")
                else:
                    ids[w] = len(ids)
                    out.append(f"{slot[0]}{slot[1][0]}{kind[0]}+")
                    stack.append(w)
        return "|".join(out)

    heads = {v: encode_from(v, len(order)) for v in slots}
    least = min(heads.values())
    return min(encode_from(v) for v in sorted(slots) if heads[v] == least)


# -- exhaustive enumeration ----------------------------------------------------


@dataclass
class ComponentRecord:
    key: str
    v_count: int
    k_ver: int
    k_hor: int
    max_stick_run: int
    compressed_key: str
    k_compressed: int
    edge_count: int
    vertex_count: int
    multiplicity: int = 1


def _harvest_mask(width: int, height: int, sites, mask: int, max_stick, catalog) -> None:
    occ = frozenset(sites[i] for i in range(len(sites)) if mask >> i & 1)
    config = _unchecked(width, height, "fully_packed", occ)
    for comp in build_component_graph(config):
        if any(
            not (0 <= x <= width and 0 <= y <= height) for x, y in comp.vertices
        ):
            continue
        run = max_stick_run(comp)
        if max_stick is not None and run > max_stick:
            continue
        key = canonicalize(comp)
        rec = catalog.get(key)
        if rec is not None:
            rec.multiplicity += 1
            continue
        v, k_ver, k_hor = component_stats(comp)
        comp_c = compress(comp)
        _, kc_ver, kc_hor = component_stats(comp_c)
        catalog[key] = ComponentRecord(
            key=key,
            v_count=v,
            k_ver=k_ver,
            k_hor=k_hor,
            max_stick_run=run,
            compressed_key=canonicalize_compressed(comp_c),
            k_compressed=kc_ver + kc_hor,
            edge_count=len(comp.edges),
            vertex_count=len(comp.vertices),
        )


def _harvest(width: int, height: int, max_stick, starts=None) -> Dict[str, ComponentRecord]:
    """Catalog of the configurations from the given first-row states (all
    by default), in enumeration order."""
    sites = model_sites(width, height, "fully_packed")
    catalog: Dict[str, ComponentRecord] = {}
    for masks, _ in iter_mask_blocks(width, height, "fully_packed", starts):
        for mask in masks.tolist():
            _harvest_mask(width, height, sites, mask, max_stick, catalog)
    return catalog


def enumerate_components(
    width: int,
    height: int,
    max_stick: Optional[int] = None,
    *,
    window_cap: int = DEFAULT_WINDOW_CAP,
    threads: int = 1,
) -> Dict[str, ComponentRecord]:
    """All distinct components from configurations of a fully-packed window.

    Enumerates every configuration of the width x height window under
    fully-packed boundary conditions, harvests the components of each
    configuration graph and deduplicates them by canonical key. A
    component with a vertex outside the closed window is discarded as
    possibly extending outside (with a fully-packed exterior none
    arise). ``max_stick`` keeps only components whose stick paths have
    length at most that bound. Completeness is relative to the window.

    With ``threads`` > 1 the configurations are partitioned by their
    first row across a process pool and the catalogs merged in that
    order, which gives the serial catalog, order included.
    """
    if width * height > window_cap:
        raise TooLarge(f"window area {width * height} exceeds cap {window_cap}")
    if threads <= 1:
        return _harvest(width, height, max_stick)
    harvest = partial(_harvest, width, height, max_stick)
    catalog: Dict[str, ComponentRecord] = {}
    for part in map_start_rows(harvest, width, height, "fully_packed", threads):
        for key, rec in part.items():
            if key in catalog:
                catalog[key].multiplicity += rec.multiplicity
            else:
                catalog[key] = rec
    return catalog


def verify_counting_bounds(
    catalog: Dict[str, ComponentRecord],
    m_values: Sequence[int],
    lambda_grid: Sequence[float],
) -> dict:
    """Check the vacancy and fiber bounds over an enumerated catalog.

    Per component: v >= 4 and v >= 2(k - 1), with k preserved under
    compression. Per compressed class and stick cap M: the number of
    distinct components with stick runs at most M is at most M^(k-2).
    Reports the weight sums 1 + sum lambda^(-v/4) and the smallest
    constant C with sum - 1 <= C * M / lambda across the grid.
    """
    violations = []
    for rec in catalog.values():
        k = rec.k_ver + rec.k_hor
        if rec.v_count < 4:
            violations.append((rec.key, "v_count < 4"))
        if rec.v_count < 2 * (k - 1):
            violations.append((rec.key, "v_count < 2(k-1)"))
        if rec.k_compressed != k:
            violations.append((rec.key, "k changed under compression"))
    fiber_checks = []
    for m in m_values:
        fibers: Dict[str, List[ComponentRecord]] = defaultdict(list)
        for rec in catalog.values():
            if rec.max_stick_run <= m:
                fibers[rec.compressed_key].append(rec)
        worst = None
        for comp_key, members in fibers.items():
            k = members[0].k_ver + members[0].k_hor
            bound = m ** max(k - 2, 0)
            if len(members) > bound:
                violations.append(
                    (comp_key, f"fiber {len(members)} > M^{k - 2}={bound} at M={m}")
                )
            ratio = len(members) / bound
            if worst is None or ratio > worst["ratio"]:
                worst = {"ratio": ratio, "size": len(members), "bound": bound}
        fiber_checks.append({"M": m, "classes": len(fibers), "tightest": worst})
    weight_rows = []
    fitted_c = 0.0
    for m in m_values:
        for lam in lambda_grid:
            total = 1.0 + sum(
                lam ** (-rec.v_count / 4.0)
                for rec in catalog.values()
                if rec.max_stick_run <= m
            )
            fitted_c = max(fitted_c, (total - 1.0) * lam / m)
            weight_rows.append({"M": m, "lambda": lam, "weight_sum": total})
    return {
        "components": len(catalog),
        "violations": violations,
        "fiber_checks": fiber_checks,
        "weight_sums": weight_rows,
        "fitted_C": fitted_c,
        "note": "fitted_C is empirical for this window; not the paper's constant",
    }
