"""Component graphs of fully-packed windows: sticks and vacancies together.

Directing every lattice edge up or right and marking it as a stick edge,
a vacancy edge (bounding an uncovered face) or a regular edge, then
deleting the regular edges, yields the configuration graph. Its finite
connected components are rigid: the embedding is determined by the
marked graph up to translation, so a translation-normalized edge list is
a complete canonical key. Replacing each maximal stick path by one stick
edge gives the compressed graph, whose key forgets the stick lengths.
Exhaustive enumeration harvests every component arising from any
configuration of a bounded window under fully-packed boundary
conditions, which realizes all components fitting inside the window.

The harvest runs as array passes. The configurations of
``iter_mask_blocks`` are taken up to ``_PASS`` at a time, and one pass
finds the face covers, marks the edges and labels the components of all
of them with ``component_labels``; only a component whose key is new is
turned into strings. The catalog keeps its order: components enter by
configuration, in enumeration order, then by their first edge, with
edges ordered by start point, x before y, vertical before horizontal.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import SpecError, TooLarge, check_fugacity
from .exact import _check_listing
from .lattice import (
    _grid_of_sites,
    _site_layout,
    FACE_MARGIN,
    component_labels,
    edge_sides,
    grid_face_cover,
    iter_mask_blocks,
    stick_edge_grids,
)


def _edge_kinds(width: int, height: int, cover: np.ndarray):
    """Kinds of the unit edges that ``edge_sides`` scans, for a stack of
    fully-packed face covers: 0 regular, 1 stick, 2 vacancy.

    Returns (kinds, region_vacant, x0, y0). ``kinds`` is indexed [..., x,
    y, orientation], orientation 0 vertical and 1 horizontal, for the
    edge that starts at (x0 + x, y0 + y); ``region_vacant`` is indexed
    [..., fy, fx] over the faces of the region. Only uncovered faces
    inside the region are vacant.
    """
    m = FACE_MARGIN
    region_vacant = cover[..., m : m + height, m : m + width] < 0
    # outside the window nothing is vacant
    pad = [(0, 0)] * (cover.ndim - 2) + [(m, m)] * 2
    vacant_faces = np.pad(region_vacant, pad)
    ver, hor, x0, y0 = stick_edge_grids(width, height, "fully_packed", cover)
    vac_left, vac_below, vac_here, _, _ = edge_sides(
        width, height, "fully_packed", vacant_faces, False
    )
    sides = ((vac_left, ver), (vac_below, hor))
    kinds = np.stack([np.where(v | vac_here, np.int8(2), e.view(np.int8)) for v, e in sides], -1)
    return np.swapaxes(kinds, -3, -2), region_vacant, x0, y0


_SLOT_TOKENS = (("vos", "vov"), ("vis", "viv"), ("hos", "hov"), ("his", "hiv"))


def _slot_table(edges: Iterable[Tuple[object, object, int, int]]) -> Dict:
    """Each vertex's four slots -- vertical out, vertical in, horizontal
    out, horizontal in -- as None or (neighbour, token), from edges given
    as (start, end, 1 if horizontal else 0, 1 if vacancy else 0). A token
    names the slot and the kind of its edge."""
    slots: Dict = defaultdict(lambda: [None, None, None, None])
    for a, b, horizontal, vacancy in edges:
        out = 2 * horizontal
        slots[a][out] = (b, _SLOT_TOKENS[out][vacancy])
        slots[b][out + 1] = (a, _SLOT_TOKENS[out + 1][vacancy])
    return slots


# a slot's code in a head rank: 0 empty, then Xs+, Xs>1..3, Xv+, Xv>1..3
_TOKEN_CODE = {token: 1 + 4 * vacancy for pair in _SLOT_TOKENS for vacancy, token in enumerate(pair)}


def _head_rank(slots: list) -> int:
    """The first four tokens of an encoding, those of the root's slots,
    as one base-9 number of slot codes; a back-reference, where two slots
    reach one neighbour, codes as the full traversal would write it."""
    met: list = []
    rank = 0
    for entry in slots:
        rank *= 9
        if entry is None:
            continue
        code = _TOKEN_CODE[entry[1]]
        if entry[0] in met:
            code += 1 + met.index(entry[0])
        else:
            met.append(entry[0])
        rank += code
    return rank


def _least_encoding(slots: Dict) -> str:
    """Least slot-order traversal encoding of a slot table over its roots.

    The first four tokens of an encoding are the root's own slots. Within
    one slot they order as . < Xs+ < Xs>k < Xv+ < Xv>k, and none is a
    prefix of another, so the first slot that differs decides between two
    roots, as their head ranks do. Only roots of the least rank can give
    the least key, and only those are encoded in full.
    """

    def encode_from(root) -> str:
        ids = {root: 0}
        out: List[str] = []
        stack = [root]
        while stack:
            for entry in slots[stack.pop()]:
                if entry is None:
                    out.append(".")
                    continue
                w, token = entry
                seen = ids.get(w)
                if seen is None:
                    ids[w] = len(ids)
                    out.append(token + "+")
                    stack.append(w)
                else:
                    out.append(f"{token}>{seen}")
        return "|".join(out)

    ranks = {v: _head_rank(s) for v, s in slots.items()}
    least = min(ranks.values())
    return min(encode_from(v) for v, rank in ranks.items() if rank == least)


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


_PASS = 1 << 10  # configurations in one harvest pass; bounds its arrays


def _mask_passes(width: int, height: int) -> Iterable[np.ndarray]:
    """The masks of iter_mask_blocks in order, regrouped into arrays of at
    most _PASS configurations."""
    held: List[np.ndarray] = []
    size = 0
    for masks, _ in iter_mask_blocks(width, height, "fully_packed"):
        for lo in range(0, len(masks), _PASS):
            part = masks[lo : lo + _PASS]
            if size + len(part) > _PASS:
                yield np.concatenate(held)
                held, size = [], 0
            held.append(part)
            size += len(part)
    if held:
        yield np.concatenate(held)


def _runs(ids: np.ndarray, step: int) -> Tuple[np.ndarray, np.ndarray]:
    """Maximal runs in ascending ids that go up by ``step``: the first id
    of each and its length."""
    new = np.ones(len(ids), dtype=bool)
    new[1:] = np.diff(ids) != step
    heads = np.flatnonzero(new)
    return ids[heads], np.diff(np.append(heads, len(ids)))


def _harvest_pass(width: int, height: int, masks: np.ndarray, seen: Dict) -> None:
    """Add the components of the configurations in ``masks`` to ``seen``,
    a dict from the bytes of each component's edge rows to its record.

    Vertex b * per + xi * col + yi is the corner (x0 + xi, y0 + yi) of the
    edge scan of configuration b. Edges point up or right, so the least
    vertex of a component, which ``component_labels`` returns, is the
    start of its first edge, and the components sort by (configuration,
    first edge).
    """
    w, h = width, height
    _, sx, sy = _site_layout(w, h, "fully_packed")
    bits = np.unpackbits(
        masks.astype("<u8").view(np.uint8).reshape(-1, 8),
        axis=1,
        count=sx * sy,
        bitorder="little",
    )
    grids = _grid_of_sites(bits.reshape(-1, sy, sx).view(bool), "fully_packed")
    kinds, region_vacant, x0, y0 = _edge_kinds(w, h, grid_face_cover(w, h, "fully_packed", grids))
    nb, nx, ny, _ = kinds.shape
    col = ny + 1
    per = (nx + 1) * col
    n = nb * per
    b, xi, yi, hz = np.nonzero(kinds)  # hz: 1 for a horizontal edge
    kind = kinds[b, xi, yi, hz]
    start = b * per + xi * col + yi
    end = start + np.where(hz == 1, col, 1)
    label = component_labels(n, start, end)
    is_root = np.zeros(n, dtype=bool)
    is_root[label[start]] = True
    comp_at = np.cumsum(is_root) - 1  # component number of each root
    nc = int(comp_at[-1]) + 1
    comp = comp_at[label[start]]

    def per_component(vertices):
        return np.bincount(comp_at[label[vertices]], minlength=nc)

    def parts(u, v):
        """Components of a subgraph within each component."""
        sub = component_labels(n, u, v)
        heads = np.zeros(n, dtype=bool)
        heads[sub[u]] = True
        return per_component(np.flatnonzero(heads))

    x, y = xi + x0, yi + y0
    inside = (x >= 0) & (x + hz <= w) & (y >= 0) & (y + 1 - hz <= h)
    keep = per_component(start[~inside]) == 0
    sticks = kind == 1
    ver, ver_len = _runs(start[sticks & (hz == 0)], 1)
    hor = sticks & (hz == 1)
    # by configuration, then row, then x along the row
    hor, hor_len = _runs(start[hor][np.lexsort((xi[hor], yi[hor], b[hor]))], col)
    longest = np.zeros(nc, dtype=np.int64)
    np.maximum.at(longest, comp_at[label[ver]], ver_len)
    np.maximum.at(longest, comp_at[label[hor]], hor_len)

    fb, fy, fx = np.nonzero(region_vacant)
    # a vacancy's bounding edges join its four corners in one component
    v_count = per_component(fb * per + (fx - x0) * col + (fy - y0))
    used = np.zeros(n, dtype=bool)
    used[start] = used[end] = True
    vertex_count = per_component(np.flatnonzero(used))
    edge_count = np.bincount(comp, minlength=nc)
    k_ver = parts(start[~sticks | (hz == 0)], end[~sticks | (hz == 0)])
    k_hor = parts(start[~sticks | (hz == 1)], end[~sticks | (hz == 1)])
    # the compressed graph: the vacancy edges and one stick edge per run
    vacancy = kind == 2
    vac_start, vac_end = start[vacancy], end[vacancy]
    ver_end, hor_end = ver + ver_len, hor + col * hor_len
    k_compressed = parts(
        np.concatenate([vac_start, ver]), np.concatenate([vac_end, ver_end])
    ) + parts(np.concatenate([vac_start, hor]), np.concatenate([vac_end, hor_end]))
    c_start = np.concatenate([vac_start, ver, hor])
    c_order = np.argsort(comp_at[label[c_start]], kind="stable")
    c_edges = [
        c_start[c_order],
        np.concatenate([vac_end, ver_end, hor_end])[c_order],
        np.concatenate([hz[vacancy], 0 * ver, 0 * hor + 1])[c_order],
        c_order < len(vac_start),
    ]

    # each edge row (dx, dy, hz, vacancy) from the component's least
    # vertex as one code, and the key token of every code
    root = label[start]
    dx, dy = xi - root % per // col, yi - root % col
    code = (((dx * 2 * col + dy + col) * 2 + hz) * 2 + vacancy).astype("<i4")
    code = code[np.argsort(comp, kind="stable")]
    rows = code.tobytes()
    tokens = [
        f"{i},{j},{i + o},{j + 1 - o},{k}"
        for i in range(nx + 1)
        for j in range(-col, col)
        for o in (0, 1)
        for k in "sv"
    ]
    cuts = np.cumsum([0, *edge_count]).tolist()
    c_cuts = np.cumsum([0, *per_component(c_start)]).tolist()
    stats = np.stack([v_count, k_ver, k_hor, longest, k_compressed, edge_count, vertex_count], 1)
    for c in np.flatnonzero(keep).tolist():
        lo, hi = cuts[c], cuts[c + 1]
        key = rows[4 * lo : 4 * hi]
        rec = seen.get(key)
        if rec is not None:
            rec.multiplicity += 1
            continue
        v, kv, kh, run, kc, n_edges, n_vertices = stats[c].tolist()
        compressed = zip(*(a[c_cuts[c] : c_cuts[c + 1]].tolist() for a in c_edges))
        seen[key] = ComponentRecord(
            key=";".join([tokens[t] for t in code[lo:hi].tolist()]),
            v_count=v,
            k_ver=kv,
            k_hor=kh,
            max_stick_run=run,
            compressed_key=_least_encoding(_slot_table(compressed)),
            k_compressed=kc,
            edge_count=n_edges,
            vertex_count=n_vertices,
        )


def enumerate_components(width: int, height: int) -> Dict[str, ComponentRecord]:
    """All distinct components from configurations of a fully-packed window.

    Enumerates every configuration of the width x height window under
    fully-packed boundary conditions, harvests the components of each
    configuration graph and deduplicates them by canonical key. A
    component with a vertex outside the closed window is discarded as
    possibly extending outside (with a fully-packed exterior none
    arise). Completeness is relative to the window. A window of more
    than 64 sites, or of more than ``exact.LISTING_CAP`` configurations,
    is TooLarge.
    """
    _check_listing(width, height, "fully_packed", "the component harvest")
    seen: Dict[bytes, ComponentRecord] = {}
    for masks in _mask_passes(width, height):
        _harvest_pass(width, height, masks, seen)
    return {rec.key: rec for rec in seen.values()}


def check_bound_grid(m_values: Sequence[int], lambda_grid: Sequence[float]) -> None:
    """SpecError for a stick cap M below 1, NonpositiveFugacity for a
    fugacity that is not positive and finite."""
    for m in m_values:
        if m < 1:
            raise SpecError(f"stick cap M must be at least 1, got {m}")
    for lam in lambda_grid:
        check_fugacity(lam)


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
    constant C with sum - 1 <= C * M / lambda across the grid. Raises
    as ``check_bound_grid`` does, and TooLarge for a weight sum beyond
    the float range.
    """
    check_bound_grid(m_values, lambda_grid)
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
            try:
                total = 1.0 + sum(
                    lam ** (-rec.v_count / 4.0)
                    for rec in catalog.values()
                    if rec.max_stick_run <= m
                )
            except OverflowError:
                total = math.inf
            if total == math.inf:
                raise TooLarge(f"weight sum at lambda={lam} exceeds the float range")
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
