"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the production enumeration and transfer-matrix
code paths: validity is checked pairwise, sums are accumulated by direct
enumeration over raw occupancy masks or sequences.
"""

import json
from collections import defaultdict
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from squarepack import exact, lattice
from squarepack.errors import (
    BoundaryConflict,
    DimensionError,
    GeometryMismatch,
    OverlapError,
    ParameterError,
    TooLarge,
    check_fugacity,
)
from squarepack.graphs import ComponentRecord, _least_encoding, _slot_table
from squarepack.lattice import (
    FACE_MARGIN,
    _check_dims,
    create_configuration,
    iter_mask_blocks,
    iter_valid_masks,
)
from squarepack.sampler import DIRECTIONS
from squarepack.sticks import DEFAULT_N, PHASES, Rect, Stick


@lru_cache(maxsize=32)
def model_sites(width, height, boundary):
    """Candidate centers of the finite-volume model, raster order: all
    residues of a torus, the interior lattice points of a rectangle
    (free and fully-packed boundary conditions admit the same interior
    configurations when the dimensions are even). Bit i of a
    configuration mask is site i."""
    _check_dims(width, height, boundary)
    if boundary == "periodic":
        return tuple((x, y) for y in range(height) for x in range(width))
    return tuple((x, y) for y in range(1, height) for x in range(1, width))


def _exterior_conflict(center, width, height):
    """True if a tile at ``center`` overlaps the fully-packed exterior:
    exterior tiles sit at every (odd, odd) point outside the open
    rectangle, and overlap means ell-infinity distance <= 1."""
    x, y = center
    for ex in (x - 1, x, x + 1):
        if ex % 2 == 0:
            continue
        for ey in (y - 1, y, y + 1):
            if ey % 2 == 0:
                continue
            if not (1 <= ex <= width - 1 and 1 <= ey <= height - 1):
                return True
    return False


def validate_by_tiles(width, height, boundary, occupied):
    """Configuration validity tile by tile, as the constructor checked it
    before it checked on the grid: DimensionError for a rectangle's
    center outside the closed rectangle, then BoundaryConflict for a
    tile against the fully-packed exterior, then OverlapError for two
    tiles within distance 1 of each other. The centers are normalized
    as the constructor normalizes them."""
    _check_dims(width, height, boundary)
    periodic = boundary == "periodic"
    if periodic:
        occ = {(x % width, y % height) for x, y in occupied}
    else:
        occ = {(int(x), int(y)) for x, y in occupied}
        for x, y in occ:
            if not (0 <= x <= width and 0 <= y <= height):
                raise DimensionError(f"center {(x, y)} outside the closed rectangle")
    if boundary == "fully_packed":
        for c in occ:
            if _exterior_conflict(c, width, height):
                raise BoundaryConflict(f"tile at {c} overlaps the fully-packed exterior")
    for x, y in occ:
        for dx, dy in product((-1, 0, 1), repeat=2):
            nb = (x + dx, y + dy)
            if periodic:
                nb = (nb[0] % width, nb[1] % height)
            if (dx, dy) != (0, 0) and nb in occ:
                raise OverlapError(f"tiles at {(x, y)} and {nb} overlap")


def seed_phase_by_points(width, height, phase, offsets=None, boundary="periodic"):
    """``sampler.seed_phase_configuration`` as it was built before it
    filled a grid: the torus seed's centers listed column by column,
    mapped point by point for the hor and the shifted phases, and kept
    on a rectangle's interior."""
    if phase not in PHASES:
        raise ParameterError(f"unknown phase {phase!r}")
    _check_dims(width, height, boundary)
    transpose = phase.startswith("hor")
    w, h = (height, width) if transpose else (width, height)
    if offsets is None:
        offsets = [i % 2 for i in range(w // 2)]
    if len(offsets) != w // 2:
        raise DimensionError(f"need {w // 2} column offsets, got {len(offsets)}")
    occ = []
    for i, x in enumerate(range(1, w, 2)):
        t = offsets[i] % 2
        occ.extend((x, (1 + t + 2 * k) % h) for k in range(h // 2))
    if transpose:
        occ = [(y, x) for x, y in occ]
    dx, dy = {"ver1": (1, 0), "hor1": (0, 1)}.get(phase, (0, 0))
    occ = [((x + dx) % width, (y + dy) % height) for x, y in occ]
    if boundary != "periodic":
        occ = [(x, y) for x, y in occ if 0 < x < width and 0 < y < height]
    return create_configuration(width, height, boundary, occ)


def mask_to_configuration(width, height, boundary, mask):
    """The configuration whose occupied sites are the set bits of
    ``mask``, bit i for model_sites(...)[i]."""
    sites = model_sites(width, height, boundary)
    return create_configuration(
        width, height, boundary, (sites[i] for i in range(len(sites)) if mask >> i & 1)
    )


def to_json(config):
    """The JSON form that ``lattice.from_json`` reads: dimensions,
    boundary and the occupied centers, sorted."""
    payload = {
        "width": config.width,
        "height": config.height,
        "boundary": config.boundary,
        "occupied": sorted(config.occupied),
    }
    return json.dumps(payload)


def linf_torus(u, v, width, height):
    dx = abs(u[0] - v[0]) % width
    dy = abs(u[1] - v[1]) % height
    return max(min(dx, width - dx), min(dy, height - dy))


def pairwise_valid(centers, width=None, height=None, periodic=False):
    """Hard-core validity by checking every pair of centers directly."""
    for u, v in combinations(centers, 2):
        if periodic:
            d = linf_torus(u, v, width, height)
        else:
            d = max(abs(u[0] - v[0]), abs(u[1] - v[1]))
        if d < 2:
            return False
    return True


def torus_partition_counts(width, height):
    """Tile-count histogram over all 2^(W*H) occupancy masks of a torus."""
    sites = [(x, y) for y in range(height) for x in range(width)]
    n = len(sites)
    counts = [0] * (n // 4 + 1)
    for mask in range(1 << n):
        centers = [sites[i] for i in range(n) if mask >> i & 1]
        if pairwise_valid(centers, width, height, periodic=True):
            counts[len(centers)] += 1
    last = max(i for i, c in enumerate(counts) if c)
    return tuple(counts[: last + 1])


def z1d_periodic_enumeration(length, lam):
    """Sum over cyclic binary sequences r_0..r_L with r_0 = r_L and no two
    consecutive ones, weighted by lam^(-1/2 sum (1-r_i)(1-r_{i+1}))."""
    total = 0.0
    # r has length+1 entries; enumerate the first `length` freely, pruned
    def rec(seq):
        nonlocal total
        if len(seq) == length:
            full = seq + (seq[0],)
            if any(full[i] and full[i + 1] for i in range(length)):
                return
            expo = sum((1 - full[i]) * (1 - full[i + 1]) for i in range(length))
            total += lam ** (-0.5 * expo)
            return
        for b in (0, 1):
            if seq and seq[-1] and b:
                continue
            rec(seq + (b,))

    rec(())
    return total


def cyclic_independent_set_counts(length):
    """Number of independent sets of each size on the cycle C_length."""
    counts = [0] * (length // 2 + 1)

    def rec(i, prev, first, size):
        if i == length:
            counts[size] += 1
            return
        rec(i + 1, 0, first if i else 0, size)
        blocked = prev or (i == length - 1 and first)
        if not blocked:
            rec(i + 1, 1, first if i else 1, size + 1)

    rec(0, 0, 0, 0)
    return counts


def transfer_coefficients_by_rows(width, height, boundary):
    """Row-transfer coefficients, one start row at a time, with each state's
    polynomial as a list of tile-count coefficients.

    Rows are occupancy patterns of the row's candidate centers; the torus
    closes the walk back onto its start row, the rectangles sum open
    chains over all start rows.
    """
    periodic = boundary == "periodic"
    positions = width if periodic else width - 1
    nrows = height if periodic else height - 1
    states = [
        s
        for s in range(1 << positions)
        if not s & (s << 1)
        and not (periodic and s & 1 and s >> (positions - 1) & 1)
    ]

    def rows_compatible(s, t):
        spread = t | (t << 1) | (t >> 1)
        if periodic:
            if t & 1:
                spread |= 1 << (positions - 1)
            if t >> (positions - 1) & 1:
                spread |= 1
        return not (s & spread & ((1 << positions) - 1) or s & t)

    compat = {s: [t for t in states if rows_compatible(s, t)] for s in states}
    bits = {s: bin(s).count("1") for s in states}
    n_max = width * height // 4

    def run(vec):
        # distribution over (current state, tiles) after each row step
        for _ in range(nrows - 1):
            new = {}
            for s, poly in vec.items():
                for t in compat[s]:
                    tgt = new.setdefault(t, [0] * (n_max + 1))
                    for n, c in enumerate(poly):
                        if c and n + bits[t] <= n_max:
                            tgt[n + bits[t]] += c
            vec = new
        return vec

    def unit(s):
        poly = [0] * (n_max + 1)
        poly[bits[s]] = 1
        return poly

    coeffs = [0] * (n_max + 1)
    if periodic:
        for start in states:
            for s, poly in run({start: unit(start)}).items():
                # close the cycle: the last row must be compatible with the start row
                if start in compat[s]:
                    coeffs = [a + b for a, b in zip(coeffs, poly)]
    else:
        for poly in run({s: unit(s) for s in states}).values():
            coeffs = [a + b for a, b in zip(coeffs, poly)]
    return coeffs


def row_states_by_strings(positions, cyclic):
    """Row states ascending in the bit-reversed value, sorted by a
    reversed binary string per state."""
    s = np.arange(1 << positions, dtype=np.int64)
    valid = (s & s << 1 | cyclic * (s & s >> (positions - 1) & 1)) == 0
    return tuple(sorted(s[valid].tolist(), key=lambda v: f"{v:0{positions}b}"[::-1]))


def row_neighbours_by_rows(states, positions, cyclic):
    """Neighbour lists of the row states, one flatnonzero per row of
    the compatibility matrix."""
    s = np.array(states, dtype=np.int64)
    spread = s | s << 1 | s >> 1
    if cyclic:
        spread |= s >> (positions - 1) | (s & 1) << (positions - 1)
    step = max(1, (1 << 22) // len(s))
    return [
        np.flatnonzero(row).tolist()
        for lo in range(0, len(s), step)
        for row in (s[None, :] & spread[lo : lo + step, None]) == 0
    ]


def transfer_coefficients_by_orbits(width, height, boundary):
    """Packed-int row transfer with one walk per start orbit on a torus
    and the limb taken from a second, exact count walk."""
    periodic = boundary == "periodic"
    positions = width if periodic else width - 1
    nrows = height if periodic else height - 1
    states = row_states_by_strings(positions, periodic)
    neighbours = row_neighbours_by_rows(states, positions, periodic)

    def walk(vec, shifts):
        for _ in range(nrows - 1):
            vec = [sum(map(vec.__getitem__, nb)) << k for nb, k in zip(neighbours, shifts)]
        return vec

    limb = sum(walk([1] * len(states), [0] * len(states))).bit_length()
    shifts = [bin(s).count("1") * limb for s in states]
    if periodic:
        total = 0
        for start, size in exact._dihedral_orbits(states, positions)[0]:
            vec = [0] * len(states)
            vec[start] = 1 << shifts[start]
            vec = walk(vec, shifts)
            total += size * sum(map(vec.__getitem__, neighbours[start]))
    else:
        total = sum(walk([1 << k for k in shifts], shifts))
    low = (1 << limb) - 1
    return [total >> n * limb & low for n in range(width * height // 4 + 1)]


def split_rows(degree, flat):
    """Lists of degree[i] entries each, cut from flat in order: the
    neighbour lists of flat row tables, one Python list per row."""
    items = flat.tolist()
    ends = np.cumsum(degree).tolist()
    return [items[end - d : end] for end, d in zip(ends, degree.tolist())]


def transfer_coefficients_by_full_walk(width, height, boundary):
    """Packed-int row transfer over all rows: a torus walks its start
    orbits together, each in a field of the full polynomial width, and
    closes the walk onto each start; a rectangle walks one row of each
    mirror pair from the first row to the last."""
    periodic = boundary == "periodic"
    positions = width if periodic else width - 1
    nrows = height if periodic else height - 1
    values, counts, degree, first, flat = lattice._row_tables(positions, periodic)
    neighbours = split_rows(degree, flat)
    limb = exact._limb(degree, first, flat, nrows)
    shifts = [c * limb for c in counts.tolist()]
    n_max = width * height // 4

    def walk(vec, neighbours, shifts):
        for _ in range(nrows - 1):
            vec = [sum(map(vec.__getitem__, nb)) << k for nb, k in zip(neighbours, shifts)]
        return vec

    if periodic:
        orbits = exact._dihedral_orbits(values, positions)[0]
        field = (n_max + 1) * limb
        walks = -(-len(orbits) // max(1, exact.PACK_BITS // field))
        group, low, total = -(-len(orbits) // walks), (1 << field) - 1, 0
        for lo in range(0, len(orbits), group):
            starts = orbits[lo : lo + group]
            vec = [0] * len(values)
            for j, (start, _) in enumerate(starts):
                vec[start] = 1 << shifts[start] + j * field
            vec = walk(vec, neighbours, shifts)
            for j, (start, size) in enumerate(starts):
                total += size * (sum(map(vec.__getitem__, neighbours[start])) >> j * field & low)
    else:
        v = values.astype(np.int64)
        mirror = np.searchsorted(lattice._reversed_bits(v, positions), v)
        keep = mirror >= np.arange(len(v))
        rep = np.cumsum(keep) - 1
        rep = np.minimum(rep, rep[mirror])
        kept = np.flatnonzero(keep).tolist()
        vec = walk(
            [1 << shifts[i] for i in kept],
            split_rows(degree[keep], rep[flat[np.repeat(keep, degree)]]),
            [shifts[i] for i in kept],
        )
        total = sum(vec) + sum(x for x, i in zip(vec, kept) if mirror[i] != i)
    low = (1 << limb) - 1
    return [total >> n * limb & low for n in range(n_max + 1)]


def row_sequence_counts(positions, cyclic, nrows):
    """Number of sequences of 1, 2, ..., nrows row states, each next to
    the one before, by an exact integer walk."""
    states = row_states_by_strings(positions, cyclic)
    neighbours = row_neighbours_by_rows(states, positions, cyclic)
    vec, counts = [1] * len(states), [len(states)]
    for _ in range(nrows - 1):
        vec = [sum(map(vec.__getitem__, nb)) for nb in neighbours]
        counts.append(sum(vec))
    return counts


def valid_masks_by_sites(width, height, boundary):
    """Yield (mask, tiles) for every valid configuration by a site-by-site
    depth-first search that tries the empty branch first.

    Bit i of a mask is model_sites(...)[i]; a tile blocks the eight
    sites around it, on the torus across the seams.
    """
    sites = model_sites(width, height, boundary)
    index = {p: i for i, p in enumerate(sites)}
    periodic = boundary == "periodic"
    nbr = []
    for x, y in sites:
        m = 0
        for dx, dy in product((-1, 0, 1), repeat=2):
            q = (x + dx, y + dy)
            if periodic:
                q = (q[0] % width, q[1] % height)
            if (dx, dy) != (0, 0) and q in index:
                m |= 1 << index[q]
        nbr.append(m)
    n = len(sites)
    # stack entries: (next site, occupied mask, blocked mask, tiles)
    stack = [(0, 0, 0, 0)]
    while stack:
        i, occ, blocked, cnt = stack.pop()
        if i == n:
            yield occ, cnt
            continue
        bit = 1 << i
        if not blocked & bit:
            stack.append((i + 1, occ | bit, blocked | nbr[i], cnt + 1))
        stack.append((i + 1, occ, blocked, cnt))


def canonicalize_compressed_all_roots(graph):
    """Compressed-class key as the least slot-order encoding over every
    root vertex."""
    if graph.trivial:
        return "trivial"
    slots = defaultdict(dict)
    for a, b, kind in graph.edges:
        orient = "v" if a[0] == b[0] else "h"
        slots[a][(orient, "out")] = (b, kind)
        slots[b][(orient, "in")] = (a, kind)
    order = (("v", "out"), ("v", "in"), ("h", "out"), ("h", "in"))

    def encode_from(root):
        ids = {root: 0}
        out = []
        stack = [root]
        while stack:
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

    return min(encode_from(v) for v in sorted(slots))


def _head_by_strings(slots):
    met = []
    out = []
    for entry in slots:
        if entry is None:
            out.append(".")
        elif entry[0] in met:
            out.append(f"{entry[1]}>{met.index(entry[0]) + 1}")
        else:
            met.append(entry[0])
            out.append(entry[1] + "+")
    return "|".join(out)


def least_encoding_by_head_strings(slots):
    """Least slot-order traversal encoding of a graphs._slot_table over
    its roots, encoding in full the roots whose head string, the tokens
    of their four slots, is least."""

    def encode_from(root):
        ids = {root: 0}
        out = []
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

    heads = {v: _head_by_strings(s) for v, s in slots.items()}
    least = min(heads.values())
    return min(encode_from(v) for v, head in heads.items() if head == least)


class ComponentGraph(NamedTuple):
    """One finite connected component of a configuration graph: its
    (start, end, kind) edges and the lower-left corners of the vacant
    faces that belong to it."""

    edges: frozenset
    vacancies: frozenset

    @property
    def vertices(self):
        return frozenset(p for a, b, _ in self.edges for p in (a, b))

    @property
    def v_count(self):
        return len(self.vacancies)

    @property
    def trivial(self):
        return not self.edges


def edge_orientation(edge):
    (x1, _), (x2, _), _ = edge
    return "v" if x1 == x2 else "h"


def _component_roots(edges):
    """Each vertex of the edges mapped to the start of the first edge of
    its component, by a graph search."""
    adjacent = defaultdict(list)
    for a, b, _ in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    root = {}
    for a, _, _ in edges:
        if a in root:
            continue
        root[a] = a
        queue = [a]
        while queue:
            for q in adjacent[queue.pop()]:
                if q not in root:
                    root[q] = a
                    queue.append(q)
    return root


def _subcomponent_count(graph, drop_orientation):
    """Non-trivial components after dropping stick edges of one orientation."""
    kept = [
        e
        for e in graph.edges
        if not (e[2] == "stick" and edge_orientation(e) == drop_orientation)
    ]
    return len(set(_component_roots(kept).values()))


def component_stats(graph):
    """(vacancy count, vertical sub-components, horizontal sub-components)."""
    if graph.trivial:
        return (0, 0, 0)
    return (graph.v_count, _subcomponent_count(graph, "h"), _subcomponent_count(graph, "v"))


def _stick_runs(graph):
    """Maximal stick paths as (lo, hi, fixed, orientation); hi - lo edges."""
    by_line = defaultdict(list)
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


def max_stick_run(graph):
    """Length of the longest maximal stick path in the component."""
    return max((hi - lo for lo, hi, _, _ in _stick_runs(graph)), default=0)


def compress(graph):
    """Replace each maximal stick path by a single stick edge spanning
    from its start to its end; vacancy edges are untouched. Intended for
    planar (window) components; torus seam-crossing runs stay split."""
    new_edges = [e for e in graph.edges if e[2] == "vacancy"]
    for lo, hi, fixed, orient in _stick_runs(graph):
        if orient == "v":
            new_edges.append(((fixed, lo), (fixed, hi), "stick"))
        else:
            new_edges.append(((lo, fixed), (hi, fixed), "stick"))
    return ComponentGraph(frozenset(new_edges), graph.vacancies)


def canonicalize(graph):
    """Translation-invariant key of an embedded component: its edges
    with the least vertex moved to the origin, sorted."""
    if graph.trivial:
        return "trivial"
    ox, oy = min(graph.vertices)
    items = sorted(
        (a[0] - ox, a[1] - oy, b[0] - ox, b[1] - oy, kind)
        for a, b, kind in graph.edges
    )
    return ";".join(f"{x1},{y1},{x2},{y2},{kind[0]}" for x1, y1, x2, y2, kind in items)


def canonicalize_compressed(graph):
    """Compressed-class key by the harvest's least slot-order encoding,
    over the roots of least head rank."""
    if graph.trivial:
        return "trivial"
    edges = ((a, b, int(a[0] != b[0]), int(kind == "vacancy")) for a, b, kind in graph.edges)
    return _least_encoding(_slot_table(edges))


def harvest_mask(width, height, mask, max_stick, catalog, compressed_key=None):
    """Reference harvest of one configuration of the fully-packed window:
    its face-by-face component graphs one at a time, each keyed by
    ``canonicalize`` and added to ``catalog`` (key -> ComponentRecord) or
    counted there.

    Compressed keys come from ``compressed_key``, by default the least
    encoding over every root.
    """
    compressed_key = compressed_key or canonicalize_compressed_all_roots
    config = mask_to_configuration(width, height, "fully_packed", mask)
    for comp in component_graphs_by_faces(config):
        vertices = comp.vertices
        if any(not (0 <= x <= width and 0 <= y <= height) for x, y in vertices):
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
            compressed_key=compressed_key(comp_c),
            k_compressed=kc_ver + kc_hor,
            edge_count=len(comp.edges),
            vertex_count=len(vertices),
        )


def eval_local_by_unique(fn, points, pattern_ids):
    """Local function values per configuration: one call per distinct
    pattern id, in ascending order, found by sorting the ids."""
    uniq, inverse = np.unique(pattern_ids, return_inverse=True)
    values = np.empty(len(uniq), dtype=np.float64)
    for idx, pid in enumerate(uniq):
        pat = {q: int(pid) >> b & 1 for b, q in enumerate(points)}
        values[idx] = float(fn(pat))
    return values[inverse]


@lru_cache(maxsize=16)
def ensemble(width, height, boundary):
    """All valid configurations as (masks uint64, tile counts int16), in
    the order of iter_valid_masks."""
    masks, tiles = zip(*iter_mask_blocks(width, height, boundary))
    return np.concatenate(masks), np.concatenate(tiles)


def event_weight(width, height, boundary, lam, predicate, *, area_cap=36):
    """Total weight sum_{sigma in E} lam^(-vacancies/4) over the region,
    configuration by configuration; ``predicate`` receives each valid
    Configuration and selects the event E."""
    check_fugacity(lam)
    area = width * height
    if area > area_cap:
        raise TooLarge(f"area {area} exceeds enumeration cap {area_cap}")
    total = 0.0
    for mask, cnt in iter_valid_masks(width, height, boundary):
        if predicate(mask_to_configuration(width, height, boundary, mask)):
            total += lam ** (cnt - area / 4.0)
    return total


def pattern_table(width, height, corner, k, l):
    """Site indices of each block point under every reflection (i, j):
    an int array (W/k, H/l, points) of flat torus site indices."""
    points = exact._block_points(corner, k, l)
    nx, ny = width // k, height // l
    table = np.empty((nx, ny, len(points)), dtype=np.int64)
    for i in range(nx):
        for j in range(ny):
            for p, q in enumerate(points):
                rx, ry = exact._reflected_point(q, i, j, corner, k, l)
                table[i, j, p] = (ry % height) * width + (rx % width)
    return table


def patterns_for(masks, site_idx):
    """Pattern ids of every configuration for one reflection."""
    out = np.zeros(len(masks), dtype=np.uint64)
    for bit, s in enumerate(site_idx):
        out |= (masks >> np.uint64(s) & np.uint64(1)) << np.uint64(bit)
    return out.astype(np.int64)


def reflection_pair_patterns(width, height, corner, block_width, block_height):
    """(points, p0, p1, tiles): the block points, the identity and mirror
    pattern ids of every listed torus configuration, and its tile count.
    The torus must be the block doubled along exactly one axis."""
    if width == 2 * block_width and height == block_height:
        refl = (1, 0)
    elif height == 2 * block_height and width == block_width:
        refl = (0, 1)
    else:
        raise GeometryMismatch(
            f"torus {width}x{height} is not the block {block_width}x{block_height} "
            "doubled along one axis"
        )
    masks, tiles = ensemble(width, height, "periodic")
    points = exact._block_points(corner, block_width, block_height)
    table = pattern_table(width, height, corner, block_width, block_height)
    return points, patterns_for(masks, table[0, 0]), patterns_for(masks, table[refl]), tiles


def reflection_positivity_by_configurations(f, points, p0, p1, tiles, lam):
    """(mu^per(f * (f o reflection)), mu^per of its absolute value) from
    the identity and mirror pattern ids, one configuration at a time,
    with f memoized per pattern id."""
    cache = {}

    def fval(pid):
        if pid not in cache:
            cache[pid] = float(f({q: pid >> b & 1 for b, q in enumerate(points)}))
        return cache[pid]

    weights = np.power(float(lam), tiles.astype(np.float64))
    vals = np.array([fval(int(a)) * fval(int(b)) for a, b in zip(p0, p1)])
    z = weights.sum()
    return float((weights * vals).sum() / z), float((weights * np.abs(vals)).sum() / z)


def disseminated_by_configurations(width, height, lam, corner, k, l, events):
    """(mu^per of the product of reflected block functions, mu^per of its
    absolute value) over every listed torus configuration: one bit gather
    and one local function pass per reflection (i, j) in ``events``."""
    masks, tiles = ensemble(width, height, "periodic")
    table = pattern_table(width, height, corner, k, l)
    points = exact._block_points(corner, k, l)
    values = np.ones(len(masks), dtype=np.float64)
    for (i, j), fn in events.items():
        values *= eval_local_by_unique(fn, points, patterns_for(masks, table[i, j]))
    weights = np.power(float(lam), tiles.astype(np.float64))
    z = weights.sum()
    return float((weights * values).sum() / z), float((weights * np.abs(values)).sum() / z)


def king_clusters_bfs(points, width=None, height=None, periodic=False):
    """Connected components under 8-neighbor adjacency, plain BFS."""
    points = set(points)
    seen = set()
    clusters = []
    for start in sorted(points):
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            x, y = queue.pop()
            comp.append((x, y))
            for dx, dy in product((-1, 0, 1), repeat=2):
                if (dx, dy) == (0, 0):
                    continue
                q = (x + dx, y + dy)
                if periodic:
                    q = (q[0] % width, q[1] % height)
                if q in points and q not in seen:
                    seen.add(q)
                    queue.append(q)
        clusters.append(frozenset(comp))
    return clusters


def king_clusters_by_union_find(points, width=None, height=None, periodic=False):
    """Connected components under 8-neighbor adjacency, one union-find
    step per point and king offset; the order follows set hashing."""
    pts = set(points)
    parent = {p: p for p in pts}

    def find(p):
        root = p
        while parent[root] != root:
            root = parent[root]
        while parent[p] != root:
            parent[p], p = root, parent[p]
        return root

    for x, y in pts:
        for dx, dy in product((-1, 0, 1), repeat=2):
            q = (x + dx, y + dy)
            if periodic:
                q = (q[0] % width, q[1] % height)
            if q in pts:
                ra, rb = find((x, y)), find(q)
                if ra != rb:
                    parent[rb] = ra
    groups = defaultdict(set)
    for p in pts:
        groups[find(p)].add(p)
    return [frozenset(g) for g in groups.values()]


def _axis_reach(positions, span, periodic):
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


def _directional_reach(cluster, axis, span, periodic):
    """Per-member reach along one axis through purely axis-aligned targets.

    The horizontal reach of a member u is the largest |x_v - x_u| over
    cluster members v in the same row as u (vertical reach analogously),
    probing the displacement sets with zero transverse offset. Members
    with no axis-aligned partner report 0. One Python walk per line of
    the cluster.
    """
    lines = defaultdict(list)
    other = 1 - axis
    for p in cluster:
        lines[p[other]].append(p[axis])
    out = []
    for positions in lines.values():
        out.extend(_axis_reach(positions, span, periodic).get(c, 0) for c in positions)
    return out

def sticks_by_edges(config, edges):
    """Maximal straight runs of a stick edge set, grouped edge by edge:
    vertical lines then horizontal ones, each by its coordinate and along
    it, a torus run through the seam first on its line."""
    sticks = []
    periodic = config.boundary == "periodic"
    for orientation, key, modulus in (
        ("vertical", "v", config.height),
        ("horizontal", "h", config.width),
    ):
        lines = defaultdict(list)
        for o, x, y in edges:
            if o == key:
                fixed, along = (x, y) if key == "v" else (y, x)
                lines[fixed].append(along)
        for fixed, values in sorted(lines.items()):
            values = sorted(set(values))
            if periodic and len(values) == modulus:
                anchor = (fixed, 0) if key == "v" else (0, fixed)
                sticks.append(Stick(orientation, anchor, modulus, wraps=True))
                continue
            runs = []
            for v in values:
                if runs and v == runs[-1][-1] + 1:
                    runs[-1].append(v)
                else:
                    runs.append([v])
            # on a torus, a run ending at modulus-1 may continue at 0
            if periodic and len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == modulus - 1:
                runs[0] = runs.pop() + [v + modulus for v in runs[0]]
            for run in runs:
                anchor = (fixed, run[0]) if key == "v" else (run[0], fixed)
                sticks.append(Stick(orientation, anchor, len(run)))
    return sticks


def phase_by_sticks(config, sticks, b):
    """Type holding a strict majority of the sticks of length >= b, else
    "undetermined"; in fully_packed mode, of those strictly inside the
    config's box only."""
    counts = {p: 0 for p in PHASES}
    long_sticks = [s for s in sticks if s.length >= b]
    if config.boundary == "fully_packed":
        inside = {"vertical": lambda x, y: 0 < x < config.width,
                  "horizontal": lambda x, y: 0 < y < config.height}
        long_sticks = [s for s in long_sticks if inside[s.orientation](*s.anchor)]
    for s in long_sticks:
        counts[s.type] += 1
    best = max(PHASES, key=counts.get)
    return best if 2 * counts[best] > len(long_sticks) else "undetermined"


def face_cover_center(config, corner):
    """Center of the tile covering the face with lower-left ``corner``,
    None for a vacant face, tried center by center.

    Faces outside the region are resolved too: under fully_packed
    boundary they may be covered by the implicit exterior tiles.
    """
    fx, fy = corner
    w, h = config.width, config.height
    for cx in (fx, fx + 1):
        for cy in (fy, fy + 1):
            if config.boundary == "periodic":
                if (cx % w, cy % h) in config.occupied:
                    return (cx, cy)
            else:
                if (cx, cy) in config.occupied:
                    return (cx, cy)
                if config.boundary == "fully_packed":
                    exterior = not (1 <= cx <= w - 1 and 1 <= cy <= h - 1)
                    if cx % 2 == 1 and cy % 2 == 1 and exterior:
                        return (cx, cy)
    return None


def is_face_vacant(config, corner):
    return face_cover_center(config, corner) is None


def face_corners(config):
    """Lower-left corners of all faces inside the region."""
    for y in range(config.height):
        for x in range(config.width):
            yield (x, y)


def _cover_parity(config, face):
    center = face_cover_center(config, face)
    return None if center is None else ((center[0] - 1) % 2, (center[1] - 1) % 2)


def stick_edges_by_faces(config):
    """Stick edges by a face-by-face scan with ``face_cover_center``.

    Torus edges in the fundamental domain; rectangles scanned with a
    margin of two faces.
    """
    w, h = config.width, config.height
    if config.boundary == "periodic":
        v_range = h_range = (range(w), range(h))
    else:
        v_range = (range(-1, w + 2), range(-2, h + 2))
        h_range = (range(-2, w + 2), range(-1, h + 2))
    edges = set()
    for orient, (xs, ys) in (("v", v_range), ("h", h_range)):
        for x in xs:
            for y in ys:
                before = (x - 1, y) if orient == "v" else (x, y - 1)
                pa = _cover_parity(config, before)
                pb = _cover_parity(config, (x, y))
                if pa is not None and pb is not None and pa != pb:
                    edges.add((orient, x, y))
    return edges


def marked_edges_by_faces(config):
    """Unit stick and vacancy edges plus vacant faces, face by face.

    Reference for the component graphs: a dict of ``face_cover_center``
    results over the region (torus) or the region with a three-face
    margin (rectangles), edges listed by start point, x before y,
    vertical before horizontal. Only uncovered faces inside the region
    are vacant.
    """
    w, h = config.width, config.height
    edges = []
    if config.boundary == "periodic":
        cover = {
            (fx, fy): _cover_parity(config, (fx, fy)) for fx in range(w) for fy in range(h)
        }
        vacant = {f for f, c in cover.items() if c is None}
        for x in range(w):
            for y in range(h):
                for before, end in (
                    (((x - 1) % w, y), (x, (y + 1) % h)),
                    ((x, (y - 1) % h), ((x + 1) % w, y)),
                ):
                    ca, cb = cover[before], cover[(x, y)]
                    if ca is None or cb is None:
                        edges.append(((x, y), end, "vacancy"))
                    elif ca != cb:
                        edges.append(((x, y), end, "stick"))
        return edges, vacant
    cover = {
        (fx, fy): _cover_parity(config, (fx, fy))
        for fx in range(-3, w + 3)
        for fy in range(-3, h + 3)
    }
    vacant = {
        f for f, c in cover.items() if c is None and 0 <= f[0] < w and 0 <= f[1] < h
    }
    for x in range(-2, w + 3):
        for y in range(-2, h + 3):
            for before, end in (((x - 1, y), (x, y + 1)), ((x, y - 1), (x + 1, y))):
                if before not in cover or (x, y) not in cover:
                    continue
                ca, cb = cover[before], cover[(x, y)]
                if ca is None or cb is None:
                    if before in vacant or (x, y) in vacant:
                        edges.append(((x, y), end, "vacancy"))
                elif ca != cb:
                    edges.append(((x, y), end, "stick"))
    return edges, vacant


def component_graphs_by_faces(config):
    """Components of the reference marked edges, by a graph search.

    Returns ComponentGraph (edges, vacancies) pairs of frozensets, ordered
    by the first edge of each component. A vacant face joins a component
    when all of its corners that are graph vertices lie in it.
    """
    w, h = config.width, config.height
    edges, vacant = marked_edges_by_faces(config)
    label = _component_roots(edges)
    components = {}
    for e in edges:
        components.setdefault(label[e[0]], (set(), set()))[0].add(e)
    for fx, fy in vacant:
        corners = [(fx + dx, fy + dy) for dx in (0, 1) for dy in (0, 1)]
        if config.boundary == "periodic":
            corners = [(x % w, y % h) for x, y in corners]
        roots = {label[c] for c in corners if c in label}
        if len(roots) == 1:
            components[roots.pop()][1].add((fx, fy))
    return [ComponentGraph(frozenset(e), frozenset(v)) for e, v in components.values()]


def translation_by_cells(sites, nx, ny, periodic, site, direction):
    """Occupied sites after one translation proposal, cell by cell.

    Sites are flat indices y * nx + x of an nx by ny grid (a torus when
    periodic). The tile at ``site`` moves one step in direction
    ``direction`` (+x, -x, +y, -y) when the target lies on the grid and
    none of the nine cells around the target, other than the source,
    holds a tile; otherwise the sites come back unchanged.
    """
    sites = set(sites)
    if site not in sites:
        return sites
    y, x = divmod(site, nx)
    dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[direction]
    tx, ty = x + dx, y + dy
    if periodic:
        tx, ty = tx % nx, ty % ny
    elif not (0 <= tx < nx and 0 <= ty < ny):
        return sites
    for cx, cy in product((tx - 1, tx, tx + 1), (ty - 1, ty, ty + 1)):
        if periodic:
            cx, cy = cx % nx, cy % ny
        elif not (0 <= cx < nx and 0 <= cy < ny):
            continue
        if cy * nx + cx != site and cy * nx + cx in sites:
            return sites
    return (sites - {site}) | {ty * nx + tx}


def divides(p1, p2, rect):
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


def _stick_segments(stick, config):
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
    return [((p1[0] + dx, p1[1] + dy), (p2[0] + dx, p2[1] + dy)) for dx, dy in shifts]


def stick_divides(stick, rect, config):
    return any(divides(p1, p2, rect) for p1, p2 in _stick_segments(stick, config))


def inner_rect(rect, n=DEFAULT_N):
    """Concentric rectangle with dimensions scaled by (n - 2)/n."""
    if rect.width % n or rect.height % n:
        raise DimensionError(f"rectangle {rect.width}x{rect.height} not divisible by N={n}")
    dx, dy = rect.width // n, rect.height // n
    corner = (rect.corner[0] + dx, rect.corner[1] + dy)
    return Rect(corner, rect.width - 2 * dx, rect.height - 2 * dy)


def properly_divides(stick, rect, config, n=DEFAULT_N):
    """True when the stick divides both the rectangle and its inner copy."""
    inner = inner_rect(rect, n)
    return stick_divides(stick, rect, config) and stick_divides(stick, inner, config)


def psi_set_by_windows(config, k, l, stick_type, n, sticks):
    """Psi set by testing every window against every matching stick with
    ``properly_divides``; windows that do not fit give an empty set."""
    matching = [s for s in sticks if s.type.startswith(stick_type)]
    win_w, win_h = n * k, n * l
    result = set()
    for gx in range((config.width - win_w) // k + 1):
        for gy in range((config.height - win_h) // l + 1):
            rect = Rect((gx * k, gy * l), win_w, win_h)
            if any(properly_divides(s, rect, config, n) for s in matching):
                result.add((gx, gy))
    return result


def divided_directions_by_sticks(config, rect, sticks):
    """(vertically divided, horizontally divided) by ``stick_divides`` on
    every stick of each orientation."""
    return tuple(
        any(s.orientation == o and stick_divides(s, rect, config) for s in sticks)
        for o in ("vertical", "horizontal")
    )


def sweep_by_generator(chain, rng, count=1):
    """Advance a chain by sweeps drawn from a numpy Generator the way the
    sampler drew them before its draws were decoded in blocks:
    ``rng.random(n_sites)`` for the heat bath, then
    ``rng.integers(0, 4 * n_sites, size=n_trans)`` for the translations."""
    n = chain.geom.n_sites
    for _ in range(count):
        accept = rng.random(n) < chain.p_occ
        chain.engine.heat_bath(int.from_bytes(np.packbits(accept, bitorder="little").tobytes(), "little"))
        if chain.n_trans:
            chain.engine.translations(rng.integers(0, 4 * n, size=chain.n_trans).tolist())
        chain.step += 1
    return chain


def parity_density_by_centers(samples):
    """``observables.parity_density`` by one pass over each sample's
    center set, as it was computed before it read occupancy grids."""
    from squarepack.observables import _residue_class_sizes

    totals = {(i, j): 0.0 for i in (0, 1) for j in (0, 1)}
    sizes = {(i, j): 0 for i in (0, 1) for j in (0, 1)}
    for cfg in samples:
        counts = {(i, j): 0 for i in (0, 1) for j in (0, 1)}
        for x, y in cfg.occupied:
            counts[(x % 2, y % 2)] += 1
        for key, size in _residue_class_sizes(cfg.width, cfg.height, cfg.boundary).items():
            sizes[key] += size
        for key, c in counts.items():
            totals[key] += c
    out = {}
    for (i, j), c in totals.items():
        out[f"{i}{j}"] = c / sizes[(i, j)] if sizes[(i, j)] else 0.0
    even_sites = sizes[(0, 0)] + sizes[(0, 1)]
    odd_sites = sizes[(1, 0)] + sizes[(1, 1)]
    out["even_x"] = (totals[(0, 0)] + totals[(0, 1)]) / even_sites if even_sites else 0.0
    out["odd_x"] = (totals[(1, 0)] + totals[(1, 1)]) / odd_sites if odd_sites else 0.0
    return out


def offset_row_vacancy_by_faces(config):
    """``observables.offset_row_vacancy_check`` of a torus configuration
    face by face: for every tile at even x, the nearest even x on either
    side whose vertical edges in both face rows y - 1 and y, across the
    seam when y = 0, are stick edges of ``stick_edges_by_faces``, and the
    vacant faces between the two in those rows."""
    w, h = config.width, config.height
    edges = stick_edges_by_faces(config)
    results = []
    for x, y in sorted(config.occupied):
        if x % 2:
            continue
        rows = ((y - 1) % h, y)
        lines = [a for a in range(0, w, 2) if all(("v", a, r) in edges for r in rows)]
        left = [a for a in lines if (a - x) % w > w // 2]
        right = [a for a in lines if 0 < (a - x) % w <= w // 2]
        if not left or not right:
            results.append({"center": (x, y), "flanked": False, "vacancies": None})
            continue
        lx = max(left, key=lambda a: (a - x) % w)
        rx = min(right, key=lambda a: (a - x) % w)
        faces = [((lx + k) % w, r) for k in range((rx - lx) % w) for r in rows]
        count = sum(is_face_vacant(config, face) for face in faces)
        results.append({"center": (x, y), "flanked": True, "vacancies": count})
    return results


def disagreement_set_by_centers(a, b):
    """``coupling.disagreement_set`` as the symmetric difference of the
    two center sets."""
    return a.occupied ^ b.occupied


def target(geom, i, d):
    """Grid point reached from site i of the sampler's site grid ``geom``
    in direction ``sampler.DIRECTIONS[d]``, or None off the grid."""
    y, x = divmod(i, geom.nx)
    dx, dy = DIRECTIONS[d]
    tx, ty = x + dx, y + dy
    if geom.periodic:
        return tx % geom.nx, ty % geom.ny
    if 0 <= tx < geom.nx and 0 <= ty < geom.ny:
        return tx, ty
    return None


def block_by_cells(geom, x, y):
    """Mask of the 3x3 block around grid point (x, y), cell by cell:
    wrapped round on a torus, clipped to the grid on a rectangle."""
    nx, ny = geom.nx, geom.ny
    mask = 0
    for qx in (x - 1, x, x + 1):
        for qy in (y - 1, y, y + 1):
            if geom.periodic:
                mask |= 1 << ((qy % ny) * nx + qx % nx)
            elif 0 <= qx < nx and 0 <= qy < ny:
                mask |= 1 << (qy * nx + qx)
    return mask


class ScalarEngineBySites:
    """The scalar sweep engine as it was before it walked flat tables:
    per-site king-neighbour masks, per-(site, direction) targets and
    block masks with None off the grid, the heat bath over each
    sublattice's index array and translations by ``divmod``. Holds the
    occupancy mask ``occ`` of the sampler's site grid ``geom``."""

    def __init__(self, geom, occ):
        self.geom = geom
        self.occ = occ
        nx = geom.nx
        self.nbr_masks, self.move_target, self.block_masks = [], [], []
        for i in range(geom.n_sites):
            y, x = divmod(i, nx)
            src = 1 << i
            self.nbr_masks.append(block_by_cells(geom, x, y) & ~src)
            targets = [target(geom, i, d) for d in range(4)]
            self.move_target.append([None if t is None else t[1] * nx + t[0] for t in targets])
            self.block_masks.append(
                [None if t is None else block_by_cells(geom, *t) & ~src for t in targets]
            )

    def heat_bath(self, accept):
        occ = self.occ
        for idx_arr in self.geom.class_indices:
            for i in idx_arr.tolist():
                bit = 1 << i
                if occ & self.nbr_masks[i]:
                    occ &= ~bit
                elif accept & bit:
                    occ |= bit
                else:
                    occ &= ~bit
        self.occ = occ

    def translations(self, proposals):
        occ = self.occ
        for q in proposals:
            i, d = divmod(q, 4)
            bit = 1 << i
            if not occ & bit:
                continue
            t = self.move_target[i][d]
            if t is None:
                continue
            if occ & self.block_masks[i][d]:
                continue
            occ = (occ & ~bit) | (1 << t)
        self.occ = occ


def bitboard_translations_by_stencils(engine, proposals):
    """Occupancy mask after the proposals on a bitboard engine's state,
    each proposal's target by ``divmod`` and ``target`` and the block
    around it built cell by cell; the engine is left unchanged."""
    occ = engine.occ
    geom = engine.geom
    for q in proposals:
        i, d = divmod(q, 4)
        if not occ >> i & 1:
            continue
        t = target(geom, i, d)
        if t is None:
            continue
        bit = 1 << i
        if occ & block_by_cells(geom, *t) != bit:
            continue
        occ ^= bit | 1 << (t[1] * geom.nx + t[0])
    return occ


def grid_face_cover_by_codes(width, height, boundary, grids):
    """``lattice.grid_face_cover`` as it was before it read cached tables:
    the centers gathered or padded, the fully-packed exterior and the
    parity codes computed per call, and the cover as the largest of the
    four codes + 1 around each face, less 1."""
    w, h, m = width, height, FACE_MARGIN
    cx = np.arange(-m, w + m + 1)
    cy = np.arange(-m, h + m + 1)[:, None]
    if boundary == "periodic":
        occupied = grids[..., cy % h, cx % w]
    else:
        occupied = np.zeros(grids.shape[:-2] + (h + 2 * m + 1, w + 2 * m + 1), dtype=bool)
        occupied[..., m:-m, m:-m] = grids
    if boundary == "fully_packed":
        interior = (cx >= 1) & (cx <= w - 1) & (cy >= 1) & (cy <= h - 1)
        occupied |= (cx % 2 == 1) & (cy % 2 == 1) & ~interior
    code = np.where(occupied, 2 * ((cx - 1) % 2) + (cy - 1) % 2 + 1, 0).astype(np.int8)
    cover = np.maximum(
        np.maximum(code[..., :-1, :-1], code[..., :-1, 1:]),
        np.maximum(code[..., 1:, :-1], code[..., 1:, 1:]),
    )
    return cover - 1
