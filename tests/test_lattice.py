import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from squarepack import lattice
from squarepack.errors import (
    BoundaryConflict,
    DimensionError,
    OverlapError,
    ParseError,
    TooLarge,
)
from squarepack.lattice import (
    BOUNDARIES,
    FACE_MARGIN,
    component_labels,
    create_configuration,
    decode,
    encode,
    face_cover,
    from_json,
    iter_mask_blocks,
    iter_valid_masks,
    map_start_rows,
    tile_parity_class,
    to_json,
)

from oracles import (
    face_cover_center,
    is_face_vacant,
    model_sites,
    pairwise_valid,
    row_neighbours_by_rows,
    row_states_by_strings,
    valid_masks_by_sites,
    validate_by_tiles,
)
from strategies import random_valid_config


def test_empty_periodic_valid():
    cfg = create_configuration(4, 4, "periodic", [])
    assert cfg.tile_count == 0


def test_overlap_distance_one():
    with pytest.raises(OverlapError):
        create_configuration(8, 8, "periodic", [(0, 0), (1, 1)])


def test_touching_tiles_free_valid():
    cfg = create_configuration(8, 8, "free", [(0, 0), (2, 0)])
    assert cfg.tile_count == 2


def test_periodic_wraparound_overlap():
    # (0, 0) and (3, 0) are at torus distance 1 on a 4-wide torus
    with pytest.raises(OverlapError):
        create_configuration(4, 4, "periodic", [(0, 0), (3, 0)])


def test_dimension_errors():
    with pytest.raises(DimensionError):
        create_configuration(3, 4, "periodic", [])
    with pytest.raises(DimensionError):
        create_configuration(5, 6, "free", [])
    with pytest.raises(DimensionError):
        create_configuration(4, 4, "moebius", [])


def test_fully_packed_boundary_conflict():
    with pytest.raises(BoundaryConflict):
        create_configuration(6, 6, "fully_packed", [(0, 0)])
    with pytest.raises(BoundaryConflict):
        create_configuration(6, 6, "fully_packed", [(1, 0)])
    # interior points are unconstrained by the exterior
    cfg = create_configuration(6, 6, "fully_packed", [(1, 1), (5, 5)])
    assert cfg.tile_count == 2


def test_parity_classes_match_figure_convention():
    assert tile_parity_class((1, 1)).as_tuple() == (0, 0)
    assert tile_parity_class((4, 1)).as_tuple() == (1, 0)
    assert tile_parity_class((1, 4)).as_tuple() == (0, 1)
    assert tile_parity_class((4, 4)).as_tuple() == (1, 1)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_parity_translation_covariance(x, y):
    p = tile_parity_class((x, y))
    assert tile_parity_class((x + 1, y)).hpar == 1 - p.hpar
    assert tile_parity_class((x, y + 1)).vpar == 1 - p.vpar


def region_vacancies(cfg):
    """Vacant faces of the region, read from face_cover."""
    m = FACE_MARGIN
    return int((face_cover(cfg)[m : m + cfg.height, m : m + cfg.width] < 0).sum())


def test_face_cover_vacancies_empty_full_one():
    empty = create_configuration(4, 4, "periodic", [])
    assert region_vacancies(empty) == 16
    packed = create_configuration(
        4, 4, "periodic", [(1, 1), (1, 3), (3, 1), (3, 3)]
    )
    assert region_vacancies(packed) == 0
    one = create_configuration(4, 4, "periodic", [(0, 0)])
    assert region_vacancies(one) == 12


def test_torus_vacancy_identity_random():
    import random

    rng = random.Random(7)
    for _ in range(25):
        w, h = rng.choice([4, 6, 8]), rng.choice([4, 6])
        occ = set()
        for _ in range(rng.randrange(8)):
            c = (rng.randrange(w), rng.randrange(h))
            if pairwise_valid(list(occ | {c}), w, h, periodic=True):
                occ.add(c)
        cfg = create_configuration(w, h, "periodic", occ)
        assert region_vacancies(cfg) == w * h - 4 * cfg.tile_count


@given(random_valid_config())
@settings(max_examples=60, deadline=None)
def test_validity_matches_pairwise_oracle(cfg):
    assert pairwise_valid(
        sorted(cfg.occupied), cfg.width, cfg.height, cfg.boundary == "periodic"
    )


@given(random_valid_config())
@settings(max_examples=60, deadline=None)
def test_codec_round_trip(cfg):
    assert decode(encode(cfg)) == cfg
    assert from_json(to_json(cfg)) == cfg


def test_encode_empty_4x4():
    text = encode(create_configuration(4, 4, "periodic", []))
    lines = text.splitlines()
    assert lines[0] == "4 4 periodic"
    assert lines[1:] == ["....", "....", "....", "...."]


def test_decode_malformed():
    with pytest.raises(ParseError) as err:
        decode("4 4 periodic\n....\n..x.\n....\n....\n")
    assert err.value.line == 3
    assert err.value.column == 3
    with pytest.raises(ParseError):
        decode("4 4\n....\n....\n....\n....\n")
    with pytest.raises(ParseError):
        decode("4 4 periodic\n....\n....\n")


def test_model_sites():
    assert len(model_sites(4, 4, "periodic")) == 16
    assert len(model_sites(4, 4, "free")) == 9
    assert len(model_sites(6, 4, "fully_packed")) == 15


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("width,height", [(4, 4), (6, 4), (4, 8), (10, 6)])
def test_site_layout_places_the_model_sites(width, height, boundary):
    cyclic, nx, ny = lattice._site_layout(width, height, boundary)
    assert cyclic == (boundary == "periodic")
    # site i in raster order is flat index i of the (ny, nx) sites
    sites = np.arange(nx * ny).reshape(ny, nx) + 1
    grid = lattice._grid_of_sites(sites, boundary)
    ys, xs = np.nonzero(grid)
    assert list(zip(xs.tolist(), ys.tolist())) == list(model_sites(width, height, boundary))
    assert grid[ys, xs].tolist() == list(range(1, nx * ny + 1))
    assert np.array_equal(lattice._sites_of(grid, boundary), sites)
    # under leading axes, a stack of grids
    stack = np.stack([sites, -sites, 0 * sites]).reshape(3, 1, ny, nx)
    grids = lattice._grid_of_sites(stack, boundary)
    assert grids.shape[:2] == (3, 1)
    for g, one in zip(grids, stack):
        assert np.array_equal(g[0], lattice._grid_of_sites(one[0], boundary))
    assert np.array_equal(lattice._sites_of(grids, boundary), stack)


@st.composite
def point_sets(draw):
    """Dimensions, a boundary mode and a few centers drawn near each
    other, on and beyond a rectangle's boundary and past a torus's
    seams: valid and invalid sets alike."""
    width = draw(st.sampled_from([4, 6, 8]))
    height = draw(st.sampled_from([4, 6, 8]))
    boundary = draw(st.sampled_from(BOUNDARIES))
    xs = st.integers(-2, width + 2) if boundary != "periodic" else st.integers(-width, 2 * width)
    ys = st.integers(-2, height + 2) if boundary != "periodic" else st.integers(-height, 2 * height)
    points = draw(st.lists(st.tuples(xs, ys), max_size=8))
    return width, height, boundary, points


def _error_class(fn, *args):
    try:
        fn(*args)
    except (DimensionError, BoundaryConflict, OverlapError) as exc:
        return type(exc)
    return None


@settings(max_examples=500, deadline=None)
@given(point_sets())
def test_grid_validation_raises_as_the_tile_by_tile_oracle(case):
    width, height, boundary, points = case
    expected = _error_class(validate_by_tiles, width, height, boundary, points)
    assert _error_class(create_configuration, width, height, boundary, points) is expected
    if expected is None:
        cfg = create_configuration(width, height, boundary, points)
        assert cfg.tile_count == len(cfg.occupied)


def test_grid_validation_on_random_point_sets():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(3000):
        width, height = rng.choice([4, 6, 8], size=2).tolist()
        boundary = BOUNDARIES[rng.integers(3)]
        lo = -width if boundary == "periodic" else -1
        n = int(rng.integers(0, 2 + width * height // 6))
        xs, ys = rng.integers(lo, width + 2, n), rng.integers(lo, height + 2, n)
        points = list(zip(xs.tolist(), ys.tolist()))
        expected = _error_class(validate_by_tiles, width, height, boundary, points)
        assert _error_class(create_configuration, width, height, boundary, points) is expected
        seen.add((boundary, expected))
    # every mode met valid sets and each error it can raise: overlap on a
    # torus, also off the rectangle when free, also the exterior when
    # fully packed
    assert len(seen) == 2 + 3 + 4


def test_overlap_across_the_seam_names_both_tiles():
    with pytest.raises(OverlapError, match=r"\(3, 5\) and \(0, 0\)|\(0, 0\) and \(3, 5\)"):
        create_configuration(4, 6, "periodic", [(0, 0), (3, 5)])
    with pytest.raises(BoundaryConflict, match=r"\(6, 3\)"):
        create_configuration(6, 6, "fully_packed", [(3, 3), (6, 3)])
    with pytest.raises(DimensionError, match=r"\(7, 3\)"):
        create_configuration(6, 6, "free", [(3, 3), (7, 3)])
    with pytest.raises(DimensionError):
        create_configuration(6, 6, "free", [(2**70, 3)])


def test_face_cover_fully_packed_exterior():
    cfg = create_configuration(4, 4, "fully_packed", [])
    # faces inside the region are vacant, faces outside are covered by
    # the implicit exterior packing
    assert is_face_vacant(cfg, (0, 0))
    assert not is_face_vacant(cfg, (-1, 0))
    assert face_cover_center(cfg, (-2, 0)) == (-1, 1)
    # the same on the shipped cover, indexed [fy + m, fx + m]: every
    # region face is vacant, every margin face covered, and the face
    # (-2, 0) carries the parity code 2 * hpar + vpar of the tile (-1, 1)
    m = FACE_MARGIN
    cover = face_cover(cfg)
    region = np.zeros(cover.shape, dtype=bool)
    region[m : m + 4, m : m + 4] = True
    assert (cover[region] == -1).all()
    assert (cover[~region] >= 0).all()
    hpar, vpar = tile_parity_class((-1, 1)).as_tuple()
    assert cover[0 + m, -2 + m] == 2 * hpar + vpar


def test_translate_and_transpose():
    cfg = create_configuration(4, 4, "periodic", [(1, 1), (3, 3)])
    assert cfg.translate(1, 0).occupied == frozenset({(2, 1), (0, 3)})
    assert cfg.transpose().occupied == cfg.occupied  # symmetric set
    asym = create_configuration(6, 4, "periodic", [(1, 2)])
    assert asym.transpose().width == 4
    assert asym.transpose().occupied == frozenset({(2, 1)})


@pytest.mark.parametrize(
    "dims,boundary",
    [
        (dims, boundary)
        for boundary in BOUNDARIES
        for dims in [(4, 4), (4, 6), (6, 4), (6, 6), (4, 8), (8, 4)]
    ]
    + [((8, 6), "fully_packed")],
)
def test_row_expansion_matches_site_dfs_order(dims, boundary):
    expected = list(valid_masks_by_sites(*dims, boundary))
    got = list(iter_valid_masks(*dims, boundary))
    assert got == expected
    assert {type(v) for pair in got for v in pair} == {int}
    masks, tiles = zip(*iter_mask_blocks(*dims, boundary))
    assert {m.dtype for m in masks} == {np.dtype(np.uint64)}
    assert {t.dtype for t in tiles} == {np.dtype(np.int16)}


@pytest.mark.parametrize("dims,boundary", [((6, 6), "periodic"), ((6, 6), "free")])
def test_row_expansion_order_survives_block_splits(dims, boundary, monkeypatch):
    # blocks of 50 partial configurations split nearly every row step
    monkeypatch.setattr(lattice, "_BLOCK", 50)
    assert list(iter_valid_masks(*dims, boundary)) == list(
        valid_masks_by_sites(*dims, boundary)
    )


def test_enumeration_beyond_64_sites_rejected():
    # 72 sites: the masks are 64 bits wide; the pool is not started
    for enumerate_ in (iter_valid_masks, iter_mask_blocks):
        with pytest.raises(TooLarge):
            next(enumerate_(4, 18, "periodic"))
    with pytest.raises(TooLarge):
        next(map_start_rows(len, 4, 18, "periodic", threads=2))
    # the 4x18 rectangle has 51 interior sites
    masks, tiles = next(iter_mask_blocks(4, 18, "free"))
    assert masks[0] == 0 and tiles[0] == 0


def test_start_row_pool_has_at_most_one_worker_per_start_row(monkeypatch):
    # a stand-in pool records its size and runs the tasks in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(lattice, "ProcessPoolExecutor", RecordingPool)
    starts = lattice._row_states(3, False)  # the 4-wide window's first rows
    assert list(map_start_rows(len, 4, 6, "fully_packed", threads=64)) == [1] * len(starts)
    assert list(map_start_rows(len, 4, 6, "fully_packed", threads=2)) == [1] * len(starts)
    assert sizes == [len(starts), 2]


@pytest.mark.parametrize("positions,cyclic", [(16, True), (17, False)])
def test_row_neighbours_on_wide_rows(positions, cyclic):
    # more than 2048 states: the compatibility matrix is built in slices
    states = lattice._row_states(positions, cyclic)
    _, _, degree, first, flat = lattice._row_tables(positions, cyclic)
    assert len(states) > 2048 and len(degree) == len(states)
    for i in range(0, len(states), 97):
        cells = {x for x in range(positions) if states[i] >> x & 1}
        near = {(x + d) % positions if cyclic else x + d for x in cells for d in (-1, 0, 1)}
        blocked = sum(1 << x for x in near if 0 <= x < positions)
        expected = [j for j, t in enumerate(states) if not t & blocked]
        assert flat[first[i] : first[i] + degree[i]].tolist() == expected


@pytest.mark.parametrize("positions", range(1, 18))
@pytest.mark.parametrize("cyclic", [True, False])
def test_row_tables_match_per_row_reference(positions, cyclic):
    states = lattice._row_states(positions, cyclic)
    assert states == row_states_by_strings(positions, cyclic)
    values, counts, degree, first, flat = lattice._row_tables(positions, cyclic)
    neighbours = row_neighbours_by_rows(states, positions, cyclic)
    assert values.tolist() == list(states)
    assert counts.tolist() == [bin(v).count("1") for v in states]
    assert degree.tolist() == [len(nb) for nb in neighbours]
    assert [flat[f : f + d].tolist() for f, d in zip(first, degree)] == neighbours


def test_row_tables_are_read_only():
    # cached: a write would reach every later walk
    tables = lattice._row_tables(6, True)
    assert len(tables) == 5
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        )
    )
)
def test_component_labels_are_least_connected_nodes(graph):
    n, edges = graph
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    adjacent = {i: set() for i in range(n)}
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    expected = [None] * n
    for root in range(n):  # ascending, so each search starts at its least node
        if expected[root] is None:
            expected[root], queue = root, [root]
            while queue:
                for q in adjacent[queue.pop()]:
                    if expected[q] is None:
                        expected[q] = root
                        queue.append(q)
    assert component_labels(n, u, v).tolist() == expected
