import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from squarepack import graphs
from squarepack.errors import NonpositiveFugacity, SpecError, TooLarge
from squarepack.graphs import enumerate_components, verify_counting_bounds
from squarepack.lattice import create_configuration

from oracles import (
    canonicalize,
    canonicalize_compressed,
    canonicalize_compressed_all_roots,
    component_graphs_by_faces,
    component_stats,
    compress,
    harvest_mask,
    least_encoding_by_head_strings,
    mask_to_configuration,
    max_stick_run,
    model_sites,
    valid_masks_by_sites,
)
from strategies import random_valid_config, striped_config


def aligned_packing(w, h, boundary="periodic"):
    return create_configuration(
        w, h, boundary, [(x, y) for x in range(1, w, 2) for y in range(1, h, 2)]
    )


def test_aligned_torus_trivial_graph():
    assert component_graphs_by_faces(aligned_packing(8, 8)) == []


def test_single_vacant_block_component():
    occ = [(x, y) for x in range(1, 8, 2) for y in range(1, 8, 2)]
    occ.remove((3, 3))
    comps = component_graphs_by_faces(create_configuration(8, 8, "periodic", occ))
    assert len(comps) == 1
    comp = comps[0]
    v, k_ver, k_hor = component_stats(comp)
    assert v == 4
    assert (k_ver, k_hor) == (1, 1)
    assert len(comp.edges) == 12  # boundary of a 2x2 vacant block
    assert all(kind == "vacancy" for _, _, kind in comp.edges)


def test_flanked_sticks_component():
    # shift one tile: two equal-length vertical sticks bounded by two
    # vacancy pairs; v = 4, one vertical sub-component, two horizontal
    occ = [(x, y) for x in range(1, 8, 2) for y in range(1, 8, 2)]
    occ.remove((3, 3))
    occ.remove((3, 5))
    occ.append((3, 4))
    comps = component_graphs_by_faces(create_configuration(8, 8, "fully_packed", occ))
    assert len(comps) == 1
    comp = comps[0]
    v, k_ver, k_hor = component_stats(comp)
    assert v == 4
    assert k_ver == 1
    assert k_hor == 2
    assert v >= 2 * (k_ver + k_hor - 1)
    stick_edges = [e for e in comp.edges if e[2] == "stick"]
    assert len(stick_edges) == 4  # two sticks of two edges each
    assert max_stick_run(comp) == 2


def test_no_degree_one_vertices():
    occ = [(x, y) for x in range(1, 8, 2) for y in range(1, 8, 2)]
    occ.remove((3, 3))
    occ.remove((3, 5))
    occ.append((3, 4))
    for comp in component_graphs_by_faces(
        create_configuration(8, 8, "fully_packed", occ)
    ):
        degree = {}
        for a, b, _ in comp.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(d != 1 for d in degree.values())


def test_vacancy_edges_same_component():
    occ = [(x, y) for x in range(1, 12, 2) for y in range(1, 8, 2)]
    occ.remove((5, 3))
    occ.remove((5, 5))
    occ.append((5, 4))
    occ.remove((9, 1))
    cfg = create_configuration(12, 8, "fully_packed", occ)
    comps = component_graphs_by_faces(cfg)
    # vacancies split between exactly the components they belong to
    assert sum(c.v_count for c in comps) == 8


def test_compress_trivial_on_stick_free():
    occ = [(x, y) for x in range(1, 8, 2) for y in range(1, 8, 2)]
    occ.remove((3, 3))
    comp = component_graphs_by_faces(create_configuration(8, 8, "periodic", occ))[0]
    assert compress(comp).edges == comp.edges


def test_compress_collapses_runs():
    occ = [(x, y) for x in range(1, 8, 2) for y in range(1, 8, 2)]
    occ.remove((3, 3))
    occ.remove((3, 5))
    occ.append((3, 4))
    comp = component_graphs_by_faces(create_configuration(8, 8, "fully_packed", occ))[0]
    comp_c = compress(comp)
    stick_edges = [e for e in comp_c.edges if e[2] == "stick"]
    assert len(stick_edges) == 2
    assert all(abs(a[1] - b[1]) == 2 for a, b, _ in stick_edges)
    # k invariance under compression
    _, k_ver, k_hor = component_stats(comp)
    _, kc_ver, kc_hor = component_stats(comp_c)
    assert (k_ver, k_hor) == (kc_ver, kc_hor)


def test_canonicalize_translation_invariance():
    def component_at(cx, cy, w=12, h=12):
        occ = [(x, y) for x in range(1, w, 2) for y in range(1, h, 2)]
        occ.remove((cx, cy))
        cfg = create_configuration(w, h, "fully_packed", occ)
        return component_graphs_by_faces(cfg)[0]

    assert canonicalize(component_at(3, 3)) == canonicalize(component_at(7, 5))
    assert canonicalize(component_at(5, 3)) == canonicalize(component_at(9, 9))


def test_canonicalize_distinguishes_rotation():
    # a vertical flanked-stick component and its transpose differ
    occ = [(x, y) for x in range(1, 10, 2) for y in range(1, 10, 2)]
    occ.remove((3, 3))
    occ.remove((3, 5))
    occ.append((3, 4))
    cfg = create_configuration(10, 10, "fully_packed", occ)
    comp = component_graphs_by_faces(cfg)[0]
    comp_t = component_graphs_by_faces(cfg.transpose())[0]
    assert canonicalize(comp) != canonicalize(comp_t)
    assert canonicalize_compressed(compress(comp)) != canonicalize_compressed(
        compress(comp_t)
    )


def test_compressed_key_ignores_stick_length():
    def flanked(shift_len, w=14, h=14):
        occ = [(x, y) for x in range(1, w, 2) for y in range(1, h, 2)]
        col = [y for y in range(1, h, 2)]
        removed = col[2 : 2 + shift_len]
        for y in removed:
            occ.remove((3, y))
        occ.extend((3, y + 1) for y in removed[:-1])
        return component_graphs_by_faces(create_configuration(w, h, "fully_packed", occ))

    # shifting runs of different lengths yields different embedded keys
    # but identical compressed keys
    comp2 = flanked(2)
    comp3 = flanked(3)
    assert len(comp2) == len(comp3) == 1
    assert canonicalize(comp2[0]) != canonicalize(comp3[0])
    key2 = canonicalize_compressed(compress(comp2[0]))
    key3 = canonicalize_compressed(compress(comp3[0]))
    assert key2 == key3


def capped(catalog, m):
    """The records of a catalog whose stick runs are at most m, in order."""
    return [(key, rec) for key, rec in catalog.items() if rec.max_stick_run <= m]


def test_enumerate_components_4x4():
    catalog = enumerate_components(4, 4)
    # the 2x2 vacant block component arises from removing one tile of the
    # fully packed window
    block_keys = [
        rec
        for rec in catalog.values()
        if rec.v_count == 4 and rec.edge_count == 12 and rec.max_stick_run == 0
    ]
    assert block_keys
    assert all(rec.v_count >= 4 for rec in catalog.values())


def test_enumerate_monotone_in_m():
    catalog = enumerate_components(4, 4)
    sizes = [len(capped(catalog, m)) for m in (0, 1, 2, 3)]
    assert sizes == sorted(sizes)
    assert 0 < sizes[0] and sizes[-1] == len(catalog)


def test_enumerate_cap():
    with pytest.raises(TooLarge):
        enumerate_components(10, 10)


def reference_catalog(w, h, max_stick=None, compressed_key=None):
    """The reference harvest over a site-by-site enumeration."""
    catalog = {}
    for mask, _ in valid_masks_by_sites(w, h, "fully_packed"):
        harvest_mask(w, h, mask, max_stick, catalog, compressed_key)
    return catalog


@pytest.mark.parametrize("dims", [(4, 4), (6, 4), (4, 6)])
def test_enumerate_matches_site_dfs_harvest(dims):
    # the reference harvest: site-by-site enumeration, one component graph
    # at a time, all-roots compressed keys
    w, h = dims
    catalog = enumerate_components(w, h)
    reference = reference_catalog(w, h)
    assert list(catalog.items()) == list(reference.items())
    args = ([1, 2, 3], [100.0, 1e4])
    assert verify_counting_bounds(catalog, *args) == verify_counting_bounds(reference, *args)


@pytest.mark.parametrize("max_stick", [0, 1, 2, 3])
@pytest.mark.parametrize("dims", [(4, 4), (6, 4), (4, 6)])
def test_enumerate_matches_reference_under_stick_caps(dims, max_stick):
    # the catalog cut at a stick cap against the reference harvest that
    # skips longer runs: keys, order, every record field and multiplicities
    catalog = enumerate_components(*dims)
    assert capped(catalog, max_stick) == list(reference_catalog(*dims, max_stick).items())


def test_enumerate_matches_reference_6x6():
    # the compressed keys of the reference come from canonicalize_compressed
    # here, which the all-roots tests check on their own; all roots would
    # triple the run
    reference = reference_catalog(6, 6, compressed_key=canonicalize_compressed)
    assert list(enumerate_components(6, 6).items()) == list(reference.items())


@pytest.mark.parametrize("pass_size", [3, 25])
def test_catalog_order_survives_pass_boundaries(monkeypatch, pass_size):
    whole = list(enumerate_components(6, 4).items())
    # the 6x4 blocks hold 13 to 43 configurations: passes of 3 cut every
    # block, passes of 25 cut the largest and join smaller ones
    monkeypatch.setattr(graphs, "_PASS", pass_size)
    assert list(enumerate_components(6, 4).items()) == whole


def _compressed(config):
    return [compress(comp) for comp in component_graphs_by_faces(config)]


@pytest.mark.parametrize("dims", [(6, 4), (4, 6)])
def test_compressed_key_matches_all_roots_on_windows(dims):
    w, h = dims
    for mask, _ in valid_masks_by_sites(w, h, "fully_packed"):
        for comp in _compressed(mask_to_configuration(w, h, "fully_packed", mask)):
            assert canonicalize_compressed(comp) == canonicalize_compressed_all_roots(comp)


@given(random_valid_config())
@settings(max_examples=60, deadline=None)
def test_compressed_key_matches_all_roots(cfg):
    for comp in _compressed(cfg):
        assert canonicalize_compressed(comp) == canonicalize_compressed_all_roots(comp)


@given(striped_config())
@settings(max_examples=60, deadline=None)
def test_compressed_key_matches_all_roots_striped(cfg):
    for comp in _compressed(cfg):
        assert canonicalize_compressed(comp) == canonicalize_compressed_all_roots(comp)


def _check_encodings(monkeypatch) -> list:
    """Make graphs._least_encoding check every slot table it is given
    against the head-string reference; the keys it gives, in order."""
    keys = []
    least = graphs._least_encoding

    def checked(slots):
        key = least(slots)
        assert key == least_encoding_by_head_strings(slots)
        keys.append(key)
        return key

    monkeypatch.setattr(graphs, "_least_encoding", checked)
    return keys


@pytest.mark.parametrize("dims", [(6, 4), (4, 6)])
def test_least_encoding_matches_head_strings_over_a_harvest(monkeypatch, dims):
    keys = _check_encodings(monkeypatch)
    catalog = enumerate_components(*dims)
    assert keys == [rec.compressed_key for rec in catalog.values()]


@given(
    st.one_of(
        random_valid_config(boundaries=("fully_packed",)),
        striped_config(boundaries=("fully_packed",)),
    )
)
@settings(max_examples=60, deadline=None)
def test_least_encoding_matches_head_strings_on_harvested_windows(cfg):
    w, h = cfg.width, cfg.height
    sites = model_sites(w, h, "fully_packed")
    mask = sum(1 << i for i, site in enumerate(sites) if site in cfg.occupied)
    with pytest.MonkeyPatch.context() as monkeypatch:
        keys = _check_encodings(monkeypatch)
        seen = {}
        graphs._harvest_pass(w, h, np.array([mask], dtype=np.uint64), seen)
    assert len(keys) == len(seen)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), st.integers(0, 1)),
        max_size=16,
    )
)
@example(
    [(1, 2, 1, 1), (2, 0, 0, 0), (2, 1, 1, 1), (0, 1, 0, 1), (2, 1, 0, 0)]
    + [(0, 2, 1, 1), (1, 2, 0, 0), (0, 1, 0, 1), (0, 1, 0, 0)]
)
@settings(max_examples=200, deadline=None)
def test_least_encoding_matches_head_strings_with_back_references(edges):
    # abstract vertices, few and densely joined: two slots of a root may
    # reach one neighbour, and the least roots' heads differ there
    slots = graphs._slot_table(edge for edge in edges if edge[0] != edge[1])
    assume(slots)
    assert graphs._least_encoding(slots) == least_encoding_by_head_strings(slots)


def test_verify_counting_bounds_4x4():
    catalog = enumerate_components(4, 4)
    report = verify_counting_bounds(catalog, [1, 2, 3], [100.0, 1e4])
    assert report["violations"] == []
    assert report["components"] == len(catalog)
    for row in report["weight_sums"]:
        assert row["weight_sum"] >= 1.0
    # weight sum tends to 1 as lambda grows
    small = min(r["weight_sum"] for r in report["weight_sums"] if r["lambda"] == 1e4)
    big = max(r["weight_sum"] for r in report["weight_sums"] if r["lambda"] == 100.0)
    assert small < big


@pytest.mark.parametrize("m_values", [[0], [1, -1]])
def test_verify_counting_bounds_rejects_stick_caps_below_one(m_values):
    with pytest.raises(SpecError):
        verify_counting_bounds(enumerate_components(4, 4), m_values, [100.0])


@pytest.mark.parametrize("lam", [0.0, -5.0, math.nan, math.inf])
def test_verify_counting_bounds_rejects_bad_fugacities(lam):
    with pytest.raises(NonpositiveFugacity):
        verify_counting_bounds(enumerate_components(4, 4), [1], [100.0, lam])


def test_verify_counting_bounds_rejects_weight_overflow():
    with pytest.raises(TooLarge):
        verify_counting_bounds(enumerate_components(4, 4), [1], [1e-300])


def test_closed_cycle_balance():
    # embedded sums of signed steps telescope to zero around any cycle of
    # the compressed graph; verify via fundamental cycles of a spanning tree
    occ = [(x, y) for x in range(1, 8, 2) for y in range(1, 8, 2)]
    occ.remove((3, 3))
    occ.remove((3, 5))
    occ.append((3, 4))
    comp = compress(
        component_graphs_by_faces(create_configuration(8, 8, "fully_packed", occ))[0]
    )
    adj = {}
    for a, b, _ in comp.edges:
        adj.setdefault(a, []).append((b, (b[0] - a[0], b[1] - a[1])))
        adj.setdefault(b, []).append((a, (a[0] - b[0], a[1] - b[1])))
    root = next(iter(adj))
    pos = {root: (0, 0)}
    stack = [root]
    while stack:
        u = stack.pop()
        for v, (dx, dy) in adj[u]:
            if v not in pos:
                pos[v] = (pos[u][0] + dx, pos[u][1] + dy)
                stack.append(v)
    # every edge must be consistent with the propagated coordinates
    for a, b, _ in comp.edges:
        assert pos[b][0] - pos[a][0] == b[0] - a[0]
        assert pos[b][1] - pos[a][1] == b[1] - a[1]
