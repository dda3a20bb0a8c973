import pickle
from copy import deepcopy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepack.errors import DimensionError, ParameterError, WrapError
from squarepack.lattice import BOUNDARIES, create_configuration
from squarepack.sampler import PHASE_SEEDS, Chain, ChainParams, seed_phase_configuration
from squarepack.sticks import (
    PHASES,
    Rect,
    _grid_runs,
    _sticks_of,
    classify_phase,
    default_stick_threshold,
    detect_stick_edges,
    divided_directions,
    extract_sticks,
    psi_set,
    stick_census,
)

from oracles import (
    divided_directions_by_sticks,
    divides,
    face_cover_center,
    inner_rect,
    is_face_vacant,
    phase_by_sticks,
    properly_divides,
    psi_set_by_windows,
    sticks_by_edges,
)
from strategies import random_valid_config, striped_config

STICK_TYPES = ("ver", "hor") + PHASES


def aligned_packing(w, h):
    return create_configuration(
        w, h, "periodic", [(x, y) for x in range(1, w, 2) for y in range(1, h, 2)]
    )


def offset_columns(w, h, offsets):
    """Fully packed columns at odd x, column i shifted up by offsets[i]."""
    occ = []
    for i, x in enumerate(range(1, w, 2)):
        t = offsets[i] % 2
        occ.extend((x, (1 + t + 2 * k) % h) for k in range(h // 2))
    return create_configuration(w, h, "periodic", occ)


# -- stick edges -------------------------------------------------------------


def test_empty_config_no_stick_edges():
    assert detect_stick_edges(create_configuration(6, 6, "periodic", [])) == set()


def test_aligned_packing_no_stick_edges():
    assert detect_stick_edges(aligned_packing(8, 8)) == set()


def test_offset_columns_make_vertical_stick():
    # columns at x=1 (offset 0) and x=3 (offset 1) share stick edges on x=2
    cfg = offset_columns(8, 8, [0, 1, 1, 1])
    edges = detect_stick_edges(cfg)
    vertical_at_2 = {e for e in edges if e[0] == "v" and e[1] == 2}
    assert len(vertical_at_2) == 8  # full wrap
    assert all(e[0] == "v" for e in edges)


def test_wrapping_stick_extraction():
    # columns 3, 5, 7 shifted: parity boundaries at x=2 and the seam x=0
    cfg = offset_columns(8, 8, [0, 1, 1, 1])
    sticks = extract_sticks(cfg)
    wrapping = [s for s in sticks if s.wraps]
    assert len(wrapping) == 2
    assert {s.anchor[0] for s in wrapping} == {0, 2}
    for s in wrapping:
        assert s.orientation == "vertical"
        assert s.length == 8
        assert s.type == "ver0"


def test_sticks_end_at_vacancies_in_window():
    # one tile shifted off the aligned packing inside a fully packed
    # window: the offset tile borders both neighbor columns with distinct
    # parity along its own two face rows, and the sticks stop at the
    # vacant faces above and below it
    w = h = 8
    occ = [(x, y) for x in range(1, w, 2) for y in range(1, h, 2)]
    occ.remove((3, 3))
    occ.remove((3, 5))
    occ.append((3, 4))
    cfg = create_configuration(w, h, "fully_packed", occ)
    sticks = extract_sticks(cfg)
    assert {s.anchor[0] for s in sticks} == {2, 4}
    for s in sticks:
        assert s.orientation == "vertical"
        assert not s.wraps
        assert s.anchor[1] == 3
        assert s.length == 2  # the offset tile's own two face rows
    # sticks end at vacant faces: vacancy pairs sit below and above the
    # shifted tile
    assert is_face_vacant(cfg, (2, 2)) and is_face_vacant(cfg, (3, 2))
    assert is_face_vacant(cfg, (2, 5)) and is_face_vacant(cfg, (3, 5))


def test_sticks_never_share_vertices():
    cfg = offset_columns(8, 8, [0, 1, 0, 0])
    sticks = extract_sticks(cfg)
    seen = set()
    for s in sticks:
        x, y = s.anchor
        if s.orientation == "vertical":
            pts = {(x, y + k) for k in range(s.length + 1)}
        else:
            pts = {(x + k, y) for k in range(s.length + 1)}
        assert not (seen & pts)
        seen |= pts


def test_stick_type_parity():
    cfg = offset_columns(8, 8, [0, 1, 1, 1]).translate(1, 0)
    sticks = extract_sticks(cfg)
    assert {s.type for s in sticks} == {"ver1"}


STICK_THRESHOLDS = (1, 2, 3, 4, 6, 8, 16)


def _match_edge_runs(cfg):
    """extract_sticks, list order included, and classify_phase at several
    thresholds against runs grouped edge by edge; returns the sticks."""
    edges = detect_stick_edges(cfg)
    reference = sticks_by_edges(cfg, edges)
    assert extract_sticks(cfg) == reference
    assert extract_sticks(cfg, edges) == reference
    for b in STICK_THRESHOLDS:
        assert classify_phase(cfg, b) == phase_by_sticks(cfg, reference, b), b
    return reference


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("configs", [random_valid_config, striped_config])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sticks_and_phase_match_edge_runs(boundary, configs, data):
    _match_edge_runs(data.draw(configs((boundary,))))


def test_sticks_and_phase_match_edge_runs_on_sampled_chains():
    # the criterion-9 chains on 24x24 and the criterion-11 pair geometry
    wraps = seams = 0
    for w, h, boundary, lam, initial, seed in (
        (24, 24, "periodic", 10.0, "empty", 91),
        (24, 24, "periodic", 130.0, "ver0", 92),
        (24, 24, "fully_packed", 130.0, "empty", 93),
        (32, 256, "periodic", 100.0, "ver0", 94),
    ):
        chain = Chain(
            ChainParams(
                width=w, height=h, lam=lam, seed=seed, sweeps=0, boundary=boundary,
                translation_move_fraction=0.1, initial=initial,
            )
        )
        chain.sweep(200)
        for _ in range(4):
            chain.sweep(10)
            for s in _match_edge_runs(chain.configuration()):
                wraps += s.wraps
                vertical = s.orientation == "vertical"
                along, period = (s.anchor[1], h) if vertical else (s.anchor[0], w)
                seams += not s.wraps and along + s.length > period
    # both torus cases of `_stick_runs` occur: full lines, and runs
    # joined through the seam
    assert wraps > 0 and seams > 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_grid_runs_match_edge_runs_on_any_edge_set(data):
    # arbitrary edge grids give runs that no configuration has, such as
    # gaps of one edge next to the torus seam
    boundary = data.draw(st.sampled_from(BOUNDARIES))
    w, h = data.draw(st.sampled_from([4, 6, 8])), data.draw(st.sampled_from([4, 6, 8]))
    cfg = create_configuration(w, h, boundary, [])
    m = 0 if boundary == "periodic" else 2
    density = data.draw(st.sampled_from([0.3, 0.7, 0.95]))
    size = 2 * (h + 2 * m) * (w + 2 * m)
    keep = data.draw(st.lists(st.floats(0, 1), min_size=size, max_size=size))
    # grids indexed [orientation, y + m, x + m], as detection scans them
    grids = (np.array(keep) < density).reshape(2, h + 2 * m, w + 2 * m)
    o, ys, xs = np.nonzero(grids)
    edges = {("vh"[i], x - m, y - m) for i, x, y in zip(o.tolist(), xs.tolist(), ys.tolist())}
    runs = _grid_runs(boundary == "periodic", grids[0], grids[1], -m, -m)
    assert _sticks_of(runs) == sticks_by_edges(cfg, edges)


@lru_cache(maxsize=1)
def _sampled_configurations():
    """Configurations of the criterion-9 chains on 24x24, a few sweeps
    apart."""
    found = []
    for boundary, lam, initial, seed in (
        ("periodic", 10.0, "empty", 91),
        ("periodic", 130.0, "ver0", 92),
        ("fully_packed", 130.0, "empty", 93),
    ):
        chain = Chain(
            ChainParams(
                width=24, height=24, lam=lam, seed=seed, sweeps=0, boundary=boundary,
                translation_move_fraction=0.1, initial=initial,
            )
        )
        chain.sweep(100)
        found.extend(chain.sweep(4).configuration() for _ in range(3))
    return tuple(found)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extract_sticks_of_an_edited_detected_set(data):
    # the memo that detection leaves describes the set it returned: an
    # edit of that set is refused and leaves the memo as it was
    cfg = data.draw(st.sampled_from(_sampled_configurations()) | random_valid_config())
    edges = detect_stick_edges(cfg)
    full = extract_sticks(cfg, edges)
    m = 0 if cfg.boundary == "periodic" else 2
    w, h = cfg.width, cfg.height
    scan = [(o, x, y) for o in "vh" for x in range(-m, w + m) for y in range(-m, h + m)]
    dropped = data.draw(st.lists(st.sampled_from(sorted(edges)), max_size=5)) if edges else []
    added = data.draw(st.lists(st.sampled_from(scan), max_size=5))
    edited = (edges - set(dropped)) | set(added)
    if edited != edges:
        with pytest.raises(ParameterError):
            extract_sticks(cfg, edited)
    assert extract_sticks(cfg, edges) == extract_sticks(cfg) == full
    assert full == sticks_by_edges(cfg, edges)
    assert classify_phase(cfg, 2) == phase_by_sticks(cfg, full, 2)


def test_extract_sticks_list_is_the_callers_own():
    # an edit of the extracted list leaves the memo as it was; division
    # and Psi tests refuse the edited list, also once the extracted one
    # has left its segments
    rect = Rect((0, 0), 8, 4)
    for cfg in _sampled_configurations():
        sticks = extract_sticks(cfg, detect_stick_edges(cfg))
        full = list(sticks)
        divided = divided_directions(cfg, rect, sticks)
        del sticks[::2]
        assert extract_sticks(cfg) == full
        for subset in (sticks, []):
            if subset == full:
                continue
            with pytest.raises(ParameterError):
                divided_directions(cfg, rect, subset)
            with pytest.raises(ParameterError):
                psi_set(cfg, 2, 2, "ver", 4, subset)
        assert divided_directions(cfg, rect, full) == divided
        assert divided == divided_directions_by_sticks(cfg, rect, full)


def _memo_arrays(memo):
    """Every array the stick memo of a configuration holds."""
    out = []
    for group in (memo.grids, memo._runs, memo._segments):
        for part in group or ():
            out.extend(part if isinstance(part, tuple) else [part])
    return [a for a in out if isinstance(a, np.ndarray)]


def test_stick_memo_read_only_after_pickle_and_deepcopy():
    for cfg in _sampled_configurations():
        edges = detect_stick_edges(cfg)
        sticks = extract_sticks(cfg, edges)
        divided = divided_directions(cfg, Rect((1, 1), 6, 6), sticks)
        psi = psi_set(cfg, 2, 2, "hor", 4, sticks)
        # a configuration with the same tiles and no memo
        fresh = create_configuration(cfg.width, cfg.height, cfg.boundary, cfg.occupied)
        assert "_sticks" in cfg.__dict__ and "_sticks" not in fresh.__dict__
        assert cfg == fresh and hash(cfg) == hash(fresh)
        for copy in (pickle.loads(pickle.dumps(cfg)), deepcopy(cfg)):
            memo = copy.__dict__["_sticks"]
            arrays = _memo_arrays(memo)
            assert arrays and not any(a.flags.writeable for a in arrays)
            assert memo.edges == frozenset(edges)
            assert copy == cfg and hash(copy) == hash(cfg)
            assert extract_sticks(copy, edges) == sticks
            assert divided_directions(copy, Rect((1, 1), 6, 6), sticks) == divided
            assert psi_set(copy, 2, 2, "hor", 4, sticks) == psi
        with pytest.raises(ValueError):
            _memo_arrays(cfg.__dict__["_sticks"])[0][...] = 0
        # a memo that still holds its edge grids
        assert detect_stick_edges(fresh) == edges
        for copy in (pickle.loads(pickle.dumps(fresh)), deepcopy(fresh)):
            memo = copy.__dict__["_sticks"]
            assert memo.grids is not None
            assert not any(a.flags.writeable for a in _memo_arrays(memo))
            assert extract_sticks(copy, edges) == sticks


def test_extract_sticks_rejects_edges_outside_the_scan():
    with pytest.raises(ParameterError):
        extract_sticks(create_configuration(8, 8, "periodic", []), {("v", 8, 0)})
    with pytest.raises(ParameterError):
        extract_sticks(create_configuration(8, 8, "free", []), {("h", -3, 0)})


# -- division predicates -------------------------------------------------------


def test_divides_examples():
    r = Rect((1, 0), 2, 2)
    assert divides((2, 0), (2, 2), r)
    assert not divides((2, 0), (2, 2), Rect((2, 0), 2, 2))  # not strictly interior
    assert not divides((0, 1), (2, 1), r)  # horizontal cannot divide vertically
    assert divides((0, 1), (4, 1), Rect((0, 0), 4, 2))


def test_divides_requires_full_span():
    r = Rect((0, 0), 4, 4)
    assert not divides((2, 1), (2, 3), r)
    assert divides((2, 0), (2, 4), r)
    assert divides((2, -3), (2, 9), r)


def test_properly_divides():
    cfg = offset_columns(16, 16, [0, 1, 0, 1, 0, 1, 0, 1])
    sticks = extract_sticks(cfg)
    rect = Rect((0, 0), 16, 16)
    assert any(properly_divides(s, rect, cfg, 4) for s in sticks)
    with pytest.raises(DimensionError):
        properly_divides(sticks[0], Rect((0, 0), 10, 16), cfg, 4)


def test_figure_style_division_cases():
    # reconstruct the worked 16x16 window cases: a window divided by a
    # vertical stick too close to the edge plus a horizontal stick that
    # only spans the inner rectangle is not properly divided; a window
    # with a long interior (ver,1) stick is.
    rect = Rect((0, 0), 16, 16)
    inner = inner_rect(rect, 4)
    # vertical segment at x=2 spanning the window divides rect only
    assert divides((2, -1), (2, 17), rect) and not divides((2, -1), (2, 17), inner)
    # horizontal segment at y=6 spanning [4, 12] divides inner only
    assert divides((3, 6), (13, 6), inner) and not divides((3, 6), (13, 6), rect)
    # interior vertical line at odd x properly divides
    assert divides((7, -1), (7, 17), rect) and divides((7, -1), (7, 17), inner)


def test_psi_set_ver0_columns():
    cfg = offset_columns(32, 32, [0, 1] * 8)
    psi = psi_set(cfg, 4, 4, "ver0", 4)
    expected = {(x, y) for x in range(5) for y in range(5)}
    assert psi == expected
    assert psi_set(cfg, 4, 4, "hor0", 4) == set()
    assert psi_set(cfg, 4, 4, "ver1", 4) == set()


def test_psi_set_empty_config():
    cfg = create_configuration(16, 16, "periodic", [])
    for t in ("ver0", "ver1", "hor0", "hor1"):
        assert psi_set(cfg, 4, 4, t, 4) == set()


def test_psi_wrap_error():
    cfg = create_configuration(8, 8, "periodic", [])
    with pytest.raises(WrapError):
        psi_set(cfg, 4, 4, "ver0", 4)  # 16x16 window in an 8x8 torus


def test_psi_ver1_from_shifted_columns():
    cfg = offset_columns(32, 32, [0, 1] * 8).translate(1, 0)
    assert psi_set(cfg, 4, 4, "ver1", 4) != set()
    assert psi_set(cfg, 4, 4, "ver0", 4) == set()


def test_no_rect_divided_both_ways():
    cfg = offset_columns(16, 16, [1, 0, 0, 1, 0, 1, 1, 0])
    sticks = extract_sticks(cfg)
    for corner in [(0, 0), (3, 2), (5, 5), (8, 1)]:
        rect = Rect(corner, 6, 6)
        ver, hor = divided_directions(cfg, rect, sticks)
        assert not (ver and hor)
        assert (ver, hor) == divided_directions_by_sticks(cfg, rect, sticks)


def _sublist(data, sticks):
    keep = data.draw(st.lists(st.booleans(), min_size=len(sticks), max_size=len(sticks)))
    return [s for s, k in zip(sticks, keep) if k]


def _refuses_sublist(data, cfg, call):
    """``call(sticks)`` is a ParameterError for a proper sublist of the
    extracted sticks."""
    full = extract_sticks(cfg)
    sub = _sublist(data, full)
    if sub != full:
        with pytest.raises(ParameterError):
            call(sub)


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("configs", [random_valid_config, striped_config])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_psi_set_matches_window_loop(boundary, configs, data):
    cfg = data.draw(configs((boundary,)))
    sticks = extract_sticks(cfg)
    for k, l in ((1, 1), (1, 2), (2, 1)):
        if 4 * k > cfg.width or 4 * l > cfg.height:
            with pytest.raises(WrapError):
                psi_set(cfg, k, l, "ver", 4, sticks)
            continue
        for t in STICK_TYPES:
            assert psi_set(cfg, k, l, t, 4, sticks) == psi_set_by_windows(
                cfg, k, l, t, 4, sticks
            ), (k, l, t)
    _refuses_sublist(data, cfg, lambda sub: psi_set(cfg, 1, 1, "ver", 4, sub))


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("configs", [random_valid_config, striped_config])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_divided_directions_matches_stick_loop(boundary, configs, data):
    cfg = data.draw(configs((boundary,)))
    sticks = extract_sticks(cfg)
    for _ in range(10):
        x, y = data.draw(st.integers(-2, cfg.width)), data.draw(st.integers(-2, cfg.height))
        rect = Rect((x, y), data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6)))
        assert divided_directions(cfg, rect, sticks) == divided_directions_by_sticks(
            cfg, rect, sticks
        )
    _refuses_sublist(data, cfg, lambda sub: divided_directions(cfg, Rect((0, 0), 4, 4), sub))


def test_psi_set_matches_window_loop_on_sampled_chains():
    # the three 24x24 chains of the criterion-9 structure analysis
    found = 0
    for boundary, lam, initial, seed in (
        ("periodic", 10.0, "empty", 91),
        ("periodic", 130.0, "ver0", 92),
        ("fully_packed", 130.0, "empty", 93),
    ):
        chain = Chain(
            ChainParams(
                width=24, height=24, lam=lam, seed=seed, sweeps=0, boundary=boundary,
                translation_move_fraction=0.1, initial=initial,
            )
        )
        chain.sweep(200)
        for _ in range(4):
            chain.sweep(4)
            cfg = chain.configuration()
            sticks = extract_sticks(cfg)
            for t in STICK_TYPES:
                psi = psi_set(cfg, 2, 2, t, 4, sticks)
                assert psi == psi_set_by_windows(cfg, 2, 2, t, 4, sticks), (boundary, lam, t)
                found += len(psi)
            for corner, w, h in (((0, 0), 8, 8), ((5, 11), 4, 8), ((13, 2), 8, 4), ((9, 9), 6, 6)):
                rect = Rect(corner, w, h)
                assert divided_directions(cfg, rect, sticks) == divided_directions_by_sticks(
                    cfg, rect, sticks
                )
    assert found > 0


@pytest.mark.parametrize("k,l,n", [(0, 2, 4), (-1, 2, 4), (2, 0, 4), (2, 2, 2), (2, 2, 0)])
def test_psi_set_rejects_bad_scales(k, l, n):
    cfg = offset_columns(16, 16, [0, 1] * 4)
    with pytest.raises(DimensionError):
        psi_set(cfg, k, l, "ver", n)


@pytest.mark.parametrize("n", [2, 0, -4])
def test_stick_threshold_rejects_bad_n(n):
    with pytest.raises(DimensionError):
        default_stick_threshold(100.0, n)
    with pytest.raises(DimensionError):
        classify_phase(offset_columns(8, 8, [0, 1, 0, 1]), b=2, n=n)


# -- phase classification ------------------------------------------------------


def test_classify_phase_ver0():
    cfg = offset_columns(16, 16, [0, 1, 0, 1, 1, 0, 1, 0])
    assert classify_phase(cfg, b=4) == "ver0"


def test_classify_phase_symmetries():
    cfg = offset_columns(16, 16, [0, 1, 0, 1, 1, 0, 1, 0])
    assert classify_phase(cfg.transpose(), b=4) == "hor0"
    assert classify_phase(cfg.translate(1, 0), b=4) == "ver1"
    assert classify_phase(cfg.transpose().translate(0, 1), b=4) == "hor1"


@pytest.mark.parametrize("lam", [None, 40.0, 130.0])
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("size", [16, 32])
@pytest.mark.parametrize("phase", PHASE_SEEDS)
def test_classify_phase_labels_each_seed_its_own(phase, size, boundary, lam):
    # a fully_packed seed has short sticks of the other orientation on the
    # box's boundary lines, where its columns or rows meet the exterior;
    # the lam-derived threshold of 2 admits them
    cfg = seed_phase_configuration(size, size, phase, boundary=boundary)
    assert classify_phase(cfg, lam=lam) == phase


def test_classify_phase_empty_undetermined():
    assert classify_phase(create_configuration(8, 8, "periodic", []), b=2) == "undetermined"


def test_classify_phase_aligned_undetermined():
    assert classify_phase(aligned_packing(8, 8), b=2) == "undetermined"


def test_stick_side_parities_constant():
    # the tiles bounding a stick keep one parity per side along its run
    from squarepack.lattice import tile_parity_class

    chain = Chain(
        ChainParams(width=16, height=16, lam=50.0, seed=6, sweeps=0, initial="ver0")
    )
    chain.sweep(500)
    for _ in range(20):
        chain.sweep(25)
        cfg = chain.configuration()
        for s in extract_sticks(cfg):
            sides = ([], [])
            for k in range(s.length):
                if s.orientation == "vertical":
                    x, y = s.anchor[0], s.anchor[1] + k
                    faces = ((x - 1, y), (x, y))
                else:
                    x, y = s.anchor[0] + k, s.anchor[1]
                    faces = ((x, y - 1), (x, y))
                for side, face in zip(sides, faces):
                    cover = face_cover_center(cfg, face)
                    assert cover is not None
                    side.append(tile_parity_class(cover).as_tuple())
            for side in sides:
                assert len(set(side)) == 1


def test_stick_census_totals():
    cfg = offset_columns(16, 16, [0, 1, 0, 1, 1, 0, 1, 0])
    census = stick_census(cfg)
    total = sum(c["count"] for c in census.values())
    assert total == len(extract_sticks(cfg))
    assert census["hor0"]["count"] == census["hor1"]["count"] == 0
