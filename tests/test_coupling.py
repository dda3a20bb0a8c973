import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepack.coupling import (
    _king_labels,
    _line_reach,
    disagreement_set,
    king_clusters,
    radius_tail_experiment,
)
from squarepack.errors import ParameterError, RegionOutOfBounds, ShapeMismatch
from squarepack.lattice import BOUNDARIES, create_configuration
from squarepack.sampler import PHASE_SEEDS, ChainParams

from oracles import _directional_reach, king_clusters_bfs, king_clusters_by_union_find


def cfg(occ, w=8, h=8, boundary="periodic"):
    return create_configuration(w, h, boundary, occ)


# -- disagreement sets -----------------------------------------------------------


def test_disagreement_identical_and_symmetry():
    a = cfg([(1, 1), (5, 5)])
    b = cfg([(1, 1), (3, 3)])
    assert disagreement_set(a, a) == frozenset()
    d = disagreement_set(a, b)
    assert d == disagreement_set(b, a)
    assert d == frozenset({(5, 5), (3, 3)})


def test_disagreement_single_site():
    a = cfg([(1, 1)])
    b = cfg([])
    assert disagreement_set(a, b) == frozenset({(1, 1)})


def test_disagreement_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        disagreement_set(cfg([]), cfg([], w=10))
    with pytest.raises(ShapeMismatch):
        disagreement_set(cfg([]), cfg([], boundary="free"))


# -- king clusters ----------------------------------------------------------------


def test_king_clusters_basic():
    assert len(king_clusters({(0, 0), (1, 1)})) == 1
    assert len(king_clusters({(0, 0), (2, 2)})) == 2
    assert king_clusters(set()) == []


def test_king_clusters_periodic_wrap():
    clusters = king_clusters({(0, 0), (7, 7)}, 8, 8, periodic=True)
    assert len(clusters) == 1


@pytest.mark.parametrize("seed", range(10))
def test_king_clusters_match_bfs_oracle(seed):
    rng = random.Random(seed)
    pts = {(rng.randrange(10), rng.randrange(10)) for _ in range(rng.randrange(30))}
    periodic = seed % 2 == 0
    ours = king_clusters(pts, 10, 10, periodic=periodic)
    oracle = king_clusters_bfs(pts, 10, 10, periodic=periodic)
    assert set(ours) == set(oracle)


@st.composite
def king_point_sets(draw):
    """(points, width, height, periodic): points on a torus as narrow as
    1 or 2, where the king offsets -1 and +1 meet, or anywhere in the
    plane, negative coordinates included."""
    periodic = draw(st.booleans())
    if periodic:
        w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        xs, ys = st.integers(0, w - 1), st.integers(0, h - 1)
    else:
        w = h = None
        xs = ys = st.integers(-12, 12)
    points = draw(st.sets(st.tuples(xs, ys), max_size=60))
    return points, w, h, periodic


@settings(max_examples=300, deadline=None)
@given(king_point_sets())
def test_king_clusters_match_oracles_in_order(case):
    points, w, h, periodic = case
    ours = king_clusters(points, w, h, periodic)
    # the BFS starts each cluster at its least member, in sorted order
    assert ours == king_clusters_bfs(points, w, h, periodic)
    assert set(ours) == set(king_clusters_by_union_find(points, w, h, periodic))


def test_king_clusters_narrow_torus_and_empty():
    assert king_clusters(set(), 2, 2, periodic=True) == []
    assert king_clusters([], None, None) == []
    # on a torus of width 2, x - 1 and x + 1 are the same column
    assert king_clusters({(0, 0), (1, 4)}, 2, 5, periodic=True) == [frozenset({(0, 0), (1, 4)})]
    assert king_clusters({(0, 0), (0, 2)}, 2, 5, periodic=True) == [
        frozenset({(0, 0)}),
        frozenset({(0, 2)}),
    ]
    assert king_clusters([(-3, -1), (-2, 0), (5, -7), (-3, -1)]) == [
        frozenset({(-3, -1), (-2, 0)}),
        frozenset({(5, -7)}),
    ]


def test_king_clusters_reject_points_off_the_torus():
    with pytest.raises(RegionOutOfBounds):
        king_clusters({(0, 0), (8, 1)}, 8, 8, periodic=True)
    with pytest.raises(RegionOutOfBounds):
        king_clusters({(0, -1)}, 8, 8, periodic=True)


@pytest.mark.parametrize("points", [set(), {(0, 0)}, {(0, 0), (3, 2)}])
@pytest.mark.parametrize("dims", [(None, None), (8, None), (None, 8)])
def test_king_clusters_on_a_torus_need_its_dimensions(points, dims):
    with pytest.raises(ParameterError, match="width and height"):
        king_clusters(points, *dims, periodic=True)


# -- tail experiment ---------------------------------------------------------------


def test_tail_anisotropy_deep_in_ordered_phase():
    # well above the ordering transition, horizontal bridging through
    # offset tiles is subcritical and the directional decay lengths of
    # cluster reach separate clearly
    template = ChainParams(
        width=32,
        height=256,
        lam=400.0,
        seed=1,
        sweeps=8000,
        burn_in=2000,
        thinning=40,
        translation_move_fraction=0.0,
        initial="ver0",
    )
    report = radius_tail_experiment(template, (5, 6), phase="ver0")
    assert report.pairs_skipped == 0
    xi_x = report.fits["horizontal"]["decay_length"]
    xi_y = report.fits["vertical"]["decay_length"]
    assert xi_y / xi_x > 3


def test_radius_tail_experiment_without_sweeps_measures_the_seeds():
    # fewer sweeps than one block: the pair is measured once, after the
    # asked-for zero sweeps, so two equal seeds give no disagreement
    template = ChainParams(
        width=8, height=8, lam=10.0, seed=0, sweeps=0, thinning=10, initial="ver0"
    )
    report = radius_tail_experiment(template, (1, 2), phase=None)
    assert (report.pairs_used, report.pairs_skipped) == (1, 0)
    assert report.counts == {"horizontal": {}, "vertical": {}}
    assert report.tail_rows() == []


@pytest.mark.parametrize("phase", ["empty", "diagonal", ""])
def test_radius_tail_experiment_refuses_phases_it_cannot_match(phase):
    # the classifier never labels a state "empty", so that filter would
    # skip every pair and measure nothing
    template = ChainParams(width=8, height=8, lam=200.0, seed=0, sweeps=30)
    with pytest.raises(ParameterError, match="phase must be one of"):
        radius_tail_experiment(template, (1, 2), phase=phase)


def test_radius_tail_experiment_smoke():
    template = ChainParams(
        width=16,
        height=16,
        lam=40.0,
        seed=0,
        sweeps=300,
        burn_in=150,
        thinning=10,
        initial="ver0",
    )
    report = radius_tail_experiment(template, (11, 12), phase="ver0")
    assert report.pairs_used + report.pairs_skipped == 30
    assert report.totals == report.pairs_used * 256
    csv = report.to_csv()
    assert csv.startswith("direction,d,count,probability")
    rows = report.tail_rows()
    for direction in ("horizontal", "vertical"):
        probs = [r["probability"] for r in rows if r["direction"] == direction]
        # the d = 0 tail probability is the disagreement density, and
        # tails are nonincreasing in d
        assert all(0 <= p <= 1 for p in probs)
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        # a fit uses only the distances d >= 1 with at least 50 reaches
        fitted = sum(d >= 1 and c >= 50 for d, c in enumerate(report.tail_counts(direction)))
        assert (direction in report.fits) == (fitted >= 2)
        if fitted >= 2:
            assert report.fits[direction]["points"] == fitted


@pytest.mark.parametrize("lam", [40.0, 130.0])
@pytest.mark.parametrize("size", [16, 32])
@pytest.mark.parametrize("phase", PHASE_SEEDS)
def test_phase_matched_tails_keep_the_fully_packed_seed(phase, size, lam):
    # zero sweeps measure the seeds themselves, which sit in their own
    # phase: the sticks on the box's boundary lines must not relabel them
    template = ChainParams(
        width=size, height=size, lam=lam, seed=0, sweeps=0, boundary="fully_packed"
    )
    report = radius_tail_experiment(template, (1, 2), phase=phase)
    assert (report.pairs_used, report.pairs_skipped) == (1, 0)


# -- reach -----------------------------------------------------------------------


def reach_by_arrays(cluster, axis, span, periodic):
    """``_line_reach`` of one cluster's members, in their order."""
    xy = np.array(cluster, dtype=np.int64).reshape(-1, 2)
    label = np.zeros(len(xy), dtype=np.int64)
    return _line_reach(label, xy[:, 1 - axis], xy[:, axis], span, periodic).tolist()


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize(
    "line,span,reach",
    [
        # equal gaps: the torus unwraps after the first, at 3, so 0 sits
        # at 6 of the unwrapped line, beyond the cap of 4
        ([0, 3, 6], 9, [4, 4, 3]),
        # the largest gap, 2 to 7, is cut: the line reads 7, 1, 2 as 0, 2, 3
        ([1, 2, 7], 8, [2, 3, 3]),
        # a full line has no gap: every member reaches half the span
        (list(range(8)), 8, [4] * 8),
        (list(range(7)), 7, [3] * 7),
        # a 2-wide torus: both members are one step apart either way
        ([0, 1], 2, [1, 1]),
        ([1], 2, [0]),
    ],
)
def test_directional_reach_on_a_torus_line(line, span, reach, axis):
    cluster = [(c, 5) if axis == 0 else (5, c) for c in line]
    assert _directional_reach(cluster, axis, span, True) == reach
    assert reach_by_arrays(cluster, axis, span, True) == reach


@settings(max_examples=100, deadline=None)
@given(
    cluster=st.lists(
        st.tuples(st.integers(1, 11), st.integers(1, 7)), min_size=1, max_size=20, unique=True
    ),
    axis=st.sampled_from([0, 1]),
)
def test_directional_reach_on_a_rectangle_is_the_farther_line_end(cluster, axis):
    # no wrap and no cap: max(x - min, max - x) over the member's line
    expected = []
    for p in cluster:
        line = [q[axis] for q in cluster if q[1 - axis] == p[1 - axis]]
        expected.append(max(p[axis] - min(line), max(line) - p[axis]))
    span = 12 if axis == 0 else 8
    assert sorted(_directional_reach(cluster, axis, span, False)) == sorted(expected)
    assert reach_by_arrays(cluster, axis, span, False) == expected


@st.composite
def reach_point_sets(draw):
    """(points, width, height, boundary): sites of a torus, or of the
    (width + 1) x (height + 1) grid that a rectangle mode's occupancy grid
    spans, with odd and 2-wide spans, lone points, and drawn full rows or
    columns."""
    boundary = draw(st.sampled_from(BOUNDARIES))
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    extra = 0 if boundary == "periodic" else 1
    xs, ys = range(w + extra), range(h + extra)
    points = draw(st.sets(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), max_size=80))
    for y in draw(st.sets(st.sampled_from(ys), max_size=2)):
        points |= {(x, y) for x in xs}
    for x in draw(st.sets(st.sampled_from(xs), max_size=2)):
        points |= {(x, y) for y in ys}
    return points, w, h, boundary


@settings(max_examples=400, deadline=None)
@given(reach_point_sets())
def test_reach_histograms_match_the_cluster_by_cluster_oracle(case):
    # radius_tail_experiment's path: one labelling, one reach pass per axis
    points, w, h, boundary = case
    periodic = boundary == "periodic"
    x = np.array([p[0] for p in points], dtype=np.int64)
    y = np.array([p[1] for p in points], dtype=np.int64)
    perm, label = _king_labels(x, y, w, h, periodic)
    x, y = x[perm], y[perm]
    for axis, line, pos, span in ((0, y, x, w), (1, x, y, h)):
        ours = Counter(_line_reach(label, line, pos, span, periodic).tolist())
        expected = Counter()
        for cluster in king_clusters(points, w, h, periodic):
            expected.update(_directional_reach(sorted(cluster), axis, span, periodic))
        assert ours == expected, axis


def test_radius_tail_experiment_free_boundary_smoke():
    template = ChainParams(
        width=16,
        height=16,
        lam=40.0,
        seed=0,
        sweeps=300,
        burn_in=150,
        thinning=10,
        boundary="free",
        initial="ver0",
    )
    report = radius_tail_experiment(template, (11, 12), phase=None)
    # the sampled grid is the 15x15 interior lattice
    assert (report.pairs_used, report.pairs_skipped) == (30, 0)
    assert report.totals == 30 * 15 * 15
    for direction in ("horizontal", "vertical"):
        hist = report.counts[direction]
        # a line of 15 sites: no reach beyond 14, and none wraps
        assert hist and max(hist) <= 14
        tail = report.tail_counts(direction)
        assert tail[0] == sum(hist.values())
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        fitted = sum(d >= 1 and c >= 50 for d, c in enumerate(tail))
        assert (direction in report.fits) == (fitted >= 2)
