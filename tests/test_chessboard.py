import math
import random
import sys
from itertools import product

import pytest

from squarepack import exact, lattice
from squarepack.errors import (
    BlockConditionViolated,
    GeometryMismatch,
    NonpositiveFugacity,
    TooLarge,
)
from squarepack.exact import (
    SeminormQuery,
    chessboard_seminorm,
    disseminated_expectation,
    face_vacant_event,
    partition_polynomial,
    reflection_positivity_value,
)

from oracles import (
    disseminated_by_configurations,
    ensemble,
    eval_local_by_unique,
    reflection_pair_patterns,
    reflection_positivity_by_configurations,
    row_neighbours_by_rows,
)


def block_points(corner, k, l):
    x0, y0 = corner
    return [(x0 + dx, y0 + dy) for dy in range(l + 1) for dx in range(k + 1)]


def random_indicator(points, rng):
    """Random event over block patterns as a salted hash lookup."""
    salt = rng.getrandbits(32)

    def event(pattern):
        pid = sum(pattern[q] << i for i, q in enumerate(points))
        return bool(hash((salt, pid)) & 1)

    return event


# -- seminorm basics -------------------------------------------------------


def test_whole_space_event_norm_one():
    q = SeminormQuery(4, 4, (0, 0), 2, 2, lambda pat: True)
    assert chessboard_seminorm(q, 2.0) == pytest.approx(1.0)


def test_block_condition_enforced():
    with pytest.raises(BlockConditionViolated):
        SeminormQuery(4, 4, (0, 0), 4, 2, lambda pat: True)


@pytest.mark.parametrize("k,l", [(0, 1), (1, 0), (-2, 1), (2, -2), (-4, -4)])
def test_block_sizes_below_one_rejected(k, l):
    with pytest.raises(BlockConditionViolated, match="positive"):
        SeminormQuery(4, 4, (0, 0), k, l, lambda pat: True)
    with pytest.raises(BlockConditionViolated, match="positive"):
        disseminated_expectation(4, 4, 1.0, (0, 0), k, l, {})


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
def test_fugacity_not_positive_and_finite_rejected(lam):
    corner, k, l, event = face_vacant_event((0, 0))
    with pytest.raises(NonpositiveFugacity):
        chessboard_seminorm(SeminormQuery(4, 4, corner, k, l, event), lam)
    with pytest.raises(NonpositiveFugacity):
        disseminated_expectation(4, 4, lam, corner, k, l, {})
    with pytest.raises(NonpositiveFugacity):
        reflection_positivity_value(4, 4, lam, (0, 0), 2, 4, lambda p: 1.0)


def test_face_vacant_norm_4x4_lambda1():
    corner, k, l, event = face_vacant_event((0, 0))
    q = SeminormQuery(4, 4, corner, k, l, event)
    zeta = chessboard_seminorm(q, 1.0)
    # only the empty configuration leaves every face vacant, and at
    # lambda = 1 all 133 configurations have equal weight
    z1 = sum(partition_polynomial(4, 4, "periodic").coefficients)
    assert zeta == pytest.approx((1.0 / z1) ** (1.0 / 16.0), rel=1e-12)


@pytest.mark.parametrize("lam", [1.0, 16.0, 256.0])
@pytest.mark.parametrize("dims", [(4, 4), (6, 4), (4, 6)])
def test_face_vacant_bound(dims, lam):
    w, h = dims
    corner, k, l, event = face_vacant_event((1, 1))
    zeta = chessboard_seminorm(SeminormQuery(w, h, corner, k, l, event), lam)
    assert zeta <= lam ** -0.25 + 1e-12


@pytest.mark.parametrize("lam", [0.5, 4.0, 30.0])
@pytest.mark.parametrize("dims", [(4, 4), (4, 6), (6, 6), (4, 8)])
def test_face_vacant_seminorm_is_root_of_transfer_partition(dims, lam):
    # all faces vacant leaves only the empty configuration, of tile weight
    # 1, and a 1x1 block has W*H reflections: zeta = Z_tile^(-1/WH)
    w, h = dims
    corner, k, l, event = face_vacant_event((1, 0))
    zeta = chessboard_seminorm(SeminormQuery(w, h, corner, k, l, event), lam)
    z = partition_polynomial(w, h, "periodic", method="transfer").evaluate_tile(lam)
    assert zeta == pytest.approx(z ** (-1.0 / (w * h)), rel=1e-12)


@pytest.mark.parametrize("lam", [1e100, 1e300])
@pytest.mark.parametrize("dims", [(4, 4), (6, 4), (4, 6), (6, 6)])
def test_face_vacant_seminorm_at_huge_fugacity(dims, lam):
    # lam^tiles overflows the float range here; the transfer sums in logs
    w, h = dims
    corner, k, l, event = face_vacant_event((0, 1))
    zeta = chessboard_seminorm(SeminormQuery(w, h, corner, k, l, event), lam)
    log_z = partition_polynomial(w, h, "periodic", method="transfer").log_tile(lam)
    assert zeta == pytest.approx(math.exp(-log_z / (w * h)), rel=1e-12)


# -- band transfer against the configuration loops ----------------------------


def _block_shapes(w, h):
    """Every k x l block that tiles the w x h torus with even multiplicity."""
    return [
        (k, l)
        for k in range(1, w // 2 + 1)
        if w % (2 * k) == 0
        for l in range(1, h // 2 + 1)
        if h % (2 * l) == 0
    ]


TRANSFER_LAMBDAS = (0.3, 1.0, 30.0, 1e4)


@pytest.mark.parametrize(
    "dims", [(4, 4), (6, 4), (4, 6), (6, 6), (8, 4), (4, 8), (12, 4), (8, 6)]
)
def test_disseminated_transfer_matches_configuration_loops(dims):
    # every block shape, corners off the fundamental domain, missing cells,
    # signed and 0/1 functions; 8x4 and 12x4 run transposed, 4x8 has a
    # band of l = 4 = H/2, and 12x4 and 8x6 are beyond the benchmark's tori
    w, h = dims
    listed = w * h > 36  # 1.4-1.8M configurations: few cells per draw
    rng = random.Random(w * 100 + h)
    draws = 0
    try:
        for k, l in _block_shapes(w, h):
            for _ in range(1 if listed else 3):
                corner = (rng.randrange(-w, 2 * w), rng.randrange(-h, 2 * h))
                points = block_points(corner, k, l)
                cells = [(i, j) for i in range(w // k) for j in range(h // l)]
                chosen = rng.sample(cells, rng.randrange(1, (2 if listed else len(cells)) + 1))
                if rng.random() < 0.5:
                    functions = [_random_local(points, rng) for _ in range(2)]
                else:
                    functions = [random_indicator(points, rng) for _ in range(2)]
                events = {cell: rng.choice(functions) for cell in chosen}
                lam = TRANSFER_LAMBDAS[draws % len(TRANSFER_LAMBDAS)]
                draws += 1
                got = disseminated_expectation(w, h, lam, corner, k, l, events)
                want, scale = disseminated_by_configurations(w, h, lam, corner, k, l, events)
                assert abs(got - want) <= 1e-12 * scale, (k, l, corner, lam)
    finally:
        ensemble.cache_clear()


@pytest.mark.parametrize("dims", [(4, 4), (6, 4), (4, 6), (8, 4), (4, 8), (6, 6)])
def test_seminorm_transfer_matches_configuration_loops(dims):
    w, h = dims
    rng = random.Random(w * 10 + h)
    for draw, (k, l) in enumerate(_block_shapes(w, h)):
        corner = (rng.randrange(-w, 2 * w), rng.randrange(-h, 2 * h))
        points = block_points(corner, k, l)
        f = _random_local(points, rng) if draw % 2 else random_indicator(points, rng)
        lam = TRANSFER_LAMBDAS[draw % len(TRANSFER_LAMBDAS)]
        reflections = (w // k) * (h // l)
        every_cell = {(i, j): f for i in range(w // k) for j in range(h // l)}
        want, scale = disseminated_by_configurations(w, h, lam, corner, k, l, every_cell)
        zeta = chessboard_seminorm(SeminormQuery(w, h, corner, k, l, f), lam)
        assert abs(zeta**reflections - max(want, 0.0)) <= 1e-12 * scale, (k, l, corner)


# -- seminorm properties (homogeneity, triangle, monotone) -------------------


def _random_local(points, rng, low=-1.0, high=1.0):
    salt = rng.getrandbits(32)

    def f(pattern):
        pid = sum(pattern[q] << i for i, q in enumerate(points))
        r = random.Random(salt * 1000003 + pid)
        return r.uniform(low, high)

    return f


def test_seminorm_homogeneity():
    rng = random.Random(11)
    points = block_points((0, 0), 2, 1)
    f = _random_local(points, rng)
    lam = 3.0
    base = chessboard_seminorm(SeminormQuery(4, 4, (0, 0), 2, 1, f), lam)
    for alpha in (-2.0, 0.5, 3.0):
        scaled = chessboard_seminorm(
            SeminormQuery(4, 4, (0, 0), 2, 1, lambda p: alpha * f(p)), lam
        )
        assert scaled == pytest.approx(abs(alpha) * base, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_seminorm_triangle_inequality(seed):
    rng = random.Random(seed)
    points = block_points((1, 0), 1, 2)
    f0 = _random_local(points, rng)
    f1 = _random_local(points, rng)
    lam = rng.choice([0.5, 1.0, 4.0])
    q = lambda fn: SeminormQuery(4, 4, (1, 0), 1, 2, fn)
    lhs = chessboard_seminorm(q(lambda p: f0(p) + f1(p)), lam)
    rhs = chessboard_seminorm(q(f0), lam) + chessboard_seminorm(q(f1), lam)
    assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_seminorm_monotone_on_nonnegative(seed):
    rng = random.Random(100 + seed)
    points = block_points((0, 1), 2, 1)
    f = _random_local(points, rng, 0.0, 1.0)
    g = lambda p: f(p) + 0.3  # g >= f >= 0
    lam = rng.choice([0.5, 2.0, 8.0])
    q = lambda fn: SeminormQuery(4, 4, (0, 1), 2, 1, fn)
    assert chessboard_seminorm(q(g), lam) >= chessboard_seminorm(q(f), lam) - 1e-12


# -- chessboard estimate ------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_chessboard_estimate_random_indicator_families(seed):
    rng = random.Random(seed)
    w, h = rng.choice([(4, 4), (8, 4)])
    k, l = rng.choice([(1, 1), (2, 1), (2, 2), (1, 2)])
    if w % (2 * k) or h % (2 * l):
        k = l = 1
    corner = (rng.randrange(w), rng.randrange(h))
    points = block_points(corner, k, l)
    nx, ny = w // k, h // l
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    chosen = rng.sample(cells, rng.randrange(1, min(5, len(cells)) + 1))
    events = {cell: random_indicator(points, rng) for cell in chosen}
    lam = rng.choice([0.5, 1.0, 4.0])
    lhs = disseminated_expectation(w, h, lam, corner, k, l, events)
    rhs = 1.0
    for cell, ev in events.items():
        rhs *= chessboard_seminorm(SeminormQuery(w, h, corner, k, l, ev), lam)
    assert lhs <= rhs + 1e-12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dims,k,l", [((6, 6), 1, 1), ((4, 4), 2, 2)])
def test_pattern_values_match_unique_reference(dims, k, l, seed, monkeypatch):
    w, h = dims
    rng = random.Random(seed)
    corner = (rng.randrange(w), rng.randrange(h))
    points = block_points(corner, k, l)
    f = _random_local(points, rng)
    cells = [(rng.randrange(w // k), rng.randrange(h // l)) for _ in range(3)]
    events = {cell: random_indicator(points, rng) for cell in cells}
    lam = rng.choice([0.5, 4.0, 30.0])

    def values():
        return (
            chessboard_seminorm(SeminormQuery(w, h, corner, k, l, f), lam),
            chessboard_seminorm(SeminormQuery(w, h, corner, k, l, events[cells[0]]), lam),
            disseminated_expectation(w, h, lam, corner, k, l, events),
        )

    counting = []
    eval_local = exact._eval_local

    def spy(fn, points, pattern_ids):
        counting.append(1 << len(points) <= len(pattern_ids))
        return eval_local(fn, points, pattern_ids)

    monkeypatch.setattr(exact, "_eval_local", spy)
    got = values()
    # 16 face patterns against the 6x6 band pairs of all cells take the
    # counting path; 512 patterns of a 2x2 block on 4x4 take the sort
    assert set(counting) == {k == 1}
    monkeypatch.setattr(exact, "_eval_local", eval_local_by_unique)
    assert got == values()


# -- the band transfer's runs ---------------------------------------------------


@pytest.mark.parametrize("positions", range(2, 9))
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_band_pairs_list_every_run_of_neighbouring_rows_in_order(positions, rows):
    states = lattice._row_states(positions, True)
    fits = [set(nb) for nb in row_neighbours_by_rows(states, positions, True)]
    want = [(s,) for s in range(len(states))]
    for _ in range(rows):
        want = [run + (t,) for run, t in product(want, range(len(states))) if t in fits[run[-1]]]
    runs, tiles = exact._band_pairs(positions, rows)
    assert list(map(tuple, runs.tolist())) == want
    assert tiles.tolist() == [sum(bin(states[s]).count("1") for s in run[:-1]) for run in want]


# -- admission by the band transfer's size -------------------------------------


def test_band_size_cap_counts_before_building(monkeypatch):
    # 4x4, 1x1 blocks: 17 runs of two rows x 16 cells x 4 points gathered,
    # against (16/4 + 1) x 7^2 = 245 kernel floats
    corner, k, l, event = face_vacant_event((0, 0))
    query = SeminormQuery(4, 4, corner, k, l, event)
    monkeypatch.setattr(exact, "BAND_SIZE_CAP", 1087)
    with pytest.raises(TooLarge, match="at least 1088 array entries"):
        chessboard_seminorm(query, 2.0)
    monkeypatch.setattr(exact, "BAND_SIZE_CAP", 1088)
    assert 0 < chessboard_seminorm(query, 2.0) < 1


def test_band_size_cap_admits_12x24_torus():
    # 7,568,932 kernel floats and 4,719,744 gathered bits for every face
    # of the 12x24 torus, and the largest queries of the test suite
    exact._check_band_size(12, 24, 1, 1, 12 * 24)
    exact._check_band_size(24, 12, 1, 1, 12 * 24)
    exact._check_band_size(8, 6, 4, 1, 12)
    exact._check_band_size(12, 4, 6, 2, 4)


@pytest.mark.parametrize(
    "dims,k,l,size",
    [((16, 16), 2, 2, 316_605_185), ((20, 20), 1, 1, 23_111_439_029), ((10, 10), 5, 5, None)],
)
def test_band_size_cap_refuses_before_building(dims, k, l, size, monkeypatch):
    # 16x16 with 2x2 blocks would gather 8.9e9 bits (66 GiB), and 10x10
    # with 5x5 blocks 2.6e10; the refusal comes before any run is listed
    def unreachable(*args):
        raise AssertionError("the band was built")

    monkeypatch.setattr(exact, "_band_pairs", unreachable)
    w, h = dims
    corner, _, _, event = face_vacant_event((0, 0))
    message = f"{w}x{h} torus needs at least {size or ''}"
    with pytest.raises(TooLarge, match=message):
        chessboard_seminorm(SeminormQuery(w, h, corner, k, l, event), 1.0)
    with pytest.raises(TooLarge, match=message):
        disseminated_expectation(w, h, 1.0, corner, k, l, {(0, 0): event})


# -- reflection positivity -----------------------------------------------------


def test_reflection_positivity_constant_function():
    val = reflection_positivity_value(4, 4, 2.0, (0, 0), 2, 4, lambda p: 1.0)
    assert val == pytest.approx(1.0)


@pytest.mark.parametrize("lam", [1e-300, 1e300])
def test_reflection_positivity_constant_function_at_extreme_fugacity(lam):
    # each weight is taken relative to the largest, so none overflows and
    # the value is 1 up to the rounding of the rescaled products: the 2x4
    # and 4x2 blocks both run 3-row bands and round alike, within 8 ulp of
    # 1, and the 6x3 block on 6x6 gives 1 exactly
    along_x = reflection_positivity_value(4, 4, lam, (0, 0), 2, 4, lambda p: 1.0)
    assert abs(along_x - 1.0) <= 8 * sys.float_info.epsilon
    assert along_x == reflection_positivity_value(4, 4, lam, (0, 0), 4, 2, lambda p: 1.0)
    assert reflection_positivity_value(6, 6, lam, (0, 0), 6, 3, lambda p: 1.0) == 1.0


def test_reflection_positivity_occupancy_indicator():
    val = reflection_positivity_value(
        4, 6, 3.0, (0, 0), 2, 6, lambda p: float(p[(1, 1)])
    )
    assert val >= 0.0


@pytest.mark.parametrize("seed", range(10))
def test_reflection_positivity_random_pm_one(seed):
    rng = random.Random(seed)
    w, h = rng.choice([(4, 4), (4, 6), (8, 4)])
    if rng.random() < 0.5:
        k, l = w // 2, h
        corner = (rng.randrange(w), rng.randrange(h))
    else:
        k, l = w, h // 2
        corner = (rng.randrange(w), rng.randrange(h))
    points = block_points(corner, k, l)
    salt = rng.getrandbits(32)

    def f(pattern):
        pid = sum(pattern[q] << i for i, q in enumerate(points))
        return 1.0 if hash((salt, pid)) & 1 else -1.0

    lam = rng.choice([0.5, 1.0, 4.0, 32.0])
    val = reflection_positivity_value(w, h, lam, corner, k, l, f)
    assert val >= -1e-12


# torus and block, doubled along x or y; the band transfer runs its rows
# across the doubled side, transposing the blocks doubled along x
REFLECTION_BLOCKS = (
    (4, 4, 2, 4),
    (4, 4, 4, 2),
    (4, 6, 2, 6),
    (4, 6, 4, 3),
    (6, 4, 3, 4),
    (6, 4, 6, 2),
    (8, 4, 4, 4),
    (8, 4, 8, 2),
    (4, 8, 2, 8),
    (6, 6, 6, 3),
    (6, 6, 3, 6),
)


@pytest.mark.parametrize("seed", range(len(REFLECTION_BLOCKS)))
def test_reflection_positivity_matches_per_configuration_reference(seed):
    rng = random.Random(seed)
    w, h, k, l = REFLECTION_BLOCKS[seed]
    corner = (rng.randrange(-w, 2 * w), rng.randrange(-h, 2 * h))
    f = _random_local(block_points(corner, k, l), rng)
    lam = TRANSFER_LAMBDAS[seed % len(TRANSFER_LAMBDAS)]
    try:
        want, scale = reflection_positivity_by_configurations(
            f, *reflection_pair_patterns(w, h, corner, k, l), lam
        )
    finally:
        ensemble.cache_clear()
    got = reflection_positivity_value(w, h, lam, corner, k, l, f)
    assert abs(got - want) <= 1e-12 * scale, (corner, lam)


@pytest.mark.parametrize("seed", range(len(REFLECTION_BLOCKS) - 1))
def test_reflection_positivity_agrees_in_both_orientations(monkeypatch, seed):
    # the orientation the size check does not pick gives the same value; a
    # block as tall as the torus (8x2 on 8x4, transposed) is then one band.
    # The last block would need 31,227,168 entries the other way round.
    rng = random.Random(seed)
    w, h, k, l = REFLECTION_BLOCKS[seed]
    corner = (rng.randrange(-w, 2 * w), rng.randrange(-h, 2 * h))
    f = _random_local(block_points(corner, k, l), rng)
    lam = TRANSFER_LAMBDAS[seed % len(TRANSFER_LAMBDAS)]
    picked = reflection_positivity_value(w, h, lam, corner, k, l, f)
    check = exact._check_band_size
    monkeypatch.setattr(exact, "_check_band_size", lambda *args: not check(*args))
    other = reflection_positivity_value(w, h, lam, corner, k, l, f)
    assert other == pytest.approx(picked, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("lam", [0.3, 30.0])
def test_reflection_positivity_runs_the_cheaper_orientation(lam):
    # with rows along x the 3x6 block doubled along x is one band of 7-row
    # runs, 31,227,168 entries, beyond the cap; along y it is 4-row runs,
    # the band of the transposed query, so both give the same bytes (the
    # per-configuration reference is REFLECTION_BLOCKS' last entry)
    rng = random.Random(36)
    corner = (rng.randrange(6), rng.randrange(6))
    f = _random_local(block_points(corner, 3, 6), rng)

    def f_transposed(pattern):
        return f({(x, y): pattern[(y, x)] for x, y in block_points(corner, 3, 6)})

    assert exact._check_band_size(6, 6, 3, 6, 2) is True
    assert exact._check_band_size(6, 6, 6, 3, 2) is False
    got = reflection_positivity_value(6, 6, lam, corner, 3, 6, f)
    transposed = reflection_positivity_value(6, 6, lam, corner[::-1], 6, 3, f_transposed)
    assert got == transposed


def test_band_size_picks_the_smaller_orientation(monkeypatch):
    # 4x8 with a 2x8 block: 4,622,346 entries with rows along x, 212,706
    # along y; under a cap between the two only the second is admitted
    monkeypatch.setattr(exact, "BAND_SIZE_CAP", 212_706)
    assert exact._check_band_size(4, 8, 2, 8, 2) is True
    monkeypatch.setattr(exact, "BAND_SIZE_CAP", 212_705)
    with pytest.raises(TooLarge, match="at least 212706 array entries"):
        exact._check_band_size(4, 8, 2, 8, 2)


def test_unit_blocks_keep_rows_along_the_narrow_side():
    # the narrow side is the cheaper one, and a square torus is a tie: along x
    assert exact._check_band_size(8, 4, 1, 1, 32) is True
    assert exact._check_band_size(4, 8, 1, 1, 32) is False
    assert exact._check_band_size(6, 6, 1, 1, 36) is False


def test_reflection_positivity_geometry_mismatch():
    with pytest.raises(GeometryMismatch):
        reflection_positivity_value(4, 4, 1.0, (0, 0), 2, 2, lambda p: 1.0)
