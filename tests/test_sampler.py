import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepack import sampler
from squarepack.errors import DimensionError, NonpositiveFugacity, ParameterError
from squarepack.exact import partition_polynomial
from squarepack.lattice import BOUNDARIES, create_configuration
from squarepack.sampler import (
    Chain,
    ChainParams,
    SweepDraws,
    iter_samples,
    run_chain,
    seed_phase_configuration,
)

from oracles import (
    ScalarEngineBySites,
    bitboard_translations_by_stencils,
    block_by_cells,
    ensemble,
    pairwise_valid,
    seed_phase_by_points,
    sweep_by_generator,
    model_sites,
    target,
    translation_by_cells,
)
from strategies import random_valid_config


def params(**kw):
    base = dict(width=4, height=4, lam=2.0, seed=7, sweeps=10)
    base.update(kw)
    return ChainParams(**base)


# -- phase seeds ---------------------------------------------------------------


def test_seed_ver0_8x8():
    cfg = seed_phase_configuration(8, 8, "ver0")
    assert cfg.tile_count == 16
    assert all(x % 2 == 1 for x, _ in cfg.occupied)
    # fully packed
    assert cfg.area - 4 * cfg.tile_count == 0


def test_seed_symmetries():
    ver0 = seed_phase_configuration(8, 8, "ver0")
    hor0 = seed_phase_configuration(8, 8, "hor0")
    assert hor0.occupied == frozenset((y, x) for x, y in ver0.occupied)
    ver1 = seed_phase_configuration(8, 8, "ver1")
    assert ver1.occupied == ver0.translate(1, 0).occupied


def test_seed_offsets_and_errors():
    cfg = seed_phase_configuration(8, 8, "ver0", offsets=[0, 0, 0, 0])
    assert all(y % 2 == 1 for _, y in cfg.occupied)
    with pytest.raises(DimensionError):
        seed_phase_configuration(8, 8, "ver0", offsets=[0, 1])
    with pytest.raises(ValueError):
        seed_phase_configuration(8, 8, "diagonal")


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("phase", sampler.PHASE_SEEDS)
@pytest.mark.parametrize("width,height", [(8, 8), (10, 6)])
def test_phase_seeds_in_every_boundary_mode(width, height, phase, boundary):
    cfg = seed_phase_configuration(width, height, phase, boundary=boundary)
    torus = seed_phase_configuration(width, height, phase)
    assert torus.area == 4 * torus.tile_count
    if boundary != "periodic":
        # nothing wraps: the torus seed's tiles on the interior grid
        inside = {(x, y) for x, y in torus.occupied if 0 < x < width and 0 < y < height}
        assert cfg.occupied == inside
    chain = Chain(params(width=width, height=height, boundary=boundary, initial=phase))
    assert chain.configuration().occupied == cfg.occupied
    chain.sweep(3)
    assert pairwise_valid(sorted(chain.configuration().occupied), width, height, boundary == "periodic")


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_phase_seeds_equal_the_point_built_oracle(boundary):
    rng = np.random.default_rng(5)
    for width, height in itertools.product((4, 6, 8, 10), (4, 6, 12)):
        for phase in sampler.PHASE_SEEDS:
            ncols = (height if phase.startswith("hor") else width) // 2
            for offsets in (None, rng.integers(-3, 4, ncols).tolist()):
                got = seed_phase_configuration(width, height, phase, offsets, boundary)
                want = seed_phase_by_points(width, height, phase, offsets, boundary)
                assert got == want
                assert np.array_equal(got.occupancy_grid(), want.occupancy_grid())


# -- kernel-level heat bath ------------------------------------------------------


def test_heat_bath_inserts_when_uniform_low():
    chain = Chain(params(lam=1.0, initial="empty"))
    # every uniform below the occupation probability
    chain.engine.heat_bath((1 << 16) - 1)
    # the first sublattice fills, blocking the rest of its neighbors;
    # feasibility is evaluated class by class
    cfg = chain.configuration()
    assert cfg.tile_count == 4
    assert pairwise_valid(sorted(cfg.occupied), 4, 4, periodic=True)


def test_heat_bath_removes_when_uniform_high():
    packed = create_configuration(4, 4, "periodic", [(1, 1), (1, 3), (3, 1), (3, 3)])
    chain = Chain(params(initial=packed))
    # no uniform below the occupation probability
    chain.engine.heat_bath(0)
    assert chain.configuration().tile_count == 0


def test_translation_moves_preserve_tile_count():
    chain = Chain(params(lam=8.0, initial="ver0", width=8, height=8, seed=3))
    n0 = chain.configuration().tile_count
    proposals = (np.arange(0, 64 * 4, 7) % (64 * 4)).tolist()
    chain.engine.translations(proposals)
    assert chain.configuration().tile_count == n0


ORACLE_GRIDS = [(4, 4, "periodic"), (6, 6, "periodic"), (4, 6, "free"), (6, 6, "fully_packed")]


@st.composite
def engine_calls(draw):
    """A grid, the sites a valid start state is grown from, and a list of
    heat-bath and translation calls; proposals off the grid are drawn
    on their own as well, since uniform ones rarely hit an occupied edge."""
    width, height, boundary = draw(st.sampled_from(ORACLE_GRIDS))
    geom = sampler._Geometry(width, height, boundary)
    n = geom.n_sites
    off_grid = [4 * i + d for i in range(n) for d in range(4) if target(geom, i, d) is None]
    proposal = st.integers(0, 4 * n - 1)
    if off_grid:
        proposal |= st.sampled_from(off_grid)
    start = draw(st.lists(st.integers(0, n - 1), max_size=n))
    call = st.tuples(st.just("heat_bath"), st.integers(0, (1 << n) - 1)) | st.tuples(
        st.just("translations"), st.lists(proposal, max_size=2 * n)
    )
    return (width, height, boundary), start, draw(st.lists(call, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(engine_calls())
def test_scalar_engine_matches_site_oracle(case):
    (width, height, boundary), start, calls = case
    chain = Chain(params(width=width, height=height, boundary=boundary), engine="scalar")
    oracle = ScalarEngineBySites(chain.geom, 0)
    occ = 0
    for i in start:  # grow a valid state from the drawn sites
        if not occ & oracle.nbr_masks[i]:
            occ |= 1 << i
    chain.engine.occ = oracle.occ = occ
    for name, arg in calls:
        getattr(chain.engine, name)(arg)
        getattr(oracle, name)(arg)
        assert chain.engine.occ == oracle.occ


@pytest.mark.parametrize("width,height,boundary", [(4, 4, "periodic"), (4, 6, "free"), (6, 6, "periodic")])
def test_heat_bath_tables_hold_at_most_the_valid_configurations(width, height, boundary):
    # a key is a valid configuration with the class emptied
    bound = sum(partition_polynomial(width, height, boundary).coefficients)
    for lam, seed in ((0.5, 1), (2.0, 2), (8.0, 3)):
        chain = Chain(params(width=width, height=height, boundary=boundary, lam=lam, seed=seed))
        chain.sweep(20_000)
        engine = chain.engine
        for idx, free_of in zip(chain.geom.class_indices, engine.free_of):
            members = sum(1 << i for i in idx.tolist())
            assert 1 < len(free_of) <= bound
            for key, free in free_of.items():
                assert not key & members and free & ~members == 0


def test_heat_bath_tables_capped_without_changing_the_chain(monkeypatch):
    # 6x8 free: 159,651 valid configurations, the most the scalar engine meets
    def trail(chain):
        keys, largest = [], 0
        for _ in range(3000):
            keys.append(chain.sweep().state_key())
            largest = max(largest, *map(len, chain.engine.free_of))
        return keys, largest

    uncapped, most = trail(Chain(params(width=6, height=8, boundary="free", lam=2.0, seed=4)))
    assert most > 200
    monkeypatch.setattr(sampler, "FREE_OF_CAP", 50)
    capped, largest = trail(Chain(params(width=6, height=8, boundary="free", lam=2.0, seed=4)))
    assert capped == uncapped
    assert largest == 50


@pytest.mark.parametrize("width", [1, 62, 63, 64, 65, 576])
def test_pack_rows_matches_bit_sums(width):
    rows = np.random.default_rng(width).random((7, width)) < 0.5
    rows[0], rows[1] = False, True
    want = [sum(1 << i for i in np.flatnonzero(row).tolist()) for row in rows]
    got = sampler._pack_rows(rows)
    assert got == want
    assert all(type(mask) is int for mask in got)


@pytest.mark.parametrize(
    "initial", [None, "empty", *sampler.PHASE_SEEDS, seed_phase_configuration(8, 8, "hor1")]
)
def test_chain_params_accepts_known_initial_states(initial):
    assert params(width=8, height=8, initial=initial).initial is initial


@pytest.mark.parametrize("initial", ["diagonal", 5, "", "VER0", ("ver0",)])
def test_chain_params_rejects_unknown_initial_state(initial):
    with pytest.raises(ParameterError, match="unknown initial state"):
        params(width=8, height=8, initial=initial)


@pytest.mark.parametrize(
    "field,value",
    [
        ("width", 8.0),
        ("height", True),
        ("seed", 1.5),
        ("sweeps", "10"),
        ("burn_in", None),
        ("thinning", 2.5),
        ("lam", "2"),
        ("lam", True),
        ("translation_move_fraction", None),
    ],
)
def test_chain_params_reject_a_field_of_the_wrong_type(field, value):
    with pytest.raises(ParameterError, match="must be an integer|must be a real number"):
        params(**{field: value})


def test_chain_params_accept_numpy_numbers():
    chain = params(width=np.int64(4), seed=np.uint32(7), lam=np.float64(2.0), sweeps=np.int32(3))
    plain = params(sweeps=3)
    reports = [run_chain(p, ["tile_density"]).to_dict() for p in (chain, plain)]
    # as JSON text: a NaN stderr never equals itself
    assert json.dumps(reports[0]) == json.dumps(reports[1])


@pytest.mark.parametrize(
    "width,height,boundary,initial",
    [
        (8, 8, "periodic", create_configuration(4, 4, "periodic", [(1, 1), (3, 3)])),
        (8, 8, "periodic", create_configuration(8, 4, "periodic", [(1, 1)])),
        (8, 8, "periodic", create_configuration(4, 8, "periodic", [(1, 1)])),
        (8, 8, "free", create_configuration(8, 8, "periodic", [(1, 1), (3, 3)])),
        (8, 8, "fully_packed", create_configuration(8, 8, "free", [(0, 0)])),
    ],
)
def test_chain_params_rejects_initial_configuration_of_another_shape(
    width, height, boundary, initial
):
    with pytest.raises(DimensionError) as err:
        params(width=width, height=height, boundary=boundary, initial=initial)
    shapes = str(err.value)
    assert f"{initial.width}x{initial.height} {initial.boundary}" in shapes
    assert f"{width}x{height} {boundary}" in shapes


@pytest.mark.parametrize("boundary", ["periodic", "free", "fully_packed"])
def test_chain_params_accepts_initial_configuration_of_its_shape(boundary):
    initial = create_configuration(8, 8, boundary, [(3, 3)])
    chain = Chain(params(width=8, height=8, boundary=boundary, initial=initial, sweeps=0))
    assert chain.configuration().occupied == initial.occupied


# -- the draw decoder against numpy's Generator ------------------------------------


@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("boundary", BOUNDARIES)
# 6x6 torus: n_trans = 9 is odd, so a half word carries between sweeps;
# 32x256: one sweep per block
@pytest.mark.parametrize("width,height", [(4, 4), (4, 6), (6, 6), (10, 14), (32, 256)])
def test_sweeps_match_generator_oracle(width, height, boundary, fraction):
    p = params(width=width, height=height, boundary=boundary, translation_move_fraction=fraction, seed=31)
    chain, oracle = Chain(p), Chain(p)
    rng = np.random.default_rng(31)
    # at least two blocks on every grid
    sweeps = max(4, 2 * sampler.BLOCK_WORDS // chain.geom.n_sites + 2)
    for _ in range(sweeps):
        chain.sweep()
        sweep_by_generator(oracle, rng)
        assert chain.state_key() == oracle.state_key()
    assert chain.step == oracle.step == sweeps


@pytest.mark.parametrize("width,height,boundary", [(4, 4, "periodic"), (6, 6, "periodic"), (4, 6, "free")])
def test_sweep_counts_split_across_blocks(width, height, boundary):
    p = params(width=width, height=height, boundary=boundary, seed=5)
    whole, split, oracle = Chain(p), Chain(p), Chain(p)
    whole.sweep(700)
    # 4x4: 227 sweeps per block, so the calls end inside a block
    split.sweep(150)
    split.sweep(547)
    for _ in range(3):
        split.sweep()
    sweep_by_generator(oracle, np.random.default_rng(5), 700)
    assert whole.state_key() == split.state_key() == oracle.state_key()
    assert whole.step == split.step == 700


@pytest.mark.parametrize("count", [0, -3])
def test_nonpositive_sweep_count_draws_nothing(count):
    chain, fresh = Chain(params(seed=13)), Chain(params(seed=13))
    start = chain.state_key()
    assert chain.sweep(count) is chain
    assert (chain.step, chain.state_key()) == (0, start)
    for _ in range(5):
        assert chain.sweep().state_key() == fresh.sweep().state_key()
    key = chain.state_key()
    chain.sweep(count)
    assert (chain.step, chain.state_key()) == (5, key)
    assert chain.sweep().state_key() == fresh.sweep().state_key()


def _generator_sweeps(seed, n_uniform, n_integers, bound, p_accept, sweeps):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(sweeps):
        bits = rng.random(n_uniform) < p_accept
        mask = sum(1 << i for i in np.flatnonzero(bits).tolist())
        out.append((mask, rng.integers(0, bound, size=n_integers).tolist() if n_integers else []))
    return out


@pytest.mark.parametrize(
    "bound",
    [
        3 * 2**30,  # a quarter of the words are rejected
        2**31 + 1,  # almost half
        1000,
        60,
        2**2,  # powers of two reject nothing
        2**20,
        2**31,
    ],
)
@pytest.mark.parametrize("n_uniform,n_integers", [(5, 3), (9, 4), (16, 0), (3, 1), (1, 8)])
@pytest.mark.parametrize("block_words", [1, 7, 64, 4096])
def test_sweep_draws_match_generator(bound, n_uniform, n_integers, block_words, monkeypatch):
    monkeypatch.setattr(sampler, "BLOCK_WORDS", block_words)
    for seed, p_accept in ((0, 0.5), (17, 2.0 / 3.0), (2024, 1.0)):
        draws = SweepDraws(seed, n_uniform, n_integers, bound, p_accept)
        got = list(itertools.islice(draws, 60))
        assert got == _generator_sweeps(seed, n_uniform, n_integers, bound, p_accept, 60)


def test_sweep_draws_reject_as_numpy_does(monkeypatch):
    # at 3 * 2^30, a word is rejected when w * R mod 2^32 < 2^30; blocks
    # of five sweeps run both paths, vectorised and word by word
    monkeypatch.setattr(sampler, "BLOCK_WORDS", 40)
    draws = SweepDraws(3, 4, 5, 3 * 2**30, 0.5)
    assert draws.reject_below == 2**30
    assert list(itertools.islice(draws, 200)) == _generator_sweeps(3, 4, 5, 3 * 2**30, 0.5, 200)
    assert SweepDraws(3, 4, 5, 2**12, 0.5).reject_below == 0


def test_sweep_draws_reject_bad_bounds():
    for bound in (0, 1, 2**32):
        with pytest.raises(ValueError, match="integer bound"):
            SweepDraws(0, 4, 1, bound, 0.5)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_fugacity_not_positive_and_finite_rejected(lam):
    with pytest.raises(NonpositiveFugacity):
        params(lam=lam)


def test_configuration_matches_state_key():
    for boundary in BOUNDARIES:
        chain = Chain(params(width=10, height=14, boundary=boundary, seed=4)).sweep(30)
        geom = chain.geom
        key = chain.state_key()
        sites = model_sites(10, 14, boundary)
        expected = {sites[i] for i in range(geom.n_sites) if key >> i & 1}
        assert chain.configuration().occupied == frozenset(expected)


# -- chain behavior ----------------------------------------------------------------


def test_validity_preserved_along_chain():
    chain = Chain(params(lam=1.5, sweeps=0, seed=11, width=6, height=4))
    for _ in range(200):
        chain.sweep()
        occ = sorted(chain.configuration().occupied)
        assert pairwise_valid(occ, 6, 4, periodic=True)


def test_validity_preserved_free_boundary():
    chain = Chain(
        params(boundary="free", width=6, height=6, lam=2.0, seed=5, sweeps=0)
    )
    for _ in range(100):
        chain.sweep()
        cfg = chain.configuration()
        occ = sorted(cfg.occupied)
        assert all(1 <= x <= 5 and 1 <= y <= 5 for x, y in occ)
        assert pairwise_valid(occ, periodic=False)


@pytest.mark.parametrize("fraction", [0.0, 0.25])
@pytest.mark.parametrize("boundary", BOUNDARIES)
# 10x14 rectangles have odd interiors (9x13); 18x18 is above 256 sites
@pytest.mark.parametrize("width,height", [(6, 6), (10, 14), (18, 18)])
def test_engines_agree_exactly(width, height, boundary, fraction):
    trails = []
    for engine in ("scalar", "bitboard"):
        chain = Chain(
            params(
                width=width,
                height=height,
                boundary=boundary,
                translation_move_fraction=fraction,
                lam=3.0,
                seed=42,
            ),
            engine=engine,
        )
        trail = []
        for _ in range(50):
            chain.sweep()
            trail.append(chain.state_key())
        trails.append(trail)
    assert trails[0] == trails[1]
    assert len(set(trails[0])) > 25


@pytest.mark.parametrize("engine", ["scalar", "bitboard"])
@settings(max_examples=40, deadline=None)
@given(cfg=random_valid_config())
def test_translation_matches_cell_reference(engine, cfg):
    w, h = cfg.width, cfg.height
    if cfg.boundary != "periodic":
        # the sampler's rectangle grid is the interior lattice points
        cfg = create_configuration(
            w, h, cfg.boundary, [(x, y) for x, y in cfg.occupied if 0 < x < w and 0 < y < h]
        )
    chain = Chain(params(width=w, height=h, boundary=cfg.boundary, initial=cfg), engine=engine)
    geom = chain.geom
    sites = geom.from_configuration(cfg)
    start = chain.state_key()
    for q in range(4 * geom.n_sites):
        chain.engine.occ = start
        chain.engine.translations([q])
        moved = translation_by_cells(sites, geom.nx, geom.ny, geom.periodic, *divmod(q, 4))
        assert chain.state_key() == sum(1 << i for i in moved)


# grids above the scalar engine's 36 sites; 10x14 and 14x10 rectangles
# have odd interiors (9x13, 13x9)
TABLE_GRIDS = [(8, 8), (8, 10), (10, 14), (14, 10)]


@pytest.mark.parametrize("boundary", BOUNDARIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_translation_tables_match_stencil_loop(boundary, data):
    width, height = data.draw(st.sampled_from(TABLE_GRIDS))
    chain = Chain(
        params(
            width=width,
            height=height,
            boundary=boundary,
            lam=data.draw(st.sampled_from([0.5, 3.0, 50.0])),
            seed=data.draw(st.integers(0, 2**31 - 1)),
        ),
        engine="bitboard",
    )
    chain.sweep(data.draw(st.integers(1, 20)))
    engine, n = chain.engine, chain.geom.n_sites
    assert n > sampler.SCALAR_ENGINE_MAX_SITES
    start = engine.occ
    for q in range(4 * n):
        engine.occ = start
        expected = bitboard_translations_by_stencils(engine, [q])
        engine.translations([q])
        assert engine.occ == expected, q
    engine.occ = start
    proposals = data.draw(st.lists(st.integers(0, 4 * n - 1), max_size=4 * n))
    expected = bitboard_translations_by_stencils(engine, proposals)
    engine.translations(proposals)
    assert engine.occ == expected


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("width,height", [(4, 4), (4, 6), *TABLE_GRIDS])
def test_blocks_and_targets_match_cell_loop(width, height, boundary):
    geom = sampler._Geometry(width, height, boundary)
    blocks, targets = geom.blocks_and_targets()
    nx = geom.nx
    assert blocks == [block_by_cells(geom, i % nx, i // nx) for i in range(geom.n_sites)]
    expected = [target(geom, i, d) for i in range(geom.n_sites) for d in range(4)]
    assert targets == [-1 if t is None else t[1] * nx + t[0] for t in expected]


def test_translation_tables_built_at_set_up_when_the_chain_moves_tiles(monkeypatch):
    built = []
    tables = sampler._Geometry.blocks_and_targets
    monkeypatch.setattr(
        sampler._Geometry, "blocks_and_targets", lambda geom: built.append(geom) or tables(geom)
    )
    # the scalar engine's heat bath reads the blocks, so it builds the
    # table once either way; neither engine of a still chain makes moves
    for engine, still_builds in (("scalar", 1), ("bitboard", 0)):
        built.clear()
        still = Chain(params(width=6, height=6, translation_move_fraction=0.0), engine=engine)
        assert len(built) == still_builds
        assert getattr(still.engine, "moves" if engine == "scalar" else "targets") == []
        moving = Chain(params(width=6, height=6), engine=engine)
        assert len(built) == still_builds + 1
        still.sweep(3)
        moving.sweep(3)
        assert len(built) == still_builds + 1
        reference = Chain(params(width=6, height=6), engine="scalar").sweep(3)
        assert moving.state_key() == reference.state_key()


def test_engine_choice():
    assert Chain(params(width=6, height=6)).engine_name == "scalar"
    assert Chain(params(width=8, height=6)).engine_name == "bitboard"
    assert Chain(params(width=8, height=8, boundary="free")).engine_name == "bitboard"
    with pytest.raises(ValueError, match="scalar, bitboard"):
        Chain(params(), engine="numpy")


def test_unknown_engine_is_a_parameter_error():
    with pytest.raises(ParameterError, match="unknown engine 'x'"):
        Chain(params(), engine="x")


def test_determinism_same_seed():
    r1 = run_chain(params(sweeps=40, burn_in=5), ["tile_density", "parity_density"])
    r2 = run_chain(params(sweeps=40, burn_in=5), ["tile_density", "parity_density"])
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


def test_different_seeds_differ():
    r1 = run_chain(params(sweeps=50, seed=1), ["tile_count"])
    r2 = run_chain(params(sweeps=50, seed=2), ["tile_count"])
    assert r1.estimators != r2.estimators


def test_zero_sweeps_reports_initial():
    report = run_chain(params(sweeps=0, initial="ver0"), ["tile_density", "phase"])
    assert report.measurements == 1
    assert report.estimators["tile_density"]["mean"] == pytest.approx(0.25)
    # alternating column offsets give wrapping even-parity sticks
    assert report.phase_fractions == {"ver0": 1.0}


@pytest.mark.parametrize("burn_in", [0, 3])
@pytest.mark.parametrize(
    "sweeps, thinning, steps",
    [
        (0, 1, [0]),
        (0, 4, [0]),
        (3, 4, [3]),  # fewer sweeps than one block
        (4, 4, [4]),
        (5, 1, [1, 2, 3, 4, 5]),
        (11, 4, [4, 8]),  # a trailing partial block, not run
        (12, 3, [3, 6, 9, 12]),
    ],
)
def test_iter_samples_contract(burn_in, sweeps, thinning, steps):
    chain = Chain(params(sweeps=sweeps, burn_in=burn_in, thinning=thinning))
    seen = []
    for cfg in iter_samples(chain):
        seen.append(chain.step)
        fresh = Chain(params(sweeps=0)).sweep(chain.step)
        assert cfg == fresh.configuration()
    assert seen == [burn_in + s for s in steps]
    assert chain.step == seen[-1]


def test_report_carries_provenance():
    report = run_chain(params(sweeps=4, seed=99), ["tile_count"])
    assert report.params["seed"] == 99
    assert report.params["lambda"] == 2.0
    assert "engine" in report.params
    assert "vacancy_offset" in report.weight_convention


def test_keep_samples():
    report = run_chain(params(sweeps=6, thinning=2), ["tile_count"], keep_samples=True)
    assert len(report.samples) == 3
    assert all("occupied" in s for s in report.samples)


# -- stationarity against the exact distribution ------------------------------------


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize(
    "width,height,boundary", [(4, 4, "periodic"), (4, 6, "free"), (6, 4, "fully_packed")]
)
def test_stationarity_against_the_exact_law(width, height, boundary, lam):
    masks, tiles = ensemble(width, height, boundary)
    weights = lam ** tiles.astype(float)
    probs = {int(m): w / weights.sum() for m, w in zip(masks, weights)}

    chain = Chain(
        ChainParams(width, height, lam, seed=2024, sweeps=0, burn_in=0, boundary=boundary)
    )
    chain.sweep(500)
    counts = {}
    n = 60_000
    for _ in range(n):
        chain.sweep()
        key = chain.state_key()
        counts[key] = counts.get(key, 0) + 1
    # every visited state is a valid configuration of the region
    assert counts.keys() <= probs.keys()
    tv = 0.5 * sum(
        abs(counts.get(m, 0) / n - p) for m, p in probs.items()
    )
    assert tv < 0.05
