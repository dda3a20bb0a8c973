"""Grid-backed configurations, as ``Chain.configuration()`` returns them,
against set-built ones, and the grid readers against their set-based
oracles."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepack.coupling import disagreement_set
from squarepack.errors import DimensionError
from squarepack.lattice import (
    BOUNDARIES,
    create_configuration,
    decode,
    encode,
    face_cover,
    from_json,
)
from squarepack.observables import occupancy_stack, parity_density
from squarepack.render import render_ppm, render_svg
from squarepack.sampler import Chain, ChainParams, seed_phase_configuration
from squarepack.sticks import classify_phase

from oracles import disagreement_set_by_centers, model_sites, parity_density_by_centers, to_json
from strategies import random_valid_config


@st.composite
def seeded_chains(draw, boundaries=BOUNDARIES):
    """A chain advanced by a drawn number of sweeps."""
    params = ChainParams(
        width=draw(st.sampled_from([4, 6, 8, 10])),
        height=draw(st.sampled_from([4, 6, 8, 10])),
        lam=draw(st.sampled_from([0.5, 2.0, 8.0, 50.0])),
        seed=draw(st.integers(0, 2**31 - 1)),
        sweeps=0,
        boundary=draw(st.sampled_from(boundaries)),
        translation_move_fraction=draw(st.sampled_from([0.0, 0.25])),
    )
    return Chain(params).sweep(draw(st.integers(0, 12)))


def _set_built(cfg):
    return create_configuration(cfg.width, cfg.height, cfg.boundary, cfg.occupied)


def _lazy(cfg) -> bool:
    return "occupied" not in vars(cfg)


@settings(max_examples=60, deadline=None)
@given(seeded_chains())
def test_grid_backed_matches_set_built(chain):
    reference = _set_built(chain.configuration())
    fresh = chain.configuration

    # readers that take the grid leave the center set unbuilt
    cfg = fresh()
    assert cfg.tile_count == reference.tile_count
    assert np.array_equal(cfg.occupancy_grid(), reference.occupancy_grid())
    assert np.array_equal(face_cover(cfg), face_cover(reference))
    assert _lazy(cfg)

    # the returned grid is a copy
    grid = cfg.occupancy_grid()
    grid[...] = ~grid
    assert np.array_equal(cfg.occupancy_grid(), reference.occupancy_grid())
    assert cfg == reference

    # comparison, hashing and repr read the center set
    cfg = fresh()
    assert cfg == reference and reference == cfg
    assert hash(fresh()) == hash(reference)
    # equal frozensets may list their members in different orders
    cfg = fresh()
    assert repr(cfg) == (
        f"Configuration(width={cfg.width}, height={cfg.height}, "
        f"boundary={cfg.boundary!r}, occupied={cfg.occupied!r})"
    )
    assert fresh().occupied == reference.occupied
    assert render_svg(fresh()) == render_svg(reference)
    assert render_ppm(fresh()) == render_ppm(reference)
    assert fresh().transpose() == reference.transpose()
    if reference.boundary == "periodic":
        assert fresh().translate(3, -1) == reference.translate(3, -1)

    # copies before the first read stay grid-backed, with a read-only grid
    for clone in pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh()), copy.copy(fresh()):
        assert _lazy(clone)
        assert not vars(clone)["_grid"].flags.writeable
        assert clone.tile_count == reference.tile_count
        assert clone == reference
        assert hash(clone) == hash(reference)
    # and copies after it too
    cfg = fresh()
    cfg.occupied
    assert pickle.loads(pickle.dumps(cfg)) == reference
    assert copy.deepcopy(cfg) == reference


@settings(max_examples=40, deadline=None)
@given(random_valid_config())
def test_set_built_keeps_a_read_only_grid(cfg):
    first = cfg.occupancy_grid()
    first[...] = True
    again = cfg.occupancy_grid()
    assert not np.shares_memory(first, again)
    assert np.array_equal(again, _set_built(cfg).occupancy_grid())
    assert cfg.tile_count == len(cfg.occupied) == int(again.sum())
    clone = pickle.loads(pickle.dumps(cfg))
    assert not vars(clone)["_grid"].flags.writeable
    assert clone == cfg


@settings(max_examples=40, deadline=None)
@given(st.lists(random_valid_config(), min_size=1, max_size=4))
def test_parity_density_matches_center_oracle(samples):
    # a center on a rectangle's boundary is no model site
    off = [
        [p for p in cfg.occupied if p not in model_sites(cfg.width, cfg.height, cfg.boundary)]
        for cfg in samples
    ]
    first = next((tiles for tiles in off if tiles), None)
    if first is None:
        assert parity_density(samples) == parity_density_by_centers(samples)
        return
    with pytest.raises(DimensionError) as info:
        parity_density(samples)
    assert any(str(p) in str(info.value) for p in first)


def test_parity_density_rejects_tiles_off_the_model_sites():
    corners = [(0, 0), (0, 4), (4, 0), (4, 4), (2, 2)]
    with pytest.raises(DimensionError, match=r"\(0, 0\)"):
        parity_density([create_configuration(4, 4, "free", corners)])
    inside = create_configuration(4, 4, "free", [(2, 2)])
    assert parity_density([inside])["00"] == 1.0


@settings(max_examples=20, deadline=None)
@given(data=st.data(), sweeps=st.integers(1, 6))
def test_parity_density_of_chains_matches_center_oracle(data, sweeps):
    for boundary in BOUNDARIES:
        chain = data.draw(seeded_chains(boundaries=(boundary,)))
        samples = [chain.configuration(), chain.sweep(sweeps).configuration()]
        assert parity_density(samples) == parity_density_by_centers(samples)


@settings(max_examples=40, deadline=None)
@given(seeded_chains(), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_disagreement_set_matches_center_oracle(chain, sweeps, seed):
    a = chain.configuration()
    other = Chain(ChainParams(a.width, a.height, 4.0, seed, sweeps=0, boundary=a.boundary))
    for b in (chain.sweep(sweeps).configuration(), other.sweep(sweeps).configuration()):
        expected = disagreement_set_by_centers(a, b)
        assert disagreement_set(a, b) == expected
        assert disagreement_set(_set_built(a), b) == expected


@settings(deadline=None)
@given(random_valid_config(), st.integers(0, 2**31 - 1))
def test_disagreement_set_of_set_built_matches_center_oracle(a, seed):
    # a may hold centers on the rectangle's boundary, which chains leave empty
    b = Chain(ChainParams(a.width, a.height, 2.0, seed, sweeps=0, boundary=a.boundary)).sweep(3)
    b = _set_built(b.configuration())
    assert disagreement_set(a, b) == disagreement_set_by_centers(a, b)


def test_analysis_does_not_build_the_center_set():
    # the ordered_pair analysis on the criterion-11 torus, shortened
    a, b = (
        Chain(
            ChainParams(32, 64, 100.0, seed, sweeps=0, translation_move_fraction=0.0, initial="ver0")
        )
        .sweep(5)
        .configuration()
        for seed in (1, 2)
    )
    parity_density([a])
    classify_phase(a, lam=100.0)
    classify_phase(b, lam=100.0)
    disagreement_set(a, b)
    occupancy_stack([a, b])
    assert _lazy(a) and _lazy(b)


def _read_only_grid(cfg) -> bool:
    grid = vars(cfg)["_grid"]
    return not grid.flags.writeable and np.array_equal(grid, _set_built(cfg).occupancy_grid())


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_constructor_leaves_a_read_only_grid(boundary):
    cfg = seed_phase_configuration(8, 6, "hor1", boundary=boundary)
    chain = Chain(ChainParams(8, 6, 4.0, 3, sweeps=0, boundary=boundary)).sweep(5)
    made = [
        cfg,
        create_configuration(8, 6, boundary, cfg.occupied),
        decode(encode(cfg)),
        from_json(to_json(cfg)),
        chain.configuration(),
        cfg.transpose(),
        pickle.loads(pickle.dumps(cfg)),
        copy.deepcopy(cfg),
    ]
    if boundary == "periodic":
        made.append(cfg.translate(1, 3))
    for made_cfg in made:
        assert _read_only_grid(made_cfg)
