"""Grid-backed configurations, as ``Chain.configuration()`` returns them,
against set-built ones, and the grid readers against their set-based
oracles."""

import copy
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepack.coupling import disagreement_set
from squarepack.lattice import BOUNDARIES, create_configuration, face_cover
from squarepack.observables import occupancy_stack, parity_density
from squarepack.render import render_ppm, render_svg
from squarepack.sampler import Chain, ChainParams
from squarepack.sticks import classify_phase

from oracles import disagreement_set_by_centers, parity_density_by_centers
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
    assert parity_density(samples) == parity_density_by_centers(samples)


@settings(max_examples=30, deadline=None)
@given(seeded_chains(), st.integers(1, 6))
def test_parity_density_of_chains_matches_center_oracle(chain, sweeps):
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
