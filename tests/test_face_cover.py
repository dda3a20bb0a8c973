"""The face-cover array against face-by-face references.

Stick detection, component graphs and vacancy counts all read
``face_cover``; the references in ``oracles`` resolve every face with
``face_cover_center`` instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepack.lattice import (
    BOUNDARIES,
    FACE_MARGIN,
    face_cover,
    grid_face_cover,
    iter_mask_blocks,
    iter_valid_masks,
    stick_edge_grids,
    tile_parity_class,
)
from squarepack.sampler import Chain, ChainParams
from squarepack.sticks import detect_stick_edges

from oracles import (
    face_corners,
    face_cover_center,
    grid_face_cover_by_codes,
    is_face_vacant,
    mask_to_configuration,
    model_sites,
    stick_edges_by_faces,
)
from strategies import random_valid_config


def assert_matches_references(cfg):
    w, h, m = cfg.width, cfg.height, FACE_MARGIN
    cover = face_cover(cfg)
    assert cover.shape == (h + 2 * m, w + 2 * m)
    for fx in range(-m, w + m):
        for fy in range(-m, h + m):
            center = face_cover_center(cfg, (fx, fy))
            if center is None:
                expected = -1
            else:
                parity = tile_parity_class(center)
                expected = 2 * parity.hpar + parity.vpar
            assert cover[fy + m, fx + m] == expected, (fx, fy)
    vacancies = int((cover[m : m + h, m : m + w] < 0).sum())
    assert vacancies == sum(is_face_vacant(cfg, f) for f in face_corners(cfg))
    assert detect_stick_edges(cfg) == stick_edges_by_faces(cfg)


@pytest.mark.parametrize("boundary", BOUNDARIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_face_cover_matches_references(boundary, data):
    assert_matches_references(data.draw(random_valid_config((boundary,))))


@pytest.mark.parametrize(
    "width,height,boundary", [(4, 4, "periodic"), (6, 4, "free"), (6, 4, "fully_packed")]
)
def test_face_cover_matches_references_exhaustive(width, height, boundary):
    for mask, _ in iter_valid_masks(width, height, boundary):
        assert_matches_references(mask_to_configuration(width, height, boundary, mask))


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_face_cover_matches_references_sampled(boundary):
    chain = Chain(
        ChainParams(width=16, height=12, lam=10.0, seed=3, sweeps=0, boundary=boundary)
    )
    for _ in range(3):
        chain.sweep(20)
        assert_matches_references(chain.configuration())


@pytest.mark.parametrize("boundary", BOUNDARIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_face_cover_matches_per_call_codes(boundary, data):
    cfg = data.draw(random_valid_config((boundary,)))
    grid = cfg.occupancy_grid()
    cover = grid_face_cover(cfg.width, cfg.height, boundary, grid)
    assert cover.dtype == np.int8
    assert np.array_equal(cover, grid_face_cover_by_codes(cfg.width, cfg.height, boundary, grid))


@pytest.mark.parametrize(
    "width,height,boundary",
    [
        (4, 4, "periodic"),
        (6, 4, "periodic"),
        (4, 6, "free"),
        (6, 4, "fully_packed"),
        (6, 6, "fully_packed"),
    ],
)
def test_cached_face_cover_matches_per_call_codes_on_stacks(width, height, boundary):
    # every valid configuration of the grid, stacked as the component
    # harvest stacks them, under one and two leading axes
    masks = np.concatenate([m for m, _ in iter_mask_blocks(width, height, boundary)])
    extra = 0 if boundary == "periodic" else 1
    grids = np.zeros((len(masks), height + extra, width + extra), dtype=bool)
    for i, (x, y) in enumerate(model_sites(width, height, boundary)):
        grids[:, y, x] = masks >> np.uint64(i) & np.uint64(1)
    for stack in (grids, grids[: len(grids) // 2 * 2].reshape(2, -1, *grids.shape[1:])):
        assert np.array_equal(
            grid_face_cover(width, height, boundary, stack),
            grid_face_cover_by_codes(width, height, boundary, stack),
        )


@pytest.mark.parametrize(
    "width,height,boundary", [(6, 4, "periodic"), (4, 6, "free"), (6, 4, "fully_packed")]
)
def test_stick_edge_grids_of_a_stack_match_the_face_references(width, height, boundary):
    configs = [
        mask_to_configuration(width, height, boundary, mask)
        for mask, _ in iter_valid_masks(width, height, boundary)
    ]
    # under two leading axes
    covers = np.stack([face_cover(cfg) for cfg in configs])[:, None]
    ver, hor, x0, y0 = stick_edge_grids(width, height, boundary, covers)
    for cfg, v, h in zip(configs, ver[:, 0], hor[:, 0]):
        found = {("v", x + x0, y + y0) for y, x in np.argwhere(v).tolist()}
        found |= {("h", x + x0, y + y0) for y, x in np.argwhere(h).tolist()}
        assert found == stick_edges_by_faces(cfg)
