import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepack.errors import InsufficientData, ParameterError
from squarepack.lattice import BOUNDARIES, create_configuration
from squarepack.observables import (
    _residue_class_sizes,
    autocorrelation_curve,
    batch_mean_stderr,
    fit_decay_length,
    offset_row_vacancy_check,
    parity_density,
)
from squarepack.sampler import Chain, ChainParams, iter_samples, seed_phase_configuration

from oracles import model_sites, offset_row_vacancy_by_faces
from strategies import random_valid_config, striped_config


def test_batch_mean_stderr_iid():
    rng = np.random.default_rng(0)
    values = rng.normal(3.0, 1.0, size=3200)
    mean, err = batch_mean_stderr(values)
    assert mean == pytest.approx(3.0, abs=0.1)
    assert err == pytest.approx(1.0 / math.sqrt(3200), rel=0.6)


def test_batch_mean_stderr_empty():
    with pytest.raises(InsufficientData):
        batch_mean_stderr([])


def test_parity_density_ver0_packed():
    cfg = seed_phase_configuration(8, 8, "ver0")
    dens = parity_density([cfg])
    assert dens["odd_x"] == pytest.approx(0.5)
    assert dens["even_x"] == 0.0
    # alternating offsets split the odd columns between the y-classes
    assert dens["10"] + dens["11"] == pytest.approx(1.0)


def test_parity_density_empty():
    cfg = create_configuration(6, 6, "periodic", [])
    dens = parity_density([cfg])
    assert all(v == 0.0 for v in dens.values())


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("width,height", [(4, 4), (6, 4), (4, 10), (32, 256)])
def test_residue_class_sizes_count_model_sites(width, height, boundary):
    expected = {(i, j): 0 for i in (0, 1) for j in (0, 1)}
    for x, y in model_sites(width, height, boundary):
        expected[(x % 2, y % 2)] += 1
    assert _residue_class_sizes(width, height, boundary) == expected


def test_parity_weighted_sum_matches_global_density():
    rng = random.Random(3)
    cfgs = []
    for _ in range(5):
        occ = set()
        for _ in range(10):
            c = (rng.randrange(8), rng.randrange(8))
            try:
                create_configuration(8, 8, "periodic", occ | {c})
                occ.add(c)
            except Exception:
                pass
        cfgs.append(create_configuration(8, 8, "periodic", occ))
    dens = parity_density(cfgs)
    by_class = (dens["00"] + dens["01"] + dens["10"] + dens["11"]) / 4
    global_density = sum(c.tile_count for c in cfgs) / (64 * len(cfgs))
    assert by_class == pytest.approx(global_density, rel=1e-12)


def test_estimators_order_independent():
    cfgs = [
        create_configuration(8, 8, "periodic", occ)
        for occ in ([(1, 1)], [(3, 3), (6, 6)], [], [(1, 5)])
    ]
    assert parity_density(cfgs) == parity_density(list(reversed(cfgs)))


def test_fit_decay_length_exact_exponential():
    xi_true = 4.0
    curve = {d: math.exp(-d / xi_true) for d in range(1, 12)}
    xi, err = fit_decay_length(curve)
    assert xi == pytest.approx(xi_true, rel=1e-9)


def test_fit_decay_length_noise_floor():
    curve = {1: 1e-6, 2: 1e-7}
    xi, _ = fit_decay_length(curve, floor=1e-4)
    assert xi == 0.0


def test_correlation_length_iid_noise_below_resolution():
    rng = random.Random(5)
    cfgs = []
    for _ in range(60):
        occ = {
            (x, y)
            for x in range(1, 16, 4)
            for y in range(1, 16, 4)
            if rng.random() < 0.5
        }
        cfgs.append(create_configuration(16, 16, "periodic", occ))
    xi, _ = fit_decay_length(autocorrelation_curve(cfgs, "y", [2, 4, 6]), floor=0.05)
    assert xi == 0.0


def test_autocorrelation_curve_requires_torus():
    cfg = create_configuration(6, 6, "free", [])
    with pytest.raises(InsufficientData):
        autocorrelation_curve([cfg], "y", [2])


@pytest.mark.parametrize("axis", ["Y", "X", "z", "", 1])
def test_autocorrelation_curve_rejects_other_axes(axis):
    # any axis but "y" once read as x
    cfg = seed_phase_configuration(8, 8, "ver0")
    with pytest.raises(ParameterError):
        autocorrelation_curve([cfg], axis, [2])


def test_offset_row_vacancy_check_counts_four():
    # columns 1/3 and 9/11 fully packed with opposite offsets (wrapping
    # even sticks at x=2 and x=10), columns 5 and 7 empty except one
    # offset tile centered at even x=6: the columnar order proof forces
    # at least four vacancies in its rows between the flanking sticks
    w = h = 12
    occ = []
    for x, t in ((1, 0), (3, 1), (9, 1), (11, 0)):
        occ.extend((x, (1 + t + 2 * k) % h) for k in range(h // 2))
    occ.append((6, 5))
    cfg = create_configuration(w, h, "periodic", occ)
    results = offset_row_vacancy_check(cfg)
    flanked = [r for r in results if r["flanked"]]
    assert flanked, "the offset tile must be flanked by even sticks"
    for r in flanked:
        assert r["vacancies"] >= 4


def test_offset_row_vacancy_check_sees_sticks_across_the_seam():
    # the fifth sample of this chain has even sticks at x = 2 and 12 that
    # run from y = 12 past y = 0 to y = 2, flanking the tiles at (6, 1)
    # and (8, 1)
    params = ChainParams(
        16, 16, 30.0, 0, sweeps=100, burn_in=200, thinning=20,
        translation_move_fraction=0.1, initial="ver0",
    )
    samples = list(iter_samples(Chain(params)))
    rows = {r["center"]: r for r in offset_row_vacancy_check(samples[4])}
    for center in ((6, 1), (8, 1)):
        assert rows[center]["flanked"] and rows[center]["vacancies"] >= 4
    for cfg in samples:
        assert offset_row_vacancy_check(cfg) == offset_row_vacancy_by_faces(cfg)


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_valid_config(("periodic",)), striped_config(("periodic",))))
def test_offset_row_vacancy_check_matches_face_oracle(cfg):
    assert offset_row_vacancy_check(cfg) == offset_row_vacancy_by_faces(cfg)
