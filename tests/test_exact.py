import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from squarepack import exact, graphs, lattice
from squarepack.errors import (
    NonpositiveFugacity,
    OddLength,
    OutOfFloatRange,
    ParameterError,
    TooLarge,
)

from oracles import (
    cyclic_independent_set_counts,
    event_weight,
    is_face_vacant,
    mask_to_configuration,
    row_sequence_counts,
    torus_partition_counts,
    transfer_coefficients_by_full_walk,
    transfer_coefficients_by_orbits,
    transfer_coefficients_by_rows,
    z1d_periodic_enumeration,
)


# -- one-dimensional transfer matrix ------------------------------------


def test_one_dim_transfer_golden_ratio():
    gp, gm = exact.one_dim_transfer(1.0)
    assert gp == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-12)
    assert gm == pytest.approx((1 - math.sqrt(5)) / 2, rel=1e-12)


def test_one_dim_transfer_large_lambda_limit():
    gp, gm = exact.one_dim_transfer(1e12)
    assert gp == pytest.approx(1.0, abs=1e-5)
    assert gm == pytest.approx(-1.0, abs=1e-5)


@given(st.floats(min_value=0.01, max_value=1e6))
def test_one_dim_transfer_determinant(lam):
    gp, gm = exact.one_dim_transfer(lam)
    assert gp * gm == pytest.approx(-1.0, rel=1e-9)


def test_one_dim_transfer_rejects_nonpositive():
    with pytest.raises(NonpositiveFugacity):
        exact.one_dim_transfer(0.0)
    with pytest.raises(NonpositiveFugacity):
        exact.one_dim_transfer(-2.0)


def test_z1d_periodic_small_values():
    assert exact.z1d_periodic(2, 1.0) == pytest.approx(3.0, rel=1e-12)
    assert exact.z1d_periodic(4, 1.0) == pytest.approx(7.0, rel=1e-12)
    assert exact.z1d_periodic(2, 4.0) == pytest.approx(2.25, rel=1e-12)


def test_z1d_periodic_rejects_odd():
    with pytest.raises(OddLength):
        exact.z1d_periodic(3, 1.0)


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0, 100.0])
def test_z1d_periodic_matches_sequence_enumeration(length, lam):
    oracle = z1d_periodic_enumeration(length, lam)
    assert exact.z1d_periodic(length, lam) == pytest.approx(oracle, rel=1e-12)


def test_z1d_values_beyond_the_float_range():
    # a coefficient beyond the float range in a value within it: the
    # sum is taken from its log
    assert exact.z1d_free(2000, 1e300) == pytest.approx(1.0, rel=1e-12)
    for z1d in (exact.z1d_periodic, exact.z1d_free):
        with pytest.raises(OutOfFloatRange, match="exceeds the float range"):
            z1d(20, 1e-300)


@pytest.mark.parametrize("length", [2, 4, 8, 12])
def test_z1d_periodic_polynomial_identity(length):
    # Tr(M^L) in t = lam^(-1/2) has coefficient N_cyc(L, n) at power L - 2n
    counts = cyclic_independent_set_counts(length)
    for lam in (0.5, 4.0):
        t = lam**-0.5
        expected = sum(c * t ** (length - 2 * n) for n, c in enumerate(counts))
        assert exact.z1d_periodic(length, lam) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("length", [2, 4, 6, 10, 20])
@pytest.mark.parametrize("lam", [0.25, 1.0, 9.0])
def test_z1d_periodic_lower_bound(length, lam):
    assert exact.z1d_periodic(length, lam) >= (1 + 0.5 * lam**-0.5) ** length


def test_z1d_free_values():
    assert exact.z1d_free(0, 3.0) == pytest.approx(1.0)
    assert exact.z1d_free(2, 4.0) == pytest.approx(1.25, rel=1e-12)
    # L=4: n=0: C(4,0) lam^-2, n=1: C(3,1) lam^-1, n=2: C(2,2) lam^0
    lam = 2.0
    assert exact.z1d_free(4, lam) == pytest.approx(
        lam**-2 + 3 * lam**-1 + 1, rel=1e-12
    )


@pytest.mark.parametrize("length", [2, 6, 10, 20])
@pytest.mark.parametrize("lam", [0.5, 4.0, 100.0])
def test_z1d_free_quadratic_lower_bound(length, lam):
    assert exact.z1d_free(length, lam) >= 1 + length**2 / (8 * lam)


# -- partition polynomials -----------------------------------------------


def test_partition_4x4_torus_against_mask_oracle():
    # direct enumeration over all 2^16 masks with pairwise checks
    oracle = torus_partition_counts(4, 4)
    poly = exact.partition_polynomial(4, 4, "periodic", method="brute")
    assert poly.coefficients == oracle
    assert poly.coefficients == (1, 16, 56, 48, 12)


@pytest.mark.parametrize(
    "dims,boundary",
    [
        ((4, 4), "periodic"),
        ((4, 6), "periodic"),
        ((6, 4), "periodic"),
        ((6, 6), "periodic"),
        ((8, 4), "periodic"),
        ((4, 4), "free"),
        ((6, 6), "free"),
        ((6, 4), "fully_packed"),
        ((4, 8), "periodic"),
        ((6, 4), "free"),
        ((4, 6), "fully_packed"),
        # wide regions the listing cap admits, which the transfer transposes
        ((10, 4), "periodic"),
        ((12, 4), "free"),
        ((8, 6), "free"),
        # the largest torus the listing cap admits (164,557 configurations)
        # and the wide free regions, each tall as well
        ((4, 10), "periodic"),
        ((4, 12), "free"),
        ((6, 8), "free"),
    ],
)
def test_brute_and_transfer_agree(dims, boundary):
    w, h = dims
    brute = exact.partition_polynomial(w, h, boundary, method="brute")
    transfer = exact.partition_polynomial(w, h, boundary, method="transfer")
    assert brute.coefficients == transfer.coefficients


@pytest.mark.parametrize(
    "dims,boundary",
    [
        ((8, 8), "periodic"),
        ((10, 10), "periodic"),
        ((8, 6), "periodic"),
        ((6, 10), "periodic"),
        ((12, 4), "periodic"),
        ((12, 12), "free"),
        ((14, 8), "free"),
        ((12, 12), "fully_packed"),
        ((14, 8), "fully_packed"),
        # coefficients beyond 2^63: no fixed-width packing holds them
        ((14, 14), "free"),
    ],
)
def test_transfer_matches_row_by_row_reference(dims, boundary):
    w, h = dims
    poly = exact.partition_polynomial(w, h, boundary, method="transfer")
    assert poly.coefficients == exact._trim(transfer_coefficients_by_rows(w, h, boundary))
    if (w, h) == (14, 14):
        assert max(poly.coefficients) > 2**63


@pytest.mark.parametrize("boundary", ["periodic", "free", "fully_packed"])
def test_transfer_matches_walk_per_orbit(boundary):
    # one walk per start orbit and an exact count walk for the limb, and
    # the walk over every row, closed onto each start on a torus
    for w in range(4, 11, 2):
        for h in range(4, 13, 2):
            got = exact._transfer_coefficients(w, h, boundary)
            assert got == transfer_coefficients_by_orbits(w, h, boundary), (w, h)
            assert got == transfer_coefficients_by_full_walk(w, h, boundary), (w, h)


@pytest.mark.parametrize("dims", [(12, 12), (14, 8)])
def test_transfer_matches_walk_per_orbit_on_wide_tori(dims):
    # 26 and 49 start orbits, in one and two walks of packed starts
    w, h = dims
    got = exact._transfer_coefficients(w, h, "periodic")
    assert got == transfer_coefficients_by_orbits(w, h, "periodic")
    assert got == transfer_coefficients_by_full_walk(w, h, "periodic")


@pytest.mark.parametrize("dims", [(8, 8), (10, 6), (6, 10), (12, 4)])
def test_transfer_with_one_start_a_walk(monkeypatch, dims):
    w, h = dims
    monkeypatch.setattr(exact, "PACK_BITS", 1 << 40)
    together = exact._transfer_coefficients(w, h, "periodic")
    monkeypatch.setattr(exact, "PACK_BITS", 1)
    assert exact._transfer_coefficients(w, h, "periodic") == together


def _record_walks(monkeypatch):
    """Each torus walk's start count and its largest packed int."""
    walks = []
    walk = exact._walk

    def recording(vec, first, flat, shifts, steps):
        out = walk(vec, first, flat, shifts, steps)
        walks.append((sum(1 for x in vec if x), max(x.bit_length() for x in out)))
        return out

    monkeypatch.setattr(exact, "_walk", recording)
    return walks


@pytest.mark.parametrize("dims,budget", [((10, 10), None), ((12, 12), 4096), ((8, 8), 1000)])
def test_torus_walk_keeps_packed_ints_within_the_budget(monkeypatch, dims, budget):
    w, h = dims
    want = exact._transfer_coefficients(w, h, "periodic")
    if budget is not None:
        monkeypatch.setattr(exact, "PACK_BITS", budget)
    walks = _record_walks(monkeypatch)
    assert exact._transfer_coefficients(w, h, "periodic") == want
    assert sum(starts for starts, _ in walks) == len(
        exact._dihedral_orbits(lattice._row_states(w, True), w)[0]
    )
    assert all(bits <= exact.PACK_BITS for _, bits in walks)
    if budget is not None:
        assert len(walks) > 1


def test_torus_walk_14x40_groups_within_the_budget(monkeypatch):
    # the walks themselves are left out: only the starts they would be given
    walks = []
    monkeypatch.setattr(
        exact, "_walk", lambda vec, *_: walks.append(sum(1 for x in vec if x)) or vec
    )
    exact._transfer_coefficients(14, 40, "periodic")
    _, _, degree, first, flat = lattice._row_tables(14, True)
    # a start's field holds, in whole bytes, the at most 10 * 7 tiles of
    # the 19 rows between it and the middle row
    field = -(-(10 * 7 + 1) * exact._limb(degree, first, flat, 40) // 8) * 8
    assert sum(walks) == 49
    assert all(starts * field <= exact.PACK_BITS for starts in walks)
    assert max(walks) == 2


@pytest.mark.parametrize("positions", range(1, 15))
@pytest.mark.parametrize("cyclic", [True, False])
def test_limb_holds_every_row_sequence_count(positions, cyclic):
    _, _, degree, first, flat = lattice._row_tables(positions, cyclic)
    for nrows, count in enumerate(row_sequence_counts(positions, cyclic, 40), start=1):
        limb = exact._limb(degree, first, flat, nrows)
        assert count.bit_length() <= limb <= count.bit_length() + 2, nrows


def test_limb_of_a_long_torus():
    # 290 rows of 14 sites: counts far beyond the float range
    _, _, degree, first, flat = lattice._row_tables(14, True)
    count = row_sequence_counts(14, True, 290)[-1]
    assert count.bit_length() > 1024
    assert count.bit_length() <= exact._limb(degree, first, flat, 290) <= count.bit_length() + 2


@pytest.mark.parametrize("dims", [(4, 10), (6, 8), (8, 10), (6, 12)])
def test_torus_polynomial_invariant_under_transposition(dims):
    # the transfer runs along the narrow side whichever way round the
    # region comes; the reference walks every row along the wide side
    w, h = dims
    for boundary in ("periodic", "free", "fully_packed"):
        tall = exact.partition_polynomial(w, h, boundary)
        wide = exact.partition_polynomial(h, w, boundary)
        assert wide.coefficients == tall.coefficients, boundary
        assert tall.coefficients == exact._trim(transfer_coefficients_by_full_walk(h, w, boundary))


def test_wide_torus_runs_along_its_narrow_side():
    # 16 sites exceed the transfer's width cap; the 4-wide side does not.
    # The reference walks the 2,207 rows of 16 sites.
    wide = exact.partition_polynomial(16, 4)
    assert wide.coefficients == exact.partition_polynomial(4, 16).coefficients
    assert wide.coefficients == exact._trim(transfer_coefficients_by_full_walk(16, 4, "periodic"))
    assert sum(wide.coefficients) == 221_482_181


def test_free_and_fully_packed_polynomials_coincide():
    # for even rectangles the two boundary conditions admit the same
    # interior configurations
    free = exact.partition_polynomial(6, 6, "free")
    packed = exact.partition_polynomial(6, 6, "fully_packed")
    assert free.coefficients == packed.coefficients


def test_a0_is_one_and_bounds():
    poly = exact.partition_polynomial(6, 4, "periodic")
    assert poly.coefficients[0] == 1
    assert all(a >= 0 for a in poly.coefficients)
    assert len(poly.coefficients) - 1 <= poly.area // 4


def test_partition_too_large():
    with pytest.raises(TooLarge):
        exact.partition_polynomial(10, 10, "periodic", method="brute")
    # both sides beyond the transfer's width cap, and an area beyond its cap
    with pytest.raises(TooLarge, match="got the 16x16 region"):
        exact.partition_polynomial(16, 16, "periodic", method="transfer")
    with pytest.raises(TooLarge, match="got the 4x1026 region"):
        exact.partition_polynomial(1026, 4, "periodic", method="transfer")
    # beyond the 64-bit masks
    with pytest.raises(TooLarge):
        exact.partition_polynomial(4, 18, "periodic", method="brute")


@pytest.mark.parametrize(
    "dims,boundary,count",
    [((8, 8), "periodic", 157_763_829), ((10, 6), "free", 4_005_785), ((8, 8), "fully_packed", 12_727_570)],
)
def test_listing_cap_refuses_before_listing(monkeypatch, dims, boundary, count):
    # 64 and 45 sites fit the masks; the transfer's count is refused
    # before a configuration is listed, by brute force or the harvest
    def unreachable(*args):
        raise AssertionError("a configuration was listed")

    monkeypatch.setattr(exact, "iter_mask_blocks", unreachable)
    monkeypatch.setattr(graphs, "iter_mask_blocks", unreachable)
    w, h = dims
    with pytest.raises(TooLarge, match=f"has {count} configurations, more than the 262144"):
        exact.partition_polynomial(w, h, boundary, method="brute")
    if boundary == "fully_packed":
        with pytest.raises(TooLarge, match=f"has {count} configurations"):
            graphs.enumerate_components(w, h)


def test_listing_cap_is_inclusive(monkeypatch):
    # the 6x6 free region has 6,427 configurations
    monkeypatch.setattr(exact, "LISTING_CAP", 6427)
    assert sum(exact.partition_polynomial(6, 6, "free", method="brute").coefficients) == 6427
    monkeypatch.setattr(exact, "LISTING_CAP", 6426)
    with pytest.raises(TooLarge, match="has 6427 configurations"):
        exact.partition_polynomial(6, 6, "free", method="brute")


def test_unknown_method_is_a_parameter_error():
    # the caller picks no policy: 'auto' is not a method
    for method in ("nope", "auto"):
        with pytest.raises(ParameterError, match=f"unknown method '{method}'"):
            exact.partition_polynomial(4, 4, "periodic", method=method)


def test_evaluations_and_report():
    poly = exact.partition_polynomial(4, 4, "periodic")
    lam = 2.0
    tile = sum(a * lam**n for n, a in enumerate(poly.coefficients))
    assert poly.evaluate_tile(lam) == pytest.approx(tile)
    assert poly.evaluate_vacancy(lam) == pytest.approx(tile * lam**-4)
    report = poly.report([1.0, 2.0])
    assert report["coefficients"] == [1, 16, 56, 48, 12]
    assert len(report["evaluations"]) == 2


def test_evaluation_beyond_float_range():
    # Z = 1 + 10^400 lam: the coefficient does not fit in a float, the
    # sum does at lam = 1e-300 and does not at lam = 1
    poly = exact.PartitionPolynomial(4, 4, "periodic", (1, 10**400))
    assert poly.evaluate_tile(1e-300) == pytest.approx(1e100)
    assert poly.log_tile(1e-300) == pytest.approx(100 * math.log(10))
    assert poly.evaluate_tile(1.0) is None
    assert poly.log_tile(1.0) == pytest.approx(400 * math.log(10))
    assert poly.log_vacancy(2.0) == pytest.approx(poly.log_tile(2.0) - 4 * math.log(2))
    with pytest.raises(NonpositiveFugacity):
        poly.log_tile(0.0)


# -- event weights ---------------------------------------------------------


def test_event_weight_true_false():
    lam = 2.0
    poly = exact.partition_polynomial(4, 4, "periodic")
    z = event_weight(4, 4, "periodic", lam, lambda cfg: True)
    assert z == pytest.approx(poly.evaluate_vacancy(lam), rel=1e-12)
    assert event_weight(4, 4, "periodic", lam, lambda cfg: False) == 0.0


def test_event_weight_face_vacant():
    from squarepack.lattice import iter_valid_masks

    lam = 1.0
    w = event_weight(
        4, 4, "periodic", lam, lambda cfg: is_face_vacant(cfg, (0, 0))
    )
    # at lam=1 every configuration has weight 1: count configurations
    # leaving the face at (0, 0) vacant
    count = sum(
        1
        for mask, _ in iter_valid_masks(4, 4, "periodic")
        if is_face_vacant(mask_to_configuration(4, 4, "periodic", mask), (0, 0))
    )
    assert w == pytest.approx(count, rel=1e-12)


def test_z1d_periodic_equals_torus_event_weight():
    # the smallest representable torus is 4 wide, holding two independent
    # odd columns; restricting to a single column recovers the periodic
    # 1D value up to the empty strip's exact factor lam^(-L/2), and
    # restricting to even horizontal parity squares it.
    lam = 3.0
    for length in (4, 6):
        single = event_weight(
            4,
            length,
            "periodic",
            lam,
            lambda cfg: all(x == 1 for x, _ in cfg.occupied),
        )
        z = exact.z1d_periodic(length, lam)
        assert single * lam ** (length / 2.0) == pytest.approx(z, rel=1e-12)
        both = event_weight(
            4, length, "periodic", lam, lambda cfg: all(x % 2 for x, _ in cfg.occupied)
        )
        assert both == pytest.approx(z * z, rel=1e-12)
