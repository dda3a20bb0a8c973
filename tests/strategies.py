"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from squarepack.errors import BoundaryConflict, DimensionError, OverlapError
from squarepack.lattice import BOUNDARIES, create_configuration


@st.composite
def random_valid_config(draw, boundaries=BOUNDARIES):
    w = draw(st.sampled_from([4, 6, 8]))
    h = draw(st.sampled_from([4, 6, 8]))
    boundary = draw(st.sampled_from(boundaries))
    occ = set()
    attempts = draw(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12)
    )
    for x, y in attempts:
        if boundary == "periodic":
            c = (x % w, y % h)
        else:
            c = (min(x, w), min(y, h))
        try:
            create_configuration(w, h, boundary, occ | {c})
        except (OverlapError, BoundaryConflict, DimensionError):
            continue
        occ.add(c)
    return create_configuration(w, h, boundary, occ)


@st.composite
def striped_config(draw, boundaries=BOUNDARIES):
    """Columns of stacked tiles at odd x, each shifted up by a drawn 0 or 1,
    with drawn tiles removed and the axes drawn to be exchanged: long
    sticks of every type, which sparse random placements rarely give."""
    w = draw(st.sampled_from([4, 6, 8]))
    h = draw(st.sampled_from([4, 6, 8]))
    boundary = draw(st.sampled_from(boundaries))
    periodic = boundary == "periodic"
    occ = []
    for x in range(1, w, 2):
        shift = draw(st.integers(0, 1))
        ys = range(1 + shift, h + 1 if periodic else h, 2)
        occ.extend((x, y % h) for y in ys if draw(st.integers(0, 5)))
    cfg = create_configuration(w, h, boundary, occ)
    return cfg.transpose() if draw(st.booleans()) else cfg
