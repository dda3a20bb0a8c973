import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepack import errors
from squarepack.cli import main
from squarepack.exact import partition_polynomial
from squarepack.lattice import create_configuration, decode, encode, from_json
from squarepack.sampler import OBSERVABLES, seed_phase_configuration

from oracles import to_json
from strategies import random_valid_config

# the package as the tests import it, for the module entry point run in
# a child process, with or without an installed copy
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_exact1d_prints_seven(capsys):
    code, out, _ = run_cli(["exact1d", "--L", "4", "--lambda", "1"], capsys)
    assert code == 0
    assert out.strip() == "7"


def test_exact1d_free(capsys):
    code, out, _ = run_cli(["exact1d", "--L", "2", "--lambda", "4", "--free"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(1.25)


def test_exact1d_odd_length_error(capsys):
    code, out, err = run_cli(["exact1d", "--L", "3", "--lambda", "1"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "OddLength"


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["exact1d", "--L", "4", "--lambda", "-inf"],
        ["exact2d", "--width", "abc", "--height", "4"],
        ["chessboard", "--width", "8", "--height", "8", "--area-cap", "64"],
        ["exact2d", "--width", "4", "--height", "4", "--threads", "2"],
        ["exact1d", "--lambda", "1"],
        ["exact2d", "--width", "4", "--height", "4", "--area-cap", "36"],
        ["exact2d", "--width", "4", "--height", "4", "--method", "auto"],
        ["components", "--width", "4", "--height", "4", "--threads", "2"],
    ],
)
def test_parse_errors_are_json_errors(argv, capsys):
    # an unknown subcommand, a value argparse reads as an option, a
    # malformed value, removed options and choices, and a missing value
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chessboard", "--help"])
    assert exc.value.code == 0
    assert "--face-x" in capsys.readouterr().out


def test_exact2d_report(tmp_path, capsys):
    out = tmp_path / "poly.json"
    code, _, _ = run_cli(
        [
            "exact2d",
            "--width",
            "4",
            "--height",
            "4",
            "--lambda",
            "2",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["coefficients"] == [1, 16, 56, 48, 12]
    assert report["spec"]["width"] == 4
    assert report["spec"]["method"] == "transfer"
    assert report["evaluations"][0]["lambda"] == 2


def test_exact2d_reports_log_beyond_float_range(capsys):
    code, out, err = run_cli(
        ["exact2d", "--width", "4", "--height", "4"]
        + ["--lambda", "1e100", "--lambda", "1e-100"],
        capsys,
    )
    assert code == 0, err
    big, small = json.loads(out)["evaluations"]
    # a_4 = 12 tiles dominate at lambda = 1e100, a_0 = 1 at 1e-100
    assert big["value_tile_convention"] is None
    assert big["log_value_tile_convention"] == pytest.approx(400 * math.log(10) + math.log(12))
    assert big["value_vacancy_convention"] == pytest.approx(12.0)
    assert small["value_tile_convention"] == pytest.approx(1.0)
    assert small["value_vacancy_convention"] is None
    assert small["log_value_vacancy_convention"] == pytest.approx(400 * math.log(10))


def test_chessboard_bound(capsys):
    code, out, _ = run_cli(
        ["chessboard", "--width", "4", "--height", "4", "--lambda", "16"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_holds"] is True
    assert payload["zeta"] <= 16 ** -0.25 + 1e-12


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("lam", ["1e100", "1e300"])
def test_chessboard_huge_fugacity_prints_strict_json(lam, capsys):
    # lam^tiles overflows here; zeta comes from logs and stays finite
    code, out, _ = run_cli(["chessboard", "--width", "4", "--height", "4", "--lambda", lam], capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert 0 < payload["zeta"] <= float(lam) ** -0.25
    assert payload["bound_holds"] is True


@pytest.mark.parametrize("lam", ["nan", "inf", "0"])
def test_chessboard_rejects_fugacity_not_positive_and_finite(lam, capsys):
    code, out, err = run_cli(["chessboard", "--width", "4", "--height", "4", "--lambda", lam], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "NonpositiveFugacity"


@pytest.mark.parametrize("dims", [(8, 8), (4, 18)])
def test_chessboard_face_vacant_is_root_of_transfer_partition(dims, capsys):
    # only the empty configuration leaves every face vacant, so zeta is
    # Z_tile^(-1/WH); 8x8 has 157,763,829 configurations and 4x18 has 72
    # sites, both beyond what a listing of configurations can hold
    w, h = dims
    code, out, err = run_cli(
        ["chessboard", "--width", str(w), "--height", str(h), "--lambda", "30"], capsys
    )
    assert (code, err) == (0, "")
    z = partition_polynomial(w, h, "periodic", method="transfer").evaluate_tile(30.0)
    assert json.loads(out)["zeta"] == pytest.approx(z ** (-1.0 / (w * h)), rel=1e-12)


def test_chessboard_wide_torus_rejected_before_counting():
    # the 20x20 torus's kernels would hold 101 x 15,127^2 floats; the
    # refusal comes from the row count, before the 15,127 row states of a
    # 20-site row are listed
    proc = subprocess.run(
        [sys.executable, "-m", "squarepack.cli", "chessboard"]
        + ["--width", "20", "--height", "20", "--lambda", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env=CLI_ENV,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "TooLarge"
    assert "23111439029" in error["message"]


def test_brute_beyond_64_sites_rejected_before_enumeration():
    # 72 torus sites exceed the 64-bit masks; a site-by-site search would
    # list 2,446,240,685 configurations
    proc = subprocess.run(
        [sys.executable, "-m", "squarepack.cli", "exact2d", "--width", "4"]
        + ["--height", "18", "--method", "brute"],
        capture_output=True,
        text=True,
        timeout=60,
        env=CLI_ENV,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "TooLarge"


def test_package_starts_no_process_machinery():
    # every command runs in one process, so no pool module is imported
    code = (
        "import sys, squarepack.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sample_deterministic(tmp_path, capsys):
    spec = {
        "width": 4,
        "height": 4,
        "lambda": 2.0,
        "seed": 5,
        "sweeps": 50,
        "burn_in": 10,
        "observables": ["tile_density", "parity_density"],
    }
    spec_path = tmp_path / "run.json"
    spec_path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["sample", "--spec", str(spec_path), "--out", str(out1)], capsys)[0] == 0
    assert run_cli(["sample", "--spec", str(spec_path), "--out", str(out2)], capsys)[0] == 0
    assert out1.read_text() == out2.read_text()
    report = json.loads(out1.read_text())
    assert report["params"]["seed"] == 5


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"boundary": "free", "burn_in": 7, "thinning": 3, "initial": "hor1"},
        {"boundary": "fully_packed", "initial": "empty", "observables": ["parity_density"]},
        {"keep_samples": True, "observables": ["tile_count", "phase"]},
    ],
)
def test_sample_flags_and_spec_give_the_same_bytes(tmp_path, capsys, fields):
    spec = {"width": 6, "height": 8, "lambda": 3.0, "seed": 9, "sweeps": 40, **fields}
    spec_path = tmp_path / "run.json"
    spec_path.write_text(json.dumps(spec))
    flags = []
    for name, value in spec.items():
        flag = "--" + name.replace("_", "-")
        if name == "observables":
            flags += [flag, *value]
        elif name == "keep_samples":
            flags.append(flag)
        else:
            flags.append(f"{flag}={value}")
    by_spec, by_flags = tmp_path / "spec.json", tmp_path / "flags.json"
    assert run_cli(["sample", "--spec", str(spec_path), "--out", str(by_spec)], capsys)[0] == 0
    assert run_cli(["sample", *flags, "--out", str(by_flags)], capsys)[0] == 0
    assert by_flags.read_bytes() == by_spec.read_bytes()


def test_sample_spec_missing_fields(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"width": 4}))
    code, _, err = run_cli(["sample", "--spec", str(spec_path)], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "SpecError"


@pytest.mark.parametrize(
    "spec,named",
    [
        ({"width": 4, "height": 4, "lambda": 2.0, "seed": 5, "sweeps": 50, "burnin": 500}, "burnin"),
        ([4, 4], "not a JSON object"),
    ],
)
def test_sample_spec_rejected(tmp_path, capsys, spec, named):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(spec))
    code, _, err = run_cli(["sample", "--spec", str(spec_path)], capsys)
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "SpecError"
    assert named in error["message"]


@pytest.mark.parametrize(
    "field,value",
    [
        ("sweeps", 1.5),
        ("thinning", 2.5),
        ("width", 8.0),
        ("lambda", "2"),
        ("seed", 1.5),
        ("translation_move_fraction", None),
        ("burn_in", True),
    ],
)
def test_sample_spec_field_of_the_wrong_type(tmp_path, capsys, field, value):
    spec = {"width": 4, "height": 4, "lambda": 2.0, "seed": 5, "sweeps": 5, field: value}
    spec_path = tmp_path / "typed.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run_cli(["sample", "--spec", str(spec_path)], capsys)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError"
    assert field in error["message"]


@pytest.mark.parametrize("center", [[1.5, 2], [2.0, 2], [True, 2], ["1", 2]])
def test_phase_of_a_json_configuration_with_a_non_integer_center(tmp_path, capsys, center):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"width": 4, "height": 4, "boundary": "periodic", "occupied": [center]})
    )
    code, out, err = run_cli(["phase", "--in", str(cfg_path)], capsys)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["type"] == "DimensionError"
    assert "not an integer" in error["message"]


def test_sample_unknown_observable(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "sample",
            "--width",
            "4",
            "--height",
            "4",
            "--sweeps",
            "5",
            "--observables",
            "entropy",
        ],
        capsys,
    )
    assert code == 1
    assert "entropy" in json.loads(err)["error"]["message"]


def test_sticks_phase_render_pipeline(tmp_path, capsys):
    cfg = seed_phase_configuration(16, 16, "ver0")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(encode(cfg))

    code, out, _ = run_cli(
        ["sticks", "--in", str(cfg_path), "--psi", "4", "4", "ver0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_sticks"] == sum(
        c["count"] for c in payload["census"].values()
    )
    assert payload["psi"]["points"]

    code, out, _ = run_cli(["phase", "--in", str(cfg_path), "--b", "4"], capsys)
    assert code == 0
    assert json.loads(out)["phase"] == "ver0"

    svg_path = tmp_path / "img.svg"
    code, _, _ = run_cli(
        ["render", "--in", str(cfg_path), "--out", str(svg_path)], capsys
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    # all four parity colors appear after translating one tile family
    ppm_path = tmp_path / "img.ppm"
    code, _, _ = run_cli(
        ["render", "--in", str(cfg_path), "--out", str(ppm_path), "--style", "ppm"],
        capsys,
    )
    assert code == 0
    assert ppm_path.read_bytes().startswith(b"P6\n")


def test_sticks_psi_snapshot(tmp_path, capsys):
    # an aligned packing with one column run shifted up and one row run
    # shifted right: two finite vertical and two finite horizontal sticks
    occ = {(x, y) for x in range(1, 16, 2) for y in range(1, 16, 2)}
    occ -= {(5, 3), (5, 5), (5, 7), (5, 9), (7, 11), (9, 11), (11, 11), (13, 11)}
    occ |= {(5, 4), (5, 6), (5, 8), (8, 11), (10, 11), (12, 11)}
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(encode(create_configuration(16, 16, "fully_packed", sorted(occ))))
    empty, ver_rows, hor_rows = "0" * 13, "0010100000000", "0000000111000"
    expected = {
        "ver": (
            [[2, 3], [2, 4], [2, 5], [4, 3], [4, 4], [4, 5]],
            [empty] * 7 + [ver_rows] * 3 + [empty] * 3,
        ),
        "hor": (
            [[7, 8], [7, 10], [8, 8], [8, 10], [9, 8], [9, 10]],
            [empty, empty, hor_rows, empty, hor_rows] + [empty] * 8,
        ),
    }
    for stype, (points, bitmap) in expected.items():
        code, out, _ = run_cli(["sticks", "--in", str(cfg_path), "--psi", "1", "1", stype], capsys)
        assert code == 0
        psi = json.loads(out)["psi"]
        assert (psi["points"], psi["bitmap"]) == (points, bitmap)


@pytest.mark.parametrize(
    "args",
    [
        ["sticks", "--psi", "0", "2", "ver"],
        ["sticks", "--psi", "-1", "2", "ver"],
        ["sticks", "--psi", "2", "2", "ver", "--N", "0"],
        ["phase", "--N", "0", "--lambda", "100"],
        ["phase", "--N", "-4"],
        ["sticks", "--N", "0"],
    ],
)
def test_bad_window_scales_rejected(tmp_path, capsys, args):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(encode(seed_phase_configuration(16, 16, "ver0")))
    code, out, err = run_cli([args[0], "--in", str(cfg_path), *args[1:]], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "DimensionError"


def test_render_four_parity_colors(tmp_path, capsys):
    from squarepack.lattice import create_configuration
    from squarepack.render import PARITY_COLORS, render_svg

    cfg = create_configuration(8, 6, "free", [(1, 1), (1, 4), (4, 1), (4, 4)])
    svg = render_svg(cfg)
    for color in PARITY_COLORS.values():
        assert color in svg


def test_render_ppm_tile_pixels_have_their_parity_svg_color():
    from squarepack.render import BACKGROUND, PARITY_COLORS, render_ppm

    # one tile of each parity class (centre - 1 mod 2), drawn without sticks
    tiles = {(1, 1): (0, 0), (4, 1): (1, 0), (1, 4): (0, 1), (4, 4): (1, 1)}
    cfg = create_configuration(8, 6, "free", list(tiles))
    cell = 3
    magic, size, depth, pixels = render_ppm(cfg, cell=cell, stick_overlay=False).split(b"\n", 3)
    width_px = int(size.split()[0])

    def color(x, row):
        offset = 3 * (row * width_px + x)
        return "#" + pixels[offset : offset + 3].hex()

    for (cx, cy), parity in tiles.items():
        # the pixel right of and below the tile's centre; y grows upward
        assert color(cx * cell, (cfg.height - cy) * cell) == PARITY_COLORS[parity]
    assert color(0, 0) == BACKGROUND


def test_render_image_unknown_style_is_a_parameter_error(tmp_path):
    from squarepack.render import render_image

    path = tmp_path / "img.gif"
    with pytest.raises(errors.ParameterError, match="unknown style 'gif'"):
        render_image(seed_phase_configuration(4, 4, "ver0"), str(path), style="gif")
    assert not path.exists()


def test_render_stick_overlay_count(tmp_path):
    from squarepack.render import render_svg
    from squarepack.sticks import extract_sticks

    cfg = seed_phase_configuration(8, 8, "ver0")
    svg = render_svg(cfg, stick_overlay=True)
    n_sticks = len(extract_sticks(cfg))
    assert svg.count('stroke="#2f9e44"') == n_sticks


def _ppm_color(data):
    """The colour of pixel (column, row) of a binary PPM raster."""
    _, size, _, pixels = data.split(b"\n", 3)
    width_px = int(size.split()[0])
    return lambda x, row: "#" + pixels[3 * (row * width_px + x) : 3 * (row * width_px + x) + 3].hex()


def _chain_sample(boundary, seed):
    from squarepack.sampler import Chain, ChainParams

    return Chain(ChainParams(8, 6, 4.0, seed=seed, sweeps=0, boundary=boundary)).sweep(20).configuration()


@pytest.mark.parametrize("boundary", ["periodic", "free", "fully_packed"])
@pytest.mark.parametrize("seed", range(4))
def test_render_ppm_face_centres_have_their_cover_color(boundary, seed):
    # on a torus the tiles on the seam show on both sides of the picture
    from squarepack.lattice import FACE_MARGIN, face_cover
    from squarepack.render import BACKGROUND, PARITY_COLORS, render_ppm

    cfg, cell, m = _chain_sample(boundary, seed), 4, FACE_MARGIN
    color = _ppm_color(render_ppm(cfg, cell=cell, stick_overlay=False))
    cover = face_cover(cfg)
    for fy in range(cfg.height):
        for fx in range(cfg.width):
            code = int(cover[fy + m, fx + m])
            want = BACKGROUND if code < 0 else PARITY_COLORS[divmod(code, 2)]
            assert color(fx * cell + cell // 2, (cfg.height - fy - 1) * cell + cell // 2) == want


@pytest.mark.parametrize("boundary", ["periodic", "free", "fully_packed"])
@pytest.mark.parametrize("seed", range(4))
def test_render_ppm_stick_edge_midpoints_have_the_stick_color(boundary, seed):
    from squarepack.render import STICK_COLOR, render_ppm
    from squarepack.sticks import detect_stick_edges

    cfg, cell = _chain_sample(boundary, seed), 4
    color = _ppm_color(render_ppm(cfg, cell=cell))
    width_px, height_px = cfg.width * cell, cfg.height * cell
    for kind, x, y in detect_stick_edges(cfg):
        if kind == "v":
            px, row = x * cell, (cfg.height - y - 1) * cell + cell // 2
        else:
            px, row = x * cell + cell // 2, (cfg.height - y) * cell
        if 0 <= px < width_px and 0 <= row < height_px:
            assert color(px, row) == STICK_COLOR, (kind, x, y)


def test_render_torus_tile_on_the_seam_drawn_on_both_sides():
    from squarepack.render import PARITY_COLORS, render_ppm, render_svg

    # the tile at (0, 2) covers the faces x = 3 and x = 0, y = 1 and 2
    cfg, cell = create_configuration(4, 4, "periodic", [(0, 2)]), 2
    color = _ppm_color(render_ppm(cfg, cell=cell))
    painted = PARITY_COLORS[(1, 1)]
    for fx in (3, 0):
        for fy in (1, 2):
            assert color(fx * cell + 1, (4 - fy - 1) * cell + 1) == painted
    svg = render_svg(cfg, cell=cell)
    assert svg.count(f'fill="{painted}"') == 2
    assert f'<rect x="6" y="2" width="4" height="4" fill="{painted}"' in svg


def test_render_bytes_independent_of_hash_seed(tmp_path):
    from squarepack.sampler import Chain, ChainParams

    chain = Chain(ChainParams(16, 16, 10.0, seed=3, sweeps=0)).sweep(50)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(encode(chain.configuration()))
    images = []
    for hash_seed in ("1", "3"):
        svg_path = tmp_path / f"img{hash_seed}.svg"
        subprocess.run(
            [sys.executable, "-m", "squarepack.cli", "render"]
            + ["--in", str(cfg_path), "--out", str(svg_path)],
            env={**CLI_ENV, "PYTHONHASHSEED": hash_seed},
            check=True,
        )
        images.append(svg_path.read_bytes())
    assert images[0] == images[1]


def test_render_ppm_beyond_the_pixel_cap_is_a_json_error(tmp_path, capsys, monkeypatch):
    # 24,000 x 24,000 pixels would take 1.7 GB; no raster row may be built
    from squarepack import render

    def no_rows(*_):
        raise AssertionError("a raster row was built")

    monkeypatch.setattr(render, "bytearray", no_rows, raising=False)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(encode(seed_phase_configuration(24, 24, "ver0")))
    args = ["render", "--in", str(cfg_path), "--cell", "1000", "--out"]
    code, out, err = run_cli(args + [str(tmp_path / "img.ppm"), "--style", "ppm"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "TooLarge"
    assert not (tmp_path / "img.ppm").exists()
    # SVG has no raster and no cap
    code, _, _ = run_cli(args + [str(tmp_path / "img.svg")], capsys)
    assert code == 0
    assert 'width="24000" height="24000"' in (tmp_path / "img.svg").read_text()


def test_render_ppm_pixel_cap_is_inclusive(monkeypatch):
    from squarepack import render

    cfg = seed_phase_configuration(4, 6, "ver0")
    monkeypatch.setattr(render, "PPM_PIXEL_CAP", 8 * 12)
    assert render.render_ppm(cfg, cell=2).startswith(b"P6\n8 12\n255\n")
    monkeypatch.setattr(render, "PPM_PIXEL_CAP", 8 * 12 - 1)
    with pytest.raises(errors.TooLarge):
        render.render_ppm(cfg, cell=2)


def test_components_cli(capsys):
    code, out, _ = run_cli(
        ["components", "--width", "4", "--height", "4", "--M", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["spec"]["boundary"] == "fully_packed"


@pytest.mark.parametrize(
    "extra,error",
    [
        (["--M", "0"], "SpecError"),
        (["--M", "-1"], "SpecError"),
        (["--lambda", "0"], "NonpositiveFugacity"),
        (["--lambda", "-5"], "NonpositiveFugacity"),
        (["--lambda", "nan"], "NonpositiveFugacity"),
        (["--lambda", "inf"], "NonpositiveFugacity"),
        (["--lambda", "1e-300"], "TooLarge"),
    ],
)
def test_components_cli_rejects_bad_bounds(extra, error, capsys):
    code, out, err = run_cli(["components", "--width", "4", "--height", "4", *extra], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == error


def test_components_cli_checks_bounds_before_the_harvest():
    # the 8x8 window has about 12.7M configurations; the bad stick cap must
    # be rejected before any of them is harvested
    proc = subprocess.run(
        [sys.executable, "-m", "squarepack.cli", "components"]
        + ["--width", "8", "--height", "8", "--M", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        env=CLI_ENV,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "SpecError"


def test_components_window_refused_by_site_count(capsys):
    # 81 interior sites do not fit the 64-bit configuration masks
    code, out, err = run_cli(["components", "--width", "10", "--height", "10"], capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "TooLarge"
    assert "81 sites" in error["message"]


def test_components_has_no_window_cap_option(capsys):
    args = ["components", "--width", "4", "--height", "4", "--window-cap", "64"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert "--window-cap" in error["message"]


@st.composite
def components_runs(draw):
    """A ``components`` argument vector: window sides from -2 to 6 (an
    8x6 window takes some 27 s), stick caps M from -2 to 7 and
    fugacities of every kind, each flag given zero to three times."""
    side = st.integers(-2, 6)
    argv = ["components", f"--width={draw(side)}", f"--height={draw(side)}"]
    argv += [f"--M={m}" for m in draw(st.lists(st.integers(-2, 7), max_size=3))]
    argv += [f"--lambda={lam}" for lam in draw(st.lists(FUZZ_FUGACITIES, max_size=3))]
    return argv


@settings(max_examples=80, deadline=None)
@given(components_runs())
def test_components_fuzz_prints_json_or_a_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["catalog_size"] == payload["components"]
    else:
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] in SQUAREPACK_ERRORS


def test_components_window_refused_by_configuration_count(capsys):
    # 49 sites fit the masks, but 12,727,570 configurations do not fit
    # the harvest's cap
    code, out, err = run_cli(["components", "--width", "8", "--height", "8"], capsys)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "TooLarge"
    assert "12727570" in error["message"]


def test_coupling_cli(tmp_path, capsys):
    csv_path = tmp_path / "tails.csv"
    code, out, _ = run_cli(
        [
            "coupling",
            "--width",
            "8",
            "--height",
            "8",
            "--lambda",
            "10",
            "--seed",
            "3",
            "--sweeps",
            "100",
            "--burn-in",
            "50",
            "--thinning",
            "10",
            "--csv",
            str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs_used"] + payload["pairs_skipped"] == 10
    assert csv_path.read_text().startswith("direction,d,count,probability")


def test_cli_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "squarepack.cli", "exact1d", "--L", "2", "--lambda", "1"],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_closed_stdout_exits_without_traceback():
    # the report is larger than a pipe buffer, so the write fails once
    # the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "squarepack.cli", "sample", "--width", "32"]
        + ["--height", "32", "--sweeps", "20", "--keep-samples"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CLI_ENV,
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert json.loads(err)["error"]["type"] == "BrokenPipeError"


@pytest.mark.parametrize("lam", ["nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["exact1d", "--L", "4"],
        ["exact1d", "--L", "4", "--free"],
        ["exact2d", "--width", "4", "--height", "4"],
        ["sample", "--width", "4", "--height", "4", "--sweeps", "2"],
        ["coupling", "--width", "8", "--height", "8", "--sweeps", "4"],
    ],
)
def test_fugacity_not_finite_rejected(command, lam, capsys):
    code, out, err = run_cli([*command, "--lambda", lam], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "NonpositiveFugacity"


def test_sample_zero_fugacity_rejected(capsys):
    code, _, err = run_cli(["sample", "--width", "4", "--height", "4", "--lambda", "0"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NonpositiveFugacity"


def test_single_measurement_prints_strict_json(capsys):
    # one batch has no stderr; it is written as null, not NaN
    code, out, _ = run_cli(["sample", "--width", "4", "--height", "4", "--sweeps", "1"], capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["estimators"]["tile_density"]["stderr"] is None


SQUAREPACK_ERRORS = {
    name
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.SquarepackError)
}


@st.composite
def sample_runs(draw):
    """A ``sample`` run: its options, and whether they go in a spec file
    (the only way to set the translation fraction) or on the command line."""
    spec = {
        "width": draw(st.integers(-2, 12)),
        "height": draw(st.integers(-2, 12)),
        "lambda": draw(
            st.floats(1e-3, 1e3)
            | st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e-300, 1e300])
        ),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "sweeps": draw(st.integers(-2, 24)),
        "boundary": draw(st.sampled_from(["periodic", "free", "fully_packed"])),
        "burn_in": draw(st.integers(-1, 8)),
        "thinning": draw(st.integers(-1, 5)),
        "initial": draw(st.sampled_from([None, "empty", "ver0", "hor1", "diagonal"])),
        "observables": draw(st.lists(st.sampled_from(sorted(OBSERVABLES)), unique=True)),
        "keep_samples": draw(st.booleans()),
    }
    if draw(st.booleans()):
        spec["translation_move_fraction"] = draw(
            st.floats(0, 1) | st.sampled_from([-0.5, 1.5, math.nan])
        )
        return spec, None
    argv = ["sample"]
    for key, value in spec.items():
        if key == "keep_samples":
            argv += ["--keep-samples"] if value else []
        elif key == "observables":
            argv += ["--observables", *value]
        elif value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    return spec, argv


@settings(max_examples=80, deadline=None)
@given(sample_runs())
def test_sample_fuzz_prints_json_or_a_json_error(run):
    spec, argv = run
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if argv is None:
            folder = stack.enter_context(tempfile.TemporaryDirectory())
            path = os.path.join(folder, "spec.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            argv = ["sample", "--spec", path]
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["measurements"] >= 1
        if spec["keep_samples"]:
            assert len(payload["samples"]) == payload["measurements"]
            for sample in payload["samples"]:
                assert sample["occupied"] == sorted(sample["occupied"])
        else:
            assert "samples" not in payload
    else:
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] in SQUAREPACK_ERRORS


FUZZ_FUGACITIES = st.floats(1e-3, 1e3) | st.sampled_from(
    [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-300, 1e300]
)


@st.composite
def exact_runs(draw):
    """An ``exact1d`` or ``exact2d`` argument vector on small sizes, brute
    force within small caps. Values are joined to their option by ``=``,
    since argparse reads a separate ``-inf`` as an option."""
    if draw(st.booleans()):
        argv = ["exact1d", f"--L={draw(st.integers(-3, 40))}", f"--lambda={draw(FUZZ_FUGACITIES)}"]
        return argv + (["--free"] if draw(st.booleans()) else [])
    argv = [
        "exact2d",
        f"--width={draw(st.integers(-2, 10))}",
        f"--height={draw(st.integers(-2, 10))}",
        f"--boundary={draw(st.sampled_from(['periodic', 'free', 'fully_packed']))}",
        f"--method={draw(st.sampled_from(['brute', 'transfer']))}",
    ]
    return argv + [f"--lambda={lam}" for lam in draw(st.lists(FUZZ_FUGACITIES, max_size=3))]


@settings(max_examples=120, deadline=None)
@given(exact_runs())
def test_exact_fuzz_prints_json_or_a_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
        payload = json.loads(out, parse_constant=_reject_constant)
        if argv[0] == "exact1d":
            assert math.isfinite(payload) and payload > 0
        else:
            assert payload["coefficients"][0] == 1
            lambdas = [a for a in argv if a.startswith("--lambda=")]
            assert len(payload["evaluations"]) == max(1, len(lambdas))
    else:
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] in SQUAREPACK_ERRORS


def test_exact1d_overflow_is_a_json_error(capsys):
    for args in (["--L", "20", "--lambda", "1e-300"], ["--L", "20", "--lambda", "1e-300", "--free"]):
        code, out, err = run_cli(["exact1d", *args], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "OutOfFloatRange"


@pytest.mark.parametrize("boundary", ["free", "fully_packed"])
@pytest.mark.parametrize("phase", ["ver0", "ver1", "hor0", "hor1"])
def test_sample_phase_seed_in_rectangle_modes(boundary, phase, capsys):
    code, out, err = run_cli(
        ["sample", "--width", "8", "--height", "8", "--boundary", boundary, "--initial", phase, "--sweeps", "2"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["params"]["initial"] == phase


@st.composite
def chessboard_runs(draw):
    """A ``chessboard`` argument vector: dimensions the band transfer
    admits are at most 8, the rest lie beyond its size cap or are not
    tori; faces anywhere, fugacities of every kind."""
    side = st.sampled_from([4, 6, 8]) | st.integers(-2, 9) | st.sampled_from([16, 20, 64, 10**6])
    face = st.integers(-20, 20) | st.sampled_from([-(2**70), 2**70])
    return [
        "chessboard",
        f"--width={draw(side)}",
        f"--height={draw(side)}",
        f"--face-x={draw(face)}",
        f"--face-y={draw(face)}",
        f"--lambda={draw(FUZZ_FUGACITIES)}",
    ]


@settings(max_examples=120, deadline=None)
@given(chessboard_runs())
def test_chessboard_fuzz_prints_json_or_a_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
        payload = json.loads(out, parse_constant=_reject_constant)
        assert 0 <= payload["zeta"] <= 1
        assert payload["bound_holds"] is True
    else:
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] in SQUAREPACK_ERRORS


def test_coupling_empty_phase_is_a_json_error(capsys):
    argv = ["coupling", "--width", "8", "--height", "8", "--lambda", "200"]
    code, out, err = run_cli([*argv, "--sweeps", "30", "--thinning", "1", "--phase", "empty"], capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterError"
    assert "phase must be one of" in error["message"]


@st.composite
def coupling_runs(draw):
    """A ``coupling`` run on small tori: dimensions, fugacity, sweeps,
    burn-in and thinning of every kind, a phase seed, an unknown phase or
    the empty start. Even sides, which phase seeds need, come often."""
    side = st.sampled_from([4, 6, 8, 12]) | st.integers(-2, 12)
    lam = st.floats(1e-3, 1e3) | st.sampled_from([0.0, math.nan, math.inf, 1e-300, 1e300])
    phase = st.sampled_from(["ver0", "ver1", "hor0", "hor1", "diagonal", "empty"])
    return {
        "width": draw(side),
        "height": draw(side),
        "lambda": draw(lam),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "sweeps": draw(st.integers(-1, 12)),
        "burn-in": draw(st.integers(-1, 4)),
        "thinning": draw(st.integers(-1, 4)),
        "phase": draw(phase),
    }


@settings(max_examples=200, deadline=None)
@given(coupling_runs())
def test_coupling_fuzz_prints_json_or_a_json_error(run):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        csv_path = os.path.join(folder, "tails.csv")
        argv = ["coupling", *(f"--{k}={v}" for k, v in run.items()), f"--csv={csv_path}"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        if code == 0:
            assert err == ""
            payload = json.loads(out, parse_constant=_reject_constant)
            measured = max(run["sweeps"] // run["thinning"], 1)
            assert payload["pairs_used"] + payload["pairs_skipped"] == measured
            with open(csv_path) as fh:
                assert fh.readline() == "direction,d,count,probability\n"
        else:
            assert code == 1
            assert out == ""
            assert json.loads(err)["error"]["type"] in SQUAREPACK_ERRORS


@st.composite
def config_texts(draw):
    """The text of a configuration file: a random valid configuration or
    a phase seed, as ASCII or JSON, or malformed text."""
    kind = draw(st.sampled_from(["random", "seed", "malformed"]))
    if kind == "malformed":
        overlapping = "4 4 periodic\noo..\n....\n....\n....\n"
        texts = ["", "8 8 periodic\n", "4 4 torus\n", '{"width": 4}', overlapping]
        return draw(st.sampled_from(texts))
    if kind == "random":
        cfg = draw(random_valid_config())
    else:
        side = st.sampled_from([8, 12, 16])
        cfg = seed_phase_configuration(
            draw(side),
            draw(side),
            draw(st.sampled_from(["ver0", "ver1", "hor0", "hor1"])),
            boundary=draw(st.sampled_from(["periodic", "free", "fully_packed"])),
        )
    return to_json(cfg) if draw(st.booleans()) else encode(cfg)


def _run_on_config(text, argv):
    """main(argv) with ``--in`` a file holding ``text`` and every other
    path in the same folder: (exit code, stdout, stderr, folder files)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "cfg.txt")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [argv[0], f"--in={path}", *(a.replace("FOLDER", folder) for a in argv[1:])]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = {}
        for name in os.listdir(folder):
            with open(os.path.join(folder, name), "rb") as fh:
                files[name] = fh.read()
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code != 0:
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] in SQUAREPACK_ERRORS
    else:
        assert err == ""
    return code, out, files


@st.composite
def sticks_runs(draw):
    """A ``sticks`` argument vector: window scales of every kind, known
    and unknown stick types, and window scales N below and above 3."""
    argv = ["sticks"]
    if draw(st.booleans()):
        scale = st.integers(-1, 3).map(str) | st.sampled_from(["x", "1.5", str(2**70)])
        stick_type = st.sampled_from(["ver", "hor", "ver0", "ver1", "hor0", "hor1", "diag"])
        argv += ["--psi", draw(scale), draw(scale), draw(stick_type)]
    if draw(st.booleans()):
        argv.append(f"--N={draw(st.integers(-1, 6))}")
    return draw(config_texts()), argv


@settings(max_examples=160, deadline=None)
@given(sticks_runs())
def test_sticks_fuzz_prints_json_or_a_json_error(run):
    code, out, _ = _run_on_config(*run)
    if code == 0:
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["total_sticks"] == sum(c["count"] for c in payload["census"].values())
        if "--psi" in run[1]:
            psi = payload["psi"]
            assert sum(row.count("1") for row in psi["bitmap"]) == len(psi["points"])


@st.composite
def phase_runs(draw):
    """A ``phase`` argument vector: fugacities of every kind, thresholds
    b below and above 1, and window scales N below and above 3."""
    argv = ["phase"]
    if draw(st.booleans()):
        argv.append(f"--lambda={draw(FUZZ_FUGACITIES)}")
    if draw(st.booleans()):
        argv.append(f"--b={draw(st.integers(-2, 10))}")
    if draw(st.booleans()):
        argv.append(f"--N={draw(st.integers(-1, 6))}")
    return draw(config_texts()), argv


@settings(max_examples=140, deadline=None)
@given(phase_runs())
def test_phase_fuzz_prints_json_or_a_json_error(run):
    code, out, _ = _run_on_config(*run)
    if code == 0:
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["phase"] in ("ver0", "ver1", "hor0", "hor1", "undetermined")


@st.composite
def render_runs(draw):
    """A ``render`` argument vector: both styles, cell sizes below and
    above 1 or the default, with or without the stick overlay."""
    style = draw(st.sampled_from(["svg", "ppm"]))
    argv = ["render", f"--out=FOLDER/img.{style}", f"--style={style}"]
    if draw(st.booleans()):
        argv.append(f"--cell={draw(st.integers(-5, 4))}")
    if draw(st.booleans()):
        argv.append("--no-sticks")
    return draw(config_texts()), argv


@settings(max_examples=150, deadline=None)
@given(render_runs())
def test_render_fuzz_writes_an_image_or_a_json_error(run):
    text, argv = run
    code, out, files = _run_on_config(text, argv)
    if code == 0:
        assert out == ""
        cfg = from_json(text) if text.startswith("{") else decode(text)
        ppm = "--style=ppm" in argv
        cell = next((int(a.split("=")[1]) for a in argv if a.startswith("--cell=")), None)
        if cell is None:
            cell = 8 if ppm else 16
        size = (cfg.width * cell, cfg.height * cell)
        if ppm:
            magic, dims, depth, pixels = files["img.ppm"].split(b"\n", 3)
            assert (magic, depth) == (b"P6", b"255")
            assert tuple(map(int, dims.split())) == size
            assert len(pixels) == 3 * size[0] * size[1]
        else:
            head = files["img.svg"].split(b"\n", 1)[0].decode()
            assert head.startswith("<svg")
            assert f'width="{size[0]}" height="{size[1]}"' in head
