"""Static rendering of configurations as SVG (default) or binary PPM.

Tiles are drawn as 2x2 squares colored by their parity class, with an
optional green stick overlay:

    (0,0) blue,  (1,0) deep blue,  (0,1) orange,  (1,1) red.
"""

from __future__ import annotations

from typing import Optional

from .errors import IoError, ParameterError, TooLarge
from .lattice import Configuration, tile_parity_class
from .sticks import extract_sticks

PARITY_COLORS = {
    (0, 0): "#3b78d8",  # blue
    (1, 0): "#1a2f6b",  # deep blue
    (0, 1): "#f6a623",  # orange
    (1, 1): "#d0342c",  # red
}
STICK_COLOR = "#2f9e44"
BACKGROUND = "#f5f2ea"
GRID_COLOR = "#cccccc"

# the PPM raster's bytes of the same colours
_PARITY_RGB = {parity: bytes.fromhex(color[1:]) for parity, color in PARITY_COLORS.items()}
_STICK_RGB = bytes.fromhex(STICK_COLOR[1:])
_BACKGROUND_RGB = bytes.fromhex(BACKGROUND[1:])
# pixels of the largest PPM raster: 4096 x 4096, 48 MiB of RGB
PPM_PIXEL_CAP = 1 << 24


def render_svg(
    config: Configuration,
    *,
    cell: int = 16,
    stick_overlay: bool = True,
) -> str:
    """SVG document for a configuration; y grows upward as on paper."""
    w, h = config.width, config.height
    width_px, height_px = w * cell, h * cell

    def px(x, y):
        # lattice to svg coordinates (flip y)
        return x * cell, (h - y) * cell

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="{BACKGROUND}"/>',
    ]
    for gx in range(w + 1):
        x, _ = px(gx, 0)
        parts.append(
            f'<line x1="{x}" y1="0" x2="{x}" y2="{height_px}" '
            f'stroke="{GRID_COLOR}" stroke-width="0.5"/>'
        )
    for gy in range(h + 1):
        _, y = px(0, gy)
        parts.append(
            f'<line x1="0" y1="{y}" x2="{width_px}" y2="{y}" '
            f'stroke="{GRID_COLOR}" stroke-width="0.5"/>'
        )
    for cx, cy in sorted(config.occupied):
        color = PARITY_COLORS[tile_parity_class((cx, cy)).as_tuple()]
        x, y = px(cx - 1, cy + 1)
        parts.append(
            f'<rect x="{x}" y="{y}" width="{2 * cell}" height="{2 * cell}" '
            f'fill="{color}" stroke="#222222" stroke-width="0.6"/>'
        )
    if stick_overlay:
        for s in extract_sticks(config):
            sx, sy = s.anchor
            if s.orientation == "vertical":
                x1, y1 = px(sx, sy)
                x2, y2 = px(sx, sy + s.length)
            else:
                x1, y1 = px(sx, sy)
                x2, y2 = px(sx + s.length, sy)
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="{STICK_COLOR}" stroke-width="{max(2, cell // 5)}" '
                'stroke-linecap="round"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_ppm(
    config: Configuration, *, cell: int = 8, stick_overlay: bool = True
) -> bytes:
    """Binary P6 raster of a configuration; TooLarge beyond
    PPM_PIXEL_CAP pixels, before any row is built."""
    w, h = config.width, config.height
    width_px, height_px = w * cell, h * cell
    if width_px * height_px > PPM_PIXEL_CAP:
        raise TooLarge(
            f"a {width_px}x{height_px} raster exceeds the cap of {PPM_PIXEL_CAP} pixels"
        )
    buf = bytearray()
    rows = [
        bytearray(_BACKGROUND_RGB * width_px) for _ in range(height_px)
    ]

    def fill(x0, y0, x1, y1, rgb):
        for yy in range(max(y0, 0), min(y1, height_px)):
            row = rows[yy]
            for xx in range(max(x0, 0), min(x1, width_px)):
                row[3 * xx : 3 * xx + 3] = rgb

    for cx, cy in sorted(config.occupied):
        rgb = _PARITY_RGB[tile_parity_class((cx, cy)).as_tuple()]
        # tile spans [cx-1, cx+1] x [cy-1, cy+1]; flip y for raster rows
        fill(
            (cx - 1) * cell,
            (h - cy - 1) * cell,
            (cx + 1) * cell,
            (h - cy + 1) * cell,
            rgb,
        )
    if stick_overlay:
        thick = max(1, cell // 4)
        for s in extract_sticks(config):
            sx, sy = s.anchor
            if s.orientation == "vertical":
                fill(
                    sx * cell - thick,
                    (h - sy - s.length) * cell,
                    sx * cell + thick,
                    (h - sy) * cell,
                    _STICK_RGB,
                )
            else:
                fill(
                    sx * cell,
                    (h - sy) * cell - thick,
                    (sx + s.length) * cell,
                    (h - sy) * cell + thick,
                    _STICK_RGB,
                )
    buf.extend(f"P6\n{width_px} {height_px}\n255\n".encode())
    for row in rows:
        buf.extend(row)
    return bytes(buf)


def render_image(
    config: Configuration,
    path: str,
    *,
    style: str = "svg",
    cell: Optional[int] = None,
    stick_overlay: bool = True,
) -> None:
    """Write an SVG or PPM rendering to ``path``; ``cell`` (pixels per
    unit, at least 1) defaults to 16 for SVG and 8 for PPM."""
    if cell is not None and cell < 1:
        raise ParameterError(f"cell must be at least 1 pixel, got {cell}")
    try:
        if style == "svg":
            text = render_svg(
                config, cell=16 if cell is None else cell, stick_overlay=stick_overlay
            )
            with open(path, "w") as fh:
                fh.write(text)
        elif style == "ppm":
            data = render_ppm(config, cell=8 if cell is None else cell, stick_overlay=stick_overlay)
            with open(path, "wb") as fh:
                fh.write(data)
        else:
            raise ParameterError(f"unknown style {style!r}; choose svg or ppm")
    except OSError as exc:
        raise IoError(f"cannot write image to {path}: {exc}") from exc
