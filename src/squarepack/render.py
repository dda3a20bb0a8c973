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


def _shapes(config: Configuration, stick_overlay: bool):
    """Boxes (x0, y0, x1, y1, parity) in lattice units: each tile's square
    with its parity class, then each stick's segment with parity None.

    On a torus a box is drawn also at its translates by the width or the
    height either way, or both, where the box itself, without stroke
    width, meets the open picture along each axis it moves on: a tile or
    stick across the seam shows on both sides, and a full-cycle stick on
    the picture's edge gets no copy on the opposite edge.
    """
    boxes = [
        (cx - 1, cy - 1, cx + 1, cy + 1, tile_parity_class((cx, cy)).as_tuple())
        for cx, cy in sorted(config.occupied)
    ]
    for s in extract_sticks(config) if stick_overlay else ():
        (x, y), vertical = s.anchor, s.orientation == "vertical"
        boxes.append((x, y, x + s.length * (not vertical), y + s.length * vertical, None))
    w, h = config.width, config.height
    moves = 3 if config.boundary == "periodic" else 1
    for x0, y0, x1, y1, parity in boxes:
        for dx in [d for d in (0, -w, w)[:moves] if d == 0 or x0 + d < w and x1 + d > 0]:
            for dy in [d for d in (0, -h, h)[:moves] if d == 0 or y0 + d < h and y1 + d > 0]:
                yield x0 + dx, y0 + dy, x1 + dx, y1 + dy, parity


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
    for x0, y0, x1, y1, parity in _shapes(config, stick_overlay):
        if parity is None:
            (x0, y0), (x1, y1) = px(x0, y0), px(x1, y1)
            parts.append(
                f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
                f'stroke="{STICK_COLOR}" stroke-width="{max(2, cell // 5)}" '
                'stroke-linecap="round"/>'
            )
        else:
            x, y = px(x0, y1)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{2 * cell}" height="{2 * cell}" '
                f'fill="{PARITY_COLORS[parity]}" stroke="#222222" stroke-width="0.6"/>'
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

    thick = max(1, cell // 4)
    for x0, y0, x1, y1, parity in _shapes(config, stick_overlay):
        # flip y for raster rows; a stick's stroke widens it across its length
        if parity is None:
            tx, ty, rgb = thick * (x0 == x1), thick * (y0 == y1), _STICK_RGB
        else:
            tx, ty, rgb = 0, 0, _PARITY_RGB[parity]
        fill(x0 * cell - tx, (h - y1) * cell - ty, x1 * cell + tx, (h - y0) * cell + ty, rgb)
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
