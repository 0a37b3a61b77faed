"""Deterministic SVG pictures of lozenge tilings and sampled densities.

Lattice vertices (i, j) land on screen at (s*sqrt(3)/2*(j - i), s*(i + j)/2),
s = SCALE, which draws the diagonal direction (1, 1) vertically down, so the
three lozenge types render in the familiar 120 degree orientations.  Output
never contains timestamps; identical inputs give identical bytes.
"""
from __future__ import annotations

import math
from pathlib import Path

_SQ3H = math.sqrt(3.0) / 2.0
SCALE = 26.0

FILLS = {1: "#8ab8e0", 2: "#e0b38a", 3: "#a5cf9e"}
STROKE = "#404040"


def _screen(i: float, j: float) -> tuple[float, float]:
    return (SCALE * _SQ3H * (j - i), SCALE * (i + j) / 2.0)


def _quad(typ: int, x: int, y: int) -> list[tuple[int, int]]:
    if typ == 3:
        return [(x - 1, y - 1), (x, y - 1), (x, y), (x - 1, y)]
    if typ == 1:
        return [(x, y), (x + 1, y), (x + 2, y + 1), (x + 1, y + 1)]
    if typ == 2:
        return [(x, y), (x, y + 1), (x + 1, y + 2), (x + 1, y + 1)]
    raise ValueError(f"unknown lozenge type {typ}")


def _svg_doc(polys: list[tuple[list, str]]) -> str:
    pts = [p for poly, _ in polys for p in poly]
    if not pts:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>\n'
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    pad = 0.5 * SCALE
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.1f}" '
           f'height="{h:.1f}" viewBox="0 0 {w:.1f} {h:.1f}">']
    for poly, fill in polys:
        coords = " ".join(f"{x - x0:.2f},{y - y0:.2f}" for x, y in poly)
        out.append(f'<polygon points="{coords}" fill="{fill}" '
                   f'stroke="{STROKE}" stroke-width="0.8"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_tiling(tiling, path) -> None:
    """Draw every lozenge of the tiling as a filled rhombus."""
    polys = []
    for lz in tiling.lozenges:
        corners = [_screen(i, j) for i, j in _quad(lz.type, lz.x, lz.y)]
        polys.append((corners, FILLS[lz.type]))
    Path(path).write_text(_svg_doc(polys))


def render_density(field, path) -> None:
    """Draw sampled type frequencies, one rhombus per anchor cell.

    The three frequencies map to the red, green and blue channels, so
    frozen regions show as saturated primaries and the disordered middle
    drifts gray.
    """
    polys = []
    for (x, y), freqs in zip(field.anchors, field.freqs):
        r, g, b = (int(round(255 * min(max(f, 0.0), 1.0))) for f in freqs)
        corners = [_screen(i, j) for i, j in _quad(3, x, y)]
        polys.append((corners, f"rgb({r},{g},{b})"))
    Path(path).write_text(_svg_doc(polys))
