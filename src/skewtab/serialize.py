"""File formats: shapes and profiles as JSON, grids of numbers as CSV.

Shape files:    {"outer": [4, 2], "inner": [1]}
Profile files:  {"psi": [[x, y], ...], "phi": [[x, y], ...]}
Tiling files:   [{"type": 1|2|3, "x": int, "y": int}, ...]
Tilings files:  [tiling, ...]                    one tiling file's list each
Density CSV:    x,y,freq1,freq2,freq3,n          one row per anchor cell
Terms CSV:      tiling_id,log_weight,flat_cells  flat cells joined "x,y;x,y"
Mesh CSV:       node_x,node_y,f
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable

import numpy as np

from .sampler import DensityField
from .shapes import SkewShape, StableProfile
from .tiling import Lozenge, Tiling, _check_edges, build_region


def _read_json(path) -> object:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _is_int(v) -> bool:
    # bool is a subclass of int, so JSON true would otherwise count as 1
    return isinstance(v, int) and not isinstance(v, bool)


def load_shape(path) -> SkewShape:
    data = _read_json(path)
    if not isinstance(data, dict) or "outer" not in data:
        raise ValueError(f"{path}: expected an object with 'outer' (and 'inner')")
    rows = {"outer": data["outer"], "inner": data.get("inner", [])}
    for field, parts in rows.items():
        if not isinstance(parts, list) or not all(map(_is_int, parts)):
            raise ValueError(f"{path}: '{field}' must be a list of integer "
                             f"row lengths")
    try:
        return SkewShape(rows["outer"], rows["inner"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_shape(shape: SkewShape, path) -> None:
    doc = {"outer": list(shape.outer), "inner": list(shape.inner)}
    Path(path).write_text(json.dumps(doc) + "\n")


def _points(path, data: dict, field: str) -> list[tuple]:
    try:
        return [(float(x), float(y)) for x, y in data.get(field, [])]
    except (TypeError, ValueError):
        raise ValueError(f"{path}: '{field}' must be a list of [x, y] "
                         f"points") from None


def load_profile(path) -> StableProfile:
    data = _read_json(path)
    if not isinstance(data, dict) or "psi" not in data:
        raise ValueError(f"{path}: expected an object with 'psi' (and 'phi')")
    psi, phi = _points(path, data, "psi"), _points(path, data, "phi")
    try:
        return StableProfile(psi, phi)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_profile(profile: StableProfile, path) -> None:
    doc = {"psi": [list(p) for p in profile.psi],
           "phi": [list(p) for p in profile.phi]}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_tiling(path, shape: SkewShape) -> Tiling:
    """Read a tiling of the shape's region, checked to be one.

    The heights are those whose flat cells are the file's horizontal
    lozenges (`MoveTable.heights`); they must be a height function on the
    pins, which hold the mask, whose lozenges are exactly the file's.
    """
    data = _read_json(path)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a list of lozenges")
    loz = []
    for item in data:
        fields = [item.get(k) for k in Lozenge._fields] \
            if isinstance(item, dict) else [None]
        if not all(map(_is_int, fields)):
            raise ValueError(f"{path}: bad lozenge entry {item!r} (type, x "
                             f"and y must be integers)")
        loz.append(Lozenge(*fields))
    region = build_region(shape)
    at = region.moves().index
    h = region.moves().heights({(l.x, l.y) for l in loz if l.type == 3})
    _check_edges(region, h)
    tiling = Tiling(region, h)
    if (any(h[at[v]] != val for v, val in region.fixed.items())
            or tiling.lozenges != tuple(sorted(loz))):
        raise ValueError(f"{path}: the lozenges do not tile the shape's region")
    return tiling


def _lozenges(tiling: Tiling) -> list[dict]:
    return [{"type": lz.type, "x": lz.x, "y": lz.y} for lz in tiling.lozenges]


def save_tiling(tiling: Tiling, path) -> None:
    Path(path).write_text(json.dumps(_lozenges(tiling)) + "\n")


def save_tilings(tilings: Iterable[Tiling], path) -> None:
    """Write a list of tilings, each as a tiling file's lozenge list."""
    Path(path).write_text(json.dumps([_lozenges(t) for t in tilings]) + "\n")


def save_density(field, path) -> None:
    """Write a sampled lozenge density (see sampler.density) as CSV."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "y", "freq1", "freq2", "freq3", "n"])
        for row in field.rows():
            wr.writerow(row)


def load_density(path) -> DensityField:
    """Read a density CSV back into a `DensityField` with no region."""
    anchors, freqs, n = [], [], 0
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None or header[:2] != ["x", "y"]:
            raise ValueError(f"{path}: not a density CSV")
        for row in rd:
            try:
                if len(row) < 6:
                    raise ValueError("density rows need 6 columns")
                fr = (float(row[2]), float(row[3]), float(row[4]))
                if not all(map(math.isfinite, fr)):
                    raise ValueError(f"frequencies must be finite, got {fr}")
                anchors.append((int(row[0]), int(row[1])))
                n = int(row[5])
            except ValueError as exc:
                raise ValueError(f"{path}: line {rd.line_num}: {exc}") from None
            freqs.append(fr)
    return DensityField(None, tuple(anchors), np.array(freqs).reshape(-1, 3),
                        n)


def save_terms(rows: Iterable[tuple[int, float, list]], path) -> None:
    """Write per-tiling weight terms: (id, log weight, flat cell list)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["tiling_id", "log_weight", "flat_cells"])
        for tid, logw, cells in rows:
            joined = ";".join(f"{x},{y}" for x, y in cells)
            wr.writerow([tid, f"{logw:.12g}", joined])


def save_mesh(mesh, path) -> None:
    """Write solver node heights as CSV (node_x, node_y, f)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["node_x", "node_y", "f"])
        for (x, y), v in zip(mesh.xy, mesh.f):
            wr.writerow([f"{x:.12g}", f"{y:.12g}", f"{v:.12g}"])
