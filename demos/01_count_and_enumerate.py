"""Count standard Young tableaux of a small skew shape three ways.

The running example is the skew shape (3,3,2)/(2,1) with five cells.  All
three counters must agree exactly, and the hook-weighted tiling terms give
the same answer a fourth way: N! times the term sum divided by the full
hook product of the outer shape.
"""
import math
from pathlib import Path

from skewtab import (
    SkewShape,
    build_region,
    count_brute_force,
    count_determinant,
    count_nhlf,
    enumerate_H,
    render_tiling,
)
from skewtab.shapes import hook_table
from skewtab.tiling import iter_flat_cells

OUT = Path(__file__).resolve().parent / "out"


def main():
    sh = SkewShape([3, 3, 2], [2, 1])
    print(f"shape {list(sh.outer)} / {list(sh.inner)}  ({sh.size} cells)")
    print("determinant :", count_determinant(sh))
    print("brute force :", count_brute_force(sh))
    print("tiling sum  :", count_nhlf(sh))

    region = build_region(sh)
    tilings = enumerate_H(sh)
    ht = hook_table(sh.outer)
    print(f"\n{len(tilings)} height functions; hook products of flat cells:")
    total = 0
    for k, flats in enumerate(iter_flat_cells(region)):
        term = math.prod(ht[c] for c in flats)
        total += term
        cells = " ".join(f"({x},{y})" for x, y in sorted(flats))
        print(f"  tiling {k}: {term:3d}   cells {cells}")
    hooks = ht.product()
    print(f"term sum {total}, so the count is "
          f"{sh.size}!*{total}/{hooks} = {math.factorial(sh.size) * total // hooks}")

    OUT.mkdir(exist_ok=True)
    for k, t in enumerate(tilings):
        render_tiling(t, OUT / f"tiling_{k}.svg")
    print(f"\nwrote {len(tilings)} SVG files to {OUT}")


if __name__ == "__main__":
    main()
