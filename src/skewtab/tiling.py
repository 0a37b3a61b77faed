"""Height functions on the triangular lattice and their lozenge tilings.

Lattice conventions used by the whole package:

- vertices are integer pairs (i, j) in matrix coordinates, i growing
  downward and j rightward;
- edge directions are e1 = (1, 0), e2 = (0, 1) and the diagonal
  e3 = (1, 1);
- a height function gains 0 or 1 along every +e1, +e2 and +e3 edge of
  its region.  This single rule also encodes the triangle consistency
  condition, because the gain along e3 telescopes the e1 and e2 gains
  inside each unit triangle;
- a flat e3 edge into vertex (x, y) means a horizontal lozenge (type 3)
  at cell (x, y).

The region carrying the tilings of a skew shape outer/inner is a union of
diagonal chains, one per diagonal of the inner staircase.  The chain of
diagonal d starts at (0, d) for d >= 0 and at (-d, 0) otherwise, and runs
k_d + D steps down the diagonal, where k_d counts inner cells on that
diagonal and the depth D is the largest legal excitation over all chains.
Chain cells falling outside the outer shape are masked: no horizontal
lozenge may sit there, so the e3 edge into them must gain 1.  They form
a suffix of the chain, so each chain has a pinned suffix: from its step
u_d, the diagonal's last cell inside the outer shape, to the tail, the
height at step t is forced to t - k_d, the tail's being D.  Heads are
pinned to 0, and chains with k_d = 0 are pinned to the full ramp.  With
the mask held by the pins, no move of a free vertex reads it.  A
straight shape, the empty one included, has the single chain (0, 0) and
one tiling.  A tiling's flat cells form an excited diagram of the inner
shape (Morales–Pak–Panova, arXiv:1512.08348), the lowest tiling's being
the inner shape itself; `MoveTable.heights` is the inverse of
`MoveTable.flat_cells`.

Each lozenge is identified by the unique upward triangle it covers.  For
the triangle at p (vertices p, p + e1, p + e3) the height gains
d1 = h(p + e1) - h(p) and d2 = h(p + e3) - h(p + e1) decode as

    (0, 0) -> type 3 at cell p + e3, paired with the down triangle at p
    (0, 1) -> type 1 anchored at p, paired with the down triangle at p + e1
    (1, 0) -> type 2 anchored at p - e2, paired with the down triangle at p - e2

where the down triangle at q has vertices q, q + e2, q + e3.

A tiling is its height function: `Tiling` holds one int per vertex in
sorted vertex order, and enumeration, `flip`, the extensions and every
decode read the integer tables of `Region.moves()`.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ResourceGuardError, check_count
from .shapes import SkewShape

Vertex = tuple[int, int]

ENUM_GUARD = 10_000_000


class Lozenge(NamedTuple):
    type: int
    x: int
    y: int


class MoveTable:
    """Integer form of a region's heights, moves, lozenges and flat cells.

    `order` lists the region's vertices sorted, and a height vector is a
    sequence of ints indexed like it (`index` maps a vertex to its
    position).  Row r of `rows` belongs to free[r] and reads
    (k, a, b, c, x, y, z): k is the vertex's index, a, b, c index its -e1,
    -e2, -e3 neighbours and x, y, z its +e1, +e2, +e3 neighbours.  Every
    free vertex sits inside a chain, so its -e3 and +e3 neighbours exist;
    a missing -e1 or -e2 neighbour is replaced by the -e3 one and a
    missing +e1 or +e2 neighbour by the +e3 one, which bound nothing the
    e3 neighbours do not already bound.  So with heights h,

        lo = max(h[a], h[b], h[c], h[x] - 1, h[y] - 1, h[z] - 1)
        hi = min(h[a] + 1, h[b] + 1, h[c] + 1, h[x], h[y], h[z])

    is the closed interval of heights v may take, all else fixed.  The
    mask takes no part: a region whose free vertex, or its +e3 neighbour,
    is masked is refused with ValueError, since its moves would need it.

    Built on first use: `ups()`, per up triangle p (sorted), the indices
    of p, p + e1, p + e3 and for types 1, 2, 3 the lozenge and the index
    of its down triangle in `Region.down_triangles` (-1 if absent);
    `below()`, per vertex, the indices of its -e1, -e2, -e3 neighbours,
    which all come before it in `order`; and
    `steps()`, the chain steps (index of v - e3, index of v, v) from head
    to tail, flat where the height does not rise, which `flat_cells` and
    `heights` read.
    """

    __slots__ = ("region", "order", "index", "rows", "_ups", "_below",
                 "_steps")

    def __init__(self, region: "Region"):
        self.region = region
        self.order = order = tuple(sorted(region.vertices))
        self.index = at = {v: k for k, v in enumerate(order)}
        rows = []
        for v in region.free:
            i, j = v
            q = (i + 1, j + 1)
            if v in region.masked or q in region.masked:
                raise ValueError(f"free vertex {v} or its +e3 neighbour is masked")
            c, z = at[(i - 1, j - 1)], at[q]
            rows.append((at[v], at.get((i - 1, j), c),
                         at.get((i, j - 1), c), c, at.get((i + 1, j), z),
                         at.get((i, j + 1), z), z))
        self.rows = tuple(rows)
        self._ups = self._below = self._steps = None

    def ups(self) -> tuple:
        """The up-triangle table, built on first use."""
        if self._ups is None:
            at = self.index
            down = {q: k for k, q in enumerate(self.region.down_triangles())}
            rows = []
            for p in self.region.up_triangles():
                i, j = p
                r, s = (i, j - 1), (i + 1, j + 1)
                rows.append((at[p], at[(i + 1, j)], at[s], (
                    (Lozenge(1, i, j), down.get((i + 1, j), -1)),
                    (Lozenge(2, *r), down.get(r, -1)),
                    (Lozenge(3, *s), down.get(p, -1)))))
            self._ups = tuple(rows)
        return self._ups

    def below(self) -> tuple:
        """The lower-neighbour table, built on first use."""
        if self._below is None:
            at = self.index
            self._below = tuple(
                tuple(at[p] for p in ((i - 1, j), (i, j - 1), (i - 1, j - 1))
                      if p in at)
                for i, j in self.order)
        return self._below

    def steps(self) -> tuple:
        """The chain-step table, built on first use."""
        if self._steps is None:
            at = self.index
            self._steps = tuple((at[c[t - 1]], at[c[t]], c[t])
                                for c in self.region.chains.values()
                                for t in range(1, len(c)))
        return self._steps

    def flat_cells(self, h) -> list[Vertex]:
        """Flat cells of the height vector h, in chain order."""
        return [v for a, b, v in self.steps() if h[a] == h[b]]

    def heights(self, flat) -> list[int]:
        """The height vector whose flat cells are `flat`, the inverse of
        `flat_cells`: 0 at every chain head, +1 at every step into a cell
        not in `flat`.  The pins, which hold the mask, are the caller's to
        check."""
        h = [0] * len(self.order)
        for a, b, v in self.steps():
            h[b] = h[a] + (v not in flat)
        return h


class Region:
    """Vertex set, pinned boundary and mask for one skew shape.

    `free` holds the unpinned vertices in sorted order; `flip` finds a
    vertex's move-table row by bisecting it.
    """

    __slots__ = ("shape", "vertices", "fixed", "free", "masked", "chains",
                 "depth", "_up", "_down", "_moves", "_paths")

    def __init__(self, shape, vertices, fixed, free, masked, chains, depth):
        self.shape = shape
        self.vertices = vertices
        self.fixed = fixed
        self.free = free
        self.masked = masked
        self.chains = chains
        self.depth = depth
        self._up = None
        self._down = None
        self._moves = None
        self._paths = None

    def up_triangles(self) -> tuple[Vertex, ...]:
        """Roots p of upward triangles {p, p+e1, p+e3} inside the region."""
        if self._up is None:
            vs = self.vertices
            self._up = tuple(
                p for p in sorted(vs)
                if (p[0] + 1, p[1]) in vs and (p[0] + 1, p[1] + 1) in vs
            )
        return self._up

    def down_triangles(self) -> tuple[Vertex, ...]:
        """Roots q of downward triangles {q, q+e2, q+e3} inside the region."""
        if self._down is None:
            vs = self.vertices
            self._down = tuple(
                q for q in sorted(vs)
                if (q[0], q[1] + 1) in vs and (q[0] + 1, q[1] + 1) in vs
            )
        return self._down

    def moves(self) -> MoveTable:
        """The region's integer tables, built on first use."""
        if self._moves is None:
            self._moves = MoveTable(self)
        return self._moves

    def paths(self) -> tuple:
        """The region's lattice paths, built on first use: (chains,
        sources), with chains[c] = (cells, moves, sinks) for the c-th chain
        by diagonal.

        Chain d has k_d + D steps, D = depth, of which D rise.  Level line
        l = 1..D crosses chain d at the step p_d(l) where the height reaches
        l; p_d strictly increases in l and moves by one of `moves` to chain
        d + 1: -1 or 0 when d >= 0, 0 or +1 when d < 0 (the e1 and e2 edge
        rules).  Masked steps rise and form a suffix, so level l is forced
        onto step k_d + l when that step is masked or k_d = 0, and the free
        levels ride on the unmasked steps t = 1, 2, ..., step t's cell being
        cells[t - 1] (no cells when k_d = 0).  Each maximal run of chains on
        which a level is free is one path, from the forced node before the
        run, source i = (c, t), to the forced node after it, sink (i, t) on
        its chain; the outermost chains have k_d = 0, so every run ends
        inside the region.  Tilings are the vertex-disjoint path families,
        and a tiling's flat cells are the cells no path visits (Morales–
        Pak–Panova, arXiv:1512.08348, section 3).
        """
        if self._paths is None:
            ds = sorted(self.chains)
            ks = [len(self.chains[d]) - 1 - self.depth for d in ds]
            # chains with k_d = 0 are pinned ramps: no flat cell, no free level
            cells = [[c for c in self.chains[d][1:] if c not in self.masked]
                     if k else [] for d, k in zip(ds, ks)]
            sources, sinks = [], [()] * len(ds)
            for level in range(1, self.depth + 1):
                for c in range(1, len(ds)):
                    # a level is free on a chain where its node is unmasked
                    inside = ks[c] + level <= len(cells[c])
                    if inside != (ks[c - 1] + level <= len(cells[c - 1])):
                        if inside:
                            sources.append((c - 1, ks[c - 1] + level))
                        else:  # the end of the last source's path
                            sinks[c] += ((len(sources) - 1, ks[c] + level),)
            moves = [(-1, 0) if d >= 0 else (0, 1) for d in ds]
            self._paths = tuple(zip(cells, moves, sinks)), tuple(sources)
        return self._paths

    def __repr__(self) -> str:
        return (
            f"Region({self.shape!r}, {len(self.vertices)} vertices, "
            f"{len(self.free)} free, depth {self.depth})"
        )


def build_region(shape: SkewShape) -> Region:
    """Chain-of-diagonals region whose height functions encode the tilings."""
    lam = shape.outer.parts
    mu = shape.inner.parts + (0,) * (len(lam) - len(shape.inner))
    kd, ud = {}, {}
    for d in range(-len(shape.inner), shape.inner.width + 1):
        hx, hy = (0, d) if d >= 0 else (-d, 0)
        # the diagonal's cells in lam are its first u; those in mu, its first k
        k = u = 0
        while hx + u < len(lam) and lam[hx + u] > hy + u:
            k += mu[hx + u] > hy + u
            u += 1
        kd[d], ud[d] = k, u
    depth = max((ud[d] - kd[d] for d in kd if kd[d] > 0), default=0)
    vertices: set[Vertex] = set()
    fixed: dict[Vertex, int] = {}
    masked: set[Vertex] = set()
    chains: dict[int, tuple[Vertex, ...]] = {}
    for d in sorted(kd):
        hx, hy = (0, d) if d >= 0 else (-d, 0)
        k, u = kd[d], ud[d]
        chain = tuple((hx + t, hy + t) for t in range(k + depth + 1))
        chains[d] = chain
        vertices.update(chain)
        # the steps past u are masked and must rise, so from step u on (from
        # the head when k = 0) the heights are forced to reach D at the tail
        start = u if k else 0
        fixed[chain[0]] = 0
        fixed.update(zip(chain[start:], range(start - k, depth + 1)))
        masked.update(chain[u + 1:])
    free = tuple(sorted(v for v in vertices if v not in fixed))
    return Region(shape, frozenset(vertices), fixed, free, frozenset(masked),
                  chains, depth)


def _as_region(shape_or_region) -> Region:
    if isinstance(shape_or_region, Region):
        return shape_or_region
    if isinstance(shape_or_region, SkewShape):
        return build_region(shape_or_region)
    raise TypeError(f"expected SkewShape or Region, got {type(shape_or_region)}")


def _check_edges(region: Region, h) -> None:
    """Raise ValueError unless the height vector h gains 0 or 1 along
    every edge of the region."""
    table = region.moves()
    for k, near in enumerate(table.below()):
        for a in near:
            if not 0 <= h[k] - h[a] <= 1:
                raise ValueError(f"edge rule broken on {table.order[a]} -> "
                                 f"{table.order[k]}: {h[a]} -> {h[k]}")


class Tiling:
    """A lozenge tiling, held as its height vector in `Region.moves().order`;
    `t[v]` is the height at vertex v, and its sorted lozenges (type, x, y)
    are decoded on first use and kept.  Nothing is validated here: the
    producers (`enumerate_H`, `flip`, the extensions, the sampler and
    `serialize.load_tiling`) hand out valid height vectors."""

    __slots__ = ("region", "heights", "_lozenges")

    def __init__(self, region: Region, heights):
        self.region = region
        self.heights = tuple(heights)
        self._lozenges = None

    def __getitem__(self, v: Vertex) -> int:
        return self.heights[self.region.moves().index[v]]

    def items(self):
        """(vertex, height) pairs in `order`."""
        return zip(self.region.moves().order, self.heights)

    def _picks(self) -> list[int]:
        """Per up triangle, 0, 1 or 2 for a lozenge of type 1, 2 or 3."""
        h = self.heights
        return [1 if h[b] != h[a] else 2 if h[c] == h[b] else 0
                for a, b, c, _ in self.region.moves().ups()]

    @property
    def lozenges(self) -> tuple[Lozenge, ...]:
        """Every upward triangle carries exactly one lozenge; the paired
        downward triangles must be covered exactly once, which holds for
        any height vector agreeing with the pinned boundary."""
        if self._lozenges is None:
            by_type: tuple[list, list, list] = ([], [], [])
            downs = []
            for t, row in zip(self._picks(), self.region.moves().ups()):
                loz, q = row[3][t]
                by_type[t].append(loz)
                downs.append(q)
            n = len(self.region.down_triangles())
            if sorted(downs) != list(range(n)):
                raise ValueError("inconsistent heights: a down triangle is "
                                 "not covered once (are the pins kept?)")
            # each type's anchors shift the sorted up-triangle roots by a
            # constant, so the concatenation is sorted
            self._lozenges = tuple(by_type[0] + by_type[1] + by_type[2])
        return self._lozenges

    def counts(self) -> tuple[int, int, int]:
        picks = self._picks()
        return picks.count(0), picks.count(1), picks.count(2)

    def type3_cells(self) -> frozenset[Vertex]:
        return frozenset(self.region.moves().flat_cells(self.heights))

    def __len__(self) -> int:
        return len(self.lozenges)

    def __iter__(self):
        return iter(self.lozenges)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tiling) and self.heights == other.heights
                and self.region.shape == other.region.shape)

    def __hash__(self) -> int:
        return hash(self.heights)

    def __repr__(self) -> str:
        return f"Tiling({self.counts()} of types 1/2/3)"


def _cone_max(dz0, dz1):
    return np.maximum(np.maximum(dz0, dz1), 0)


def _extension(partial: dict, region: Region, maximal: bool) -> list[int]:
    """Extreme heights through the partial values, by sorted vertex."""
    if not partial:
        raise ValueError("extension needs at least one pinned value")
    unknown = [v for v in partial if v not in region.vertices]
    if unknown:
        raise ValueError(f"pinned vertices outside the region: {unknown[:3]}")
    items = sorted(partial.items())
    S = np.array([v for v, _ in items], dtype=np.int64)
    G = np.array([val for _, val in items], dtype=np.int64)
    # pairwise growth check: g(y) - g(x) <= max(y1 - x1, y2 - x2, 0)
    diff = S[None, :, :] - S[:, None, :]
    cone = _cone_max(diff[..., 0], diff[..., 1])
    slack = G[None, :] - G[:, None] - cone
    if slack.max() > 0:
        i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
        raise ValueError(
            f"partial data grows too fast between {tuple(S[i])} (value "
            f"{int(G[i])}) and {tuple(S[j])} (value {int(G[j])})"
        )
    V = np.array(sorted(region.vertices), dtype=np.int64)
    if maximal:
        d = V[:, None, :] - S[None, :, :]
        vals = (G[None, :] + _cone_max(d[..., 0], d[..., 1])).min(axis=1)
    else:
        d = S[None, :, :] - V[:, None, :]
        vals = (G[None, :] - _cone_max(d[..., 0], d[..., 1])).max(axis=1)
    return vals.tolist()


def extend(partial: dict, region: Region) -> Tiling:
    """Largest height function through the given partial values.

    The partial data must satisfy the pairwise growth bound
    g(y) - g(x) <= max(y1 - x1, y2 - x2, 0); a violating pair is reported.
    The result dominates every other extension pointwise.  It keeps the
    edge rule with no check: every edge steps by e in {e1, e2, e3}, and
    the cone max(d1, d2, 0) is subadditive with cone(e) = 1 and
    cone(-e) = 0, so min over pins of g + cone gains 0 or 1 along e.
    Agreement with the region's pins is up to the caller's choice of
    partial data.  Through `region.fixed`, whose pinned suffixes hold the
    mask, it is the region's highest tiling.
    """
    return Tiling(region, _extension(partial, region, maximal=True))


def minimal_extension(partial: dict, region: Region) -> Tiling:
    """Smallest height function through the given partial values; it keeps
    the edge rule as `extend`'s does."""
    return Tiling(region, _extension(partial, region, maximal=False))


def flip(t: Tiling, v: Vertex) -> Tiling | None:
    """Toggle the height at a free vertex between its two legal values.

    Returns the flipped tiling, or None when the vertex is not flippable
    (its value is forced by the neighbors).  Pinned or unknown vertices
    raise ValueError.
    """
    region = t.region
    if v not in region.vertices:
        raise ValueError(f"vertex {v} is not in the region")
    if v in region.fixed:
        raise ValueError(f"vertex {v} is pinned to the boundary")
    k, a, b, c, x, y, z = region.moves().rows[bisect_left(region.free, v)]
    h = list(t.heights)
    lo = max(h[a], h[b], h[c], h[x] - 1, h[y] - 1, h[z] - 1)
    hi = min(h[a] + 1, h[b] + 1, h[c] + 1, h[x], h[y], h[z])
    if hi <= lo:
        return None
    h[k] = lo + hi - h[k]
    return Tiling(region, h)


def heights_to_tiling(t: Tiling) -> Tiling:
    """The lozenge tiling of a height function: the tiling itself."""
    return t


def type_counts(t: Tiling) -> tuple[int, int, int]:
    """How many lozenges of types 1, 2, 3 the tiling has."""
    return t.counts()


def _height_vectors(region: Region, guard: int | None) -> Iterator[list]:
    """Stream every height vector of the region in lexicographic order,
    as one list updated in place between yields.

    Raises ResourceGuardError as soon as more than `guard` states have
    been produced (guard = None streams without a limit).
    """
    table = region.moves()
    below, depth = table.below(), region.depth
    pins = [region.fixed.get(v) for v in table.order]
    h = [0] * len(table.order)

    def options(k: int):
        lo = max([0] + [h[a] for a in below[k]])
        hi = min([depth] + [h[a] + 1 for a in below[k]])
        if pins[k] is None:
            return iter(range(lo, hi + 1))
        return iter((pins[k],) if lo <= pins[k] <= hi else ())

    produced = 0
    stack = [options(0)]
    while stack:
        k = len(stack) - 1
        h[k] = next(stack[-1], None)
        if h[k] is None:
            stack.pop()
        elif k + 1 < len(h):
            stack.append(options(k + 1))
        else:
            produced += 1
            if guard is not None and produced > guard:
                raise ResourceGuardError(
                    f"state space exceeds the guard of {guard} height functions",
                    "use sampler.sample or sampler.estimate_logZ",
                )
            yield h


def iter_flat_cells(region: Region) -> Iterator[list]:
    """Stream, per height function, the cells carrying a horizontal lozenge."""
    table = region.moves()
    for h in _height_vectors(region, None):
        yield table.flat_cells(h)


def enumerate_H(shape, guard: int = ENUM_GUARD) -> list[Tiling]:
    """All tilings of the shape's region, materialized.

    Memory grows with the count; the guard aborts runaway state spaces
    with a pointer to the Monte Carlo route.
    """
    region = _as_region(shape)
    guard = check_count("guard", guard, 0)
    return [Tiling(region, h) for h in _height_vectors(region, guard)]

