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
Heights are pinned to 0 at chain heads and to D at chain tails; chains
with k_d = 0 are pinned to the full ramp.  Chain cells falling outside
the outer shape are masked: the e3 edge into them must gain 1, which
forbids a horizontal lozenge there.

Each lozenge is identified by the unique upward triangle it covers.  For
the triangle at p (vertices p, p + e1, p + e3) the height gains
d1 = h(p + e1) - h(p) and d2 = h(p + e3) - h(p + e1) decode as

    (0, 0) -> type 3 at cell p + e3, paired with the down triangle at p
    (0, 1) -> type 1 anchored at p, paired with the down triangle at p + e1
    (1, 0) -> type 2 anchored at p - e2, paired with the down triangle at p - e2

where the down triangle at q has vertices q, q + e2, q + e3.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .errors import ResourceGuardError
from .shapes import SkewShape

Vertex = tuple[int, int]

ENUM_GUARD = 10_000_000


class Lozenge(NamedTuple):
    type: int
    x: int
    y: int


class MoveTable(NamedTuple):
    """Integer form of a region's single-site moves.

    Row r belongs to free[r] and reads (k, a, b, c, x, y, z, m_v, m_q):
    k is the vertex's index into `order` (the sorted vertices), a, b, c
    index its -e1, -e2, -e3 neighbours and x, y, z its +e1, +e2, +e3
    neighbours, and m_v, m_q are 1 when v and v + e3 are masked.  Every
    free vertex sits inside a chain, so its -e3 and +e3 neighbours exist;
    a missing -e1 or -e2 neighbour is replaced by the -e3 one and a
    missing +e1 or +e2 neighbour by the +e3 one, which bound nothing the
    e3 neighbours do not already bound.  So with heights h,

        lo = max(h[a], h[b], h[c] + m_v, h[x] - 1, h[y] - 1, h[z] - 1)
        hi = min(h[a] + 1, h[b] + 1, h[c] + 1, h[x], h[y], h[z] - m_q)

    is `_flip_interval` without a membership test.
    """

    order: tuple[Vertex, ...]
    rows: tuple[tuple[int, ...], ...]


class Region:
    """Vertex set, pinned boundary and mask for one skew shape."""

    __slots__ = ("shape", "vertices", "fixed", "free", "masked", "chains",
                 "depth", "_up", "_down", "_moves")

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
        """The move table of the free vertices, built on first use."""
        if self._moves is None:
            order = tuple(sorted(self.vertices))
            at = {v: k for k, v in enumerate(order)}
            rows = []
            for v in self.free:
                i, j = v
                q = (i + 1, j + 1)
                c, z = at[(i - 1, j - 1)], at[q]
                rows.append((at[v], at.get((i - 1, j), c),
                             at.get((i, j - 1), c), c, at.get((i + 1, j), z),
                             at.get((i, j + 1), z), z,
                             int(v in self.masked), int(q in self.masked)))
            self._moves = MoveTable(order, tuple(rows))
        return self._moves

    def mask_ok(self, h: dict) -> bool:
        """True if every masked e3 edge gains 1 under h."""
        return all(h[v] - h[(v[0] - 1, v[1] - 1)] == 1 for v in self.masked)

    def __repr__(self) -> str:
        return (
            f"Region({self.shape!r}, {len(self.vertices)} vertices, "
            f"{len(self.free)} free, depth {self.depth})"
        )


def build_region(shape: SkewShape) -> Region:
    """Chain-of-diagonals region whose height functions encode the tilings."""
    lam, mu = shape.outer, shape.inner
    if not mu:
        # no inner shape: a single fully pinned state with no excitation room
        v = (0, 0)
        return Region(shape, frozenset([v]), {v: 0}, (), frozenset(),
                      {0: (v,)}, 0)
    s, w = len(mu), mu.width
    kd, ud = {}, {}
    for d in range(-s, w + 1):
        hx, hy = (0, d) if d >= 0 else (-d, 0)
        k = 0
        while (hx + k + 1, hy + k + 1) in mu:
            k += 1
        u = 0
        while (hx + u + 1, hy + u + 1) in lam:
            u += 1
        kd[d], ud[d] = k, u
    depth = max((ud[d] - kd[d] for d in kd if kd[d] > 0), default=0)
    vertices: set[Vertex] = set()
    fixed: dict[Vertex, int] = {}
    masked: set[Vertex] = set()
    chains: dict[int, tuple[Vertex, ...]] = {}
    for d in sorted(kd):
        hx, hy = (0, d) if d >= 0 else (-d, 0)
        chain = tuple((hx + t, hy + t) for t in range(kd[d] + depth + 1))
        chains[d] = chain
        vertices.update(chain)
        if kd[d] == 0:
            for t, v in enumerate(chain):
                fixed[v] = t
        else:
            fixed[chain[0]] = 0
            fixed[chain[-1]] = depth
        for t in range(1, len(chain)):
            if chain[t] not in lam:
                masked.add(chain[t])
    free = tuple(sorted(v for v in vertices if v not in fixed))
    return Region(shape, frozenset(vertices), fixed, free, frozenset(masked),
                  chains, depth)


def _as_region(shape_or_region) -> Region:
    if isinstance(shape_or_region, Region):
        return shape_or_region
    if isinstance(shape_or_region, SkewShape):
        return build_region(shape_or_region)
    raise TypeError(f"expected SkewShape or Region, got {type(shape_or_region)}")


def _check_edges(region: Region, h: dict) -> None:
    vs = region.vertices
    if set(h) != vs:
        missing = vs - set(h)
        extra = set(h) - vs
        raise ValueError(
            f"heights must cover the region exactly "
            f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
        )
    for v in vs:
        i, j = v
        for p in ((i - 1, j), (i, j - 1), (i - 1, j - 1)):
            if p in vs and not 0 <= h[v] - h[p] <= 1:
                raise ValueError(f"edge rule broken on {p} -> {v}: "
                                 f"{h[p]} -> {h[v]}")


class HeightFunction:
    """An integer height assignment on a region's vertices.

    Validation checks vertex coverage, the 0/1 edge rule and agreement
    with the region's pinned boundary.  Whether the support mask holds
    (no horizontal lozenge on cells outside the outer shape) is a
    separate question answered by `Region.mask_ok`.
    """

    __slots__ = ("region", "h")

    def __init__(self, region: Region, h: dict, validate: bool = True):
        self.region = region
        self.h = dict(h)
        if validate:
            _check_edges(region, self.h)
            for v, val in region.fixed.items():
                if self.h[v] != val:
                    raise ValueError(
                        f"pinned boundary value broken at {v}: "
                        f"expected {val}, got {self.h[v]}"
                    )

    def __getitem__(self, v: Vertex) -> int:
        return self.h[v]

    def items(self):
        return self.h.items()

    def copy(self) -> "HeightFunction":
        return HeightFunction(self.region, self.h, validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeightFunction)
            and self.region.shape == other.region.shape
            and self.h == other.h
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.h.items()))

    def __repr__(self) -> str:
        return f"HeightFunction({len(self.h)} vertices)"


class Tiling:
    """A lozenge list (type, x, y), sorted, with a back reference to the region."""

    __slots__ = ("lozenges", "region")

    def __init__(self, lozenges, region: Region | None = None):
        self.lozenges = tuple(sorted(Lozenge(*l) for l in lozenges))
        self.region = region

    def counts(self) -> tuple[int, int, int]:
        out = [0, 0, 0]
        for l in self.lozenges:
            out[l.type - 1] += 1
        return tuple(out)

    def type3_cells(self) -> frozenset[Vertex]:
        return frozenset((l.x, l.y) for l in self.lozenges if l.type == 3)

    def __len__(self) -> int:
        return len(self.lozenges)

    def __iter__(self):
        return iter(self.lozenges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tiling) and self.lozenges == other.lozenges

    def __hash__(self) -> int:
        return hash(self.lozenges)

    def __repr__(self) -> str:
        return f"Tiling({self.counts()} of types 1/2/3)"


def _cone_max(dz0, dz1):
    return np.maximum(np.maximum(dz0, dz1), 0)


def _extension(partial: dict, region: Region, maximal: bool) -> dict:
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
    return {tuple(v): int(x) for v, x in zip(V.tolist(), vals.tolist())}


def extend(partial: dict, region: Region) -> HeightFunction:
    """Largest height function through the given partial values.

    The partial data must satisfy the pairwise growth bound
    g(y) - g(x) <= max(y1 - x1, y2 - x2, 0); a violating pair is reported.
    The result dominates every other extension pointwise.  Only the edge
    rule is validated here: agreement with the region's pins and mask is
    up to the caller's choice of partial data.
    """
    h = _extension(partial, region, maximal=True)
    _check_edges(region, h)
    return HeightFunction(region, h, validate=False)


def minimal_extension(partial: dict, region: Region) -> HeightFunction:
    """Smallest height function through the given partial values."""
    h = _extension(partial, region, maximal=False)
    _check_edges(region, h)
    return HeightFunction(region, h, validate=False)


def _flip_interval(region: Region, hd: dict, v: Vertex) -> tuple[int, int]:
    """Feasible closed interval for the height at v, all else fixed."""
    i, j = v
    vs = region.vertices
    lo, hi = -(1 << 30), 1 << 30
    for p in ((i - 1, j), (i, j - 1)):
        if p in vs:
            hp = hd[p]
            if hp > lo:
                lo = hp
            if hp + 1 < hi:
                hi = hp + 1
    p3 = (i - 1, j - 1)
    if p3 in vs:
        b = hd[p3] + (1 if v in region.masked else 0)
        if b > lo:
            lo = b
        if hd[p3] + 1 < hi:
            hi = hd[p3] + 1
    for q in ((i + 1, j), (i, j + 1)):
        if q in vs:
            hq = hd[q]
            if hq - 1 > lo:
                lo = hq - 1
            if hq < hi:
                hi = hq
    q3 = (i + 1, j + 1)
    if q3 in vs:
        if hd[q3] - 1 > lo:
            lo = hd[q3] - 1
        b = hd[q3] - (1 if q3 in region.masked else 0)
        if b < hi:
            hi = b
    return lo, hi


def flip(h: HeightFunction, v: Vertex) -> HeightFunction | None:
    """Toggle the height at a free vertex between its two legal values.

    Returns the flipped height function, or None when the vertex is not
    flippable (its value is forced by the neighbors).  Pinned or unknown
    vertices raise ValueError.
    """
    region = h.region
    if v not in region.vertices:
        raise ValueError(f"vertex {v} is not in the region")
    if v in region.fixed:
        raise ValueError(f"vertex {v} is pinned to the boundary")
    lo, hi = _flip_interval(region, h.h, v)
    if hi <= lo:
        return None
    new = dict(h.h)
    new[v] = lo + hi - new[v]
    return HeightFunction(region, new, validate=False)


def _decode_up(p: Vertex, hd: dict) -> tuple[int, Vertex]:
    """Lozenge type and anchor for the upward triangle rooted at p."""
    i, j = p
    d1 = hd[(i + 1, j)] - hd[p]
    if d1 == 0:
        if hd[(i + 1, j + 1)] == hd[(i + 1, j)]:
            return 3, (i + 1, j + 1)
        return 1, p
    return 2, (i, j - 1)


def heights_to_tiling(h: HeightFunction) -> Tiling:
    """Decode a height function into its lozenge tiling.

    Every upward triangle carries exactly one lozenge; the paired downward
    triangles are checked to be claimed exactly once, which holds for any
    height function agreeing with the pinned boundary.
    """
    region = h.region
    hd = h.h
    claimed: dict[Vertex, int] = {}
    lozenges = []
    for p in region.up_triangles():
        typ, anchor = _decode_up(p, hd)
        lozenges.append((typ, anchor[0], anchor[1]))
        i, j = p
        q = (i, j) if typ == 3 else ((i + 1, j) if typ == 1 else (i, j - 1))
        if q in claimed:
            raise ValueError(
                f"inconsistent heights: down triangle at {q} claimed twice"
            )
        claimed[q] = typ
    downs = region.down_triangles()
    if len(claimed) != len(downs) or any(q not in claimed for q in downs):
        raise ValueError(
            "inconsistent heights: some down triangles are left uncovered "
            "(do the heights agree with the pinned boundary?)"
        )
    return Tiling(lozenges, region)


def type_counts(h: HeightFunction) -> tuple[int, int, int]:
    """How many lozenges of types 1, 2, 3 the height function encodes."""
    hd = h.h
    out = [0, 0, 0]
    for p in h.region.up_triangles():
        out[_decode_up(p, hd)[0] - 1] += 1
    return tuple(out)


def iter_height_maps(region: Region, guard: int | None = None) -> Iterator[dict]:
    """Stream every height dict of the region in row-major DFS order.

    Raises ResourceGuardError as soon as more than `guard` states have
    been produced (guard = None streams without a limit).
    """
    order = sorted(region.vertices)
    n = len(order)
    vs = region.vertices
    fixedvals = region.fixed
    masked = region.masked
    depth = region.depth
    h = dict(fixedvals)
    cands: list[list[int]] = [[] for _ in range(n)]
    level = 0
    entering = True
    produced = 0
    while level >= 0:
        if level == n:
            produced += 1
            if guard is not None and produced > guard:
                raise ResourceGuardError(
                    f"state space exceeds the guard of {guard} height functions",
                    "use sampler.sample or sampler.estimate_logZ",
                )
            yield dict(h)
            level -= 1
            entering = False
            continue
        v = order[level]
        if entering:
            i, j = v
            lo, hi = 0, depth
            for p in ((i - 1, j), (i, j - 1)):
                if p in vs:
                    lo = max(lo, h[p])
                    hi = min(hi, h[p] + 1)
            p3 = (i - 1, j - 1)
            if p3 in vs:
                lo = max(lo, h[p3] + (1 if v in masked else 0))
                hi = min(hi, h[p3] + 1)
            if v in fixedvals:
                val = fixedvals[v]
                cands[level] = [val] if lo <= val <= hi else []
            else:
                cands[level] = list(range(lo, hi + 1))
        if cands[level]:
            val = cands[level].pop(0)
            if v not in fixedvals:
                h[v] = val
            level += 1
            entering = True
        else:
            if v not in fixedvals:
                h.pop(v, None)
            level -= 1
            entering = False


def iter_flat_cells(region: Region, guard: int | None = None) -> Iterator[list]:
    """Stream, per height function, the cells carrying a horizontal lozenge."""
    chains = [c for c in region.chains.values() if len(c) > 1]
    for h in iter_height_maps(region, guard):
        flats = []
        for chain in chains:
            prev = h[chain[0]]
            for v in chain[1:]:
                cur = h[v]
                if cur == prev:
                    flats.append(v)
                prev = cur
        yield flats


def enumerate_H(shape, guard: int = ENUM_GUARD) -> list[HeightFunction]:
    """All height functions of the shape's region, materialized.

    Memory grows with the count; the guard aborts runaway state spaces
    with a pointer to the Monte Carlo route.
    """
    region = _as_region(shape)
    return [
        HeightFunction(region, h, validate=False)
        for h in iter_height_maps(region, guard)
    ]

