import random

import pytest

from skewtab import (
    HeightFunction,
    ResourceGuardError,
    SkewShape,
    Tiling,
    build_region,
    enumerate_H,
    extend,
    flip,
    heights_to_tiling,
    minimal_extension,
    type_counts,
)
from skewtab.tiling import iter_flat_cells


def region_332_21():
    return build_region(SkewShape([3, 3, 2], [2, 1]))


def test_region_structure_332_21():
    reg = region_332_21()
    assert len(reg.vertices) == 13
    assert reg.depth == 1
    assert set(reg.free) == {(1, 1), (1, 2), (2, 1)}
    assert not reg.masked
    # heads pinned to 0, tails pinned to the depth
    for chain in reg.chains.values():
        assert reg.fixed[chain[0]] == 0
        assert reg.fixed[chain[-1]] == reg.depth


def test_region_empty_inner_degenerate():
    reg = build_region(SkewShape([3, 2], []))
    assert len(reg.vertices) == 1
    assert not reg.free
    assert len(enumerate_H(reg.shape)) == 1


def test_enumerate_heights_332_21():
    heights = enumerate_H(SkewShape([3, 3, 2], [2, 1]))
    assert len(heights) == 5
    flat_sets = sorted(sorted(f) for f in
                       iter_flat_cells(region_332_21()))
    assert flat_sets == sorted([
        sorted([(1, 1), (1, 2), (2, 1)]),
        sorted([(1, 1), (2, 1), (2, 3)]),
        sorted([(1, 1), (1, 2), (3, 2)]),
        sorted([(1, 1), (2, 3), (3, 2)]),
        sorted([(2, 2), (2, 3), (3, 2)]),
    ])


def test_height_function_validation():
    reg = region_332_21()
    lo = minimal_extension(reg.fixed, reg)
    assert isinstance(lo, HeightFunction)
    bad = dict(lo.items())
    bad[(1, 1)] = 7  # breaks the 0/1 edge rule
    with pytest.raises(ValueError):
        HeightFunction(reg, bad)
    ignores_pin = {v: 0 for v in reg.vertices}
    ignores_pin.update({v: 0 for v in reg.fixed})
    # all-zero violates tail pins on depth-1 chains
    with pytest.raises(ValueError):
        HeightFunction(reg, ignores_pin)


def test_decode_round_trip_and_type_counts():
    shape = SkewShape([3, 3, 2], [2, 1])
    heights = enumerate_H(shape)
    counts = {type_counts(h) for h in heights}
    assert len(counts) == 1  # type counts are a tiling invariant
    n1, n2, n3 = counts.pop()
    assert n3 == shape.inner.size
    for h in heights:
        t = heights_to_tiling(h)
        assert t.counts() == (n1, n2, n3)
        assert len(t.lozenges) == n1 + n2 + n3


def test_tilings_distinct():
    heights = enumerate_H(SkewShape([3, 3, 2], [2, 1]))
    tilings = {heights_to_tiling(h) for h in heights}
    assert len(tilings) == 5


def test_flip_involution_and_interval():
    reg = region_332_21()
    heights = enumerate_H(reg.shape)
    rng = random.Random(5)
    for h in heights:
        for v in reg.free:
            out = flip(h, v)
            if out is None:
                continue
            assert out[v] != h[v]
            back = flip(out, v)
            assert back == h  # involution
    with pytest.raises(ValueError):
        flip(heights[0], (0, 0))  # pinned vertex
    with pytest.raises(ValueError):
        flip(heights[0], (99, 99))
    _ = rng  # rng reserved for shapes below


def test_flip_graph_connected():
    for lam, mu in [((3, 3, 2), (2, 1)), ((4, 4, 4), (2, 2)),
                    ((5, 4, 3, 2, 1), (2, 1))]:
        shape = SkewShape(lam, mu)
        heights = enumerate_H(shape)
        reg = build_region(shape)
        seen = {heights[0]}
        frontier = [heights[0]]
        while frontier:
            cur = frontier.pop()
            for v in reg.free:
                nxt = flip(cur, v)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == len(heights)


def test_extension_extremes_match_enumeration():
    reg = region_332_21()
    heights = enumerate_H(reg.shape)
    hi = extend(dict(reg.fixed), reg)
    lo = minimal_extension(dict(reg.fixed), reg)
    for v in reg.vertices:
        assert hi[v] == max(h[v] for h in heights)
        assert lo[v] == min(h[v] for h in heights)
    assert hi in heights and lo in heights


def test_extension_dominates_partial_data():
    reg = region_332_21()
    heights = enumerate_H(reg.shape)
    rng = random.Random(42)
    for _ in range(40):
        h0 = rng.choice(heights)
        pinned = dict(reg.fixed)
        for v in reg.free:
            if rng.random() < 0.5:
                pinned[v] = h0[v]
        hi = extend(pinned, reg)
        lo = minimal_extension(pinned, reg)
        for v in reg.vertices:
            assert lo[v] <= h0[v] <= hi[v]
        for v, val in pinned.items():
            assert hi[v] == val or v not in pinned


def test_extension_rejects_contradiction():
    reg = region_332_21()
    bad = dict(reg.fixed)
    bad[(1, 1)] = 5  # too high for its neighbors
    with pytest.raises(ValueError):
        extend(bad, reg)


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError) as ei:
        enumerate_H(SkewShape([8] * 8, [4] * 4), guard=50)
    assert "sample" in str(ei.value)


def test_tiling_sort_invariance(s332_21):
    h = enumerate_H(s332_21)[0]
    t = heights_to_tiling(h)
    shuffled = Tiling(tuple(reversed(t.lozenges)), t.region)
    assert shuffled == t  # canonical ordering inside the constructor
