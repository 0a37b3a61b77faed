import json
import random

import pytest

from skewtab import (
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
from skewtab.nhlf import hook_weights, tiling_weight
from skewtab.serialize import load_tiling, save_tiling
from skewtab.shapes import thick_hook_shape
from skewtab.tiling import _as_region, _check_edges, iter_flat_cells

from _naive import flip_interval_reference, heights_to_tiling_reference
from test_acceptance import _all_partitions_up_to, _subpartitions


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
    for shape in (SkewShape([3, 2], []), SkewShape()):
        reg = build_region(shape)
        assert (reg.vertices, reg.fixed, reg.free, reg.masked, reg.chains,
                reg.depth) == ({(0, 0)}, {(0, 0): 0}, (), set(),
                               {0: ((0, 0),)}, 0)
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
    assert isinstance(lo, Tiling)
    order = reg.moves().order
    bad = list(lo.heights)
    bad[order.index((1, 1))] = 7  # breaks the 0/1 edge rule
    with pytest.raises(ValueError, match="edge rule"):
        _check_edges(reg, bad)
    # all-zero keeps the edge rule but violates tail pins on depth-1 chains
    ignores_pin = [0] * len(order)
    _check_edges(reg, ignores_pin)
    with pytest.raises(ValueError):
        Tiling(reg, ignores_pin).lozenges


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


def test_flip_reads_the_row_of_its_vertex():
    # th(30,30,30) has 2,611 free vertices; flip finds a vertex's move-table
    # row by bisection in the sorted free tuple, checked at both ends and in
    # the middle against the dict route, on tilings where each can and
    # cannot flip
    reg = build_region(thick_hook_shape(30, 30, 30))
    free = reg.free
    assert list(free) == sorted(free) and len(free) == 2611
    lowest = minimal_extension(reg.fixed, reg)
    highest = extend(reg.fixed, reg)
    for v in (free[0], free[len(free) // 2], free[-1]):
        flippable = 0
        for t in (lowest, highest,
                  extend({**reg.fixed, v: lowest[v]}, reg),
                  minimal_extension({**reg.fixed, v: highest[v]}, reg)):
            hd = dict(t.items())
            lo, hi = flip_interval_reference(reg, hd, v)
            out = flip(t, v)
            if hi <= lo:
                assert out is None
                continue
            flippable += 1
            hd[v] = lo + hi - hd[v]
            assert dict(out.items()) == hd
        assert flippable >= 2


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


def test_extension_needs_pins():
    with pytest.raises(ValueError, match="at least one pinned value"):
        extend({}, region_332_21())


def test_extension_refuses_pins_outside_the_region():
    with pytest.raises(ValueError, match="outside the region"):
        minimal_extension({(9, 9): 0}, region_332_21())


def test_extensions_keep_the_edge_rule():
    """Both extensions of any partial data that passes the growth check
    gain 0 or 1 along every edge, with or without the region's pins."""
    rng = random.Random(4040)
    regions = []
    while len(regions) < 60:
        lam = sorted((rng.randint(1, 8) for _ in range(rng.randint(1, 7))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            regions.append(build_region(SkewShape(lam, mu)))
        except ValueError:
            continue
    checked = 0
    for reg in regions:
        order = reg.moves().order
        for _ in range(40):
            partial = {v: rng.randint(-2, reg.depth + 2)
                       for v in rng.sample(order, min(len(order),
                                                      rng.randint(1, 6)))}
            for ext in (extend, minimal_extension):
                try:
                    t = ext(partial, reg)
                except ValueError as exc:
                    assert "grows too fast" in str(exc)
                    continue
                _check_edges(reg, t.heights)
                assert all(t[v] == x for v, x in partial.items())
                checked += 1
    assert checked == 1550


def test_as_region_refuses_a_non_shape():
    with pytest.raises(TypeError, match="expected SkewShape or Region"):
        _as_region([[3, 3, 2], [2, 1]])


def test_heights_invert_flat_cells():
    """heights(flat_cells(h)) is h on every tiling, and the inner shape's
    cells give the lowest tiling, which the minimal extension of the pins
    also reaches."""
    for shape in oracle_shapes() + [SkewShape(), SkewShape([3, 2]),
                                    SkewShape([2, 2], [2, 2])]:
        reg = build_region(shape)
        table = reg.moves()
        states = enumerate_H(reg)
        for t in states:
            assert table.heights(set(table.flat_cells(t.heights))) == \
                list(t.heights)
        low = table.heights(set(shape.inner.cells()))
        assert low == [min(t.heights[k] for t in states)
                       for k in range(len(low))]
        assert low == list(minimal_extension(reg.fixed, reg).heights)


def test_mask_is_the_chain_cells_outside_the_outer_shape():
    shapes = [SkewShape()]
    for lam in _all_partitions_up_to(7):
        for mu in _subpartitions(lam):
            try:
                shapes.append(SkewShape(lam, mu))
            except ValueError:
                continue
    for shape in shapes:
        reg = build_region(shape)
        assert reg.masked == {v for c in reg.chains.values() for v in c[1:]
                              if v not in shape.outer}, shape


def test_masked_suffix_is_pinned():
    """From the diagonal's last cell in the outer shape to the tail, every
    chain vertex is pinned to t - k_d at step t, so no move touches the
    mask, and the maximal extension of the pins is the highest tiling."""
    shapes = []
    for lam in _all_partitions_up_to(7):
        for mu in _subpartitions(lam):
            try:
                shapes.append(SkewShape(lam, mu))
            except ValueError:
                continue
    rng = random.Random(20261020)
    for _ in range(300):
        while True:
            lam = sorted((rng.randint(1, 9)
                          for _ in range(rng.randint(1, 8))), reverse=True)
            mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
            try:
                shapes.append(SkewShape(lam, mu))
                break
            except ValueError:
                continue
    extended = 0
    for shape in shapes:
        reg = build_region(shape)
        for chain in reg.chains.values():
            k = len(chain) - 1 - reg.depth
            u = sum(1 for v in chain[1:] if v in shape.outer)
            for t, v in enumerate(chain):
                if v in reg.masked or t == u or k == 0:
                    assert reg.fixed.get(v) == t - k, (shape, v)
        assert not any(v in reg.masked or (v[0] + 1, v[1] + 1) in reg.masked
                       for v in reg.free), shape
        if shape.size > 12:
            continue
        top = extend(reg.fixed, reg)
        assert all(top[v] == x for v, x in reg.fixed.items()), shape
        assert len(top.lozenges) == len(reg.up_triangles())
        assert reg.masked.isdisjoint(top.type3_cells()), shape
        states = enumerate_H(reg)
        assert list(top.heights) == [max(t.heights[i] for t in states)
                                     for i in range(len(top.heights))], shape
        extended += 1
    assert extended == 483


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError) as ei:
        enumerate_H(SkewShape([8] * 8, [4] * 4), guard=50)
    assert "sample" in str(ei.value)


def test_tiling_sort_invariance(s332_21, tmp_path):
    """A tiling file lists its lozenges in any order."""
    t = heights_to_tiling(enumerate_H(s332_21)[0])
    save_tiling(t, tmp_path / "t.json")
    doc = json.loads((tmp_path / "t.json").read_text())
    (tmp_path / "t.json").write_text(json.dumps(doc[::-1]))
    assert load_tiling(tmp_path / "t.json", s332_21) == t


def oracle_shapes():
    """3,3,2/2,1, th(2,2,2), 5,4,3,2,1/2,1 and 30 seeded random shapes."""
    shapes = [SkewShape([3, 3, 2], [2, 1]), thick_hook_shape(2, 2, 2),
              SkewShape([5, 4, 3, 2, 1], [2, 1])]
    rng = random.Random(20260815)
    while len(shapes) < 33:
        lam = sorted((rng.randint(1, 10) for _ in range(rng.randint(1, 10))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        if sh.inner and 1 <= sh.size <= 14 and sh not in shapes:
            shapes.append(sh)
    return shapes


def weight_reference(h, w) -> float:
    """tiling_weight by dict lookups, chain by chain from head to tail."""
    total = 0.0
    for chain in h.region.chains.values():
        for u, v in zip(chain, chain[1:]):
            if h[u] == h[v]:
                total += w.get(v, 0.0)
    return total


def test_tiling_matches_dict_reference():
    states = 0
    for shape in oracle_shapes():
        w = hook_weights(shape, scale=shape.size)
        for h in enumerate_H(shape):
            ref = heights_to_tiling_reference(h.region, dict(h.items()))
            t = heights_to_tiling(h)
            assert t.lozenges == ref, shape
            assert t.counts() == type_counts(h) == tuple(
                sum(l.type == k for l in ref) for k in (1, 2, 3))
            assert t.type3_cells() == {(l.x, l.y) for l in ref if l.type == 3}
            assert tiling_weight(t, w) == tiling_weight(h, w) \
                == weight_reference(h, w)
            states += 1
    assert states > 250


def test_decode_raises_where_reference_does():
    """Heights one step off a tiling decode like the dict reference, and
    heights breaking the pins raise on `lozenges`."""
    rng = random.Random(3)
    raised = 0
    for shape in oracle_shapes()[:12]:
        region = build_region(shape)
        order = region.moves().order
        for h in enumerate_H(shape):
            v = rng.choice(order)
            bad = dict(h.items())
            bad[v] += rng.choice((-1, 1))
            t = Tiling(region, [bad[u] for u in order])
            try:
                ref = heights_to_tiling_reference(region, bad)
            except ValueError:
                with pytest.raises(ValueError):
                    t.lozenges
                raised += 1
            else:
                assert t.lozenges == ref
    assert raised > 20
    region = region_332_21()
    with pytest.raises(ValueError):
        Tiling(region, [0] * len(region.vertices)).lozenges
