import math
import random
import re

import numpy as np
import pytest
from scipy import stats

from skewtab import (
    SkewShape,
    density,
    estimate_logZ,
    hook_weights,
    partition_function,
    sample,
    tiling_weight,
    uniform_weights,
)
from skewtab.sampler import CHUNK, _delta_logw, _kernel, _rng
from skewtab.shapes import thick_hook_shape
from skewtab.tiling import (Region, Tiling, build_region, enumerate_H, flip,
                            minimal_extension)

from _naive import (density_reference, flip_interval_reference, mix_reference,
                    outside_cells)
from test_tiling import oracle_shapes


def _check_flips(t) -> int:
    """flip(t, v) against the dict reference at every free vertex of t;
    returns the number of flippable vertices."""
    hd = dict(t.items())
    moved = 0
    for v in t.region.free:
        lo, hi = flip_interval_reference(t.region, hd, v)
        out = flip(t, v)
        if hi <= lo:
            assert out is None, (t, v)
            continue
        assert dict(out.items()) == {**hd, v: lo + hi - hd[v]}, (t, v)
        moved += 1
    return moved


def _trimmed(region):
    """The region without its two outermost chains, its pins kept.

    No region of a skew shape looks like this: free vertices next to the
    dropped chains lose -e1, -e2 or +e1 neighbours.
    """
    drop = set(region.chains[min(region.chains)])
    drop |= set(region.chains[max(region.chains)])
    assert not drop & set(region.free)
    chains = {d: c for d, c in region.chains.items()
              if not drop.issuperset(c)}
    fixed = {v: x for v, x in region.fixed.items() if v not in drop}
    return Region(region.shape, region.vertices - drop, fixed, region.free,
                  chains, region.depth)


def _lone_chain():
    """One chain of six vertices from height 0 to 3, with no e1 or e2
    neighbour anywhere, its cells inside the 5 x 5 square."""
    chain = tuple((t, t) for t in range(6))
    return Region(SkewShape([5] * 5, []), frozenset(chain),
                  {chain[0]: 0, chain[-1]: 3}, chain[1:-1], {0: chain}, 3)


def test_move_table_has_a_row_per_free_vertex():
    assert len(_lone_chain().moves().rows) == 4


def _kernel_regions():
    """th(2,2,2), 3,3,2/2,1, a lone chain and 30 seeded random shapes,
    every third of them trimmed."""
    regions = [build_region(thick_hook_shape(2, 2, 2)),
               build_region(SkewShape([3, 3, 2], [2, 1])), _lone_chain()]
    rng = random.Random(7)
    while len(regions) < 33:
        lam = sorted((rng.randint(1, 7) for _ in range(rng.randint(2, 7))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        reg = build_region(sh)
        if not sh.inner or not 3 <= len(reg.free) <= 40:
            continue
        regions.append(_trimmed(reg) if len(regions) % 3 == 1 else reg)
    return regions


def test_move_table_interval_matches_flip_interval():
    """flip reads the dict reference's interval off its move-table row, on
    every state and free vertex, a region with chain cells outside its
    outer shape included."""
    sizes = []
    for shape in (thick_hook_shape(2, 2, 2), SkewShape([3, 3, 2], [2, 1]),
                  SkewShape([5, 4, 3, 2, 1], [2, 1]), SkewShape([2, 2], [2])):
        reg = build_region(shape)
        table = reg.moves()
        assert [table.order[row[0]] for row in table.rows] == list(reg.free)
        states = enumerate_H(reg)
        moved = 0
        for t in states:
            assert [v for v, _ in t.items()] == list(table.order)
            assert [t[v] for v in table.order] == list(t.heights)
            moved += _check_flips(t)
        # 2,2/2 has one state: its one free vertex (1, 1) is held in place
        # by (1, 2), pinned on the suffix of its chain outside the shape
        assert moved > 0 or outside_cells(reg), shape
        sizes.append((len(states), bool(outside_cells(reg))))
    assert sizes[0] == (20, False) and sizes[-1] == (1, True)


def test_mix_matches_dict_reference():
    """Same chunked draws, same chain, state for state, across a chunk edge."""
    regions = _kernel_regions()
    assert sum(1 for r in regions if outside_cells(r)) >= 20
    missing = moved = 0
    for reg in regions:
        w = hook_weights(reg.shape, scale=reg.shape.size)
        vs = reg.vertices
        missing += any(p not in vs for i, j in reg.free
                       for p in ((i - 1, j), (i, j - 1), (i + 1, j), (i, j + 1)))
        for seed, beta in enumerate([1.0, 0.0, 0.4, 2.5]):
            start = minimal_extension(reg.fixed, reg)
            slow = dict(start.items())
            h = list(start.heights)
            n = CHUNK + 5
            acc = _kernel(reg, w, beta)(h, _rng(seed), n)
            assert acc == mix_reference(reg, slow, _rng(seed), w, beta, n)
            assert h == [slow[u] for u in reg.moves().order], (reg, beta)
            moved += acc > 0
            _check_flips(Tiling(reg, h))
    assert missing >= 5 and moved >= 120


def test_detailed_balance_exact_log_domain(s332_21):
    """Forward and reverse proposals must be exact IEEE negations."""
    shape = thick_hook_shape(2, 2, 2)
    reg = build_region(shape)
    w = hook_weights(shape)
    rng = random.Random(9)
    heights = enumerate_H(shape)
    pairs = 0
    while pairs < 200:
        h = rng.choice(heights)
        v = rng.choice(sorted(reg.free))
        out = flip(h, v)
        if out is None:
            continue
        d_fwd = _delta_logw(reg, dict(h.items()), v, out[v], w)
        d_rev = _delta_logw(reg, dict(out.items()), v, h[v], w)
        assert d_rev == -d_fwd  # bitwise
        # acceptance-log identity: a(x,y) - a(y,x) == delta, exactly
        assert min(0.0, d_fwd) - min(0.0, d_rev) == d_fwd
        pairs += 1
    _ = s332_21


def test_delta_logw_matches_full_recompute():
    shape = thick_hook_shape(2, 2, 2)
    w = hook_weights(shape, scale=shape.size)
    flips = 0
    for h in enumerate_H(shape):
        for v in h.region.free:
            out = flip(h, v)
            if out is None:
                continue
            full = tiling_weight(out, w) - tiling_weight(h, w)
            delta = _delta_logw(h.region, dict(h.items()), v, out[v], w)
            assert abs(delta - full) < 1e-12
            flips += 1
    assert flips > 0


def test_sample_reproducible(s332_21):
    a = sample(s332_21, n_samples=25, seed=4)
    b = sample(s332_21, n_samples=25, seed=4)
    assert a == b
    c = sample(s332_21, n_samples=25, seed=5)
    assert a != c


def test_sample_visits_everything(s332_21):
    heights = enumerate_H(s332_21)
    samples = sample(s332_21, n_samples=400, seed=8)
    seen = {t for t in samples}
    assert len(seen) == len(heights)


def test_uniform_gof_small(s332_21):
    n = 20_000
    samples = sample(s332_21, n_samples=n, seed=12)
    from collections import Counter

    counts = Counter(t.type3_cells() for t in samples)
    assert len(counts) == 5
    chi2 = sum((c - n / 5) ** 2 / (n / 5) for c in counts.values())
    p = stats.chi2.sf(chi2, 4)
    assert p > 0.005, (chi2, p)


def test_density_matches_reference():
    """The numpy pass over stacked heights counts what the lozenge loop
    counts, bit for bit."""
    for seed, shape in enumerate(oracle_shapes()[:12]):
        reg = build_region(shape)
        w = hook_weights(shape, scale=shape.size)
        samples = sample(reg, w, n_samples=60, thin=3, seed=seed)
        new, ref = density(samples), density_reference(samples)
        assert new.anchors == ref.anchors and new.n == ref.n == 60
        assert np.array_equal(new.freqs, ref.freqs), reg


def test_density_rows(s332_21):
    samples = sample(s332_21, n_samples=150, seed=2)
    field = density(samples)
    freqs = np.asarray(field.freqs)
    assert freqs.shape[1] == 3
    assert np.allclose(freqs.sum(axis=1), 1.0)
    rows = list(field.rows())
    assert all(len(r) == 6 and r[5] == 150 for r in rows)
    with pytest.raises(ValueError):
        density([])


def test_estimate_logZ_uniform(s332_21):
    exact = math.log(len(enumerate_H(s332_21)))
    est = estimate_logZ(s332_21, particles=96, seed=6)
    assert est.stderr < 0.5
    assert abs(est.value - exact) < max(4 * est.stderr, 0.3)


def test_estimate_logZ_weighted():
    shape = thick_hook_shape(2, 2, 2)
    w = hook_weights(shape)
    exact = partition_function(shape, w).value
    est = estimate_logZ(shape, w, particles=96, seed=14)
    assert abs(est.value - exact) < max(4 * est.stderr, 0.5)


def test_estimate_logZ_exact_baseline(s332_21):
    est = estimate_logZ(s332_21, particles=32, seed=3)
    assert abs(est.log_count - math.log(5)) < 1e-12
    assert abs(est.value - math.log(5)) < 1.0


def test_estimate_logZ_exact_baseline_matches_enumeration():
    shape = thick_hook_shape(2, 2, 2)
    est = estimate_logZ(shape, particles=4, seed=1, schedule=[0.0, 1.0],
                        sweeps_per_level=2)
    assert abs(est.log_count - math.log(len(enumerate_H(shape)))) < 1e-12


def test_estimate_logZ_exact_baseline_beyond_enumeration():
    # about 1.5e12 tilings: the count comes from the determinant engine
    shape = thick_hook_shape(6, 6, 6)
    est = estimate_logZ(shape, particles=2, seed=2, schedule=[0.0, 1.0],
                        sweeps_per_level=1)
    exact = partition_function(shape, uniform_weights()).value
    assert exact > math.log(1e12)
    assert est.log_count == exact
    assert math.isfinite(est.value)


def test_density_refuses_samples_from_two_regions(s332_21):
    mixed = (sample(s332_21, n_samples=2)
             + sample(thick_hook_shape(2, 2, 2), n_samples=2))
    with pytest.raises(ValueError, match="share one region"):
        density(mixed)


def test_estimate_logZ_refuses_an_empty_schedule(s332_21):
    with pytest.raises(ValueError, match="must not be empty"):
        estimate_logZ(s332_21, schedule=[], particles=4)


def test_estimate_logZ_refuses_a_schedule_ending_above_one(s332_21):
    with pytest.raises(ValueError, match="end at or below 1"):
        estimate_logZ(s332_21, schedule=[0.0, 0.5, 1.5], particles=4)


def test_estimate_logZ_schedule_validation(s332_21):
    with pytest.raises(ValueError):
        estimate_logZ(s332_21, schedule=[0.5, 1.0], particles=4, seed=0)
    with pytest.raises(ValueError):
        estimate_logZ(s332_21, schedule=[0.0, 0.6, 0.5], particles=4, seed=0)
    for bad in ([0.0, float("nan"), 1.0], [0.0, 0.5, float("inf")],
                [float("nan"), 1.0]):
        with pytest.raises(ValueError):
            estimate_logZ(s332_21, schedule=bad, particles=4)
    for bad in ({"sweeps_per_level": 0}, {"sweeps_per_level": -3},
                {"sweeps_per_level": 1.5}, {"sweeps_per_level": True},
                {"particles": 2.5}, {"particles": 1}):
        kwargs = {"particles": 4, **bad}
        with pytest.raises(ValueError):
            estimate_logZ(thick_hook_shape(2, 2, 2), **kwargs)
    with pytest.raises(ValueError):
        estimate_logZ(s332_21, particles=2.5)


@pytest.mark.parametrize("seed, why", [
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    (-1, "seed must be >= 0, got -1"),
])
def test_seed_must_be_a_nonnegative_integer(s332_21, seed, why):
    with pytest.raises(ValueError, match=why):
        sample(s332_21, n_samples=1, seed=seed)
    with pytest.raises(ValueError, match=why):
        estimate_logZ(s332_21, particles=2, seed=seed)


def test_nan_log_weight_is_refused(s332_21):
    # a NaN used to leave every Metropolis test false (a uniform chain)
    # and make the AIS estimate NaN
    cell = (2, 2)
    w = {**hook_weights(s332_21), cell: math.nan}
    with pytest.raises(ValueError, match=re.escape(str(cell))):
        sample(s332_21, w, n_samples=2)
    with pytest.raises(ValueError, match=re.escape(str(cell))):
        estimate_logZ(s332_21, w, particles=2)


def test_infinite_log_weight_is_refused(s332_21):
    cell = (3, 1)
    for x in (math.inf, -math.inf):
        w = {cell: x}
        with pytest.raises(ValueError, match=re.escape(str(cell))):
            sample(s332_21, w, n_samples=2)
        with pytest.raises(ValueError, match=re.escape(str(cell))):
            estimate_logZ(s332_21, w, particles=2)


def test_sample_count_validation(s332_21):
    for bad in ({"burn_in": -1}, {"burn_in": 2.5}, {"thin": 0},
                {"thin": 1.5}, {"n_samples": -1}, {"n_samples": 2.5},
                {"n_samples": True}):
        with pytest.raises(ValueError):
            sample(s332_21, **bad)
    assert len(sample(s332_21, burn_in=np.int64(3), n_samples=2)) == 2


def test_estimate_logZ_coverage():
    """Twenty fixed seeds on hook-weighted th(4,4,4), 16 particles: the
    error is within two standard errors on at least 15 and not biased low
    on average."""
    shape = thick_hook_shape(4, 4, 4)
    region = build_region(shape)
    w = hook_weights(shape)
    exact = partition_function(region, w).value
    zs = [(est.value - exact) / est.stderr
          for est in (estimate_logZ(region, w, particles=16, seed=seed)
                      for seed in range(1000, 1020))]
    assert sum(abs(z) < 2 for z in zs) >= 15, zs
    assert sum(zs) / len(zs) > -1.5, zs


def test_estimate_logZ_acceptance(s332_21):
    est = estimate_logZ(s332_21, particles=4, seed=0)
    assert 0.0 < est.acceptance <= 1.0


def test_no_free_vertices_degenerate():
    est = estimate_logZ(SkewShape([3, 2], []), particles=8, seed=0)
    assert est.value == 0.0 and est.stderr == 0.0 and est.acceptance == 0.0
    tilings = sample(SkewShape([3, 2], []), n_samples=3)
    assert len(tilings) == 3 and tilings[0] == tilings[1] == tilings[2]
