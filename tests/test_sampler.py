import math
import random

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
from skewtab.sampler import _delta_logw
from skewtab.shapes import thick_hook_shape
from skewtab.tiling import build_region, enumerate_H, flip


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
            assert abs(_delta_logw(h.region, h.h, v, out[v], w) - full) < 1e-12
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
    est = estimate_logZ(s332_21, particles=32, seed=3, baseline="exact")
    assert est.log_count is not None
    assert abs(est.log_count - math.log(5)) < 1e-12
    assert abs(est.value - math.log(5)) < 1.0


def test_estimate_logZ_exact_baseline_matches_enumeration():
    shape = thick_hook_shape(2, 2, 2)
    est = estimate_logZ(shape, particles=4, seed=1, baseline="exact",
                        schedule=[0.0, 1.0], sweeps_per_level=2)
    assert abs(est.log_count - math.log(len(enumerate_H(shape)))) < 1e-12


def test_estimate_logZ_exact_baseline_beyond_enumeration():
    # about 1.5e12 tilings: the count comes from the determinant engine
    shape = thick_hook_shape(6, 6, 6)
    est = estimate_logZ(shape, particles=2, seed=2, baseline="exact",
                        schedule=[0.0, 1.0], sweeps_per_level=1)
    exact = partition_function(shape, uniform_weights()).value
    assert exact > math.log(1e12)
    assert est.log_count == exact
    assert math.isfinite(est.value)


def test_estimate_logZ_schedule_validation(s332_21):
    with pytest.raises(ValueError):
        estimate_logZ(s332_21, schedule=[0.5, 1.0], particles=4, seed=0)
    with pytest.raises(ValueError):
        estimate_logZ(s332_21, schedule=[0.0, 0.6, 0.5], particles=4, seed=0)
    for bad in ({"sweeps_per_level": 0}, {"sweeps_per_level": -3},
                {"kappa_segments": 0}):
        with pytest.raises(ValueError):
            estimate_logZ(thick_hook_shape(2, 2, 2), particles=4, **bad)


def test_no_free_vertices_degenerate():
    est = estimate_logZ(SkewShape([3, 2], []), particles=8, seed=0)
    assert est.value == 0.0 and est.stderr == 0.0
    tilings = sample(SkewShape([3, 2], []), n_samples=3)
    assert len(tilings) == 3 and tilings[0] == tilings[1] == tilings[2]
