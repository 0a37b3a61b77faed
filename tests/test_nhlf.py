import math
import random
import re
from fractions import Fraction

import pytest

from _naive import (
    LogSum,
    det_reference,
    enumerated_log_z,
    enumerated_sum,
    naive_count,
    tiling_sum_reference,
)
from test_acceptance import _all_partitions_up_to, _subpartitions
from skewtab import (
    SkewShape,
    capped_weights,
    count_determinant,
    count_nhlf,
    count_thick_hook,
    hook_weights,
    partition_function,
    thick_hook_shape,
    thick_ribbon_shape,
    tiling_weight,
    uniform_weights,
)
from skewtab.exact import _bareiss_det, count_brute_force, count_hlf
from skewtab.sampler import estimate_logZ, sample
from skewtab.nhlf import _log_ratio, _tiling_sum, cap_gaps
from skewtab.shapes import hook_table
from skewtab.tiling import Region, enumerate_H, iter_flat_cells, build_region


def test_logsum_matches_direct():
    rng = random.Random(1)
    logs = [rng.uniform(-50, 50) for _ in range(300)]
    acc = LogSum()
    for lw in logs:
        acc.add(lw)
    direct = math.log(sum(math.exp(l - max(logs)) for l in logs)) + max(logs)
    assert abs(acc.value - direct) < 1e-12
    assert acc.count == 300


def test_logsum_order_invariance():
    rng = random.Random(2)
    logs = [rng.uniform(-700, 700) for _ in range(100)]
    a, b = LogSum(), LogSum()
    for lw in logs:
        a.add(lw)
    for lw in reversed(logs):
        b.add(lw)
    assert abs(a.value - b.value) < 1e-10 * max(1.0, abs(a.value))


def test_logsum_merge_and_empty():
    a, b = LogSum(), LogSum()
    assert a.value == -math.inf
    a.add(0.0)
    b.add(1.0)
    a.merge(b)
    assert abs(a.value - math.log(math.exp(0) + math.exp(1))) < 1e-12
    a.add(-math.inf)  # no-op beyond the counter
    assert a.count == 3


def test_count_nhlf_agrees(s332_21):
    assert count_nhlf(s332_21) == 16
    rng = random.Random(3)
    done = 0
    while done < 40:
        lam = sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 5))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        if not 1 <= sh.size <= 14:
            continue
        assert count_nhlf(sh) == naive_count(lam, tuple(mu))
        done += 1


def test_count_nhlf_straight_and_empty():
    assert count_nhlf(SkewShape([], [])) == 1
    assert count_nhlf(SkewShape([4, 2], [])) == naive_count((4, 2))


def test_weight_fields_are_cell_log_mappings(s332_21):
    n = s332_21.size
    hooks = hook_table(s332_21.outer)
    assert uniform_weights() == {}
    assert hook_weights(s332_21) == {c: math.log(h) for c, h in hooks.items()}
    scaled = hook_weights(s332_21, scale=n)
    assert scaled == {c: math.log(h) - 0.5 * math.log(n)
                      for c, h in hooks.items()}
    capped = capped_weights(s332_21, n, 0.5)
    assert capped == {c: max(lw, math.log(0.5)) for c, lw in scaled.items()}
    assert capped != scaled  # something gets floored at this aggressive cap
    with pytest.raises(ValueError):
        capped_weights(s332_21, n, 0.0)


@pytest.mark.parametrize("bad", [0, -3, float("nan")])
def test_weight_scales_must_be_positive(s332_21, bad):
    with pytest.raises(ValueError, match=f"scale must be > 0, got {bad}"):
        hook_weights(s332_21, scale=bad)
    with pytest.raises(ValueError, match=f"N must be > 0, got {bad}"):
        capped_weights(s332_21, bad, 0.5)


def test_tiling_weight_paths_agree(s332_21):
    # chain-walk fast path vs full decode must give identical sums
    w = hook_weights(s332_21)
    for t in enumerate_H(s332_21):
        fast = tiling_weight(t, w)
        slow = sum(w.get((l.x, l.y), 0.0)
                   for l in t.lozenges if l.type == 3)
        assert abs(fast - slow) < 1e-12


def test_weight_scaling_identity(s332_21):
    # dividing each hook by sqrt(N) multiplies every term by N^(-|mu|/2)
    n = s332_21.size
    mu_size = s332_21.inner.size
    z_plain = partition_function(s332_21, hook_weights(s332_21)).value
    z_scaled = partition_function(
        s332_21, hook_weights(s332_21, scale=n)).value
    assert abs(
        (z_scaled + 0.5 * mu_size * math.log(n)) - z_plain) < 1e-9


def test_term_sum_by_hand(s332_21):
    # integer reconstruction of the five weighted terms
    ht = hook_table(s332_21.outer)
    total = 0
    for flats in iter_flat_cells(build_region(s332_21)):
        prod = 1
        for c in flats:
            prod *= ht[c]
        total += prod
    assert total == 128


def test_cap_gap_properties(s332_21):
    n = s332_21.size
    gaps = cap_gaps(s332_21, n, [0.5, 0.25, 0.1])
    assert all(g >= 0 for g in gaps)
    assert gaps[2] <= gaps[1] <= gaps[0]
    for eps, g in zip([0.5, 0.25, 0.1], gaps):
        assert g <= eps * eps * (1 - math.log(eps)) + 1e-12
    assert cap_gaps(s332_21, n, [0.25])[0] == gaps[1]
    # eps = 1 caps everything below sqrt(N), still bounded
    assert cap_gaps(s332_21, n, [1.0])[0] <= 1.0 * (1 - 0.0) + 1e-12


def _random_weights(sh, rng, top=9):
    return {c: Fraction(rng.randint(1, top), rng.randint(1, top))
            for c in sh.outer.cells()}


def test_tiling_sum_matches_enumeration():
    # exact agreement for random rational weights: every connected shape
    # with |outer| <= 8 and a nonempty inner shape, then larger random ones
    rng = random.Random(7)
    checked = 0
    for lam in _all_partitions_up_to(8):
        for mu in _subpartitions(lam):
            if not any(mu):
                continue
            try:
                sh = SkewShape(lam, mu)
            except ValueError:
                continue
            region = build_region(sh)
            w = _random_weights(sh, rng)
            assert _tiling_sum(region, w.__getitem__) \
                == enumerated_sum(region, w), (lam, mu)
            checked += 1
    assert checked == 485
    done = 0
    while done < 30:
        lam = sorted((rng.randint(1, 8) for _ in range(rng.randint(2, 8))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        region = build_region(sh)
        if not sh.inner or not 9 <= len(region.free) <= 30:
            continue
        w = _random_weights(sh, rng)
        assert _tiling_sum(region, w.__getitem__) \
            == enumerated_sum(region, w), (lam, mu)
        done += 1


def test_count_nhlf_large_shapes():
    for k in range(1, 21):
        assert count_nhlf(thick_hook_shape(k, k, k)) \
            == count_thick_hook(k, k, k), k
    # odd and even ribbons: path windows clipped at both ends of a chain
    for k in (*range(3, 16), 16):
        sh = thick_ribbon_shape(k)
        assert count_nhlf(sh) == count_determinant(sh), k


def test_partition_function_matches_enumeration(s332_21):
    for sh in (s332_21, thick_hook_shape(2, 2, 2), thick_hook_shape(3, 2, 2),
               SkewShape([5, 4, 4, 2], [2, 1])):
        region = build_region(sh)
        n = sh.size
        for w in (uniform_weights(), hook_weights(sh),
                  hook_weights(sh, scale=n), capped_weights(sh, n, 0.25)):
            exact = enumerated_log_z(region, w).value
            assert abs(partition_function(region, w).value - exact) \
                <= 1e-12 * max(1.0, abs(exact)), (sh, w)
        z = enumerated_log_z(region, hook_weights(sh, scale=n))
        for eps, gap in zip((0.5, 0.1), cap_gaps(region, n, (0.5, 0.1))):
            capped = enumerated_log_z(region, capped_weights(sh, n, eps))
            assert abs(gap - (capped.value - z.value) / n) < 1e-12, (sh, eps)


def test_cap_gaps_beyond_enumeration():
    # c06's bounds on th(8,8,8), N = 192, far past any enumeration
    sh = thick_hook_shape(8, 8, 8)
    eps_list = [0.5, 0.25, 0.1]
    gaps = cap_gaps(sh, sh.size, eps_list)
    for eps, gap in zip(eps_list, gaps):
        assert 0.0 <= gap <= eps * eps * (1.0 - math.log(eps)), (eps, gap)
    assert 0.0 < gaps[2] < gaps[1] < gaps[0]


def test_cap_gap_resolves_tiny_ratios():
    # a cap a few ulps above the smallest log weight raises one cell's
    # weight by a few ulps: the gap must be that tiny positive ratio, not
    # the rounding noise of two large logs
    sh = thick_hook_shape(2, 2, 2)
    n = sh.size
    floor = min(hook_weights(sh, scale=n).values())
    eps = math.exp(floor)
    for _ in range(4):
        eps = math.nextafter(eps, 1.0)
    gap = cap_gaps(sh, n, [eps])[0]
    z = partition_function(sh, hook_weights(sh, scale=n)).z
    zc = partition_function(sh, capped_weights(sh, n, eps)).z
    assert zc > z
    assert 0.0 < gap and abs(gap - float((zc - z) / z) / n) <= 1e-9 * gap
    # ratios beyond the float range still have a log
    assert abs(_log_ratio(Fraction(10) ** 400, Fraction(1))
               - 400 * math.log(10)) < 1e-9


def test_det_with_row_swap():
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[0, 2, 1], [3, 0, 0], [0, 1, 1]]) == -3
    assert _bareiss_det([[1, 2], [2, 4]]) == 0
    # the first zero pivot appears at step 1, after one elimination step
    assert _bareiss_det([[1, 1, 1], [1, 1, 2], [1, 2, 1]]) == -1
    assert _bareiss_det([]) == 1
    assert _bareiss_det([[-7]]) == -7


def test_bareiss_det_matches_rational_elimination():
    rng = random.Random(12)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        zeros = rng.random()  # sparse matrices hit zero pivots
        m = [[0 if rng.random() < zeros else rng.randint(-5, 5)
              for _ in range(n)] for _ in range(n)]
        if n >= 3 and rng.random() < 0.3:
            a, b, c = rng.sample(range(n), 3)
            m[c] = [x - 2 * y for x, y in zip(m[a], m[b])]
        det = _bareiss_det(m)
        assert det == det_reference([[Fraction(x) for x in row]
                                     for row in m]), m
        singular += det == 0
    assert singular >= 60


def test_tiling_sum_matches_fraction_engine():
    # the integer engine against the Fraction path sums it replaced, far
    # past enumeration: random shapes with random rational weights, then
    # thick hooks and ribbons with integer hooks
    rng = random.Random(13)
    done = 0
    while done < 40:
        lam = sorted((rng.randint(1, 10) for _ in range(rng.randint(3, 10))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        region = build_region(sh)
        if len(region.free) < 30:
            continue
        w = _random_weights(sh, rng, top=10 ** 6)
        assert _tiling_sum(region, w.__getitem__) \
            == tiling_sum_reference(region, w.__getitem__), (lam, mu)
        done += 1
    shapes = [thick_hook_shape(k, k, k) for k in range(4, 9)]
    for sh in shapes + [thick_ribbon_shape(10), thick_ribbon_shape(16)]:
        region = build_region(sh)
        hooks = hook_table(sh.outer).__getitem__
        assert _tiling_sum(region, hooks) \
            == tiling_sum_reference(region, hooks), sh


def test_partition_function_matches_fraction_engine():
    # reciprocal-dyadic weights move log Z by rounding only, and `value`
    # keeps log z to an ulp although z's numerator and denominator are long
    for k in range(4, 9):
        sh = thick_hook_shape(k, k, k)
        logs = hook_weights(sh, scale=sh.size)
        ref = tiling_sum_reference(
            build_region(sh), lambda c: Fraction(math.exp(logs.get(c, 0.0))))
        ref_log = math.log(ref.numerator) - math.log(ref.denominator)
        pf = partition_function(sh, hook_weights(sh, scale=sh.size))
        assert abs(pf.value - ref_log) <= 1e-12 * abs(ref_log), k
        assert abs(pf.value - math.log(float(pf.z))) \
            <= 2 * math.ulp(pf.value), k


@pytest.mark.parametrize("x", [746.0, math.inf, -710.0, -math.inf, math.nan])
def test_partition_function_refuses_log_weights_out_of_range(s332_21, x):
    # 1 / exp(-x) needs a positive finite exp(-x): above about 745 it
    # underflowed to 0 (ZeroDivisionError), below about -709.8 it
    # overflowed (OverflowError), and NaN failed without naming the cell
    cell = (2, 3)
    w = {**hook_weights(s332_21), cell: x}
    with pytest.raises(ValueError, match=re.escape(str(cell))):
        partition_function(s332_21, w)


def test_partition_function_takes_log_weights_near_the_float_range(s332_21):
    # exp(-745) is subnormal and exp(709) near the largest float: both are
    # exact dyadic rationals, so these sums stay exact
    cell = (2, 3)
    flat = [cell in flats for flats in iter_flat_cells(build_region(s332_21))]
    assert 0 < sum(flat) < len(flat)
    for x in (745.0, -709.0):
        z = partition_function(s332_21, {cell: x}).z
        assert z == flat.count(False) \
            + flat.count(True) / Fraction(math.exp(-x)), x


def _paths_ok(region):
    chains, sources = region.paths()
    sinks = [(c, j, t) for c, (_, _, on) in enumerate(chains) for j, t in on]
    assert len(sinks) == len(sources)
    assert sorted(j for _, j, _ in sinks) == list(range(len(sources)))
    for c, j, t in sinks:
        assert sources[j][0] < c  # each path runs forward
        assert t > len(chains[c][0])  # sinks are forced: above the cells
    for c, t in sources:
        assert t > len(chains[c][0])
    return len(sources)


def test_path_family_dimension_is_depth():
    for k in range(1, 21):
        region = build_region(thick_hook_shape(k, k, k))
        assert _paths_ok(region) == region.depth, k
    for k in range(2, 41, 2):
        region = build_region(thick_ribbon_shape(k))
        assert _paths_ok(region) == region.depth, k
    for k in range(1, 41, 2):  # odd ribbons: no dimension pinned
        _paths_ok(build_region(thick_ribbon_shape(k)))


def test_path_family_sources_match_sinks_on_random_shapes():
    rng = random.Random(21)
    done = 0
    while done < 60:
        lam = sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 9))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        _paths_ok(build_region(sh))
        done += 1


def test_path_family_weighted_cells_are_the_outer_cells():
    # the family cuts each chain at its first pin past the head; on a built
    # region that keeps exactly the chain cells in the outer shape
    for sh in (SkewShape([5, 4, 4, 2], [2, 1]), thick_ribbon_shape(7),
               SkewShape([2, 2], [2])):
        region = build_region(sh)
        for d, (cells, _, _) in zip(sorted(region.chains), region.paths()[0]):
            chain = region.chains[d]
            k = len(chain) - 1 - region.depth
            assert list(cells) == ([c for c in chain[1:] if c in sh.outer]
                                   if k else []), (sh, d)


def test_path_cells_are_the_unmasked_chain_cells():
    # the slice at the first pin against the cell-by-cell outer filter, on
    # every connected shape with |outer| <= 9 and on random ones
    def check(sh):
        region = build_region(sh)
        for d, (cells, _, _) in zip(sorted(region.chains), region.paths()[0]):
            chain = region.chains[d]
            k = len(chain) - 1 - region.depth
            assert cells == ([c for c in chain[1:] if c in sh.outer]
                             if k else []), (sh, d)

    checked = 0
    for lam in _all_partitions_up_to(9):
        for mu in _subpartitions(lam):
            try:
                sh = SkewShape(lam, mu)
            except ValueError:
                continue
            check(sh)
            checked += 1
    assert checked == 927
    rng = random.Random(41)
    done = 0
    while done < 200:
        lam = sorted((rng.randint(1, 12) for _ in range(rng.randint(1, 10))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        check(sh)
        done += 1


def test_cap_gaps_builds_the_path_family_once(monkeypatch):
    sh = thick_hook_shape(3, 3, 3)
    region = build_region(sh)
    calls = []
    real = Region.paths

    def spy(self):
        calls.append(self._paths is None)
        return real(self)

    monkeypatch.setattr(Region, "paths", spy)
    gaps = cap_gaps(region, sh.size, [0.5, 0.25, 0.1])
    assert calls == [True, False, False, False]
    assert cap_gaps(region, sh.size, [0.5, 0.25, 0.1]) == gaps
    assert calls.count(True) == 1 and len(calls) == 8


def test_empty_shape_counts_weighs_and_samples():
    """The empty shape runs the general code: one tiling, count 1, Z = 1."""
    assert hook_table(()) == {} and hook_table(()).product() == 1
    empty = SkewShape()
    assert hook_weights(empty) == {}
    assert (count_hlf(empty.outer), count_nhlf(empty),
            count_determinant(empty), count_brute_force(empty),
            len(enumerate_H(empty))) == (1,) * 5
    w = hook_weights(empty)
    assert partition_function(empty, w).z == 1
    (only,) = enumerate_H(empty)
    assert sample(empty, w, n_samples=3) == [only] * 3
    est = estimate_logZ(empty, w, particles=4)
    assert est.value == 0.0 and est.stderr == 0.0


def test_partition_function_weights_are_exact_reciprocals():
    """Each cell weighs exactly 1 / Fraction(exp(-x)), x over the whole
    accepted range, subnormal exp(-x) included."""
    rng = random.Random(33)
    for shape in (SkewShape([3, 3, 2], [2, 1]), thick_hook_shape(3, 3, 3)):
        region = build_region(shape)
        for lo, hi in ((-700.0, 740.0), (-3.0, 3.0), (744.0, 745.0)):
            w = {c: rng.uniform(lo, hi) for c in shape.outer.cells()}
            ref = _tiling_sum(region, lambda c: 1 / Fraction(math.exp(-w[c])))
            assert partition_function(region, w).z == ref
