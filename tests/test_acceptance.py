"""Acceptance suite: one test per stated criterion, run with pytest -v.

The expensive variational solves are shared through session fixtures, so
the whole file stays well inside the per-criterion time budgets.
"""
import math
import random

import numpy as np
import pytest
from scipy import stats

from _naive import naive_count
from skewtab import (
    SkewShape,
    build_region,
    constant,
    count_brute_force,
    count_determinant,
    count_hlf,
    count_nhlf,
    count_thick_hook,
    enumerate_H,
    extend,
    finite_n_constant,
    flip,
    heights_to_tiling,
    hook_weights,
    macmahon,
    maximize,
    minimal_extension,
    sample,
    sigma,
    sigma_gradient,
    thick_hook_profile,
    thick_hook_shape,
    thick_hook_shape_of_size,
    thick_ribbon_profile,
    thick_ribbon_shape_of_size,
    tiling_weight,
    type_counts,
    unit_hexagon_functional,
)
from skewtab.nhlf import cap_gaps
from skewtab.sampler import _delta_logw
from skewtab.shapes import hook_table
from skewtab.tiling import iter_flat_cells

THICK_HOOK_C = 3.5 * math.log(3.0) - (22.0 / 3.0) * math.log(2.0) + 0.5
RIBBON_BAND = (-0.3237, -0.0621)


# ---------------------------------------------------------------------------
# shared expensive results


@pytest.fixture(scope="session")
def hexagon_mesh():
    return maximize(unit_hexagon_functional(), mesh_n=64, tol=1e-4)


@pytest.fixture(scope="session")
def thick_hook_result():
    return constant(thick_hook_profile(1.0, 1.0), mesh_n=64)


@pytest.fixture(scope="session")
def ribbon_result():
    return constant(thick_ribbon_profile(), mesh_n=64)


@pytest.fixture(scope="session")
def thick_hook_finite():
    sides = list(range(12, 21))
    vals = finite_n_constant(thick_hook_shape_of_size,
                             [3 * k * k for k in sides])
    return sides, vals


@pytest.fixture(scope="session")
def ribbon_finite():
    sides = list(range(4, 13))
    vals = finite_n_constant(thick_ribbon_shape_of_size,
                             [k * (3 * k - 1) // 2 for k in sides])
    return sides, vals


def _all_partitions_up_to(n):
    def gen(rem, maxpart):
        yield ()
        for p in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - p, p):
                yield (p,) + rest

    return [lam for lam in gen(n, n) if lam]


def _subpartitions(lam):
    out = []

    def rec(i, prev, acc):
        if i == len(lam):
            out.append(tuple(acc))
            return
        hi = lam[i] if prev is None else min(lam[i], prev)
        for v in range(hi, -1, -1):
            rec(i + 1, v, acc + [v])

    rec(0, None, [])
    return out


# ---------------------------------------------------------------------------


def test_c01_exact_count_triple_agreement():
    # exhaustive connected skew shapes with |outer| <= 9
    checked = 0
    for lam in _all_partitions_up_to(9):
        for mu in _subpartitions(lam):
            try:
                sh = SkewShape(lam, mu)
            except ValueError:
                continue  # disconnected or ill formed
            d = count_determinant(sh)
            assert d == count_brute_force(sh) == count_nhlf(sh), (lam, mu)
            if sh.is_straight and sh.size:
                assert d == count_hlf(sh.outer), lam
            checked += 1
    assert checked > 900

    # 200 seeded random shapes with skew size <= 20
    rng = random.Random(20260815)
    seen = set()
    while len(seen) < 200:
        rows = rng.randint(1, 10)
        lam = tuple(sorted((rng.randint(1, 10) for _ in range(rows)),
                           reverse=True))
        mu = tuple(sorted((rng.randint(0, v) for v in lam), reverse=True))
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        key = (tuple(sh.outer), tuple(sh.inner))
        if not 1 <= sh.size <= 20 or key in seen:
            continue
        seen.add(key)
        assert count_determinant(sh) == count_brute_force(sh) \
            == count_nhlf(sh), key


def test_c02_worked_example_332_21(s332_21):
    assert count_determinant(s332_21) == 16
    assert count_brute_force(s332_21) == 16
    assert count_nhlf(s332_21) == 16
    heights = enumerate_H(s332_21)
    assert len(heights) == 5
    # integer weighted term sum: 5*4*4 + 5*4*1 + 5*4*1 + 5*1*1 + 3*1*1
    ht = hook_table(s332_21.outer)
    terms = sorted(
        math.prod(ht[c] for c in flats)
        for flats in iter_flat_cells(build_region(s332_21))
    )
    assert terms == [3, 5, 20, 20, 80]
    assert sum(terms) == 128


def test_c03_thick_hook_identities():
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                sh = thick_hook_shape(a, b, c)
                assert count_thick_hook(a, b, c) == count_determinant(sh), \
                    (a, b, c)
                assert len(enumerate_H(sh)) == macmahon(a, b, c), (a, b, c)


def test_c04_sampler_gof_and_detailed_balance():
    shape = thick_hook_shape(2, 2, 2)
    w = hook_weights(shape)
    heights = enumerate_H(shape)
    assert len(heights) == 20

    logws = np.array([tiling_weight(h, w) for h in heights])
    probs = np.exp(logws - logws.max())
    probs /= probs.sum()
    key_of = {heights_to_tiling(h).type3_cells(): i
              for i, h in enumerate(heights)}

    n = 100_000
    samples = sample(shape, w, n_samples=n, seed=11)
    counts = np.zeros(len(heights))
    for t in samples:
        counts[key_of[t.type3_cells()]] += 1
    chi2 = float(((counts - n * probs) ** 2 / (n * probs)).sum())
    p = float(stats.chi2.sf(chi2, len(heights) - 1))
    assert p > 0.01, (chi2, p)

    # detailed balance, exact in the log domain
    reg = build_region(shape)
    rng = random.Random(19)
    pairs = 0
    while pairs < 300:
        h = rng.choice(heights)
        v = rng.choice(sorted(reg.free))
        out = flip(h, v)
        if out is None:
            continue
        fwd = _delta_logw(reg, dict(h.items()), v, out[v], w)
        rev = _delta_logw(reg, dict(out.items()), v, h[v], w)
        assert rev == -fwd
        assert min(0.0, fwd) - min(0.0, rev) == fwd
        pairs += 1


def test_c05_hexagon_entropy_vs_boxed_count(hexagon_mesh):
    # Richardson-style extrapolation of (1/n^2) log macmahon(n,n,n), n<=60
    ns = list(range(10, 61, 5))
    vals = [math.log(macmahon(n, n, n)) / (n * n) for n in ns]
    tail_ns, tail_vals = ns[-4:], vals[-4:]
    basis = np.array([[math.log(n) / n, 1.0 / n, 1.0] for n in tail_ns])
    coef, *_ = np.linalg.lstsq(basis, np.array(tail_vals), rcond=None)
    target = float(coef[2])
    assert abs(hexagon_mesh.psi_value - target) < 5e-3


def test_c06_capped_weight_gaps():
    eps_list = [0.5, 0.25, 0.1]
    bounds = [e * e * (1.0 - math.log(e)) for e in eps_list]
    for c in range(1, 5):
        sh = thick_hook_shape(c, c, c)
        gaps = cap_gaps(sh, sh.size, eps_list)
        for eps, gap, bound in zip(eps_list, gaps, bounds):
            assert 0.0 <= gap <= bound, (c, eps, gap, bound)
        assert gaps[2] <= gaps[1] <= gaps[0], (c, gaps)


def test_c07_thick_hook_constant_end_to_end(thick_hook_result,
                                            thick_hook_finite):
    assert abs(thick_hook_result.value - THICK_HOOK_C) < 1e-2
    sides, vals = thick_hook_finite
    basis = np.array([[math.log(k) / k, 1.0 / k, 1.0] for k in sides])
    coef, *_ = np.linalg.lstsq(basis, np.array(vals), rcond=None)
    assert abs(float(coef[2]) - THICK_HOOK_C) < 2e-2


def test_c08_thick_ribbon_constant_band(ribbon_result, ribbon_finite):
    lo, hi = RIBBON_BAND
    assert lo <= ribbon_result.value <= hi
    sides, vals = ribbon_finite
    basis = np.array([[1.0 / k, 1.0 / k ** 2, 1.0] for k in sides])
    coef, *_ = np.linalg.lstsq(basis, np.array(vals), rcond=None)
    assert lo <= float(coef[2]) <= hi


def _edge_rule_extensions(reg, partial):
    # oracle: every assignment of the free vertices that obeys the edge rule
    from itertools import product

    free = sorted(v for v in reg.vertices if v not in partial)
    out = []
    for combo in product(range(reg.depth + 1), repeat=len(free)):
        h = dict(partial)
        h.update(zip(free, combo))
        ok = True
        for (i, j) in reg.vertices:
            for e in ((1, 0), (0, 1), (1, 1)):
                q = (i + e[0], j + e[1])
                if q in reg.vertices and not 0 <= h[q] - h[(i, j)] <= 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(h)
    return out


def test_c09_property_suites(s332_21):
    shapes = [s332_21, thick_hook_shape(2, 2, 2),
              SkewShape([5, 4, 3, 2, 1], [2, 1])]
    rng = random.Random(41)
    for sh in shapes:
        reg = build_region(sh)
        heights = enumerate_H(sh)

        # flip involution
        for h in heights:
            for v in reg.free:
                out = flip(h, v)
                if out is not None:
                    assert flip(out, v) == h

        # flip graph connectivity
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

        # type-count constancy
        counts = {type_counts(h) for h in heights}
        assert len(counts) == 1
        assert counts.pop()[2] == sh.inner.size

        # extension extremes against exhaustive edge-rule enumeration;
        # enumerate_H is the smaller mask-filtered subset, not the oracle here
        exts = _edge_rule_extensions(reg, reg.fixed)
        hi_ext = extend(dict(reg.fixed), reg)
        lo_ext = minimal_extension(dict(reg.fixed), reg)
        for v in reg.vertices:
            assert hi_ext[v] == max(h[v] for h in exts)
            assert lo_ext[v] == min(h[v] for h in exts)
        for _ in range(20):
            h0 = rng.choice(exts)
            partial = dict(reg.fixed)
            for v in reg.free:
                if rng.random() < 0.5:
                    partial[v] = h0[v]
            top = extend(partial, reg)
            bot = minimal_extension(partial, reg)
            assert all(bot[v] <= h0[v] <= top[v] for v in reg.vertices)

    # entropy symmetry, concavity and gradient accuracy
    for _ in range(200):
        s = rng.uniform(0, 1)
        t = rng.uniform(0, 1 - s)
        assert abs(sigma(s, t) - sigma(t, s)) < 1e-14
    for _ in range(200):
        a = [rng.uniform(0, 1)]
        a.append(rng.uniform(0, 1 - a[0]))
        b = [rng.uniform(0, 1)]
        b.append(rng.uniform(0, 1 - b[0]))
        m = [(a[0] + b[0]) / 2, (a[1] + b[1]) / 2]
        assert sigma(*m) >= (sigma(*a) + sigma(*b)) / 2 - 1e-12
    step = 1e-5
    done = 0
    while done < 100:
        s = rng.uniform(0.05, 0.9)
        t = rng.uniform(0.05, 0.9)
        if min(s, t, 1 - s - t) < 0.05:
            continue
        gs, gt = sigma_gradient(s, t)
        fs = (sigma(s + step, t) - sigma(s - step, t)) / (2 * step)
        ft = (sigma(s, t + step) - sigma(s, t - step)) / (2 * step)
        scale = max(1.0, abs(gs), abs(gt))
        assert abs(gs - fs) / scale < 1e-6
        assert abs(gt - ft) / scale < 1e-6
        done += 1


def test_c10_finite_n_residuals_decreasing(thick_hook_result, ribbon_result,
                                           thick_hook_finite, ribbon_finite):
    _, th_vals = thick_hook_finite
    th_res = [abs(v - thick_hook_result.value) for v in th_vals]
    assert all(b <= a for a, b in zip(th_res, th_res[1:])), th_res
    assert th_res[-1] < th_res[0]

    _, rb_vals = ribbon_finite
    rb_res = [abs(v - ribbon_result.value) for v in rb_vals]
    assert all(b <= a for a, b in zip(rb_res, rb_res[1:])), rb_res
    assert rb_res[-1] < rb_res[0]

    # the solver's own error budget should cover its true thick hook error
    budget = thick_hook_result.budget
    total = sum(budget.values())
    assert abs(thick_hook_result.value - THICK_HOOK_C) <= total
