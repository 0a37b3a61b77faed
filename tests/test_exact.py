import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from _naive import naive_count, rotated_complement, thick_hook_constant
from skewtab import (
    Partition,
    ResourceGuardError,
    SkewShape,
    count_brute_force,
    count_determinant,
    count_hlf,
    count_nhlf,
    count_thick_hook,
    macmahon,
    superfactorial,
)
from skewtab import thick_hook_constant as library_thick_hook_constant
from skewtab.exact import _divide_exactly


def test_hlf_small_straight():
    assert count_hlf(Partition([1])) == 1
    assert count_hlf(Partition([2, 1])) == 2
    assert count_hlf(Partition([3, 3, 2])) == naive_count((3, 3, 2))
    assert count_hlf(Partition([4, 3, 2, 1])) == naive_count((4, 3, 2, 1))
    assert count_hlf(Partition([5, 5])) == 42  # Catalan number C_5


def test_brute_force_against_naive():
    rng = random.Random(7)
    done = 0
    while done < 60:
        lam = sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 5))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        if not 1 <= sh.size <= 16:
            continue
        assert count_brute_force(sh) == naive_count(lam, tuple(mu))
        done += 1


def test_brute_force_packed_states():
    # 300 seeded c01-style shapes against the corner-peeling count
    rng = random.Random(20261018)
    done = 0
    while done < 300:
        lam = sorted((rng.randint(1, 10) for _ in range(rng.randint(1, 10))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        if sh.size > 20:
            continue
        assert count_brute_force(sh) == naive_count(lam, tuple(mu)), (lam, mu)
        done += 1
    edges = [
        ((), ()),                   # no rows: zero bits per row
        ((3, 2), (3, 2)),           # mu = lam: no cells
        ((4, 3, 3), (4, 1)),        # top row fully covered
        ((9,), ()),
        ((1,) * 9, ()),
        ((3, 2, 2), (2, 2, 2)),     # rows covered by mu at the bottom
    ]
    # a full row of 7, 8, 15 or 16 cells fills its 3-, 4-, 4- or 5-bit field
    edges += [((w, w, 1), (w - 2,)) for w in (7, 8, 15, 16)]
    for lam, mu in edges:
        assert count_brute_force(SkewShape(lam, mu)) == naive_count(lam, mu)
    # 24-cell width-2 ribbon: its count does not fit in 64 bits
    ribbon = SkewShape(range(13, 1, -1), range(11, 0, -1))
    assert ribbon.size == 24
    f = count_brute_force(ribbon)
    assert f == count_determinant(ribbon) == 15514534163557086905 > 2 ** 63
    at_limit = SkewShape([8, 7, 6, 5, 4], [3, 2])
    assert at_limit.size == 25
    assert count_brute_force(at_limit) == count_determinant(at_limit)


@pytest.mark.parametrize("lam", [[1] * 25, [2] * 12])
def test_brute_force_states_stay_dict_keyed(lam):
    # a dense table over the box prod(lam_i - mu_i + 1) would hold 2^25
    # slots for the column and 3^12 for the 2 x 12 rectangle; the dict
    # holds one layer of reachable states
    sh = SkewShape(lam)
    tracemalloc.start()
    try:
        f = count_brute_force(sh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f == count_determinant(sh)
    assert peak < 2 ** 20, peak


def test_determinant_against_brute():
    rng = random.Random(13)
    done = 0
    while done < 60:
        lam = sorted((rng.randint(1, 7) for _ in range(rng.randint(1, 6))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        if not 1 <= sh.size <= 18:
            continue
        assert count_determinant(sh) == count_brute_force(sh)
        done += 1


def test_empty_and_single():
    empty = SkewShape([], [])
    assert count_determinant(empty) == 1
    assert count_brute_force(empty) == 1
    one = SkewShape([1], [])
    assert count_determinant(one) == count_brute_force(one) == 1


def test_determinant_big_exact():
    # 20-cell two-row rectangle: Catalan number C_10 = 16796
    sh = SkewShape([10, 10], [])
    assert count_determinant(sh) == 16796
    # big-integer regime stays exact
    big = SkewShape([8, 8, 8, 8, 8, 8, 8, 8], [])
    assert count_determinant(big) == count_hlf(Partition([8] * 8))


def test_brute_force_guard():
    with pytest.raises(ResourceGuardError):
        count_brute_force(SkewShape([6, 6, 6, 6, 6], []))
    # guard message should point at an alternative
    try:
        count_brute_force(SkewShape([6, 6, 6, 6, 6], []))
    except ResourceGuardError as exc:
        assert "count_determinant" in str(exc)


@pytest.mark.parametrize("limit,why", [
    (3.5, "limit must be an integer, got 3.5"),
    (True, "limit must be an integer, got True"),
    (-1, "limit must be >= 0, got -1"),
])
def test_brute_force_checks_its_limit(limit, why):
    with pytest.raises(ValueError, match=why):
        count_brute_force(SkewShape([2, 1]), limit)
    assert count_brute_force(SkewShape([2, 1]), np.int64(3)) == 2


def test_superfactorial():
    assert [superfactorial(n) for n in range(6)] == [1, 1, 1, 2, 12, 288]
    with pytest.raises(ValueError):
        superfactorial(-1)


def test_macmahon_values():
    assert macmahon(1, 1, 1) == 2
    assert macmahon(2, 2, 2) == 20
    assert macmahon(3, 3, 3) == 980
    assert macmahon(4, 4, 4) == 232848
    assert macmahon(9, 9, 1) == 48620  # reduces to a binomial coefficient


def test_thick_hook_formula():
    for a in range(4):
        for b in range(4):
            for c in range(1, 4):
                sh = SkewShape([a + c] * (b + c), [a] * b)
                assert count_thick_hook(a, b, c) == count_determinant(sh), \
                    (a, b, c)
    with pytest.raises(ValueError):
        count_thick_hook(1, 1, 0)


def test_divide_exactly_raises_on_remainder():
    # an explicit error, so the divisibility check survives python -O
    assert _divide_exactly(12, 4, "12 / 4") == 3
    with pytest.raises(ArithmeticError, match="7 / 2"):
        _divide_exactly(7, 2, "7 / 2")


def _random_connected_shape(rng, rows_max=25, cells=(100, 800)):
    """A seeded random connected skew shape with 100-800 cells."""
    while True:
        k = int(rng.integers(5, rows_max + 1))
        lam = sorted(rng.integers(1, 61, size=k).tolist(), reverse=True)
        mu = [int(rng.integers(0, lam[-1]))]
        for i in range(k - 2, -1, -1):
            # row i overlaps row i + 1 exactly when mu_i < lam_{i+1}
            mu.append(int(rng.integers(mu[-1], lam[i + 1])))
        mu.reverse()
        if cells[0] <= sum(lam) - sum(mu) <= cells[1]:
            while mu and mu[-1] == 0:
                mu.pop()
            return SkewShape(lam, mu)


def test_determinant_and_lgv_agree_at_scale():
    # the two exact routes on 20 seeded random connected shapes of 100-800
    # cells and at most 25 rows, far beyond c01's 20 cells
    rng = np.random.default_rng(3101)
    start = time.perf_counter()
    for _ in range(20):
        sh = _random_connected_shape(rng)
        assert len(sh.outer) <= 25 and 100 <= sh.size <= 800
        assert count_determinant(sh) == count_nhlf(sh)
    assert time.perf_counter() - start < 1.0


def test_macmahon_refuses_a_negative_side():
    with pytest.raises(ValueError, match="box sides must be nonnegative"):
        macmahon(2, -1, 2)


def test_thick_hook_constant_closed_form():
    # repro's thick-hook target is c(1, 1)
    repro = 3.5 * math.log(3.0) - (22.0 / 3.0) * math.log(2.0) + 0.5
    assert abs(thick_hook_constant(1.0, 1.0) - repro) <= 1e-15


def test_library_thick_hook_constant_matches_the_oracle():
    # the 6 x 6 grid of (alpha, beta) the solver is judged on
    grid = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
    for alpha in grid:
        for beta in grid:
            assert abs(library_thick_hook_constant(alpha, beta)
                       - thick_hook_constant(alpha, beta)) <= 1e-14
    assert library_thick_hook_constant(0.0, 0.0) == 0.5 - math.log(2.0) * 2
    with pytest.raises(ValueError, match="need alpha, beta >= 0"):
        library_thick_hook_constant(-0.5, 1.0)


@pytest.mark.parametrize("alpha,beta,bad", [
    (math.nan, 1.0, "nan"), (math.inf, 1.0, "inf"), (1.0, -math.inf, "-inf"),
])
def test_thick_hook_constant_refuses_non_finite_arguments(alpha, beta, bad):
    with pytest.raises(ValueError, match=f"must be finite, got .*{bad}"):
        library_thick_hook_constant(alpha, beta)


@pytest.mark.parametrize("call,why", [
    (lambda: superfactorial(2.5), "n must be an integer, got 2.5"),
    (lambda: superfactorial(True), "n must be an integer, got True"),
    (lambda: macmahon(True, 1, 1), "a must be an integer, got True"),
    (lambda: macmahon(1.5, 2, 2), "a must be an integer, got 1.5"),
    (lambda: macmahon(2, 2, 2.0), "c must be an integer, got 2.0"),
    (lambda: count_thick_hook(1, 1, True), "c must be an integer, got True"),
    (lambda: count_thick_hook(1, 1.0, 1), "b must be an integer, got 1.0"),
])
def test_closed_forms_refuse_non_integers(call, why):
    with pytest.raises(ValueError, match=why):
        call()


def test_closed_forms_take_numpy_ints():
    assert superfactorial(np.int64(4)) == 12
    assert macmahon(*np.array([2, 2, 2])) == 20
    assert count_thick_hook(np.int32(1), 1, np.int64(1)) == count_determinant(
        SkewShape([2, 2], [1]))


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 0.5)])
def test_thick_hook_series_approaches_the_constant(alpha, beta):
    # (log f - N log N / 2) / N on (a+c)^(b+c) / a^b, a = alpha c and
    # b = beta c; the error falls about 3.5x per doubling of c
    errors = []
    for c in (20, 40, 80):
        a, b = round(alpha * c), round(beta * c)
        n = c * (a + b + c)
        f = count_thick_hook(a, b, c)
        series = (math.log(f) - 0.5 * n * math.log(n)) / n
        errors.append(abs(series - thick_hook_constant(alpha, beta)))
    assert errors[0] < 5e-3
    assert errors[0] >= 3.0 * errors[1] and errors[1] >= 3.0 * errors[2]


def test_rectangle_minus_partition_counts_as_its_rotated_complement():
    rng = random.Random(1701)
    checked = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        mu = sorted((rng.randint(0, cols) for _ in range(rows)), reverse=True)
        nu = rotated_complement(rows, cols, mu)
        if not nu:
            continue
        assert sum(nu) == rows * cols - sum(mu)
        assert count_nhlf(SkewShape([cols] * rows, mu)) == count_hlf(nu)
        checked += 1
    assert checked >= 50


def test_rotated_complement_at_scale():
    # a 60 x 60 rectangle minus mu with rows up to 30: 2,629 cells and a
    # count of 12,346 bits, in about 0.15 s
    rng = random.Random(17)
    mu = sorted((rng.randint(0, 30) for _ in range(60)), reverse=True)
    nu = rotated_complement(60, 60, mu)
    assert sum(nu) == 2629
    f = count_nhlf(SkewShape([60] * 60, mu))
    assert f.bit_length() == 12346 and f == count_hlf(nu)
