"""Weighted sums over a shape's lozenge tilings: hook weights and caps.

The central identity: the number of standard fillings of a skew shape
equals N! divided by the outer hook product, times the sum over all
tilings of the product of hook lengths at cells carrying a horizontal
lozenge.  One engine, `_tiling_sum`, evaluates every such sum exactly and
in polynomial time as a Lindström–Gessel–Viennot determinant of lattice
path sums, in integer arithmetic with one exact division at the end.  The
paths are the region's one path family, `Region.paths()`, built once per
region and reused by every sum on it (`cap_gaps` makes 1 + len(eps) sums).
A path's two moves between neighbouring chains are adjacent offsets, so
the steps it can reach on a chain form a run: each source's path sums are
one list window, advanced a chain at a time by a pairwise sum and clipped
to the chain's cells.
`count_nhlf` feeds it integer hooks, read at the path cells only;
`partition_function` and `cap_gaps`
feed it each log weight x as the exact rational 1 / exp(-x), read off the
float exp(-x) as d / n from its integer ratio n / d, so that every node
weight 1/w is a dyadic rational.

A weight field is a plain mapping from cell to log weight (`WeightField`
is dict[Cell, float]); a cell it does not list weighs 1, i.e. has log
weight 0.  `partition_function`, `sampler.sample` and
`sampler.estimate_logZ` refuse, with a ValueError naming the cell, a log
weight x whose exp(-x) is not a positive finite float: NaN, an infinity,
or x below about -709.8 or above about 745.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Callable, Iterable, NamedTuple

from .errors import check_eps
from .exact import _bareiss_det, _divide_exactly
from .shapes import Cell, SkewShape, hook_table
from .tiling import Region, Tiling, _as_region


WeightField = dict[Cell, float]  # log weight per horizontal-lozenge cell


def uniform_weights() -> WeightField:
    return WeightField()


def hook_weights(shape: SkewShape, scale: float | None = None) -> WeightField:
    """log hook length on horizontal lozenges.

    With `scale` = N the hook is divided by sqrt(N) first (the weighting
    under which the partition function has an N-independent scale); a
    scale that is not > 0 raises ValueError.
    """
    if scale is not None and not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    half_log = 0.5 * math.log(scale) if scale is not None else 0.0
    return WeightField((cell, math.log(hv) - half_log)
                       for cell, hv in hook_table(shape.outer).items())


def capped_weights(shape: SkewShape, N: int, eps: float) -> WeightField:
    """Scaled hook weights with the log clipped from below at log(eps)."""
    if not N > 0:
        raise ValueError(f"N must be > 0, got {N}")
    flo = math.log(check_eps(eps))
    return WeightField((cell, max(lw, flo))
                       for cell, lw in hook_weights(shape, scale=N).items())


def tiling_weight(t: Tiling, w: WeightField) -> float:
    """Total log weight of a tiling, in chain order."""
    total = 0.0
    for v in t.region.moves().flat_cells(t.heights):
        total += w.get(v, 0.0)
    return total


def _check_weights(w: WeightField) -> None:
    """Raise ValueError at the first cell whose log weight x has no
    positive finite exp(-x), the float that `partition_function` inverts."""
    for cell, x in w.items():
        try:
            ok = 0.0 < math.exp(-x) < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"log weight {x!r} at cell {cell} has no "
                             f"positive finite exp(-x)")


def _tiling_sum(region: Region,
                cell_weight: Callable[[Cell], int | Fraction]) -> Fraction:
    """Exact sum over the region's tilings of the product of positive cell
    weights over the flat cells (horizontal lozenges).

    With node weight 1/w on the cells of `region.paths()`, the sum is
    prod(w over those cells) times det[path sums from sources to sinks]
    (Lindström–Gessel–Viennot).  The arithmetic is in ints: chain c scales
    its node weights 1/w, w = p/q an int or Fraction, by L_c = lcm(p) to
    the ints L_c q / p.  Each source carries its path sums as a window, a
    list over consecutive steps, over one denominator: a chain step adds
    the window to itself shifted by one, reads the sinks by index, keeps
    the steps that carry cells, multiplies in the node weights and the
    denominator by L_c, and divides out a gcd.  Each row is cleared by the
    lcm of its denominators for the fraction-free Bareiss determinant.
    """
    chains, sources = region.paths()
    pnum = pden = 1
    steps = []  # per chain: window shift, sinks, L_c and the node weights
    for cells, moves, sinks in chains:
        if not cells:
            steps.append((moves[0], sinks, 1, [None]))
            continue
        ws = [cell_weight(c) for c in cells]
        nums = [w.numerator for w in ws]
        lc = math.lcm(*nums)
        pnum *= math.prod(nums)
        pden *= math.prod(w.denominator for w in ws)
        steps.append((moves[0], sinks, lc,
                      [None] + [lc // w.numerator * w.denominator for w in ws]))

    n = len(sources)
    m = [[(0, 1)] * n for _ in range(n)]
    for i, (c, lo) in enumerate(sources):
        # weighted path counts by step on chain c, over q: sums[k] is step
        # lo + k's, as the steps a path reaches on a chain form a run
        sums, q = [1], 1
        while sums:
            # moves are (-1, 0) or (0, 1): step s on the next chain sums
            # steps s + 1 and s, or s and s - 1, of this one
            lo += steps[c][0]
            c += 1
            _, sinks, lc, wts = steps[c]
            sums = list(map(add, [0, *sums], [*sums, 0]))
            for j, s in sinks:
                v = sums[s - lo] if 0 <= s - lo < len(sums) else 0
                g = math.gcd(v, q)
                m[i][j] = (v // g, q // g)
            # keep the steps 1..len(cells) and weigh them; map stops at the top
            if lo < 1:
                sums, lo = sums[1 - lo:], 1
            sums = list(map(mul, sums, wts[lo:]))
            q *= lc
            g = math.gcd(q, *sums)
            if g > 1:
                q //= g
                sums = [v // g for v in sums]
    rows, clear = [], 1
    for row in m:
        lr = math.lcm(*(b for _, b in row))
        clear *= lr
        rows.append([a * (lr // b) for a, b in row])
    return Fraction(pnum * _bareiss_det(rows), pden * clear)


class PartitionFunction(NamedTuple):
    """Exact partition function `z` of a weight field; `value` is log z."""

    z: Fraction

    @property
    def value(self) -> float:
        # log(num) - log(den) cancels badly; 2^shift leaves a ratio near 1
        num, den = self.z.numerator, self.z.denominator
        shift = num.bit_length() - den.bit_length()
        ratio = num / (den << shift) if shift >= 0 else (num << -shift) / den
        return math.log(ratio) + shift * math.log(2)


def partition_function(shape, w: WeightField) -> PartitionFunction:
    """Exact partition function of the weight field over the shape's tilings.

    A cell of log weight x weighs 1 / exp(-x), with the float exp(-x) taken
    as the exact dyadic rational it is: within an ulp or so of exp(x), and
    monotone in x, so equal logs give equal weights and capping can only
    raise them.  The sum over tilings is then exact, so nothing is rounded
    after the weights themselves.
    """
    _check_weights(w)
    # exp(-x) = n / d in lowest terms, so the weight is d / n with no division
    return PartitionFunction(_tiling_sum(
        _as_region(shape),
        lambda c: Fraction(*math.exp(-w.get(c, 0.0)).as_integer_ratio()[::-1])))


def count_nhlf(shape) -> int:
    """Exact filling count: N!/hookproduct * sum over tilings of hook products.

    The hook product sum runs over the horizontal-lozenge cells of every
    tiling and is evaluated exactly by the LGV engine, `_tiling_sum`, which
    reads the hook h(x, y) = lam_x + lam'_y - x - y + 1 at the path cells
    only.  The outer hook product is Frobenius's prod l_i! / prod_{i<j}
    (l_i - l_j), l_i = lam_i + n - i over the n rows.
    """
    region = _as_region(shape)
    shape = region.shape
    lam, conj = shape.outer.parts, shape.outer.conjugate().parts
    total = _tiling_sum(
        region, lambda c: lam[c[0] - 1] + conj[c[1] - 1] - c[0] - c[1] + 1)
    ell = [p + len(lam) - i for i, p in enumerate(lam, 1)]
    vdm = math.prod(a - b for i, a in enumerate(ell) for b in ell[i + 1:])
    return _divide_exactly(
        math.factorial(shape.size) * total.numerator * vdm,
        math.prod(map(math.factorial, ell)) * total.denominator,
        "N! times the hook sum over the hook product")


def _log_ratio(a: Fraction, b: Fraction) -> float:
    """log(a / b) for a >= b > 0.

    log1p of the correctly rounded excess (a - b) / b is exactly 0 when
    a == b and never decreases as a grows.
    """
    excess = (a - b) / b
    try:
        return math.log1p(float(excess))
    except OverflowError:
        return math.log(excess.numerator) - math.log(excess.denominator)


def cap_gaps(shape, N: int, eps_list: Iterable[float]) -> list[float]:
    """Per-cell normalized loss of capping, one value per eps.

    Each gap is log(Z_capped / Z) / N with both partition functions under
    hook/sqrt(N) weights.  Capping only raises weights, and a lower cap
    raises fewer, so the exact ratios make every gap nonnegative and
    monotone in eps.
    """
    region = _as_region(shape)
    capped = [capped_weights(region.shape, N, eps) for eps in eps_list]
    z = partition_function(region, hook_weights(region.shape, scale=N)).z
    return [_log_ratio(partition_function(region, w).z, z) / N
            for w in capped]

