"""Weighted sums over a shape's lozenge tilings: hook weights and caps.

The central identity: the number of standard fillings of a skew shape
equals N! divided by the outer hook product, times the sum over all
tilings of the product of hook lengths at cells carrying a horizontal
lozenge.  One engine, `_tiling_sum`, evaluates every such sum exactly and
in polynomial time as a Lindström–Gessel–Viennot determinant of lattice
path sums, in integer arithmetic with one exact division at the end.  The
paths are the region's one path family, `Region.paths()`, built once per
region and reused by every sum on it (`cap_gaps` makes 1 + len(eps) sums).
`count_nhlf` feeds it integer hooks; `partition_function` and `cap_gaps`
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
    the ints L_c q / p.  Each source carries its path sums over one
    denominator, times L_c per chain and reduced by a gcd; each row is
    cleared by the lcm of its denominators for the fraction-free Bareiss
    determinant.
    """
    chains, sources = region.paths()
    pnum = pden = 1
    node_w, scale = [], []
    for cells, _, _ in chains:
        ws = [cell_weight(c) for c in cells]
        lc = math.lcm(*(w.numerator for w in ws))
        pnum *= math.prod(w.numerator for w in ws)
        pden *= math.prod(w.denominator for w in ws)
        scale.append(lc)
        node_w.append([None] + [lc // w.numerator * w.denominator
                                for w in ws])

    n = len(sources)
    m = [[(0, 1)] * n for _ in range(n)]
    for i, (c, t) in enumerate(sources):
        sums, q = {t: 1}, 1  # weighted path count by step on chain c, over q
        while sums:
            moves = chains[c][1]
            c += 1
            for j, s in chains[c][2]:
                v = sum(sums.get(s - dt, 0) for dt in moves)
                g = math.gcd(v, q)
                m[i][j] = (v // g, q // g)
            top, wts = len(chains[c][0]), node_w[c]
            nxt: dict[int, int] = {}
            for s, val in sums.items():
                for dt in moves:
                    if 1 <= s + dt <= top:
                        nxt[s + dt] = nxt.get(s + dt, 0) + val
            sums = {s: val * wts[s] for s, val in nxt.items()}
            q *= scale[c]
            g = math.gcd(q, *sums.values())
            if g > 1:
                q //= g
                sums = {s: val // g for s, val in sums.items()}
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
    tiling and is evaluated exactly by the LGV engine, `_tiling_sum`.
    """
    region = _as_region(shape)
    shape = region.shape
    table = hook_table(shape.outer)
    total = _tiling_sum(region, table.__getitem__)
    return _divide_exactly(math.factorial(shape.size) * total.numerator,
                           table.product() * total.denominator,
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

