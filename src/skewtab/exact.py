"""Exact counting of standard fillings by independent routes.

count_hlf        product formula for straight shapes
count_brute_force  layered DP over packed row fill states
count_determinant  integer determinant of inverse-factorial type
count_thick_hook   closed superfactorial form for rectangle-minus-rectangle
thick_hook_constant  its growth constant c(alpha, beta), in closed form
macmahon           boxed plane partition product
"""
from __future__ import annotations

from math import factorial, log, log1p, perm

from .errors import ResourceGuardError, check_count
from .shapes import Partition, SkewShape, hook_table

BRUTE_FORCE_LIMIT = 25


def _divide_exactly(num: int, den: int, what: str) -> int:
    """num / den for a quotient known to be an integer.

    A remainder means a broken invariant, so it raises instead of rounding.
    """
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"{what} did not divide evenly")
    return quotient


def count_hlf(lam) -> int:
    """Number of standard fillings of a straight shape: N! over hook product."""
    lam = Partition(lam)
    return _divide_exactly(factorial(lam.size), hook_table(lam).product(),
                           "N! over the hook product")


def count_brute_force(shape: SkewShape, limit: int = BRUTE_FORCE_LIMIT) -> int:
    """Count standard fillings by a layered DP over packed row fill states.

    A state records how far each row is filled, B bits per row in one int
    (B the bit length of the longest row).  Layer t maps each state with t
    entries placed to its number of fillings; entries are added one at a
    time in increasing label order, and a row takes its next cell only once
    the cell above it is filled.  Exact but exponential, so shapes with more
    than `limit` cells are refused; a `limit` that is not an integer >= 0
    raises ValueError.
    """
    limit = check_count("limit", limit, 0)
    if shape.size > limit:
        raise ResourceGuardError(
            f"brute force refused for {shape.size} cells (limit {limit})",
            "use count_determinant or count_nhlf",
        )
    lam = shape.outer.parts
    mu = [shape.inner.row(x) for x in range(1, len(lam) + 1)]
    bits = max(lam, default=0).bit_length()
    mask = (1 << bits) - 1
    # (shift, lam_i, mu_{i-1}, shift of row i-1, one cell of row i); row 1
    # takes lam_1 as mu_0, so its test always passes
    rows = [(i * bits, lam[i], mu[i - 1] if i else lam[0],
             (i - 1) * bits if i else 0, 1 << i * bits)
            for i in range(len(lam)) if mu[i] < lam[i]]
    layer = {sum(m << i * bits for i, m in enumerate(mu)): 1}
    for _ in range(shape.size):
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, ways in layer.items():
            for shift, end, mu_above, shift_above, one in rows:
                c = state >> shift & mask
                if c < end and (c < mu_above or c < state >> shift_above & mask):
                    t = state + one
                    nxt[t] = get(t, 0) + ways
        layer = nxt
    (total,) = layer.values()
    return total


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def count_determinant(shape: SkewShape) -> int:
    """Count standard fillings via the inverse-factorial determinant.

    The float-free form scales row i by (lam_i - i + n)! so every entry is
    the integer falling product prod_{t = a_i - b_j + 1}^{a_i + n} t =
    perm(a_i + n, b_j + n) with a_i = lam_i - i and b_j = mu_j - j, which
    vanishes when a_i < b_j because the product runs through zero.
    """
    lam = shape.outer.parts
    n = len(lam)
    a = [lam[i] - (i + 1) for i in range(n)]
    b = [shape.inner.row(j + 1) - (j + 1) for j in range(n)]
    det = _bareiss_det([[perm(ai + n, bj + n) for bj in b] for ai in a])
    num = factorial(shape.size) * det
    den = 1
    for i in range(n):
        den *= factorial(a[i] + n)
    return _divide_exactly(num, den, "determinant count")


def superfactorial(n: int) -> int:
    """Phi(n) = 1! 2! ... (n-1)!, with Phi(0) = Phi(1) = 1."""
    if n < 0:
        raise ValueError("superfactorial needs n >= 0")
    out = 1
    cur = 1
    for k in range(1, n):
        cur *= k
        out *= cur
    return out


def macmahon(a: int, b: int, c: int) -> int:
    """Number of lozenge tilings of the a x b x c hexagon (boxed plane partitions)."""
    if min(a, b, c) < 0:
        raise ValueError("box sides must be nonnegative")
    num = superfactorial(a) * superfactorial(b) * superfactorial(c)
    num *= superfactorial(a + b + c)
    den = superfactorial(a + b) * superfactorial(b + c) * superfactorial(a + c)
    return _divide_exactly(num, den, "MacMahon product")


def count_thick_hook(a: int, b: int, c: int) -> int:
    """Closed form for the number of standard fillings of (a+c)^(b+c) / a^b."""
    if a < 0 or b < 0 or c < 1:
        raise ValueError("need a, b >= 0 and c >= 1")
    n = c * (a + b + c)
    num = factorial(n) * superfactorial(a) * superfactorial(b)
    num *= superfactorial(c) ** 2 * superfactorial(a + b + c) ** 2
    den = superfactorial(a + b) * superfactorial(a + c) * superfactorial(b + c)
    den *= superfactorial(a + b + 2 * c)
    return _divide_exactly(num, den, "thick hook product")


def thick_hook_constant(alpha: float, beta: float) -> float:
    """c(alpha, beta) = lim (log f - N log N / 2) / N on (a+c)^(b+c) / a^b,
    with a = alpha c, b = beta c and c growing.

    It is the limit of `count_thick_hook`'s product.  With log Phi(n) =
    n^2 log n / 2 - 3 n^2 / 4 + O(n log n), each factor Phi(x c) leaves
    x^2 log x / 2 per c^2 once the c^2 log c and c^2 terms cancel against
    N!, N = (1 + s) c^2 and s = alpha + beta.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("need alpha, beta >= 0")
    s = alpha + beta

    def term(x: float) -> float:
        return x * x * log(x) if x > 0 else 0.0

    # Phi's arguments over c: a, b and twice a + b + c over a + b, a + c,
    # b + c and a + b + 2c (the factors Phi(c) have x = 1)
    num = term(alpha) + term(beta) + 2.0 * term(1.0 + s)
    den = term(s) + term(1.0 + alpha) + term(1.0 + beta) + term(2.0 + s)
    return 0.5 + 0.5 * log1p(s) + (num - den) / (2.0 * (1.0 + s))
