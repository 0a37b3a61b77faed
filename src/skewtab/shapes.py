"""Partitions, skew shapes, hook lengths and sqrt(N) profile scaling.

Coordinates are English notation throughout the package: x counts rows
downward, y counts columns rightward, both 1-indexed.  A cell (x, y)
belongs to the partition lam iff y <= lam_x.
"""
from __future__ import annotations

import math
from operator import ge
from typing import Callable, Iterable, Iterator

from .errors import check_count, check_int

Cell = tuple[int, int]


class Partition:
    """A weakly decreasing tuple of positive row lengths.

    Trailing zeros are dropped on construction.  A part that is not an
    integer (a float, a string or a bool; numpy ints are integers), a
    negative part or an increase between consecutive parts raises
    ValueError.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        if isinstance(parts, Partition):
            self.parts = parts.parts
            return
        ps = tuple(parts)
        if not all(type(p) is int for p in ps):
            ps = tuple(p if type(p) is int else check_count("row length", p, 0)
                       for p in ps)
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        if ps and not (ps[-1] > 0 and all(map(ge, ps, ps[1:]))):
            # find the first bad part to name it
            for i, p in enumerate(ps):
                if p <= 0:
                    raise ValueError(f"row lengths must be positive, got {p}")
                if i > 0 and ps[i - 1] < p:
                    raise ValueError(
                        f"row lengths must be weakly decreasing: {ps}")
        self.parts = ps

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def width(self) -> int:
        return self.parts[0] if self.parts else 0

    def row(self, x: int) -> int:
        """Length of row x (1-indexed); 0 outside the diagram."""
        if 1 <= x <= len(self.parts):
            return self.parts[x - 1]
        return 0

    def conjugate(self) -> "Partition":
        # columns lam_{x+1} < y <= lam_x have length x
        conj: list[int] = []
        for x in range(len(self.parts), 0, -1):
            conj += [x] * (self.parts[x - 1] - len(conj))
        return Partition(conj)

    def cells(self) -> Iterator[Cell]:
        for x, p in enumerate(self.parts, start=1):
            for y in range(1, p + 1):
                yield (x, y)

    def __contains__(self, cell: Cell) -> bool:
        x, y = cell
        return x >= 1 and y >= 1 and self.row(x) >= y

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


class SkewShape:
    """The cells of an outer partition not covered by a nested inner one.

    Construction checks nesting and 4-adjacency connectivity of the cell
    set.  Row x holds the columns (mu_x, lam_x], so the cells are connected
    iff the nonempty rows are consecutive and mu_x < lam_{x+1} for each
    consecutive pair of them.  One test covers both: mu_x < lam_y for each
    nonempty row x and the next nonempty row y, since an empty row between
    them would give mu_x >= lam_y.  The empty shape (outer == inner) is
    allowed.
    """

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Iterable[int] = (), inner: Iterable[int] = ()):
        self.outer = Partition(outer)
        self.inner = Partition(inner)
        lam, mu = self.outer.parts, self.inner.parts
        if not (len(mu) <= len(lam) and all(map(ge, lam, mu))):
            raise ValueError(
                f"inner shape {mu} does not fit inside outer shape {lam}"
            )
        if not self._connected():
            raise ValueError(f"skew shape {self} has a disconnected cell set")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def is_straight(self) -> bool:
        return not self.inner.parts

    def cells(self) -> list[Cell]:
        out = []
        for x, p in enumerate(self.outer.parts, start=1):
            lo = self.inner.row(x)
            out.extend((x, y) for y in range(lo + 1, p + 1))
        return out

    def _connected(self) -> bool:
        lam = self.outer.parts
        mu = self.inner.parts + (0,) * (len(lam) - len(self.inner.parts))
        rows = [x for x in range(len(lam)) if mu[x] < lam[x]]
        return all(mu[x] < lam[y] for x, y in zip(rows, rows[1:]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewShape({self.outer.parts}, {self.inner.parts})"


class HookTable(dict):
    """Hook lengths of a straight partition, keyed by cell."""

    __slots__ = ()

    def product(self) -> int:
        return math.prod(self.values())


def hook_table(lam) -> HookTable:
    """Hook lengths h(x, y) = lam_x + lam'_y - x - y + 1 over all cells.

    The empty partition has the empty table, whose hook product is 1.
    """
    lam = Partition(lam)
    conj = lam.conjugate().parts
    return HookTable(((x, y), p + conj[y - 1] - x - y + 1)
                     for x, p in enumerate(lam.parts, start=1)
                     for y in range(1, p + 1))


def _check_curve(points, name: str) -> tuple[tuple[float, float], ...]:
    pts = tuple((float(x), float(y)) for x, y in points)
    for i, (x, y) in enumerate(pts):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{name} breakpoints must be finite, got {(x, y)}")
        if x < 0 or y < 0:
            raise ValueError(f"{name} breakpoints must be nonnegative, got {(x, y)}")
        if i > 0:
            x0, y0 = pts[i - 1]
            if x < x0 - 1e-12:
                raise ValueError(f"{name} breakpoint x-values must be nondecreasing")
            if y > y0 + 1e-12:
                raise ValueError(f"{name} must be nonincreasing, got {pts}")
    return pts


def _pl_left(pts, x: float) -> float:
    # left-continuous piecewise linear evaluation; 0 past the last breakpoint
    if not pts:
        return 0.0
    if x <= pts[0][0]:
        return pts[0][1]
    if x > pts[-1][0]:
        return 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return pts[-1][1]  # only a NaN x fails every comparison


def _curve_area(pts) -> float:
    return sum(
        (x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    )


class StableProfile:
    """A nonincreasing piecewise linear boundary pair (outer psi, inner phi).

    Both curves are breakpoint lists of finite numbers in the first
    quadrant.  Construction rescales both axes by a common factor so the
    area between the curves is exactly 1 (within 1e-9); curves are
    evaluated left-continuously, with an implicit drop to 0 past the last
    breakpoint.  phi may be empty, meaning identically zero (a straight
    shape family); a phi that is positive on no interval is emptied, and
    phi keeps at most one trailing zero breakpoint, so phi's last
    breakpoint is where it reaches 0.
    """

    __slots__ = ("psi", "phi")

    def __init__(self, psi, phi=()):
        psi_pts = _check_curve(psi, "psi")
        phi_pts = _check_curve(phi, "phi")
        if not psi_pts:
            raise ValueError("psi needs at least one breakpoint")
        if psi_pts[0][0] > 1e-12:
            raise ValueError("psi must start at x = 0")
        if phi_pts and phi_pts[0][0] > 1e-12:
            raise ValueError("phi must start at x = 0")
        # drop a trailing all-zero tail on phi
        while phi_pts and phi_pts[-1][1] == 0 and len(phi_pts) > 1 and phi_pts[-2][1] == 0:
            phi_pts = phi_pts[:-1]
        if phi_pts and (phi_pts[-1][0] <= 1e-12
                        or max(y for _, y in phi_pts) == 0):
            phi_pts = ()
        for x, y in phi_pts:
            if y > _pl_left(psi_pts, x) + 1e-9:
                raise ValueError(f"phi exceeds psi at x = {x}")
        for x, y in psi_pts:
            if _pl_left(phi_pts, x) > y + 1e-9:
                raise ValueError(f"phi exceeds psi at x = {x}")
        area = _curve_area(psi_pts) - _curve_area(phi_pts)
        if area <= 0:
            raise ValueError("profile encloses no area")
        s = 1.0 / math.sqrt(area)
        psi_pts = tuple((x * s, y * s) for x, y in psi_pts)
        phi_pts = tuple((x * s, y * s) for x, y in phi_pts)
        area = _curve_area(psi_pts) - _curve_area(phi_pts)
        if abs(area - 1.0) > 1e-9:
            raise ValueError(f"profile area {area} is not 1")
        self.psi = psi_pts
        self.phi = phi_pts

    def psi_at(self, x: float) -> float:
        return _pl_left(self.psi, x)

    def phi_at(self, x: float) -> float:
        return _pl_left(self.phi, x)

    @property
    def width(self) -> float:
        """Largest x with psi(x) possibly positive."""
        return self.psi[-1][0]

    @property
    def height(self) -> float:
        return self.psi[0][1]

    @property
    def phi_width(self) -> float:
        """Where phi reaches 0: its last breakpoint (0 for an empty phi)."""
        return self.phi[-1][0] if self.phi else 0.0

    @property
    def phi_top(self) -> float:
        return self.phi_at(0.0)

    def area(self) -> float:
        return _curve_area(self.psi) - _curve_area(self.phi)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StableProfile)
            and self.psi == other.psi
            and self.phi == other.phi
        )

    def __repr__(self) -> str:
        return f"StableProfile(psi={self.psi}, phi={self.phi})"


def _round_rows(curve: Callable[[float], float], r: float) -> list[int]:
    # sample at cell midpoints; round half up; clamp to stay weakly decreasing
    rows: list[int] = []
    i = 1
    while True:
        v = int(math.floor(curve((i - 0.5) / r) * r + 0.5))
        if rows:
            v = min(v, rows[-1])
        if v <= 0:
            break
        rows.append(v)
        i += 1
    return rows


def stable_family(profile: StableProfile, N: int) -> SkewShape:
    """Lattice skew shape of size about N tracking sqrt(N) times the profile.

    Row x of the outer (inner) partition is the rounded value of
    sqrt(N) * psi (phi) at the midpoint of the x-th unit cell of the
    sqrt(N)-scaled axis.  Midpoint sampling keeps vertical drops of the
    curves from landing exactly on a sample point.  N must be a positive
    integer (bools refused).
    """
    if check_int("N", N) < 1:
        raise ValueError("N must be a positive integer")
    r = math.sqrt(N)
    lam = _round_rows(profile.psi_at, r)
    mu = _round_rows(profile.phi_at, r)
    mu = [min(m, lam[i]) for i, m in enumerate(mu) if i < len(lam)]
    return SkewShape(lam, mu)


def square_profile() -> StableProfile:
    return StableProfile([(0.0, 1.0), (1.0, 1.0)])


def thick_hook_profile(alpha: float = 1.0, beta: float = 1.0) -> StableProfile:
    """Rectangle-minus-rectangle profile family.

    Scaled limit of the shapes (a+c)^(b+c) / a^b with a = alpha*c and
    b = beta*c.  alpha = beta = 0 degenerates to the unit square.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha}, {beta}")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    r = 1.0 / math.sqrt(1.0 + alpha + beta)
    psi = [(0.0, (1.0 + alpha) * r), ((1.0 + beta) * r, (1.0 + alpha) * r)]
    phi = [(0.0, alpha * r), (beta * r, alpha * r)] if alpha > 0 and beta > 0 else []
    return StableProfile(psi, phi)


def thick_ribbon_profile() -> StableProfile:
    """Staircase-minus-staircase profile (anti-diagonal band of slope -1)."""
    return StableProfile([(0.0, 2.0), (2.0, 0.0)], [(0.0, 1.0), (1.0, 0.0)])


def thick_hook_shape(a: int, b: int, c: int) -> SkewShape:
    """(a+c)^(b+c) / a^b: an (a+c) x (b+c) rectangle minus an a x b corner."""
    a, b, c = check_int("a", a), check_int("b", b), check_int("c", c)
    if a < 0 or b < 0 or c < 1:
        raise ValueError("need a, b >= 0 and c >= 1")
    return SkewShape([a + c] * (b + c), [a] * b)


def thick_ribbon_shape(k: int) -> SkewShape:
    """Staircase delta(2k-1) minus staircase delta(k-1), size k(3k-1)/2."""
    k = check_int("k", k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    return SkewShape(range(2 * k - 1, 0, -1), range(k - 1, 0, -1))


def thick_hook_shape_of_size(N: int) -> SkewShape:
    """The a = b = c thick hook with N = 3c^2 cells."""
    N = check_int("N", N)
    c = round(math.sqrt(N / 3.0))
    if c < 1 or 3 * c * c != N:
        raise ValueError(f"{N} is not 3c^2 for a positive integer c")
    return thick_hook_shape(c, c, c)


def thick_ribbon_shape_of_size(N: int) -> SkewShape:
    """The thick ribbon with N = k(3k-1)/2 cells."""
    N = check_int("N", N)
    k = round((1.0 + math.sqrt(1.0 + 24.0 * N)) / 6.0)
    if k < 1 or k * (3 * k - 1) != 2 * N:
        raise ValueError(f"{N} is not k(3k-1)/2 for a positive integer k")
    return thick_ribbon_shape(k)
