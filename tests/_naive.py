"""Independent reference routes for the package's exact results.

`naive_count` counts standard fillings of a skew diagram by peeling
removable corners in decreasing entry order, memoized on the remaining
outer rows: deliberately a different algorithm from anything in the
package, so agreement is meaningful.  `thick_hook_constant` is the
closed-form growth constant c(alpha, beta) of the thick hooks,
`ribbon_floor` the closed-form lower end of the thick ribbon's band, and
`rotated_complement` turns a rectangle minus a partition into the
straight shape with the same count.  `connected_reference` tests a skew
shape's cells for 4-connectivity by breadth-first search, the route the
closed row-interval rule in `SkewShape` replaces.  `enumerated_sum` and
`LogSum` sum weights over every enumerated tiling, the exponential
baseline that the package's determinant engine for tiling sums replaces.
`dsig` and `node_derivative` differentiate the variational functional one
triangle at a time through the entropy gradient, with a log per slope,
against the solver's edge-merged gradient; `grid_triangles_reference`
lists the mesh triangles cell by cell; `interp_init_reference` seeds a fine
mesh from a coarse one node by node.  `diag_chord_reference`
walks a curve segment by segment for one diagonal's chord, and
`critical_diagonals_reference`, `profile_depth_reference` and
`profile_domain_reference` build the depth and the domain polygon from it
one diagonal at a time: the routes that `varsolve`'s interpolation on a
curve's boundary chain replaces.  `k_psi_reference` integrates
log hbar over psi's hypograph by adaptive quadrature in x, the route the
closed form in `varsolve.k_psi` replaces.  `outside_cells` is a region's
chain cells outside its outer shape, where no horizontal lozenge may sit:
the mask that `build_region` holds only as pins.  `flip_interval_reference`
bounds a vertex's height neighbour by neighbour through a dict, reading
that mask, the route that `flip` and the sampler read off a move-table
row; `mix_reference` is
the dict-keyed Metropolis loop on it and `_delta_logw` that the sampler's
move-table loop replaces, fed the same chunked draws.
`tiling_sum_reference` is the LGV tiling sum with every path sum and
elimination step in `Fraction`s, on `det_reference`'s rational Gaussian
elimination: the route the integer engine and its Bareiss determinant
replace.  `up_roots` and `down_roots` list a region's triangles from its
vertex set, `heights_to_tiling_reference` decodes a dict of heights one
upward triangle at a time and checks the down triangles with a
claimed-dict, and `density_reference` tallies lozenge types one
lozenge at a time: the routes that `Tiling`'s table decode from its
height vector and `density`'s numpy pass replace.
"""
import math
import warnings
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import integrate

from skewtab.sampler import CHUNK, _delta_logw
from skewtab.sampler import DensityField
from skewtab.shapes import _pl_left
from skewtab.tiling import Lozenge, iter_flat_cells


def naive_count(outer, inner=()) -> int:
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))

    @lru_cache(maxsize=None)
    def ways(rows):
        if all(r == m for r, m in zip(rows, inner)):
            return 1
        total = 0
        for i, r in enumerate(rows):
            if r > inner[i] and (i + 1 == len(rows) or rows[i + 1] < r):
                total += ways(rows[:i] + (r - 1,) + rows[i + 1:])
        return total

    result = ways(outer)
    ways.cache_clear()
    return result


def thick_hook_constant(alpha: float, beta: float) -> float:
    """c(alpha, beta) = lim (log f - N log N / 2) / N on (a+c)^(b+c) / a^b.

    a = alpha c, b = beta c and c grows.  It is the limit of
    `count_thick_hook`'s superfactorial product, with log prod_{k<n} k! =
    n^2 log n / 2 - 3 n^2 / 4 + O(n log n) and s = alpha + beta.
    """
    s = alpha + beta

    def xlogx2(x):
        return x * x * math.log(x) if x > 0.0 else 0.0

    return 0.5 + 0.5 * math.log1p(s) + (
        xlogx2(alpha) + xlogx2(beta) + 2.0 * xlogx2(1.0 + s) - xlogx2(s)
        - xlogx2(1.0 + alpha) - xlogx2(1.0 + beta) - xlogx2(2.0 + s)
    ) / (2.0 * (1.0 + s))


def ribbon_floor() -> float:
    """The thick ribbon's floor -1 - integral of log hbar over psi minus phi.

    The largest excited-diagram term (D = mu) bounds the constant from
    below (Morales-Pak-Panova).  The ribbon's psi minus phi is the band
    a <= x + y <= 2a, with a = sqrt(2/3) making its area 1, and there
    hbar = 2(2a - x - y).  So the integral is that of r log(2(2a - r)) on
    [a, 2a], which u = 2a - r turns into
    2a (a log 2a - a) - (a^2/2 log 2a - a^2/4).
    """
    a = math.sqrt(2.0 / 3.0)
    log2a = math.log(2.0 * a)
    return -1.0 - (2.0 * a * (a * log2a - a) - (a * a / 2.0 * log2a
                                                 - a * a / 4.0))


def rotated_complement(rows: int, cols: int, mu) -> list[int]:
    """nu: the cells of the rows x cols rectangle outside mu, turned by 180 degrees.

    Reversing the entries of a filling of R/mu and turning it over gives a
    filling of nu, so f^{R/mu} = f^nu.
    """
    mu = list(mu) + [0] * (rows - len(mu))
    return [cols - m for m in reversed(mu) if cols - m > 0]


def connected_reference(shape) -> bool:
    """True iff the shape's cells are 4-connected, by breadth-first search."""
    cells = set(shape.cells())
    if len(cells) <= 1:
        return True
    seen = {next(iter(cells))}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(cells)


class LogSum:
    """Streaming accumulator for log(sum of exp(terms)).

    Keeps the running maximum and a rescaled mantissa sum, so the result
    is stable and insensitive to the order terms arrive in.
    """

    __slots__ = ("_max", "_acc", "count")

    def __init__(self):
        self._max = -math.inf
        self._acc = 0.0
        self.count = 0

    def add(self, logw: float) -> "LogSum":
        self.count += 1
        if logw == -math.inf:
            return self
        if logw <= self._max:
            self._acc += math.exp(logw - self._max)
        else:
            self._acc = self._acc * math.exp(self._max - logw) + 1.0
            self._max = logw
        return self

    def merge(self, other: "LogSum") -> "LogSum":
        """Absorb another accumulator in place (exact, no value round trip)."""
        self.count += other.count
        if other._max == -math.inf:
            return self
        if other._max <= self._max:
            self._acc += other._acc * math.exp(other._max - self._max)
        else:
            self._acc = self._acc * math.exp(self._max - other._max) + other._acc
            self._max = other._max
        return self

    @property
    def value(self) -> float:
        if self.count == 0:
            return -math.inf
        return self._max + math.log(self._acc)


def enumerated_sum(region, weight) -> Fraction:
    """Sum over every tiling of the product of weight[c] over flat cells."""
    total = Fraction(0)
    for flats in iter_flat_cells(region):
        total += math.prod((Fraction(weight[c]) for c in flats), start=1)
    return total


def enumerated_log_z(region, w: dict) -> LogSum:
    """log of the sum over every tiling of exp(total log weight)."""
    acc = LogSum()
    for flats in iter_flat_cells(region):
        acc.add(sum(w.get(c, 0.0) for c in flats))
    return acc


def dsig(s, t):
    """Gradient of the lozenge entropy in (s, t), slopes clipped inside (0, 1)."""
    ec = 1e-12
    s = np.clip(s, ec, 1.0 - ec)
    t = np.clip(t, ec, 1.0 - ec)
    u = np.clip(1.0 - s - t, ec, 1.0 - ec)
    lu = np.log(2.0 * np.sin(math.pi * u))
    return lu - np.log(2.0 * np.sin(math.pi * s)), lu - np.log(2.0 * np.sin(math.pi * t))


def node_derivative(mesh, rho_tri, v, x) -> float:
    """d/df[v] of the mesh functional at f[v] = x, the other heights fixed.

    Sums 0.5 ell (ds sc + dt tc - rho (sc + tc)) over the triangles at v,
    where (sc, tc) are the coefficients of f[v] in ell (s, t).
    """
    ell = mesh.ell
    f = mesh.f.copy()
    f[v] = x
    total = 0.0
    for k in np.nonzero((mesh.tris == v).any(axis=1))[0]:
        tri = [int(i) for i in mesh.tris[k]]
        f0, f1, f2 = f[tri]
        slot = tri.index(v)
        if mesh.up[k]:
            s, t = (f1 - f0) / ell, (f2 - f1) / ell
            sc, tc = (-1, 1, 0)[slot], (0, -1, 1)[slot]
        else:
            s, t = (f2 - f1) / ell, (f1 - f0) / ell
            sc, tc = (0, -1, 1)[slot], (-1, 1, 0)[slot]
        ds, dt = dsig(s, t)
        total += ds * sc + dt * tc - rho_tri[k] * (sc + tc)
    return 0.5 * ell * total


def grid_triangles_reference(nx: int, ny: int):
    """varsolve._grid_triangles by a Python loop over the cells."""
    def nid(i, j):
        return i * (ny + 1) + j

    tris = []
    ups = []
    for i in range(nx):
        for j in range(ny):
            tris.append((nid(i, j), nid(i + 1, j), nid(i + 1, j + 1)))
            ups.append(True)
            tris.append((nid(i, j), nid(i, j + 1), nid(i + 1, j + 1)))
            ups.append(False)
    return np.array(tris, dtype=np.int64), np.array(ups, dtype=bool)


def interp_init_reference(coarse, fine) -> None:
    """varsolve._interp_init by a Python loop over the fine free nodes."""
    table = {(int(i), int(j)): v
             for (i, j), v in zip(coarse.ij, coarse.f)}
    ratio = coarse.ell
    for idx in np.nonzero(fine.free)[0]:
        x, y = fine.xy[idx]
        xi = x / ratio
        yj = y / ratio
        i = int(math.floor(xi + 1e-12))
        j = int(math.floor(yj + 1e-12))
        fi = xi - i
        fj = yj - j
        a = table.get((i, j))
        b = table.get((i + 1, j))
        c = table.get((i + 1, j + 1))
        d = table.get((i, j + 1))
        if fj <= fi:
            vals = (a, b, c)
            if any(v is None for v in vals):
                continue
            fine.f[idx] = a + fi * (b - a) + fj * (c - b)
        else:
            vals = (a, d, c)
            if any(v is None for v in vals):
                continue
            fine.f[idx] = a + fj * (d - a) + fi * (c - d)


def diag_chord_reference(pts, c: float) -> float:
    """Length T of the diagonal ray head(c) + t (1, 1) inside the hypograph.

    pts is a nonincreasing breakpoint list with an implicit drop to 0 past
    the end; the ray starts at (0, c) for c >= 0, else (-c, 0).
    """
    if not pts:
        return 0.0
    hx, hy = (0.0, c) if c >= 0 else (-c, 0.0)
    # feasibility g(t) = hy + t - curve(hx + t) is increasing in t
    if hy > _pl_left(pts, hx) + 1e-12:
        return 0.0
    best = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        t0, t1 = x0 - hx, x1 - hx
        if t1 <= 0:
            best = max(best, 0.0)
            continue
        t0 = max(t0, 0.0)
        if x1 == x0:
            # vertical drop: the ray can only touch it at one t
            t = x0 - hx
            if t >= 0 and y1 <= hy + t <= y0 + 1e-12:
                best = max(best, t)
            continue
        m = (y1 - y0) / (x1 - x0)  # <= 0
        # hy + t <= y0 + m (hx + t - x0)  <=>  t (1 - m) <= y0 - hy + m (hx - x0)
        bound = (y0 - hy + m * (hx - x0)) / (1.0 - m)
        if bound < t0 - 1e-12:
            break
        best = max(best, min(bound, t1))
        if bound < t1:
            break
    return max(best, 0.0)


def critical_diagonals_reference(profile) -> list[float]:
    phi0 = profile.phi_top
    xmax = profile.phi_width
    cs = {-xmax, phi0}
    if -xmax < 0.0 < phi0:
        cs.add(0.0)  # chord heads switch axes here, kinking both chord maps
    for x, y in profile.phi:
        c = y - x
        if -xmax - 1e-12 <= c <= phi0 + 1e-12:
            cs.add(min(max(c, -xmax), phi0))
    return sorted(cs)


def profile_depth_reference(profile) -> float:
    """Largest diagonal slack between the outer and inner hypographs."""
    if not profile.phi:
        raise ValueError("depth of a straight profile is not defined")
    # the slack is piecewise linear in the diagonal, with kinks only on
    # diagonals through breakpoints of either curve
    cs = set(critical_diagonals_reference(profile))
    for x, y in profile.psi:
        cs.add(y - x)
    cs.add(profile.width * -1.0)
    cs.add(profile.height)
    phi0, xmax = profile.phi_top, profile.phi_width
    best = 0.0
    for c in cs:
        if not (-xmax - 1e-12 <= c <= phi0 + 1e-12):
            continue
        best = max(best, diag_chord_reference(profile.psi, c)
                   - diag_chord_reference(profile.phi, c))
    return best


def profile_domain_reference(profile) -> list[tuple[float, float]]:
    """Polygon bounding the scaled regions: axes, ramps and the tail curve."""
    if not profile.phi:
        raise ValueError("straight profiles bound a degenerate (pinned) domain")
    d = profile_depth_reference(profile)
    phi0, xmax = profile.phi_top, profile.phi_width
    pts: list[tuple[float, float]] = [(0.0, 0.0), (xmax, 0.0)]
    for c in critical_diagonals_reference(profile):
        t = diag_chord_reference(profile.phi, c) + d
        hx, hy = (0.0, c) if c >= 0 else (-c, 0.0)
        pts.append((hx + t, hy + t))
    pts.append((0.0, phi0))
    out = []
    for p in pts:
        if not out or abs(p[0] - out[-1][0]) > 1e-11 or abs(p[1] - out[-1][1]) > 1e-11:
            out.append(p)
    if len(out) > 2 and abs(out[0][0] - out[-1][0]) < 1e-11 \
            and abs(out[0][1] - out[-1][1]) < 1e-11:
        out.pop()
    return out


def k_psi_reference(profile) -> float:
    """Integral of log hbar over the full hypograph of psi.

    The inner y integral is exact on each linear piece of psi^{-1}; the
    outer integral runs adaptive quadrature per psi segment.
    """
    pts = list(profile.psi)
    pieces = []  # (y_lo, y_hi, alpha, beta): psi^{-1}(y) = alpha + beta y
    if pts[-1][1] > 0:
        pieces.append((0.0, pts[-1][1], pts[-1][0], 0.0))
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y1 >= y0 - 1e-15:
            continue  # flat piece: no inverse mass
        if x1 == x0:
            pieces.append((y1, y0, x0, 0.0))
        else:
            beta = (x1 - x0) / (y1 - y0)
            alpha = x0 - beta * y0
            pieces.append((y1, y0, alpha, beta))

    def anti(aa, bb, y):
        u = aa + bb * y
        if u < 1e-300:
            return 0.0
        return (u / bb) * (math.log(u) - 1.0)

    def inner(x):
        px = profile.psi_at(x)
        if px <= 0:
            return 0.0
        total = 0.0
        for ylo, yhi, alpha, beta in pieces:
            y0 = max(ylo, 0.0)
            y1 = min(yhi, px)
            if y1 <= y0:
                continue
            aa = alpha - x + px
            bb = beta - 1.0
            total += anti(aa, bb, y1) - anti(aa, bb, y0)
        return total

    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if x1 > x0 + 1e-15:
                total += integrate.quad(inner, x0, x1, epsabs=1e-12,
                                        epsrel=1e-12, limit=500)[0]
    return total


def outside_cells(region) -> set:
    """The chain cells outside the region's outer shape."""
    outer = region.shape.outer
    return {v for c in region.chains.values() for v in c[1:]
            if v not in outer}


def up_roots(region) -> list:
    """Sorted roots p of the up triangles {p, p + e1, p + e3}."""
    vs = region.vertices
    return sorted(p for p in vs
                  if (p[0] + 1, p[1]) in vs and (p[0] + 1, p[1] + 1) in vs)


def down_roots(region) -> list:
    """Sorted roots q of the down triangles {q, q + e2, q + e3}."""
    vs = region.vertices
    return sorted(q for q in vs
                  if (q[0], q[1] + 1) in vs and (q[0] + 1, q[1] + 1) in vs)


def flip_interval_reference(region, hd: dict, v) -> tuple[int, int]:
    """Feasible closed interval for the height at the free vertex v, all
    else fixed.  v and v + e3 are chain cells past the head, so the e3 edge
    into either must rise where it lies outside the outer shape."""
    i, j = v
    vs = region.vertices
    outer = region.shape.outer
    lo, hi = -(1 << 30), 1 << 30
    for p in ((i - 1, j), (i, j - 1)):
        if p in vs:
            hp = hd[p]
            if hp > lo:
                lo = hp
            if hp + 1 < hi:
                hi = hp + 1
    p3 = (i - 1, j - 1)
    if p3 in vs:
        b = hd[p3] + (1 if v not in outer else 0)
        if b > lo:
            lo = b
        if hd[p3] + 1 < hi:
            hi = hd[p3] + 1
    for q in ((i + 1, j), (i, j + 1)):
        if q in vs:
            hq = hd[q]
            if hq - 1 > lo:
                lo = hq - 1
            if hq < hi:
                hi = hq
    q3 = (i + 1, j + 1)
    if q3 in vs:
        if hd[q3] - 1 > lo:
            lo = hd[q3] - 1
        b = hd[q3] - (1 if q3 not in outer else 0)
        if b < hi:
            hi = b
    return lo, hi


def mix_reference(region, hd, rng, w, beta, nsteps) -> int:
    """sampler._mix by tuple-keyed lookups: same draws, same chain."""
    free = region.free
    if not free:
        return 0
    accepted = 0
    left = nsteps
    while left > 0:
        m = min(left, CHUNK)
        left -= m
        picks = rng.integers(len(free), size=m).tolist()
        us = rng.random(m).tolist()
        for r, u in zip(picks, us):
            v = free[r]
            lo, hi = flip_interval_reference(region, hd, v)
            if hi <= lo:
                continue
            new = lo + hi - hd[v]
            d = beta * _delta_logw(region, hd, v, new, w) if beta else 0.0
            if d >= 0 or u < math.exp(d):
                hd[v] = new
                accepted += 1
    return accepted


def det_reference(m: list[list]) -> Fraction:
    """Determinant of a square matrix of rationals; consumes the matrix."""
    det = Fraction(1)
    n = len(m)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        row = m[k]
        det *= row[k]
        for other in m[k + 1:]:
            if other[k]:
                f = Fraction(other[k], row[k])
                for j in range(k + 1, n):
                    if row[j]:
                        other[j] -= f * row[j]
    return det


def tiling_sum_reference(region, cell_weight) -> Fraction:
    """nhlf._tiling_sum with Fraction path sums, node weight 1 / w."""
    depth = region.depth
    outer = region.shape.outer
    ds = sorted(region.chains)
    prefactor = Fraction(1)
    ks, free, node_w = [], [], []
    for d in ds:
        chain = region.chains[d]
        k = len(chain) - 1 - depth
        ws = [Fraction(cell_weight(c)) for c in chain[1:] if c in outer] \
            if k else []
        for w in ws:
            prefactor *= w
        ks.append(k)
        free.append(len(ws) - k)
        node_w.append([None] + [1 / w for w in ws])

    sources, sinks = [], []
    for level in range(1, depth + 1):
        for c in range(1, len(ds)):
            inside = level <= free[c]
            if inside != (level <= free[c - 1]):
                if inside:
                    sources.append((c - 1, ks[c - 1] + level))
                else:
                    sinks.append((c, ks[c] + level))
    sinks_on: dict[int, list] = {}
    for j, (c, t) in enumerate(sinks):
        sinks_on.setdefault(c, []).append((j, t))

    n = len(sources)
    m = [[0] * n for _ in range(n)]
    for i, (c, t) in enumerate(sources):
        sums = {t: Fraction(1)}
        while sums:
            moves = (-1, 0) if ds[c] >= 0 else (0, 1)
            c += 1
            for j, s in sinks_on.get(c, ()):
                m[i][j] = sum(sums.get(s - dt, 0) for dt in moves)
            top, wts = ks[c] + free[c], node_w[c]
            nxt: dict[int, Fraction] = {}
            for s, val in sums.items():
                for dt in moves:
                    if 1 <= s + dt <= top:
                        nxt[s + dt] = nxt.get(s + dt, 0) + val
            sums = {s: val * wts[s] for s, val in nxt.items()}
    return prefactor * det_reference(m)


def heights_to_tiling_reference(region, hd: dict) -> tuple:
    """The sorted lozenges of the region's heights hd, keyed by vertex.

    The triangle at p decodes by d1 = h(p + e1) - h(p) and
    d2 = h(p + e3) - h(p + e1); each paired down triangle must be claimed
    exactly once.
    """
    claimed = {}
    lozenges = []
    for p in up_roots(region):
        i, j = p
        if hd[(i + 1, j)] != hd[p]:
            typ, anchor, q = 2, (i, j - 1), (i, j - 1)
        elif hd[(i + 1, j + 1)] == hd[(i + 1, j)]:
            typ, anchor, q = 3, (i + 1, j + 1), p
        else:
            typ, anchor, q = 1, p, (i + 1, j)
        lozenges.append(Lozenge(typ, *anchor))
        if q in claimed:
            raise ValueError(f"down triangle at {q} claimed twice")
        claimed[q] = typ
    if set(claimed) != set(down_roots(region)):
        raise ValueError("some down triangles are left uncovered")
    return tuple(sorted(lozenges))


def density_reference(samples) -> DensityField:
    """sampler.density by a loop over every lozenge of every sample."""
    region = samples[0].region
    ups = tuple(up_roots(region))
    index = {p: k for k, p in enumerate(ups)}
    counts = np.zeros((len(ups), 3))
    for t in samples:
        for l in t.lozenges:
            if l.type == 3:
                p = (l.x - 1, l.y - 1)
            elif l.type == 1:
                p = (l.x, l.y)
            else:
                p = (l.x, l.y + 1)
            counts[index[p], l.type - 1] += 1
    return DensityField(region, ups, counts / len(samples), len(samples))
