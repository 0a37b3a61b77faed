"""Variational limit shape solver and the growth constant assembly.

For a profile pair (psi, phi) the scaled tiling regions converge to a
planar domain U bounded by the two axes, two diagonal ramps, and the tail
curve head(c) + (T_phi(c) + d)(1, 1), where T_phi(c) is the diagonal chord
of phi's hypograph on the diagonal through c and the depth d is the
largest diagonal slack sup_c (T_psi(c) - T_phi(c)).  Boundary heights are
gamma(x, y) = max(0, min(x, y, d)).

The functional maximized over height profiles f with gradient in the
slope triangle is the tiling entropy sigma(s, t) plus the weight term
rho(x, y) * (1 - s - t), where rho is the capped log of the scaled hook
limit hbar(x, y) = (psi^{-1}(y) - x) + (psi(x) - y).  Coordinate ascent
over a three coloring of a triangulated grid solves it: each update is a
one dimensional concave maximization on the node's feasible interval.
Its derivative has the sign of prod sin(pi A) exp(-R) - prod sin(pi B),
where A and B run over the slopes that fall and rise with the node's
height and R collects the weight term, so the update bisects on the sign
of that sine product and takes no logarithm; each mesh level stops at the
first sweep whose projected gradient residual is within tolerance.

The growth constant of the family is then Psi_max - k(psi) - 1 in the
normalization log f_N ~ 0.5 N log N + c N, where k(psi) is the integral
of log hbar over psi's full hypograph.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .entropy import lobachevsky
from .errors import check_count
from .nhlf import count_nhlf
from .shapes import StableProfile

DEFAULT_MESH = 64
DEFAULT_EPS = 0.05
DEFAULT_TOL = 1e-4
MAX_SWEEPS = 4000  # sweep budget of the finest level; coarser levels get half
_PI = math.pi


# ---------------------------------------------------------------------------
# continuum geometry of a profile pair


def _diag_chord(pts, c: float) -> float:
    """Length T of the diagonal ray head(c) + t (1, 1) inside the hypograph.

    pts is a nonincreasing breakpoint list with an implicit drop to 0 past
    the end; the ray starts at (0, c) for c >= 0, else (-c, 0).
    """
    if not pts:
        return 0.0
    hx, hy = (0.0, c) if c >= 0 else (-c, 0.0)
    # feasibility g(t) = hy + t - curve(hx + t) is increasing in t
    from .shapes import _pl_left

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


def _critical_diagonals(profile: StableProfile) -> list[float]:
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


def profile_depth(profile: StableProfile) -> float:
    """Largest diagonal slack between the outer and inner hypographs."""
    if not profile.phi:
        raise ValueError("depth of a straight profile is not defined")
    # the slack is piecewise linear in the diagonal, with kinks only on
    # diagonals through breakpoints of either curve
    cs = set(_critical_diagonals(profile))
    for x, y in profile.psi:
        cs.add(y - x)
    cs.add(profile.width * -1.0)
    cs.add(profile.height)
    phi0, xmax = profile.phi_top, profile.phi_width
    best = 0.0
    for c in cs:
        if not (-xmax - 1e-12 <= c <= phi0 + 1e-12):
            continue
        best = max(best,
                   _diag_chord(profile.psi, c) - _diag_chord(profile.phi, c))
    return best


def profile_domain(profile: StableProfile) -> list[tuple[float, float]]:
    """Polygon bounding the scaled regions: axes, ramps and the tail curve."""
    if not profile.phi:
        raise ValueError("straight profiles bound a degenerate (pinned) domain")
    d = profile_depth(profile)
    phi0, xmax = profile.phi_top, profile.phi_width
    pts: list[tuple[float, float]] = [(0.0, 0.0), (xmax, 0.0)]
    for c in _critical_diagonals(profile):
        t = _diag_chord(profile.phi, c) + d
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


def _gamma_factory(depth: float) -> Callable:
    def gamma(x, y):
        return np.maximum(0.0, np.minimum(np.minimum(x, y), depth))

    return gamma


def hbar(profile: StableProfile) -> Callable:
    """Scaled hook limit (psi^{-1}(y) - x) + (psi(x) - y) as a vectorized map."""
    psi_x = np.array([p[0] for p in profile.psi])
    psi_y = np.array([p[1] for p in profile.psi])
    # append the implicit terminal drop so lookups past the end give 0
    if psi_y[-1] > 0:
        psi_x = np.append(psi_x, psi_x[-1])
        psi_y = np.append(psi_y, 0.0)
    inv_y = psi_y[::-1]
    inv_x = psi_x[::-1]

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        px = np.interp(x, psi_x, psi_y)
        iy = np.interp(y, inv_y, inv_x)
        return (iy - x) + (px - y)

    return fn


@dataclass
class Functional:
    """Domain, boundary data and weight density of one variational problem."""

    polygon: list
    gamma: Callable
    rho: Callable | None

    @property
    def bbox(self) -> float:
        arr = np.array(self.polygon)
        return float(max(arr[:, 0].max(), arr[:, 1].max()))


def build_functional(profile: StableProfile, eps: float = DEFAULT_EPS) -> Functional:
    """Entropy-plus-hook-weight functional of a profile pair with inner part."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not profile.phi:
        raise ValueError(
            "straight profiles pin the height profile completely; "
            "constant() handles them without a solve"
        )
    poly = profile_domain(profile)
    depth = profile_depth(profile)
    hb = hbar(profile)
    log_eps = math.log(eps)

    def rho(x, y):
        return np.maximum(np.log(np.maximum(hb(x, y), 1e-300)), log_eps)

    return Functional(poly, _gamma_factory(depth), rho)


def unit_hexagon_functional() -> Functional:
    """Pure entropy on the side 1 hexagon, boundary pinned to the box heights.

    Its maximum is the entropy constant of unit boxed plane partitions,
    which `exact.macmahon` approximates from below at finite n.
    """
    poly = [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 1.0)]
    return Functional(poly, _gamma_factory(1.0), None)


# ---------------------------------------------------------------------------
# triangulated mesh


def _contains(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(poly)
    for k in range(n):
        x0, y0 = poly[k]
        x1, y1 = poly[(k + 1) % n]
        cond = (y0 > y) != (y1 > y)
        if y1 == y0:
            continue
        xs = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= cond & (x < xs)
    return inside


def _seg_dist(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    d = np.full(len(points), np.inf)
    n = len(poly)
    for k in range(n):
        a = poly[k]
        b = poly[(k + 1) % n]
        ab = b - a
        den = float(ab @ ab)
        if den == 0:
            continue
        t = np.clip(((points - a) @ ab) / den, 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.minimum(d, np.hypot(*(points - proj).T))
    return d


@dataclass(frozen=True)
class LevelTrace:
    """Convergence record of one mesh level of a solve."""

    nodes: int  # free nodes
    jammed: int  # free nodes with no room to move after the last sweep
    residuals: tuple  # projected gradient residual after each sweep
    psi: float
    seconds: float
    converged: bool

    @property
    def sweeps(self) -> int:
        return len(self.residuals)

    @property
    def kkt_residual(self) -> float:
        return self.residuals[-1] if self.residuals else math.inf


class MeshProfile:
    """Triangulated height profile over a polygon.

    Nodes sit on a square grid of pitch ell; cells split along the main
    diagonal into an 'up' triangle (v, v+ex, v+ex+ey) and a 'down' one
    (v, v+ey, v+ex+ey).  Boundary and exterior nodes are pinned to gamma.
    """

    __slots__ = ("xy", "ij", "tris", "up", "cent", "free", "f", "ell",
                 "psi_value", "kkt_residual", "sweeps", "converged",
                 "refine_gap", "levels")

    def __init__(self, xy, ij, tris, up, cent, free, f, ell):
        self.xy = xy
        self.ij = ij
        self.tris = tris
        self.up = up
        self.cent = cent
        self.free = free
        self.f = f
        self.ell = ell
        self.psi_value = math.nan
        self.kkt_residual = math.inf
        self.sweeps = 0
        self.converged = False
        self.refine_gap = math.nan
        self.levels: list[LevelTrace] = []

    def slopes(self) -> tuple[np.ndarray, np.ndarray]:
        f = self.f
        t0, t1, t2 = self.tris.T
        s = np.where(self.up, f[t1] - f[t0], f[t2] - f[t1]) / self.ell
        t = np.where(self.up, f[t2] - f[t1], f[t1] - f[t0]) / self.ell
        return s, t


def _grid_triangles(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Triangles of the nx by ny cell grid, and which of them are up.

    Node (i, j) has id i (ny + 1) + j.  Cells run i-major; each gives its
    up triangle (v, v+ex, v+ex+ey) and then its down one (v, v+ey, v+ex+ey).
    """
    ex = ny + 1
    v = (np.arange(nx, dtype=np.int64)[:, None] * ex
         + np.arange(ny, dtype=np.int64)).ravel()
    tris = np.stack([np.column_stack([v, v + ex, v + ex + 1]),
                     np.column_stack([v, v + 1, v + ex + 1])],
                    axis=1).reshape(-1, 3)
    return tris, np.tile([True, False], nx * ny)


def _build_mesh(poly, ell: float, gamma: Callable) -> MeshProfile:
    P = np.asarray(poly, dtype=float)
    nx = int(math.ceil(P[:, 0].max() / ell - 1e-9))
    ny = int(math.ceil(P[:, 1].max() / ell - 1e-9))
    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    ij_all = np.column_stack([ii.ravel(), jj.ravel()])
    tris, ups = _grid_triangles(nx, ny)
    xy_all = ij_all * ell
    cent = (xy_all[tris[:, 0]] + xy_all[tris[:, 1]] + xy_all[tris[:, 2]]) / 3.0
    keep = _contains(cent, P)
    tris = tris[keep]
    ups = ups[keep]
    cent = cent[keep]
    used = np.unique(tris)
    remap = -np.ones(len(ij_all), dtype=np.int64)
    remap[used] = np.arange(len(used))
    tris = remap[tris]
    ij = ij_all[used]
    xy = xy_all[used]
    inside = _contains(xy, P)
    dist = _seg_dist(xy, P)
    free = inside & (dist > 1e-9)
    f = np.asarray(gamma(xy[:, 0], xy[:, 1]), dtype=float).copy()
    return MeshProfile(xy, ij, tris, ups, cent, free, f, ell)


# ---------------------------------------------------------------------------
# coordinate ascent


def _sigma_clip(s, t):
    s = np.clip(s, 0.0, 1.0)
    t = np.clip(t, 0.0, 1.0)
    u = np.clip(1.0 - s - t, 0.0, 1.0)
    return (lobachevsky(s * _PI) + lobachevsky(t * _PI)
            + lobachevsky(u * _PI)) / _PI


def evaluate_psi(mesh: MeshProfile, functional: Functional) -> float:
    """Functional value of the mesh heights (slopes clipped to the triangle)."""
    s, t = mesh.slopes()
    u = np.clip(1.0 - np.clip(s, 0, 1) - np.clip(t, 0, 1), 0.0, 1.0)
    vals = _sigma_clip(s, t)
    if functional.rho is not None:
        vals = vals + functional.rho(mesh.cent[:, 0], mesh.cent[:, 1]) * u
    return float(vals.sum() * 0.5 * mesh.ell ** 2)


@dataclass(frozen=True)
class _Group:
    """Incidence columns of one color class of free nodes, shaped (6, k).

    Column j of node v is an incident triangle (v0, v1, v2) with v in slot
    i.  Raising f[v] by dx lowers one slope of that triangle by dx / ell,
    the falling slope A = (f[v(i+1)] + ell [i = 2] - f[v]) / ell, raises
    another, B = (f[v] + ell [i = 0] - f[v(i-1)]) / ell, and leaves the
    third alone.  This holds for up and down triangles alike, and so does
    the weight term's coefficient: f[v] enters ell (s + t) as (i - 1) f[v].
    Nodes with fewer than six triangles pad with invalid columns.
    """

    nodes: np.ndarray
    fall_at: np.ndarray
    fall_off: np.ndarray
    rise_at: np.ndarray
    rise_off: np.ndarray
    valid: np.ndarray
    rho_sum: np.ndarray  # per node, sum over columns of rho * (i - 1)


def _groups(mesh: MeshProfile, rho_tri: np.ndarray) -> list[_Group]:
    tris = mesh.tris
    # every (vertex, triangle, slot) incidence, grouped by vertex with the
    # triangles in mesh order; a node keeps its first six
    vert = tris.ravel()
    by_vertex = np.argsort(vert, kind="stable")
    vert = vert[by_vertex]
    tri_of, slot = np.divmod(by_vertex, 3)
    first = np.searchsorted(vert, np.arange(len(mesh.xy)))
    row = np.arange(len(vert)) - first[vert]
    color = (mesh.ij[:, 0] + mesh.ij[:, 1]) % 3
    out = []
    for c in range(3):
        nodes = np.nonzero(mesh.free & (color == c))[0]
        col_of = np.full(len(mesh.xy), -1)
        col_of[nodes] = np.arange(len(nodes))
        sel = (row < 6) & (col_of[vert] >= 0)
        r, col, t, i = row[sel], col_of[vert[sel]], tri_of[sel], slot[sel]
        fall_at = np.tile(nodes.astype(np.int32), (6, 1))
        rise_at = fall_at.copy()
        fall_at[r, col] = tris[t, (i + 1) % 3]
        rise_at[r, col] = tris[t, (i - 1) % 3]
        fall_off = np.zeros(fall_at.shape)
        rise_off = np.zeros(fall_at.shape)
        fall_off[r, col] = mesh.ell * (i == 2)
        rise_off[r, col] = mesh.ell * (i == 0)
        valid = np.zeros(fall_at.shape, dtype=bool)
        valid[r, col] = True
        terms = np.zeros(fall_at.shape)
        terms[r, col] = rho_tri[t] * (i - 1)
        rho_sum = np.zeros(len(nodes))
        for k in range(6):  # column by column, as a running sum
            rho_sum += terms[k]
        out.append(_Group(nodes, fall_at, fall_off, rise_at, rise_off, valid,
                          rho_sum))
    return out


def _columns(grp: _Group, f: np.ndarray, ell: float):
    """Slope bases of every column and each node's feasible interval.

    At height x the column's falling slope is (fall - x) / ell and its
    rising slope (rise + x) / ell.  The interval [lo, hi] keeps both in
    [0, 1]; lo > hi marks a node whose fixed slopes leave it no room.
    """
    fall = f[grp.fall_at] + grp.fall_off
    rise = grp.rise_off - f[grp.rise_at]
    lo = np.where(grp.valid, np.maximum(-rise, fall - ell), -np.inf).max(axis=0)
    hi = np.where(grp.valid, np.minimum(fall, ell - rise), np.inf).min(axis=0)
    return fall, rise, lo, hi


def _derivative(grp: _Group, fall, rise, x, ell: float) -> np.ndarray:
    """Derivative of the functional in each node's height x.

    It is 0.5 ell (log(prod sin(pi A) / prod sin(pi B)) - rho_sum): the
    slope that does not move and the log 2 of each entropy term cancel.
    Slopes are clipped to [1e-12, 1 - 1e-12] first.
    """
    a = np.clip((fall - x) / ell, 1e-12, 1.0 - 1e-12)
    b = np.clip((rise + x) / ell, 1e-12, 1.0 - 1e-12)
    pa = np.where(grp.valid, np.sin(_PI * a), 1.0).prod(axis=0)
    pb = np.where(grp.valid, np.sin(_PI * b), 1.0).prod(axis=0)
    return 0.5 * ell * (np.log(pa / pb) - grp.rho_sum)


def _sign_kernel(grp: _Group, fall, rise, mid, ell: float) -> Callable:
    """Log-free function of offsets d with the derivative's sign at mid + d.

    mid is the centre of each node's feasible interval.  The sign is that
    of prod sin(pi A) exp(-rho_sum) - prod sin(pi B).  With alpha = pi A
    at mid and y = pi d / ell, each factor sin(alpha - y) divided by cos y
    is sin(alpha) - cos(alpha) tan(y); the interval is at most ell wide,
    so |y| < pi / 2 inside it and the division keeps the sign.  Each
    evaluation takes one tangent per node instead of a sine per column.
    """
    scale = _PI / ell
    ang = np.stack([fall - mid, rise + mid]) * scale
    sin = np.where(grp.valid, np.sin(ang), 1.0)
    cos = np.where(grp.valid, np.cos(ang), 0.0)
    cos[0] *= -1.0
    weight = np.exp(-grp.rho_sum)
    sin[0, 0] *= weight  # column 0 is valid for every node
    cos[0, 0] *= weight

    def sign(d):
        prods = (sin + cos * np.tan(d * scale)).prod(axis=1)
        return prods[0] - prods[1]

    return sign


def _half_room(lo, hi, ell: float):
    """Half of each feasible interval, less 1e-9 ell; below 0 the node is jammed."""
    return 0.5 * (hi - lo) - 1e-9 * ell


def _update_group(grp: _Group, f: np.ndarray, ell: float, tol: float) -> None:
    """Move every node of the group to the maximizer on its interval.

    Bisection on the sign kernel stops once the widest bracket is below
    1e-4 tol, far under the residual the solve is asked for.
    """
    if len(grp.nodes) == 0:
        return
    fall, rise, lo, hi = _columns(grp, f, ell)
    mid = 0.5 * (lo + hi)
    sign = _sign_kernel(grp, fall, rise, mid, ell)
    half = _half_room(lo, hi, ell)
    empty = half < 0  # jammed: the node sits at the centre
    at_left = ~empty & (sign(-half) <= 0)
    at_right = ~empty & ~at_left & (sign(half) >= 0)
    d = np.where(at_left, -half, np.where(at_right, half, 0.0))
    step = np.where(empty | at_left | at_right, 0.0, 0.5 * half)
    width = 4.0 * float(step.max())
    if width > 0.0:
        for _ in range(math.ceil(math.log2(width / (1e-4 * tol)))):
            d += np.copysign(step, sign(d))
            step *= 0.5
    f[grp.nodes] = mid + d


def _kkt(groups: list[_Group], f: np.ndarray, ell: float) -> float:
    """Projected gradient residual: how far each free node could still move."""
    worst = 0.0
    for grp in groups:
        if len(grp.nodes) == 0:
            continue
        fall, rise, lo, hi = _columns(grp, f, ell)
        x = f[grp.nodes]
        g = _derivative(grp, fall, rise, x, ell)
        target = np.clip(x + g, np.minimum(lo, x), np.maximum(hi, x))
        move = np.abs(target - x)
        move[lo > hi] = 0.0
        worst = max(worst, float(move.max()))
    return worst


def _jammed(groups: list[_Group], f: np.ndarray, ell: float) -> int:
    """Free nodes that `_update_group` would leave where they are."""
    count = 0
    for grp in groups:
        if len(grp.nodes):
            _, _, lo, hi = _columns(grp, f, ell)
            count += int((_half_room(lo, hi, ell) < 0).sum())
    return count


def _solve_mesh(mesh: MeshProfile, functional: Functional, tol: float,
                max_sweeps: int) -> tuple[list[float], int]:
    """Sweep the three colors until the residual is at most tol.

    Returns the residual after each sweep and the number of jammed free
    nodes after the last one.
    """
    rho_tri = (functional.rho(mesh.cent[:, 0], mesh.cent[:, 1])
               if functional.rho is not None else np.zeros(len(mesh.tris)))
    groups = _groups(mesh, np.asarray(rho_tri, dtype=float))
    residuals: list[float] = []
    for _ in range(max_sweeps):
        for grp in groups:
            _update_group(grp, mesh.f, mesh.ell, tol)
        residuals.append(_kkt(groups, mesh.f, mesh.ell))
        if residuals[-1] <= tol:
            break
    mesh.sweeps = len(residuals)
    if residuals:
        mesh.kkt_residual = residuals[-1]
        mesh.converged = residuals[-1] <= tol
    mesh.psi_value = evaluate_psi(mesh, functional)
    return residuals, _jammed(groups, mesh.f, mesh.ell)


def _interp_init(coarse: MeshProfile, fine: MeshProfile) -> None:
    """Seed fine free nodes from the coarse solution; the rest keep gamma.

    A node takes the linear interpolant of the coarse triangle it lies in,
    the up one (i, j), (i+1, j), (i+1, j+1) when fj <= fi, else the down
    one; a node whose triangle misses a coarse node keeps its value.
    """
    idx = np.nonzero(fine.free)[0]
    xi = fine.xy[idx, 0] / coarse.ell
    yj = fine.xy[idx, 1] / coarse.ell
    i = np.floor(xi + 1e-12).astype(np.int64)
    j = np.floor(yj + 1e-12).astype(np.int64)
    fi = xi - i
    fj = yj - j
    ci, cj = coarse.ij.T
    shape = (max(ci.max(), i.max(initial=0) + 1) + 1,
             max(cj.max(), j.max(initial=0) + 1) + 1)
    known = np.zeros(shape, dtype=bool)
    grid = np.zeros(shape)
    known[ci, cj] = True
    grid[ci, cj] = coarse.f
    up = fj <= fi
    # the triangle's third corner: (i+1, j) when up, else (i, j+1)
    ki = i + up
    kj = j + ~up
    ok = known[i, j] & known[ki, kj] & known[i + 1, j + 1]
    a, k, c = grid[i, j], grid[ki, kj], grid[i + 1, j + 1]
    val = np.where(up, a + fi * (k - a) + fj * (c - k),
                   a + fj * (k - a) + fi * (c - k))
    fine.f[idx[ok]] = val[ok]


def _check_solve(tol: float, mesh_n: int) -> int:
    """mesh_n as an int, after checking it is an integer >= 1 and tol finite > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    return check_count("mesh_n", mesh_n, 1)


def maximize(functional: Functional, tol: float = DEFAULT_TOL,
             mesh_n: int = DEFAULT_MESH) -> MeshProfile:
    """Maximize the functional over mesh height profiles pinned to gamma.

    The mesh pitch is bbox / mesh_n.  From mesh_n = 16 up the solve runs
    coarse to fine over three levels, mesh_n / 4, mesh_n / 2 and mesh_n
    (at least 8 and 12), each started from the last; below 16 it is one
    level started from gamma.  The discrete functional is strictly concave
    in the free heights (the entropy is strictly concave and the weight
    term linear), so its maximizer is unique and no other start can find a
    better one.  The returned mesh carries the value, the projected
    gradient residual, the refinement gap between the last two levels and,
    in `levels`, one LevelTrace per mesh level.
    """
    mesh_n = _check_solve(tol, mesh_n)
    levels = [mesh_n]
    if mesh_n >= 16:
        levels = [max(8, mesh_n // 4), max(12, mesh_n // 2), mesh_n]
    coarse: MeshProfile | None = None
    gap = math.nan
    trace = []
    for li, n in enumerate(levels):
        start = time.perf_counter()
        mesh = _build_mesh(functional.polygon, functional.bbox / n,
                           functional.gamma)
        if coarse is not None:
            _interp_init(coarse, mesh)
        budget = MAX_SWEEPS if li == len(levels) - 1 else MAX_SWEEPS // 2
        residuals, jammed = _solve_mesh(mesh, functional, tol, budget)
        trace.append(LevelTrace(
            int(mesh.free.sum()), jammed, tuple(residuals), mesh.psi_value,
            time.perf_counter() - start, mesh.converged))
        if coarse is not None:
            gap = abs(mesh.psi_value - coarse.psi_value)
        coarse = mesh
    coarse.refine_gap = gap
    coarse.levels = trace
    return coarse


# ---------------------------------------------------------------------------
# the constant


def _anti_ulogu(u: float) -> float:
    """H(u) = u^2 (log u - 3/2) / 2, an antiderivative of u (log u - 1); H(0) = 0."""
    return 0.5 * u * u * (math.log(u) - 1.5) if u >= 1e-300 else 0.0


def _mean_ulogu(ua: float, ub: float) -> float:
    """Mean of g(u) = u (log u - 1) over u between ua and ub (0 where u <= 0).

    It is (H(ub) - H(ua)) / (ub - ua).  When the two ends nearly agree
    that difference cancels, so the midpoint series g(c) + g''(c) d^2 / 24
    takes over; its first omitted term is d^4 / (960 c^3).
    """
    c = 0.5 * (ua + ub)
    d = ub - ua
    if c > 0.0 and abs(d) <= 1e-3 * c:
        return c * (math.log(c) - 1.0) + d * d / (24.0 * c)
    if d == 0.0:
        return 0.0
    return (_anti_ulogu(ub) - _anti_ulogu(ua)) / d


def k_psi(profile: StableProfile) -> float:
    """Integral of log hbar over the full hypograph of psi, in closed form.

    On each linear piece of psi^{-1} the inner y integral is
    [(u / b)(log u - 1)] with u = psi^{-1}(y) - x + psi(x) - y linear in y
    and b its slope.  Splitting each psi segment where psi(x) crosses a
    piece's ends makes every bound of that bracket linear in x, and a
    u (log u - 1) term with u linear in x integrates exactly.
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

    total = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= x0 + 1e-15:
            continue
        m = (y1 - y0) / (x1 - x0)
        cuts = {x0, x1}
        if m < 0.0:
            for ylo, yhi, _, _ in pieces:
                for v in (ylo, yhi):
                    xc = x0 + (v - y0) / m
                    if x0 < xc < x1:
                        cuts.add(xc)
        cuts = sorted(cuts)
        for xa, xb in zip(cuts, cuts[1:]):
            pa = y0 + m * (xa - x0)
            pb = y0 + m * (xb - x0)
            pm = y0 + m * (0.5 * (xa + xb) - x0)
            for ylo, yhi, alpha, beta in pieces:
                lo = max(ylo, 0.0)
                if min(yhi, pm) <= lo:
                    continue
                bb = beta - 1.0
                # u = alpha - x + psi(x) + bb y at the bracket's bounds
                bot = (alpha - xa + pa + bb * lo, alpha - xb + pb + bb * lo)
                if yhi <= pm:
                    top = (alpha - xa + pa + bb * yhi,
                           alpha - xb + pb + bb * yhi)
                else:  # y = psi(x): u = psi^{-1}(psi(x)) - x
                    top = (alpha - xa + beta * pa, alpha - xb + beta * pb)
                total += (xb - xa) * (_mean_ulogu(*top)
                                      - _mean_ulogu(*bot)) / bb
    return total


@dataclass
class ConstantResult:
    """Growth constant estimate with its error budget."""

    value: float
    psi_max: float
    k_psi: float
    budget: dict = field(default_factory=dict)
    mesh: MeshProfile | None = None

    def __float__(self) -> float:
        return self.value


def constant(profile: StableProfile, eps: float = DEFAULT_EPS,
             tol: float = DEFAULT_TOL,
             mesh_n: int = DEFAULT_MESH) -> ConstantResult:
    """Growth constant of the family: Psi_max - k(psi) - 1.

    The constant c is normalized by log f_N ~ 0.5 N log N + c N along the
    family.  eps caps the hook weight below at log eps; tol and mesh_n go
    to `maximize`.  Straight profiles (empty phi) have a fully pinned
    height profile, so Psi_max = 0 there and no solve is run.
    """
    _check_solve(tol, mesh_n)
    k = k_psi(profile)
    if not profile.phi:
        return ConstantResult(-1.0 - k, 0.0, k,
                              budget={"quadrature": 1e-9, "optimizer": 0.0})
    functional = build_functional(profile, eps)
    mesh = maximize(functional, tol=tol, mesh_n=mesh_n)
    psi = mesh.psi_value
    budget = {
        "quadrature": 1e-9,
        "optimizer": mesh.kkt_residual,
        "refinement": mesh.refine_gap,
        "cap": eps * eps * (1.0 - math.log(eps)),
    }
    return ConstantResult(psi - k - 1.0, psi, k, budget=budget, mesh=mesh)


def finite_n_constant(shape_family: Callable, sizes) -> list[float]:
    """Exact finite size constants (log f_N - 0.5 N log N) / N along a family.

    shape_family maps a size N to a SkewShape of exactly that size.
    """
    sizes = [int(n) for n in sizes]
    if any(n < 1 for n in sizes):
        raise ValueError("sizes must be positive")
    out = []
    for n in sizes:
        shape = shape_family(n)
        if shape.size != n:
            raise ValueError(f"family produced {shape.size} cells for size {n}")
        out.append((math.log(count_nhlf(shape)) - 0.5 * n * math.log(n)) / n)
    return out
