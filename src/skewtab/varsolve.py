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
limit hbar(x, y) = (psi^{-1}(y) - x) + (psi(x) - y).  On a triangulated
grid every slope is linear in the free node heights, so a log barrier
mu A sum (log z + log(1 - z)) over the slopes turns the problem into a
smooth concave one (Boyd and Vandenberghe, Convex Optimization, ch. 11).
Damped Newton steps solve it for mu shrinking tenfold, each step one
solve with an edge Laplacian that only `laplacian.EdgeLaplacian`
eliminates, by nested dissection.  Phase I, through the same solve,
stops at its first strictly feasible point; Newton starts at the point
between it and the given heights with the best barrier value.  A finer
mesh level starts from the interpolated coarse heights at the coarse
level's final mu.  Each level stops at a certified optimality gap: weak
duality with the multipliers that the Newton equation makes stationary
bounds how far the heights' value lies below the discrete maximum.

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
from .errors import check_count, check_eps
from .laplacian import EdgeLaplacian
from .shapes import StableProfile

DEFAULT_MESH = 64
DEFAULT_EPS = 0.05
DEFAULT_TOL = 1e-4
_MAX_STEPS = 200  # Newton steps per phase and level
_INSIDE = 1e-3  # slope margin below which phase I runs
_MU_MIN = 1e-9  # smallest barrier weight: frozen slopes near mu lose precision
_EPS = float(np.finfo(float).eps)
_PI = math.pi


# ---------------------------------------------------------------------------
# continuum geometry of a profile pair


def _boundary(pts) -> np.ndarray:
    """A curve's breakpoints and its implicit drop to 0, as an (m, 2) array.

    Along the rows x - y never decreases, so the diagonal y - x = c leaves
    the region under the curve at x = np.interp(-c, x - y, x).
    """
    b = np.array(pts, dtype=float)
    if b[-1, 1] > 0.0:
        b = np.vstack([b, (b[-1, 0], 0.0)])
    return b


def _diag_chord(pts, c):
    """Length T of the diagonal ray head(c) + t (1, 1) inside the hypograph.

    The ray starts at head(c) = (0, c) for c >= 0, else (-c, 0); c may be
    an array of diagonals.
    """
    bx, by = _boundary(pts).T
    return np.maximum(np.interp(-c, bx - by, bx) - np.maximum(-c, 0.0), 0.0)


def _critical_diagonals(profile: StableProfile, *curves) -> np.ndarray:
    """Sorted diagonals y - x where the chord maps of the curves may kink.

    They pass through the curves' boundary vertices, plus 0 (where chord
    heads switch axes) and phi's two ends, clipped to phi's span
    [-phi_width, phi_top].
    """
    lo, hi = -profile.phi_width, profile.phi_top
    cs = [(lo, 0.0, hi)] + [b[:, 1] - b[:, 0] for b in map(_boundary, curves)]
    return np.unique(np.clip(np.concatenate(cs), lo, hi))


def profile_depth(profile: StableProfile) -> float:
    """Largest diagonal slack between the outer and inner hypographs."""
    if not profile.phi:
        raise ValueError("depth of a straight profile is not defined")
    # the slack is piecewise linear in the diagonal, with kinks only on
    # diagonals through boundary vertices of either curve
    cs = _critical_diagonals(profile, profile.psi, profile.phi)
    return float(np.max(_diag_chord(profile.psi, cs)
                        - _diag_chord(profile.phi, cs)))


def profile_domain(profile: StableProfile) -> list[tuple[float, float]]:
    """Polygon bounding the scaled regions: axes, ramps and the tail curve."""
    if not profile.phi:
        raise ValueError("straight profiles bound a degenerate (pinned) domain")
    cs = _critical_diagonals(profile, profile.phi)
    t = _diag_chord(profile.phi, cs) + profile_depth(profile)
    tail = np.column_stack([np.maximum(-cs, 0.0) + t, np.maximum(cs, 0.0) + t])
    pts = [(0.0, 0.0), (profile.phi_width, 0.0), *map(tuple, tail.tolist()),
           (0.0, profile.phi_top)]
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
    psi_x, psi_y = _boundary(profile.psi).T  # lookups past the end give 0
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
    rho: Callable

    @property
    def bbox(self) -> float:
        arr = np.array(self.polygon)
        return float(max(arr[:, 0].max(), arr[:, 1].max()))


def build_functional(profile: StableProfile, eps: float = DEFAULT_EPS) -> Functional:
    """Entropy-plus-hook-weight functional of a profile pair with inner part."""
    check_eps(eps)
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
    return Functional(poly, _gamma_factory(1.0), lambda x, y: np.zeros_like(x))


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
    steps: int  # barrier Newton steps
    phase1_steps: int  # Newton steps to a strictly feasible start
    start_mu: float  # barrier weight of the first Newton step
    blend: float  # theta of the Newton start, 0.0 when phase I did not run
    mu: float  # final barrier weight
    gap: float  # certified optimality gap of the level's heights
    psi: float
    seconds: float
    converged: bool  # gap within tol / 100


class MeshProfile:
    """Triangulated height profile over a polygon.

    Nodes sit on a square grid of pitch ell; cells split along the main
    diagonal into an 'up' triangle (v, v+ex, v+ex+ey) and a 'down' one
    (v, v+ey, v+ex+ey).  Boundary and exterior nodes are pinned to gamma.
    """

    __slots__ = ("xy", "ij", "tris", "up", "cent", "free", "f", "ell",
                 "psi_value", "kkt_residual", "sweeps", "refine_gap", "gap",
                 "levels")

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
        self.refine_gap = math.nan
        self.gap = math.inf
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
# barrier Newton solver


def evaluate_psi(mesh: MeshProfile, functional: Functional) -> float:
    """Functional value of the mesh heights (slopes clipped to the triangle)."""
    s, t = (np.clip(v, 0.0, 1.0) for v in mesh.slopes())
    u = np.clip(1.0 - s - t, 0.0, 1.0)
    vals = (lobachevsky(s * _PI) + lobachevsky(t * _PI)
            + lobachevsky(u * _PI)) / _PI + functional.rho(*mesh.cent.T) * u
    return float(vals.sum() * 0.5 * mesh.ell ** 2)


class _Barrier:
    """The log-barrier problem of one mesh level, over its moving slopes.

    Each mesh edge carries one slope of every triangle it bounds: triangle
    (v0, v1, v2) has (f1 - f0) / ell and (f2 - f1) / ell, its s and t in
    some order, and u = (f0 - f2 + ell) / ell.  An edge in c triangles adds
    phi(z) = A [c L(pi z) / pi + r z] + mu A c [log z + log(1 - z)], where
    A = ell^2 / 2 and r is the sum of rho over its triangles on a u edge, 0
    elsewhere.  Only edges with a free end move; minus the Hessian is the
    Laplacian `lap` of those edges.
    """

    def __init__(self, mesh: MeshProfile, functional: Functional):
        n, ell = len(mesh.xy), mesh.ell
        t0, t1, t2 = mesh.tris.T
        # edge key 3 lo + kind: horizontal 0, vertical 1, diagonal 2
        count = np.zeros(3 * n)
        hi = np.zeros(3 * n, dtype=np.int64)
        for lo, top, kind in ((t0, t1, ~mesh.up), (t1, t2, mesh.up),
                              (t0, t2, 2)):
            key = 3 * lo + kind
            count += np.bincount(key, minlength=3 * n)
            hi[key] = top
        r = np.bincount(3 * t0 + 2, functional.rho(*mesh.cent.T), 3 * n)
        key = np.flatnonzero(count)
        key = key[mesh.free[key // 3] | mesh.free[hi[key]]]  # the moving edges
        lo, top, u = key // 3, hi[key], key % 3 == 2
        # s and t are (f[top] - f[lo]) / ell, u is (f[lo] - f[top] + ell) / ell
        a, b = np.where(u, lo, top), np.where(u, top, lo)
        self.lap = EdgeLaplacian(mesh, a, b)
        self.free, self.nf = self.lap.free, self.lap.nf
        self.c, self.r = count[key], r[key]
        self.area = 0.5 * ell * ell
        pinned = np.where(mesh.free, 0.0, mesh.f)
        self.base = u + (pinned[a] - pinned[b]) / ell

    def slopes(self, x: np.ndarray) -> np.ndarray:
        return self.base + self.lap.diff(x)

    # -- the barrier problem at weight mu

    def value(self, z, mu) -> float:
        bar = np.log(z) + np.log1p(-z)
        return self.area * float(
            (self.c * (lobachevsky(_PI * z) / _PI + mu * bar)
             + self.r * z).sum())

    def gradient(self, z, mu) -> np.ndarray:
        """Gradient in the free heights at slopes z, with g'(z) = -log(2 sin pi z)."""
        zc = 1.0 - z
        return self.lap.scatter(self.area * (
            self.c * (mu * (1.0 / z - 1.0 / zc)
                      - np.log(2.0 * np.sin(_PI * np.minimum(z, zc))))
            + self.r))

    def newton(self, z, mu):
        """Newton step at slopes z: (step, its slope changes, -phi'', lambda^2).

        -phi''(z) = A c (pi cot(pi z) + mu / z^2 + mu / (1 - z)^2).
        """
        zc = 1.0 - z
        cot = np.copysign(_PI / np.tan(_PI * np.minimum(z, zc)), zc - z)
        curv = self.area * self.c * (cot + mu / (z * z) + mu / (zc * zc))
        grad = self.gradient(z, mu)
        step = self.lap.solve(curv, grad[:, None])[:, 0]
        return step, self.lap.diff(step), curv, float(grad @ step)

    def gap(self, z, dz, curv, mu) -> float:
        """Certified bound on how far the heights' value is from the maximum.

        With D = mu A c (1 / z - 1 / (1 - z)) - curv dz, the Newton equation
        says the Lagrangian F + sum D z is stationary at the heights.  Weak
        duality then bounds the gap by sum max(D, 0) z + max(-D, 0) (1 - z),
        for any strictly feasible heights.
        """
        d = mu * self.area * self.c * (1.0 / z - 1.0 / (1.0 - z)) - curv * dz
        return float(np.where(d > 0.0, d * z, -d * (1.0 - z)).sum())

    def certify(self, x, mu) -> float:
        """Certified gap of free heights x from one Newton step at mu; inf
        unless every moving slope lies in (0, 1)."""
        z = self.slopes(x)
        if not _open(z):
            return math.inf
        _, dz, curv, _ = self.newton(z, mu)
        return self.gap(z, dz, curv, mu)

    # -- phase I: a strictly feasible start

    def phase1(self, x: np.ndarray) -> int:
        """Move free heights x, in place, to strictly feasible ones.

        Runs unless every moving slope lies in [_INSIDE, 1 - _INSIDE]: damped
        Newton steps on tau t + sum log(z - t) + log(1 - z - t) over (x, t),
        from t below every slope's slack, up to the first step that leaves
        every moving slope in (0, 1); tau grows a hundredfold at each
        centre.  The t border is eliminated by a Schur complement: one solve
        with two right-hand sides.  Returns the steps.  Raises ValueError
        that there is no strictly feasible point when a step is singular or
        not finite, after _MAX_STEPS, or when a centre (lambda^2 <= 1/4)
        bounds the best t by t + 2 m / tau, over m = 2 len(z) log terms,
        below 0, or 2 m / tau falls below the slopes' rounding: any interior
        left is thinner than that, as when the boundary heights pin every
        slope at 0 or 1.
        """
        z = self.slopes(x)
        t = min(float(z.min(initial=1.0)), 1.0 - float(z.max(initial=0.0)))
        if t >= _INSIDE:
            return 0
        t -= _INSIDE
        tau = 10.0 * len(z)
        for steps in range(1, _MAX_STEPS + 1):
            a, b = 1.0 / (z - t), 1.0 / (1.0 - z - t)
            g = self.lap.scatter(a - b)
            gt = tau - float(a.sum() + b.sum())
            cvec = self.lap.scatter(a * a - b * b)
            w = a * a + b * b
            try:
                sol = self.lap.solve(w, np.column_stack([g, cvec]))
            except np.linalg.LinAlgError:
                break
            dt = (gt + cvec @ sol[:, 0]) / (float(w.sum()) - cvec @ sol[:, 1])
            step = sol[:, 0] + dt * sol[:, 1]
            lam2 = float(g @ step) + gt * dt
            bound = 4.0 * len(z) / tau
            if not math.isfinite(lam2) or (lam2 <= 0.25 and (
                    t + bound < 0.0 or bound < _EPS * float(np.abs(z).max()))):
                break
            dz = self.lap.diff(step)

            def value(al):
                tt = t + al * dt
                return tau * tt + float(np.log(z + al * dz - tt).sum()
                                        + np.log(1.0 - z - al * dz - tt).sum())

            alpha, _ = _armijo(value, value(0.0), lam2, min(1.0, 0.99 * _room(
                (z - t, dz - dt), (1.0 - z - t, -dz - dt))))
            x += alpha * step
            t += alpha * dt
            z = self.slopes(x)
            if _open(z):
                return steps
            if lam2 <= 0.25:
                tau *= 100.0
        raise ValueError("the boundary heights leave no strictly feasible "
                         "interior: no heights have every slope in (0, 1)")


def _open(z) -> bool:
    return bool(((z > 0.0) & (z < 1.0)).all())


def _room(*pairs) -> float:
    """Largest step keeping every slack + step * rate >= 0, over (slack, rate)."""
    out = math.inf
    for slack, rate in pairs:
        fall = rate < 0.0
        if fall.any():
            out = min(out, float((slack[fall] / -rate[fall]).min()))
    return out


def _armijo(value: Callable, start: float, slope: float,
            alpha: float) -> tuple[float, float]:
    """Halve alpha until value(alpha) gains 0.01 alpha slope; (alpha, value)."""
    while True:
        got = value(alpha)
        if got >= start + 0.01 * alpha * slope or alpha < 1e-12:
            return alpha, got
        alpha *= 0.5


def _blend(prob: _Barrier, x0: np.ndarray, x1: np.ndarray, mu: float) -> float:
    """The theta in {1, 0.1, ..., 1e-8} whose heights x0 + theta (x1 - x0)
    are strictly feasible with the largest barrier value at mu.

    Ties, and a segment with no other strictly feasible candidate, keep
    theta = 1: phase I's point x1 itself.
    """
    z0, dz = prob.slopes(x0), prob.lap.diff(x1 - x0)
    best, theta = -math.inf, 1.0
    for th in (10.0 ** -k for k in range(9)):
        z = z0 + th * dz
        if _open(z) and (v := prob.value(z, mu)) > best:
            best, theta = v, th
    return theta


def _solve_level(mesh: MeshProfile, functional: Functional, mu: float,
                 target: float) -> tuple:
    """Phase I, then barrier Newton steps from weight mu to the target gap.

    When phase I has to move the start x0 to a strictly feasible x1,
    Newton begins at x0 + theta (x1 - x0) for the theta of `_blend`.  An
    interpolated start has only a few slopes at 0 or 1; phase I stops at
    its first strictly feasible point, and a small theta can keep even
    less of its move, leaving the rest near where the coarse solve put
    them.

    Steps are Armijo-damped while lambda^2 > mu A / 4 and pure Newton
    below, always capped at 0.99 of the way to the slope boundary; mu falls
    tenfold once lambda^2 <= mu A / 100, down to _MU_MIN.  The solve stops
    at the first heights whose certified gap is at most target, or centred
    at _MU_MIN, or after _MAX_STEPS steps; it moves mesh.f there and
    returns (Newton steps, phase-I steps, theta or 0.0 without phase I,
    final mu, gap, largest node move of the last Newton step).
    """
    prob = _Barrier(mesh, functional)
    x = mesh.f[prob.free]
    x0 = x.copy()
    phase1 = prob.phase1(x)
    blend = 0.0
    if phase1:
        blend = _blend(prob, x0, x, mu)
        if blend < 1.0:
            x = x0 + blend * (x - x0)
    z = prob.slopes(x)
    steps, gap, step = 0, math.inf, x[:0]
    known = None  # (mu, value) at x after a damped step
    while _open(z):
        step, dz, curv, lam2 = prob.newton(z, mu)
        gap = prob.gap(z, dz, curv, mu)
        scale = mu * prob.area
        centred = lam2 <= 0.01 * scale
        if (gap <= target or steps == _MAX_STEPS
                or (centred and 0.1 * mu < _MU_MIN)):
            break
        alpha = min(1.0, 0.99 * _room((z, dz), (1.0 - z, -dz)))
        if lam2 > 0.25 * scale:
            if known is None or known[0] != mu:
                known = (mu, prob.value(z, mu))
            alpha, reached = _armijo(lambda al: prob.value(z + al * dz, mu),
                                     known[1], lam2, alpha)
            known = (mu, reached)
        else:
            known = None
        x += alpha * step
        z = prob.slopes(x)
        steps += 1
        if centred:
            mu *= 0.1
    mesh.f[prob.free] = x
    return (steps, phase1, blend, mu, gap,
            float(np.abs(step).max(initial=0.0)))


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


def _levels(mesh_n: int) -> list[int]:
    """The mesh levels `maximize` solves, coarse to fine.

    From mesh_n = 16 up: mesh_n / 8, mesh_n / 2 and mesh_n, at least 8
    and 12; below 16, mesh_n alone.
    """
    if mesh_n < 16:
        return [mesh_n]
    return [max(8, mesh_n // 8), max(12, mesh_n // 2), mesh_n]


def maximize(functional: Functional, tol: float = DEFAULT_TOL,
             mesh_n: int = DEFAULT_MESH) -> MeshProfile:
    """Maximize the functional over mesh height profiles pinned to gamma.

    The mesh pitch is bbox / mesh_n.  From mesh_n = 16 up the solve runs
    coarse to fine over three levels (`_levels`), mesh_n / 8, mesh_n / 2
    and mesh_n (at least 8 and 12), each started from the last; below 16
    it is one level started from gamma.  The cold first level takes most
    of the damped Newton steps, and the warm middle level needs about as
    many steps from mesh_n / 8 as from mesh_n / 4, so the cold steps run
    on the coarser mesh.  Each level is a barrier Newton solve
    (`_solve_level`): the coarsest starts at mu = 1e-2, each finer one
    from the interpolated heights at the last level's final mu, and every
    level stops at a certified optimality gap of at most tol / 100.  The
    discrete functional is strictly concave in the free heights, so its
    maximizer is unique.  The returned mesh carries the value, the
    certified gap, the largest node move of the last Newton step
    (`kkt_residual`), its Newton steps (`sweeps`), the refinement gap
    between the last two levels and, in `levels`, one LevelTrace per mesh
    level.  Raises ValueError when the boundary heights leave no strictly
    feasible interior (`_Barrier.phase1`).
    """
    mesh_n = _check_solve(tol, mesh_n)
    mesh: MeshProfile | None = None
    psi = math.nan
    trace = []
    mu = 1e-2
    for n in _levels(mesh_n):
        start = time.perf_counter()
        fine = _build_mesh(functional.polygon, functional.bbox / n,
                           functional.gamma)
        if mesh is not None:
            _interp_init(mesh, fine)
        mesh = fine
        start_mu = mu
        steps, phase1, blend, mu, gap, move = _solve_level(
            mesh, functional, mu, tol / 100.0)
        mesh.psi_value = evaluate_psi(mesh, functional)
        mesh.refine_gap = abs(mesh.psi_value - psi)
        psi = mesh.psi_value
        mesh.gap, mesh.kkt_residual, mesh.sweeps = gap, move, steps
        trace.append(LevelTrace(int(mesh.free.sum()), steps, phase1,
                                start_mu, blend, mu, gap, psi,
                                time.perf_counter() - start,
                                gap <= tol / 100.0))
    mesh.levels = trace
    return mesh


# ---------------------------------------------------------------------------
# the constant


def _anti_ulogu(u: float) -> float:
    """H(u) = u^2 (log u - 3/2) / 2, an antiderivative of u (log u - 1).

    So H'' = log; H(u) = 0 for u <= 0.
    """
    return 0.5 * u * u * (math.log(u) - 1.5) if u >= 1e-300 else 0.0


def k_psi(profile: StableProfile) -> float:
    """Integral of log hbar over the full hypograph of psi, in closed form.

    Walk psi's boundary chain by tau = x - y.  The hypograph point
    (x(s), y(t)) with s < t has hook t - s and area element
    x'(s) |y'(t)| ds dt (Logan and Shepp, Adv. Math. 26, 1977).  On chain
    segment i = [a, b] the rates p_i = dx/dtau and q_i = -dy/dtau are
    constant, so with j = [c, d] and H'' = log,
    k = sum_{i <= j} p_i q_j [H(d - a) - H(c - a) - H(d - b) + H(c - b)].
    """
    pts = _boundary(profile.psi).tolist()
    segs = []  # (a, b, p, q) per segment of positive length
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        a, b = x0 - y0, x1 - y1
        if b > a:
            segs.append((a, b, (x1 - x0) / (b - a), (y0 - y1) / (b - a)))
    h = _anti_ulogu
    return sum(p * q * (h(d - a) - h(c - a) - h(d - b) + h(c - b))
               for i, (a, b, p, _) in enumerate(segs)
               for c, d, _, q in segs[i:])


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
    check_eps(eps)
    _check_solve(tol, mesh_n)
    k = k_psi(profile)
    if not profile.phi:
        return ConstantResult(-1.0 - k, 0.0, k, budget={"optimizer": 0.0})
    functional = build_functional(profile, eps)
    mesh = maximize(functional, tol=tol, mesh_n=mesh_n)
    psi = mesh.psi_value
    budget = {
        "optimizer": mesh.gap,
        "refinement": mesh.refine_gap,
        "cap": eps * eps * (1.0 - math.log(eps)),
    }
    return ConstantResult(psi - k - 1.0, psi, k, budget=budget, mesh=mesh)

