import math
import random
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from skewtab import (
    StableProfile,
    build_functional,
    constant,
    finite_n_constant,
    hbar,
    k_psi,
    maximize,
    profile_depth,
    profile_domain,
    square_profile,
    thick_hook_profile,
    thick_hook_shape_of_size,
    thick_ribbon_profile,
    unit_hexagon_functional,
)
from skewtab import varsolve
from skewtab.laplacian import EdgeLaplacian
from skewtab.varsolve import (
    DEFAULT_TOL,
    Functional,
    MeshProfile,
    _Barrier,
    _armijo,
    _build_mesh,
    _diag_chord,
    _grid_triangles,
    _interp_init,
    _levels,
    _solve_level,
    evaluate_psi,
)

from _naive import (
    diag_chord_reference,
    grid_triangles_reference,
    interp_init_reference,
    k_psi_reference,
    node_derivative,
    profile_depth_reference,
    profile_domain_reference,
    ribbon_floor,
)


HEX_PSI = 4.5 * math.log(3.0) - 6.0 * math.log(2.0)
THICK_C = 3.5 * math.log(3.0) - (22.0 / 3.0) * math.log(2.0) + 0.5
K_THICK = 4.0 * math.log(2.0) - (2.0 / 3.0) * math.log(3.0) - 2.0
RIBBON_A = 2.0 / math.sqrt(1.5)
K_RIBBON = (RIBBON_A ** 2 / 2.0) * math.log(2.0 * RIBBON_A) \
    - 0.75 * RIBBON_A ** 2
K_SQUARE = 2.0 * math.log(2.0) - 1.5


def test_domain_polygon_thick_hook():
    r = 1.0 / math.sqrt(3.0)
    poly = profile_domain(thick_hook_profile(1.0, 1.0))
    assert np.allclose(poly, [(0, 0), (r, 0), (2 * r, r), (2 * r, 2 * r),
                              (r, 2 * r), (0, r)], atol=1e-12)
    assert abs(profile_depth(thick_hook_profile(1.0, 1.0)) - r) < 1e-12


def test_domain_polygon_ribbon():
    a = RIBBON_A
    poly = profile_domain(thick_ribbon_profile())
    expect = [(0, 0), (a / 2, 0), (3 * a / 4, a / 4), (a / 2, a / 2),
              (a / 4, 3 * a / 4), (0, a / 2)]
    assert np.allclose(poly, expect, atol=1e-12)
    assert abs(profile_depth(thick_ribbon_profile()) - a / 4) < 1e-12


def test_domain_requires_inner_part():
    with pytest.raises(ValueError):
        profile_domain(square_profile())
    with pytest.raises(ValueError):
        build_functional(square_profile())


def test_hbar_closed_forms():
    rng = np.random.default_rng(3)
    s = 1.0 / math.sqrt(3.0)
    hb = hbar(thick_hook_profile(1.0, 1.0))
    for _ in range(50):
        p = rng.uniform(0, 2 * s)
        q = rng.uniform(0, 2 * s)
        assert abs(hb(p, q) - (4 * s - p - q)) < 1e-12
    hb2 = hbar(thick_ribbon_profile())
    for _ in range(50):
        p = rng.uniform(0, RIBBON_A)
        q = rng.uniform(0, RIBBON_A - p)
        assert abs(hb2(p, q) - 2 * (RIBBON_A - p - q)) < 1e-12


def test_k_psi_closed_forms():
    assert abs(k_psi(thick_hook_profile(1.0, 1.0)) - K_THICK) < 1e-9
    assert abs(k_psi(thick_ribbon_profile()) - K_RIBBON) < 1e-9
    assert abs(k_psi(square_profile()) - K_SQUARE) < 1e-9


def _mp_rectangle_k(w, h) -> float:
    """int_0^w int_0^h log(x + y) dy dx = H(w + h) - H(w) - H(h), where
    H(u) = u^2 (log u - 3/2) / 2, at 30 digits and rounded once."""
    def anti(u):
        return u * u * (mpmath.log(u) - 1.5) / 2

    with mpmath.workdps(30):
        w, h = mpmath.mpf(w), mpmath.mpf(h)
        return float(anti(w + h) - anti(w) - anti(h))


GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta", GRID)
def test_k_psi_on_rectangles(alpha, beta):
    # a rectangle minus any phi: k is the rectangle's closed form, read at
    # the corner (w, h) of the profile's own psi
    k = k_psi(thick_hook_profile(alpha, beta))
    w, h = thick_hook_profile(alpha, beta).psi[-1]
    assert type(k) is float
    assert abs(k - _mp_rectangle_k(w, h)) <= 1e-15
    assert abs(k - k_psi(thick_hook_profile(beta, alpha))) <= 1e-15


def test_k_psi_on_the_ribbon_and_the_square():
    # the ribbon's psi is one slope -1 segment from (0, a) to (a, 0): with
    # both chain rates 1/2 over tau in [-a, a], k = H(2a) / 4
    a = thick_ribbon_profile().psi[0][1]
    with mpmath.workdps(30):
        a = mpmath.mpf(a)
        ribbon = float(a * a * (mpmath.log(2 * a) - 1.5) / 2)
    assert abs(k_psi(thick_ribbon_profile()) - ribbon) <= 1e-15
    w, h = square_profile().psi[-1]
    assert abs(k_psi(square_profile()) - _mp_rectangle_k(w, h)) <= 1e-15


def _random_psi(rng: random.Random) -> StableProfile:
    """A nonincreasing piecewise linear psi with slopes, flats and drops."""
    while True:
        x, y = 0.0, rng.uniform(0.5, 3.0)
        pts = [(x, y)]
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.25:  # vertical drop
                y = rng.uniform(0.0, y)
            elif kind < 0.5:  # flat
                x += rng.uniform(0.1, 1.5)
            else:
                x += rng.uniform(0.1, 1.5)
                y = rng.uniform(0.0, y)
            pts.append((x, y))
        if rng.random() < 0.4:
            pts.append((x + rng.uniform(0.1, 1.0), 0.0))
        flats = any(b[1] == a[1] and b[0] > a[0] for a, b in zip(pts, pts[1:]))
        drops = any(b[0] == a[0] for a, b in zip(pts, pts[1:]))
        if x > 0.0 and (flats or drops):
            return StableProfile(pts)


def _random_curve(rng: random.Random, y: float, q: int) -> list:
    """Nonincreasing breakpoints from (0, y) with slopes, flats and drops.

    About half the new coordinates snap to the 1/q grid, so diagonals
    through breakpoints of two curves often coincide; some curves end in
    a run of zeros.
    """
    def draw(lo, hi):
        v = rng.uniform(lo, hi)
        return round(v * q) / q if rng.random() < 0.5 else v

    x, pts = 0.0, [(0.0, y)]
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()  # < 0.25 a drop, < 0.5 a flat, else a slope
        if kind >= 0.25:
            x += draw(0.1, 1.5)
        if kind < 0.25 or kind >= 0.5:
            y = min(draw(0.0, y), y)  # snapping may round up
        pts.append((x, y))
    if rng.random() < 0.3:
        pts += [(x + draw(0.1, 1.0), 0.0), (x + draw(1.0, 2.0), 0.0)]
    return pts


def _random_profile(rng: random.Random) -> StableProfile:
    """A random (psi, phi) pair with a nonempty phi below psi."""
    q = rng.choice([2, 3, 4, 6])
    while True:
        k = rng.randint(q, 3 * q)
        psi = _random_curve(rng, k / q, q)
        phi = _random_curve(rng, rng.randint(1, k - 1) / q, q)
        try:
            profile = StableProfile(psi, phi)
        except ValueError:  # phi crosses psi, or encloses nothing
            continue
        if profile.phi:
            return profile


def test_geometry_matches_reference():
    named = [thick_hook_profile(a, b) for a, b in
             [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]] + [thick_ribbon_profile()]
    for profile in named:
        assert profile_depth(profile) == profile_depth_reference(profile)
        assert profile_domain(profile) == profile_domain_reference(profile)
    rng = random.Random(20)
    for _ in range(250):
        profile = _random_profile(rng)
        assert profile.phi_width == profile.phi[-1][0]
        assert abs(profile_depth(profile)
                   - profile_depth_reference(profile)) <= 1e-12
        poly, ref = profile_domain(profile), profile_domain_reference(profile)
        assert len(poly) == len(ref), profile
        assert np.abs(np.subtract(poly, ref)).max() <= 1e-12, profile
        cs = np.linspace(-profile.width - 0.5, profile.height + 0.5, 41)
        for curve in (profile.psi, profile.phi):
            ref = [diag_chord_reference(curve, c) for c in cs]
            assert np.abs(_diag_chord(curve, cs) - ref).max() <= 1e-12


def test_k_psi_matches_quadrature():
    profiles = [thick_hook_profile(a, b) for a, b in
                [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.1, 3.0), (3.0, 3.0)]]
    profiles += [thick_ribbon_profile(), square_profile()]
    # a short slope or flat: a chain segment whose ends nearly coincide
    profiles += [StableProfile([(0, 2), (1, 1), (1.001, y), (2, 0)])
                 for y in (1 - 0.001 / 3, 1)]
    rng = random.Random(15)
    profiles += [_random_psi(rng) for _ in range(40)]
    for profile in profiles:
        assert abs(k_psi(profile) - k_psi_reference(profile)) <= 1e-12, \
            profile.psi


def test_ribbon_floor_matches_quadrature():
    from scipy import integrate

    a = math.sqrt(2.0 / 3.0)
    quad, _ = integrate.quad(lambda r: r * math.log(2.0 * (2.0 * a - r)),
                             a, 2.0 * a, epsabs=1e-14, epsrel=1e-14)
    assert abs(ribbon_floor() - (-1.0 - quad)) <= 1e-12
    assert abs(ribbon_floor() - -0.32374795983919635) <= 1e-15


def test_ribbon_band_starts_at_the_floor(capsys, monkeypatch):
    # c08's band and repro's quote the floor to 4 decimals
    from types import SimpleNamespace

    from skewtab import cli
    from test_acceptance import RIBBON_BAND

    assert RIBBON_BAND[0] == round(ribbon_floor(), 4)
    monkeypatch.setattr(cli, "constant",
                        lambda *a, **k: SimpleNamespace(value=-0.2))
    monkeypatch.setattr(cli, "finite_n_constant",
                        lambda family, sizes: [-0.2] * len(sizes))
    assert cli.main(["--no-manifest", "repro", "--target", "ribbon"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        lo = float(line.split("band [")[1].split(",")[0])
        assert lo == round(ribbon_floor(), 4), line


def test_mesh_build_hexagon():
    F = unit_hexagon_functional()
    mesh = _build_mesh(F.polygon, F.bbox / 12, F.gamma)
    assert isinstance(mesh, MeshProfile)
    assert mesh.free.sum() > 0
    # pinned nodes carry exactly the boundary data
    fixed = ~mesh.free
    g = F.gamma(mesh.xy[fixed, 0], mesh.xy[fixed, 1])
    assert np.allclose(mesh.f[fixed], g)
    # triangle slopes of the boundary data stay inside the slope triangle
    s, t = mesh.slopes()
    assert (s > -1e-9).all() and (t > -1e-9).all()
    assert (s + t < 1 + 1e-9).all()


def test_interp_preserves_coarse_nodes():
    F = unit_hexagon_functional()
    coarse = _build_mesh(F.polygon, F.bbox / 8, F.gamma)
    coarse.f[coarse.free] += 0.01  # make it distinguishable from gamma
    fine = _build_mesh(F.polygon, F.bbox / 16, F.gamma)
    _interp_init(coarse, fine)
    table = {(i, j): v for (i, j), v in zip(coarse.ij, coarse.f)}
    hits = 0
    for (i, j), v, free in zip(fine.ij, fine.f, fine.free):
        if free and i % 2 == 0 and j % 2 == 0 and (i // 2, j // 2) in table:
            assert abs(v - table[(i // 2, j // 2)]) < 1e-12
            hits += 1
    assert hits > 5


@pytest.mark.parametrize("functional", [
    unit_hexagon_functional(), build_functional(thick_hook_profile(1.0, 1.0)),
    build_functional(thick_ribbon_profile())],
    ids=["hexagon", "thick-hook", "ribbon"])
def test_interp_init_matches_loop(functional):
    rng = np.random.default_rng(7)
    # nested pairs of the mesh 64 solve, and the unnested 8 -> 12 of mesh 24
    for n_coarse, n_fine in [(16, 32), (32, 64), (8, 12)]:
        coarse = _build_mesh(functional.polygon, functional.bbox / n_coarse,
                             functional.gamma)
        coarse.f[coarse.free] += rng.uniform(-0.05, 0.05, coarse.free.sum())
        got = _build_mesh(functional.polygon, functional.bbox / n_fine,
                          functional.gamma)
        want = _build_mesh(functional.polygon, functional.bbox / n_fine,
                           functional.gamma)
        _interp_init(coarse, got)
        interp_init_reference(coarse, want)
        assert np.array_equal(got.f, want.f), (n_coarse, n_fine)
        gamma = functional.gamma(got.xy[:, 0], got.xy[:, 1])
        assert (got.f != gamma).sum() > 0.5 * got.free.sum()


def test_solver_small_hexagon_converges():
    mesh = maximize(unit_hexagon_functional(), mesh_n=16, tol=1e-3)
    assert mesh.levels[-1].converged
    assert mesh.kkt_residual <= 1e-3
    assert abs(mesh.psi_value - HEX_PSI) < 0.05


def test_grid_triangles_match_loop():
    for nx, ny in [(1, 1), (3, 5), (5, 3), (12, 12), (16, 16), (64, 64)]:
        tris, up = _grid_triangles(nx, ny)
        want_tris, want_up = grid_triangles_reference(nx, ny)
        assert tris.dtype == want_tris.dtype and up.dtype == want_up.dtype
        assert np.array_equal(tris, want_tris) and np.array_equal(up, want_up)


def test_maximize_rejects_bad_mesh_and_tol():
    F = unit_hexagon_functional()
    for mesh_n in (0, -4, 16.5, True, "16"):
        with pytest.raises(ValueError, match="mesh_n"):
            maximize(F, mesh_n=mesh_n)
    for tol in (0.0, -1e-4, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol"):
            maximize(F, tol=tol)
    for profile in (thick_hook_profile(1.0, 1.0), square_profile()):
        with pytest.raises(ValueError, match="mesh_n"):
            constant(profile, mesh_n=-4)
        with pytest.raises(ValueError, match="tol"):
            constant(profile, tol=0.0)
    assert maximize(F, mesh_n=np.int64(4), tol=1e-3).levels[-1].converged


def test_constant_square_closed_form():
    res = constant(square_profile())
    assert abs(res.value - (0.5 - 2.0 * math.log(2.0))) < 1e-9
    assert res.psi_max == 0.0
    assert float(res) == res.value


def test_constant_small_mesh_thick_hook():
    res = constant(thick_hook_profile(1.0, 1.0), mesh_n=24, tol=5e-4)
    assert abs(res.value - THICK_C) < 3e-2
    assert set(res.budget) == {"optimizer", "refinement", "cap"}
    assert res.budget["optimizer"] <= 5e-4 + 1e-12


def test_finite_n_constant_values():
    ns = [12, 27]
    vals = finite_n_constant(thick_hook_shape_of_size, ns)
    from skewtab import count_determinant

    for n, v in zip(ns, vals):
        f = count_determinant(thick_hook_shape_of_size(n))
        assert abs(v - (math.log(f) - 0.5 * n * math.log(n)) / n) < 1e-12
    with pytest.raises(ValueError):
        finite_n_constant(thick_hook_shape_of_size, [0])


@pytest.mark.parametrize("size", [12.7, True, "12"])
def test_finite_n_constant_takes_integer_sizes(size):
    with pytest.raises(ValueError, match="size must be an integer"):
        finite_n_constant(thick_hook_shape_of_size, [size])


def test_eps_validation():
    with pytest.raises(ValueError):
        build_functional(thick_hook_profile(1.0, 1.0), eps=0.0)
    with pytest.raises(ValueError):
        build_functional(thick_hook_profile(1.0, 1.0), eps=1.5)


def test_evaluate_psi_on_flat_data():
    # all-gamma heights on the hexagon give a value below the optimum
    F = unit_hexagon_functional()
    mesh = _build_mesh(F.polygon, F.bbox / 16, F.gamma)
    base = evaluate_psi(mesh, F)
    solved = maximize(F, mesh_n=16, tol=1e-3)
    assert solved.psi_value > base


MESH16_PROBLEMS = pytest.mark.parametrize("functional", [
    unit_hexagon_functional(), build_functional(thick_hook_profile(1.0, 1.0))],
    ids=["hexagon", "thick-hook"])


PROBLEMS = {
    "hexagon": unit_hexagon_functional,
    "thick-hook": lambda: build_functional(thick_hook_profile(1.0, 1.0)),
    "ribbon": lambda: build_functional(thick_ribbon_profile()),
}
TARGET = DEFAULT_TOL / 100  # the certified gap a default solve stops at

# coordinate ascent at tol = 1e-6, the solver the barrier method replaced
ASCENT_1E6 = {
    ("hexagon", 16): float.fromhex("0x1.7f201ce83d856p-1"),
    ("hexagon", 32): float.fromhex("0x1.8b92e91294f24p-1"),
    ("hexagon", 64): float.fromhex("0x1.8fc6ca99ca0e2p-1"),
    ("thick-hook", 16): float.fromhex("0x1.2947405a64cafp-2"),
    ("thick-hook", 32): float.fromhex("0x1.316d6ea3f3db9p-2"),
    ("thick-hook", 64): float.fromhex("0x1.343e95aa0648ep-2"),
    ("ribbon", 16): float.fromhex("0x1.a06e23f7fd460p-2"),
    ("ribbon", 32): float.fromhex("0x1.97d3bc91cd497p-2"),
    ("ribbon", 64): float.fromhex("0x1.98c212d3ce3d7p-2"),
}
# and its value at the default tol = 1e-4, mesh 64
ASCENT_DEFAULT_64 = {"hexagon": 0.7808122666355013,
                     "thick-hook": 0.3010175864211278,
                     "ribbon": 0.39917491395066124}


@lru_cache(maxsize=None)
def _solved(name: str, mesh_n: int):
    """A default solve, shared by the tests below; do not modify it."""
    functional = PROBLEMS[name]()
    return functional, maximize(functional, mesh_n=mesh_n)


def _psi_at(functional, mesh_n: int, x) -> float:
    mesh = _build_mesh(functional.polygon, functional.bbox / mesh_n,
                       functional.gamma)
    mesh.f[mesh.free] = x
    return evaluate_psi(mesh, functional)


def _phase_one_point(functional, mesh_n: int):
    """Free heights that phase I reaches from gamma."""
    mesh = _build_mesh(functional.polygon, functional.bbox / mesh_n,
                       functional.gamma)
    prob = _Barrier(mesh, functional)
    x = mesh.f[prob.free]
    assert prob.phase1(x) > 0
    return prob, x


@pytest.mark.parametrize("mesh_n", [16, 32, 64])
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_value_within_gap_of_coordinate_ascent(name, mesh_n):
    _, mesh = _solved(name, mesh_n)
    assert mesh.levels[-1].converged and mesh.gap <= TARGET
    assert abs(mesh.psi_value - ASCENT_1E6[name, mesh_n]) <= mesh.gap
    if mesh_n == 64:
        assert mesh.psi_value >= ASCENT_DEFAULT_64[name] - 1e-9


def test_small_thick_hook_is_not_falsely_converged():
    # coordinate ascent stopped here after 3 sweeps at psi = 0.18075 with a
    # residual of 2.3e-7; the maximizer is 0.21423
    mesh = maximize(build_functional(thick_hook_profile(1.0, 1.0)),
                    mesh_n=4, tol=1e-4)
    assert mesh.psi_value >= 0.2142
    assert mesh.levels[-1].converged and mesh.gap <= 1e-6


def test_unreachable_gap_stops_at_the_weight_floor():
    # below mu = 1e-9 the thick hook's frozen slopes (z near mu) lose
    # precision; tol / 100 = 1e-10 is out of reach, so the solve stops
    # centred at the floor with an honest gap instead of spending its steps
    mesh = maximize(build_functional(thick_hook_profile(1.0, 1.0)),
                    mesh_n=32, tol=1e-8)
    assert not mesh.levels[-1].converged and 1e-10 < mesh.gap < 1e-8
    assert all(level.mu >= 1e-9 and level.steps < 100
               for level in mesh.levels)


@pytest.mark.parametrize("mesh_n", [16, 32])
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_certificate_accepts_solver_output(name, mesh_n):
    functional, mesh = _solved(name, mesh_n)
    prob = _Barrier(mesh, functional)
    gap = prob.certify(mesh.f[prob.free], mesh.levels[-1].mu)
    assert gap == pytest.approx(mesh.gap, rel=1e-9)
    assert 0.0 < gap <= TARGET


def _clamp_low(mesh, patch):
    """Heights with the patch lowered to its minimal extension.

    Every slope (f[a] - f[b] + off) / ell of a triangle lies in [0, 1], so
    f[a] >= f[b] - off and f[b] >= f[a] + off - ell; relax until stable.
    """
    f = mesh.f.copy()
    f[patch] = -np.inf
    t0, t1, t2 = mesh.tris.T
    a, b = np.concatenate([t1, t2, t0]), np.concatenate([t0, t1, t2])
    off = np.repeat([0.0, 0.0, mesh.ell], len(t0))
    inside = np.zeros(len(f), dtype=bool)
    inside[patch] = True
    for _ in range(len(patch) + 1):
        before = f.copy()
        np.maximum.at(f, a[inside[a]], (f[b] - off)[inside[a]])
        np.maximum.at(f, b[inside[b]], (f[a] + off - mesh.ell)[inside[b]])
        if np.array_equal(f, before):
            return f
    raise AssertionError("minimal extension did not settle")


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_certificate_is_infinite_on_saturated_slopes(name):
    functional, mesh = _solved(name, 16)
    prob = _Barrier(mesh, functional)
    mu = mesh.levels[-1].mu
    gamma = functional.gamma(mesh.xy[:, 0], mesh.xy[:, 1])
    assert prob.certify(gamma[prob.free], mu) == math.inf
    centre = mesh.xy[mesh.free].mean(axis=0)
    patch = np.flatnonzero(mesh.free & (np.hypot(*(mesh.xy - centre).T)
                                        < 0.15 * functional.bbox))
    assert len(patch) > 5
    clamped = _clamp_low(mesh, patch)
    assert (clamped[patch] < mesh.f[patch]).all()
    assert prob.certify(clamped[prob.free], mu) == math.inf


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_certificate_rejects_a_feasible_non_optimal_point(name):
    functional, mesh = _solved(name, 16)
    prob, inner = _phase_one_point(functional, 16)
    x = 0.9999 * mesh.f[prob.free] + 0.0001 * inner
    lost = mesh.psi_value - _psi_at(functional, 16, x)
    gap = prob.certify(x, mesh.levels[-1].mu)
    assert 0.0 < lost < 1e-4
    # weak duality: the bound covers the loss, and it cannot accept x
    assert gap >= lost and gap > TARGET


PHASE_ONE_CASES = pytest.mark.parametrize("profile,mesh_n", [
    (thick_ribbon_profile(), 24), (thick_ribbon_profile(), 32),
    (thick_ribbon_profile(), 48), (thick_hook_profile(0.1, 3.0), 32)],
    ids=["ribbon-24", "ribbon-32", "ribbon-48", "hook-0.1-3-32"])


@PHASE_ONE_CASES
def test_phase_one_reaches_the_interior(profile, mesh_n):
    # a dense phase I over one ring of nodes around the zero slopes of the
    # interpolated start could not find an interior point on these
    functional = build_functional(profile)
    mesh = maximize(functional, mesh_n=mesh_n)
    assert mesh.levels[-1].converged and mesh.gap <= TARGET
    assert all(level.converged and level.gap <= TARGET
               for level in mesh.levels)
    prob = _Barrier(mesh, functional)
    assert prob.certify(mesh.f[prob.free], mesh.levels[-1].mu) <= TARGET


@PHASE_ONE_CASES
def test_warm_start_beats_the_phase_one_point(profile, mesh_n, monkeypatch):
    # each finer level starts Newton at the coarse mu, from the point of the
    # segment from the interpolated heights to phase I's point with the best
    # barrier value; record every level's mesh and heights as handed over
    functional = build_functional(profile)
    handed = []

    def recording(mesh, functional, mu, target):
        handed.append((mesh, mesh.f.copy(), mu))
        return _solve_level(mesh, functional, mu, target)

    monkeypatch.setattr(varsolve, "_solve_level", recording)
    levels = maximize(functional, mesh_n=mesh_n).levels
    assert len(handed) == len(levels) == 3
    for (mesh, f, mu), coarse, level in zip(handed[1:], levels, levels[1:]):
        assert level.start_mu == mu == coarse.mu
        prob = _Barrier(mesh, functional)
        x0 = f[prob.free]
        x1 = x0.copy()
        assert prob.phase1(x1) == level.phase1_steps > 0
        assert 0.0 < level.blend <= 1.0
        start = x1 if level.blend == 1.0 else x0 + level.blend * (x1 - x0)
        z = prob.slopes(start)
        assert ((z > 0.0) & (z < 1.0)).all()
        assert prob.value(z, mu) >= prob.value(prob.slopes(x1), mu)


@pytest.mark.parametrize("name,budget", [("hexagon", 9), ("thick-hook", 13)])
def test_final_level_newton_budget(name, budget):
    # refinement leaves a few dozen fine slopes at exactly 0; Newton from
    # phase I's point, with every slope moved off its bound, needs 14 and 24
    _, mesh = _solved(name, 64)
    assert mesh.levels[-1].converged and mesh.levels[-1].steps <= budget


@pytest.mark.parametrize("name", ["hexagon", "thick-hook"])
def test_phase_one_stops_at_strict_feasibility(name, monkeypatch):
    # phase I returns after its first step that leaves every moving slope
    # in (0, 1); each warm mesh-64 level starts with a few slopes at 0, and
    # one step lifts them
    functional = PROBLEMS[name]()
    handed = []

    def recording(mesh, functional, mu, target):
        handed.append((mesh, mesh.f.copy()))
        return _solve_level(mesh, functional, mu, target)

    class Watched(_Barrier):
        def slopes(self, x):
            z = super().slopes(x)
            inside.append(bool(((z > 0.0) & (z < 1.0)).all()))
            return z

    monkeypatch.setattr(varsolve, "_solve_level", recording)
    levels = maximize(functional, mesh_n=64).levels
    assert [level.phase1_steps for level in levels[1:]] == [1, 1]
    for (mesh, f), level in zip(handed, levels):
        inside = []
        prob = Watched(mesh, functional)
        x = f[prob.free]
        assert prob.phase1(x) == level.phase1_steps > 0
        # the start and every earlier step leave a slope on or past a bound
        assert inside == [False] * level.phase1_steps + [True]


@pytest.mark.parametrize("mesh_n", [4, 8, 16, 32])
@pytest.mark.parametrize("gamma", [
    lambda x, y: np.zeros_like(x), lambda x, y: 2.0 * np.minimum(x, y)],
    ids=["flat", "steep"])
def test_no_strictly_feasible_interior(gamma, mesh_n):
    # flat boundary heights pin every slope at 0 or 1, so phase I runs out
    # of steps; steep ones leave no feasible heights at all, and a centred
    # phase-I iterate certifies it; neither may end in a singular block
    # solve, NaN heights or a silent gap of inf
    hexagon = unit_hexagon_functional()
    with pytest.raises(ValueError,
                       match="no strictly feasible interior") as err:
        maximize(Functional(hexagon.polygon, gamma, hexagon.rho),
                 mesh_n=mesh_n)
    assert err.type is ValueError


def _laplacian(name, mesh_n):
    functional = PROBLEMS[name]()
    mesh = _build_mesh(functional.polygon, functional.bbox / mesh_n,
                       functional.gamma)
    return _Barrier(mesh, functional).lap


def _check_against_dense(lap):
    rng = np.random.default_rng(16)
    w = rng.uniform(0.1, 10.0, len(lap.pa))
    dense = np.zeros((lap.nf + 1, lap.nf + 1))
    for p, q, sign in [(lap.pa, lap.pa, 1.0), (lap.pb, lap.pb, 1.0),
                       (lap.pa, lap.pb, -1.0), (lap.pb, lap.pa, -1.0)]:
        np.add.at(dense, (p, q), sign * w)
    dense = dense[:-1, :-1] / lap.ell ** 2
    rhs = rng.standard_normal((lap.nf, 2))
    want = np.linalg.solve(dense, rhs)
    got = lap.solve(w, rhs)
    assert got.shape == rhs.shape
    assert np.abs(got - want).max(initial=0.0) \
        <= 1e-10 * np.abs(want).max(initial=0.0)
    x, v = rng.standard_normal(lap.nf), rng.standard_normal(len(lap.pa))
    assert v @ lap.diff(x) == pytest.approx(x @ lap.scatter(v), rel=1e-12)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_edge_laplacian_against_dense(name):
    # the nested dissection against a dense solve of the same Laplacian,
    # with two right-hand sides as in phase I; the ribbon's free nodes are
    # uneven
    for mesh_n in (16, 32):
        _check_against_dense(_laplacian(name, mesh_n))


def test_edge_laplacian_without_fronts_to_split():
    # hexagon meshes 1 and 2 have 0 and 1 free nodes
    for mesh_n, nodes in [(1, 0), (2, 1)]:
        lap = _laplacian("hexagon", mesh_n)
        assert lap.nf == nodes
        _check_against_dense(lap)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_edge_laplacian_zero_weight_component_is_singular(name):
    # a free node whose edges all weigh 0 leaves L singular, which phase I
    # catches as LinAlgError
    lap = _laplacian(name, 16)
    node = lap.nf // 2
    w = np.ones(len(lap.pa))
    w[(lap.pa == node) | (lap.pb == node)] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        lap.solve(w, np.ones((lap.nf, 1)))
    with pytest.raises(np.linalg.LinAlgError):
        lap.solve(np.zeros(len(lap.pa)), np.ones((lap.nf, 1)))


def test_edge_laplacian_keeps_less_than_column_elimination():
    # [X 0 y] of every front, kept for the back substitution of one
    # right-hand side, holds no more floats than the grid-column
    # elimination kept, sum m_k m_k+1
    lap = _laplacian("hexagon", 64)
    kept = sum(fr.n * fr.s * (fr.r - fr.s + 2) for fr in lap.fronts)
    functional = PROBLEMS["hexagon"]()
    mesh = _build_mesh(functional.polygon, functional.bbox / 64,
                       functional.gamma)
    m = np.unique(mesh.ij[mesh.free, 0], return_counts=True)[1]
    assert kept <= int(m[:-1] @ m[1:])


def test_phase_one_gives_up_without_interior(monkeypatch):
    # gamma = 0 pins every slope at 0 or 1, so the best slack is exactly
    # 0; phase I stops once its bound on that slack is below the slopes'
    # rounding, within 30 of its 200 steps
    hexagon = unit_hexagon_functional()
    flat = Functional(hexagon.polygon, lambda x, y: np.zeros_like(x),
                      hexagon.rho)
    solves = []
    solve = EdgeLaplacian.solve
    monkeypatch.setattr(EdgeLaplacian, "solve",
                        lambda self, w, rhs: solves.append(1) or solve(self, w, rhs))
    for mesh_n in (4, 8, 16, 32):
        solves.clear()
        with pytest.raises(ValueError, match="no strictly feasible interior"):
            maximize(flat, mesh_n=mesh_n)
        assert 0 < len(solves) <= 30


def test_tiny_hexagon_meshes():
    # mesh 1 has no free node and mesh 2 has one
    functional = unit_hexagon_functional()
    for mesh_n, nodes in [(1, 0), (2, 1), (3, 4), (4, 7)]:
        mesh = maximize(functional, mesh_n=mesh_n)
        assert int(mesh.free.sum()) == nodes
        assert mesh.levels[-1].converged and mesh.gap <= TARGET
        start = _build_mesh(functional.polygon, functional.bbox / mesh_n,
                            functional.gamma)
        assert mesh.psi_value >= evaluate_psi(start, functional)
    assert mesh.gap > 0.0
    assert maximize(functional, mesh_n=1).gap == 0.0


@MESH16_PROBLEMS
def test_gradient_against_oracle(functional):
    # away from the optimum (halfway to a phase I point) the gradient is
    # large; the oracle clips each slope to [1e-12, 1 - 1e-12] and forms
    # the third as 1 - s - t, so it is accurate only at nodes whose
    # triangles have no slope near 0 or 1
    mesh = maximize(functional, mesh_n=16, tol=1e-3)
    prob, inner = _phase_one_point(functional, 16)
    mesh.f[prob.free] = 0.5 * (mesh.f[prob.free] + inner)
    rho_tri = (functional.rho(mesh.cent[:, 0], mesh.cent[:, 1])
               if functional.rho is not None else np.zeros(len(mesh.tris)))
    got = prob.gradient(prob.slopes(mesh.f[prob.free]), 0.0)
    s, t = mesh.slopes()
    slopes = np.stack([s, t, 1.0 - s - t])
    frozen = ((slopes < 1e-3) | (slopes > 1.0 - 1e-3)).any(axis=0)
    near = np.bincount(mesh.tris[frozen].ravel(), minlength=len(mesh.f)) > 0
    checked = 0
    for pos, v in enumerate(prob.free):
        if not near[v]:
            want = node_derivative(mesh, rho_tri, v, mesh.f[v])
            assert abs(got[pos] - want) <= 1e-12 * abs(want), v
            checked += 1
    assert checked > 0.5 * prob.nf


def test_level_schedule():
    # up to mesh 35 the cold level is mesh 8, as it was at mesh_n / 4; from
    # 36 up it runs at mesh_n / 8, a quarter of the middle level
    assert {n: _levels(n) for n in (4, 16, 24, 32, 35, 36, 48, 64, 128)} == {
        4: [4], 16: [8, 12, 16], 24: [8, 12, 24], 32: [8, 16, 32],
        35: [8, 17, 35], 36: [8, 18, 36], 48: [8, 24, 48],
        64: [8, 32, 64], 128: [16, 64, 128]}


@pytest.mark.parametrize("name", ["hexagon", "thick-hook"])
def test_cold_level_mesh_keeps_the_value(name, monkeypatch):
    # each value lies within its certified gap below the discrete maximum,
    # so two solves of one mesh differ by at most the sum of their gaps
    functional, mesh = _solved(name, 64)
    assert mesh.levels[0].nodes == 37
    monkeypatch.setattr(varsolve, "_levels", lambda mesh_n: [16, 32, 64])
    old = maximize(functional, mesh_n=64)
    assert old.levels[0].nodes == 169
    assert all(level.converged for level in mesh.levels + old.levels)
    assert abs(mesh.psi_value - old.psi_value) <= mesh.gap + old.gap


def test_level_traces_match_the_result():
    tol = 1e-4
    mesh = maximize(unit_hexagon_functional(), mesh_n=16, tol=tol)
    assert len(mesh.levels) == 3
    last = mesh.levels[-1]
    assert (last.nodes, last.steps) == (mesh.free.sum(), mesh.sweeps)
    assert (last.gap, last.psi) == (mesh.gap, mesh.psi_value)
    for coarse, fine in zip(mesh.levels, mesh.levels[1:]):
        assert coarse.nodes < fine.nodes
        assert fine.start_mu == coarse.mu and fine.mu <= coarse.mu
    for level in mesh.levels:
        assert level.converged and 0.0 < level.gap <= tol / 100
        assert level.steps > 0 and level.phase1_steps >= 0
        assert level.seconds > 0.0


@MESH16_PROBLEMS
def test_solve_mesh_independent_of_start(functional):
    # the functional is strictly concave in the free heights, so a start
    # perturbed by a quarter of the depth (infeasible: phase I repairs it)
    # reaches the same value, within the two certified gaps
    base = _build_mesh(functional.polygon, functional.bbox / 16,
                       functional.gamma)
    depth = float(base.f.max())  # gamma is min(x, y) capped at the depth
    _, _, _, _, gap, _ = _solve_level(base, functional, 1e-2, TARGET)
    mesh = _build_mesh(functional.polygon, functional.bbox / 16,
                       functional.gamma)
    noise = np.random.default_rng(11).uniform(-0.25 * depth, 0.25 * depth,
                                              mesh.free.sum())
    mesh.f[mesh.free] += noise
    _, phase1, _, _, moved_gap, _ = _solve_level(mesh, functional, 1e-2,
                                                 TARGET)
    assert phase1 > 0 and gap <= TARGET and moved_gap <= TARGET
    assert abs(evaluate_psi(mesh, functional)
               - evaluate_psi(base, functional)) <= gap + moved_gap


def test_profile_depth_refuses_a_straight_profile():
    with pytest.raises(ValueError, match="straight profile"):
        profile_depth(square_profile())


def test_finite_n_constant_refuses_a_family_of_the_wrong_size():
    with pytest.raises(ValueError, match="family produced 12 cells for size 13"):
        finite_n_constant(lambda n: thick_hook_shape_of_size(12), [12, 13])


def test_armijo_halves_until_the_gain_holds():
    """On the concave v(a) = a - 10 a^2 with slope 1 the rule
    v(a) >= 0.01 a holds iff a <= 0.099: from a = 1 it halves four times."""
    tried = []

    def value(a):
        tried.append(a)
        return a - 10.0 * a * a

    alpha, got = _armijo(value, 0.0, 1.0, 1.0)
    assert tried == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert (alpha, got) == (0.0625, value(0.0625))
    assert all(value(a) < 0.01 * a for a in tried[:4])


def test_armijo_stops_at_its_floor():
    """A concave value that falls from the start never gains: the search
    returns the first halving below 1e-12, 2^-40, with its value."""
    tried = []

    def value(a):
        tried.append(a)
        return -a - a * a

    alpha, got = _armijo(value, 0.0, 1.0, 1.0)
    assert alpha == 2.0 ** -40 and 2 * alpha >= 1e-12
    assert got == value(alpha)
    assert tried[:-1] == [2.0 ** -k for k in range(41)]
