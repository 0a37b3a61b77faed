import math
import random

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
from skewtab.varsolve import (
    MAX_SWEEPS,
    MeshProfile,
    _build_mesh,
    _columns,
    _derivative,
    _grid_triangles,
    _groups,
    _interp_init,
    _sign_kernel,
    _solve_mesh,
    evaluate_psi,
)

from _naive import (
    grid_triangles_reference,
    groups_reference,
    interp_init_reference,
    k_psi_reference,
    node_derivative,
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


def test_k_psi_matches_quadrature():
    profiles = [thick_hook_profile(a, b) for a, b in
                [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.1, 3.0), (3.0, 3.0)]]
    profiles += [thick_ribbon_profile(), square_profile()]
    # a short slope or flat: its sub-intervals take the midpoint series
    profiles += [StableProfile([(0, 2), (1, 1), (1.001, y), (2, 0)])
                 for y in (1 - 0.001 / 3, 1)]
    rng = random.Random(15)
    profiles += [_random_psi(rng) for _ in range(40)]
    for profile in profiles:
        assert abs(k_psi(profile) - k_psi_reference(profile)) <= 1e-12, \
            profile.psi


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
    assert mesh.converged
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
    assert maximize(F, mesh_n=np.int64(4), tol=1e-3).converged


def test_constant_square_closed_form():
    res = constant(square_profile())
    assert abs(res.value - (0.5 - 2.0 * math.log(2.0))) < 1e-9
    assert res.psi_max == 0.0
    assert float(res) == res.value


def test_constant_small_mesh_thick_hook():
    res = constant(thick_hook_profile(1.0, 1.0), mesh_n=24, tol=5e-4)
    assert abs(res.value - THICK_C) < 3e-2
    assert set(res.budget) >= {"optimizer", "refinement", "cap", "quadrature"}
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


@MESH16_PROBLEMS
def test_groups_match_loop(functional):
    mesh = _build_mesh(functional.polygon, functional.bbox / 16,
                       functional.gamma)
    rho_tri = (functional.rho(mesh.cent[:, 0], mesh.cent[:, 1])
               if functional.rho is not None else np.zeros(len(mesh.tris)))
    got, want = _groups(mesh, rho_tri), groups_reference(mesh, rho_tri)
    assert len(got) == len(want) == 3
    for g, r in zip(got, want):
        assert len(g.nodes) > 0 and g.valid.any()
        for name in ("nodes", "fall_at", "fall_off", "rise_at", "rise_off",
                     "valid", "rho_sum"):
            a, b = getattr(g, name), getattr(r, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@MESH16_PROBLEMS
def test_node_kernel_against_oracle(functional):
    mesh = maximize(functional, mesh_n=16, tol=1e-3)
    rho_tri = (functional.rho(mesh.cent[:, 0], mesh.cent[:, 1])
               if functional.rho is not None else np.zeros(len(mesh.tris)))
    rng = np.random.default_rng(5)
    values = signs = 0
    for grp in _groups(mesh, rho_tri):
        fall, rise, lo, hi = _columns(grp, mesh.f, mesh.ell)
        assert (lo < hi).all()
        x = rng.uniform(lo, hi)
        got = _derivative(grp, fall, rise, x, mesh.ell)
        mid = 0.5 * (lo + hi)
        sign = _sign_kernel(grp, fall, rise, mid, mesh.ell)(x - mid)
        # the oracle clips each slope to [1e-12, 1 - 1e-12] and forms the
        # third as 1 - s - t, so it is accurate only away from frozen slopes
        a = (fall - x) / mesh.ell
        b = (rise + x) / mesh.ell
        slopes = np.where(grp.valid, np.stack([a, b, 1.0 - a - b]), 0.5)
        inner = ((slopes > 1e-3) & (slopes < 1.0 - 1e-3)).all(axis=(0, 1))
        for v, xv, g, sg, ok in zip(grp.nodes, x, got, sign, inner):
            want = node_derivative(mesh, rho_tri, v, xv)
            if ok:
                assert abs(g - want) <= 1e-12 * abs(want), (v, g, want)
                values += 1
            if abs(want) > 1e-9:
                assert np.sign(sg) == np.sign(want), (v, sg, want)
                signs += 1
    assert values > 0.5 * mesh.free.sum()
    assert signs > 0.9 * mesh.free.sum()


def test_levels_stop_at_first_converged_sweep():
    tol = 1e-4
    mesh = maximize(unit_hexagon_functional(), mesh_n=16, tol=tol)
    assert len(mesh.levels) == 3
    last = mesh.levels[-1]
    assert (last.nodes, last.sweeps) == (mesh.free.sum(), mesh.sweeps)
    assert (last.kkt_residual, last.psi) == (mesh.kkt_residual, mesh.psi_value)
    for level in mesh.levels:
        assert level.converged and level.residuals[-1] <= tol
        if level.sweeps > 1:
            assert level.residuals[-2] > tol
        assert level.seconds > 0.0


@MESH16_PROBLEMS
def test_solve_mesh_independent_of_start(functional):
    # the functional is strictly concave in the free heights, so a start
    # perturbed by a quarter of the depth climbs to the same maximizer
    tol = 1e-4
    base = _build_mesh(functional.polygon, functional.bbox / 16,
                       functional.gamma)
    depth = float(base.f.max())  # gamma is min(x, y) capped at the depth
    _solve_mesh(base, functional, tol, MAX_SWEEPS)
    mesh = _build_mesh(functional.polygon, functional.bbox / 16,
                       functional.gamma)
    noise = np.random.default_rng(11).uniform(-0.25 * depth, 0.25 * depth,
                                              mesh.free.sum())
    mesh.f[mesh.free] += noise
    _solve_mesh(mesh, functional, tol, MAX_SWEEPS)
    assert base.converged and mesh.converged
    assert abs(mesh.psi_value - base.psi_value) <= 1e-6
    assert np.abs(mesh.f - base.f).max() <= 1e-4


def test_level_jammed_recounts_from_columns():
    # at the mesh 64 default the thick hook's final level has jammed nodes:
    # slopes saturated at 0 or 1 leave them an empty feasible interval
    functional = build_functional(thick_hook_profile(1.0, 1.0))
    mesh = maximize(functional)
    rho_tri = functional.rho(mesh.cent[:, 0], mesh.cent[:, 1])
    jammed = 0
    for grp in _groups(mesh, rho_tri):
        _, _, lo, hi = _columns(grp, mesh.f, mesh.ell)
        jammed += int((0.5 * (hi - lo) - 1e-9 * mesh.ell < 0).sum())
    last = mesh.levels[-1]
    assert (last.jammed, last.nodes) == (jammed, 2977)
    assert jammed == 110
    assert all(0 <= level.jammed <= level.nodes for level in mesh.levels)
