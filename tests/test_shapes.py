import json
import math
import random

import numpy as np
import pytest

from _naive import connected_reference
from test_acceptance import _all_partitions_up_to, _subpartitions
from skewtab import Partition, SkewShape, StableProfile, hook_table
from skewtab.cli import main
from skewtab.shapes import (
    square_profile,
    stable_family,
    thick_hook_profile,
    thick_hook_shape,
    thick_hook_shape_of_size,
    thick_ribbon_profile,
    thick_ribbon_shape,
    thick_ribbon_shape_of_size,
)


def test_partition_basics():
    p = Partition([3, 3, 2])
    assert p.size == 8
    assert p.width == 3
    assert len(p) == 3
    assert p.row(1) == 3 and p.row(3) == 2 and p.row(4) == 0
    assert p.conjugate() == Partition([3, 3, 2]).conjugate()
    assert list(Partition([3, 3, 2]).conjugate()) == [3, 3, 2]
    assert list(Partition([4, 2, 1]).conjugate()) == [3, 2, 1, 1]
    assert (1, 3) in p and (3, 3) not in p
    assert Partition([2, 0, 0]) == Partition([2])


def test_partition_rejects_increasing():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


@pytest.mark.parametrize("build,bad", [
    (lambda: SkewShape([2.7, 1], [0.9]), "2.7"),
    (lambda: Partition(["3"]), "'3'"),
    (lambda: Partition([True, True]), "True"),
    (lambda: Partition([3, 2.0]), "2.0"),
    (lambda: thick_hook_shape(1.5, 1, 1), "2.5"),
])
def test_partition_refuses_parts_that_are_not_integers(build, bad):
    # nothing is truncated: the refusal names the part
    with pytest.raises(ValueError, match=f"row length must be an integer, "
                                         f"got {bad}"):
        build()


def test_partition_takes_numpy_ints():
    p = Partition(np.array([3, 1, 0], dtype=np.int64))
    assert p == Partition([3, 1]) and all(type(v) is int for v in p.parts)
    assert SkewShape(np.array([3, 2]), [np.int32(1)]) == SkewShape([3, 2], [1])


def test_skew_shape_validation():
    sh = SkewShape([3, 3, 2], [2, 1])
    assert sh.size == 5
    assert not sh.is_straight
    assert set(sh.cells()) == {(1, 3), (2, 2), (2, 3), (3, 1), (3, 2)}
    with pytest.raises(ValueError):
        SkewShape([2, 2], [3])  # inner not contained
    with pytest.raises(ValueError):
        SkewShape([3, 1], [2])  # cells split into two components


def test_connected_matches_bfs():
    # every mu inside lam with |lam| <= 10, then 500 seeded c01-style pairs
    pairs = [((), ())] + [(lam, mu) for lam in _all_partitions_up_to(10)
                          for mu in _subpartitions(lam)]
    assert len(pairs) == 2888
    rng = random.Random(20261018)
    for _ in range(500):
        lam = sorted((rng.randint(1, 10) for _ in range(rng.randint(1, 10))),
                     reverse=True)
        pairs.append((lam, sorted((rng.randint(0, v) for v in lam),
                                  reverse=True)))
    split = 0
    for lam, mu in pairs:
        sh = object.__new__(SkewShape)  # skip the constructor's own check
        sh.outer, sh.inner = Partition(lam), Partition(mu)
        expected = connected_reference(sh)
        assert sh._connected() == expected, (lam, mu)
        split += not expected
    assert split > 500


def test_hook_table_332():
    # classic hand table for the partition (3, 3, 2)
    ht = hook_table(Partition([3, 3, 2]))
    expect = {(1, 1): 5, (1, 2): 4, (1, 3): 2,
              (2, 1): 4, (2, 2): 3, (2, 3): 1,
              (3, 1): 2, (3, 2): 1}
    assert dict(ht.items()) == expect
    assert ht.product() == 5 * 4 * 2 * 4 * 3 * 1 * 2 * 1


@pytest.mark.parametrize("psi, phi, why", [
    ([(0.0, 1.0), (-1.0, 0.0)], [], "psi breakpoints must be nonnegative"),
    ([(0.0, 1.0), (1.0, 0.5), (0.5, 0.0)], [],
     "psi breakpoint x-values must be nondecreasing"),
    ([], [], "psi needs at least one breakpoint"),
    ([(0.0, 2.0), (2.0, 0.0)], [(0.5, 1.0), (1.0, 0.0)],
     "phi must start at x = 0"),
], ids=["negative", "decreasing-x", "empty-psi", "phi-off-zero"])
def test_profile_refusals(psi, phi, why, tmp_path, capsys):
    with pytest.raises(ValueError, match=why):
        StableProfile(psi, phi)
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"psi": psi, "phi": phi}))
    assert main(["--no-manifest", "constant", "--profile", str(p)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith(f"{p}: {why}"), err


def test_stable_family_needs_a_positive_size():
    with pytest.raises(ValueError, match="N must be a positive integer"):
        stable_family(square_profile(), 0)


def test_family_constructors_refuse_bad_arguments():
    with pytest.raises(ValueError, match="must be nonnegative"):
        thick_hook_profile(-0.5, 1.0)
    for a, b, c in ((-1, 1, 1), (1, -1, 1), (1, 1, 0)):
        with pytest.raises(ValueError, match=r"need a, b >= 0 and c >= 1"):
            thick_hook_shape(a, b, c)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        thick_ribbon_shape(0)


def test_profile_normalization():
    p = StableProfile([(0.0, 2.0), (2.0, 2.0)])  # area 4 square
    assert abs(p.area() - 1.0) < 1e-12
    assert abs(p.height - 1.0) < 1e-12 and abs(p.width - 1.0) < 1e-12
    with pytest.raises(ValueError):
        StableProfile([(0.0, 1.0), (1.0, 2.0)])  # increasing
    with pytest.raises(ValueError):
        StableProfile([(0.5, 1.0), (1.0, 0.5)])  # does not start at x=0
    for bad in (math.inf, -math.inf, math.nan):
        for psi, phi in (([(0.0, bad), (1.0, 0.0)], []),
                         ([(0.0, 1.0), (bad, 0.0)], []),
                         ([(0.0, 1.0), (1.0, 1.0)], [(0.0, 0.5), (0.5, bad)]),
                         ([(0.0, 1.0), (1.0, 1.0)], [(0.0, 0.5), (bad, 0.5)])):
            with pytest.raises(ValueError, match="finite"):
                StableProfile(psi, phi)


def test_zero_width_phi_is_empty():
    # phi positive only at x = 0 encloses no area: a straight family
    for phi in ([(0.0, 0.5)], [(0.0, 0.5), (1e-13, 0.0)],
                [(0.0, 0.5), (0.0, 0.0)]):
        p = StableProfile([(0.0, 1.0), (1.0, 1.0)], phi)
        assert p.phi == () and p.phi_width == 0.0
        assert p == square_profile()
    p = StableProfile([(0.0, 1.0), (1.0, 1.0)], [(0.0, 0.5), (1e-9, 0.0)])
    assert p.phi and p.phi_width == p.phi[-1][0] > 0.0


def test_profile_accessors():
    p = thick_hook_profile(1.0, 1.0)
    r = 1 / math.sqrt(3)
    assert abs(p.psi_at(0.1) - 2 * r) < 1e-12
    assert abs(p.phi_at(0.1) - r) < 1e-12
    assert p.phi_at(r + 1e-9) == 0.0
    assert abs(p.phi_top - r) < 1e-12
    assert abs(p.phi_width - r) < 1e-12


def test_stable_family_square():
    fam = stable_family(square_profile(), 25)
    assert list(fam.outer) == [5, 5, 5, 5, 5]
    assert fam.is_straight


@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_stable_family_thick_hook(c):
    # N = 3c^2 recovers the exact (2c)^(2c)/c^c staircase-free shape
    prof = thick_hook_profile(1.0, 1.0)
    fam = stable_family(prof, 3 * c * c)
    assert fam == thick_hook_shape(c, c, c)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_stable_family_ribbon(k):
    fam = stable_family(thick_ribbon_profile(), k * (3 * k - 1) // 2)
    assert fam == thick_ribbon_shape(k)


def test_shape_of_size_guards():
    assert thick_hook_shape_of_size(12) == thick_hook_shape(2, 2, 2)
    assert thick_ribbon_shape_of_size(22) == thick_ribbon_shape(4)
    with pytest.raises(ValueError):
        thick_hook_shape_of_size(13)
    with pytest.raises(ValueError):
        thick_ribbon_shape_of_size(23)


def test_thick_ribbon_shape_rows():
    # doubled staircase minus single staircase
    nu = thick_ribbon_shape(2)
    assert list(nu.outer) == [3, 2, 1]
    assert list(nu.inner) == [1]
    assert nu.size == 5
    nu3 = thick_ribbon_shape(3)
    assert list(nu3.outer) == [5, 4, 3, 2, 1]
    assert list(nu3.inner) == [2, 1]
    assert nu3.size == 12
