"""The package's public names, which load their modules on first use."""
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import skewtab

SRC = Path(__file__).resolve().parents[1] / "src"

# each public name under the module that defines it; modules are public too
HOMES = {
    "errors": "ResourceGuardError",
    "shapes": "HookTable Partition SkewShape StableProfile hook_table "
              "square_profile stable_family thick_hook_profile "
              "thick_hook_shape thick_hook_shape_of_size thick_ribbon_profile "
              "thick_ribbon_shape thick_ribbon_shape_of_size",
    "exact": "count_brute_force count_determinant count_hlf count_thick_hook "
             "macmahon superfactorial thick_hook_constant",
    "tiling": "Lozenge Region Tiling build_region enumerate_H extend flip "
              "heights_to_tiling minimal_extension type_counts",
    "nhlf": "PartitionFunction WeightField cap_gaps capped_weights count_nhlf "
            "finite_n_constant hook_weights partition_function tiling_weight "
            "uniform_weights",
    "sampler": "DensityField LogZEstimate density estimate_logZ sample",
    "entropy": "lobachevsky sigma sigma_gradient",
    "laplacian": "",
    "varsolve": "ConstantResult Functional MeshProfile build_functional "
                "constant evaluate_psi hbar k_psi maximize profile_depth "
                "profile_domain unit_hexagon_functional",
    "serialize": "load_density load_profile load_shape load_tiling "
                 "save_density save_mesh save_profile save_shape save_terms "
                 "save_tiling save_tilings",
    "render": "render_density render_tiling",
}
PUBLIC = sorted([*HOMES, *" ".join(HOMES.values()).split()])


def _python(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports from src."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 85
    assert sorted(skewtab.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(skewtab))


@pytest.mark.parametrize("module", sorted(HOMES))
def test_every_name_is_its_defining_module_attribute(module):
    home = importlib.import_module(f"skewtab.{module}")
    assert getattr(skewtab, module) is home
    for name in HOMES[module].split():
        obj = getattr(skewtab, name)
        assert obj is getattr(home, name)
        if type(obj) in (type, types.FunctionType):  # not WeightField's alias
            assert obj.__module__ == home.__name__


def test_star_import_binds_every_public_name():
    code = ("from skewtab import *; import skewtab; "
            "print(sorted(n for n in skewtab.__all__ if n in globals()))")
    assert _python(code) == repr(PUBLIC)


def test_submodules_resolve_after_a_bare_import():
    code = ("import skewtab; "
            "print(skewtab.varsolve.__name__, skewtab.laplacian.__name__)")
    assert _python(code) == "skewtab.varsolve skewtab.laplacian"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        skewtab.nope
    assert not hasattr(skewtab, "count_everything")


def test_exact_counting_loads_no_numpy_and_no_later_layer():
    code = """
import sys
import skewtab as st
bare = "numpy" in sys.modules
sh = st.thick_hook_shape(2, 3, 2)
region = st.build_region(sh)
f = st.count_nhlf(region)
assert f == st.count_determinant(sh) == st.count_brute_force(sh)
assert f == st.count_thick_hook(2, 3, 2)
assert st.partition_function(region, st.hook_weights(sh)).z > 0
assert st.cap_gaps(region, sh.size, [0.5, 0.1])[1] >= 0
assert len(st.finite_n_constant(st.thick_hook_shape_of_size, [12, 27])) == 2
assert st.hook_table(sh.outer).product() > 0
late = ("varsolve", "laplacian", "entropy", "sampler", "serialize", "render")
print(bare, "numpy" in sys.modules,
      [m for m in late if "skewtab." + m in sys.modules])
"""
    assert _python(code) == "False False []"
