"""Skew standard tableaux: exact counts, lozenge tilings of the associated
lattice regions, Markov chain sampling, and variational limit shapes.

Every public name loads its module on first use (PEP 562), so a caller
pays only for the layers it touches.  The exact layer (`errors`, `shapes`,
`exact`, `tiling`, `nhlf`) counts in Python ints and needs no numpy;
numpy comes in with the sampler, the solver, the serializer, or the
tiling extensions `extend` and `minimal_extension`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it exports; each module is also a public name
_EXPORTS = {
    "errors": ("ResourceGuardError",),
    "shapes": (
        "HookTable", "Partition", "SkewShape", "StableProfile", "hook_table",
        "square_profile", "stable_family", "thick_hook_profile",
        "thick_hook_shape", "thick_hook_shape_of_size",
        "thick_ribbon_profile", "thick_ribbon_shape",
        "thick_ribbon_shape_of_size",
    ),
    "exact": (
        "count_brute_force", "count_determinant", "count_hlf",
        "count_thick_hook", "macmahon", "superfactorial",
        "thick_hook_constant",
    ),
    "tiling": (
        "Lozenge", "Region", "Tiling", "build_region", "enumerate_H",
        "extend", "flip", "heights_to_tiling", "minimal_extension",
        "type_counts",
    ),
    "nhlf": (
        "PartitionFunction", "WeightField", "cap_gaps", "capped_weights",
        "count_nhlf", "finite_n_constant", "hook_weights",
        "partition_function", "tiling_weight", "uniform_weights",
    ),
    "sampler": (
        "DensityField", "LogZEstimate", "density", "estimate_logZ", "sample",
    ),
    "entropy": ("lobachevsky", "sigma", "sigma_gradient"),
    "laplacian": (),
    "varsolve": (
        "ConstantResult", "Functional", "MeshProfile", "build_functional",
        "constant", "evaluate_psi", "hbar", "k_psi", "maximize",
        "profile_depth", "profile_domain", "unit_hexagon_functional",
    ),
    "serialize": (
        "load_density", "load_profile", "load_shape", "load_tiling",
        "save_density", "save_mesh", "save_profile", "save_shape",
        "save_terms", "save_tiling", "save_tilings",
    ),
    "render": ("render_density", "render_tiling"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    """Import the module that defines name, then bind name here so that
    later lookups never reach this hook."""
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
