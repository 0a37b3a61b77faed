"""Skew standard tableaux: exact counts, lozenge tilings of the associated
lattice regions, Markov chain sampling, and variational limit shapes."""

__version__ = "0.1.0"

from .errors import ResourceGuardError
from .shapes import (
    HookTable,
    Partition,
    SkewShape,
    StableProfile,
    hook_table,
    square_profile,
    stable_family,
    thick_hook_profile,
    thick_hook_shape,
    thick_hook_shape_of_size,
    thick_ribbon_profile,
    thick_ribbon_shape,
    thick_ribbon_shape_of_size,
)
from .exact import (
    count_brute_force,
    count_determinant,
    count_hlf,
    count_thick_hook,
    macmahon,
    superfactorial,
    thick_hook_constant,
)
from .tiling import (
    Lozenge,
    Region,
    Tiling,
    build_region,
    enumerate_H,
    extend,
    flip,
    heights_to_tiling,
    minimal_extension,
    type_counts,
)
from .nhlf import (
    PartitionFunction,
    WeightField,
    cap_gaps,
    capped_weights,
    count_nhlf,
    hook_weights,
    partition_function,
    tiling_weight,
    uniform_weights,
)
from .sampler import (
    DensityField,
    LogZEstimate,
    density,
    estimate_logZ,
    sample,
)
from .entropy import lobachevsky, sigma, sigma_gradient
from .varsolve import (
    ConstantResult,
    Functional,
    MeshProfile,
    build_functional,
    constant,
    evaluate_psi,
    finite_n_constant,
    hbar,
    k_psi,
    maximize,
    profile_depth,
    profile_domain,
    unit_hexagon_functional,
)
from .serialize import (
    load_density,
    load_profile,
    load_shape,
    load_tiling,
    save_density,
    save_mesh,
    save_profile,
    save_shape,
    save_terms,
    save_tiling,
    save_tilings,
)
from .render import render_density, render_tiling

__all__ = [name for name in dir() if not name.startswith("_")]
