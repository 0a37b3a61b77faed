"""Estimate the asymptotic constant for two growing shape families and
cross-check against exact finite counts."""
from skewtab import (
    constant,
    finite_n_constant,
    thick_hook_constant,
    thick_hook_profile,
    thick_hook_shape_of_size,
    thick_ribbon_profile,
    thick_ribbon_shape_of_size,
)

THICK_HOOK_C = thick_hook_constant(1.0, 1.0)


def main():
    print("thick hook family, a=b=c")
    res = constant(thick_hook_profile(1.0, 1.0), mesh_n=48)
    print(f"  solver      {res.value:+.6f}  (closed form {THICK_HOOK_C:+.6f})")
    for key, val in sorted(res.budget.items()):
        print(f"    budget {key:<12} {val:.2e}")

    sides = range(8, 17, 2)
    vals = finite_n_constant(thick_hook_shape_of_size,
                             [3 * k * k for k in sides])
    for k, v in zip(sides, vals):
        print(f"  side {k:2d} (N={3 * k * k:4d})  c_N = {v:+.6f}")

    print("\nthick ribbon family")
    res = constant(thick_ribbon_profile(), mesh_n=48)
    print(f"  solver      {res.value:+.6f}  (band [-0.3237, -0.0621])")
    steps = range(4, 11, 2)
    vals = finite_n_constant(thick_ribbon_shape_of_size,
                             [k * (3 * k - 1) // 2 for k in steps])
    for k, v in zip(steps, vals):
        print(f"  step {k:2d} (N={k * (3 * k - 1) // 2:4d})  c_N = {v:+.6f}")


if __name__ == "__main__":
    main()
