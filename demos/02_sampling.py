"""Sample hook-weighted lozenge tilings of a thick hook and check the
annealed partition-function estimate against the exact value."""
from pathlib import Path

from skewtab import (
    density,
    estimate_logZ,
    hook_weights,
    partition_function,
    render_density,
    sample,
    save_density,
    thick_hook_shape,
)

OUT = Path(__file__).resolve().parent / "out"


def main():
    shape = thick_hook_shape(2, 3, 3)
    w = hook_weights(shape)

    print("sampling 4000 tilings of the (a,b,c)=(2,3,3) thick hook ...")
    samples = sample(shape, w, n_samples=4000, seed=7)
    field = density(samples)
    OUT.mkdir(exist_ok=True)
    save_density(field, OUT / "density_233.csv")
    render_density(field, OUT / "density_233.svg")
    print("wrote density CSV and SVG to", OUT)

    exact = partition_function(shape, w)
    # hook weights span several orders of magnitude here, so each
    # annealing level needs more sweeps than the default
    est = estimate_logZ(shape, w, sweeps_per_level=80, particles=128, seed=7)
    print(f"exact  log Z = {exact.value:.6f}")
    print(f"AIS    log Z = {est.value:.6f} +- {est.stderr:.6f}")
    print(f"difference   = {abs(est.value - exact.value):.6f}")


if __name__ == "__main__":
    main()
