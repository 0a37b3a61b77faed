"""Maximize the entropy functional over height profiles on the unit hexagon
and compare with the exact boxed-tiling counts it should reproduce."""
import math

import numpy as np

from skewtab import macmahon, maximize, unit_hexagon_functional

CLOSED_FORM = 4.5 * math.log(3.0) - 6.0 * math.log(2.0)


def main():
    # extrapolate (1/n^2) log of the boxed count, n up to 60
    ns = list(range(40, 61, 5))
    vals = [math.log(macmahon(n, n, n)) / (n * n) for n in ns]
    basis = np.array([[math.log(n) / n, 1.0 / n, 1.0] for n in ns])
    coef, *_ = np.linalg.lstsq(basis, np.array(vals), rcond=None)
    target = float(coef[2])
    print(f"closed form      {CLOSED_FORM:.6f}")
    print(f"count extrapolat {target:.6f}")

    for n in (16, 32, 64):
        res = maximize(unit_hexagon_functional(), mesh_n=n)
        print(f"mesh {n:3d}: psi = {res.psi_value:.6f}  "
              f"(off by {abs(res.psi_value - CLOSED_FORM):.2e}, "
              f"certified gap {res.gap:.1e}, {res.sweeps} Newton steps)")


if __name__ == "__main__":
    main()
