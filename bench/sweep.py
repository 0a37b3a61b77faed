"""One-off scaling sweep: time against problem size for the layers whose
complexity later changes target.  It is not a gated workload; it records
curves, so that a change of complexity shows as a curve, not one point.

    python3 bench/sweep.py        # writes bench/scaling.json

Times are reference seconds (see harness.SpeedProbe), median of REPEATS,
with the raw wall-clock median beside them.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time

import harness
import run

REPEATS = 3

# the ad-hoc single-point baseline in ROADMAP.md that the curves replace
ROADMAP_BASELINE = {
    "count_determinant thick hook N=300": 0.009,
    "count_determinant thick hook N=1200": 0.9,
    "count_determinant thick hook N=2700": 15.6,
    "count_nhlf th(4,4,4)": 10.2,
    "cap_gaps th(4,4,4)": 13.0,
    "maximize hexagon mesh 64": "12-17.6",
}


def main() -> int:
    for k, v in run.PINNED.items():
        os.environ.setdefault(k, v)  # before numpy is imported
    sys.path.insert(0, str(run.ROOT / "src"))
    import skewtab as st
    from skewtab.nhlf import cap_gaps

    def th(k):
        return st.thick_hook_shape(k, k, k)

    points = []  # (curve, size label, size value, thunk)
    for k in (2, 3, 4):
        region = st.build_region(th(k))
        points.append(("count_nhlf", "tilings", st.macmahon(k, k, k),
                       lambda r=region: st.count_nhlf(r)))
    for k in (2, 3, 4):
        region, n = st.build_region(th(k)), th(k).size
        points.append(("cap_gaps", "tilings", st.macmahon(k, k, k),
                       lambda r=region, n=n: cap_gaps(r, n, [0.5, 0.25, 0.1])))
    for c in (10, 15, 20, 25, 30):
        shape = th(c)
        points.append(("count_determinant", "cells", shape.size,
                       lambda s=shape: st.count_determinant(s)))
    for mesh_n in (16, 32, 64):
        points.append(("maximize_hexagon", "mesh_n", mesh_n,
                       lambda m=mesh_n: st.maximize(
                           st.unit_hexagon_functional(), mesh_n=m, tol=1e-4)))

    speed = harness.SpeedProbe()
    timings = [([], []) for _ in points]
    with speed.running():
        for _ in range(REPEATS):
            for (curve, _, size, fn), (ref, raw) in zip(points, timings):
                t0 = time.perf_counter()
                fn()
                t1 = time.perf_counter()
                ref.append(speed.seconds(t0, t1))
                raw.append(t1 - t0)
                print(f"{curve} {size}: {ref[-1]:.4g} s", file=sys.stderr)
    curves: dict[str, dict] = {}
    for (curve, label, size, _), (ref, raw) in zip(points, timings):
        c = curves.setdefault(curve, {"size": label, "points": []})
        c["points"].append({
            label: size,
            "median_s": statistics.median(ref),
            "min_s": min(ref),
            "max_s": max(ref),
            "raw_median_s": statistics.median(raw),
        })
    out = {
        "env": dict(harness.environment(), git_sha=run.git_sha(),
                    repeats=REPEATS,
                    speed_factor=1.0 / speed.mean_speed()),
        "units": "reference seconds; raw_median_s is wall-clock seconds",
        "curves": curves,
        "roadmap_baseline_s": ROADMAP_BASELINE,
    }
    path = run.HERE / "scaling.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
