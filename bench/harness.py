"""Benchmark worker: sets up one skewtab workload, times it and checks it.

`run.py` starts this file in a fresh interpreter per workload, with BLAS
threads pinned, and turns its one JSON line into the benchmark's report.
Run directly only for debugging:

    PYTHONPATH=src python3 bench/harness.py --workload counts --seed 1 \
        --seconds 5 --trace 0

The harness times calls into skewtab's public functions from outside the
package.  A layer is the module a called function lives in (`tiling`,
`nhlf`, `exact`, `sampler`, `varsolve`); the harness's own checks form the
`harness` layer.  Every op's output is checked here, so a wrong answer is
counted as a failure instead of scoring as fast.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

perf = time.perf_counter

WORKLOADS = ("counts", "sampling", "asymptotics")

PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.1
PROBE_ITERS = 5000
PROBE_REF_S = 0.001     # reference seconds: the probe takes exactly 1 ms

# name: (unit, better).  BENCHMARK.json lists the same names and units.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
}

# name: (unit, better, span names whose time it sums).  Metrics without
# span names are read from results, not from the trace.
PER_LAYER = {
    "tiling.build_region_s": ("s", "lower", ("tiling.build_region",)),
    "tiling.free_vertices": ("count", "lower", ()),
    "tiling.self_s": ("s", "lower", ()),
    "nhlf.count_nhlf_s": ("s", "lower", ("nhlf.count_nhlf",)),
    "nhlf.partition_function_s": ("s", "lower", ("nhlf.partition_function",)),
    "nhlf.cap_gaps_s": ("s", "lower", ("nhlf.cap_gaps",)),
    "nhlf.calls": ("count", "lower", ()),
    "nhlf.self_s": ("s", "lower", ()),
    "exact.count_determinant_s": ("s", "lower", ("exact.count_determinant",)),
    "exact.count_determinant_calls": ("count", "lower", ()),
    "exact.det_dim_max": ("count", "lower", ()),
    "exact.count_brute_force_s": ("s", "lower", ("exact.count_brute_force",)),
    "exact.self_s": ("s", "lower", ()),
    "sampler.sample_s": ("s", "lower", ("sampler.sample",)),
    "sampler.burn_in_steps": ("count", "lower", ()),
    "sampler.steps_per_s": ("1/s", "higher", ()),
    "sampler.samples_per_s": ("1/s", "higher", ()),
    "sampler.density_s": ("s", "lower", ("sampler.density",)),
    "sampler.estimate_logZ_s": ("s", "lower", ("sampler.estimate_logZ",)),
    "sampler.ais_stderr": ("nat", "lower", ()),
    "sampler.ais_z": ("z", "higher", ()),
    "sampler.self_s": ("s", "lower", ()),
    "varsolve.finite_n_constant_s": ("s", "lower",
                                     ("varsolve.finite_n_constant",)),
    "varsolve.build_functional_s": ("s", "lower",
                                    ("varsolve.unit_hexagon_functional",)),
    "varsolve.maximize_s": ("s", "lower", ("varsolve.maximize",)),
    "varsolve.constant_s": ("s", "lower", ("varsolve.constant",)),
    "varsolve.k_psi_s": ("s", "lower", ("varsolve.k_psi",)),
    "varsolve.sweeps": ("count", "lower", ()),
    "varsolve.nodes": ("count", "lower", ()),
    "varsolve.kkt_residual": ("abs", "lower", ()),
    "varsolve.refine_gap": ("abs", "lower", ()),
    "varsolve.solve_err": ("abs", "lower", ()),
    "varsolve.self_s": ("s", "lower", ()),
    "harness.self_s": ("s", "lower", ()),
    "trace.wall_s": ("s", "lower", ()),
    "trace.untraced_wall_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.spans": ("count", "lower", ()),
    "speed.raw_wall_s": ("s", "lower", ()),
    "speed.factor": ("ratio", "lower", ()),
}
LAYERS = ("tiling", "nhlf", "exact", "sampler", "varsolve", "harness")

# Solver gates, the same as `skewtab repro`.
HEXAGON_GATE = 5e-3
THICK_HOOK_GATE = 1e-2
THICK_HOOK_C = 3.5 * math.log(3.0) - (22.0 / 3.0) * math.log(2.0) + 0.5

# Workload sizes.  `smoke` shrinks every input so the whole harness runs in
# seconds; the smoke solver meshes are coarse, so their gates are the
# discretisation error seen at mesh 16 with room to spare, not repro's.
SIZES = {
    "full": {
        "n_shapes": 2000,
        "max_cells": 20,        # c01's cap; brute force runs on every shape
        "max_vertices": 40,
        "hook": (4, 4, 3),      # 24,696 tilings
        "eps": (0.5, 0.25, 0.1),
        "finite_n_sides": tuple(range(12, 21)),
        "sample_hook": (6, 6, 6),
        "n_samples": 100,
        "ais_hook": (4, 4, 4),
        "particles": 16,
        "mesh_n": 64,
        "gates": (HEXAGON_GATE, THICK_HOOK_GATE),
    },
    "smoke": {
        "n_shapes": 8,
        "max_cells": 8,
        "max_vertices": 20,
        "hook": (2, 2, 2),
        "eps": (0.5, 0.25, 0.1),
        "finite_n_sides": (2, 3, 4),
        "sample_hook": (2, 2, 2),
        "n_samples": 10,
        "ais_hook": (2, 2, 2),
        "particles": 4,
        "mesh_n": 16,
        "gates": (5e-2, 2e-2),
    },
}


class SpeedProbe:
    """Samples CPU speed; converts wall intervals to reference seconds.

    A shared machine's CPU speed drifts: the same one-second count takes
    0.75 s to 1.45 s within a minute, and CPU time drifts with wall time, so
    the drift is speed, not waiting.  While running, a SIGALRM handler in the
    worker's own thread times a fixed pure-Python probe loop every
    PROBE_EVERY_S.  A probe's speed is PROBE_REF_S over its time.  An
    interval's reference seconds are its wall time minus the probes that ran
    inside it, times the mean speed of the probes within PROBE_WINDOW_S of
    it.  The mean, not the median, because work done is speed integrated
    over time, and short fast spells count.
    """

    def __init__(self):
        self.starts: list[float] = []
        self._busy = [0.0]     # prefix sums of probe times
        self._speed = [0.0]    # prefix sums of speeds

    def _sample(self, signum, frame):
        t0 = perf()
        d = {}
        for i in range(PROBE_ITERS):
            d[i & 1023] = d.get((i * 7) & 1023, 0) + i
        dur = perf() - t0
        self.starts.append(t0)
        self._busy.append(self._busy[-1] + dur)
        self._speed.append(self._speed[-1] + PROBE_REF_S / dur)

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def speed(self, a: float, b: float) -> float:
        lo = bisect_left(self.starts, a - PROBE_WINDOW_S)
        hi = bisect_right(self.starts, b + PROBE_WINDOW_S)
        if hi > lo:
            return (self._speed[hi] - self._speed[lo]) / (hi - lo)
        return self.mean_speed()

    def mean_speed(self) -> float:
        return self._speed[-1] / len(self.starts) if self.starts else 1.0

    def own(self, a: float, b: float) -> float:
        """Wall seconds in [a, b] not spent in probes."""
        return b - a - (self._busy[bisect_left(self.starts, b)]
                        - self._busy[bisect_left(self.starts, a)])

    def seconds(self, a: float, b: float) -> float:
        return self.own(a, b) * self.speed(a, b)


class Tracer:
    """Records the harness's calls into skewtab, grouped into checked ops.

    Every call's interval is kept with its op, which is how op times are
    measured.  With `on`, each call, op and batch also leaves a span (name,
    start, end, parent span, op id) in memory; spans are written out only
    when the run ends.
    """

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._calls: list | None = None

    def call(self, fn, *args, **kwargs):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        with self.span(name) as rec:
            out = fn(*args, **kwargs)
        if self._calls is not None:
            self._calls.append(rec)
        return out

    @contextmanager
    def span(self, name: str):
        rec = [name, perf(), None, None, self._op]
        if self.on:
            rec[3] = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf()
            if self.on:
                self._stack.pop()

    @contextmanager
    def op(self, key, run):
        """One checked op; a raised exception fails the op, not the run."""
        self._op, self._calls = key, []
        try:
            with self.span(f"harness.{key[0]}"):
                yield
        except Exception as exc:
            if (not isinstance(exc, CheckFailed)
                    and len(run.failures) < Run.SHOWN_FAILURES):
                traceback.print_exc()
            run.fail(key, f"{type(exc).__name__}: {exc}")
        finally:
            run.ops.append((key, self._calls))
            self._op = self._calls = None


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


class Run:
    """Op outcomes and intervals of one benchmark run."""

    SHOWN_FAILURES = 20  # printed in full; the rest are only counted

    def __init__(self):
        self.ops: list[tuple] = []   # (key, call spans) of the current batch
        self.failures: list[str] = []
        self.values: dict[str, float] = {}

    def fail(self, key, why: str) -> None:
        self.failures.append(f"{key}: {why}")
        if len(self.failures) <= self.SHOWN_FAILURES:
            print(f"bench: op {key} FAILED: {why}", file=sys.stderr)


# ---------------------------------------------------------------------------
# counts


def _random_shapes(st, rng: random.Random, sz: dict) -> list:
    """Seeded random connected skew shapes in the style of test c01, each
    with the free vertex count of its region.

    Enumeration cost grows exponentially with the region's vertex count (a
    40-cell shape took 185 s), so besides c01's cell cap the region is
    capped too; the drawn shapes are many, so the median and tail of the
    certify time move little from seed to seed.
    """
    seen: set = set()
    out = []
    while len(out) < sz["n_shapes"]:
        rows = rng.randint(1, 10)
        lam = sorted((rng.randint(1, 10) for _ in range(rows)), reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = st.SkewShape(lam, mu)
        except ValueError:
            continue  # disconnected
        key = (tuple(sh.outer), tuple(sh.inner))
        if not 1 <= sh.size <= sz["max_cells"] or key in seen:
            continue
        seen.add(key)
        region = st.build_region(sh)
        if len(region.vertices) < sz["max_vertices"]:
            out.append((sh, len(region.free)))
    return out


def setup_counts(st, seed: int, sz: dict) -> dict:
    rng = random.Random(seed)
    drawn = _random_shapes(st, rng, sz)
    shapes = [sh for sh, _ in drawn]
    hook = st.thick_hook_shape(*sz["hook"])
    n_hook = hook.size
    hooks = st.hook_table(hook.outer).product()
    sides = sz["finite_n_sides"]
    sizes = [3 * k * k for k in sides]
    return {
        "shapes": shapes,
        "free_vertices": sum(nfree for _, nfree in drawn),
        "hook": hook,
        "hook_region": st.build_region(hook),
        "hook_w": st.hook_weights(hook),
        # log Z = log f + log H(lambda) - log N!, f from the closed form
        "hook_logz": math.log(st.count_thick_hook(*sz["hook"]))
        + math.log(hooks) - math.lgamma(n_hook + 1),
        "eps": list(sz["eps"]),
        "sizes": sizes,
        "finite_n_ref": [
            (math.log(st.count_thick_hook(k, k, k)) - 0.5 * n * math.log(n))
            / n
            for k, n in zip(sides, sizes)
        ],
        "det_dims": [len(st.thick_hook_shape_of_size(n).outer) for n in sizes],
    }


def batch_counts(st, inp: dict, tr: Tracer, run: Run) -> None:
    for i, sh in enumerate(inp["shapes"]):
        with tr.op(("certify", i), run):
            region = tr.call(st.build_region, sh)
            det = tr.call(st.count_determinant, sh)
            nhlf = tr.call(st.count_nhlf, region)
            counts = [det, nhlf]
            if sh.size <= 25:
                counts.append(tr.call(st.count_brute_force, sh))
            require(len(set(counts)) == 1,
                    f"{sh!r}: routes disagree {counts}")
    with tr.op(("partition_function",), run):
        z = tr.call(st.partition_function, inp["hook_region"], inp["hook_w"])
        ref = inp["hook_logz"]
        require(abs(z.value - ref) <= 1e-9 * max(1.0, abs(ref)),
                f"log Z {z.value!r} against exact {ref!r}")
    with tr.op(("cap_gaps",), run):
        eps = inp["eps"]
        gaps = tr.call(st.cap_gaps, inp["hook_region"], inp["hook"].size, eps)
        bounds = [e * e * (1.0 - math.log(e)) for e in eps]
        ok = all(-1e-12 <= g <= b for g, b in zip(gaps, bounds))
        order = sorted(range(len(eps)), key=lambda k: -eps[k])
        ok = ok and all(gaps[a] >= gaps[b] - 1e-12
                        for a, b in zip(order, order[1:]))
        require(ok, f"cap gaps {gaps} outside [0, eps^2(1-log eps)] "
                    f"or not monotone in eps")
    with tr.op(("finite_n_constant",), run):
        vals = tr.call(st.finite_n_constant, st.thick_hook_shape_of_size,
                       inp["sizes"])
        ref = inp["finite_n_ref"]
        require(len(vals) == len(ref) and all(
            abs(a - b) <= 1e-12 for a, b in zip(vals, ref)),
            f"finite-N constants {vals} against closed form {ref}")


def values_counts(inp: dict, run: Run, fn_s: dict) -> dict:
    shapes = inp["shapes"]
    return {
        "tiling.free_vertices": float(inp["free_vertices"]),
        "nhlf.calls": float(len(shapes) + 2),
        "exact.count_determinant_calls": float(len(shapes)
                                               + len(inp["sizes"])),
        "exact.det_dim_max": float(max(
            [len(sh.outer) for sh in shapes] + inp["det_dims"])),
    }


# ---------------------------------------------------------------------------
# sampling


def _triangles(vertices) -> tuple[set, set]:
    """Up and down triangle roots of a vertex set (tiling.py's convention)."""
    def has(i, j):
        return (i, j) in vertices

    ups = {(i, j) for i, j in vertices
           if has(i + 1, j) and has(i + 1, j + 1)}
    downs = {(i, j) for i, j in vertices
             if has(i, j + 1) and has(i + 1, j + 1)}
    return ups, downs


def _tiling_ok(t, ups: set, downs: set, outer) -> bool:
    """Each triangle covered once and no horizontal lozenge outside `outer`.

    A lozenge covers one up and one down triangle; a full cover of the
    region's triangles is exactly a height function with its pinned
    boundary, and the mask forbids flat cells outside the outer shape.
    """
    if len(t.lozenges) != len(ups) or len(ups) != len(downs):
        return False
    up_seen, down_seen = set(), set()
    for typ, x, y in t.lozenges:
        if typ == 3:
            if (x, y) not in outer:
                return False
            up = down = (x - 1, y - 1)
        elif typ == 1:
            up, down = (x, y), (x + 1, y)
        elif typ == 2:
            up, down = (x, y + 1), (x, y)
        else:
            return False
        up_seen.add(up)
        down_seen.add(down)
    return up_seen == ups and down_seen == downs


def setup_sampling(st, seed: int, sz: dict) -> dict:
    rng = random.Random(seed)
    shape = st.thick_hook_shape(*sz["sample_hook"])
    region = st.build_region(shape)
    ais_shape = st.thick_hook_shape(*sz["ais_hook"])
    n = ais_shape.size
    f = st.count_determinant(ais_shape)
    ups, downs = _triangles(region.vertices)
    return {
        "region": region,
        "w": st.hook_weights(shape),
        "outer": shape.outer,
        "ups": ups,
        "downs": downs,
        "n_samples": sz["n_samples"],
        "sample_seed": rng.randrange(2 ** 32),
        # the documented defaults of sample()
        "steps": 20 * len(region.vertices) ** 2
        + sz["n_samples"] * max(1, len(region.free)),
        "ais_region": st.build_region(ais_shape),
        "ais_w": st.hook_weights(ais_shape),
        "particles": sz["particles"],
        "ais_seed": rng.randrange(2 ** 32),
        "logz": math.log(f)
        + math.log(st.hook_table(ais_shape.outer).product())
        - math.lgamma(n + 1),
    }


def batch_sampling(st, inp: dict, tr: Tracer, run: Run) -> None:
    with tr.op(("sample",), run):
        tilings = tr.call(st.sample, inp["region"], inp["w"],
                          n_samples=inp["n_samples"], seed=inp["sample_seed"])
        dens = tr.call(st.density, tilings)
        bad = sum(not _tiling_ok(t, inp["ups"], inp["downs"], inp["outer"])
                  for t in tilings)
        rows_ok = all(abs(sum(r[2:5]) - 1.0) <= 1e-9 for r in dens.rows())
        require(len(tilings) == inp["n_samples"] and not bad and rows_ok,
                f"{bad} invalid of {len(tilings)} tilings, "
                f"density rows sum to 1: {rows_ok}")
    with tr.op(("estimate_logZ",), run):
        est = tr.call(st.estimate_logZ, inp["ais_region"], inp["ais_w"],
                      particles=inp["particles"], seed=inp["ais_seed"])
        # AIS error is reported as a z-score, not gated: only an exception
        # or a non-finite estimate fails the op.
        require(math.isfinite(est.value) and math.isfinite(est.stderr),
                f"non-finite AIS estimate {est.value} +- {est.stderr}")
        run.values["sampler.ais_stderr"] = est.stderr
        run.values["sampler.ais_z"] = ((est.value - inp["logz"]) / est.stderr
                                       if est.stderr > 0 else 0.0)


def values_sampling(inp: dict, run: Run, fn_s: dict) -> dict:
    out = {
        "tiling.free_vertices": float(len(inp["region"].free)
                                      + len(inp["ais_region"].free)),
        "sampler.burn_in_steps": float(20 * len(inp["region"].vertices) ** 2),
    }
    sample_s = fn_s.get("sampler.sample")
    if sample_s:  # absent when every sample() call raised
        out["sampler.steps_per_s"] = inp["steps"] / sample_s
        out["sampler.samples_per_s"] = inp["n_samples"] / sample_s
    return out


# ---------------------------------------------------------------------------
# asymptotics


def _hexagon_target(st) -> float:
    """Box-count fit of log(boxed plane partitions)/n^2, as `repro` does."""
    import numpy as np

    ns = [45, 50, 55, 60]
    vals = [math.log(st.macmahon(n, n, n)) / (n * n) for n in ns]
    basis = np.array([[math.log(n) / n, 1.0 / n, 1.0] for n in ns])
    coef, *_ = np.linalg.lstsq(basis, np.array(vals), rcond=None)
    return float(coef[2])


def setup_asymptotics(st, seed: int, sz: dict) -> dict:
    return {
        "hexagon_target": _hexagon_target(st),
        "profile": st.thick_hook_profile(1.0, 1.0),
        "mesh_n": sz["mesh_n"],
        "gates": sz["gates"],
    }


def batch_asymptotics(st, inp: dict, tr: Tracer, run: Run) -> None:
    hex_gate, hook_gate = inp["gates"]
    with tr.op(("hexagon",), run):
        fn = tr.call(st.unit_hexagon_functional)
        mesh = tr.call(st.maximize, fn, mesh_n=inp["mesh_n"], tol=1e-4)
        err = abs(mesh.psi_value - inp["hexagon_target"])
        require(err < hex_gate,
                f"hexagon entropy off by {err} (gate {hex_gate})")
        run.values["_hexagon"] = (err, mesh)
    with tr.op(("thick_hook",), run):
        k = tr.call(st.k_psi, inp["profile"])
        res = tr.call(st.constant, inp["profile"], mesh_n=inp["mesh_n"])
        err = abs(res.value - THICK_HOOK_C)
        require(err < hook_gate and abs(res.k_psi - k) <= 1e-12,
                f"thick-hook constant off by {err} (gate {hook_gate}), "
                f"k_psi {res.k_psi} against {k}")
        run.values["_thick_hook"] = (err, res.mesh)


def values_asymptotics(inp: dict, run: Run, fn_s: dict) -> dict:
    solved = [run.values.pop(k) for k in ("_hexagon", "_thick_hook")
              if k in run.values]
    if not solved:
        return {}
    meshes = [m for _, m in solved]
    return {
        "varsolve.solve_err": max(e for e, _ in solved),
        "varsolve.sweeps": float(sum(m.sweeps for m in meshes)),
        "varsolve.nodes": float(sum(int(m.free.sum()) for m in meshes)),
        "varsolve.kkt_residual": max(m.kkt_residual for m in meshes),
        "varsolve.refine_gap": max(m.refine_gap for m in meshes),
    }


SETUP = {"counts": setup_counts, "sampling": setup_sampling,
         "asymptotics": setup_asymptotics}
BATCH = {"counts": batch_counts, "sampling": batch_sampling,
         "asymptotics": batch_asymptotics}
VALUES = {"counts": values_counts, "sampling": values_sampling,
          "asymptotics": values_asymptotics}


# ---------------------------------------------------------------------------


def _tail(xs: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with 10 ops beyond it."""
    xs = sorted(xs)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _self_times(spans, first: int, end: int, speed) -> dict[str, float]:
    """Reference seconds per layer over spans[first:end], minus children.

    A span's own time is converted at the span's own speed, so self times
    add up to the batch time.
    """
    own = [speed.own(r[1], r[2]) for r in spans[first:end]]
    for r in spans[first:end]:
        if r[3] is not None and r[3] >= first:
            own[r[3] - first] -= speed.own(r[1], r[2])
    out: dict[str, float] = {}
    for r, t in zip(spans[first:end], own):
        layer = r[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t * speed.speed(r[1], r[2])
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sz = SIZES["smoke" if args.smoke else "full"]

    speed = SpeedProbe()
    with speed.running():
        t0 = perf()
        import skewtab as st

        inp = SETUP[args.workload](st, args.seed, sz)
        setup_s = speed.seconds(t0, perf())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, st, inp, setup_s, speed)


def _measure(args, st, inp: dict, setup_s: float, speed: SpeedProbe) -> int:
    """Run the workload's batches, then print the run's one JSON line.

    Batches repeat the same inputs until the time is up.  A traced run
    alternates untraced and traced batches, so the difference of their
    medians is the tracing overhead.  Each batch is reduced to numbers as
    it ends, so memory does not grow with the number of batches.
    """
    tr = Tracer()
    run = Run()
    walls = {False: [], True: []}
    raw_walls = []
    op_times: dict[tuple, list[float]] = {}
    fn_batch = {False: [], True: []}  # reference seconds per function
    selfs = []
    attempted = 0
    start = perf()
    while True:
        first = len(tr.spans)
        with tr.span("harness.batch") as rec:
            BATCH[args.workload](st, inp, tr, run)
        walls[tr.on].append(speed.seconds(rec[1], rec[2]))
        if not tr.on:
            raw_walls.append(rec[2] - rec[1])
        fns: dict[str, float] = {}
        for key, calls in run.ops:
            t = 0.0
            for name, c0, c1, _, _ in calls:
                dt = speed.seconds(c0, c1)
                fns[name] = fns.get(name, 0.0) + dt
                t += dt
            op_times.setdefault(key, []).append(t)
        fn_batch[tr.on].append(fns)
        if tr.on:
            selfs.append(_self_times(tr.spans, first, len(tr.spans), speed))
        attempted += len(run.ops)
        run.ops.clear()
        done = perf() - start + (rec[2] - rec[1]) > args.seconds
        if done and (not args.trace or walls[True]):
            break
        if args.trace:
            tr.on = not tr.on

    def fn_median(batches):
        return {n: statistics.median(fb.get(n, 0.0) for fb in batches)
                for n in {n for fb in batches for n in fb}}

    values = VALUES[args.workload](inp, run, fn_median(fn_batch[False]
                                                       + fn_batch[True]))
    # per op: median over batches; counts' op stats cover shape certifying
    per_op = [statistics.median(v) for k, v in op_times.items()
              if args.workload != "counts" or k[0] == "certify"]
    tail, tail_pct = _tail(per_op)
    metrics = {
        "wall_s": statistics.median(walls[False]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail,
        "speed.raw_wall_s": statistics.median(raw_walls),
        "speed.factor": 1.0 / speed.mean_speed(),
        **values,
        **{k: v for k, v in run.values.items() if not k.startswith("_")},
    }
    trace_out = None
    if args.trace:
        fn_s = fn_median(fn_batch[True])
        for name, (_, _, span_names) in PER_LAYER.items():
            if span_names:
                metrics[name] = sum(fn_s.get(n, 0.0) for n in span_names)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = statistics.median(
                s.get(layer, 0.0) for s in selfs)
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.untraced_wall_s"] = metrics["wall_s"]
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - metrics["wall_s"])
        metrics["trace.spans"] = float(len(tr.spans) / len(walls[True]))
        for name in PER_LAYER:
            metrics.setdefault(name, 0.0)  # a layer this workload never calls
        trace_out = {
            "spans": ["name", "start", "end", "parent", "op"],
            "records": tr.spans,
        }

    print(json.dumps({
        "attempted": attempted,
        "failed": len(run.failures),
        "failures": run.failures[:Run.SHOWN_FAILURES],
        "metrics": metrics,
        "op_tail_pct": tail_pct,
        "ops": len(per_op),
        "batches": len(walls[False]) + len(walls[True]),
        "env": environment(),
        "trace": trace_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
