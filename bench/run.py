"""skewtab benchmark launcher.

    python3 bench/run.py --workload counts --seed 1 --seconds 20 --trace 0

Workloads: counts, sampling, asymptotics (see bench/README.md).  Run from
the repository root; the package is imported from `src/`, not installed.

Each call starts the workload in a fresh interpreter (`harness.py`), so
set-up time and peak memory belong to that workload alone, with BLAS and
skewtab's own process pool pinned to one thread.  Untraced runs also start
a few set-up-only interpreters and report the median set-up time.

Output: one `env` line, one `metric <name> <value> <unit>` line per metric,
`fail_frac`, and as the last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics untraced, per-layer
metrics traced).  A traced run writes its spans to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4        # extra set-up-only interpreters per untraced run
DEADLINE_S = 175.0      # the whole call, probes included

sys.path.insert(0, str(HERE))
import harness  # noqa: E402  (stdlib only; skewtab is imported by the child)

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SKEWTAB_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args, extra: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd + extra, env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="skewtab benchmark")
    ap.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "skewtab" / "__init__.py").is_file():
        print(f"bench: no skewtab package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)

    try:
        setups = []
        if not args.trace:
            probes = 1 if args.smoke else SETUP_PROBES
            setups = [child(args, ["--setup-only"], env, deadline)["setup_s"]
                      for _ in range(probes)]
        res = child(args, [], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = res["metrics"]
    metrics["setup_s"] = statistics.median(setups + [metrics["setup_s"]])

    env_stamp = dict(res["env"], git_sha=git_sha(), workload=args.workload,
                     seed=args.seed, seconds=args.seconds, trace=args.trace,
                     smoke=args.smoke, batches=res["batches"], ops=res["ops"],
                     op_tail_pct=res["op_tail_pct"])
    print("env " + json.dumps(env_stamp, sort_keys=True))
    units = {k: v[0] for k, v in {**harness.END_TO_END,
                                  **harness.PER_LAYER}.items()}
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"fail_frac {fail_frac!r} ratio")
    for why in res["failures"]:
        print(f"failed {why}")

    if res["trace"] is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({"env": env_stamp, **res["trace"]}))
        print(f"trace {path.relative_to(ROOT)}")

    table = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
