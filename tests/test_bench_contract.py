"""The benchmark's calls into skewtab, run in-process at smoke size.

`bench/harness.py` times skewtab from outside the package and checks every
op's answer.  Running each workload's setup, one batch and its values here
makes a change that breaks a call or attribute the benchmark uses fail in
the unit tests, without the subprocess runs of `bench/test_smoke.py`.
Each workload runs two batches on the same inputs, as a timed run does,
so a batch that meets what an earlier one cached (the `counts` hook
region keeps its lattice paths) must pass every check too.
"""
import math
import sys
from pathlib import Path

import pytest

import skewtab as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import harness  # noqa: E402


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_batch_fails_no_op(workload):
    inp = harness.SETUP[workload](st, 3, harness.SIZES["smoke"])
    tr, run = harness.Tracer(), harness.Run()
    cached = []
    for _ in range(2):
        harness.BATCH[workload](st, inp, tr, run)
        assert run.ops and not run.failures, run.failures
        fn_s: dict[str, float] = {}
        for _, calls in run.ops:
            for name, c0, c1, _, _ in calls:
                fn_s[name] = fn_s.get(name, 0.0) + (c1 - c0)
        values = harness.VALUES[workload](inp, run, fn_s)
        assert values and set(values) <= set(harness.PER_LAYER), values
        assert all(math.isfinite(v) for v in values.values()), values
        run.ops.clear()
        if workload == "counts":
            cached.append(inp["hook_region"]._paths)
    # the second batch summed over the paths the first one built
    assert workload != "counts" or cached[0] is cached[1] is not None
