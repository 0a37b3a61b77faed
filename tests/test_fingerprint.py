"""The exact layer's fingerprint: one sha256 over its outputs.

It covers `count_nhlf` and `partition_function(...).z` under hook and
hook/sqrt(N) weights on every connected lam/mu with |lam| <= 9 and on 100
seeded random shapes, and `cap_gaps` on th(3,3,3) as `float.hex`.  A
second sha256 pins the region layer on the same shapes: `vertices`,
`fixed`, `free`, `chains`, `depth` and the full `paths()` output.  A
change that claims to move no number must leave both hashes as they are;
one that moves numbers by design updates the hash it moves and says why.
"""
import hashlib
import random

from test_acceptance import _all_partitions_up_to, _subpartitions
from skewtab import (SkewShape, build_region, cap_gaps, count_nhlf,
                     hook_weights, partition_function, thick_hook_shape)

EXACT_SHA256 = "cf9221bb169ea4a867956d373a59fa0b2d1d90ed7c9fe10533320d3b3a6b6aaf"
REGION_SHA256 = "1399d3674197e9b2571e1dcc43e8a498caa24da49c7c20b82b1b3b3f47c60dfc"


def _shapes():
    for lam in _all_partitions_up_to(9):
        for mu in _subpartitions(lam):
            try:
                yield SkewShape(lam, mu)
            except ValueError:
                pass
    rng = random.Random(2041)
    done = 0
    while done < 100:
        lam = sorted((rng.randint(1, 10) for _ in range(rng.randint(2, 8))),
                     reverse=True)
        mu = sorted((rng.randint(0, v) for v in lam), reverse=True)
        try:
            sh = SkewShape(lam, mu)
        except ValueError:
            continue
        yield sh
        done += 1


def _lines():
    def frac(z):
        return f"{z.numerator:x}/{z.denominator:x}"

    for sh in _shapes():
        region = build_region(sh)
        line = [repr(sh), f"{count_nhlf(region):x}",
                frac(partition_function(region, hook_weights(sh)).z)]
        if sh.size:
            line.append(frac(partition_function(
                region, hook_weights(sh, scale=sh.size)).z))
        yield " ".join(line)
    gaps = cap_gaps(thick_hook_shape(3, 3, 3), 27, [0.5, 0.25, 0.1])
    yield "cap_gaps " + " ".join(g.hex() for g in gaps)


def _region_lines():
    for sh in _shapes():
        region = build_region(sh)
        yield " ".join(map(repr, (
            sh, sorted(region.vertices), sorted(region.fixed.items()),
            region.free, sorted(region.chains.items()), region.depth,
            region.paths())))


def _sha256(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_exact_layer_fingerprint():
    assert _sha256(_lines()) == EXACT_SHA256


def test_region_layer_fingerprint():
    assert _sha256(_region_lines()) == REGION_SHA256
