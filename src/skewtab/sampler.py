"""Single-site Metropolis dynamics over a region's height functions.

One Metropolis kernel, `_kernel`, serves every chain in this module.  It
proposes, at a uniformly random free vertex, the other legal height value
(each free vertex has at most two), and accepts with the Metropolis rule
min(1, exp(beta * delta log weight)).  The proposal is its own inverse,
so detailed balance holds for any weight field: a mapping from cell to
log weight, in which an unlisted cell has log weight 0.

A chain's state is one int list from start to finish, the height vector
in `Region.moves().order`; the move table gives each free vertex its
index and those of its six neighbours; the outer shape needs no term,
since the region pins every chain step that leaves it.  In a valid state
every neighbour differs from h(v) by 0 or 1, so the legal interval
reduces to equality tests: v can rise only if h(v - e3) = h(v), and fall
only otherwise.  A flip toggles only the
horizontal lozenges at v and v + e3, so a rise changes the log weight by
logw(v + e3) - logw(v) and a fall by the negative; the two acceptance
probabilities of every row are computed once per (region, w, beta).
Randomness is drawn in blocks: for each chunk of m = min(remaining,
CHUNK) proposals, m row indices (`rng.integers(n, size=m)`) and then m
uniforms (`rng.random(m)`), and a proposal is accepted when its uniform
lies below its acceptance probability.  The same draws give the same
chain as the dict-keyed loop on the neighbour-by-neighbour flip interval
and `_delta_logw` (kept as `mix_reference` in the test oracles).

Both public chains start at the pointwise lowest height function, whose
flat cells are the inner shape (`MoveTable.heights`), and burn in for
`_burn_in(region)` = 20 * (number of vertices)^2 proposals.  On a
straight or empty shape that state is the only one.
`sample` runs the kernel at beta = 1 for burn-in and thinning and hands
out `Tiling`s of the chain's height vector.
`estimate_logZ` is an annealed importance sampler (Neal, Stat. Comput.
11, 2001) whose base measure is the uniform one, with its log state count
taken exactly from `partition_function`'s LGV engine (`nhlf._tiling_sum`).
One beta = 0 chain supplies the particle starts, one every
sweeps_per_level sweeps after its burn-in, so each start is marginally
uniform and each importance weight unbiased;
each particle then anneals on its own generator along the inverse
temperature schedule beta.  Jackknife resampling over particles gives the
standard error, and the estimate carries the run's acceptance rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_count
from .nhlf import (WeightField, _check_weights, partition_function,
                   tiling_weight, uniform_weights)
from .tiling import Tiling, _as_region

CHUNK = 4096  # proposals per block of drawn randomness


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _delta_logw(region, hd: dict, v, new: int, w: WeightField) -> float:
    """Log weight change of setting h[v] = new.

    Only the horizontal lozenges at cells v and v + e3 can toggle.
    """
    i, j = v
    old = hd[v]
    delta = 0.0
    p3 = (i - 1, j - 1)
    if p3 in region.vertices:
        lw = w.get(v, 0.0)
        delta += lw * ((new == hd[p3]) - (old == hd[p3]))
    q3 = (i + 1, j + 1)
    if q3 in region.vertices:
        lw = w.get(q3, 0.0)
        delta += lw * ((hd[q3] == new) - (hd[q3] == old))
    return delta


def _burn_in(region) -> int:
    """Burn-in of every chain started at the lowest height function."""
    return 20 * len(region.vertices) ** 2


def _lowest(region) -> list[int]:
    """The pointwise lowest height vector: the one whose flat cells are the
    inner shape's, all inside the outer shape."""
    return region.moves().heights(frozenset(region.shape.inner.cells()))


def _kernel(region, w: WeightField, beta: float):
    """The kernel of one (region, w, beta): run(h, rng, nsteps) makes
    nsteps proposals on the height vector h in place and returns the
    number accepted.  A region without free vertices draws nothing."""
    free = region.free
    rows = region.moves().rows
    # acceptance probability of a rise and of a fall, per row: a rise
    # unflattens the cell at v and flattens the one at v + e3
    gain = [beta * (w.get((i + 1, j + 1), 0.0) - w.get((i, j), 0.0))
            for i, j in free]
    rise = [math.exp(min(0.0, g)) for g in gain]
    fall = [math.exp(min(0.0, -g)) for g in gain]

    def run(h: list, rng: np.random.Generator, nsteps: int) -> int:
        if not free:
            return 0
        accepted = 0
        left = nsteps
        while left > 0:
            m = min(left, CHUNK)
            left -= m
            picks = rng.integers(len(free), size=m).tolist()
            us = rng.random(m).tolist()
            for r, u in zip(picks, us):
                k, a, b, c, x, y, z = rows[r]
                old = h[k]
                if h[c] == old:  # only a rise can be legal
                    if (h[a] != old or h[b] != old or h[x] == old
                            or h[y] == old or h[z] == old):
                        continue
                    if u < rise[r]:
                        h[k] = old + 1
                        accepted += 1
                else:  # only a fall can be legal
                    if (h[z] != old or h[a] == old or h[b] == old
                            or h[x] != old or h[y] != old):
                        continue
                    if u < fall[r]:
                        h[k] = old - 1
                        accepted += 1
        return accepted

    return run


def sample(shape, w: WeightField | None = None, burn_in: int | None = None,
           n_samples: int = 100, thin: int | None = None,
           seed: int = 0) -> list[Tiling]:
    """Draw tilings from the weight field's Gibbs measure.

    The chain starts at the pointwise lowest height function.  Defaults:
    burn_in = 20 * (number of vertices)^2 proposals, thinning of one sweep
    (one proposal per free vertex) between draws.  Counts must be integers,
    and the seed a nonnegative one.  Fixed seed, fixed output.
    """
    region = _as_region(shape)
    if w is None:
        w = uniform_weights()
    _check_weights(w)
    if burn_in is None:
        burn_in = _burn_in(region)
    if thin is None:
        thin = max(1, len(region.free))
    burn_in = check_count("burn_in", burn_in, 0)
    thin = check_count("thin", thin, 1)
    n_samples = check_count("n_samples", n_samples, 0)
    seed = check_count("seed", seed, 0)
    h = _lowest(region)
    run = _kernel(region, w, 1.0)
    rng = _rng(seed)
    run(h, rng, burn_in)
    out = []
    for _ in range(n_samples):
        run(h, rng, thin)
        out.append(Tiling(region, h))
    return out


@dataclass
class DensityField:
    """Per up-triangle frequencies of the three lozenge types."""

    region: object
    anchors: tuple
    freqs: np.ndarray  # shape (len(anchors), 3), rows sum to 1
    n: int

    def rows(self):
        for (x, y), f in zip(self.anchors, self.freqs):
            yield x, y, float(f[0]), float(f[1]), float(f[2]), self.n


def density(samples: list[Tiling]) -> DensityField:
    """Empirical lozenge type frequencies per upward triangle."""
    if not samples:
        raise ValueError("density needs at least one sample")
    region = samples[0].region
    if region is None or any(t.region is not region for t in samples):
        raise ValueError("samples must share one region")
    n = len(samples)
    table = region.moves()
    heights = np.array([t.heights for t in samples])
    cols = np.array([row[:3] for row in table.ups()],
                    dtype=np.intp).reshape(-1, 3)
    p, p1, p3 = (heights[:, cols[:, i]] for i in range(3))
    two = (p1 != p).sum(axis=0)
    three = ((p1 == p) & (p3 == p1)).sum(axis=0)
    freqs = np.stack([n - two - three, two, three], axis=1) / n
    anchors = tuple(table.order[row[0]] for row in table.ups())
    return DensityField(region, anchors, freqs, n)


@dataclass
class LogZEstimate:
    """Annealed importance sampling output with a jackknife standard error."""

    value: float
    stderr: float
    particles: int
    schedule: tuple
    log_count: float  # exact log of the number of tilings
    acceptance: float = 0.0  # accepted / proposed flips over the whole run

    def __float__(self) -> float:
        return self.value


def _check_schedule(schedule) -> list[float]:
    s = [float(b) for b in schedule]
    if not s:
        raise ValueError("schedule must not be empty")
    if not all(math.isfinite(b) for b in s):
        raise ValueError(f"schedule entries must be finite, got {s}")
    if abs(s[0]) > 1e-12:
        raise ValueError(f"schedule must start at 0, got {s[0]}")
    for a, b in zip(s, s[1:]):
        if b < a:
            raise ValueError(f"schedule must be nondecreasing, got {a} -> {b}")
    if s[-1] > 1.0 + 1e-12:
        raise ValueError(f"schedule must end at or below 1, got {s[-1]}")
    return s


def estimate_logZ(shape, w: WeightField | None = None, schedule=None,
                  sweeps_per_level: int = 12, particles: int = 64,
                  seed: int = 0) -> LogZEstimate:
    """Annealed importance sampling estimate of log Z with standard error.

    The anneal runs from the uniform measure, whose log normalizer is the
    exact state count from `partition_function`'s LGV engine (it
    enumerates nothing, so it needs no guard), to the weight field's Gibbs
    measure.  One
    beta = 0 chain, burned in for `sample`'s default burn-in, hands out a
    particle start every sweeps_per_level sweeps; each particle then
    anneals on its own generator with sweeps_per_level sweeps per schedule
    level.  A
    schedule stopping short of 1 estimates the partially tempered
    partition function.  Counts must be integers, and the seed a
    nonnegative one.
    """
    region = _as_region(shape)
    if w is None:
        w = uniform_weights()
    _check_weights(w)
    sched = _check_schedule(schedule if schedule is not None
                            else np.linspace(0.0, 1.0, 17))
    particles = check_count("particles", particles, 2)
    sweeps_per_level = check_count("sweeps_per_level", sweeps_per_level, 1)
    seed = check_count("seed", seed, 0)
    free = region.free
    h = _lowest(region)
    if not free:
        value = sched[-1] * tiling_weight(Tiling(region, h), w)
        return LogZEstimate(value, 0.0, particles, tuple(sched),
                            log_count=0.0)

    log_count = partition_function(region, uniform_weights()).value
    steps = sweeps_per_level * len(free)
    # the start chain runs at beta = 0 exactly, whatever sched[0] is
    start = _kernel(region, w, 0.0)
    levels = [(_kernel(region, w, b0), b1 - b0)
              for b0, b1 in zip(sched, sched[1:])]
    rng = _rng(seed)
    accepted = start(h, rng, _burn_in(region))
    lws = []
    for _ in range(particles):
        accepted += start(h, rng, steps)
        hp = list(h)
        prng = _rng(int(rng.integers(2 ** 63)))
        lw = 0.0
        for run, db in levels:
            accepted += run(hp, prng, steps)
            lw += db * tiling_weight(Tiling(region, hp), w)
        lws.append(lw)
    lws = np.array(lws)
    m = lws.max()
    total = float(m + math.log(np.exp(lws - m).mean()))
    # delete-one jackknife over particles
    jack = []
    for i in range(particles):
        rest = np.delete(lws, i)
        mr = rest.max()
        jack.append(mr + math.log(np.exp(rest - mr).mean()))
    jack = np.array(jack)
    stderr = float(math.sqrt(max((particles - 1) * jack.var(), 0.0)))
    return LogZEstimate(total + log_count, stderr, particles, tuple(sched),
                        log_count=log_count,
                        acceptance=accepted / (_burn_in(region)
                                               + particles * len(sched) * steps))
