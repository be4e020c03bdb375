"""Seeded generation of the driving randomness.

Two kinds of paths: Brownian increments on a uniform time lattice, and
marked compound-Poisson event lists.  slab_weights bins either into one
weight per time slab, and slab_cumulant gives that weight's cumulants, which
fix every moment of the Ito sums; the compensator of a Poisson slab is its
first cumulant.
Paths are pure functions of (seed, stream_index) through the counter-based
Philox generator, so ensembles can be generated in any order or in
parallel and still reproduce bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox


@dataclass(frozen=True)
class MarkLaw:
    """Named jump-size distribution on R with closed-form moments.

    families:
      two-sided-exponential(rate):  density (rate/2) exp(-rate |z|)
      gaussian(scale):              N(0, scale^2)
    Both have finite moments of every order, so any p-moment hypothesis on
    the mark factor holds.
    """

    family: str = "two-sided-exponential"
    parameter: float = 1.0

    def __post_init__(self):
        if self.family not in ("two-sided-exponential", "gaussian"):
            raise ValueError(f"unknown mark family {self.family!r}")
        if self.parameter <= 0.0:
            raise ValueError("mark law parameter must be positive")
        try:  # parameter**2 can underflow to 0 or overflow
            usable = 0.0 < self.second_moment < math.inf
        except ArithmeticError:
            usable = False
        if not usable:
            raise ValueError(f"mark law parameter {self.parameter!r} gives {self.family} "
                             "marks no positive finite second moment")

    def sample(self, rng: Generator, size: int) -> np.ndarray:
        if self.family == "two-sided-exponential":
            mag = rng.exponential(1.0 / self.parameter, size)
            sign = rng.integers(0, 2, size) * 2 - 1
            return mag * sign
        return rng.normal(0.0, self.parameter, size)

    def abs_moment(self, q: float) -> float:
        """E|z|^q."""
        if self.family == "two-sided-exponential":
            return math.gamma(q + 1.0) / self.parameter**q
        return self.parameter**q * 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)

    @property
    def second_moment(self) -> float:
        return self.abs_moment(2.0)


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity jump measure nu = intensity * mark density."""

    intensity: float
    mark: MarkLaw = MarkLaw()

    def __post_init__(self):
        if self.intensity <= 0.0:
            raise ValueError("jump intensity must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Driving noise: kind, horizon, time steps, jump structure, seed."""

    kind: str
    horizon: float
    steps: int
    seed: int = 0
    jump: JumpSpec | None = None

    def __post_init__(self):
        if self.kind not in ("brownian", "poisson"):
            raise ValueError(f"kind must be 'brownian' or 'poisson', got {self.kind!r}")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.steps < 2:
            raise ValueError("need at least 2 time steps")
        if self.kind == "poisson" and self.jump is None:
            raise ValueError("poisson noise needs a JumpSpec")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


@dataclass
class NoisePath:
    """One realization of the driving noise.

    Brownian: increments[i] over [t_i, t_{i+1}), variance dt each.
    Poisson: strictly increasing event times in (0, T] with i.i.d. marks.
    """

    increments: np.ndarray | None = None
    times: np.ndarray | None = None
    marks: np.ndarray | None = None


# float64 arrays of event_block(spec) entries that one Poisson path holds at its peak, drawn
# by sample_path and binned by slab_weights (tracemalloc: 6.1 with gaussian marks, 8.0 with
# two-sided-exponential marks)
PATH_ARRAYS = 8


def event_block(spec: NoiseSpec) -> float:
    """Events sample_path draws per block of a Poisson path: the mean count lambda T plus six
    standard deviations plus 10, so that one block nearly always reaches the horizon."""
    lam_t = spec.jump.intensity * spec.horizon
    return lam_t + 6.0 * math.sqrt(lam_t) + 10.0


def keyed_rng(seed: int, stream: int) -> Generator:
    """The Philox generator of every seeded draw in holderlab: its key is two 64-bit words,
    (seed mod 2^64, stream mod 2^64), so any integer seed is accepted.  The words go in as
    uint64: a list of Python ints above 2^63 would be rounded through float64."""
    return Generator(Philox(key=np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)))


def sample_path(spec: NoiseSpec, stream_index: int = 0) -> NoisePath:
    """Deterministic function of (spec.seed, stream_index).

    Distinct stream indices use distinct Philox keys and give statistically
    independent paths.
    """
    if stream_index < 0:
        raise ValueError("stream_index must be >= 0")
    rng = keyed_rng(spec.seed, stream_index)
    if spec.kind == "brownian":
        inc = rng.normal(0.0, math.sqrt(spec.dt), spec.steps)
        return NoisePath(increments=inc)

    lam, T = spec.jump.intensity, spec.horizon
    block = int(event_block(spec))
    gaps = rng.exponential(1.0 / lam, block)
    times = np.cumsum(gaps)
    while times[-1] <= T:
        gaps = rng.exponential(1.0 / lam, block)
        times = np.concatenate([times, times[-1] + np.cumsum(gaps)])
    times = times[times <= T]
    marks = spec.jump.mark.sample(rng, times.size)
    return NoisePath(times=times, marks=marks)


def slab_cumulant(spec: NoiseSpec, n: int) -> float:
    """n-th cumulant of one time slab's uncompensated weight: dt at n = 2 (else 0) for the
    Brownian increment, intensity * E[z^n] * dt for the sum of the marks z of the slab's
    Poisson events (odd n give 0, as both mark laws are symmetric)."""
    if spec.kind == "brownian":
        return spec.dt if n == 2 else 0.0
    m_n = 0.0 if n % 2 else spec.jump.mark.abs_moment(float(n))
    return spec.jump.intensity * m_n * spec.dt


def slab_weights(spec: NoiseSpec, M: int, slabs: int) -> np.ndarray:
    """w[m, k] for the first slabs slabs k: slab k's weight in realization m (stream m),
    centered by its first cumulant: the increment dW_k, or the sum of the marks of the events
    binned into slab k minus slab_cumulant(spec, 1).  Each path is drawn whole, so a column
    does not depend on slabs."""
    n_t = spec.steps
    comp = slab_cumulant(spec, 1)
    w = np.empty((M, slabs))
    for m in range(M):
        path = sample_path(spec, m)
        if spec.kind == "brownian":
            w[m] = path.increments[:slabs]
            continue
        bins = np.clip(np.floor(path.times / spec.dt).astype(int), 0, n_t - 1)
        w[m] = np.bincount(bins, weights=path.marks, minlength=n_t)[:slabs] - comp
    return w
