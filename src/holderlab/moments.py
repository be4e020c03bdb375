"""Monte Carlo p-moment estimates E|u(X) - u(Y)|^p over sampled point pairs.

Pair subsampling replaces the full double integral over a cylinder by
uniform pairs (unbiased for the pairwise average); the dyadic-lag rule
places pairs at controlled parabolic separations for scaling fits.
Pairs are lattice indices and depend only on the saved lattice, so they can be drawn before
simulating.  FieldEnsemble.differences(pairs) builds their PairEnsemble, which holds the PairSet,
the table of slab differences D and the slab weights w; the estimator forms u(X) - u(Y) = D w^T
from it one block of at most PAIR_CHUNK // M pairs of a requested lag, or of within-cylinder
pairs, at a time, so no (M, pairs) array is ever whole.  The lattice, like the field, is 1-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .campanato import ParabolicCylinder, parabolic_distance
from .convolution import PAIR_CHUNK, Lattice, even_blocks
from .errors import (DimensionMismatch, EmptyCylinder, EmptyRequest, EnsembleTooSmall,
                     MomentOverflow, PairOffGrid)
from .noise import keyed_rng

MIN_ENSEMBLE = 30


@dataclass
class PairSet:
    """Space-time point pairs addressed by ensemble lattice indices.

    time index = position on the full time lattice (units of dt), so a member's time is
    t_idx * dt; space index = position in the ascending spatial lattice, so its coordinate is
    grid.axis()[s_idx].  delta is the parabolic distance of each pair, requested_delta the
    target lag for dyadic-lag sampling (NaN for within-cylinder pairs).
    """

    t_idx1: np.ndarray
    s_idx1: np.ndarray
    t_idx2: np.ndarray
    s_idx2: np.ndarray
    delta: np.ndarray
    requested_delta: np.ndarray

    @property
    def size(self) -> int:
        return self.t_idx1.size

    @classmethod
    def on(cls, lattice: Lattice, t_idx1, s_idx1, t_idx2, s_idx2, requested_delta) -> "PairSet":
        """The pairs of these indices on lattice, with the parabolic distance of each."""
        dt, x = lattice.dt, lattice.grid.axis()
        delta = parabolic_distance(t_idx1 * dt, x[s_idx1], t_idx2 * dt, x[s_idx2])
        return cls(t_idx1, s_idx1, t_idx2, s_idx2, delta, requested_delta)

    @classmethod
    def concatenate(cls, sets) -> "PairSet":
        """The pairs of every set, in order."""
        return cls(*(np.concatenate([getattr(s, f.name) for s in sets]) for f in fields(cls)))


@dataclass
class MomentField:
    """Per-pair moment estimates with Monte Carlo standard errors; per requested lag, the
    std (ddof=1) over m of the lag's mean of |u_m(X) - u_m(Y)|^p, over sqrt(M)."""

    p: float
    pairs: PairSet
    estimates: np.ndarray
    stderr: np.ndarray
    realization_stderr: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "delta": [float(v) for v in self.pairs.delta],
            "requested_delta": [float(v) for v in self.pairs.requested_delta],
            "estimate": [float(v) for v in self.estimates],
            "stderr": [float(v) for v in self.stderr],
        }


def lag_offsets(lag: float, dt: float, h: float) -> tuple[int, int]:
    """(time steps, lattice spacings) of a parabolic lag's pure-time and pure-space pairs:
    round(lag^2/dt) and round(lag/h), at least 1 (an exact half keeps a one-step snap).  Under
    half a step or half a spacing, or not finite, they are off the lattice: PairOffGrid."""
    steps, spacings = lag * lag / dt, lag / h
    if not (0.5 <= steps < np.inf and 0.5 <= spacings < np.inf):
        raise PairOffGrid(f"lag {lag:g} spans {steps:.3g} time steps of {dt:g} and "
                          f"{spacings:.3g} lattice spacings of {h:g}; a lag on the lattice "
                          "spans at least half of each, and finitely many")
    return max(1, round(steps)), max(1, round(spacings))


def _pair_blocks(pairs: PairSet, M: int) -> list:
    """(indices, lag) of each block the estimator reduces: the pairs of every requested lag,
    in pair order, then those without one (lag None), each group in the even_blocks of at most
    PAIR_CHUNK // M pairs."""
    rd = pairs.requested_delta
    lags = sorted(set(rd[~np.isnan(rd)].tolist()))  # np.unique's first call adds 1.6 MiB RSS
    return [(idx[lo:hi], lag) for lag in [*lags, None]
            for idx in [np.flatnonzero(np.isnan(rd) if lag is None else rd == lag)]
            for lo, hi in even_blocks(idx.size, PAIR_CHUNK // M)]


def estimate_pair_moments(ensemble, p: float) -> MomentField:
    """(1/M) sum_m |u_m(X) - u_m(Y)|^p per pair of the PairEnsemble, with standard errors.

    One (M, block) float64 array of at most PAIR_CHUNK // M pairs alive at a time (_pair_blocks),
    reduced in place and released before the next is formed.  Per-pair reductions run along the
    realization axis, and a lag's per-realization sums add its pairs in pair order across its
    blocks, as np.mean(axis=1) does: the blocks give the bits of one reduction over all pairs,
    the standard errors np.std(axis=0, ddof=1) / sqrt(M) in NumPy's order of operations.
    Deterministic given the ensemble; symmetric in the pair order.  The first block whose values
    or p-th powers overflow (estimates, standard errors or, at a lag's last block, its realization
    standard error not finite) raises MomentOverflow, the one report: NumPy's warnings are off.
    """
    if not 1.0 <= p < np.inf:
        raise ValueError(f"moment order p must be finite and >= 1, got {p}")
    M = ensemble.values.shape[0]
    if M < MIN_ENSEMBLE:
        raise EnsembleTooSmall(f"need M >= {MIN_ENSEMBLE}, got {M}")
    pairs, table, w = ensemble.pairs, ensemble.slab_differences, ensemble.values
    est, err, by_lag, sums = np.empty(pairs.size), np.empty(pairs.size), {}, {}
    blocks = _pair_blocks(pairs, M)
    last = {lag: b for b, (_, lag) in enumerate(blocks)}
    with np.errstate(over="ignore", invalid="ignore"):
        for b, (sel, lag) in enumerate(blocks):
            # u(X) - u(Y), (M, block) with the realizations contiguous, D[sel] alive only for the
            # product; BLAS rounds the presets' lag blocks as their rows of the whole product,
            # while one row (a matrix-vector kernel) or, at small M, a few can round differently
            powed = (table.rows(sel) @ w.T).T
            np.abs(powed, out=powed)
            powed **= p
            if lag is not None:  # its pairs' |u(X) - u(Y)|^p added one at a time, in pair order
                sums[lag] = sum(powed.T, sums.get(lag, 0.0))
                if b == last[lag]:
                    means = sums.pop(lag) / np.count_nonzero(pairs.requested_delta == lag)
                    by_lag[lag] = float(means.std(ddof=1) / np.sqrt(M))
            # np.mean, then np.std(ddof=1) with its temporary x - mean written over powed
            est[sel] = mean = np.add.reduce(powed, axis=0) / M
            np.square(np.subtract(powed, mean, out=powed), out=powed)
            err[sel] = np.sqrt(np.add.reduce(powed, axis=0) / (M - 1)) / np.sqrt(M)
            del powed  # not held while the next block is formed
            if not (np.isfinite(est[sel]).all() and np.isfinite(err[sel]).all()
                    and np.isfinite(by_lag.get(lag, 0.0))):
                raise MomentOverflow(f"p = {p} moment estimates are not finite: the field "
                                     "values or their p-th powers overflowed")
    return MomentField(p=p, pairs=pairs, estimates=est, stderr=err, realization_stderr=by_lag)


def cylinder_lattice(lattice: Lattice, cylinder: ParabolicCylinder):
    """(positions of the saved times, spatial lattice indices) inside the 1-D cylinder
    (t0 - c^2, t0 + c^2) x (x0 - c, x0 + c)."""
    t0, (x0,), c = cylinder.center.t, cylinder.center.x, cylinder.radius
    times = lattice.time_indices * lattice.dt
    return (np.nonzero(np.abs(times - t0) < c * c)[0],
            np.nonzero(np.abs(lattice.grid.axis() - x0) < c)[0])


def sample_pairs_within_cylinder(lattice: Lattice, cylinder: ParabolicCylinder,
                                 count: int, seed: int = 0) -> PairSet:
    """Uniform independent pairs of lattice points inside a cylinder.

    Both members are drawn uniformly from the saved lattice points lying in
    (t0 - c^2, t0 + c^2) x (x0 - c, x0 + c); fewer than two of them (a cylinder narrower
    than the lattice spacing) raise EmptyCylinder, as every pair would be zero.  A cylinder
    that is not 1-D raises DimensionMismatch.
    """
    if count < 1:
        raise EmptyRequest("count must be >= 1")
    if cylinder.dim != 1:
        raise DimensionMismatch(f"the lattice is 1-D, the cylinder {cylinder.dim}-D")
    ok_t, ok_x = cylinder_lattice(lattice, cylinder)
    if ok_t.size * ok_x.size < 2:
        raise EmptyCylinder(f"{ok_t.size * ok_x.size} saved lattice points inside {cylinder}, "
                            "fewer than a pair needs")
    rng = keyed_rng(seed, 0xC1)
    ti = lattice.time_indices[rng.choice(ok_t, 2 * count)]
    xi = rng.choice(ok_x, 2 * count)
    return PairSet.on(lattice, ti[:count], xi[:count], ti[count:], xi[count:],
                      np.full(count, np.nan))


def sample_pairs_dyadic(lattice: Lattice, lags, count: int, seed: int = 0) -> PairSet:
    """Pairs at controlled parabolic lags.

    For each lag delta, half the pairs are pure-time (same x, t separation
    snapped to round(delta^2/dt) steps) and half pure-space (same t,
    |x - y| snapped to round(delta/h) lattice spacings), both by lag_offsets.
    Base points are drawn from the central half of the box and from saved
    times that keep the partner on the saved lattice; per lag, every
    pure-time draw comes before every pure-space draw.  Achieved deltas are
    recorded next to the requested ones.  A lag finer than the lattice, or
    whose pure-space pairs do not fit inside the central half, raises
    PairOffGrid before anything is sampled.  Only the lattice is read (a
    FieldEnsemble serves as one), so pairs can be drawn before simulating.
    """
    if count < 1:
        raise EmptyRequest("count must be >= 1")
    dt, h, n = lattice.dt, lattice.grid.spacing, lattice.grid.points
    lo, hi = n // 4, 3 * n // 4
    offsets = [lag_offsets(lag, dt, h) for lag in lags]
    for lag, (_, spacings) in zip(lags, offsets):
        if spacings >= hi - lo:
            raise PairOffGrid(
                f"lag {lag:g} spans {spacings} lattice spacings, but the central "
                f"window holding the base points is {hi - lo} spacings wide")
    rng = keyed_rng(seed, 0xD7)
    on_lattice = set(lattice.time_indices.tolist())
    saved = sorted(on_lattice)

    rows = []  # (t_idx1, s_idx1, t_idx2, s_idx2) per pair, lag by lag
    for steps, spacings in offsets:
        time_bases = [i for i in saved if i + steps in on_lattice]
        n_time = count // 2 if time_bases else 0
        for _ in range(n_time):
            i, j = int(rng.choice(time_bases)), int(rng.integers(lo, hi))
            rows.append((i, j, i + steps, j))
        for _ in range(count - n_time):
            i, j = int(rng.choice(saved)), int(rng.integers(lo, hi - spacings))
            rows.append((i, j, i, j + spacings))

    return PairSet.on(lattice, *np.array(rows, dtype=int).reshape(-1, 4).T.copy(),
                      np.repeat(np.asarray(lags, dtype=float), count))
