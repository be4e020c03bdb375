"""Discretized stochastic convolutions driven by Brownian or Poisson noise.

The field is the Ito (left-endpoint) time discretization of

    u(t, x) = int_0^t [ p(t - r, .) * g(r, .) ](x)  dNoise(r)

on the periodic interval [-L, L) (the field is 1-D), with the spatial convolution done
spectrally.
The kernel factor of the most recent time slab is evaluated at lag dt/2
(midpoint) instead of its nominal lag dt, which tames the t -> r
singularity while keeping first-order weak accuracy.  Poisson events are
binned into time slabs and contribute from the first lattice time strictly
after the event; the compensator is subtracted slab-by-slab with the same
lag rule, which makes every realization exactly centered.

A realization is its slab weights w (noise.slab_weights): u(t_i, x) = sum_k F_i[k, x] w_k.  A
FieldEnsemble holds the (M, k) weights of the slabs before its last saved time index k, and
FieldEnsemble.save writes them, float64, to the ensemble's .bin.  Every consumer reads the field
as pair differences u(X) - u(Y) = sum_k D_k w_k: _slab_differences builds, a chunk of lag
symbols at a time, the table of D whose rows give their exact second moments and Monte Carlo
values; a PairEnsemble holds it, w and the PairSet it was built for.  The estimator
(moments.estimate_pair_moments) forms D w^T from them a block of pairs at a time; the exact
second moments are formed from the table only where they are read (second_moment_pairs, the
one exact oracle).  g moves in time only in its zero mode, so the table factors its spectrum
into one base spectrum and a shift per slab (_g_spectrum).  Realizations are pure functions of
(seed, stream_index).
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import GridMismatch, PairOffGrid
from .kernels import KernelSpec, SpectralGrid, symbol
from .noise import JumpSpec, MarkLaw, NoiseSpec, slab_cumulant, slab_weights

if typing.TYPE_CHECKING:
    from .moments import PairSet


@dataclass(frozen=True)
class TestFunctionSpec:
    """The coefficient g(t, x) = A (|x|^beta + t^(beta/2)) of the paper's equation, in the
    parabolic Holder class C^{beta, beta/2}: g(0, 0) = 0, parabolic Holder constant 2A.  A
    Poisson event of mark z enters with the factor z."""

    __test__ = False  # not a pytest class despite the name

    beta: float = 0.5
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")

    def evaluate(self, t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
        """g(t, x) at times t (a scalar or an array of x's shape) and radii |x|."""
        return self.amplitude * (np.abs(x) ** self.beta + t ** (self.beta / 2.0))


class Lattice(typing.NamedTuple):
    """Saved space-time lattice: time indices (units of dt) on a spatial grid."""

    dt: float
    grid: SpectralGrid
    time_indices: np.ndarray


PAIR_CHUNK = 2**18  # elements of each temporary of the pair path and its builders, or one row


def even_blocks(n: int, most: int):
    """(lo, hi) of consecutive blocks of range(n), in order, the largest first: ceil(n / B)
    blocks of sizes as equal as possible for B = max(most, 3), so none holds more than B
    items, nor a single one unless n = 1 (on one row matmul takes a matrix-vector kernel that
    rounds differently, and a pair's value would depend on its block)."""
    count = -(-n // max(most, 3))
    for j in range(count):
        yield -(-n * j // count), -(-n * (j + 1) // count)


@dataclass
class FieldEnsemble:
    """M realizations of the 1-D field on saved lattice times, held as what determines them:
    values, the (M, k) float64 weights of slabs 0 .. k - 1 for the last saved index k
    (noise.slab_weights), so that u_m(t_i, x) = sum_k F_i[k, x] values[m, k] for i <= k.
    u(0, .) = 0 for every realization (zero initial data).
    """

    values: np.ndarray
    time_indices: np.ndarray
    grid: SpectralGrid
    kernel: KernelSpec
    g: TestFunctionSpec
    noise: NoiseSpec

    @property
    def dt(self) -> float:
        return self.noise.dt

    @property
    def times(self) -> np.ndarray:
        return self.time_indices * self.dt

    def differences(self, pairs: PairSet) -> "PairEnsemble":
        """The PairEnsemble of pairs, drawn on this lattice: member times not among the saved
        ones raise GridMismatch, spatial indices off the lattice PairOffGrid.  It holds the
        first columns of values, as many as the table reads."""
        times = np.concatenate([pairs.t_idx1, pairs.t_idx2])
        if not np.isin(times, self.time_indices).all():
            raise GridMismatch(f"pair times {np.setdiff1d(times, self.time_indices)} are not "
                               "saved times")
        diff = _slab_differences(self.kernel, self.grid, self.g, self.noise, pairs.t_idx1,
                                 pairs.s_idx1, pairs.t_idx2, pairs.s_idx2)
        return PairEnsemble(self.values[:, :diff.shift.size], pairs, diff)

    def save(self, prefix: str) -> None:
        """Write the weights to {prefix}.bin, float64 in native byte order, and a JSON sidecar
        to {prefix}.json: weights, their [M, k]; shape, the [M, saved times, points] of the
        field they determine; the time indices and the fields of grid, kernel, g and noise (dt
        is noise.dt).  Each is written under a temporary name renamed when complete: the .bin
        first, the sidecar last, after any older sidecar is removed.  A write that fails or is
        stopped never leaves a sidecar over a partial .bin; weights that are not float64 of
        shape [M, last saved index], or a g not a TestFunctionSpec, raise ValueError first."""
        M, k = self.values.shape[0], int(self.time_indices[-1])
        if self.values.dtype != np.float64 or self.values.shape != (M, k):
            raise ValueError(f"{self.values.dtype} weights of shape {self.values.shape} for "
                             f"{M} realizations up to time index {k}")
        if not isinstance(self.g, TestFunctionSpec):
            raise ValueError(f"g {self.g!r} is not a TestFunctionSpec")
        sidecar = {name: asdict(getattr(self, name)) for name in ("grid", "kernel", "g", "noise")}
        sidecar.update(weights=[M, k], shape=[M, self.time_indices.size, self.grid.points],
                       time_indices=[int(i) for i in self.time_indices])
        partial = [Path(f"{prefix}.bin.partial"), Path(f"{prefix}.json.partial")]
        try:
            self.values.tofile(partial[0])
            with open(partial[1], "w") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")
            Path(f"{prefix}.json").unlink(missing_ok=True)
            os.replace(partial[0], f"{prefix}.bin")
            os.replace(partial[1], f"{prefix}.json")
        finally:
            for path in partial:
                path.unlink(missing_ok=True)

    @classmethod
    def load(cls, prefix: str, budget=lambda M, k, points: None) -> "FieldEnsemble":
        """What save wrote; ValueError, before the .bin is read, for a sidecar whose grid or
        kernel is not 1-D, whose time indices are not one or more strictly increasing whole
        numbers in [0, noise.steps], whose shape is not [M >= 1, len(time_indices),
        grid.points], whose weights are not [M, last saved index], or whose .bin does not hold
        that many float64 values.  Each spec takes every one of its fields from the sidecar,
        and the sidecar must have weights (KeyError if one is missing: a stored field, as
        earlier versions wrote, is never read as weights); keys a spec no longer has are
        ignored.  budget(M, k, grid points) is called before the .bin is read."""
        with open(f"{prefix}.json") as fh:
            side = json.load(fh)
        grid = _from_fields(SpectralGrid, side["grid"])
        kernel = _from_fields(KernelSpec, side["kernel"])
        if grid.dim != 1 or kernel.dim != 1:
            raise ValueError(f"the field is 1-D, got grid dim {grid.dim}, kernel dim {kernel.dim}")
        jump = side["noise"]["jump"]
        if jump is not None:
            jump = _from_fields(JumpSpec, {**jump, "mark": _from_fields(MarkLaw, jump["mark"])})
        noise = _from_fields(NoiseSpec, {**side["noise"], "jump": jump})
        time_indices = _saved(side["time_indices"], noise.steps, ValueError)
        m, *rest = side["shape"]
        if not m >= 1 or rest != [time_indices.size, grid.points]:
            raise ValueError(f"shape {side['shape']} is not [M >= 1, "
                             f"{time_indices.size} saved times, {grid.points} points]")
        k = int(time_indices[-1])
        if side["weights"] != [m, k]:
            raise ValueError(f"weights {side['weights']} are not [{m} realizations, {k} slabs]")
        path = f"{prefix}.bin"
        size = os.path.getsize(path)
        if size != 8 * m * k:
            raise ValueError(f"{path} holds {size} bytes, not the {8 * m * k} of {m} x {k} "
                             "float64 weights")
        budget(m, k, grid.points)
        return cls(values=np.fromfile(path, np.float64).reshape(m, k), time_indices=time_indices,
                   grid=grid, kernel=kernel, g=_from_fields(TestFunctionSpec, side["g"]),
                   noise=noise)


def _from_fields(cls, data: dict):
    """cls from data's values of every field cls has; other keys are ignored."""
    return cls(**{f.name: data[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class SlabDifferences:
    """D[n, k] = F_i1[k, x1] - F_i2[k, x2], (n_pairs, k_max), as F_i[k, x] = P[x, i - k] +
    shift[k] q0[i - k] for slabs k < i, 0 beyond: P the per-lag profiles at the members'
    positions only, x-major; q0 the lag symbols' zero mode; shift g's zero-mode shift."""

    profiles: np.ndarray  # (member positions, k_max + 1)
    q0: np.ndarray
    shift: np.ndarray
    members: tuple  # (i1, row1, i2, row2): time index and profile row of each member

    def rows(self, sel=slice(None)) -> np.ndarray:
        """D[sel], a new C-contiguous array, from reversed slices of the profiles."""
        i1, r1, i2, r2 = (a[sel] for a in self.members)
        out = np.zeros((i1.size, self.shift.size))
        for d, a, x, b, y in zip(out, i1, r1, i2, r2):
            d[:a] = self.profiles[x, a:0:-1] + self.shift[:a] * self.q0[a:0:-1]
            d[:b] -= self.profiles[y, b:0:-1] + self.shift[:b] * self.q0[b:0:-1]
        return out


@dataclass
class PairEnsemble:
    """u_m(X_n) - u_m(Y_n) = sum_k D[n, k] w[m, k] for the pairs it was built for, held as the
    table of D (n_pairs, k) and values, the slab weights w (M, k)."""

    values: np.ndarray
    pairs: PairSet
    slab_differences: SlabDifferences


def _whole(a, top: int, error) -> np.ndarray:
    """Indices as ints; anything but whole numbers in [0, top] (64.7, -1) raises error."""
    a = np.asarray(a)
    whole = np.all(np.isfinite(a) & (a == np.round(a)))
    if a.size and not (whole and a.min() >= 0 and a.max() <= top):
        raise error(f"indices {a.min()}..{a.max()} are not whole numbers in [0, {top}]")
    return a.astype(int)


def _saved(a, steps: int, error) -> np.ndarray:
    """Saved time indices, one or more strictly increasing whole numbers in [0, steps]."""
    idx = _whole(a, steps, error)
    if idx.ndim != 1 or not idx.size or np.any(np.diff(idx) <= 0):
        raise error(f"time indices {np.asarray(a).tolist()} are not a non-empty, strictly "
                    "increasing list")
    return idx


def _require_1d(kernel: KernelSpec, grid: SpectralGrid) -> None:
    """The stochastic field is 1-D: a kernel or grid of another dimension raises GridMismatch."""
    if kernel.dim != 1 or grid.dim != 1:
        raise GridMismatch(f"the field is 1-D, got kernel dim {kernel.dim}, grid dim {grid.dim}")


def _lag_symbols(kernel: KernelSpec, grid: SpectralGrid, dt: float, lo: int, hi: int):
    """Q[j - lo, f] for the lags j in range(lo, hi): kernel symbol at lag j*dt (midpoint dt/2
    for j=1).  Q at j = 0 is zero: no same-slab contribution (Ito rule)."""
    grid.require_alias(kernel.alpha, dt / 2.0)
    j = np.arange(lo, hi)
    q = symbol(kernel, grid, np.where(j == 1, dt / 2.0, dt * j))
    q[j == 0] = 0.0
    return q


def _g_spectrum(g: TestFunctionSpec, grid: SpectralGrid, dt: float,
                n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, zero): base is the DFT of g(0, .) in native order and zero[k] = (g(r_k, 0) -
    g(0, 0)) n for slab times r_k = k dt.  g moves in time only by its term A t^(beta/2),
    constant in space, so the DFT of g(r_k, .) is base plus zero[k] in its zero mode."""
    j = np.arange(grid.points)
    base = np.fft.rfft(g.evaluate(0.0, grid.spacing * np.minimum(j, grid.points - j)))
    r = dt * np.arange(n_t)
    zero = (g.evaluate(r, np.zeros(n_t)) - g.evaluate(0.0, 0.0)) * grid.points
    return base, zero


def _convolve(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
              noise: NoiseSpec, M: int, save_times) -> FieldEnsemble:
    """The FieldEnsemble of M realizations on the saved indices, strictly increasing as in the
    sidecar: their slab weights up to the last saved index."""
    _require_1d(kernel, grid)
    if M < 1:
        raise ValueError("need at least one realization")
    idx = _saved(save_times, noise.steps, GridMismatch)
    return FieldEnsemble(slab_weights(noise, M, int(idx[-1])), idx, grid, kernel, g, noise)


def convolve_brownian(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                      noise: NoiseSpec, M: int, save_times) -> FieldEnsemble:
    """Ensemble of Brownian-driven convolutions u = sum_k [p * g](.) dW_k."""
    if noise.kind != "brownian":
        raise GridMismatch("convolve_brownian needs brownian noise")
    return _convolve(kernel, grid, g, noise, M, save_times)


def convolve_poisson(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                     noise: NoiseSpec, M: int, save_times) -> FieldEnsemble:
    """Ensemble of compensated-Poisson-driven convolutions."""
    if noise.kind != "poisson":
        raise GridMismatch("convolve_poisson needs poisson noise")
    return _convolve(kernel, grid, g, noise, M, save_times)


def _slab_differences(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                      noise: NoiseSpec, idx1, pos1, idx2, pos2) -> SlabDifferences:
    """D[n, k] = F_i1[k, x1] - F_i2[k, x2], the weight of slab k in u(X_n) - u(Y_n) for the
    Ito sum u(t_i, x) = sum_k F_i[k, x] w_k; shape (n_pairs, largest time index), as the
    table SlabDifferences.rows forms its rows from.

    idx/pos: time indices and ascending spatial indices of the pair members; off the lattice
    or not whole, they raise GridMismatch (time) or PairOffGrid (space).  As g moves in time
    only in its zero mode, F_i[k] = P[i - k] + zero[k] Q[i - k, 0] / n with one native-order
    profile P[j] = irfft(Q[j] base) per lag, where position x is index (x + n/2) mod n, with Q
    built and transformed PAIR_CHUNK elements at a time, kept at the members' positions only."""
    _require_1d(kernel, grid)
    n_t, n = noise.steps, grid.points
    idx1, idx2 = _whole(idx1, n_t, GridMismatch), _whole(idx2, n_t, GridMismatch)
    pos = (_whole(np.concatenate([pos1, pos2]), n - 1, PairOffGrid) + n // 2) % n
    k_max = int(max(idx1.max(initial=0), idx2.max(initial=0)))

    base, zero = _g_spectrum(g, grid, noise.dt, k_max)
    cols = np.flatnonzero(np.bincount(pos, minlength=n))  # np.unique adds 1.6 MiB RSS
    profiles, q0 = np.empty((cols.size, k_max + 1)), np.empty(k_max + 1)
    for lo, hi in even_blocks(k_max + 1, PAIR_CHUNK // n):
        q = _lag_symbols(kernel, grid, noise.dt, lo, hi)
        q0[lo:hi] = q[:, 0]
        profiles[:, lo:hi] = np.fft.irfft(q * base, n)[:, cols].T
    rows = np.searchsorted(cols, pos)
    return SlabDifferences(profiles, q0, zero / n,
                           (idx1, rows[:idx1.size], idx2, rows[idx1.size:]))


def second_moment_pairs(table: SlabDifferences, noise: NoiseSpec) -> np.ndarray:
    """Exact second moments E|u(X_n) - u(Y_n)|^2 = kappa2 sum_k D[n, k]^2 of the discretized
    field, no Monte Carlo, for independent centered slab weights of variance
    kappa2 = slab_cumulant(noise, 2): from the table of D, PAIR_CHUNK elements at a time."""
    squares = np.empty(table.members[0].size)
    for lo, hi in even_blocks(squares.size, PAIR_CHUNK // max(table.shift.size, 1)):
        rows = table.rows(slice(lo, hi))
        squares[lo:hi] = np.einsum("nk,nk->n", rows, rows)
    return slab_cumulant(noise, 2) * squares
