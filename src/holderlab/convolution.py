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
lag rule, which makes every realization exactly centered.  The ensemble is
filled in one forward pass: lag symbols of lags j >= 2 are geometric, exp(-j dt |xi|^alpha),
so the spectral sum decays from one saved time to the next and only new slabs are added
(exponential Euler), at cost O(M * F * max saved index) for M realizations and F modes.
g moves in time only by a term constant in space, so both engines factor its spectrum
into one base spectrum and a shift of the zero mode per slab (_g_spectrum).

Both engines work in the FFT's native order and shift only into the ascending layout of what
is stored: the pass computes the whole field (FieldEnsemble, for `holderlab simulate`) at
saved times strictly increasing as in its sidecar, one block of realizations (FIELD_BLOCK
bytes of stored values) at a time, and FieldEnsemble.save writes each finished block to the
ensemble's .bin (sink): the file is realization-major, so a block is one contiguous byte
range.  A FieldEnsemble is always that .bin (StoredField), read back the same way, one block
at a time, so no step between `simulate` and `seminorm` holds the whole field.  The presets'
pairs need only u(X) - u(Y) = sum_k D_k w_k: _slab_differences builds once the table whose
rows of D give both their exact second moments and their Monte Carlo values; a PairEnsemble
holds it and w and forms D w^T one block of pairs at a time.  Realizations are pure
functions of (seed, stream_index), and no realization depends on the block it falls in.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import GridMismatch, PairOffGrid
from .kernels import KernelSpec, SpectralGrid, _freq_radius, symbol
from .noise import JumpSpec, MarkLaw, NoiseSpec, slab_cumulant, slab_weights


@dataclass(frozen=True)
class TestFunctionSpec:
    """Deterministic coefficient g, optionally with a mark factor g1(z).

    families (amplitude A, Holder order beta):
      parabolic-power : g(t, x) = A (|x|^beta + t^(beta/2)); g(0,0) = 0,
                        parabolic Holder constant 2A.
      spatial-power   : g(x) = A |x|^beta; g(0) = 0, Holder constant A.
      constant        : g = A (smooth diagnostic case; nonzero at the origin).
    mark_family (Poisson driving): "identity" g1(z) = z or "one" g1(z) = 1.
    """

    __test__ = False  # not a pytest class despite the name

    family: str = "parabolic-power"
    beta: float = 0.5
    amplitude: float = 1.0
    mark_family: str = "identity"

    def __post_init__(self):
        if self.family not in ("parabolic-power", "spatial-power", "constant"):
            raise ValueError(f"unknown test function family {self.family!r}")
        if self.family != "constant" and not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.mark_family not in ("identity", "one"):
            raise ValueError(f"unknown mark family {self.mark_family!r}")

    def evaluate(self, t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
        """g(t, x) at times t (a scalar or an array of x's shape) and radii |x|."""
        a = self.amplitude
        if self.family == "constant":
            return np.full_like(np.asarray(x, dtype=float), a)
        if self.family == "spatial-power":
            return a * np.abs(x) ** self.beta
        return a * (np.abs(x) ** self.beta + t ** (self.beta / 2.0))


class Lattice(typing.NamedTuple):
    """Saved space-time lattice: time indices (units of dt) on a spatial grid."""

    dt: float
    grid: SpectralGrid
    time_indices: np.ndarray


FIELD_BLOCK = 2**23  # bytes of stored field values in one block of realizations
PAIR_CHUNK = 2**18  # elements of each temporary of the slab-difference builders, or one row


def even_blocks(n: int, most: int):
    """(lo, hi) of consecutive blocks of range(n), in order, the largest first: ceil(n / B)
    blocks of sizes as equal as possible for B = max(most, 3), so none holds more than B
    items, nor a single one unless n = 1 (on one row matmul takes a matrix-vector kernel that
    rounds differently, and a realization would depend on its block)."""
    count = -(-n // max(most, 3))
    for j in range(count):
        yield -(-n * j // count), -(-n * (j + 1) // count)


def _row_blocks(M: int, row_bytes: int):
    """The blocks of realizations (even_blocks) of FIELD_BLOCK bytes of rows of row_bytes."""
    return even_blocks(M, FIELD_BLOCK // row_bytes)


@dataclass(frozen=True)
class StoredField:
    """Field values left in a .bin: realization-major (M, n_times, n_x) values of dtype."""

    path: str
    shape: tuple
    dtype: np.dtype

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Realizations lo .. hi - 1, read as one byte range with np.fromfile (a mapping would
        count every page it touched in the resident set)."""
        row = math.prod(self.shape[1:])
        return np.fromfile(self.path, self.dtype, count=(hi - lo) * row,
                           offset=lo * row * self.dtype.itemsize).reshape(hi - lo, *self.shape[1:])


@dataclass
class FieldEnsemble:
    """M realizations of the 1-D field on saved lattice times.

    values is the StoredField of the ensemble's .bin, shape (M, n_times, n_x), with spatial
    coordinates ascending from -L.  u(0, .) = 0 for every realization (zero initial data).
    """

    values: StoredField
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

    def at(self, t_idx, s_idx) -> np.ndarray:
        """u at (time index, flattened spatial index) points, shape (M, n), realization
        axis contiguous; one pass over the .bin, one block of _row_blocks at a time."""
        stored, s_idx = self.values, np.asarray(s_idx)
        hits = self.time_indices == np.asarray(t_idx)[:, None]
        if not hits.any(axis=1).all():
            raise GridMismatch(f"time indices {np.setdiff1d(t_idx, self.time_indices)} not saved")
        if np.any(s_idx < 0) or np.any(s_idx >= stored.shape[2]):
            raise PairOffGrid("spatial index outside the lattice")
        pos = hits.argmax(axis=1)  # first saved position of each time
        M = stored.shape[0]
        out = np.empty((s_idx.size, M), stored.dtype).T
        for lo, hi in _row_blocks(M, stored.nbytes // M):
            out[lo:hi] = stored.rows(lo, hi)[:, pos, s_idx]
        return out

    def difference_blocks(self, pairs, blocks=(slice(None),)):
        """u(X) - u(Y) for the pairs of a PairSet that each of blocks selects (a slice or
        index array), as a new float64 (M, size) array with the realization axis contiguous;
        both members of every pair are gathered first, in one pass over the values."""
        n = np.size(pairs.t_idx1)
        both = self.at(np.concatenate([pairs.t_idx1, pairs.t_idx2]),
                       np.concatenate([pairs.s_idx1, pairs.s_idx2])).T
        for sel in blocks:
            diff = both[:n][sel].astype(np.float64)
            diff -= both[n:][sel]
            yield diff.T
            del diff  # not held while the next block is formed

    def save(self, prefix: str, blocks) -> None:
        """Write blocks, consecutive realizations of self's shape, to {prefix}.bin and a JSON
        sidecar to {prefix}.json: shape, dtype, time indices and the fields of grid, kernel,
        g and noise (dt is noise.dt).  Each is written under a temporary name renamed when
        complete: the .bin first, the sidecar last, after any older sidecar is removed.  A
        write that fails or is stopped never leaves a sidecar over a partial .bin; blocks that
        do not fill self's shape in its dtype are a ValueError before either rename."""
        shape, dtype = self.values.shape, self.values.dtype
        sidecar = {name: asdict(getattr(self, name)) for name in ("grid", "kernel", "g", "noise")}
        sidecar.update(shape=list(shape), dtype=str(dtype),
                       time_indices=[int(i) for i in self.time_indices])
        partial = [Path(f"{prefix}.bin.partial"), Path(f"{prefix}.json.partial")]
        try:
            rows = 0
            with open(partial[0], "wb") as fh:
                for block in blocks:
                    if block.shape[1:] != shape[1:] or block.dtype != dtype:
                        raise ValueError(f"a {block.dtype} block of shape {block.shape} in a "
                                         f"{dtype} field of shape {shape}")
                    rows += len(block)
                    block.tofile(fh)
            if rows != shape[0]:
                raise ValueError(f"blocks of {rows} realizations for a field of {shape[0]}")
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
    def load(cls, prefix: str) -> "FieldEnsemble":
        """What save wrote, its values left in the .bin; ValueError, before the .bin is read,
        for a sidecar whose grid or kernel is not 1-D, whose time indices are not one or more
        strictly increasing whole numbers in [0, noise.steps], whose dtype is not float32 or
        float64, whose shape is not [M >= 1, len(time_indices), grid.points], or whose shape
        and dtype do not make the size of the .bin.  Each spec takes every one of its fields
        from the sidecar (KeyError if one is missing) and ignores keys it no longer has."""
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
        if side["dtype"] not in ("float32", "float64"):
            raise ValueError(f"dtype {side['dtype']!r} is not float32 or float64")
        m, *rest = side["shape"]
        if not m >= 1 or rest != [time_indices.size, grid.points]:
            raise ValueError(f"shape {side['shape']} is not [M >= 1, "
                             f"{time_indices.size} saved times, {grid.points} points]")
        values = StoredField(f"{prefix}.bin", tuple(side["shape"]), np.dtype(side["dtype"]))
        size = os.path.getsize(values.path)
        if size != values.nbytes:
            raise ValueError(f"{values.path} holds {size} bytes, not the {values.nbytes} of "
                             f"shape {side['shape']} in {side['dtype']}")
        return cls(values=values, time_indices=time_indices, grid=grid, kernel=kernel,
                   g=_from_fields(TestFunctionSpec, side["g"]), noise=noise)


def _from_fields(cls, data: dict):
    """cls from data's values of every field cls has; other keys are ignored."""
    return cls(**{f.name: data[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class PairValues:
    """Shape (M, n_pairs) and dtype of the values u_m(X_n) - u_m(Y_n) of a PairEnsemble,
    which never holds them whole."""

    shape: tuple
    dtype: np.dtype

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize


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
    """u_m(X_n) - u_m(Y_n) = sum_k D[n, k] w[m, k] for the pairs (t1, s1, t2, s2) it was built
    for, held as the table of D (n_pairs, k) and the slab weights w (M, k); time_indices are
    the saved times; second_moments[n] = E|u(X_n) - u(Y_n)|^2 exactly, from the same D."""

    values: PairValues
    pairs: tuple
    time_indices: np.ndarray
    second_moments: np.ndarray
    slab_differences: SlabDifferences
    weights: np.ndarray

    def difference_blocks(self, pairs, blocks=(slice(None),)):
        """For each selection of pairs in blocks, (D[sel] w^T)^T rounded through the storage
        dtype, as FieldEnsemble.difference_blocks gives it; other pairs raise PairOffGrid.
        D[sel] lives only while its product is formed.  BLAS rounds the presets' lag blocks as
        their rows of the whole product; one row (a matrix-vector kernel) or, at small M, a
        few rows can round differently."""
        asked = (pairs.t_idx1, pairs.s_idx1, pairs.t_idx2, pairs.s_idx2)
        if not all(np.array_equal(a, b) for a, b in zip(asked, self.pairs)):
            raise PairOffGrid("pairs not held by the pair ensemble")
        for sel in blocks:
            prod = self.slab_differences.rows(sel) @ self.weights.T
            if prod.dtype != self.values.dtype:
                for i in range(len(prod)):  # a row at a time: no storage-dtype copy of the block
                    prod[i] = prod[i].astype(self.values.dtype)
            yield prod.T
            del prod  # not held while the next block is formed


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


def _lag_symbols(kernel: KernelSpec, grid: SpectralGrid, dt: float, n_t: int) -> np.ndarray:
    """Q[j, f]: kernel symbol at lag j*dt (midpoint dt/2 for j=1).  Q[0] is zero: no
    same-slab contribution (Ito rule)."""
    grid.require_alias(kernel.alpha, dt / 2.0)
    lags = dt * np.arange(n_t + 1, dtype=float)
    lags[1:2] = dt / 2.0
    q = symbol(kernel, grid, lags)
    q[0] = 0.0
    return q


def _g_spectrum(g: TestFunctionSpec, grid: SpectralGrid, dt: float,
                n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, zero): base is the DFT of g(0, .) in native order and zero[k] = (g(r_k, 0) -
    g(0, 0)) n for slab times r_k = k dt.  Every family moves in time only by a term constant
    in space, so the DFT of g(r_k, .) is base plus zero[k] in its zero mode."""
    j = np.arange(grid.points)
    base = np.fft.rfft(g.evaluate(0.0, grid.spacing * np.minimum(j, grid.points - j)))
    r = dt * np.arange(n_t)
    zero = (g.evaluate(r, np.zeros(n_t)) - g.evaluate(0.0, 0.0)) * grid.points
    return base, zero


def _convolve(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
              noise: NoiseSpec, M: int, save_times, dtype=np.float64, pairs=None, sink=None):
    """The field of M realizations on the saved indices, strictly increasing as in the sidecar
    (_field_blocks), written block by block to sink, a path prefix: {sink}.bin and {sink}.json
    (FieldEnsemble.save), and left there as a StoredField.  pairs = (t1, s1, t2, s2), lattice
    indices of pair members on saved times, in place of sink, skips the pass:
    u(X) - u(Y) = D w."""
    _require_1d(kernel, grid)
    if M < 1:
        raise ValueError("need at least one realization")
    n_t = noise.steps
    idx = _saved(save_times, n_t, GridMismatch)
    if (pairs is None) == (sink is None):
        raise ValueError("give one of pairs and sink: the field is written to a sink, the pair "
                         "differences are not")
    if pairs is not None:
        times = np.concatenate([np.ravel(pairs[0]), np.ravel(pairs[2])])
        if not np.isin(times, idx).all():
            raise GridMismatch(f"pair times {np.setdiff1d(times, idx)} are not saved times")
        diff = _slab_differences(kernel, grid, g, noise, *pairs)
        second = _isometry(g, noise, diff)
        w = slab_weights(noise, g.mark_family, M, diff.shift.size)
        return PairEnsemble(PairValues((M, second.size), np.dtype(dtype)),
                            tuple(np.array(a) for a in pairs), idx, second, diff, w)

    ens = FieldEnsemble(values=StoredField(f"{sink}.bin", (M, idx.size, grid.points),
                                           np.dtype(dtype)),
                        time_indices=idx, grid=grid, kernel=kernel, g=g, noise=noise)
    ens.save(sink, _field_blocks(kernel, grid, g, noise, idx, M, ens.values.dtype))
    return ens


def _field_blocks(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                  noise: NoiseSpec, idx: np.ndarray, M: int, dtype: np.dtype):
    """The forward pass of M realizations, one block of them (_row_blocks) at a time; yields
    each finished block, of dtype, as the rows of one zeroed buffer reused from block to
    block.  Per block, from cur to i the real sum R = sum over slabs k <= i - 2 of
    w_k Q[i - k] decays by exp(-(i - cur) dt |xi|^alpha) and gains the new slabs; then
    u_hat_i = base (R + w_{i-1} Q[1]), the midpoint slab k = i - 1 as a rank-1 term, plus
    sum_k w_k Q[i - k, 0] zero[k] in the zero mode; its native inverse FFT is stored
    ascending.  O(M F max i)."""
    n_t, dt, n = noise.steps, noise.dt, grid.points
    q = _lag_symbols(kernel, grid, dt, idx[-1])  # no row past the last saved index is read
    base, zero = _g_spectrum(g, grid, dt, n_t)
    w = slab_weights(noise, g.mark_family, M, idx[-1])  # the pass reads slabs k < idx[-1]
    rate = -dt * _freq_radius(grid) ** kernel.alpha
    # the zero-mode terms, one matrix-vector product per time over all M rows: per block, its
    # rounding would depend on how many rows the block holds
    shift = np.zeros((M, idx.size))
    for pos, i in enumerate(idx):
        shift[:, pos] = w[:, :i] @ (q[i:0:-1, 0] * zero[:i])

    bounds = list(_row_blocks(M, idx.size * n * dtype.itemsize))
    buffer = np.zeros((bounds[0][1], idx.size, n), dtype)  # the first block is the largest
    for lo, hi in bounds:
        wb, block = w[lo:hi], buffer[:hi - lo]
        running = np.zeros((hi - lo, rate.size))  # sum over slabs k <= cur - 2 of w_k Q[cur - k]
        u_hat = np.empty((hi - lo, rate.size), dtype=complex)
        cur = 0
        for pos, i in enumerate(idx):
            if i == 0:
                continue  # zero initial data
            start = max(cur - 1, 0)
            running *= np.exp((i - cur) * rate)
            running += wb[:, start:i - 1] @ q[i - start:1:-1]
            cur = i
            np.multiply(running + np.outer(wb[:, i - 1], q[1]), base, out=u_hat)
            u_hat[:, 0] += shift[lo:hi, pos]
            np.concatenate(np.split(np.fft.irfft(u_hat, n), 2, axis=1)[::-1], axis=1,
                           out=block[:, pos])  # the native halves swapped: ascending from -L
        yield block


def convolve_brownian(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                      noise: NoiseSpec, M: int, save_times,
                      dtype=np.float64, pairs=None, sink=None):
    """Ensemble of Brownian-driven convolutions u = sum_k [p * g](.) dW_k."""
    if noise.kind != "brownian":
        raise GridMismatch("convolve_brownian needs brownian noise")
    return _convolve(kernel, grid, g, noise, M, save_times, dtype, pairs, sink)


def convolve_poisson(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                     noise: NoiseSpec, M: int, save_times,
                     dtype=np.float64, pairs=None, sink=None):
    """Ensemble of compensated-Poisson-driven convolutions."""
    if noise.kind != "poisson":
        raise GridMismatch("convolve_poisson needs poisson noise")
    return _convolve(kernel, grid, g, noise, M, save_times, dtype, pairs, sink)


def _slab_differences(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                      noise: NoiseSpec, idx1, pos1, idx2, pos2) -> SlabDifferences:
    """D[n, k] = F_i1[k, x1] - F_i2[k, x2], the weight of slab k in u(X_n) - u(Y_n) for the
    Ito sum u(t_i, x) = sum_k F_i[k, x] w_k; shape (n_pairs, largest time index), as the
    table SlabDifferences.rows forms its rows from.

    idx/pos: time indices and ascending spatial indices of the pair members; off the lattice
    or not whole, they raise GridMismatch (time) or PairOffGrid (space).  As g moves in time
    only in its zero mode, F_i[k] = P[i - k] + zero[k] Q[i - k, 0] / n with one native-order
    profile P[j] = irfft(Q[j] base) per lag, where position x is index (x + n/2) mod n,
    transformed PAIR_CHUNK elements at a time and kept at the members' positions only."""
    _require_1d(kernel, grid)
    n_t, n = noise.steps, grid.points
    idx1, idx2 = _whole(idx1, n_t, GridMismatch), _whole(idx2, n_t, GridMismatch)
    pos = (_whole(np.concatenate([pos1, pos2]), n - 1, PairOffGrid) + n // 2) % n
    k_max = int(max(idx1.max(initial=0), idx2.max(initial=0)))

    q = _lag_symbols(kernel, grid, noise.dt, k_max)
    base, zero = _g_spectrum(g, grid, noise.dt, k_max)
    cols = np.flatnonzero(np.bincount(pos, minlength=n))  # np.unique adds 1.6 MiB RSS
    profiles = np.empty((cols.size, k_max + 1))
    for lo, hi in even_blocks(k_max + 1, PAIR_CHUNK // n):
        profiles[:, lo:hi] = np.fft.irfft(q[lo:hi] * base, n)[:, cols].T
    rows = np.searchsorted(cols, pos)
    return SlabDifferences(profiles, q[:, 0].copy(), zero / n,
                           (idx1, rows[:idx1.size], idx2, rows[idx1.size:]))


def _isometry(g: TestFunctionSpec, noise: NoiseSpec, diff: SlabDifferences) -> np.ndarray:
    """E|u(X_n) - u(Y_n)|^2 = kappa2 sum_k D[n, k]^2 for independent centered slab weights
    of variance kappa2 = slab_cumulant(noise, g.mark_family, 2), PAIR_CHUNK elements at a time."""
    squares = np.empty(diff.members[0].size)
    for lo, hi in even_blocks(squares.size, PAIR_CHUNK // max(diff.shift.size, 1)):
        rows = diff.rows(slice(lo, hi))
        squares[lo:hi] = np.einsum("nk,nk->n", rows, rows)
    return slab_cumulant(noise, g.mark_family, 2) * squares


def second_moment_pairs(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                        noise: NoiseSpec, idx1, pos1, idx2, pos2) -> np.ndarray:
    """Exact second moments E|u(X) - u(Y)|^2 of the discretized field, no Monte Carlo, for
    the D of _slab_differences (same arguments and checks); the pair branch of _convolve
    carries the same values as PairEnsemble.second_moments."""
    return _isometry(g, noise, _slab_differences(kernel, grid, g, noise, idx1, pos1,
                                                 idx2, pos2))
