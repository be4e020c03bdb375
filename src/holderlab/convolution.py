"""Discretized stochastic convolutions driven by Brownian or Poisson noise.

The field is the Ito (left-endpoint) time discretization of

    u(t, x) = int_0^t [ p(t - r, .) * g(r, .) ](x)  dNoise(r)

on a periodic spatial box, with the spatial convolution done spectrally.
The kernel factor of the most recent time slab is evaluated at lag dt/2
(midpoint) instead of its nominal lag dt, which tames the t -> r
singularity while keeping first-order weak accuracy.  Poisson events are
binned into time slabs and contribute from the first lattice time strictly
after the event; the compensator is subtracted slab-by-slab with the same
lag rule, which makes every realization exactly centered.

Realizations are pure functions of (seed, stream_index); the ensemble
array is filled in disjoint per-realization rows, so generation is safe to
parallelize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .kernels import KernelSpec, SpectralGrid, _freq_radius, irfft_ascending
from .noise import NoiseSpec, sample_path


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

    def evaluate(self, t: float, x: np.ndarray) -> np.ndarray:
        """g(t, x) on an array of spatial coordinates (radius for d=2)."""
        a = self.amplitude
        if self.family == "constant":
            return np.full_like(np.asarray(x, dtype=float), a)
        if self.family == "spatial-power":
            return a * np.abs(x) ** self.beta
        return a * (np.abs(x) ** self.beta + t ** (self.beta / 2.0))

    @property
    def time_dependent(self) -> bool:
        return self.family == "parabolic-power"

    @property
    def holder_constant(self) -> float:
        if self.family == "constant":
            return 0.0
        if self.family == "spatial-power":
            return self.amplitude
        return 2.0 * self.amplitude

    def mark_transform(self, z: np.ndarray) -> np.ndarray:
        if self.mark_family == "identity":
            return np.asarray(z, dtype=float)
        return np.ones_like(np.asarray(z, dtype=float))

    def mark_mean(self, law) -> float:
        return law.mean if self.mark_family == "identity" else 1.0

    def mark_second_moment(self, law) -> float:
        return law.second_moment if self.mark_family == "identity" else 1.0


@dataclass
class FieldEnsemble:
    """M realizations of the field on saved lattice times.

    values has shape (M, n_times, n_x) in d=1 or (M, n_times, n_x, n_x)
    in d=2, with spatial coordinates ascending from -L.  u(0, .) = 0 for
    every realization (zero initial data).
    """

    values: np.ndarray
    time_indices: np.ndarray
    dt: float
    grid: SpectralGrid
    kernel: KernelSpec
    g: TestFunctionSpec
    noise: NoiseSpec

    @property
    def n_realizations(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.time_indices * self.dt

    def time_position(self, index: int) -> int:
        """Position of lattice time index within the saved axis."""
        hits = np.nonzero(self.time_indices == index)[0]
        if hits.size == 0:
            raise GridMismatch(f"time index {index} not saved in ensemble")
        return int(hits[0])

    def save(self, prefix: str) -> None:
        """Flat binary dump plus a JSON sidecar describing it."""
        self.values.tofile(f"{prefix}.bin")
        sidecar = {
            "shape": list(self.values.shape),
            "dtype": str(self.values.dtype),
            "time_indices": [int(i) for i in self.time_indices],
            "dt": self.dt,
            "grid": {"length": self.grid.length, "points": self.grid.points,
                     "dim": self.grid.dim},
            "kernel": {"alpha": self.kernel.alpha, "epsilon": self.kernel.epsilon,
                       "dim": self.kernel.dim, "method": self.kernel.method},
            "g": {"family": self.g.family, "beta": self.g.beta,
                  "amplitude": self.g.amplitude, "mark_family": self.g.mark_family},
            "noise": {"kind": self.noise.kind, "horizon": self.noise.horizon,
                      "steps": self.noise.steps, "seed": self.noise.seed,
                      "jump": None if self.noise.jump is None else {
                          "intensity": self.noise.jump.intensity,
                          "mark_family": self.noise.jump.mark.family,
                          "mark_parameter": self.noise.jump.mark.parameter,
                      }},
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, prefix: str) -> "FieldEnsemble":
        from .noise import JumpSpec, MarkLaw

        with open(f"{prefix}.json") as fh:
            side = json.load(fh)
        values = np.fromfile(f"{prefix}.bin", dtype=side["dtype"]).reshape(side["shape"])
        jump = side["noise"]["jump"]
        noise = NoiseSpec(
            kind=side["noise"]["kind"], horizon=side["noise"]["horizon"],
            steps=side["noise"]["steps"], seed=side["noise"]["seed"],
            jump=None if jump is None else JumpSpec(
                intensity=jump["intensity"],
                mark=MarkLaw(jump["mark_family"], jump["mark_parameter"])),
        )
        return cls(
            values=values,
            time_indices=np.array(side["time_indices"], dtype=int),
            dt=side["dt"],
            grid=SpectralGrid(**side["grid"]),
            kernel=KernelSpec(**side["kernel"]),
            g=TestFunctionSpec(**side["g"]),
            noise=noise,
        )


def _lag_symbols(kernel: KernelSpec, grid: SpectralGrid, dt: float, n_t: int) -> np.ndarray:
    """Q[j, f]: kernel symbol at lag j*dt (midpoint dt/2 for j=1), flattened
    frequency axis.  Q[0] is zero: no same-slab contribution (Ito rule)."""
    grid.require_alias(kernel.alpha, dt / 2.0)
    r = _freq_radius(grid).reshape(-1)
    lags = dt * np.arange(n_t + 1, dtype=float)
    lags[1] = dt / 2.0
    q = np.exp(-np.outer(lags, r**kernel.alpha))
    if kernel.epsilon > 0.0:
        q *= r**kernel.epsilon
    q[0] = 0.0
    return q


def _g_spectrum(g: TestFunctionSpec, grid: SpectralGrid, dt: float, n_t: int) -> np.ndarray:
    """DFT of g(r_k, .) for every slab time r_k, flattened frequencies.

    Returns shape (n_t, F) or (1, F) when g does not depend on time.
    """
    shape = (grid.points,) * grid.dim
    if grid.dim == 1:
        coords = np.abs(grid.axis())
    else:
        coords = grid.radius()

    def spec_at(t):
        vals = g.evaluate(t, coords).reshape(shape)
        return np.fft.rfftn(np.fft.ifftshift(vals)).reshape(-1)

    if not g.time_dependent:
        return spec_at(0.0)[None, :]
    base = spec_at(0.0)
    out = np.tile(base, (n_t, 1))
    # parabolic-power: only the zero mode moves with time, by A * t^(b/2) * n^d
    n_total = np.prod(shape)
    for k in range(n_t):
        out[k, 0] = base[0] + g.amplitude * (k * dt) ** (g.beta / 2.0) * n_total
    return out


def _time_weights(noise: NoiseSpec, g: TestFunctionSpec, M: int) -> np.ndarray:
    """w[m, k]: the realization's weight of time slab k.

    Brownian: the increments dW_k.  Poisson: sum of g1(z) over the slab's
    events minus the slab compensator intensity * E[g1] * dt.
    """
    n_t = noise.steps
    w = np.empty((M, n_t))
    if noise.kind == "brownian":
        for m in range(M):
            w[m] = sample_path(noise, m).increments
        return w
    comp = noise.jump.intensity * g.mark_mean(noise.jump.mark) * noise.dt
    for m in range(M):
        path = sample_path(noise, m)
        slabs = np.floor(path.times / noise.dt).astype(int)
        slabs = np.clip(slabs, 0, n_t - 1)
        w[m] = np.bincount(slabs, weights=g.mark_transform(path.marks),
                           minlength=n_t) - comp
    return w


def _resolve_time_indices(save_times, dt: float, n_t: int) -> np.ndarray:
    if save_times is None:
        idx = np.arange(n_t + 1)
    else:
        idx = []
        for t in save_times:
            if isinstance(t, (int, np.integer)):
                i = int(t)
            else:
                i = int(round(t / dt))
                if abs(t - i * dt) > 1e-9 * max(1.0, abs(t)):
                    raise GridMismatch(f"time {t} is not on the lattice (dt={dt})")
            if not 0 <= i <= n_t:
                raise GridMismatch(f"time index {i} outside [0, {n_t}]")
            idx.append(i)
        idx = np.array(idx, dtype=int)
    return idx


def _convolve(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
              noise: NoiseSpec, M: int, save_times, dtype=np.float64) -> FieldEnsemble:
    if kernel.dim != grid.dim:
        raise GridMismatch(f"kernel dim {kernel.dim} != grid dim {grid.dim}")
    if M < 1:
        raise ValueError("need at least one realization")
    n_t = noise.steps
    dt = noise.dt
    idx = _resolve_time_indices(save_times, dt, n_t)

    q = _lag_symbols(kernel, grid, dt, n_t)
    ghat = _g_spectrum(g, grid, dt, n_t)
    w = _time_weights(noise, g, M)

    freq_shape = _freq_radius(grid).shape
    out = np.zeros((M, idx.size) + (grid.points,) * grid.dim, dtype=dtype)
    for pos, i in enumerate(idx):
        if i == 0:
            continue  # zero initial data
        gh = ghat[:i] if ghat.shape[0] > 1 else ghat
        a = q[i:0:-1] * gh  # A[k, f] = Q[i-k, f] * ghat[k, f]
        u_hat = w[:, :i] @ a.real + 1j * (w[:, :i] @ a.imag)
        out[:, pos] = irfft_ascending(u_hat.reshape((M,) + freq_shape), grid)

    return FieldEnsemble(values=out, time_indices=idx, dt=dt, grid=grid,
                         kernel=kernel, g=g, noise=noise)


def convolve_brownian(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                      noise: NoiseSpec, M: int, save_times=None,
                      dtype=np.float64) -> FieldEnsemble:
    """Ensemble of Brownian-driven convolutions u = sum_k [p * g](.) dW_k."""
    if noise.kind != "brownian":
        raise GridMismatch("convolve_brownian needs brownian noise")
    return _convolve(kernel, grid, g, noise, M, save_times, dtype)


def convolve_poisson(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                     noise: NoiseSpec, M: int, save_times=None,
                     dtype=np.float64) -> FieldEnsemble:
    """Ensemble of compensated-Poisson-driven convolutions."""
    if noise.kind != "poisson":
        raise GridMismatch("convolve_poisson needs poisson noise")
    return _convolve(kernel, grid, g, noise, M, save_times, dtype)


def second_moment_pairs(kernel: KernelSpec, grid: SpectralGrid, g: TestFunctionSpec,
                        noise: NoiseSpec, idx1, pos1, idx2, pos2) -> np.ndarray:
    """Exact second moments E|u(X) - u(Y)|^2 of the discretized field.

    No Monte Carlo: for the Ito sum u(t_i, x) = sum_k F_i[k, x] w_k with
    independent centered slab weights, E|u(X) - u(Y)|^2 equals
    c * dt * sum_k (F_i1[k, x1] - F_i2[k, x2])^2 with c = 1 for Brownian
    weights and c = intensity * E[g1(z)^2] for compensated Poisson weights.

    idx/pos are arrays of lattice time indices and flattened spatial
    indices (ascending coordinate order) of the two pair members.
    """
    n_t = noise.steps
    dt = noise.dt
    q = _lag_symbols(kernel, grid, dt, n_t)
    ghat = _g_spectrum(g, grid, dt, n_t)
    shape = (grid.points,) * grid.dim
    freq_shape = _freq_radius(grid).shape

    if noise.kind == "brownian":
        weight_var = dt
    else:
        weight_var = noise.jump.intensity * g.mark_second_moment(noise.jump.mark) * dt

    def profile_rows(i):
        """F_i[k, :] for k < i, spatial values in ascending order."""
        if i == 0:
            return np.zeros((0,) + shape)
        gh = ghat[:i] if ghat.shape[0] > 1 else np.broadcast_to(ghat, (i, ghat.shape[1]))
        a = q[i:0:-1] * gh
        return irfft_ascending(a.reshape((i,) + freq_shape), grid)

    idx1 = np.asarray(idx1, dtype=int)
    idx2 = np.asarray(idx2, dtype=int)
    n_space = int(np.prod(shape))
    cache = {}
    for i in np.unique(np.concatenate([idx1, idx2])):
        cache[int(i)] = profile_rows(int(i)).reshape(int(i), n_space)

    out = np.empty(idx1.size)
    for n, (i1, j1, i2, j2) in enumerate(zip(idx1, np.asarray(pos1, dtype=int),
                                             idx2, np.asarray(pos2, dtype=int))):
        f1 = cache[int(i1)][:, j1]
        f2 = cache[int(i2)][:, j2]
        k = max(f1.size, f2.size)
        a = np.zeros(k)
        a[:f1.size] = f1
        b = np.zeros(k)
        b[:f2.size] = f2
        out[n] = weight_var * np.sum((a - b) ** 2)
    return out
