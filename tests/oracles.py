"""Reference implementations the tests compare holderlab against; no pipeline runs them:
the kernels' closed forms in the FFT's native order, the Ito and compensated-Poisson
integrals of a deterministic integrand, the field as its Ito sum at each saved time on its
own, the slab differences as one gather of the whole profile table, and the Campanato
inclusion test."""

import math

import numpy as np

from holderlab.convolution import _g_spectrum, _lag_symbols
from holderlab.kernels import ALIAS_LOG, KernelSpec, SpectralGrid, even_fast_len, symbol
from holderlab.noise import JumpSpec, MarkLaw, NoiseSpec, sample_path, slab_weights


class UnsupportedClosedForm(Exception):
    """Closed-form evaluation requested outside its validity set."""


class CompensatorQuadratureFailure(Exception):
    """Compensator quadrature not finite, or not stable under node refinement."""


def grid_for_times(alpha: float, dim: int, t_min: float, t_max: float | None = None,
                   length: float | None = None) -> SpectralGrid:
    """A grid whose aliasing guard holds for every t >= t_min, on the box half-width
    8 max(t_max^(1/alpha), 1) unless length is given."""
    if t_max is None:
        t_max = t_min
    if length is None:
        length = 8.0 * max(t_max ** (1.0 / alpha), 1.0)
    xi_need = (ALIAS_LOG / t_min) ** (1.0 / alpha)
    n = even_fast_len(max(64, math.ceil(2.0 * length * xi_need / math.pi)))
    return SpectralGrid(length=length, points=n, dim=dim)


def spectral_kernel(spec: KernelSpec, grid: SpectralGrid, t: float) -> np.ndarray:
    """The periodized kernel in the FFT's native order, index j of an axis at j h for j < n/2
    and at (j - n) h above (np.fft.ifftshift(grid.axis())): the inverse FFT of the symbol over
    h^d, so that sum(values) * h^d == symbol(0) (= 1 for epsilon = 0)."""
    vals = np.fft.irfftn(symbol(spec, grid, t), (grid.points,) * grid.dim, range(grid.dim))
    return vals / grid.spacing**grid.dim


def gaussian_kernel(t: float, r: np.ndarray, dim: int) -> np.ndarray:
    """Free-space Gaussian density (4 pi t)^(-d/2) exp(-|x|^2 / (4t))."""
    return (4.0 * math.pi * t) ** (-dim / 2.0) * np.exp(-(r * r) / (4.0 * t))


def cauchy_kernel(t: float, x: np.ndarray) -> np.ndarray:
    """Free-space Cauchy density t / (pi (t^2 + x^2)), d=1."""
    return t / (math.pi * (t * t + x * x))


def kernel_periodized(spec: KernelSpec, grid: SpectralGrid, t: float) -> np.ndarray:
    """Periodized closed form in native order, the sum of free-space images over the 2L
    lattice: Gaussian images converge super-exponentially, and the periodic Cauchy sum is
    (1/2L) sinh(pi t / L) / (cosh(pi t / L) - cos(pi x / L))."""
    period, x = 2.0 * grid.length, np.fft.ifftshift(grid.axis())
    if (spec.alpha, spec.epsilon, spec.dim) == (1.0, 0.0, 1):
        a = 2.0 * math.pi * t / period
        b = 2.0 * math.pi * x / period
        return (1.0 / period) * np.sinh(a) / (np.cosh(a) - np.cos(b))
    if (spec.alpha, spec.epsilon) == (2.0, 0.0):
        n_img = max(1, math.ceil(math.sqrt(4.0 * t * 46.0) / period) + 1)
        shifts = period * np.arange(-n_img, n_img + 1)
        total = np.zeros_like(x)
        for s in shifts:
            total += gaussian_kernel(t, np.abs(x + s), 1)
        return total if spec.dim == 1 else np.multiply.outer(total, total)  # separable in d = 2
    raise UnsupportedClosedForm(f"no closed form for {spec}")


def gauss_rule(mark: MarkLaw, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with sum(w * f(z)) = E f(z) for polynomials f of degree
    below 2n: Gauss-Laguerre on each side of 0 for two-sided-exponential marks, 2n nodes,
    Gauss-Hermite for gaussian marks, n nodes."""
    if mark.family == "two-sided-exponential":
        x, w = np.polynomial.laguerre.laggauss(n)
        return np.concatenate([-x, x]) / mark.parameter, np.concatenate([w, w]) / 2.0
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return mark.parameter * x, w / math.sqrt(2.0 * math.pi)


def compensator_integral(h, horizon: float, jump: JumpSpec, n: int = 96) -> float:
    """lambda * int_0^T int h(t, z) rho(z) dz dt by n-node Gauss-Legendre in time times the
    mark law's n-node Gauss rule, with h evaluated once on the grid of nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    z, z_weights = gauss_rule(jump.mark, n)
    t, z = np.meshgrid(0.5 * horizon * (nodes + 1.0), z, indexing="ij")
    value = float(jump.intensity * 0.5 * horizon
                  * (weights @ np.asarray(h(t, z), dtype=float) @ z_weights))
    if not math.isfinite(value):
        raise CompensatorQuadratureFailure("compensator quadrature not finite")
    return value


def ito_ensemble(spec: NoiseSpec, h, M: int) -> np.ndarray:
    """Ito sums of a deterministic integrand over M independent paths."""
    if spec.kind != "brownian":
        raise ValueError("ito_ensemble needs brownian noise")
    t = spec.dt * np.arange(spec.steps)
    return slab_weights(spec, M, spec.steps) @ np.asarray(h(t), dtype=float)


def compensated_ensemble(spec: NoiseSpec, h, M: int) -> np.ndarray:
    """I(T) = sum_k h(tau_k, z_k) - lambda int_0^T int h(t, z) rho(z) dz dt over M Poisson
    paths, h broadcasting over arrays; the compensator, at 96 nodes per axis, must agree with
    64 to 1e-6 relative, or absolute 1e-9 for an exactly compensated (odd) h."""
    if spec.kind != "poisson":
        raise ValueError("compensated_ensemble needs poisson noise")
    comp = compensator_integral(h, spec.horizon, spec.jump, n=96)
    check = compensator_integral(h, spec.horizon, spec.jump, n=64)
    if abs(comp - check) > 1e-6 * max(abs(comp), 1e-3):
        raise CompensatorQuadratureFailure(
            f"compensator unstable under node refinement: {comp} vs {check}")
    out = np.empty(M)
    for m in range(M):
        path = sample_path(spec, m)
        vals = np.asarray(h(path.times, path.marks), dtype=float)
        out[m] = vals.sum() - comp
    return out


def slab_spectra(g, grid: SpectralGrid, dt: float, n: int) -> np.ndarray:
    """The rfft of g(k dt, .) for each slab k < n, each built on its own from the ascending |x|
    shifted to the FFT's native order, not from a base spectrum and a zero-mode shift."""
    radius = np.abs(grid.axis())
    return np.array([np.fft.rfft(np.fft.ifftshift(g.evaluate(k * dt, radius)))
                     for k in range(n)])


def per_time_field(kernel, grid: SpectralGrid, g, noise: NoiseSpec, weights,
                   save_times) -> np.ndarray:
    """The 1-D field (M, saved times, n) of the slab weights (M, >= last saved index), ascending
    from -L: at each saved index i on its own, the inverse FFT of
    u_hat_i = sum_{k < i} w_k Q[i - k] g_hat_k, with no recursion from one time to the next."""
    q = _lag_symbols(kernel, grid, noise.dt, 0, noise.steps + 1)
    ghat = slab_spectra(g, grid, noise.dt, noise.steps)
    out = np.empty((len(weights), len(save_times), grid.points))
    for pos, i in enumerate(save_times):
        a = q[i:0:-1] * ghat[:i]
        u_hat = weights[:, :i] @ a.real + 1j * (weights[:, :i] @ a.imag)
        out[:, pos] = np.fft.fftshift(np.fft.irfft(u_hat, grid.points), axes=-1)
    return out


def gathered_slab_differences(kernel, grid, g, noise, idx1, pos1, idx2, pos2) -> np.ndarray:
    """D[n, k] = F_i1[k, x1] - F_i2[k, x2] of whole-number lattice indices, from the (k + 1, n)
    table of every lag's native-order profile irfft(Q[j] base) by one fancy-index gather:
    F_i[k, x] = P[max(i - k, 0), x] + zero[k] Q[max(i - k, 0), 0] / n, zero for k >= i as
    Q[0] = 0."""
    n = grid.points
    idx1, idx2 = np.asarray(idx1, int), np.asarray(idx2, int)
    pos1, pos2 = ((np.asarray(x, int) + n // 2) % n for x in (pos1, pos2))
    k_max = int(max(idx1.max(initial=0), idx2.max(initial=0)))
    q = _lag_symbols(kernel, grid, noise.dt, 0, max(k_max, 1) + 1)
    base, zero = _g_spectrum(g, grid, noise.dt, max(k_max, 1))
    profiles = np.fft.irfft(q * base, n)
    shift = zero[:k_max] / n

    def rows(i, x):
        j = np.maximum(i[:, None] - np.arange(k_max), 0)
        return profiles[j, x[:, None]] + shift * q[j, 0]

    return rows(idx1, pos1) - rows(idx2, pos2)


def inclusion_holds(p: float, theta: float, q: float, sigma: float) -> bool:
    """Whether the (q, sigma) Campanato family sits inside the (p, theta) one on a bounded
    domain: p <= q and (theta - 1)/p <= (sigma - 1)/q, the Holder-inequality threshold (under
    the embedding alpha = (d+2)(theta-1)/p, alpha_p <= alpha_q)."""
    if p < 1.0 or q < 1.0:
        raise ValueError("p and q must be >= 1")
    if theta < 0.0 or sigma < 0.0:
        raise ValueError("theta and sigma must be >= 0")
    return p <= q and (theta - 1.0) / p <= (sigma - 1.0) / q
