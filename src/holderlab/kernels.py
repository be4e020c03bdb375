"""Heat-type convolution kernels evaluated exactly or spectrally.

The kernel family is the transition density p(t, x) of the semigroup
generated by -(-Laplace)^(alpha/2) on R^d, 0 < alpha <= 2, optionally with
a fractional spatial derivative of order epsilon >= 0 applied as the radial
Fourier multiplier |xi|^epsilon.  Evaluation is on a periodic box
[-L, L)^d with an FFT, so the spectral values are the periodization of the
free-space kernel; closed forms (Gaussian for alpha=2, Cauchy for alpha=1
in d=1) are available both free-space and periodized for cross-checks.
The condition norms and the Ito convolution stay in the FFT's native order;
only eval_kernel shifts its values to coordinates ascending from -L.

All functions are pure: they allocate their own work arrays and never
mutate their inputs, so concurrent evaluation across times is safe.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import AliasingViolation, ConfigError, NonPositiveTime, UnsupportedClosedForm

# exp(-ALIAS_LOG) = 1e-12: decay required of the symbol at the largest
# resolved frequency before truncating the Fourier integral.
ALIAS_LOG = -math.log(1e-12)

_CLOSED_FORMS = {(2.0, 0.0): "gauss", (1.0, 0.0): "cauchy"}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family parameters.

    alpha   : order of the generator, in (0, 2].
    epsilon : fractional derivative order applied as |xi|^epsilon, >= 0.
    dim     : spatial dimension (1 or 2).
    """

    alpha: float
    epsilon: float = 0.0
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic spatial lattice [-L, L)^d with n points per axis.

    The frequency lattice is the standard discrete Fourier dual: angular
    frequencies 2*pi*k/(2L) for k = -n/2, ..., n/2 - 1.
    """

    length: float
    points: int
    dim: int = 1

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("box half-width must be positive")
        if self.points < 4 or self.points % 2:
            raise ValueError("points per axis must be even and >= 4")
        if self.spacing == 0.0:
            raise ValueError(f"box half-width {self.length!r} over {self.points} points "
                             "underflows the spacing to 0")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        need, memory = 8 * self.points**self.dim, physical_memory()
        if need > memory:
            raise ConfigError(f"{self.points} points per axis in d={self.dim}: one real array is "
                              f"{need / 2**30:.1f} GiB, more than the {memory / 2**30:.1f} GiB "
                              "of physical memory")

    @property
    def spacing(self) -> float:
        return 2.0 * self.length / self.points

    @property
    def nyquist(self) -> float:
        """Largest resolved angular frequency along one axis."""
        return math.pi / self.spacing

    def axis(self) -> np.ndarray:
        """Spatial coordinates of one axis, ascending from -L."""
        return -self.length + self.spacing * np.arange(self.points)

    def meshgrid(self):
        """Spatial coordinate arrays, one per axis, ascending order."""
        axes = [self.axis()] * self.dim
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def require_alias(self, alpha: float, t: float) -> None:
        """Raise AliasingViolation unless exp(-t |xi_max|^alpha) < 1e-12."""
        if t * self.nyquist**alpha < ALIAS_LOG:
            need = (ALIAS_LOG / t) ** (1.0 / alpha)
            raise AliasingViolation(
                f"grid resolves |xi| <= {self.nyquist:.4g} but t={t:.4g}, "
                f"alpha={alpha:.3g} needs |xi| >= {need:.4g}"
            )

    @classmethod
    def for_times(
        cls,
        alpha: float,
        dim: int,
        t_min: float,
        t_max: float | None = None,
        length: float | None = None,
    ) -> "SpectralGrid":
        """Build a grid whose aliasing guard holds for every t >= t_min.

        The default box half-width 8*max(t_max^(1/alpha), 1) keeps the
        periodization wrap-around below the frequency-truncation error for
        the mass and central-region values; pass ``length`` to override
        (e.g. tight boxes proportional to t^(1/alpha) for heavy-tailed
        kernels at small times).
        """
        if t_min <= 0.0:
            raise NonPositiveTime("t_min must be positive")
        if t_max is None:
            t_max = t_min
        if length is None:
            length = 8.0 * max(t_max ** (1.0 / alpha), 1.0)
        xi_need = (ALIAS_LOG / t_min) ** (1.0 / alpha)
        n = even_fast_len(max(64, math.ceil(2.0 * length * xi_need / math.pi)))
        return cls(length=length, points=n, dim=dim)


@functools.cache  # one audit asks for a few hundred sizes tens of thousands of times
def even_fast_len(n: int) -> int:
    """Smallest even 2^a 3^b 5^c >= n: FFT radices 2, 3, 5 only, even as SpectralGrid needs."""
    best, m5 = 2 * n, 2  # a power of two lies in [n, 2n]
    while m5 < best:
        m = m5
        while m < best:  # m = 2 3^b 5^c, times the least power of two that reaches n
            best = min(best, m << (-(-n // m) - 1).bit_length())
            m *= 3
        m5 *= 5
    return best


@functools.cache  # the condition quadrature builds tens of thousands of grids
def physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _freq_radius(grid: SpectralGrid) -> np.ndarray:
    """|xi| on the rfftn lattice (last axis halved)."""
    half = 2.0 * math.pi * np.fft.rfftfreq(grid.points, d=grid.spacing)
    if grid.dim == 1:
        return half
    full = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    return np.sqrt(full[:, None] ** 2 + half[None, :] ** 2)


def symbol(spec: KernelSpec, grid: SpectralGrid, t) -> np.ndarray:
    """Fourier symbol |xi|^epsilon * exp(-t |xi|^alpha) on the rfft lattice; for an array
    of times, one lattice per time (shape t.shape + lattice shape)."""
    r = _freq_radius(grid)
    sym = np.multiply.outer(np.negative(t), r**spec.alpha)
    np.exp(sym, out=sym)
    if spec.epsilon > 0.0:
        sym *= r**spec.epsilon
    return sym


def _symmetrize(vals: np.ndarray) -> np.ndarray:
    """Project onto the even subspace: the exact transform of a real even
    symbol is even, but FFT roundoff breaks the reflection bitwise."""
    for ax in range(vals.ndim):
        sl = [slice(None)] * vals.ndim
        sl[ax] = slice(1, None)
        sub = vals[tuple(sl)]
        np.copyto(sub, 0.5 * (sub + np.flip(sub, axis=ax)))
    return vals


def gaussian_kernel(t: float, r: np.ndarray, dim: int) -> np.ndarray:
    """Free-space Gaussian density (4 pi t)^(-d/2) exp(-|x|^2 / (4t))."""
    return (4.0 * math.pi * t) ** (-dim / 2.0) * np.exp(-(r * r) / (4.0 * t))


def cauchy_kernel(t: float, x: np.ndarray) -> np.ndarray:
    """Free-space Cauchy density t / (pi (t^2 + x^2)), d=1."""
    return t / (math.pi * (t * t + x * x))


def eval_kernel(spec: KernelSpec, grid: SpectralGrid, t: float) -> np.ndarray:
    """Kernel values on the spatial lattice (coordinates ascending from -L).

    The values are the periodized kernel: the inverse discrete Fourier
    transform of the symbol, normalized so that
    sum(values) * h^d == symbol(0) (= 1 for epsilon = 0).
    """
    if t <= 0.0:
        raise NonPositiveTime(f"t must be positive, got {t}")
    if spec.dim != grid.dim:
        raise ValueError(f"kernel dim {spec.dim} != grid dim {grid.dim}")
    grid.require_alias(spec.alpha, t)
    vals = np.fft.irfftn(symbol(spec, grid, t), (grid.points,) * grid.dim, range(grid.dim))
    return _symmetrize(np.fft.fftshift(vals) / grid.spacing**grid.dim)


def eval_kernel_periodized(spec: KernelSpec, grid: SpectralGrid, t: float) -> np.ndarray:
    """Periodized closed form: sum of free-space images over the 2L lattice.

    Exact oracle for the spectral evaluation.  Gaussian images converge
    super-exponentially; the periodic Cauchy sum has the exact form
    (1/2L) sinh(pi t / L) / (cosh(pi t / L) - cos(pi x / L)).
    """
    if t <= 0.0:
        raise NonPositiveTime(f"t must be positive, got {t}")
    kind = _CLOSED_FORMS.get((spec.alpha, spec.epsilon))
    period = 2.0 * grid.length
    if kind == "cauchy" and spec.dim == 1:
        x = grid.axis()
        a = 2.0 * math.pi * t / period
        b = 2.0 * math.pi * x / period
        return (1.0 / period) * np.sinh(a) / (np.cosh(a) - np.cos(b))
    if kind == "gauss":
        n_img = max(1, math.ceil(math.sqrt(4.0 * t * 46.0) / period) + 1)
        shifts = period * np.arange(-n_img, n_img + 1)
        if spec.dim == 1:
            x = grid.axis()
            total = np.zeros_like(x)
            for s in shifts:
                total += gaussian_kernel(t, np.abs(x + s), 1)
            return total
        x, y = grid.meshgrid()
        total = np.zeros((grid.points, grid.points))
        for sx in shifts:
            for sy in shifts:
                r = np.sqrt((x + sx) ** 2 + (y + sy) ** 2)
                total += gaussian_kernel(t, r, 2)
        return total
    raise UnsupportedClosedForm(f"no closed form for {spec}")


def lattice_mass(values: np.ndarray, grid: SpectralGrid) -> float:
    """Lattice integral sum(values) * h^d."""
    return float(values.sum() * grid.spacing**grid.dim)

