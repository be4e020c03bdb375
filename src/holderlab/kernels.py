"""Heat-type convolution kernels evaluated spectrally.

The kernel family is the transition density p(t, x) of the semigroup
generated by -(-Laplace)^(alpha/2) on R^d, 0 < alpha <= 2, optionally with
a fractional spatial derivative of order epsilon >= 0 applied as the radial
Fourier multiplier |xi|^epsilon.  Evaluation is on a periodic box
[-L, L)^d with an FFT, so the spectral values are the periodization of the
free-space kernel.  Values stay in the FFT's native order (index j of an
axis at j h for j < n/2, at (j - n) h above); only the convolution shifts
what it stores to coordinates ascending from -L.  The closed forms that
check the spectral values live with the tests, in tests/oracles.py.

All functions are pure: they allocate their own work arrays and never
mutate their inputs, so concurrent evaluation across times is safe.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import AliasingViolation, ConfigError

# exp(-ALIAS_LOG) = 1e-12: decay required of the symbol at the largest
# resolved frequency before truncating the Fourier integral.
ALIAS_LOG = -math.log(1e-12)


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

    def require_alias(self, alpha: float, t: float) -> None:
        """Raise AliasingViolation unless exp(-t |xi_max|^alpha) < 1e-12."""
        if t * self.nyquist**alpha < ALIAS_LOG:
            need = (ALIAS_LOG / t) ** (1.0 / alpha)
            raise AliasingViolation(
                f"grid resolves |xi| <= {self.nyquist:.4g} but t={t:.4g}, "
                f"alpha={alpha:.3g} needs |xi| >= {need:.4g}"
            )


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
