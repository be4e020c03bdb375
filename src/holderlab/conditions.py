"""Quadrature of the singular time integrals that control kernel regularity.

Three left-hand sides are computed for a kernel p and a Holder order beta:

  increment(s, t) = int_0^s ( int |p(t-r,z) - p(s-r,z)| (1+|z|^b) dz )^q dr
  mass(s)         = int_0^s ( int |p(s-r,z)| dz )^q dr
  tail(s, t)      = int_s^t ( int |p(t-r,z)| (1+|z|^b) dz )^q dr

The inner spatial integrals are lattice sums on boxes adapted to the kernel
scale tau^(1/alpha) (the aliasing guard then fixes the point count
independently of tau).  One such sum is one inverse real FFT of the symbol
(or of the difference of two symbols) and one pass over its output in the
FFT's native order, unshifted: index j of an axis sits at |z| = h m with
the integer radius m = min(j, n - j), so the origin weighs exactly 0, and
the 1/h^d of the kernel values cancels the h^d of the sum.  The outer
integrals use a graded midpoint mesh refined toward the singular endpoint,
r_j = s - s (j/J)^kappa, with a two-level Richardson check.  Slopes of log
LHS against log(t-s) estimate the regularity exponents; for the fractional
family with derivative order epsilon the expected slope is
(alpha - 2 epsilon) / alpha.

Everything here is a pure function; evaluations at different (s, t) pairs
are independent and safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InsufficientPoints,
    MomentDivergence,
    NonPositiveData,
    QuadratureNotConverged,
)
from .kernels import ALIAS_LOG, KernelSpec, SpectralGrid, even_fast_len, physical_memory, symbol

# Box half-width in units of the kernel scale tau^(1/alpha).  Large enough
# that the truncated |z|^beta-weighted tail is ~1% for the heavy-tailed
# orders used in experiments.
BOX_MULT = 24.0

# Lattice oversampling beyond the aliasing guard.  The guard alone leaves
# only ~ log(1e12)^(1/alpha)/pi points across the kernel core, too coarse
# for |p2 - p1| integrands whose sign-change corners are not band-limited.
OVERSAMPLE = 4

# Above this ratio (sigma + delta) / sigma the two kernels live at scales
# so far apart that the L1 norm of the difference is the sum of the two L1
# norms to well below quadrature accuracy.
RATIO_CAP = 256.0

RICHARDSON_FAIL = 0.05

# Grading exponent kappa of the outer mesh r_j = s - s (j/J)^kappa.
MESH_GRADING = 3.0

# Real float64 arrays of its lattice that one weighted L1 norm holds at its peak, by ru_maxrss
# (4.3 to 4.4): the complex spectrum, the inverse FFT's output, pocketfft's plan and scratch
# (which tracemalloc does not see) and, while the spectrum is filled, a symbol and its
# frequency radii (half a lattice each).
LATTICE_ARRAYS = 5


def _adapted_grid(spec: KernelSpec, tau_small: float, tau_big: float) -> SpectralGrid:
    """Lattice resolving the symbol at tau_small on a box holding tau_big; ConfigError,
    before anything is allocated, when LATTICE_ARRAYS of its arrays exceed physical memory."""
    length = BOX_MULT * tau_big ** (1.0 / spec.alpha)
    xi_need = (ALIAS_LOG / tau_small) ** (1.0 / spec.alpha)
    n = even_fast_len(max(64, OVERSAMPLE * math.ceil(2.0 * length * xi_need / math.pi)))
    need, memory = LATTICE_ARRAYS * 8 * n**spec.dim, physical_memory()
    if need > memory:
        raise ConfigError(f"alpha={spec.alpha:g}, kernel scales {tau_small:.4g} to "
                          f"{tau_big:.4g}: {n} points per axis in d={spec.dim}, and a weighted "
                          f"L1 norm on them holds {need / 2**30:.1f} GiB, more than the "
                          f"{memory / 2**30:.1f} GiB of physical memory")
    return SpectralGrid(length=length, points=n, dim=spec.dim)


def _weighted_sum(spec: KernelSpec, grid: SpectralGrid, beta: float, tau: float,
                  minus: float | None = None) -> float:
    """sum |v| (1 + |z|^beta) over v, the unnormalized inverse rfft of the symbol at tau, less
    the one at minus if given, in v's native order: index j of an axis sits at |z| = h m,
    m = min(j, n - j), so index n - m folds onto m and the origin is index 0 exactly."""
    n, half = grid.points, grid.points // 2
    sym = np.zeros((n,) * (grid.dim - 1) + (half + 1,), complex)  # irfft makes no complex copy
    sym.real = symbol(spec, grid, tau)
    if minus is not None:
        sym.real -= symbol(spec, grid, minus)
    absv = np.fft.irfft(sym, n) if grid.dim == 1 else np.fft.irfft2(sym, (n, n))
    np.abs(absv, out=absv)
    if beta == 0.0:
        return float(absv.sum())
    for ax in range(grid.dim):
        cut = (slice(None),) * ax
        absv[cut + (slice(1, half),)] += absv[cut + (slice(None, half, -1),)]
        absv = absv[cut + (slice(half + 1),)]
    m2 = np.arange(half + 1.0) ** 2
    weight = (np.add.outer(m2, m2) if grid.dim == 2 else m2) ** (0.5 * beta)  # |m|^beta
    weight *= grid.spacing**beta
    weight += 1.0
    weight *= absv
    return float(weight.sum())


def weighted_l1(spec: KernelSpec, tau: float, beta: float) -> float:
    """int |D^eps p(tau, z)| (1 + |z|^beta) dz by lattice quadrature."""
    g = _adapted_grid(spec, tau, tau)
    return _weighted_sum(spec, g, beta, tau)


def weighted_l1_increment(spec: KernelSpec, sigma: float, delta: float,
                          beta: float) -> float:
    """int |D^eps p(sigma+delta, z) - D^eps p(sigma, z)| (1 + |z|^beta) dz.

    When (sigma + delta) / sigma exceeds RATIO_CAP the kernels are
    scale-disjoint and the value is taken as the sum of the two weighted
    L1 norms (error far below quadrature tolerance).
    """
    tau2 = sigma + delta
    if tau2 / sigma > RATIO_CAP:
        return weighted_l1(spec, sigma, beta) + weighted_l1(spec, tau2, beta)
    return _weighted_sum(spec, _adapted_grid(spec, sigma, tau2), beta, tau2, sigma)


def _graded_cells(upper: float, J: int, kappa: float):
    """Midpoints and widths of the graded mesh upper * (j/J)^kappa."""
    j = np.arange(J + 1, dtype=float)
    edges = upper * (j / J) ** kappa
    mids = upper * ((j[1:] - 0.5) / J) ** kappa
    return mids, np.diff(edges)


def _graded_quadrature(f, upper: float, J: int, kappa: float) -> float:
    mids, widths = _graded_cells(upper, J, kappa)
    return float(sum(f(m) * w for m, w in zip(mids, widths)))


def _richardson(f, upper: float, J: int, kappa: float) -> float:
    fine = _graded_quadrature(f, upper, J, kappa)
    coarse = _graded_quadrature(f, upper, max(8, J // 2), kappa)
    denom = max(abs(fine), 1e-300)
    rel = abs(fine - coarse) / denom
    if rel > RICHARDSON_FAIL:
        raise QuadratureNotConverged(
            f"graded-mesh levels J={J} and J={J // 2} disagree by {rel:.2%}"
        )
    return fine


@dataclass
class ConditionProbe:
    """Inputs for the three condition integrals.

    power is the exponent q applied to the inner spatial integral (q = 2
    for second-moment estimates, q = p for p-moment variants).  Spatial
    integrals run on boxes adapted to the kernel scale per evaluation.
    """

    kernel: KernelSpec
    beta: float = 0.0
    power: float = 2.0
    time_pairs: list = field(default_factory=list)
    mesh_points: int = 256

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if self.power < 1.0:
            raise ValueError(f"power must be >= 1, got {self.power}")
        if self.kernel.alpha < 2.0 and self.beta >= self.kernel.alpha:
            raise MomentDivergence(
                f"|z|^beta moment diverges: beta={self.beta} >= alpha={self.kernel.alpha}"
            )
        if self.kernel.epsilon >= self.kernel.alpha / 2.0:
            raise ValueError(
                "condition checks need epsilon < alpha/2, got "
                f"epsilon={self.kernel.epsilon}, alpha={self.kernel.alpha}"
            )
        if self.mesh_points < 16:
            raise ValueError("mesh_points must be >= 16")
        for s, t in self.time_pairs:
            if not 0.0 < s < t:
                raise ValueError(f"time pairs need 0 < s < t, got ({s}, {t})")


def condition_increment(probe: ConditionProbe, s: float, t: float) -> float:
    """Time-increment condition LHS for the pair (s, t)."""
    if not 0.0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    delta = t - s
    q = probe.power

    def integrand(sigma):
        return weighted_l1_increment(probe.kernel, sigma, delta, probe.beta) ** q

    return _richardson(integrand, s, probe.mesh_points, MESH_GRADING)


def condition_mass(probe: ConditionProbe, s: float) -> float:
    """Unweighted kernel-mass condition LHS at time s."""
    if s <= 0.0:
        raise ValueError(f"need s > 0, got {s}")
    q = probe.power

    def integrand(sigma):
        return weighted_l1(probe.kernel, sigma, 0.0) ** q

    return _richardson(integrand, s, probe.mesh_points, MESH_GRADING)


def condition_tail(probe: ConditionProbe, s: float, t: float) -> float:
    """Recent-past condition LHS: integral over r in (s, t)."""
    if not 0.0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    q = probe.power

    def integrand(sigma):
        return weighted_l1(probe.kernel, sigma, probe.beta) ** q

    return _richardson(integrand, t - s, probe.mesh_points, MESH_GRADING)


@dataclass
class FitResult:
    """Ordinary least squares on (log scale, log value)."""

    slope: float
    intercept: float
    stderr: float
    n_points: int
    value_decades: float
    narrow_span: bool


def fit_exponent(pairs) -> FitResult:
    """Fit value ~ C * scale^slope by OLS in log-log coordinates.

    Spans of fitted values below 1.5 decades are flagged (narrow_span),
    not rejected.  Values that are all equal fit exactly, with stderr 0.
    """
    pairs = list(pairs)
    if len(pairs) < 4:
        raise InsufficientPoints(f"need >= 4 points, got {len(pairs)}")
    scales = np.array([p[0] for p in pairs], dtype=float)
    values = np.array([p[1] for p in pairs], dtype=float)
    if np.any(scales <= 0.0) or np.any(values <= 0.0):
        raise NonPositiveData("scales and values must all be positive")
    x, y = np.log(scales), np.log(values)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat  # mean square deviations and product
    if ssxm == 0.0:
        raise InsufficientPoints("need two distinct scales")
    slope = ssxym / ssxm
    stderr = 0.0  # equal values: the fit is exact
    if ssym != 0.0:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
        stderr = float(np.sqrt((1.0 - r**2) * ssym / ssxm / (len(pairs) - 2)))
    decades = float(np.log10(values.max() / values.min()))
    return FitResult(
        slope=float(slope),
        intercept=float(y.mean() - slope * x.mean()),
        stderr=stderr,
        n_points=len(pairs),
        value_decades=decades,
        narrow_span=decades < 1.5,
    )


@dataclass
class ConditionReport:
    """All three condition LHS tables plus fitted exponents.

    gamma1/gamma2 are recovered from the fitted log-log slopes; with inner
    power q the increment and tail LHS scale like (t-s)^(gamma * q / 2),
    so gamma = 2 * slope / q.
    """

    beta: float
    power: float
    increment_lhs: list  # [(t - s, value)]
    tail_lhs: list       # [(t - s, value)]
    mass_lhs: list       # [(s, value)]
    fit_increment: FitResult
    fit_tail: FitResult
    n0_estimate: float
    gamma1: float
    gamma2: float
    gamma1_stderr: float
    gamma2_stderr: float

    def to_dict(self):
        return {
            "beta": self.beta,
            "power": self.power,
            "increment": {"pairs": [lag for lag, _ in self.increment_lhs],
                          "lhs": [v for _, v in self.increment_lhs],
                          "fit": asdict(self.fit_increment)},
            "tail": {"pairs": [lag for lag, _ in self.tail_lhs],
                     "lhs": [v for _, v in self.tail_lhs],
                     "fit": asdict(self.fit_tail)},
            "mass": {"times": [s for s, _ in self.mass_lhs],
                     "lhs": [v for _, v in self.mass_lhs]},
            "n0_estimate": self.n0_estimate,
            "fitted_gamma1": self.gamma1,
            "fitted_gamma1_stderr": self.gamma1_stderr,
            "fitted_gamma2": self.gamma2,
            "fitted_gamma2_stderr": self.gamma2_stderr,
        }


def audit_conditions(probe: ConditionProbe) -> ConditionReport:
    """Evaluate all three conditions on the probe's time pairs, at least the 4 a fit needs
    (ValueError before any quadrature), and fit the regularity exponents from their scaling."""
    if len(probe.time_pairs) < 4:
        raise ValueError(f"probe has {len(probe.time_pairs)} time pairs, need >= 4 to fit")
    inc, tail = [], []
    for s, t in probe.time_pairs:
        lag = t - s
        inc.append((lag, condition_increment(probe, s, t)))
        tail.append((lag, condition_tail(probe, s, t)))
    mass_times = sorted({s for s, _ in probe.time_pairs} | {max(t for _, t in probe.time_pairs)})
    mass = [(s, condition_mass(probe, s)) for s in mass_times]

    q = probe.power
    fit_inc, fit_tl = fit_exponent(inc), fit_exponent(tail)
    return ConditionReport(
        beta=probe.beta,
        power=q,
        increment_lhs=inc,
        tail_lhs=tail,
        mass_lhs=mass,
        fit_increment=fit_inc,
        fit_tail=fit_tl,
        n0_estimate=max(v for _, v in mass),
        gamma1=2.0 * fit_inc.slope / q,
        gamma2=2.0 * fit_tl.slope / q,
        gamma1_stderr=2.0 * fit_inc.stderr / q,
        gamma2_stderr=2.0 * fit_tl.stderr / q,
    )

