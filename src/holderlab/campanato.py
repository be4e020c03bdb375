"""Parabolic geometry and Campanato seminorm machinery.

The metric is delta(X, Y) = max(|x - y|, |t - s|^(1/2)); its balls are the
parabolic cylinders Q_c(t0, x0) = (t0 - c^2, t0 + c^2) x B_c(x0).  The
domain is one axis-aligned space-time box, for which cylinder intersection
measures come out in closed form.  Seminorm suprema
over continua are estimated from finitely many sampled cylinders: reported
values are lower bounds of the true sup, and the fitted scaling exponent
across dyadic radii (not the sup itself) is the quantity experiments
assert on.

Pure computations over immutable inputs; per-cylinder work is independent
and the sup reductions are order-free.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import Generator

from .conditions import fit_exponent
from .errors import (
    DimensionMismatch,
    SamplingBudgetTooSmall,
    ThetaOutOfEmbeddingRange,
)
from .noise import keyed_rng


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def cylinder_measure(c: float, dim: int) -> float:
    """Lebesgue measure 2 c^2 * omega_d * c^d of a parabolic cylinder of radius c."""
    return 2.0 * c * c * unit_ball_volume(dim) * c**dim


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point X = (t, x) with x a spatial vector of length d."""

    t: float
    x: tuple

    def __init__(self, t: float, x):
        object.__setattr__(self, "t", float(t))
        xs = tuple(float(v) for v in np.atleast_1d(x))
        object.__setattr__(self, "x", xs)
        if not all(math.isfinite(v) for v in (self.t, *self.x)):
            raise ValueError("space-time point must have finite coordinates")

    @property
    def dim(self) -> int:
        return len(self.x)

    def x_array(self) -> np.ndarray:
        return np.array(self.x)


def parabolic_distance(t1, x1, t2, x2) -> np.ndarray | float:
    """max(|x - y|, |t - s|^(1/2)); vectorized over leading axes.

    x1, x2 may be scalars (d=1), 1-d arrays of batched d=1 coordinates when
    t is an array, or (n, d) arrays.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        raise DimensionMismatch(f"spatial shapes differ: {x1.shape} vs {x2.shape}")
    if x1.ndim >= 2:
        space = np.sqrt(((x1 - x2) ** 2).sum(axis=-1))
    else:
        space = np.abs(x1 - x2)
    out = np.maximum(space, np.sqrt(np.abs(t1 - t2)))
    return float(out) if out.ndim == 0 else out


def _positions(x, dim: int) -> np.ndarray:
    """x as float positions of shape (n, dim); any other shape raises DimensionMismatch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatch(f"positions of shape {x.shape} are not (n, {dim})")
    return x


@dataclass(frozen=True)
class ParabolicCylinder:
    """Q_c(X): the delta-ball of radius c centered at X."""

    center: SpaceTimePoint
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("cylinder radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.dim

    @property
    def measure(self) -> float:
        return cylinder_measure(self.radius, self.dim)

    def contains(self, t, x) -> np.ndarray:
        t, x, c = np.asarray(t, dtype=float), _positions(x, self.dim), self.radius
        sdist = np.sqrt(((x - self.center.x_array()) ** 2).sum(axis=-1))
        return (np.abs(t - self.center.t) < c * c) & (sdist < c)


# --- box domains ---------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned space-time box (t0, t1) x prod_j (lo_j, hi_j)."""

    t0: float
    t1: float
    x_lo: tuple
    x_hi: tuple

    def __init__(self, t0, t1, x_lo, x_hi):
        object.__setattr__(self, "t0", float(t0))
        object.__setattr__(self, "t1", float(t1))
        object.__setattr__(self, "x_lo", tuple(float(v) for v in np.atleast_1d(x_lo)))
        object.__setattr__(self, "x_hi", tuple(float(v) for v in np.atleast_1d(x_hi)))
        if self.t1 <= self.t0:
            raise ValueError("box needs t1 > t0")
        if len(self.x_lo) != len(self.x_hi):
            raise DimensionMismatch("x_lo and x_hi lengths differ")
        if any(h <= l for l, h in zip(self.x_lo, self.x_hi)):
            raise ValueError("box needs x_hi > x_lo componentwise")

    @property
    def dim(self) -> int:
        return len(self.x_lo)

    def contains(self, t, x) -> np.ndarray:
        t, x = np.asarray(t, dtype=float), _positions(x, self.dim)
        ok = (t >= self.t0) & (t <= self.t1)
        for j, (lo, hi) in enumerate(zip(self.x_lo, self.x_hi)):
            ok &= (x[..., j] >= lo) & (x[..., j] <= hi)
        return ok

    def intersection_measure(self, cyl: ParabolicCylinder) -> float:
        """|D cap Q_c(X)|: the time overlap times an interval (d=1) or disk-box (d=2) one."""
        if cyl.dim != self.dim:
            raise DimensionMismatch("cylinder and domain dims differ")
        c = cyl.radius
        t0, x0 = cyl.center.t, cyl.center.x_array()
        t_ov = min(self.t1, t0 + c * c) - max(self.t0, t0 - c * c)
        if t_ov <= 0.0:
            return 0.0
        if self.dim == 1:
            return t_ov * max(min(self.x_hi[0], x0[0] + c) - max(self.x_lo[0], x0[0] - c), 0.0)
        return t_ov * disk_rect_area(x0[0], x0[1], c, self.x_lo[0], self.x_hi[0],
                                     self.x_lo[1], self.x_hi[1])

    def sample_points(self, rng: Generator, n: int):
        """n uniform points of the box: times (n,) and positions (n, d)."""
        ts = rng.uniform(self.t0, self.t1, n)
        return ts, np.column_stack([rng.uniform(lo, hi, n)
                                    for lo, hi in zip(self.x_lo, self.x_hi)])


def _disk_corner_area(r: float, x: float, y: float) -> float:
    """Area of {X^2 + Y^2 <= r^2, X <= x, Y <= y}."""
    if x <= -r or y <= -r:
        return 0.0
    x = min(x, r)
    y = min(y, r)

    def f1(u):
        # int_{-r}^{u} sqrt(r^2 - X^2) dX
        u = max(-r, min(u, r))
        return 0.5 * (u * math.sqrt(max(r * r - u * u, 0.0))
                      + r * r * math.asin(u / r)) + 0.25 * math.pi * r * r

    if y >= r:
        return 2.0 * f1(x)
    b = math.sqrt(max(r * r - y * y, 0.0))
    if y >= 0.0:
        # X <= -b: full chord 2w; -b < X < b: y + w; X >= b: 2w
        if x <= -b:
            return 2.0 * f1(x)
        area = 2.0 * f1(-b)
        xm = min(x, b)
        area += y * (xm + b) + (f1(xm) - f1(-b))
        if x > b:
            area += 2.0 * (f1(x) - f1(b))
        return area
    # y < 0: integrand (y + w) supported on |X| < b
    if x <= -b:
        return 0.0
    xm = min(x, b)
    return y * (xm + b) + (f1(xm) - f1(-b))


def disk_rect_area(cx: float, cy: float, r: float,
                   x0: float, x1: float, y0: float, y1: float) -> float:
    """Area of the disk B_r(cx, cy) intersected with [x0,x1] x [y0,y1]."""
    a = (_disk_corner_area(r, x1 - cx, y1 - cy)
         - _disk_corner_area(r, x0 - cx, y1 - cy)
         - _disk_corner_area(r, x1 - cx, y0 - cy)
         + _disk_corner_area(r, x0 - cx, y0 - cy))
    return max(a, 0.0)


# --- seminorm reports -----------------------------------------------------

@dataclass
class SeminormReport:
    """Per-scale seminorm statistics and the fitted scaling exponent.

    per_scale holds the sup over sampled cylinder centers of the
    measure-normalized pairwise average.  fitted_theta comes from regressing
    the raw (not normalized) per-scale pairwise average against log |Q_c|;
    fitted_gamma is the Holder exponent implied by it.
    """

    kind: str
    p: float
    parameter: float  # theta
    scales: list
    per_scale: list
    per_scale_meandev: list | None = None
    raw_per_scale: list | None = None
    fitted_theta: float | None = None
    fitted_theta_stderr: float | None = None
    fitted_gamma: float | None = None
    fitted_gamma_stderr: float | None = None
    seminorm: float | None = None
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _cylinder_samples(rng, domain: Box, cyl: ParabolicCylinder, budget: int):
    """Uniform points of D cap Q by rejection from the cylinder's box."""
    c = cyl.radius
    t0, x0 = cyl.center.t, cyl.center.x_array()
    ts_out, xs_out = [], []
    have = 0
    for _ in range(64):
        n_try = max(4 * (budget - have), 16)
        ts = rng.uniform(t0 - c * c, t0 + c * c, n_try)
        xs = x0[None, :] + rng.uniform(-c, c, (n_try, x0.size))
        keep = cyl.contains(ts, xs) & domain.contains(ts, xs)
        ts_out.append(ts[keep])
        xs_out.append(xs[keep])
        have += int(keep.sum())
        if have >= budget:
            break
    ts = np.concatenate(ts_out)[:budget]
    xs = np.vstack(xs_out)[:budget]
    return ts, xs


def _check_exponents(p: float, theta: float) -> None:
    """ValueError unless the moment order p is finite and >= 1 and theta finite and >= 0."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")


def _pairwise_mean(vals: np.ndarray, p: float) -> float:
    diff = np.abs(vals[:, None] - vals[None, :]) ** p
    return float(diff.mean())


def campanato_seminorm(u, domain: Box, p: float, theta: float, scales,
                       budget: int = 256, n_centers: int = 16,
                       seed: int = 0) -> SeminormReport:
    """Sampled Campanato seminorm of a deterministic space-time field.

    u is a callable u(ts, xs) -> values with ts (n,) and xs (n, d).  For
    each dyadic scale and each candidate center the mean-deviation form
    (1/|D cap Q|^theta) int |u - mean|^p and the dominating pairwise form
    (1/|D cap Q|^(1+theta)) int int |u(Y) - u(Z)|^p are estimated from a
    shared uniform sample, and the sup over centers (campanato_from_pair_moments)
    is reported.  Centers refine toward the previous scale's maximizers so
    cusp-type fields keep their worst cylinders under shrinking scales.
    """
    _check_exponents(p, theta)
    if budget < 64:
        raise SamplingBudgetTooSmall("need at least 64 points per cylinder")
    scales = sorted(scales, reverse=True)
    rng = keyed_rng(seed, 0xCA)

    groups = []  # (scale, |D cap Q|, pairwise mean, mean deviation) per accepted cylinder
    carried = []
    for c in scales:
        ts, xs = domain.sample_points(rng, n_centers)
        candidates = [SpaceTimePoint(t, x) for t, x in zip(ts, xs)]
        for prev in carried:
            candidates.append(prev)
            jit_t = prev.t + rng.uniform(-c * c, c * c, 3)
            jit_x = prev.x_array()[None, :] + rng.uniform(-c, c, (3, domain.dim))
            keep = domain.contains(jit_t, jit_x)
            candidates.extend(SpaceTimePoint(t, x)
                              for t, x in zip(jit_t[keep], jit_x[keep]))
        ranked = []
        for X in candidates:
            cyl = ParabolicCylinder(X, c)
            meas = domain.intersection_measure(cyl)
            if meas <= 0.0:
                continue
            pts_t, pts_x = _cylinder_samples(rng, domain, cyl, budget)
            if pts_t.size < budget // 2:
                continue
            vals = np.asarray(u(pts_t, pts_x), dtype=float)
            pw = _pairwise_mean(vals, p)
            groups.append((c, meas, pw, float(np.mean(np.abs(vals - vals.mean()) ** p))))
            ranked.append((pw, X))
        ranked.sort(key=lambda r: -r[0])
        carried = [X for _, X in ranked[:4]]

    report = campanato_from_pair_moments(groups, p, theta)
    report.notes = {"budget": budget, "n_centers": n_centers,
                    "pairwise_dominates_meandev": all(
                        pw >= dv * (1.0 - 1e-9)
                        for pw, dv in zip(report.per_scale, report.per_scale_meandev))}
    raw, dim = report.raw_per_scale, domain.dim
    if len(raw) >= 4 and not any(v <= 0 for v in raw):  # the theta fit
        fit = fit_exponent([(cylinder_measure(c, dim), v) for c, v in zip(report.scales, raw)])
        report.fitted_theta = 1.0 + fit.slope
        report.fitted_theta_stderr = fit.stderr
        report.fitted_gamma = (dim + 2.0) * fit.slope / p
        report.fitted_gamma_stderr = (dim + 2.0) * fit.stderr / p
        report.notes["theta_fit_decades"] = fit.value_decades
    return report


def campanato_from_pair_moments(groups, p: float, theta: float) -> SeminormReport:
    """Campanato report from per-cylinder moments, the one reduction of both routes.

    Each entry of groups is one cylinder: (scale, measure, mean pair moment), or the same
    with the mean deviation as a fourth value.  Per scale, largest first, the report holds
    the sup over its cylinders of each moment times measure^(1 - theta), and of the raw pair
    moment; a scale without cylinders has no row.  per_scale_meandev needs every fourth value.
    A p that is not finite and >= 1, or a theta that is not finite and >= 0, raises ValueError.
    """
    _check_exponents(p, theta)
    rows = {}  # scale -> (measure^(1 - theta), pair moment[, mean deviation]) per cylinder
    for scale, meas, *moments in groups:
        rows.setdefault(scale, []).append((meas ** (1.0 - theta), *moments))
    scales = sorted(rows, reverse=True)

    def sup(j: int, normalized: bool = True) -> list:
        return [max([0.0] + [r[j] * r[0] if normalized else r[j] for r in rows[s]])
                for s in scales]

    per_scale = sup(1)
    return SeminormReport(
        kind="campanato", p=p, parameter=theta, scales=scales, per_scale=per_scale,
        per_scale_meandev=sup(2) if all(len(g) == 4 for g in groups) else None,
        raw_per_scale=sup(1, normalized=False),
        seminorm=max(per_scale) ** (1.0 / p) if per_scale else None)


def embedding_exponent(p: float, theta: float, dim: int) -> float:
    """Holder exponent (d+2)(theta - 1)/p of the Campanato embedding.

    Valid for 1 < theta <= 1 + p/(d+2); the result lies in (0, 1].
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 1.0 < theta <= 1.0 + p / (dim + 2.0):
        raise ThetaOutOfEmbeddingRange(
            f"theta={theta} outside (1, {1.0 + p / (dim + 2.0):.6g}]"
        )
    return (dim + 2.0) * (theta - 1.0) / p

