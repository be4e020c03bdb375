import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import holderlab.conditions as conditions
import holderlab.kernels as kernels
from holderlab.conditions import (
    LATTICE_ARRAYS,
    MESH_GRADING,
    RATIO_CAP,
    ConditionProbe,
    _adapted_grid,
    _graded_cells,
    audit_conditions,
    condition_increment,
    condition_mass,
    condition_tail,
    fit_exponent,
    weighted_l1,
    weighted_l1_increment,
)
from holderlab.errors import (
    ConfigError,
    InsufficientPoints,
    MomentDivergence,
    NonPositiveData,
    QuadratureNotConverged,
)
from holderlab.experiments import default_config, dyadic
from holderlab.kernels import KernelSpec, SpectralGrid


def _time_pairs(k_min, k_max):
    """(0.5, 0.5 + 2^-k) for k = k_min, ..., k_max."""
    return [(0.5, 0.5 + lag) for lag in dyadic("lags", k_min, k_max)]


def gaussian_probe(beta=0.3, **kw):
    return ConditionProbe(kernel=KernelSpec(alpha=2.0), beta=beta, power=2.0, **kw)


def test_degenerate_pair_rejected():
    probe = gaussian_probe()
    with pytest.raises(ValueError):
        condition_increment(probe, 0.5, 0.5)
    with pytest.raises(ValueError):
        condition_tail(probe, 0.7, 0.6)
    with pytest.raises(ValueError):
        condition_mass(probe, 0.0)


def test_probe_validation():
    with pytest.raises(MomentDivergence):
        ConditionProbe(kernel=KernelSpec(alpha=0.5), beta=0.7)
    with pytest.raises(ValueError):
        ConditionProbe(kernel=KernelSpec(alpha=1.0, epsilon=0.6), beta=0.0)
    with pytest.raises(ValueError):
        ConditionProbe(kernel=KernelSpec(alpha=2.0), beta=0.0, power=0.5)
    with pytest.raises(ValueError):
        gaussian_probe(time_pairs=[(0.5, 0.4)])


def test_mass_identity_unit_kernel():
    # for epsilon = 0 the kernel has unit mass, so the integrand is 1
    probe = gaussian_probe(beta=0.0, mesh_points=64)
    assert condition_mass(probe, 1.0) == pytest.approx(1.0, abs=1e-4)
    probe12 = ConditionProbe(kernel=KernelSpec(alpha=1.2), beta=0.0, mesh_points=64)
    assert condition_mass(probe12, 0.5) == pytest.approx(0.5, abs=1e-4)


def test_mass_linear_in_s_for_gaussian():
    probe = gaussian_probe(beta=0.0, mesh_points=64)
    m1 = condition_mass(probe, 0.3)
    m2 = condition_mass(probe, 0.6)
    assert m2 == pytest.approx(2.0 * m1, rel=1e-6)


def test_tail_unit_mass_limit():
    # beta = 0, epsilon = 0: integrand is 1, so the tail integral is t - s
    probe = gaussian_probe(beta=0.0, mesh_points=64)
    delta = 2.0**-7
    assert condition_tail(probe, 0.5, 0.5 + delta) == pytest.approx(delta, rel=1e-4)


def test_mass_scaling_fractional():
    # alpha=1, eps=0.25: mass(s) ~ s^(1 - 2 eps / alpha) = s^0.5
    probe = ConditionProbe(kernel=KernelSpec(alpha=1.0, epsilon=0.25),
                           beta=0.0, mesh_points=128)
    svals = [2.0**-k for k in range(0, 6)]
    fits = fit_exponent([(s, condition_mass(probe, s)) for s in svals])
    assert fits.slope == pytest.approx(0.5, abs=0.15)


def test_gaussian_increment_slope():
    # dyadic lags at s = 0.5: slope of the increment condition is ~1
    probe = gaussian_probe(beta=0.3, mesh_points=128)
    rows = [(t - s, condition_increment(probe, s, t))
            for s, t in _time_pairs(3, 7)]
    fit = fit_exponent(rows)
    assert fit.slope == pytest.approx(1.0, abs=0.15)


def test_lemma_exponent_increment_and_tail():
    # alpha=1.5, eps=0.25, beta=0: both slopes ~ (alpha - 2 eps)/alpha = 2/3
    probe = ConditionProbe(kernel=KernelSpec(alpha=1.5, epsilon=0.25),
                           beta=0.0, mesh_points=128)
    inc, tail = [], []
    for s, t in _time_pairs(3, 8):
        inc.append((t - s, condition_increment(probe, s, t)))
        tail.append((t - s, condition_tail(probe, s, t)))
    assert fit_exponent(inc).slope == pytest.approx(2.0 / 3.0, abs=0.2)
    assert fit_exponent(tail).slope == pytest.approx(2.0 / 3.0, abs=0.15)


def test_tail_monotone_in_t():
    probe = gaussian_probe(beta=0.3, mesh_points=64)
    s = 0.25
    vals = [condition_tail(probe, s, s + lag) for lag in (0.05, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_weighted_l1_power_law():
    # int |D^eps p(tau)| dz = c tau^(-eps/alpha)
    spec = KernelSpec(alpha=1.0, epsilon=0.25)
    v1 = weighted_l1(spec, 0.1, 0.0)
    v2 = weighted_l1(spec, 0.1 / 16.0, 0.0)
    assert v2 / v1 == pytest.approx(16.0**0.25, rel=1e-2)


def test_condition_lattice_beyond_physical_memory_is_a_config_error(monkeypatch):
    # alpha = 0.55 across a ratio of 256 asks for 612,220,032 points: one real array (4.6 GiB)
    # fits an 8 GiB machine, the LATTICE_ARRAYS a weighted L1 norm holds (22.8 GiB) do not
    monkeypatch.setattr(kernels, "physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(conditions, "physical_memory", lambda: 8 * 2**30)
    spec = KernelSpec(alpha=0.55)
    assert SpectralGrid(length=1.0, points=612_220_032).points == 612_220_032

    def not_reached(*args, **kwargs):
        raise AssertionError("the lattice was allocated before the memory check")

    monkeypatch.setattr(conditions, "symbol", not_reached)
    with pytest.raises(ConfigError, match="612220032 points per axis in d=1, and a weighted L1 "
                                          "norm on them holds 22.8 GiB, more than the 8.0 GiB"):
        _adapted_grid(spec, 1.0, 256.0)
    with pytest.raises(ConfigError, match="physical memory"):
        weighted_l1_increment(spec, 1.0, 255.0, 0.5)
    assert _adapted_grid(spec, 1.0, 1.0).points == 25600  # one kernel scale: a small lattice


def shifted_reference(spec, tau_small, tau_big, beta):
    """The weighted L1 norm on an ascending lattice: numpy's fftshift of the normalized
    values and the exact |z| = h |i - n/2|."""
    grid = _adapted_grid(spec, tau_small, tau_big)
    sym = kernels.symbol(spec, grid, tau_big)
    if tau_big != tau_small:
        sym = sym - kernels.symbol(spec, grid, tau_small)
    n, h, d = grid.points, grid.spacing, grid.dim
    vals = np.fft.fftshift(np.fft.irfftn(sym, s=(n,) * d, axes=tuple(range(d)))) / h**d
    z2 = (h * np.abs(np.arange(n) - n // 2)) ** 2
    weight = 1.0 + np.sqrt(sum(np.ix_(*[z2] * d))) ** beta if beta > 0.0 else 1.0
    return float((np.abs(vals) * weight).sum() * h**d)


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("epsilon", [0.0, 0.3])
@pytest.mark.parametrize("alpha, dim, tau", [(1.0, 1, 0.3), (2.0, 2, 1.0)], ids=["d1", "d2"])
def test_weighted_norms_match_the_shifted_reference(alpha, dim, tau, epsilon, beta):
    spec = KernelSpec(alpha=alpha, epsilon=epsilon, dim=dim)
    if dim == 1:  # -L + h i misses 0 at i = n/2 here; the origin must still weigh 0
        for tau_big in (tau, 2.0 * tau):
            grid = _adapted_grid(spec, tau, tau_big)
            assert grid.axis()[grid.points // 2] != 0.0
    assert weighted_l1(spec, tau, beta) == pytest.approx(
        shifted_reference(spec, tau, tau, beta), rel=1e-12)
    assert weighted_l1_increment(spec, tau, tau, beta) == pytest.approx(
        shifted_reference(spec, tau, 2.0 * tau, beta), rel=1e-12)


def implied_counts(probe):
    """Norm and symbol calls audit_conditions makes on probe's graded meshes."""
    levels = (probe.mesh_points, max(8, probe.mesh_points // 2))
    nodes = len(probe.time_pairs) * sum(levels)
    capped = sum(int(((mids + t - s) / mids > RATIO_CAP).sum()) for s, t in probe.time_pairs
                 for mids in (_graded_cells(s, level, MESH_GRADING)[0] for level in levels))
    mass_times = len({s for s, _ in probe.time_pairs} | {max(t for _, t in probe.time_pairs)})
    plain = nodes + mass_times * sum(levels) + 2 * capped
    return {"increment": nodes, "tail": nodes, "mass": mass_times * sum(levels),
            "capped": 2 * capped, "plain": plain, "symbol": plain + 2 * (nodes - capped)}


def test_audit_evaluates_the_lattices_its_mesh_implies(monkeypatch):
    probe = ConditionProbe(kernel=KernelSpec(alpha=1.0), beta=0.3, mesh_points=16,
                           time_pairs=_time_pairs(1, 4))
    symbol, plain, increment = (conditions.symbol, conditions.weighted_l1,
                                conditions.weighted_l1_increment)
    seen, inside = Counter(), []

    def count_symbol(*args):
        seen["symbol"] += 1
        return symbol(*args)

    def count_plain(spec, tau, beta):
        seen["plain"] += 1
        seen["capped" if inside else "tail" if beta else "mass"] += 1
        return plain(spec, tau, beta)

    def count_increment(*args):
        seen["increment"] += 1
        inside.append(True)
        try:
            return increment(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(conditions, "symbol", count_symbol)
    monkeypatch.setattr(conditions, "weighted_l1", count_plain)
    monkeypatch.setattr(conditions, "weighted_l1_increment", count_increment)
    audit_conditions(probe)
    want = implied_counts(probe)
    assert want["capped"] > 0
    assert dict(seen) == want

    # the traced self-test of the kernel-audit benchmark pins the same rule's counts
    config = default_config("kernel-audit", 0)
    cond = config.conditions
    pairs = [(cond.s_base, cond.s_base + 2.0**-k)
             for k in range(cond.lag_k_min, cond.lag_k_max + 1)]
    audit = [implied_counts(ConditionProbe(kernel=KernelSpec(alpha=config.kernel.alpha), beta=b,
                                           time_pairs=pairs, mesh_points=cond.mesh_points))
             for b in cond.betas]
    assert [sum(c[key] for c in audit) for key in ("increment", "plain", "symbol")] == [
        9216, 12450, 29952]


@pytest.mark.parametrize("spec, sigma, delta", [(KernelSpec(alpha=1.0, epsilon=0.3), 1.0, 20.0),
                                                (KernelSpec(alpha=1.0), 1.0, 1.0),
                                                (KernelSpec(alpha=2.0, dim=2), 1.0, 1.0)],
                         ids=["d1-eps", "d1-small", "d2"])
def test_weighted_l1_peak_stays_within_the_counted_lattice_arrays(spec, sigma, delta):
    def peak(norm, *args):
        tracemalloc.start()
        try:
            norm(spec, *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def counted(tau_big):
        grid = _adapted_grid(spec, sigma, tau_big)
        return LATTICE_ARRAYS * 8 * grid.points**grid.dim

    for beta in (0.0, 0.5):
        assert peak(weighted_l1_increment, sigma, delta, beta) <= counted(sigma + delta)
        assert peak(weighted_l1, sigma, beta) <= counted(sigma)


def test_fit_exponent_exact_power_laws():
    pairs = [(2.0**-k, 2.0**-k) for k in range(3, 8)]
    fit = fit_exponent(pairs)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    pairs = [(2.0**-k, 5.0 * 2.0 ** (-0.5 * k)) for k in range(3, 8)]
    fit = fit_exponent(pairs)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-10)


def test_fit_exponent_perturbed_power_law():
    pairs = [(2.0**-k, 2.0**-k * (1.0 + 0.01 * (-1.0) ** k)) for k in range(3, 8)]
    fit = fit_exponent(pairs)
    assert abs(fit.slope - 1.0) < 0.02
    # closed-form OLS oracle on the same 5 points
    x = np.log([p[0] for p in pairs])
    y = np.log([p[1] for p in pairs])
    slope = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
    assert fit.slope == pytest.approx(slope, rel=1e-12)


def test_fit_exponent_is_linregress_bit_for_bit():
    from scipy.stats import linregress

    rng = np.random.default_rng(17)
    for n in rng.integers(4, 40, size=300):
        x = rng.normal(0.0, 3.0, n)
        y = rng.normal() * x + rng.normal(0.0, rng.uniform(0.0, 2.0), n)
        fit = fit_exponent(list(zip(np.exp(x), np.exp(y))))
        ref = linregress(np.log(np.exp(x)), np.log(np.exp(y)))
        assert (fit.slope, fit.intercept, fit.stderr) == (ref.slope, ref.intercept, ref.stderr)


def test_fit_exponent_errors_and_flag():
    with pytest.raises(InsufficientPoints):
        fit_exponent([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    with pytest.raises(NonPositiveData):
        fit_exponent([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0), (4.0, 4.0)])
    with pytest.raises(InsufficientPoints, match="distinct scales"):
        fit_exponent([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0), (2.0, 4.0)])
    narrow = fit_exponent([(1.0 + 0.1 * k, 1.0 + 0.01 * k) for k in range(5)])
    assert narrow.narrow_span
    wide = fit_exponent([(2.0**-k, 2.0**-k) for k in range(8)])
    assert not wide.narrow_span
    # equal values fit exactly: stderr 0 and no warning (linregress gives NaN here)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = fit_exponent([(1.0 + k, 2.0) for k in range(5)])
    assert (flat.slope, flat.stderr, flat.value_decades) == (0.0, 0.0, 0.0)


def test_audit_report_roundtrip(tmp_path):
    probe = gaussian_probe(beta=0.3, mesh_points=64,
                           time_pairs=_time_pairs(4, 7))
    report = audit_conditions(probe)
    assert report.gamma1 == pytest.approx(1.0, abs=0.2)
    assert report.gamma2 == pytest.approx(1.0, abs=0.2)
    assert report.n0_estimate > 0
    assert all(v >= 0 and np.isfinite(v) for _, v in report.increment_lhs)


@pytest.mark.parametrize("n_pairs", [0, 1, 3])
def test_audit_refuses_too_few_time_pairs_to_fit_before_any_quadrature(monkeypatch, n_pairs):
    # the report always holds both fits, and fit_exponent needs 4 lags: fewer are refused
    # before a single kernel symbol is evaluated
    monkeypatch.setattr(conditions, "symbol", lambda *args: pytest.fail("quadrature ran"))
    probe = gaussian_probe(time_pairs=_time_pairs(4, 7)[:n_pairs])
    with pytest.raises(ValueError, match=f"probe has {n_pairs} time pairs, need >= 4"):
        audit_conditions(probe)


def test_power_variant_scaling():
    # inner power q = 4 on the tail: integrand still 1 for the unit-mass
    # kernel, so the value stays t - s
    probe = ConditionProbe(kernel=KernelSpec(alpha=2.0), beta=0.0, power=4.0,
                           mesh_points=64)
    delta = 2.0**-5
    assert condition_tail(probe, 0.5, 0.5 + delta) == pytest.approx(delta, rel=1e-4)


def test_graded_levels_that_disagree_past_the_richardson_bound_raise():
    # the Cauchy kernel's increment over (0.5, 0.501) on a 16-cell outer mesh: the J = 16 and
    # J = 8 graded levels disagree by about 50%, far past RICHARDSON_FAIL
    probe = ConditionProbe(KernelSpec(alpha=1.0), beta=0.0, power=2.0, mesh_points=16)
    with pytest.raises(QuadratureNotConverged, match=r"levels J=16 and J=8 disagree by") as err:
        condition_increment(probe, 0.5, 0.501)
    assert float(str(err.value).split()[-1].rstrip("%")) > 100 * conditions.RICHARDSON_FAIL
