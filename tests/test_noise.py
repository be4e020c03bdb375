import math

import numpy as np
import pytest

from numpy.random import Generator, Philox

from holderlab.noise import (JumpSpec, MarkLaw, NoiseSpec, keyed_rng, sample_path, slab_cumulant,
                             slab_weights)
from oracles import (
    CompensatorQuadratureFailure,
    compensated_ensemble,
    compensator_integral,
    ito_ensemble,
)

BROWNIAN = NoiseSpec(kind="brownian", horizon=1.0, steps=100, seed=2024)
POISSON = NoiseSpec(kind="poisson", horizon=2.0, steps=64, seed=2024,
                    jump=JumpSpec(intensity=5.0, mark=MarkLaw("two-sided-exponential", 1.0)))


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="levy", horizon=1.0, steps=10)
    with pytest.raises(ValueError):
        NoiseSpec(kind="brownian", horizon=0.0, steps=10)
    with pytest.raises(ValueError):
        NoiseSpec(kind="brownian", horizon=1.0, steps=1)
    with pytest.raises(ValueError):
        NoiseSpec(kind="poisson", horizon=1.0, steps=10)  # no jump
    with pytest.raises(ValueError):
        JumpSpec(intensity=0.0)
    with pytest.raises(ValueError):
        MarkLaw("cauchy", 1.0)
    # parameter**2 underflows to 0 (a ZeroDivisionError for the exponential law) or overflows
    for family in ("two-sided-exponential", "gaussian"):
        for parameter in (1e-245, 1e200):
            with pytest.raises(ValueError, match="no positive finite second moment"):
                MarkLaw(family, parameter)
        assert MarkLaw(family, 1e-100).second_moment > 0.0


def test_same_key_bit_identical():
    a = sample_path(BROWNIAN, 5)
    b = sample_path(BROWNIAN, 5)
    assert np.array_equal(a.increments, b.increments)
    c = sample_path(POISSON, 5)
    d = sample_path(POISSON, 5)
    assert np.array_equal(c.times, d.times)
    assert np.array_equal(c.marks, d.marks)


def test_streams_differ_and_decorrelate():
    a = sample_path(BROWNIAN, 0).increments
    b = sample_path(BROWNIAN, 1).increments
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(len(a))


def test_brownian_increment_moments():
    M, n = 2000, 100
    dt = BROWNIAN.dt
    inc = np.stack([sample_path(BROWNIAN, m).increments for m in range(M)])
    mean = inc.mean()
    assert abs(mean) < 3.0 * math.sqrt(dt / (M * n))
    var = inc.var()
    assert abs(var - dt) < 3.0 * dt * math.sqrt(2.0 / (M * n))


def test_poisson_count_and_time_order():
    M = 2000
    lam_t = POISSON.jump.intensity * POISSON.horizon
    counts = np.array([sample_path(POISSON, m).times.size for m in range(M)])
    assert abs(counts.mean() - lam_t) < 3.0 * math.sqrt(lam_t / M)
    path = sample_path(POISSON, 3)
    assert np.all(np.diff(path.times) > 0)
    assert path.times[-1] <= POISSON.horizon


def test_mark_law_moments():
    law = MarkLaw("two-sided-exponential", 2.0)
    assert law.second_moment == pytest.approx(2.0 / 4.0)
    assert law.abs_moment(1.0) == pytest.approx(0.5)
    gauss = MarkLaw("gaussian", 1.5)
    assert gauss.second_moment == pytest.approx(2.25)
    rng = np.random.default_rng(0)
    z = law.sample(rng, 40000)
    assert abs((z**2).mean() - 0.5) < 3.0 * (z**2).std() / 200.0


def test_compensated_integral_zero_mean_and_isometry():
    assert not compensated_ensemble(POISSON, lambda t, z: np.zeros_like(z), 3).any()

    vals = compensated_ensemble(POISSON, lambda t, z: z, 4000)
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean()) < 3.0 * se
    # E I^2 = T lambda E[z^2] for h = z
    target = POISSON.horizon * POISSON.jump.intensity * POISSON.jump.mark.second_moment
    sq = vals**2
    assert abs(sq.mean() - target) < 3.0 * sq.std() / math.sqrt(sq.size)


def test_compensator_quadrature_value():
    # h = z^2: compensator = lambda T E[z^2]
    comp = compensator_integral(lambda t, z: z * z, POISSON.horizon, POISSON.jump)
    assert comp == pytest.approx(POISSON.horizon * 5.0 * 2.0, rel=1e-6)


MARK_LAWS = [MarkLaw("two-sided-exponential", 1.3), MarkLaw("gaussian", 0.7)]


@pytest.mark.parametrize("law", MARK_LAWS, ids=["exponential", "gaussian"])
@pytest.mark.parametrize("h", [lambda t, z: z, lambda t, z: z * np.cos(t), lambda t, z: z * z,
                               lambda t, z: z**4 * t, lambda t, z: np.exp(-z * z) * t * t],
                         ids=["z", "z-cos-t", "z2", "z4-t", "gauss-bump-t2"])
def test_compensator_gauss_rules_match_adaptive_quadrature(law, h):
    from scipy.integrate import quad

    def density(z):
        if law.family == "gaussian":
            s = law.parameter
            return math.exp(-0.5 * (z / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        return 0.5 * law.parameter * math.exp(-law.parameter * abs(z))

    def mark_average(t):
        return quad(lambda z: float(h(t, z)) * density(z), -np.inf, np.inf, limit=200)[0]

    jump, horizon = JumpSpec(intensity=3.0, mark=law), 1.7
    want = jump.intensity * quad(mark_average, 0.0, horizon)[0]
    assert compensator_integral(h, horizon, jump) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_compensator_of_a_kinked_h_under_gaussian_marks_is_refused():
    # |z| has a kink at the Gauss-Hermite rule's centre: the 96- and 64-node rules land 4.3e-3
    # and 6.5e-3 relative above E|z| = sqrt(2/pi), too far apart for the 1e-6 refinement check
    spec = NoiseSpec(kind="poisson", horizon=1.0, steps=16, seed=0,
                     jump=JumpSpec(intensity=1.0, mark=MarkLaw("gaussian", 1.0)))
    with pytest.raises(CompensatorQuadratureFailure, match="node refinement"):
        compensated_ensemble(spec, lambda t, z: np.abs(z), 2)


def test_ito_isometry():
    h = lambda t: np.cos(2.0 * math.pi * t)
    vals = ito_ensemble(BROWNIAN, h, 4000)
    # continuum oracle int_0^1 cos^2(2 pi t) dt = 1/2
    sq = vals**2
    assert abs(sq.mean() - 0.5) < 3.0 * sq.std() / math.sqrt(sq.size)
    # realization m is the left-endpoint sum over path m
    t = BROWNIAN.dt * np.arange(BROWNIAN.steps)
    assert vals[7] == pytest.approx(h(t) @ sample_path(BROWNIAN, 7).increments, rel=1e-10)
    with pytest.raises(ValueError, match="brownian"):
        ito_ensemble(POISSON, h, 2)


GAUSSIAN_MARKS = NoiseSpec(kind="poisson", horizon=2.0, steps=64, seed=7,
                           jump=JumpSpec(intensity=5.0, mark=MarkLaw("gaussian", 0.5)))


@pytest.mark.parametrize("spec", [BROWNIAN, POISSON, GAUSSIAN_MARKS],
                         ids=["brownian", "exponential-marks", "gaussian-marks"])
def test_slab_weight_moments_match_the_cumulants(spec):
    # centered weights: E w = 0, E w^2 = kappa2, E w^4 = kappa4 + 3 kappa2^2
    w = slab_weights(spec, 4000, spec.steps).ravel()
    k2, k4 = slab_cumulant(spec, 2), slab_cumulant(spec, 4)
    for x, target in ((w, 0.0), (w**2, k2), (w**4, k4 + 3.0 * k2**2)):
        assert abs(x.mean() - target) < 3.0 * x.std() / math.sqrt(x.size)


@pytest.mark.parametrize("spec", [BROWNIAN, POISSON, GAUSSIAN_MARKS],
                         ids=["brownian", "exponential-marks", "gaussian-marks"])
def test_slab_weights_store_the_first_slabs_of_the_whole_draw(spec):
    # every path is drawn whole, so the first slabs columns do not depend on slabs
    whole = slab_weights(spec, 6, spec.steps)
    assert whole.shape == (6, spec.steps)
    for slabs in (0, 1, spec.steps // 2 + 1, spec.steps):
        w = slab_weights(spec, 6, slabs)
        assert w.shape == (6, slabs) and np.array_equal(w, whole[:, :slabs])


def test_slab_cumulants_in_closed_form():
    assert [slab_cumulant(BROWNIAN, n) for n in (1, 2, 3, 4)] == [0.0, BROWNIAN.dt, 0.0, 0.0]
    lam_dt = POISSON.jump.intensity * POISSON.dt
    # two-sided exponential, rate 1: E z^2 = 2, E z^4 = 24, odd moments vanish
    assert [slab_cumulant(POISSON, n) for n in (1, 2, 3, 4)] == pytest.approx(
        [0.0, 2.0 * lam_dt, 0.0, 24.0 * lam_dt], rel=1e-14)


def test_kunita_moment_ratio_stable():
    # p = 4 bound: E sup |I|^4 <= N(4) [ (int int h^2 nu)^2 + int int h^4 nu ];
    # the constant is reported, and must be stable in the ensemble size
    lam, law = POISSON.jump.intensity, POISSON.jump.mark
    T = POISSON.horizon
    rhs = (T * lam * law.second_moment) ** 2 + T * lam * law.abs_moment(4.0)
    grid = np.linspace(0.0, T, 257)

    def sup_i4(M, offset):
        out = np.empty(M)
        for m in range(M):
            path = sample_path(POISSON, offset + m)
            csum = np.concatenate([[0.0], np.cumsum(path.marks)])
            jumps = csum[np.searchsorted(path.times, grid, side="right")]
            # h = z has zero mark mean: the compensator vanishes
            out[m] = np.max(np.abs(jumps)) ** 4
        return out.mean()

    r1 = sup_i4(800, 0) / rhs
    r2 = sup_i4(1600, 800) / rhs
    assert np.isfinite(r1) and np.isfinite(r2)
    assert abs(r1 - r2) / max(r1, r2) < 0.5


@pytest.mark.parametrize("seed, stream", [(0, 0), (2024, 0xD7), (7, 5), (-1, -7),
                                          (2**63, 2**64 + 3), (2**64 - 1, 2**63 + 11),
                                          (-(2**70), 0xC1)])
def test_keyed_rng_draws_philox_keyed_by_seed_and_stream_bit_for_bit(seed, stream):
    # seeds and streams of any sign and size key Philox with their residues mod 2^64
    want = Generator(Philox(key=[seed % 2**64, stream % 2**64]))
    got = keyed_rng(seed, stream)
    assert got.bit_generator.state["state"]["key"].tolist() == [seed % 2**64, stream % 2**64]
    for draw in (lambda g: g.normal(size=257), lambda g: g.exponential(2.0, 64),
                 lambda g: g.integers(0, 2**62, 64)):
        assert np.array_equal(draw(got).view(np.uint64), draw(want).view(np.uint64))
