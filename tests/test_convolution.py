import json
import math

import numpy as np
import pytest

from holderlab.convolution import (
    FieldEnsemble,
    TestFunctionSpec,
    convolve_brownian,
    convolve_poisson,
    second_moment_pairs,
)
from holderlab.errors import GridMismatch
from holderlab.kernels import KernelSpec, SpectralGrid
from holderlab.noise import JumpSpec, MarkLaw, NoiseSpec, sample_path

KERNEL = KernelSpec(alpha=2.0)
GRID = SpectralGrid(length=4.0, points=256, dim=1)
BROWNIAN = NoiseSpec(kind="brownian", horizon=1.0, steps=128, seed=9)
POISSON = NoiseSpec(kind="poisson", horizon=1.0, steps=128, seed=9,
                    jump=JumpSpec(intensity=10.0,
                                  mark=MarkLaw("two-sided-exponential", 1.0)))


def test_g_family_validation():
    with pytest.raises(ValueError):
        TestFunctionSpec(family="wavelet")
    with pytest.raises(ValueError):
        TestFunctionSpec(family="parabolic-power", beta=1.2)
    with pytest.raises(ValueError):
        TestFunctionSpec(mark_family="cubed")
    g = TestFunctionSpec(family="parabolic-power", beta=0.5, amplitude=2.0)
    assert g.evaluate(0.0, np.array([0.0]))[0] == 0.0  # vanishes at the origin
    assert g.holder_constant == 4.0


def test_zero_g_zero_field():
    g = TestFunctionSpec(family="constant", amplitude=0.0)
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=4, save_times=[0, 64])
    assert np.all(ens.values == 0.0)


def test_unit_g_reproduces_brownian_path():
    # unit-mass kernel and g = 1 collapse the convolution to W(t) at every x
    g = TestFunctionSpec(family="constant", amplitude=1.0)
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=6, save_times=[0, 32, 128])
    for m in range(6):
        w = sample_path(BROWNIAN, m).increments
        assert np.allclose(ens.values[m, 1, :], w[:32].sum(), rtol=1e-10, atol=1e-14)
        assert np.allclose(ens.values[m, 2, :], w.sum(), rtol=1e-10, atol=1e-14)


def test_unit_g_variance_is_time():
    g = TestFunctionSpec(family="constant", amplitude=1.0)
    M = 2000
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=M, save_times=[64])
    u = ens.values[:, 0, 10]
    var = (u**2).mean()
    se = (u**2).std() / math.sqrt(M)
    assert abs(var - 0.5) < 3.0 * se


def test_zero_initial_data():
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=3, save_times=[0, 16])
    assert np.all(ens.values[:, 0] == 0.0)


def test_linearity_in_g():
    base = TestFunctionSpec(family="spatial-power", beta=0.5, amplitude=1.0)
    doubled = TestFunctionSpec(family="spatial-power", beta=0.5, amplitude=2.0)
    e1 = convolve_brownian(KERNEL, GRID, base, BROWNIAN, M=3, save_times=[64])
    e2 = convolve_brownian(KERNEL, GRID, doubled, BROWNIAN, M=3, save_times=[64])
    # power-of-two amplitude: scaling is exact in floating point
    assert np.array_equal(2.0 * e1.values, e2.values)


def test_stationary_increments_unit_g():
    g = TestFunctionSpec(family="constant", amplitude=1.0)
    M = 1500
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=M,
                            save_times=[32, 64, 96, 128])
    x = 40
    d1 = ens.values[:, 1, x] - ens.values[:, 0, x]
    d2 = ens.values[:, 3, x] - ens.values[:, 2, x]
    v1, v2 = (d1**2).mean(), (d2**2).mean()
    se = math.sqrt((d1**2).var() / M + (d2**2).var() / M)
    assert abs(v1 - v2) < 3.0 * se


def test_kind_mismatch_rejected():
    g = TestFunctionSpec(family="constant")
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, POISSON, M=2)
    with pytest.raises(GridMismatch):
        convolve_poisson(KERNEL, GRID, g, BROWNIAN, M=2)
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[0.3])
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[4000])


def test_ito_isometry_oracle_vs_monte_carlo():
    # 10 random point pairs: exact discrete second moments within 3 MC sigmas
    g = TestFunctionSpec(family="parabolic-power", beta=0.5, amplitude=1.0)
    M = 2000
    saved = [32, 48, 64, 96, 128]
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=M, save_times=saved)
    rng = np.random.default_rng(4)
    i1 = rng.choice(saved, 10)
    i2 = rng.choice(saved, 10)
    j1 = rng.integers(64, 192, 10)
    j2 = rng.integers(64, 192, 10)
    oracle = second_moment_pairs(KERNEL, GRID, g, BROWNIAN, i1, j1, i2, j2)
    pos = {i: k for k, i in enumerate(saved)}
    for n in range(10):
        d = (ens.values[:, pos[i1[n]], j1[n]] - ens.values[:, pos[i2[n]], j2[n]])
        mc = (d**2).mean()
        se = (d**2).std() / math.sqrt(M)
        if se == 0.0:
            assert oracle[n] == 0.0
        else:
            assert abs(mc - oracle[n]) <= 3.0 * se


def test_poisson_mean_zero_and_isometry():
    g = TestFunctionSpec(family="constant", amplitude=1.0, mark_family="identity")
    M = 3000
    ens = convolve_poisson(KERNEL, GRID, g, POISSON, M=M, save_times=[64])
    u = ens.values[:, 0, 100]
    se_mean = u.std() / math.sqrt(M)
    assert abs(u.mean()) < 3.0 * se_mean
    target = 0.5 * POISSON.jump.intensity * POISSON.jump.mark.second_moment
    sq = u**2
    assert abs(sq.mean() - target) < 3.0 * sq.std() / math.sqrt(M)


def test_poisson_compensator_active_for_one_marks():
    # g1 = 1 has nonzero mark mean: the compensator must recentre the field
    g = TestFunctionSpec(family="constant", amplitude=1.0, mark_family="one")
    M = 3000
    ens = convolve_poisson(KERNEL, GRID, g, POISSON, M=M, save_times=[128])
    u = ens.values[:, 0, 30]
    se = u.std() / math.sqrt(M)
    assert abs(u.mean()) < 3.0 * se
    # variance: lambda T E[g1^2] = 10 * 1 * 1
    sq = u**2
    assert abs(sq.mean() - 10.0) < 3.0 * sq.std() / math.sqrt(M)


def test_poisson_oracle_matches():
    g = TestFunctionSpec(family="parabolic-power", beta=0.5, mark_family="identity")
    M = 2500
    ens = convolve_poisson(KERNEL, GRID, g, POISSON, M=M, save_times=[64, 128])
    oracle = second_moment_pairs(KERNEL, GRID, g, POISSON,
                                 [128], [130], [64], [150])
    d = ens.values[:, 1, 130] - ens.values[:, 0, 150]
    mc = (d**2).mean()
    se = (d**2).std() / math.sqrt(M)
    assert abs(mc - oracle[0]) <= 3.0 * se


def test_adaptedness_events_after_t_do_not_matter():
    # u(t) must not see jumps after t: build a path with a late event by
    # checking that u at an early time has no dependence on horizon tail
    g = TestFunctionSpec(family="constant", amplitude=1.0, mark_family="identity")
    ens = convolve_poisson(KERNEL, GRID, g, POISSON, M=4, save_times=[16])
    for m in range(4):
        path = sample_path(POISSON, m)
        t16 = 16 * POISSON.dt
        manual = path.marks[path.times < t16].sum()
        # slab binning contributes an event from the first lattice time
        # strictly after it; events in [t16, T] are invisible at t16
        assert np.allclose(ens.values[m, 0, :], manual, atol=1e-10)


def test_ensemble_save_load_roundtrip(tmp_path):
    g = TestFunctionSpec(family="parabolic-power", beta=0.4)
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=3,
                            save_times=[0, 64], dtype=np.float32)
    prefix = str(tmp_path / "ens")
    ens.save(prefix)
    back = FieldEnsemble.load(prefix)
    assert np.array_equal(back.values, ens.values)
    assert back.values.dtype == np.float32
    assert np.array_equal(back.time_indices, ens.time_indices)
    assert back.kernel == ens.kernel
    assert back.g == ens.g
    assert back.noise.seed == ens.noise.seed

    # sidecars written before NoiseSpec.p0 was removed still load
    side = json.loads((tmp_path / "ens.json").read_text())
    assert "p0" not in side["noise"]
    side["noise"]["p0"] = 4.0
    (tmp_path / "ens.json").write_text(json.dumps(side))
    old = FieldEnsemble.load(prefix)
    assert old.noise == ens.noise
    assert np.array_equal(old.values, ens.values)


def test_dim2_smoke():
    # d = 2 path: unit g reproduces W(t) at every lattice node
    kernel = KernelSpec(alpha=2.0, dim=2)
    noise = NoiseSpec(kind="brownian", horizon=0.5, steps=32, seed=1)
    grid = SpectralGrid.for_times(2.0, 2, t_min=noise.dt / 2.0, length=4.0)
    g = TestFunctionSpec(family="constant", amplitude=1.0)
    ens = convolve_brownian(kernel, grid, g, noise, M=2, save_times=[16])
    w = sample_path(noise, 1).increments[:16].sum()
    assert ens.values.shape == (2, 1, grid.points, grid.points)
    assert np.allclose(ens.values[1, 0], w, rtol=1e-10, atol=1e-14)
