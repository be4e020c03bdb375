import dataclasses
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import holderlab.convolution as convolution
from holderlab.convolution import (
    PAIR_CHUNK,
    FieldEnsemble,
    Lattice,
    PairEnsemble,
    TestFunctionSpec,
    _g_spectrum,
    _lag_symbols,
    convolve_brownian,
    convolve_poisson,
    even_blocks,
    second_moment_pairs,
)
from holderlab.errors import GridMismatch, PairOffGrid
from holderlab.experiments import PAIR_BYTES, RegularityPieces, build_regularity, default_config
from holderlab.kernels import KernelSpec, SpectralGrid, _freq_radius, symbol
from holderlab.moments import _pair_blocks, estimate_pair_moments, sample_pairs_dyadic
from holderlab.noise import (
    JumpSpec,
    MarkLaw,
    NoiseSpec,
    sample_path,
    slab_cumulant,
    slab_weights,
)
from oracles import (ConstantG, SpatialPowerG, gathered_slab_differences, per_time_field,
                     slab_spectra)

KERNEL = KernelSpec(alpha=2.0)
GRID = SpectralGrid(length=4.0, points=256, dim=1)
BROWNIAN = NoiseSpec(kind="brownian", horizon=1.0, steps=128, seed=9)
POISSON = NoiseSpec(kind="poisson", horizon=1.0, steps=128, seed=9,
                    jump=JumpSpec(intensity=10.0,
                                  mark=MarkLaw("two-sided-exponential", 1.0)))


def _oracle(kernel, grid, g, noise, idx1, pos1, idx2, pos2):
    """The exact second moments of these pair members: second_moment_pairs of their table."""
    table = convolution._slab_differences(kernel, grid, g, noise, idx1, pos1, idx2, pos2)
    return second_moment_pairs(table, noise)


def _differences(held):
    """u(X) - u(Y) of every pair of a PairEnsemble, (M, pairs), as the estimator forms a block."""
    return (held.slab_differences.rows() @ held.values.T).T


def test_g_family_validation():
    with pytest.raises(ValueError):
        TestFunctionSpec(beta=1.2)
    g = TestFunctionSpec(beta=0.5, amplitude=2.0)
    assert g.evaluate(0.0, np.array([0.0]))[0] == 0.0  # vanishes at the origin


def test_zero_g_zero_field(simulate):
    g = ConstantG(0.0)
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=4, save_times=[0, 64])
    assert np.all(values == 0.0)


def test_unit_g_reproduces_brownian_path(simulate):
    # unit-mass kernel and g = 1 collapse the convolution to W(t) at every x
    g = ConstantG(1.0)
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=6,
                         save_times=[0, 32, 128])
    for m in range(6):
        w = sample_path(BROWNIAN, m).increments
        assert np.allclose(values[m, 1, :], w[:32].sum(), rtol=1e-10, atol=1e-14)
        assert np.allclose(values[m, 2, :], w.sum(), rtol=1e-10, atol=1e-14)


def test_unit_g_variance_is_time(simulate):
    g = ConstantG(1.0)
    M = 2000
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=M, save_times=[64])
    u = values[:, 0, 10]
    var = (u**2).mean()
    se = (u**2).std() / math.sqrt(M)
    assert abs(var - 0.5) < 3.0 * se


def test_zero_initial_data(simulate):
    g = TestFunctionSpec(beta=0.5)
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=3, save_times=[0, 16])
    assert np.all(values[:, 0] == 0.0)


def test_linearity_in_g(simulate):
    base = SpatialPowerG(beta=0.5, amplitude=1.0)
    doubled = SpatialPowerG(beta=0.5, amplitude=2.0)
    _, v1 = simulate(convolve_brownian, KERNEL, GRID, base, BROWNIAN, M=3, save_times=[64])
    _, v2 = simulate(convolve_brownian, KERNEL, GRID, doubled, BROWNIAN, M=3, save_times=[64])
    # power-of-two amplitude: scaling is exact in floating point
    assert np.array_equal(2.0 * v1, v2)


def test_stationary_increments_unit_g(simulate):
    g = ConstantG(1.0)
    M = 1500
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=M,
                         save_times=[32, 64, 96, 128])
    x = 40
    d1 = values[:, 1, x] - values[:, 0, x]
    d2 = values[:, 3, x] - values[:, 2, x]
    v1, v2 = (d1**2).mean(), (d2**2).mean()
    se = math.sqrt((d1**2).var() / M + (d2**2).var() / M)
    assert abs(v1 - v2) < 3.0 * se


def test_kind_mismatch_rejected():
    g = ConstantG()
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, POISSON, M=2, save_times=[0, 64])
    with pytest.raises(GridMismatch):
        convolve_poisson(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[0, 64])
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[0.3])
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[4000])


def test_ito_isometry_oracle_vs_monte_carlo(simulate):
    # 10 random point pairs: exact discrete second moments within 3 MC sigmas
    g = TestFunctionSpec(beta=0.5, amplitude=1.0)
    M = 2000
    saved = [32, 48, 64, 96, 128]
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=M, save_times=saved)
    rng = np.random.default_rng(4)
    i1 = rng.choice(saved, 10)
    i2 = rng.choice(saved, 10)
    j1 = rng.integers(64, 192, 10)
    j2 = rng.integers(64, 192, 10)
    oracle = _oracle(KERNEL, GRID, g, BROWNIAN, i1, j1, i2, j2)
    pos = {i: k for k, i in enumerate(saved)}
    for n in range(10):
        d = (values[:, pos[i1[n]], j1[n]] - values[:, pos[i2[n]], j2[n]])
        mc = (d**2).mean()
        se = (d**2).std() / math.sqrt(M)
        if se == 0.0:
            assert oracle[n] == 0.0
        else:
            assert abs(mc - oracle[n]) <= 3.0 * se


def test_poisson_mean_zero_and_isometry(simulate):
    g = ConstantG(1.0)
    M = 3000
    _, values = simulate(convolve_poisson, KERNEL, GRID, g, POISSON, M=M, save_times=[64])
    u = values[:, 0, 100]
    se_mean = u.std() / math.sqrt(M)
    assert abs(u.mean()) < 3.0 * se_mean
    target = 0.5 * POISSON.jump.intensity * POISSON.jump.mark.second_moment
    sq = u**2
    assert abs(sq.mean() - target) < 3.0 * sq.std() / math.sqrt(M)


def test_poisson_oracle_matches(simulate):
    g = TestFunctionSpec(beta=0.5)
    M = 2500
    _, values = simulate(convolve_poisson, KERNEL, GRID, g, POISSON, M=M, save_times=[64, 128])
    oracle = _oracle(KERNEL, GRID, g, POISSON, [128], [130], [64], [150])
    d = values[:, 1, 130] - values[:, 0, 150]
    mc = (d**2).mean()
    se = (d**2).std() / math.sqrt(M)
    assert abs(mc - oracle[0]) <= 3.0 * se


def test_adaptedness_events_after_t_do_not_matter(simulate):
    # u(t) must not see jumps after t: build a path with a late event by
    # checking that u at an early time has no dependence on horizon tail
    g = ConstantG(1.0)
    _, values = simulate(convolve_poisson, KERNEL, GRID, g, POISSON, M=4, save_times=[16])
    for m in range(4):
        path = sample_path(POISSON, m)
        t16 = 16 * POISSON.dt
        manual = path.marks[path.times < t16].sum()
        # slab binning contributes an event from the first lattice time
        # strictly after it; events in [t16, T] are invisible at t16
        assert np.allclose(values[m, 0, :], manual, atol=1e-10)


def test_ensemble_save_load_roundtrip(tmp_path):
    g = TestFunctionSpec(beta=0.4)
    prefix = str(tmp_path / "ens")
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=3, save_times=[0, 64])
    ens.save(prefix)
    back = FieldEnsemble.load(prefix)
    assert back.values.dtype == np.float64 and back.values.shape == (3, 64)
    assert np.array_equal(back.values, ens.values)
    assert np.array_equal(back.time_indices, ens.time_indices)
    assert back.kernel == ens.kernel
    assert back.g == ens.g
    assert back.noise.seed == ens.noise.seed

    # sidecars written before NoiseSpec.p0, KernelSpec.method, TestFunctionSpec.mark_family,
    # TestFunctionSpec.family and the top-level dt (now noise.dt) were removed still load; a
    # stale dt is not read
    side = json.loads((tmp_path / "ens.json").read_text())
    assert "p0" not in side["noise"] and "dt" not in side and "mark_family" not in side["g"]
    assert sorted(side["kernel"]) == ["alpha", "dim", "epsilon"]
    assert sorted(side["g"]) == ["amplitude", "beta"]
    side["noise"]["p0"] = 4.0
    side["kernel"]["method"] = "closed-form"
    side["g"]["mark_family"] = "identity"
    side["g"]["family"] = "parabolic-power"
    side["dt"] = 2.0 * BROWNIAN.dt
    (tmp_path / "ens.json").write_text(json.dumps(side))
    old = FieldEnsemble.load(prefix)
    assert old.noise == ens.noise and old.dt == BROWNIAN.dt
    assert old.kernel == ens.kernel and old.g == ens.g
    assert np.array_equal(old.values, ens.values)


def test_poisson_ensemble_save_load_roundtrip(tmp_path):
    noise = NoiseSpec(kind="poisson", horizon=1.0, steps=128, seed=4,
                      jump=JumpSpec(intensity=7.5, mark=MarkLaw("gaussian", 0.6)))
    g = TestFunctionSpec(beta=0.3)
    prefix = str(tmp_path / "ens")
    ens = convolve_poisson(KERNEL, GRID, g, noise, M=2, save_times=[32, 128])
    ens.save(prefix)
    side = json.loads((tmp_path / "ens.json").read_text())
    assert side["noise"]["jump"] == {"intensity": 7.5,
                                     "mark": {"family": "gaussian", "parameter": 0.6}}
    assert side["weights"] == [2, 128] and side["shape"] == [2, 2, GRID.points]
    back = FieldEnsemble.load(prefix)
    assert (back.noise, back.g, back.kernel, back.grid) == (noise, g, KERNEL, GRID)
    assert np.array_equal(back.values, ens.values)
    assert ens.values.any()
    assert np.array_equal(back.time_indices, ens.time_indices)


@pytest.mark.parametrize("weights, g, refusal", [
    (np.zeros((40, 7)), TestFunctionSpec(), "weights of shape"),
    (np.zeros((40, 9)), TestFunctionSpec(), "weights of shape"),
    (np.zeros((40, 8), np.float32), TestFunctionSpec(), "weights of shape"),
    (np.zeros(40), TestFunctionSpec(), "weights of shape"),
    (np.zeros((40, 8)), ConstantG(), "is not a TestFunctionSpec"),
], ids=["too-few-slabs", "too-many-slabs", "float32-weights", "one-dimensional",
        "g-not-a-test-function-spec"])
def test_save_refuses_weights_that_are_not_the_ensembles(tmp_path, weights, g, refusal):
    # checked before anything is written: no .bin, sidecar or partial file is left; a g the
    # sidecar cannot hold would load back as the paper's g
    ens = FieldEnsemble(values=weights, time_indices=np.array([0, 4, 8]),
                        grid=SpectralGrid(length=1.0, points=16), kernel=KERNEL, g=g,
                        noise=NoiseSpec(kind="brownian", horizon=1.0, steps=8, seed=1))
    with pytest.raises(ValueError, match=refusal):
        ens.save(str(tmp_path / "ens"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fail", ["sidecar-write", "bin-rename", "sidecar-rename"])
def test_save_never_leaves_a_sidecar_over_another_bin(tmp_path, monkeypatch, fail):
    # a save that fails at any step after the .bin was written leaves the previous ensemble
    # whole, or (once the previous sidecar is gone) no sidecar at all: a sidecar never meets a
    # .bin it was not written with, and no .partial file is left
    g = TestFunctionSpec(beta=0.5)
    prefix = str(tmp_path / "ens")
    convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=3, save_times=[0, 64]).save(prefix)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    dump, replace, renames = json.dump, convolution.os.replace, iter(["bin-rename",
                                                                       "sidecar-rename"])

    def stopped(step, original):
        def run(*args, **kwargs):
            if step() == fail:
                raise OSError(f"stopped at {fail}")
            return original(*args, **kwargs)
        return run

    monkeypatch.setattr(convolution.json, "dump", stopped(lambda: "sidecar-write", dump))
    monkeypatch.setattr(convolution.os, "replace", stopped(lambda: next(renames), replace))
    with pytest.raises(OSError, match=f"stopped at {fail}"):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=5, save_times=[0, 64]).save(prefix)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if fail == "sidecar-write":
        assert after == before
    else:  # the previous sidecar was removed first; the new one never arrived
        assert sorted(after) == ["ens.bin"]
        assert len(after["ens.bin"]) == {"bin-rename": 3, "sidecar-rename": 5}[fail] * 64 * 8


@pytest.mark.parametrize("kernel_dim, grid_dim", [(2, 2), (1, 2), (2, 1)])
def test_the_field_is_one_dimensional(kernel_dim, grid_dim):
    # kernels and grids exist in d = 2 for the audits; the stochastic field does not
    kernel = KernelSpec(alpha=2.0, dim=kernel_dim)
    grid = SpectralGrid(length=4.0, points=16, dim=grid_dim)
    g = ConstantG()
    pairs = ([64], [3], [0], [3])
    calls = [lambda: convolve_brownian(kernel, grid, g, BROWNIAN, M=2, save_times=[0, 64]),
             lambda: convolve_poisson(kernel, grid, g, POISSON, M=2, save_times=[0, 64]),
             lambda: _oracle(kernel, grid, g, BROWNIAN, *pairs)]
    for call in calls:
        with pytest.raises(GridMismatch, match="the field is 1-D"):
            call()


FRACTIONAL = KernelSpec(alpha=1.5, epsilon=0.3)
FRACTIONAL_GRID = SpectralGrid(length=4.0, points=960)  # resolves the midpoint lag dt/2
CAUCHY_GRID = SpectralGrid(length=1.0, points=1152)  # resolves dt/2 = 1/64 at alpha = 1
GAUSSIAN_MARKS = NoiseSpec(kind="poisson", horizon=1.0, steps=128, seed=9,
                           jump=JumpSpec(intensity=10.0, mark=MarkLaw("gaussian", 0.7)))
# Saved times are strictly increasing, as the engine requires; the case names are test ids.
ENGINE_CASES = {
    "brownian-constant-unsorted": (
        KERNEL, GRID, ConstantG(1.0),
        BROWNIAN, [0, 1, 3, 17, 64, 128]),
    "brownian-spatial-eps-all": (
        FRACTIONAL, FRACTIONAL_GRID, SpatialPowerG(beta=0.4),
        BROWNIAN, list(range(BROWNIAN.steps + 1))),
    "brownian-parabolic-eps-times": (
        FRACTIONAL, FRACTIONAL_GRID, TestFunctionSpec(beta=0.5),
        BROWNIAN, [0, 32, 64, 128]),  # t = 0, 0.25, 0.5, 1 on dt = 1/128
    "poisson-parabolic-unsorted": (
        KERNEL, GRID, TestFunctionSpec(beta=0.5),
        POISSON, [0, 2, 57, 100, 128]),
    "poisson-spatial-eps": (
        FRACTIONAL, FRACTIONAL_GRID, SpatialPowerG(beta=0.3),
        POISSON, [0, 31, 32, 128]),
    "poisson-gaussian-marks-constant": (
        KERNEL, GRID, ConstantG(0.5),
        GAUSSIAN_MARKS, [0, 5, 64, 127]),
    "brownian-cauchy-parabolic": (
        KernelSpec(alpha=1.0), CAUCHY_GRID, TestFunctionSpec(beta=0.3),
        NoiseSpec(kind="brownian", horizon=1.0, steps=32, seed=4), [0, 8, 16, 24, 32]),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_g_spectrum_is_one_base_spectrum_and_a_zero_mode_shift(case):
    _, grid, g, noise, _ = ENGINE_CASES[case]
    base, zero = _g_spectrum(g, grid, noise.dt, noise.steps)
    want = slab_spectra(g, grid, noise.dt, noise.steps)
    got = np.tile(base, (noise.steps, 1))
    got[:, 0] += zero
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * np.max(np.abs(want), axis=1))


@pytest.mark.parametrize("preset", ["brownian-regularity", "poisson-regularity"])
def test_g_spectrum_base_is_the_shifted_ascending_transform_bitwise(preset):
    # on the presets' grids (spacing and half-width binary fractions) the native radius
    # h min(j, n - j) is the ascending |x| shifted to native order, bit for bit
    pieces = build_regularity(default_config(preset))
    grid = pieces.grid
    for g in (pieces.g, SpatialPowerG(beta=0.3),
              ConstantG(1.5)):
        base, _ = _g_spectrum(g, grid, pieces.noise.dt, 4)
        want = np.fft.rfft(np.fft.ifftshift(g.evaluate(0.0, np.abs(grid.axis()))))
        assert np.array_equal(base, want)


@pytest.mark.parametrize("noise", [BROWNIAN, POISSON], ids=["brownian", "poisson"])
def test_saved_times_are_the_ones_the_sidecar_loads(tmp_path, noise):
    # the engine refuses what FieldEnsemble.load refuses, so every ensemble it writes loads
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    g = TestFunctionSpec(beta=0.5)
    for bad in ([64, 32, 32, 0], [0, 64, 32], [0, 32, 32, 64], []):
        with pytest.raises(GridMismatch, match="strictly increasing"):
            convolve(KERNEL, GRID, g, noise, M=2, save_times=bad)
    for saved in ([0, 32.0, 64], [64], range(noise.steps + 1)):
        ens = convolve(KERNEL, GRID, g, noise, M=2, save_times=saved)
        ens.save(str(tmp_path / "ens"))
        back = FieldEnsemble.load(str(tmp_path / "ens"))
        assert np.array_equal(back.values, ens.values)
        assert back.values.shape == (2, int(ens.time_indices[-1]))
        assert np.array_equal(back.time_indices, ens.time_indices)
        assert (back.grid, back.kernel, back.g, back.noise) == (GRID, KERNEL, g, noise)


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_field_at_every_lattice_point_matches_the_per_time_sum(simulate, case):
    # the engine read at every saved time and lattice point (the simulate fixture, which the
    # field tests above use) against the Ito sum at each saved time on its own
    kernel, grid, g, noise, save_times = ENGINE_CASES[case]
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    ens, values = simulate(convolve, kernel, grid, g, noise, M=5, save_times=save_times)
    ref = per_time_field(kernel, grid, g, noise, ens.values, save_times)
    assert values.shape == ref.shape == (5, len(save_times), grid.points)
    assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("lo, hi", [(0, 13), (0, 1), (0, 2), (1, 2), (1, 9), (2, 13), (5, 9)])
@pytest.mark.parametrize("case", ["brownian-parabolic-eps-times"])
def test_lag_symbols_are_the_scalar_symbol_calls_bitwise(case, lo, hi):
    # each chunk of lags [lo, hi) is the rows of the scalar calls: zero at lag 0, the midpoint
    # dt/2 at lag 1, j dt beyond
    kernel, grid, _, noise, _ = ENGINE_CASES[case]
    dt = noise.dt
    want = [np.zeros(_freq_radius(grid).size), symbol(kernel, grid, dt / 2.0).reshape(-1)]
    want += [symbol(kernel, grid, j * dt).reshape(-1) for j in range(2, 13)]
    got = _lag_symbols(kernel, grid, dt, lo, hi)
    assert got.shape == (hi - lo, _freq_radius(grid).size)
    assert np.array_equal(got.view(np.uint64), np.array(want[lo:hi]).view(np.uint64))


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_slab_weights_and_cumulants_are_the_per_kind_formulas_bitwise(case):
    # the compensator lambda E[z] dt = 0 and the variance dt or lambda E[z^2] dt, spelled out
    noise, M = ENGINE_CASES[case][3], 3
    if noise.kind == "brownian":
        mean, var = 0.0, noise.dt
        w = np.stack([sample_path(noise, m).increments for m in range(M)])
    else:
        mean = 0.0
        var = noise.jump.intensity * noise.jump.mark.second_moment * noise.dt
        w = np.empty((M, noise.steps))
        for m in range(M):
            path = sample_path(noise, m)
            slabs = np.clip(np.floor(path.times / noise.dt).astype(int), 0, noise.steps - 1)
            w[m] = np.bincount(slabs, weights=path.marks, minlength=noise.steps) - mean
    assert slab_cumulant(noise, 1).hex() == mean.hex()
    assert slab_cumulant(noise, 2).hex() == var.hex()
    assert np.array_equal(slab_weights(noise, M, noise.steps), w)


def _reference_second_moments(kernel, grid, g, noise, idx1, pos1, idx2, pos2):
    """Exact second moments from one i-row profile cache per time index."""
    n_t, dt = noise.steps, noise.dt
    q = _lag_symbols(kernel, grid, dt, 0, n_t + 1)
    ghat = slab_spectra(g, grid, dt, n_t)
    weight_var = dt if noise.kind == "brownian" else (
        noise.jump.intensity * noise.jump.mark.abs_moment(2.0) * dt)
    cache = {}
    for i in np.unique(np.concatenate([idx1, idx2])):
        i = int(i)
        cache[i] = np.fft.fftshift(np.fft.irfft(q[i:0:-1] * ghat[:i], grid.points), axes=-1)
    out = np.empty(len(idx1))
    for n, (i1, j1, i2, j2) in enumerate(zip(idx1, pos1, idx2, pos2)):
        f1, f2 = cache[int(i1)][:, j1], cache[int(i2)][:, j2]
        a = np.zeros(max(f1.size, f2.size))
        b = np.zeros_like(a)
        a[:f1.size] = f1
        b[:f2.size] = f2
        out[n] = weight_var * np.sum((a - b) ** 2)
    return out


@pytest.mark.parametrize("case", ["brownian-parabolic-eps-times",
                                  "poisson-parabolic-unsorted",
                                  "poisson-spatial-eps"])
def test_oracle_profiles_match_per_time_cache(case):
    kernel, grid, g, noise, _ = ENGINE_CASES[case]
    lattice = Lattice(noise.dt, grid, np.arange(0, noise.steps + 1, 2))
    lags = [0.5 ** k for k in range(2, 5)]
    pairs = sample_pairs_dyadic(lattice, lags, 20, seed=3)
    assert np.any(pairs.t_idx1 != pairs.t_idx2)
    # one pair touching the initial time, where the field has no slabs yet
    args = [np.append(a, a[0]) for a in
            (pairs.t_idx1, pairs.s_idx1, pairs.t_idx2, pairs.s_idx2)]
    args[0][-1] = 0
    got = _oracle(kernel, grid, g, noise, *args)
    ref = _reference_second_moments(kernel, grid, g, noise, *args)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_oracle_rejects_indices_off_the_lattice():
    g = TestFunctionSpec(beta=0.5)
    ok = ([64], [100], [32], [120])
    assert _oracle(KERNEL, GRID, g, BROWNIAN, *ok)[0] > 0.0
    assert _oracle(KERNEL, GRID, g, BROWNIAN, [64.0], [100.0], [32], [120]) == \
        _oracle(KERNEL, GRID, g, BROWNIAN, *ok)
    for which, bad, error in [(0, BROWNIAN.steps + 1, GridMismatch), (2, -1, GridMismatch),
                              (1, GRID.points, PairOffGrid), (3, -1, PairOffGrid),
                              (0, 64.7, GridMismatch), (2, np.nan, GridMismatch),
                              (1, 100.5, PairOffGrid), (3, np.inf, PairOffGrid)]:
        args = [list(a) for a in ok]
        args[which] = [bad]
        with pytest.raises(error):
            _oracle(KERNEL, GRID, g, BROWNIAN, *args)


def _pair_set(t1, s1, t2, s2):
    return SimpleNamespace(t_idx1=np.asarray(t1), s_idx1=np.asarray(s1),
                           t_idx2=np.asarray(t2), s_idx2=np.asarray(s2))


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_pair_differences_equal_the_per_time_oracle(case):
    # the slab differences applied to the slab weights, against the field of the same weights
    # summed at each saved time on its own (tests/oracles.py), gathered at the pair members
    kernel, grid, g, noise, save_times = ENGINE_CASES[case]
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    ens = convolve(kernel, grid, g, noise, M=5, save_times=save_times)
    field = per_time_field(kernel, grid, g, noise, ens.values, save_times)
    rng = np.random.default_rng(1)
    t1, t2 = rng.choice(ens.time_indices, (2, 40))
    s1, s2 = rng.integers(0, grid.points, (2, 40))
    # the ends and the middle of the ascending axis, where its map to native order wraps
    n, last = grid.points, ens.time_indices[-1]
    t1, s1 = np.append(t1, [last] * 2), np.append(s1, [0, n // 2 - 1])
    t2, s2 = np.append(t2, [last] * 2), np.append(s2, [n - 1, n // 2])
    # every case saves time index 0, where u = 0; the last pair is one point twice
    t1, s1 = np.append(t1, [0, t1[0]]), np.append(s1, [7, s1[0]])
    t2, s2 = np.append(t2, [0, t1[0]]), np.append(s2, [9, s1[0]])
    pos = {int(i): p for p, i in enumerate(ens.time_indices)}
    want = (field[:, [pos[i] for i in t1], s1] - field[:, [pos[i] for i in t2], s2])
    pairs = (t1, s1, t2, s2)
    held = ens.differences(_pair_set(*pairs))
    assert isinstance(held, PairEnsemble) and held.values.shape == (5, last)
    got = _differences(held)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert not got[:, -2:].any()
    assert got.shape == (5, t1.size) and got.strides[0] == got.itemsize  # realizations inner
    # the same D gives the exact second moments
    assert np.array_equal(second_moment_pairs(held.slab_differences, noise),
                          _oracle(kernel, grid, g, noise, *pairs))


@pytest.mark.parametrize("route", ["simulated", "loaded"])
def test_pair_differences_reject_pairs_off_the_saved_lattice(tmp_path, route):
    # for the pairs of a simulated ensemble, as the presets read them, and of a loaded one, as
    # the CLI reads them
    g = TestFunctionSpec(beta=0.5)
    convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[0, 64]).save(
        str(tmp_path / "ens"))
    loaded = FieldEnsemble.load(str(tmp_path / "ens"))

    def run(t, s, first=True):
        other = ([0] * len(t), [5] * len(s))
        pairs = _pair_set(*((t, s) + other if first else other + (t, s)))
        if route == "loaded":
            return loaded.differences(pairs)
        return convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2,
                                 save_times=[0, 64]).differences(pairs)

    held = run([64, 64.0, 0], [3, 200, 255])
    assert held.values.shape == (2, 64)
    assert _differences(held).any()
    for t, s, error in [([32], [3], GridMismatch),  # on the lattice but not saved
                        ([64.5], [3], GridMismatch), ([BROWNIAN.steps + 1], [3], GridMismatch),
                        ([-1], [3], GridMismatch), ([np.nan], [3], GridMismatch),
                        ([64], [GRID.points], PairOffGrid), ([64], [-1], PairOffGrid),
                        ([64], [3.5], PairOffGrid), ([64], [np.inf], PairOffGrid)]:
        for first in (True, False):
            with pytest.raises(error):
                run(t, s, first)


def _regularity_pieces(preset):
    if preset:  # 1,024 points and steps, the preset's saved times
        return build_regularity(default_config("brownian-regularity"))
    g = TestFunctionSpec(beta=0.5)
    return RegularityPieces(KERNEL, GRID, BROWNIAN, g, [0.25], list(range(32, 129, 8)))


def _pairs_of(pieces, M, pairs):
    """The presets' route: M realizations simulated, then the PairEnsemble of pairs."""
    return pieces.simulate(M).differences(pairs)


def _peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset", [False, True], ids=["small", "brownian-preset"])
def test_simulate_holds_the_weights_and_one_path(tmp_path, preset):
    # simulating to a sink draws the (M, k) slab weights one whole path at a time and writes
    # them: beyond the weights it holds about one path of n_t increments and the sidecar,
    # within what RegularityPieces.require_memory counts
    M = 2000
    pieces = _regularity_pieces(preset)
    n_t, k = pieces.noise.steps, pieces.saved[-1]
    ens, peak = _peak(lambda: pieces.simulate(M, sink=str(tmp_path / "ens")))
    assert ens.values.shape == (M, k)
    assert (tmp_path / "ens.bin").stat().st_size == 8 * M * k
    assert peak - 8 * M * k < 4 * 8 * n_t + 2**16
    assert peak <= pieces.require_memory(M)


def test_even_blocks_cover_the_range_without_a_single_item_block():
    for n in range(1, 40):
        for most in range(-1, 12):
            blocks = list(even_blocks(n, most))
            sizes = [hi - lo for lo, hi in blocks]
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert len(blocks) == -(-n // max(most, 3))
            assert max(sizes) - min(sizes) <= 1 and sizes[0] == max(sizes)
            assert min(sizes) >= 2 or n == 1


@pytest.mark.parametrize("noise", [BROWNIAN, POISSON], ids=["brownian", "poisson"])
def test_stored_realizations_do_not_depend_on_the_ensemble_size(tmp_path, noise):
    # realization m is a function of (seed, m) alone: the .bin of M realizations is the first
    # M rows of the .bin of more, and the sidecars differ only in M
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    g = TestFunctionSpec(beta=0.5)
    saved = [0, 24, 64, 65, 128]
    for M in (1, 2, 9):
        convolve(KERNEL, GRID, g, noise, M, saved).save(str(tmp_path / f"m{M}"))
    whole = (tmp_path / "m9.bin").read_bytes()
    for M in (1, 2):
        assert (tmp_path / f"m{M}.bin").read_bytes() == whole[:8 * 128 * M]
        side = json.loads((tmp_path / f"m{M}.json").read_text())
        assert side == {**json.loads((tmp_path / "m9.json").read_text()),
                        "shape": [M, len(saved), GRID.points], "weights": [M, 128]}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "m1.bin", "m1.json", "m2.bin", "m2.json", "m9.bin", "m9.json"]


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_loaded_ensemble_gives_the_simulated_pair_differences_bit_for_bit(tmp_path, case):
    # the CLI route, FieldEnsemble.load and then differences, is the presets' route exactly
    kernel, grid, g, noise, save_times = ENGINE_CASES[case]
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    lattice = Lattice(noise.dt, grid, np.array(save_times))
    pairs = sample_pairs_dyadic(lattice, [0.25, 0.125], 8, seed=5)
    held = convolve(kernel, grid, g, noise, 4, save_times).differences(pairs)
    # the sidecar holds the paper's g only: a test-side g is stored as the default one and put
    # back on the loaded ensemble, whose weights and specs are the ones read from the files
    stored = g if isinstance(g, TestFunctionSpec) else TestFunctionSpec()
    convolve(kernel, grid, stored, noise, 4, save_times).save(str(tmp_path / "ens"))
    loaded = dataclasses.replace(FieldEnsemble.load(str(tmp_path / "ens")), g=g)
    loaded = loaded.differences(pairs)
    assert held.pairs is pairs and loaded.pairs is pairs
    want, got = _differences(held), _differences(loaded)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(second_moment_pairs(loaded.slab_differences, noise),
                          second_moment_pairs(held.slab_differences, noise))


@pytest.mark.parametrize("M", [40, 2000])
@pytest.mark.parametrize("noise", [BROWNIAN, POISSON], ids=["brownian", "poisson"])
def test_pair_path_peak_stays_within_the_counted_memory(noise, M):
    g = TestFunctionSpec(beta=0.5)
    pieces = RegularityPieces(KERNEL, GRID, noise, g, [0.25, 0.125], list(range(32, 129, 8)))
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, 256, seed=2)
    # the (M, pairs) product is formed, one lag at a time, by the estimator
    ens, peak = _peak(lambda: estimate_pair_moments(_pairs_of(pieces, M, pairs), 2.0))
    assert ens.estimates.shape == (pairs.size,)
    assert peak <= pieces.require_memory(M, pairs.size)


def test_pair_moments_hold_less_than_one_float64_product():
    # on the brownian preset's lattice at M = 2000, simulating the pairs and estimating their
    # moments holds less than one (M, pairs) float64 array beyond the slab weights and D
    M = 2000
    pieces = _regularity_pieces(preset=True)
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, 512, seed=2)
    k = int(max(pairs.t_idx1.max(), pairs.t_idx2.max()))
    field, peak = _peak(lambda: estimate_pair_moments(_pairs_of(pieces, M, pairs), 2.0))
    assert field.estimates.shape == (pairs.size,) == (2048,)
    held = peak - 8 * M * pieces.noise.steps - 8 * pairs.size * k
    assert held < 8 * M * pairs.size
    assert peak <= pieces.require_memory(M, pairs.size)


@pytest.mark.parametrize("pairs_per_lag", [512, 2048])
def test_pair_path_holds_the_profile_table_and_one_block(pairs_per_lag):
    # beyond the (M, k) slab weights and the (k + 1)-lag profiles at the pairs' member
    # positions, simulating the brownian preset's pairs and estimating their moments holds less
    # than three float64 arrays of PAIR_CHUNK elements, at 4 lags of 512 pairs as of 2048: one
    # chunk of lag symbols and its transforms, then one block's product (M, 128) and rows of D;
    # neither D, a lag's (M, pairs) product nor the (k + 1, F) lag symbols is ever whole
    M = 2000
    pieces = _regularity_pieces(preset=True)
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, pairs_per_lag, seed=2)
    k = int(max(pairs.t_idx1.max(), pairs.t_idx2.max()))
    n_cols = np.unique(np.concatenate([pairs.s_idx1, pairs.s_idx2])).size
    field, peak = _peak(lambda: estimate_pair_moments(_pairs_of(pieces, M, pairs), 2.0))
    assert field.estimates.shape == (pairs.size,) == (4 * pairs_per_lag,)
    sizes = [np.arange(pairs.size)[sel].size for sel, _ in _pair_blocks(pairs, M)]
    assert sizes == [128] * (pairs.size // 128)
    assert peak - 8 * M * k - 8 * (k + 1) * n_cols < 3 * 8 * PAIR_CHUNK


def test_pair_path_count_and_peak_grow_only_by_the_per_pair_arrays():
    # at 4x the brownian preset's 512 pairs per lag, neither require_memory nor the traced peak
    # of drawing the pairs, simulating and estimating their moments grows by more than
    # PAIR_BYTES per added pair: every other array is one chunk, one block or the profile table
    M = 2000
    pieces = _regularity_pieces(preset=True)

    def run(pairs_per_lag):
        pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, pairs_per_lag, seed=2)
        return pairs, estimate_pair_moments(_pairs_of(pieces, M, pairs), 2.0)

    (few, _), low = _peak(lambda: run(512))
    (many, _), high = _peak(lambda: run(2048))
    counts = [pieces.require_memory(M, pairs.size) for pairs in (few, many)]
    assert low <= counts[0] and high <= counts[1]
    assert counts[1] - counts[0] == PAIR_BYTES * (many.size - few.size)
    assert 0 < high - low <= PAIR_BYTES * (many.size - few.size)


@pytest.mark.parametrize("preset", ["brownian-regularity", "poisson-regularity"])
def test_slab_difference_rows_are_the_gathered_profile_table_bit_for_bit(preset):
    # each block's rows of D (4 blocks of 128 pairs per lag), formed from reversed slices of
    # the profiles at the members' positions, are the bits (sign bits included) of one gather
    # of the whole (k + 1, n) profile table, as are rows with a member at time index 0
    pieces = build_regularity(default_config(preset))
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, 512, seed=2024)
    last, n = pieces.saved[-1], pieces.grid.points
    args = [np.append(pairs.t_idx1, [0, last, 0]), np.append(pairs.s_idx1, [3, 0, n - 1]),
            np.append(pairs.t_idx2, [last, 0, 0]), np.append(pairs.s_idx2, [n // 2, 5, 7])]
    table = convolution._slab_differences(pieces.kernel, pieces.grid, pieces.g, pieces.noise,
                                          *args)
    want = gathered_slab_differences(pieces.kernel, pieces.grid, pieces.g, pieces.noise, *args)
    blocks = [sel for sel, _ in _pair_blocks(pairs, 2000)] + [slice(pairs.size, None)]
    assert [np.size(want[sel], 0) for sel in blocks] == [128] * 16 + [3]
    for sel in blocks:
        assert np.array_equal(table.rows(sel).view(np.uint64), want[sel].view(np.uint64))
    assert not want[-1].any()  # time index 0 twice: no slab
    k2 = slab_cumulant(pieces.noise, 2)
    assert np.array_equal(second_moment_pairs(table, pieces.noise),
                          k2 * np.einsum("nk,nk->n", want, want))
