import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import holderlab.convolution as convolution
from holderlab.convolution import (
    FieldEnsemble,
    Lattice,
    PairEnsemble,
    PairValues,
    StoredField,
    TestFunctionSpec,
    _g_spectrum,
    _lag_symbols,
    convolve_brownian,
    convolve_poisson,
    even_blocks,
    second_moment_pairs,
)
from holderlab.errors import GridMismatch, PairOffGrid
from holderlab.experiments import RegularityPieces, build_regularity, default_config
from holderlab.kernels import KernelSpec, SpectralGrid, _freq_radius, symbol
from holderlab.moments import estimate_pair_moments, sample_pairs_dyadic
from holderlab.noise import (
    JumpSpec,
    MarkLaw,
    NoiseSpec,
    sample_path,
    slab_cumulant,
    slab_weights,
)

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


def test_zero_g_zero_field(simulate):
    g = TestFunctionSpec(family="constant", amplitude=0.0)
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=4, save_times=[0, 64])
    assert np.all(values == 0.0)


def test_unit_g_reproduces_brownian_path(simulate):
    # unit-mass kernel and g = 1 collapse the convolution to W(t) at every x
    g = TestFunctionSpec(family="constant", amplitude=1.0)
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=6,
                         save_times=[0, 32, 128])
    for m in range(6):
        w = sample_path(BROWNIAN, m).increments
        assert np.allclose(values[m, 1, :], w[:32].sum(), rtol=1e-10, atol=1e-14)
        assert np.allclose(values[m, 2, :], w.sum(), rtol=1e-10, atol=1e-14)


def test_unit_g_variance_is_time(simulate):
    g = TestFunctionSpec(family="constant", amplitude=1.0)
    M = 2000
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=M, save_times=[64])
    u = values[:, 0, 10]
    var = (u**2).mean()
    se = (u**2).std() / math.sqrt(M)
    assert abs(var - 0.5) < 3.0 * se


def test_zero_initial_data(simulate):
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=3, save_times=[0, 16])
    assert np.all(values[:, 0] == 0.0)


def test_linearity_in_g(simulate):
    base = TestFunctionSpec(family="spatial-power", beta=0.5, amplitude=1.0)
    doubled = TestFunctionSpec(family="spatial-power", beta=0.5, amplitude=2.0)
    _, v1 = simulate(convolve_brownian, KERNEL, GRID, base, BROWNIAN, M=3, save_times=[64])
    _, v2 = simulate(convolve_brownian, KERNEL, GRID, doubled, BROWNIAN, M=3, save_times=[64])
    # power-of-two amplitude: scaling is exact in floating point
    assert np.array_equal(2.0 * v1, v2)


def test_stationary_increments_unit_g(simulate):
    g = TestFunctionSpec(family="constant", amplitude=1.0)
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
    g = TestFunctionSpec(family="constant")
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, POISSON, M=2)
    with pytest.raises(GridMismatch):
        convolve_poisson(KERNEL, GRID, g, BROWNIAN, M=2)
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[0.3])
    with pytest.raises(GridMismatch):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[4000])


def test_ito_isometry_oracle_vs_monte_carlo(simulate):
    # 10 random point pairs: exact discrete second moments within 3 MC sigmas
    g = TestFunctionSpec(family="parabolic-power", beta=0.5, amplitude=1.0)
    M = 2000
    saved = [32, 48, 64, 96, 128]
    _, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=M, save_times=saved)
    rng = np.random.default_rng(4)
    i1 = rng.choice(saved, 10)
    i2 = rng.choice(saved, 10)
    j1 = rng.integers(64, 192, 10)
    j2 = rng.integers(64, 192, 10)
    oracle = second_moment_pairs(KERNEL, GRID, g, BROWNIAN, i1, j1, i2, j2)
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
    g = TestFunctionSpec(family="constant", amplitude=1.0, mark_family="identity")
    M = 3000
    _, values = simulate(convolve_poisson, KERNEL, GRID, g, POISSON, M=M, save_times=[64])
    u = values[:, 0, 100]
    se_mean = u.std() / math.sqrt(M)
    assert abs(u.mean()) < 3.0 * se_mean
    target = 0.5 * POISSON.jump.intensity * POISSON.jump.mark.second_moment
    sq = u**2
    assert abs(sq.mean() - target) < 3.0 * sq.std() / math.sqrt(M)


def test_poisson_compensator_active_for_one_marks(simulate):
    # g1 = 1 has nonzero mark mean: the compensator must recentre the field
    g = TestFunctionSpec(family="constant", amplitude=1.0, mark_family="one")
    M = 3000
    _, values = simulate(convolve_poisson, KERNEL, GRID, g, POISSON, M=M, save_times=[128])
    u = values[:, 0, 30]
    se = u.std() / math.sqrt(M)
    assert abs(u.mean()) < 3.0 * se
    # variance: lambda T E[g1^2] = 10 * 1 * 1
    sq = u**2
    assert abs(sq.mean() - 10.0) < 3.0 * sq.std() / math.sqrt(M)


def test_poisson_oracle_matches(simulate):
    g = TestFunctionSpec(family="parabolic-power", beta=0.5, mark_family="identity")
    M = 2500
    _, values = simulate(convolve_poisson, KERNEL, GRID, g, POISSON, M=M, save_times=[64, 128])
    oracle = second_moment_pairs(KERNEL, GRID, g, POISSON,
                                 [128], [130], [64], [150])
    d = values[:, 1, 130] - values[:, 0, 150]
    mc = (d**2).mean()
    se = (d**2).std() / math.sqrt(M)
    assert abs(mc - oracle[0]) <= 3.0 * se


def test_adaptedness_events_after_t_do_not_matter(simulate):
    # u(t) must not see jumps after t: build a path with a late event by
    # checking that u at an early time has no dependence on horizon tail
    g = TestFunctionSpec(family="constant", amplitude=1.0, mark_family="identity")
    _, values = simulate(convolve_poisson, KERNEL, GRID, g, POISSON, M=4, save_times=[16])
    for m in range(4):
        path = sample_path(POISSON, m)
        t16 = 16 * POISSON.dt
        manual = path.marks[path.times < t16].sum()
        # slab binning contributes an event from the first lattice time
        # strictly after it; events in [t16, T] are invisible at t16
        assert np.allclose(values[m, 0, :], manual, atol=1e-10)


def test_ensemble_save_load_roundtrip(tmp_path):
    g = TestFunctionSpec(family="parabolic-power", beta=0.4)
    prefix = str(tmp_path / "ens")
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=3, save_times=[0, 64],
                            dtype=np.float32, sink=prefix)
    back = FieldEnsemble.load(prefix)
    assert back.values == ens.values
    assert back.values.rows(0, 3).dtype == np.float32
    assert np.array_equal(back.time_indices, ens.time_indices)
    assert back.kernel == ens.kernel
    assert back.g == ens.g
    assert back.noise.seed == ens.noise.seed

    # sidecars written before NoiseSpec.p0, KernelSpec.method and the top-level dt (now
    # noise.dt) were removed still load; a stale dt is not read
    side = json.loads((tmp_path / "ens.json").read_text())
    assert "p0" not in side["noise"] and "dt" not in side
    assert sorted(side["kernel"]) == ["alpha", "dim", "epsilon"]
    side["noise"]["p0"] = 4.0
    side["kernel"]["method"] = "closed-form"
    side["dt"] = 2.0 * BROWNIAN.dt
    (tmp_path / "ens.json").write_text(json.dumps(side))
    old = FieldEnsemble.load(prefix)
    assert old.noise == ens.noise and old.dt == BROWNIAN.dt
    assert old.kernel == ens.kernel
    assert np.array_equal(old.values.rows(0, 3), ens.values.rows(0, 3))


def test_poisson_ensemble_save_load_roundtrip(tmp_path):
    noise = NoiseSpec(kind="poisson", horizon=1.0, steps=128, seed=4,
                      jump=JumpSpec(intensity=7.5, mark=MarkLaw("gaussian", 0.6)))
    g = TestFunctionSpec(family="spatial-power", beta=0.3, mark_family="one")
    prefix = str(tmp_path / "ens")
    ens = convolve_poisson(KERNEL, GRID, g, noise, M=2, save_times=[32, 128], sink=prefix)
    side = json.loads((tmp_path / "ens.json").read_text())
    assert side["noise"]["jump"] == {"intensity": 7.5,
                                     "mark": {"family": "gaussian", "parameter": 0.6}}
    back = FieldEnsemble.load(prefix)
    assert (back.noise, back.g, back.kernel, back.grid) == (noise, g, KERNEL, GRID)
    assert back.values == ens.values
    assert ens.values.rows(0, 2).any()
    assert np.array_equal(back.time_indices, ens.time_indices)


@pytest.mark.parametrize("kernel_dim, grid_dim", [(2, 2), (1, 2), (2, 1)])
def test_the_field_is_one_dimensional(kernel_dim, grid_dim):
    # kernels and grids exist in d = 2 for the audits; the stochastic field does not
    kernel = KernelSpec(alpha=2.0, dim=kernel_dim)
    grid = SpectralGrid(length=4.0, points=16, dim=grid_dim)
    g = TestFunctionSpec(family="constant")
    pairs = ([64], [3], [0], [3])
    calls = [lambda: convolve_brownian(kernel, grid, g, BROWNIAN, M=2, save_times=[0, 64]),
             lambda: convolve_poisson(kernel, grid, g, POISSON, M=2, save_times=[0, 64]),
             lambda: convolve_brownian(kernel, grid, g, BROWNIAN, M=2, save_times=[0, 64],
                                       pairs=pairs),
             lambda: second_moment_pairs(kernel, grid, g, BROWNIAN, *pairs)]
    for call in calls:
        with pytest.raises(GridMismatch, match="the field is 1-D"):
            call()


def _irfft_fftshift(freq, grid):
    """Inverse rfft then numpy's fftshift, independent of the engine's half swap."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.fftshift(np.fft.irfftn(freq, s=(grid.points,) * grid.dim, axes=axes), axes=axes)


def _slab_spectra(g, grid, dt, n):
    """DFT of g(k dt, .) for each slab k < n, each built on its own from the ascending |x|
    shifted to native order, flattened frequencies."""
    radius = np.abs(grid.axis())
    return np.array([np.fft.rfftn(np.fft.ifftshift(g.evaluate(k * dt, radius))).ravel()
                     for k in range(n)])


def _reference_convolve(kernel, grid, g, noise, M, save_times):
    """The Ito sum rebuilt from slab 0 at every saved index, in save order."""
    n_t, dt = noise.steps, noise.dt
    idx = np.arange(n_t + 1) if save_times is None else np.array(save_times)
    q = _lag_symbols(kernel, grid, dt, n_t)
    ghat = _slab_spectra(g, grid, dt, n_t)
    w = slab_weights(noise, g.mark_family, M)
    freq_shape = _freq_radius(grid).shape
    out = np.zeros((M, idx.size) + (grid.points,) * grid.dim)
    for pos, i in enumerate(idx):
        if i == 0:
            continue
        a = q[i:0:-1] * ghat[:i]
        u_hat = w[:, :i] @ a.real + 1j * (w[:, :i] @ a.imag)
        out[:, pos] = _irfft_fftshift(u_hat.reshape((M,) + freq_shape), grid)
    return idx, out


FRACTIONAL = KernelSpec(alpha=1.5, epsilon=0.3)
FRACTIONAL_GRID = SpectralGrid.for_times(1.5, 1, t_min=BROWNIAN.dt / 2.0, length=4.0)
# Saved times are strictly increasing, as the engine requires; the case names are test ids.
ENGINE_CASES = {
    "brownian-constant-unsorted": (
        KERNEL, GRID, TestFunctionSpec(family="constant", amplitude=1.0),
        BROWNIAN, [0, 1, 3, 17, 64, 128]),
    "brownian-spatial-eps-all": (
        FRACTIONAL, FRACTIONAL_GRID, TestFunctionSpec(family="spatial-power", beta=0.4),
        BROWNIAN, None),
    "brownian-parabolic-eps-times": (
        FRACTIONAL, FRACTIONAL_GRID, TestFunctionSpec(family="parabolic-power", beta=0.5),
        BROWNIAN, [0, 32, 64, 128]),  # t = 0, 0.25, 0.5, 1 on dt = 1/128
    "poisson-parabolic-unsorted": (
        KERNEL, GRID, TestFunctionSpec(family="parabolic-power", beta=0.5),
        POISSON, [0, 2, 57, 100, 128]),
    "poisson-spatial-eps-one-marks": (
        FRACTIONAL, FRACTIONAL_GRID,
        TestFunctionSpec(family="spatial-power", beta=0.3, mark_family="one"),
        POISSON, [0, 31, 32, 128]),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_g_spectrum_is_one_base_spectrum_and_a_zero_mode_shift(case):
    _, grid, g, noise, _ = ENGINE_CASES[case]
    base, zero = _g_spectrum(g, grid, noise.dt, noise.steps)
    want = _slab_spectra(g, grid, noise.dt, noise.steps)
    got = np.tile(base, (noise.steps, 1))
    got[:, 0] += zero
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * np.max(np.abs(want), axis=1))


@pytest.mark.parametrize("preset", ["brownian-regularity", "poisson-regularity"])
def test_g_spectrum_base_is_the_shifted_ascending_transform_bitwise(preset):
    # on the presets' grids (spacing and half-width binary fractions) the native radius
    # h min(j, n - j) is the ascending |x| shifted to native order, bit for bit
    pieces = build_regularity(default_config(preset))
    grid = pieces.grid
    for g in (pieces.g, TestFunctionSpec(family="spatial-power", beta=0.3),
              TestFunctionSpec(family="constant", amplitude=1.5)):
        base, _ = _g_spectrum(g, grid, pieces.noise.dt, 4)
        want = np.fft.rfft(np.fft.ifftshift(g.evaluate(0.0, np.abs(grid.axis()))))
        assert np.array_equal(base, want)


@pytest.mark.parametrize("noise", [BROWNIAN, POISSON], ids=["brownian", "poisson"])
def test_saved_times_are_the_ones_the_sidecar_loads(simulate, noise):
    # the engine refuses what FieldEnsemble.load refuses, so every ensemble it writes loads
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    pairs = ([64], [3], [0], [5])
    for bad in ([64, 32, 32, 0], [0, 64, 32], [0, 32, 32, 64], []):
        for kwargs in ({}, {"pairs": pairs}):
            with pytest.raises(GridMismatch, match="strictly increasing"):
                convolve(KERNEL, GRID, g, noise, M=2, save_times=bad, **kwargs)
    for saved in ([0, 32.0, 64], [64], None):
        ens, values = simulate(convolve, KERNEL, GRID, g, noise, M=2, save_times=saved,
                               dtype=np.float32)
        back = FieldEnsemble.load(ens.values.path.removesuffix(".bin"))
        assert np.array_equal(back.values.rows(0, 2), values)
        assert np.array_equal(back.time_indices, ens.time_indices)
        assert (back.grid, back.kernel, back.g, back.noise) == (GRID, KERNEL, g, noise)


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_forward_pass_matches_per_time_sum(simulate, case):
    kernel, grid, g, noise, save_times = ENGINE_CASES[case]
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    ens, values = simulate(convolve, kernel, grid, g, noise, M=5, save_times=save_times)
    idx, ref = _reference_convolve(kernel, grid, g, noise, 5, save_times)
    assert np.array_equal(ens.time_indices, idx)
    assert ens.values.shape == values.shape == ref.shape
    assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["brownian-parabolic-eps-times"])
def test_lag_symbols_are_the_scalar_symbol_calls_bitwise(case):
    kernel, grid, _, noise, _ = ENGINE_CASES[case]
    dt, n_t = noise.dt, 12
    want = [np.zeros(_freq_radius(grid).size), symbol(kernel, grid, dt / 2.0).reshape(-1)]
    want += [symbol(kernel, grid, j * dt).reshape(-1) for j in range(2, n_t + 1)]
    assert np.array_equal(_lag_symbols(kernel, grid, dt, n_t), np.array(want))


@pytest.mark.parametrize("mark_family", ["identity", "one"])
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_slab_weights_and_cumulants_are_the_per_kind_formulas_bitwise(case, mark_family):
    # the compensator lambda E[g1] dt and the variance dt or lambda E[g1^2] dt, spelled out
    noise, M = ENGINE_CASES[case][3], 3
    if noise.kind == "brownian":
        mean, var = 0.0, noise.dt
        w = np.stack([sample_path(noise, m).increments for m in range(M)])
    else:
        law, one = noise.jump.mark, mark_family == "one"
        mean = noise.jump.intensity * (1.0 if one else 0.0) * noise.dt
        var = noise.jump.intensity * (1.0 if one else law.second_moment) * noise.dt
        w = np.empty((M, noise.steps))
        for m in range(M):
            path = sample_path(noise, m)
            slabs = np.clip(np.floor(path.times / noise.dt).astype(int), 0, noise.steps - 1)
            marks = np.ones_like(path.marks) if one else path.marks
            w[m] = np.bincount(slabs, weights=marks, minlength=noise.steps) - mean
    assert slab_cumulant(noise, mark_family, 1).hex() == mean.hex()
    assert slab_cumulant(noise, mark_family, 2).hex() == var.hex()
    assert np.array_equal(slab_weights(noise, mark_family, M), w)


def _reference_second_moments(kernel, grid, g, noise, idx1, pos1, idx2, pos2):
    """Exact second moments from one i-row profile cache per time index."""
    n_t, dt = noise.steps, noise.dt
    q = _lag_symbols(kernel, grid, dt, n_t)
    ghat = _slab_spectra(g, grid, dt, n_t)
    freq_shape = _freq_radius(grid).shape
    n_space = grid.points ** grid.dim
    if noise.kind == "brownian":
        weight_var = dt
    else:
        mark_square = 1.0 if g.mark_family == "one" else noise.jump.mark.abs_moment(2.0)
        weight_var = noise.jump.intensity * mark_square * dt
    cache = {}
    for i in np.unique(np.concatenate([idx1, idx2])):
        i = int(i)
        rows = _irfft_fftshift((q[i:0:-1] * ghat[:i]).reshape((i,) + freq_shape), grid)
        cache[i] = rows.reshape(i, n_space)
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
                                  "poisson-spatial-eps-one-marks"])
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
    got = second_moment_pairs(kernel, grid, g, noise, *args)
    ref = _reference_second_moments(kernel, grid, g, noise, *args)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_oracle_rejects_indices_off_the_lattice():
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    ok = ([64], [100], [32], [120])
    assert second_moment_pairs(KERNEL, GRID, g, BROWNIAN, *ok)[0] > 0.0
    assert second_moment_pairs(KERNEL, GRID, g, BROWNIAN, [64.0], [100.0], [32], [120]) == \
        second_moment_pairs(KERNEL, GRID, g, BROWNIAN, *ok)
    for which, bad, error in [(0, BROWNIAN.steps + 1, GridMismatch), (2, -1, GridMismatch),
                              (1, GRID.points, PairOffGrid), (3, -1, PairOffGrid),
                              (0, 64.7, GridMismatch), (2, np.nan, GridMismatch),
                              (1, 100.5, PairOffGrid), (3, np.inf, PairOffGrid)]:
        args = [list(a) for a in ok]
        args[which] = [bad]
        with pytest.raises(error):
            second_moment_pairs(KERNEL, GRID, g, BROWNIAN, *args)


def _pair_set(t1, s1, t2, s2):
    return SimpleNamespace(t_idx1=np.asarray(t1), s_idx1=np.asarray(s1),
                           t_idx2=np.asarray(t2), s_idx2=np.asarray(s2))


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_pair_sink_equals_the_full_field_differences(simulate, case):
    # the two engines check each other: the forward pass's field, gathered at the pair
    # members, against the slab differences applied to the same slab weights
    kernel, grid, g, noise, save_times = ENGINE_CASES[case]
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    full, _ = simulate(convolve, kernel, grid, g, noise, M=5, save_times=save_times)
    rng = np.random.default_rng(1)
    t1, t2 = rng.choice(full.time_indices, (2, 40))
    s1, s2 = rng.integers(0, grid.points ** grid.dim, (2, 40))
    # the ends and the middle of the ascending axis, where its map to native order wraps
    n, last = grid.points, full.time_indices[-1]
    t1, s1 = np.append(t1, [last] * 2), np.append(s1, [0, n // 2 - 1])
    t2, s2 = np.append(t2, [last] * 2), np.append(s2, [n - 1, n // 2])
    # every case saves time index 0, where u = 0; the last pair is one point twice
    t1, s1 = np.append(t1, [0, t1[0]]), np.append(s1, [7, s1[0]])
    t2, s2 = np.append(t2, [0, t1[0]]), np.append(s2, [9, s1[0]])
    pairs = (t1, s1, t2, s2)
    [want] = full.difference_blocks(_pair_set(*pairs))
    exact = convolve(kernel, grid, g, noise, M=5, save_times=save_times, pairs=pairs)
    [got] = exact.difference_blocks(_pair_set(*pairs))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert not got[:, -2:].any()
    stored = convolve(kernel, grid, g, noise, M=5, save_times=save_times, dtype=np.float32,
                      pairs=pairs)
    [rounded] = stored.difference_blocks(_pair_set(*pairs))
    assert np.array_equal(rounded, got.astype(np.float32))
    oracle = second_moment_pairs(kernel, grid, g, noise, *pairs)
    for ens, dtype in ((exact, np.float64), (stored, np.float32)):
        assert np.array_equal(ens.second_moments, oracle)  # the same D, the same isometry
        assert isinstance(ens, PairEnsemble)
        assert ens.values == PairValues((5, t1.size), np.dtype(dtype))  # never formed whole
        [block] = ens.difference_blocks(_pair_set(*pairs))
        assert block.dtype == np.float64 and block.shape == (5, t1.size)
        assert block.strides[0] == block.itemsize  # realization axis contiguous
        assert np.array_equal(ens.time_indices, full.time_indices)


def test_pair_sink_rejects_pairs_off_the_saved_lattice(simulate, tmp_path):
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)

    def run(t, s, first=True):
        other = ([0] * len(t), [5] * len(s))
        pairs = (t, s) + other if first else other + (t, s)
        return convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[0, 64],
                                 dtype=np.float32, pairs=pairs)

    held = run([64, 64.0, 0], [3, 200, 255])
    assert held.values.shape == (2, 3)
    [diff] = held.difference_blocks(_pair_set([64, 64, 0], [3, 200, 255], [0] * 3, [5] * 3))
    assert diff.any()
    for t, s, error in [([32], [3], GridMismatch),  # on the lattice but not saved
                        ([64.5], [3], GridMismatch), ([BROWNIAN.steps + 1], [3], GridMismatch),
                        ([-1], [3], GridMismatch), ([np.nan], [3], GridMismatch),
                        ([64], [GRID.points], PairOffGrid), ([64], [-1], PairOffGrid),
                        ([64], [3.5], PairOffGrid), ([64], [np.inf], PairOffGrid)]:
        for first in (True, False):
            with pytest.raises(error):
                run(t, s, first)
    for other in (_pair_set([64, 64, 0], [3, 200, 254], [0] * 3, [5] * 3),  # a pair not held
                  _pair_set([0] * 3, [5] * 3, [64, 64, 0], [3, 200, 255])):  # held, swapped
        with pytest.raises(PairOffGrid):
            next(held.difference_blocks(other))
    full, values = simulate(convolve_brownian, KERNEL, GRID, g, BROWNIAN, M=2,
                            save_times=[0, 64])
    with pytest.raises(GridMismatch):
        full.at([32], [3])
    with pytest.raises(PairOffGrid):
        full.at([64], [GRID.points])
    assert np.array_equal(full.at([64, 0], [3, 3]), values[:, [1, 0], 3])
    with pytest.raises(ValueError, match="one of pairs and sink"):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[0, 64])
    with pytest.raises(ValueError, match="one of pairs and sink"):
        convolve_brownian(KERNEL, GRID, g, BROWNIAN, M=2, save_times=[0, 64],
                          pairs=([64], [3], [0], [5]), sink=str(tmp_path / "ens"))


def _forward_pass_pieces(preset):
    if preset:  # 1,024 points and steps, the preset's saved times
        return build_regularity(default_config("brownian-regularity"))
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    return RegularityPieces(KERNEL, GRID, BROWNIAN, g, [0.25], list(range(32, 129, 8)),
                            "float32")


def _peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset", [False, True], ids=["small", "brownian-preset"])
def test_streamed_pass_holds_one_block_of_the_sink(tmp_path, preset):
    # beyond its slab weights and (M, saved) zero-mode terms the pass holds one block of rows
    # of the field, the lag symbols (twice while built) and, for that block, the real running
    # sum, one saved time's spectrum and its inverse transform with their temporaries: under
    # 3.5 (rows, 2F) float64 arrays, within what RegularityPieces.require_memory counts
    M = 2000
    pieces = _forward_pass_pieces(preset)
    n, n_t, saved = pieces.grid.points, pieces.noise.steps, len(pieces.saved)
    _, rows = next(convolution._row_blocks(M, saved * n * 4))
    assert rows < M
    ens, peak = _peak(lambda: pieces.simulate(M, sink=str(tmp_path / "ens")))
    assert isinstance(ens.values, StoredField) and ens.values.shape == (M, saved, n)
    held = peak - M * n_t * 8 - M * saved * 8
    assert held < rows * saved * n * 4 + 8 * (n_t + 1) * (n + 2) + 3.5 * rows * (n + 2) * 8
    assert peak <= pieces.require_memory(M)


STREAM_SAVED = [0, 24, 64, 65, 128]
STREAM_B = 4  # realizations of one block in the streaming tests


def _row_bytes(dtype):
    return len(STREAM_SAVED) * GRID.points * np.dtype(dtype).itemsize


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("noise", [BROWNIAN, POISSON], ids=["brownian", "poisson"])
def test_streamed_ensemble_bytes_do_not_depend_on_the_block(tmp_path, monkeypatch, noise,
                                                            dtype):
    # the .bin and sidecar streamed in blocks of at most B rows are the bytes of one block of
    # all M, whatever the block of a realization
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    B = STREAM_B
    for M in (1, 2, B - 1, B + 1, 2 * B + 1):
        monkeypatch.setattr(convolution, "FIELD_BLOCK", 2**40)
        convolve(KERNEL, GRID, g, noise, M, STREAM_SAVED, dtype, sink=str(tmp_path / "whole"))
        monkeypatch.setattr(convolution, "FIELD_BLOCK", B * _row_bytes(dtype))
        blocks = list(convolution._row_blocks(M, _row_bytes(dtype)))
        assert blocks[0][0] == 0 and blocks[-1][1] == M
        assert all(2 <= hi - lo <= B or M == 1 for lo, hi in blocks)
        assert len(blocks) == -(-M // B)
        streamed = convolve(KERNEL, GRID, g, noise, M, STREAM_SAVED, dtype,
                            sink=str(tmp_path / "streamed"))
        assert streamed.values == StoredField(str(tmp_path / "streamed.bin"),
                                              (M, len(STREAM_SAVED), GRID.points),
                                              np.dtype(dtype))
        for suffix in (".bin", ".json"):
            assert ((tmp_path / f"streamed{suffix}").read_bytes()
                    == (tmp_path / f"whole{suffix}").read_bytes()), (M, suffix)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "streamed.bin", "streamed.json", "whole.bin", "whole.json"]


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_block_reader_gathers_the_whole_rows(tmp_path, monkeypatch, dtype):
    # realizations read one block at a time give at() and differences() bit for bit as a
    # gather of the whole rows, realization axis contiguous
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    M = 2 * STREAM_B + 1
    ens = convolve_brownian(KERNEL, GRID, g, BROWNIAN, M, STREAM_SAVED, dtype,
                            sink=str(tmp_path / "ens"))
    whole = np.fromfile(tmp_path / "ens.bin", dtype).reshape(M, len(STREAM_SAVED), GRID.points)
    monkeypatch.setattr(convolution, "FIELD_BLOCK", STREAM_B * _row_bytes(dtype))
    stored = FieldEnsemble.load(str(tmp_path / "ens"))
    assert stored.values == ens.values
    reads, rows = [], StoredField.rows
    monkeypatch.setattr(StoredField, "rows",
                        lambda self, lo, hi: reads.append((lo, hi)) or rows(self, lo, hi))
    rng = np.random.default_rng(3)
    t_idx = rng.choice(STREAM_SAVED, 40)
    s_idx = rng.integers(0, GRID.points, 40)
    got = stored.at(t_idx, s_idx)
    assert reads == [(0, 3), (3, 6), (6, 9)]
    assert got.dtype == dtype and got.strides[0] == np.dtype(dtype).itemsize
    want = whole[:, [STREAM_SAVED.index(t) for t in t_idx], s_idx]
    assert np.array_equal(got, want)
    pairs = SimpleNamespace(t_idx1=t_idx[:20], s_idx1=s_idx[:20], t_idx2=t_idx[20:],
                            s_idx2=s_idx[20:])
    [diff] = stored.difference_blocks(pairs)
    assert diff.strides == (8, 8 * M)
    assert np.array_equal(diff, want[:, :20].astype(np.float64) - want[:, 20:])
    with pytest.raises(GridMismatch):
        stored.at([32], [3])
    with pytest.raises(PairOffGrid):
        stored.at([64], [GRID.points])


@pytest.mark.parametrize("M", [40, 2000])
@pytest.mark.parametrize("noise", [BROWNIAN, POISSON], ids=["brownian", "poisson"])
def test_pair_path_peak_stays_within_the_counted_memory(noise, M):
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    pieces = RegularityPieces(KERNEL, GRID, noise, g, [0.25, 0.125], list(range(32, 129, 8)),
                              "float32")
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, 256, seed=2)
    # the (M, pairs) product is formed, one lag at a time, by the estimator
    ens, peak = _peak(lambda: estimate_pair_moments(pieces.simulate(M, pairs), pairs, 2.0))
    assert ens.estimates.shape == (pairs.size,)
    assert peak <= pieces.require_memory(M, pairs.size)


def test_pair_moments_hold_less_than_one_float64_product():
    # on the brownian preset's lattice at M = 2000, simulating the pairs and estimating their
    # moments holds less than one (M, pairs) float64 array beyond the slab weights and D
    M = 2000
    pieces = _forward_pass_pieces(preset=True)
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, 512, seed=2)
    k = int(max(pairs.t_idx1.max(), pairs.t_idx2.max()))
    field, peak = _peak(lambda: estimate_pair_moments(pieces.simulate(M, pairs), pairs, 2.0))
    assert field.estimates.shape == (pairs.size,) == (2048,)
    held = peak - 8 * M * pieces.noise.steps - 8 * pairs.size * k
    assert held < 8 * M * pairs.size
    assert peak <= pieces.require_memory(M, pairs.size)
