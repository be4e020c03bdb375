import dataclasses
import json
import math

import numpy as np
import pytest

from holderlab.campanato import ParabolicCylinder, SpaceTimePoint
from holderlab.cli import main
import holderlab.moments as moments
from holderlab.convolution import (FieldEnsemble, Lattice, PairEnsemble, SlabDifferences,
                                   TestFunctionSpec, convolve_brownian, convolve_poisson)
from holderlab.errors import (
    DimensionMismatch,
    EmptyCylinder,
    EmptyRequest,
    EnsembleTooSmall,
    MomentOverflow,
    PairOffGrid,
)
from holderlab.kernels import KernelSpec, SpectralGrid
from holderlab.moments import (
    PairSet,
    estimate_pair_moments,
    lag_offsets,
    sample_pairs_dyadic,
    sample_pairs_within_cylinder,
)
from holderlab.noise import JumpSpec, MarkLaw, NoiseSpec
from oracles import per_time_field

KERNEL = KernelSpec(alpha=2.0)
GRID = SpectralGrid(length=4.0, points=512, dim=1)  # h = 1/64
NOISE = NoiseSpec(kind="brownian", horizon=1.0, steps=256, seed=13)
G_UNIT = TestFunctionSpec(family="constant", amplitude=1.0)


@pytest.fixture(scope="module")
def unit_ensemble():
    saved = list(range(64, 193, 8))
    return convolve_brownian(KERNEL, GRID, G_UNIT, NOISE, M=2000, save_times=saved)


def _estimate(ens, pairs, p):
    """The p-moment estimates of pairs from a FieldEnsemble, through its PairEnsemble."""
    return estimate_pair_moments(ens.differences(pairs.indices), pairs, p)


def test_identical_points_give_zero(unit_ensemble):
    pairs = sample_pairs_dyadic(unit_ensemble, [0.25], 16, seed=3)
    pairs.t_idx2[:] = pairs.t_idx1
    pairs.s_idx2[:] = pairs.s_idx1
    for p in (1.0, 2.0, 3.5):
        field = _estimate(unit_ensemble, pairs, p)
        assert np.all(field.estimates == 0.0)
        assert np.all(field.stderr == 0.0)


def test_unit_g_time_pairs_match_brownian_variance(unit_ensemble):
    # u(., x) = W(.), so E|u(t,x) - u(s,x)|^2 = t - s
    pairs = sample_pairs_dyadic(unit_ensemble, [0.25], 64, seed=5)
    time_type = pairs.t_idx1 != pairs.t_idx2
    field = _estimate(unit_ensemble, pairs, 2.0)
    lag = np.abs(pairs.t_idx1 - pairs.t_idx2) * unit_ensemble.dt
    for est, se, target, is_time in zip(field.estimates, field.stderr, lag, time_type):
        if is_time:
            assert abs(est - target) <= 3.0 * se
        else:
            assert est == 0.0  # spatially constant field


def test_unit_g_fourth_moment(unit_ensemble):
    # E|W(t) - W(s)|^4 = 3 (t-s)^2
    pairs = sample_pairs_dyadic(unit_ensemble, [0.25], 64, seed=6)
    time_type = pairs.t_idx1 != pairs.t_idx2
    field = _estimate(unit_ensemble, pairs, 4.0)
    lag = np.abs(pairs.t_idx1 - pairs.t_idx2) * unit_ensemble.dt
    checked = 0
    for est, se, target, is_time in zip(field.estimates, field.stderr,
                                        3.0 * lag**2, time_type):
        if is_time:
            assert abs(est - target) <= 3.0 * se
            checked += 1
    assert checked > 0


def _swapped(pairs):
    """pairs with the two members of each exchanged."""
    return PairSet(pairs.t_idx2, pairs.s_idx2, pairs.t_idx1, pairs.s_idx1, pairs.t2, pairs.x2,
                   pairs.t1, pairs.x1, pairs.delta, pairs.requested_delta)


def test_symmetry_exact(unit_ensemble):
    pairs = sample_pairs_dyadic(unit_ensemble, [0.25, 0.125], 32, seed=7)
    f1 = _estimate(unit_ensemble, pairs, 2.0)
    f2 = _estimate(unit_ensemble, _swapped(pairs), 2.0)
    assert np.array_equal(f1.estimates, f2.estimates)
    assert np.array_equal(f1.stderr, f2.stderr)


def test_stderr_scaling_with_ensemble():
    saved = [64, 128]
    small = convolve_brownian(KERNEL, GRID, G_UNIT, NOISE, M=500, save_times=saved)
    big = convolve_brownian(KERNEL, GRID, G_UNIT, NOISE, M=2000, save_times=saved)
    pairs_s = sample_pairs_dyadic(small, [0.5], 24, seed=8)
    pairs_b = sample_pairs_dyadic(big, [0.5], 24, seed=8)
    fs = _estimate(small, pairs_s, 2.0)
    fb = _estimate(big, pairs_b, 2.0)
    tsel = pairs_s.t_idx1 != pairs_s.t_idx2
    ratio = fs.stderr[tsel] / fb.stderr[tsel]
    # quadrupling M halves stderr twice: ratio ~ 2, within 20%
    assert np.median(ratio) == pytest.approx(2.0, rel=0.2)


def test_min_ensemble_guard():
    small = convolve_brownian(KERNEL, GRID, G_UNIT, NOISE, M=10, save_times=[64])
    pairs = sample_pairs_dyadic(small, [0.25], 8, seed=1)
    with pytest.raises(EnsembleTooSmall):
        _estimate(small, pairs, 2.0)


@pytest.mark.filterwarnings("error")
def test_overflow_is_one_moment_overflow_and_no_numpy_warning(tmp_path):
    # a pair ensemble whose squares overflow, and a stored ensemble holding an infinite slab
    # weight, report MomentOverflow alone: with warnings as errors, no NumPy warning comes first
    saved, M = list(range(64, 193, 8)), 40
    lattice = Lattice(NOISE.dt, GRID, np.array(saved))
    pairs = sample_pairs_dyadic(lattice, [0.25, 0.125], 8, seed=1)
    # every member X at time index 3 and Y at 0 on one profile row of 1e30: D is 1e30 throughout
    first, other = np.full(pairs.size, 3), np.zeros(pairs.size, int)
    table = SlabDifferences(np.full((1, 4), 1e30), np.zeros(4), np.zeros(3),
                            (first, other, other, other))
    held = PairEnsemble(np.full((M, 3), 1e200), pairs.indices, lattice.time_indices,
                        np.ones(pairs.size), table)
    assert np.array_equal(table.rows(), np.full((pairs.size, 3), 1e30))
    prefix = str(tmp_path / "ens")
    weights = np.zeros((M, saved[-1]))
    weights[3, 70] = np.inf
    FieldEnsemble(weights, lattice.time_indices, GRID, KERNEL, G_UNIT, NOISE).save(prefix)
    stored = FieldEnsemble.load(prefix).differences(pairs.indices)
    for ens in (held, stored):
        with pytest.raises(MomentOverflow, match="not finite"):
            estimate_pair_moments(ens, pairs, 2.0)


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
def test_moment_order_must_be_finite_and_at_least_one(unit_ensemble, p):
    pairs = sample_pairs_dyadic(unit_ensemble, [0.25], 8, seed=1)
    with pytest.raises(ValueError, match="finite and >= 1"):
        _estimate(unit_ensemble, pairs, p)


def test_pair_off_grid(unit_ensemble):
    pairs = sample_pairs_dyadic(unit_ensemble, [0.25], 8, seed=2)
    pairs.s_idx1[0] = GRID.points + 5
    with pytest.raises(PairOffGrid):
        _estimate(unit_ensemble, pairs, 2.0)


def test_lag_wider_than_central_window(simulate):
    # h = 1/64: lag 0.5 is 32 spacings, the whole central half of 64 points
    grid = SpectralGrid(length=0.5, points=64)
    ens, _ = simulate(convolve_brownian, KERNEL, grid, G_UNIT, NOISE, M=2, save_times=[64, 80])
    with pytest.raises(PairOffGrid, match=r"lag 0.5 spans 32 lattice spacings.* 32 "):
        sample_pairs_dyadic(ens, [0.25, 0.5], 8)
    assert sample_pairs_dyadic(ens, [0.25], 8).size == 8


def test_empty_request(unit_ensemble):
    with pytest.raises(EmptyRequest):
        sample_pairs_dyadic(unit_ensemble, [0.25], 0)
    cyl = ParabolicCylinder(SpaceTimePoint(0.5, [0.0]), 0.25)
    with pytest.raises(EmptyRequest):
        sample_pairs_within_cylinder(unit_ensemble, cyl, 0)


def test_within_cylinder_constraints(unit_ensemble):
    c = 0.25
    cyl = ParabolicCylinder(SpaceTimePoint(0.5, [0.0]), c)
    pairs = sample_pairs_within_cylinder(unit_ensemble, cyl, 200, seed=11)
    dt_gap = np.abs(pairs.t1 - pairs.t2)
    assert np.all(pairs.delta <= 2.0 * c + 1e-12)
    assert np.all(dt_gap <= 2.0 * c * c + 1e-12)


def test_empty_cylinder(unit_ensemble):
    cyl = ParabolicCylinder(SpaceTimePoint(0.9, [3.9]), 0.01)
    with pytest.raises(EmptyCylinder):
        sample_pairs_within_cylinder(unit_ensemble, cyl, 8)
    # radius 2^-7 is below h = 1/64 and c^2 below the saved-time spacing: one point
    lone = ParabolicCylinder(SpaceTimePoint(0.5, [0.0]), 2.0**-7)
    with pytest.raises(EmptyCylinder, match="^1 saved lattice points"):
        sample_pairs_within_cylinder(unit_ensemble, lone, 8)


def test_dyadic_lag_snapping(unit_ensemble):
    # h = 1/64 and dt = 1/256: lags 2^-k for k <= 4 are exactly on both
    # lattices, so achieved deltas match requests to rounding
    lags = [2.0**-k for k in range(1, 5)]
    pairs = sample_pairs_dyadic(unit_ensemble, lags, 64, seed=12)
    assert np.max(np.abs(pairs.delta - pairs.requested_delta)) < 1e-12


def test_dyadic_draw_order_is_pinned():
    # recorded before the sampler lost its d = 2 branches: per lag, the pure-time draws, then
    # the pure-space ones; lag 0.375 (9 steps) has no time bases, so all its pairs are spatial
    lattice = Lattice(1 / 64, SpectralGrid(length=1.0, points=16), np.array([8, 12, 16, 24, 40]))
    pairs = sample_pairs_dyadic(lattice, [0.5, 0.375, 0.25], 5, seed=3)
    assert pairs.t_idx1.tolist() == [8, 24, 8, 40, 40, 8, 40, 8, 16, 40, 12, 8, 12, 12, 24]
    assert pairs.s_idx1.tolist() == [7, 4, 5, 4, 6, 7, 8, 8, 5, 5, 6, 10, 5, 6, 7]
    assert pairs.t_idx2.tolist() == [24, 40, 8, 40, 40, 8, 40, 8, 16, 40, 16, 12, 12, 12, 24]
    assert pairs.s_idx2.tolist() == [7, 4, 9, 8, 10, 10, 11, 11, 8, 8, 6, 10, 7, 8, 9]
    assert pairs.requested_delta.tolist() == [0.5] * 5 + [0.375] * 5 + [0.25] * 5
    assert np.array_equal(pairs.delta, pairs.requested_delta)
    assert pairs.x1.shape == (15,)


def test_pair_seeds_are_taken_modulo_two_to_the_64():
    # the samplers key Philox as the noise does: a seed of 2^70 is the seed 0, and seeds
    # above 2^63 keep every bit (rounded through float64, 2^64 - 2 and 2^64 - 1 collided)
    lattice = Lattice(1 / 64, SpectralGrid(length=1.0, points=64), np.arange(0, 65, 4))
    cyl = ParabolicCylinder(SpaceTimePoint(0.5, [0.0]), 0.25)
    for sample in (lambda s: sample_pairs_dyadic(lattice, [0.5, 0.25], 5, seed=s),
                   lambda s: sample_pairs_within_cylinder(lattice, cyl, 5, seed=s)):
        def same(a, b):
            a, b = sample(a), sample(b)
            return all(np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True)
                       for f in dataclasses.fields(PairSet))

        assert same(2**70, 0) and same(2**64 + 3, 3) and same(-1, 2**64 - 1)
        assert not same(2**64 - 2, 2**64 - 1) and not same(2**63, 2**63 + 1)


def test_lags_finer_than_the_lattice_are_rejected():
    # dt = 1/128, h = 1/8: a lag needs lag^2/dt >= 1/2 and lag/h >= 1/2
    lattice = Lattice(1 / 128, SpectralGrid(length=1.0, points=16), np.arange(0, 129, 4))
    assert lag_offsets(0.0625, 1 / 128, 1 / 8) == (1, 1)  # exact ties keep one step
    assert lag_offsets(0.25, 1 / 128, 1 / 8) == (8, 2)
    for lag in (0.0625 * 0.999, 2.0**-40):
        with pytest.raises(PairOffGrid, match="time steps"):
            sample_pairs_dyadic(lattice, [0.25, lag], 4)
    with pytest.raises(PairOffGrid):  # 2.6 time steps but 0.4 spacings
        lag_offsets(0.05, 1 / 1024, 1 / 8)
    with pytest.raises(PairOffGrid):  # lag^2 overflows: no finite time separation
        lag_offsets(2.0**600, 1 / 128, 2.0**600)
    assert sample_pairs_dyadic(lattice, [0.25, 0.0625], 4).size == 8


def test_within_cylinder_needs_a_one_dimensional_cylinder(unit_ensemble):
    cyl = ParabolicCylinder(SpaceTimePoint(0.5, [0.0, 0.0]), 0.25)
    with pytest.raises(DimensionMismatch):
        sample_pairs_within_cylinder(unit_ensemble, cyl, 8)


def test_triangle_consistency_p2(unit_ensemble):
    # second-moment quadrilateral bound: est(X,Z) <= 2 (est(X,Y) + est(Y,Z))
    import holderlab.moments as moments

    ens = unit_ensemble
    saved = ens.time_indices
    X = (int(saved[0]), 100)
    Y = (int(saved[6]), 160)
    Z = (int(saved[12]), 220)

    def est(a, b):
        pairs = moments.PairSet(
            np.array([a[0]]), np.array([a[1]]), np.array([b[0]]), np.array([b[1]]),
            np.array([a[0] * ens.dt]), np.array([0.0]),
            np.array([b[0] * ens.dt]), np.array([0.0]),
            np.array([0.0]), np.array([np.nan]))
        field = _estimate(ens, pairs, 2.0)
        return field.estimates[0], field.stderr[0]

    xz, se_xz = est(X, Z)
    xy, se_xy = est(X, Y)
    yz, se_yz = est(Y, Z)
    slack = 3.0 * math.sqrt(se_xz**2 + 4 * se_xy**2 + 4 * se_yz**2)
    assert xz <= 2.0 * (xy + yz) + slack


def test_moment_field_csv_json(tmp_path):
    # the CLI writes the moment field through the shared table and JSON writers;
    # both files carry the estimates of the same pairs exactly
    prefix = str(tmp_path / "ens")
    convolve_brownian(KERNEL, GRID, G_UNIT, NOISE, M=40,
                      save_times=list(range(64, 193, 8))).save(prefix)
    assert main(["moments", "--ensemble", prefix, "--p", "2", "--lag-k-min", "2",
                 "--lag-k-max", "2", "--pairs", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    loaded = FieldEnsemble.load(prefix)
    field = _estimate(loaded, sample_pairs_dyadic(loaded, [0.25], 8, seed=3), 2.0)
    lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,s,y,delta,estimate,stderr"
    assert len(lines) == 9
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[5]) for r in rows] == field.estimates.tolist()
    assert [float(r[6]) for r in rows] == field.stderr.tolist()
    back = json.loads((tmp_path / "moments.json").read_text())
    assert back["estimate"] == field.estimates.tolist()


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_estimates_match_the_direct_reduction(p):
    # the one in-place work array gives the same bits as |u(X) - u(Y)|^p built
    # from separate float64 temporaries, per lag block
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    ens = convolve_brownian(KERNEL, GRID, g, NOISE, M=64, save_times=list(range(64, 193, 8)))
    pairs = sample_pairs_dyadic(ens, [0.25, 0.125], 16, seed=5)
    held = ens.differences(pairs.indices)
    field = estimate_pair_moments(held, pairs, p)
    for sel, _ in moments._pair_blocks(pairs, 64):
        diff = (held.slab_differences.rows(sel) @ ens.values.T).T
        powed = np.abs(diff) ** p
        assert np.array_equal(field.estimates[sel], powed.mean(axis=0))
        assert np.array_equal(field.stderr[sel], powed.std(axis=0, ddof=1) / np.sqrt(64))


@pytest.mark.parametrize("source", ["pairs", "loaded"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_in_place_reduction_is_numpys_mean_and_std_bit_for_bit(tmp_path, monkeypatch, source,
                                                               p):
    # per block, the estimates and the standard errors reduced in place on the block are
    # np.mean and np.std(ddof=1) / sqrt(M) of its |u(X) - u(Y)|^p, for the lag blocks and
    # the within-cylinder (lag None) blocks, from the simulated ensemble or loaded from a .bin
    M, saved = 64, list(range(64, 193, 8))
    monkeypatch.setattr(moments, "PAIR_CHUNK", 5 * M)
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    lattice = Lattice(NOISE.dt, GRID, np.array(saved))
    cylinder = sample_pairs_within_cylinder(
        lattice, ParabolicCylinder(SpaceTimePoint(0.5, [0.0]), 0.25), 12, seed=3)
    pairs = PairSet.concatenate([sample_pairs_dyadic(lattice, [0.25, 0.125], 16, seed=1),
                                 cylinder])
    ens = _pair_ensemble(source, tmp_path, convolve_brownian, NOISE, M, saved, pairs)
    blocks = moments._pair_blocks(pairs, M)
    assert [lag for _, lag in blocks] == [0.125, 0.25, None, None, None]
    got = estimate_pair_moments(ens, pairs, p)
    for (sel, _), diff in zip(blocks, ens.difference_blocks(pairs, [s for s, _ in blocks])):
        powed = np.abs(diff) ** p
        assert np.array_equal(got.estimates[sel], np.mean(powed, axis=0))
        assert np.array_equal(got.stderr[sel], np.std(powed, axis=0, ddof=1) / np.sqrt(M))


def _pair_ensemble(source, tmp_path, convolve, noise, M, saved, pairs):
    """The PairEnsemble of pairs, from the simulated ensemble ("pairs") or, as the CLI reads
    it, from the ensemble saved to a .bin and loaded back ("loaded")."""
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    ens = convolve(KERNEL, GRID, g, noise, M, saved)
    if source == "loaded":
        ens.save(str(tmp_path / "ens"))
        ens = FieldEnsemble.load(str(tmp_path / "ens"))
    return ens.differences(pairs.indices)


def test_pair_values_give_the_full_ensemble_estimates():
    # the pair differences agree with those of the field summed at each saved time on its own
    # (tests/oracles.py) to rounding; pairs mirrored about x = 0, where u is even, read
    # rounding noise
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    saved = list(range(64, 193, 8))
    lags = [0.25, 0.125, 0.0625]
    ens = convolve_brownian(KERNEL, GRID, g, NOISE, M=300, save_times=saved)
    pairs = sample_pairs_dyadic(ens, lags, 64, seed=4)
    field = per_time_field(KERNEL, GRID, g, NOISE, ens.values, saved)
    pos = {t: i for i, t in enumerate(saved)}
    full = (field[:, [pos[t] for t in pairs.t_idx1], pairs.s_idx1]
            - field[:, [pos[t] for t in pairs.t_idx2], pairs.s_idx2])
    held = ens.differences(pairs.indices)
    assert held.values.nbytes == 300 * int(max(pairs.t_idx1.max(), pairs.t_idx2.max())) * 8
    rel = 1e-10
    for p in (1.0, 2.0, 3.5):
        a = _whole_array_moments(full.copy(), pairs, p)
        b = estimate_pair_moments(held, pairs, p)
        assert np.allclose(b.estimates, a[0], rtol=rel, atol=rel * a[0].max())
        assert np.allclose(b.stderr, a[1], rtol=rel, atol=rel * a[1].max())
        for lag in lags:
            assert b.realization_stderr[lag] == pytest.approx(a[2][lag], rel=rel)
    with pytest.raises(PairOffGrid):
        estimate_pair_moments(held, _swapped(pairs), 2.0)


def test_realization_stderr_is_the_spread_of_per_realization_lag_means():
    g = TestFunctionSpec(family="parabolic-power", beta=0.5)
    saved = list(range(64, 193, 8))
    M = 200
    ens = convolve_brownian(KERNEL, GRID, g, NOISE, M=M, save_times=saved)
    lags = [0.25, 0.125]
    pairs = sample_pairs_dyadic(ens, lags, 32, seed=9)
    held = ens.differences(pairs.indices)
    field = estimate_pair_moments(held, pairs, 2.0)
    assert sorted(field.realization_stderr) == sorted(lags)
    [diff] = held.difference_blocks(pairs)
    for lag in lags:
        sel = pairs.requested_delta == lag
        lag_means = (diff[:, sel] ** 2).mean(axis=1)  # one lag mean per realization
        want = lag_means.std(ddof=1) / math.sqrt(M)
        assert field.realization_stderr[lag] == pytest.approx(want, rel=1e-12)
        assert field.realization_stderr[lag] > 0.0
    # within-cylinder pairs request no lag
    cyl = ParabolicCylinder(SpaceTimePoint(0.5, [0.0]), 0.25)
    cyl_pairs = sample_pairs_within_cylinder(ens, cyl, 16, seed=1)
    assert _estimate(ens, cyl_pairs, 2.0).realization_stderr == {}


def test_pairs_from_the_lattice_equal_pairs_from_an_ensemble(unit_ensemble):
    lattice = Lattice(unit_ensemble.dt, unit_ensemble.grid, unit_ensemble.time_indices)
    lags = [2.0**-k for k in range(1, 5)]
    cyl = ParabolicCylinder(SpaceTimePoint(0.5, [0.0]), 0.25)
    for draw in (lambda src: sample_pairs_dyadic(src, lags, 64, seed=12),
                 lambda src: sample_pairs_within_cylinder(src, cyl, 64, seed=12)):
        a, b = draw(unit_ensemble), draw(lattice)
        for f in dataclasses.fields(PairSet):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True)


def _whole_array_moments(diff, pairs, p):
    """The estimator as one reduction over every pair at once, the reference for the blocked
    one: diff, float64 (M, n) differences with the realization axis contiguous, becomes
    |diff|^p."""
    M = diff.shape[0]
    np.abs(diff, out=diff)
    diff **= p
    rd = pairs.requested_delta
    by_lag = {float(lag): float(diff[:, rd == lag].mean(axis=1).std(ddof=1) / np.sqrt(M))
              for lag in np.unique(rd[~np.isnan(rd)])}
    return diff.mean(axis=0), diff.std(axis=0, ddof=1) / np.sqrt(M), by_lag


def _whole_differences(ens):
    """Every pair's u(X) - u(Y) of a PairEnsemble as one float64 (M, n) product, realization
    axis contiguous."""
    return (ens.slab_differences.rows() @ ens.values.T).T


POISSON = NoiseSpec(kind="poisson", horizon=1.0, steps=256, seed=13,
                    jump=JumpSpec(intensity=10.0, mark=MarkLaw("two-sided-exponential", 1.0)))


@pytest.mark.parametrize("source, M", [("pairs", 2000), ("pairs", 40), ("loaded", 2000),
                                       ("loaded", 40)])
@pytest.mark.parametrize("pairs_per_lag", [2, 3, 257])
@pytest.mark.parametrize("noise", [NOISE, POISSON], ids=["brownian", "poisson"])
def test_blocked_estimator_equals_the_whole_array_reduction(tmp_path, monkeypatch, noise,
                                                             pairs_per_lag, source, M):
    # one block per lag and blocks of at most 5 within-cylinder pairs give the bits of one
    # reduction over every pair, for lags held together and for a lag spread over the set.
    # A pair ensemble, of the simulated ensemble or one loaded from a .bin, forms each block's
    # product D[sel] w^T on its own: at M = 2000, as at the presets, OpenBLAS rounds it as the
    # rows of the whole product; at M = 40 a product of a few rows can take another kernel,
    # and agrees only to rounding.
    saved = list(range(64, 193, 8))
    monkeypatch.setattr(moments, "PAIR_CHUNK", 5 * M)
    convolve = convolve_brownian if noise.kind == "brownian" else convolve_poisson
    lattice = Lattice(noise.dt, GRID, np.array(saved))
    lags = [0.25, 0.125]
    cylinder = sample_pairs_within_cylinder(
        lattice, ParabolicCylinder(SpaceTimePoint(0.5, [0.0]), 0.25), 24, seed=3)
    together = PairSet.concatenate([sample_pairs_dyadic(lattice, lags, pairs_per_lag, seed=1),
                                    cylinder])
    spread = PairSet.concatenate([together, sample_pairs_dyadic(lattice, lags, 2, seed=2)])
    for pairs in (together, spread):
        ens = _pair_ensemble(source, tmp_path, convolve, noise, M, saved, pairs)
        blocks = moments._pair_blocks(pairs, M)
        assert sum(lag is None for _, lag in blocks) == 5  # 24 cylinder pairs, 5 at most
        got = estimate_pair_moments(ens, pairs, 3.5)
        est, err, by_lag = _whole_array_moments(_whole_differences(ens), pairs, 3.5)
        assert list(got.realization_stderr) == list(by_lag) == lags[::-1]
        if M < 2000:
            rel = 1e-12
            assert np.allclose(got.estimates, est, rtol=rel, atol=0.0)
            assert np.allclose(got.stderr, err, rtol=rel, atol=0.0)
            assert np.allclose(list(got.realization_stderr.values()), list(by_lag.values()),
                               rtol=rel, atol=0.0)
            continue
        assert np.array_equal(got.estimates, est)
        assert np.array_equal(got.stderr, err)
        assert got.realization_stderr == by_lag
