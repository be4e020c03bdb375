import json
import math

import numpy as np
import pytest

from holderlab.campanato import (
    Box,
    ParabolicCylinder,
    SpaceTimePoint,
    campanato_from_pair_moments,
    campanato_seminorm,
    disk_rect_area,
    embedding_exponent,
    parabolic_distance,
    unit_ball_volume,
)
from holderlab.errors import (
    DimensionMismatch,
    SamplingBudgetTooSmall,
    ThetaOutOfEmbeddingRange,
)
from holderlab.experiments import write_json, write_table
from oracles import inclusion_holds

UNIT_BOX = Box(0.0, 1.0, [0.0], [1.0])
UNIT_SCALES = [0.25 * 2**-k for k in range(5)]  # a quarter of the unit box's diameter, halved


def test_metric_values():
    assert parabolic_distance(0, [[0.0]], 0, [[0.0]])[0] == 0.0
    assert parabolic_distance(0, [[0.0]], 1, [[2.0]])[0] == 2.0
    assert parabolic_distance(0, [[0.0]], 0.04, [[0.1]])[0] == pytest.approx(0.2)
    with pytest.raises(DimensionMismatch):
        parabolic_distance(0, [[0.0]], 0, [[0.0, 1.0]])


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = rng.uniform(-1, 1, 3)
        x = rng.uniform(-1, 1, (3, 2))
        d01 = parabolic_distance(t[0], x[0:1], t[1], x[1:2])[0]
        d10 = parabolic_distance(t[1], x[1:2], t[0], x[0:1])[0]
        d02 = parabolic_distance(t[0], x[0:1], t[2], x[2:3])[0]
        d12 = parabolic_distance(t[1], x[1:2], t[2], x[2:3])[0]
        assert d01 == d10
        assert d02 <= d01 + d12 + 1e-12


def test_cylinder_measure_formula():
    for dim, c in [(1, 0.25), (1, 1.3), (2, 0.4)]:
        cyl = ParabolicCylinder(SpaceTimePoint(0.0, [0.0] * dim), c)
        expected = 2.0 * c * c * unit_ball_volume(dim) * c**dim
        assert cyl.measure == pytest.approx(expected, rel=1e-14)
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)


def test_domain_validation_and_geometry():
    with pytest.raises(ValueError):
        Box(1, 1, [0], [1])  # empty time interval
    with pytest.raises(ValueError):
        Box(0, 1, [0, 1], [1, 1])  # empty second axis
    with pytest.raises(DimensionMismatch):
        Box(0, 1, [0], [1, 1])
    d = Box(0, 3, [0], [1])
    with pytest.raises(DimensionMismatch):
        d.intersection_measure(ParabolicCylinder(SpaceTimePoint(0.5, [0.5, 0.5]), 0.1))


def test_contains_takes_positions_of_shape_n_by_dim_only():
    # a 1-D array of positions was read as one point per axis: Box(0, 1, [0], [1]) said
    # [True, True, True] for x = [0.5, 2.0, -1.0]
    t = np.full(3, 0.5)
    square = Box(0, 1, [0, 0], [1, 1])
    cylinder = ParabolicCylinder(SpaceTimePoint(0.5, [0.5]), 0.2)
    for region, bad in [(UNIT_BOX, [0.5, 2.0, -1.0]), (cylinder, [0.5, 2.0, -1.0]),
                        (UNIT_BOX, [[0.5, 0.5]] * 3), (square, [[0.5]] * 3),
                        (cylinder, [[[0.5]]] * 3)]:
        with pytest.raises(DimensionMismatch, match=r"are not \(n, "):
            region.contains(t, bad)
    xs = np.array([[0.5], [2.0], [-1.0]])
    assert UNIT_BOX.contains(t, xs).tolist() == [True, False, False]
    assert cylinder.contains(t, xs).tolist() == [True, False, False]
    assert square.contains(t, [[0.5, 0.5], [0.5, 1.5], [0.0, 1.0]]).tolist() == [True, False,
                                                                                  True]


def test_intersection_measure_interior_and_corner():
    # |D cap Q| / |Q|: 1 for an interior cylinder, 1/4 at a space-time corner
    def ratio(X, rho):
        cyl = ParabolicCylinder(X, rho)
        return UNIT_BOX.intersection_measure(cyl) / cyl.measure

    for rho in (0.1, 0.2):
        assert ratio(SpaceTimePoint(0.5, [0.5]), rho) == pytest.approx(1.0)
    assert ratio(SpaceTimePoint(0.0, [0.0]), 0.05) == pytest.approx(0.25, abs=1e-12)
    rng = np.random.default_rng(5)
    ts, xs = UNIT_BOX.sample_points(rng, 16)
    for t, x in zip(ts, xs):
        for rho in (0.03, 0.1):
            assert ratio(SpaceTimePoint(t, x), rho) <= 1.0 + 1e-12


def _intersection_measure_qmc(domain, cyl, n):
    """|D cap Q| from unscrambled Halton points in Q's bounding box."""
    from scipy.stats import qmc

    c = cyl.radius
    t0, x0 = cyl.center.t, cyl.center.x_array()
    u = qmc.Halton(d=1 + domain.dim, scramble=False).random(n)
    ts = t0 - c * c + 2.0 * c * c * u[:, 0]
    xs = x0[None, :] - c + 2.0 * c * u[:, 1:]
    inside = domain.contains(ts, xs) & cyl.contains(ts, xs)
    return 2.0 * c * c * (2.0 * c) ** domain.dim * inside.mean()


def test_disk_rect_area_against_qmc():
    dom = Box(0.0, 1.0, [0.0, 0.0], [1.0, 1.0])
    rng_cases = [
        ((0.5, [0.5, 0.5]), 0.3),   # fully inside
        ((0.5, [0.0, 0.0]), 0.4),   # corner quarter
        ((0.5, [0.5, 0.95]), 0.3),  # edge cut
        ((0.05, [0.2, 0.2]), 0.35),  # time-truncated
    ]
    for (t0, x0), c in rng_cases:
        cyl = ParabolicCylinder(SpaceTimePoint(t0, x0), c)
        exact = dom.intersection_measure(cyl)
        approx = _intersection_measure_qmc(dom, cyl, n=1 << 17)
        assert exact == pytest.approx(approx, rel=4e-3, abs=1e-5)
    # disk fully inside a rectangle: area = pi r^2
    assert disk_rect_area(0.0, 0.0, 1.0, -2, 2, -2, 2) == pytest.approx(math.pi, rel=1e-12)


def test_campanato_constant_field_is_zero():
    rep = campanato_seminorm(lambda ts, xs: np.full(ts.shape, 3.7),
                             UNIT_BOX, 2.0, 1.5, UNIT_SCALES, budget=96, n_centers=6, seed=0)
    assert rep.seminorm == pytest.approx(0.0, abs=1e-12)


def test_campanato_linear_field_vs_brute_force():
    # u(t, x) = x on the unit box, p = 2, theta = 1: compare the sampled
    # per-scale value with a dense-grid quadrature of the mean-deviation form
    p, theta, c = 2.0, 1.0, 0.2
    center = SpaceTimePoint(0.5, [0.5])
    rep = campanato_seminorm(lambda ts, xs: xs[:, 0], UNIT_BOX, p, theta,
                             scales=[c], budget=4096, n_centers=10, seed=1)

    # brute force on a 200 x 200 grid over the cylinder at the domain center
    ts = np.linspace(0.5 - c * c, 0.5 + c * c, 200)
    xs = np.linspace(0.5 - c, 0.5 + c, 200)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    inside = (np.abs(xx - 0.5) < c)
    vals = xx[inside]
    mean_dev = np.mean(np.abs(vals - vals.mean()) ** p)
    cell = (ts[1] - ts[0]) * (xs[1] - xs[0])
    measure = inside.sum() * cell
    brute = mean_dev * measure ** (1.0 - theta)
    # the sampled sup over centers dominates the center value; for the
    # translation-invariant field u = x interior cylinders all agree
    assert rep.per_scale_meandev[0] == pytest.approx(brute, rel=0.05)


def test_campanato_pairwise_dominates_meandev():
    rep = campanato_seminorm(lambda ts, xs: np.sin(3 * xs[:, 0]) + ts,
                             UNIT_BOX, 2.0, 1.2, UNIT_SCALES, budget=128, n_centers=8, seed=2)
    assert rep.notes["pairwise_dominates_meandev"]
    for pw, dv in zip(rep.per_scale, rep.per_scale_meandev):
        assert pw >= dv * (1.0 - 1e-9)


def test_campanato_scaling_in_amplitude():
    # seminorm report values scale like |a|^p with the same samples
    p = 2.0
    u1 = lambda ts, xs: xs[:, 0] + ts
    u3 = lambda ts, xs: 3.0 * (xs[:, 0] + ts)
    r1 = campanato_seminorm(u1, UNIT_BOX, p, 1.3, UNIT_SCALES, budget=96, n_centers=6, seed=7)
    r3 = campanato_seminorm(u3, UNIT_BOX, p, 1.3, UNIT_SCALES, budget=96, n_centers=6, seed=7)
    assert np.allclose(np.array(r3.per_scale), 9.0 * np.array(r1.per_scale), rtol=1e-12)


def test_campanato_budget_guard():
    with pytest.raises(SamplingBudgetTooSmall):
        campanato_seminorm(lambda ts, xs: ts, UNIT_BOX, 2.0, 1.0, UNIT_SCALES, budget=16)


def test_embedding_recovery_for_cusp_field():
    # u = |x|^g + t^(g/2): fitted Campanato slope recovers gamma = 0.5
    gamma = 0.5
    u = lambda ts, xs: np.abs(xs[:, 0]) ** gamma + ts ** (gamma / 2.0)
    rep = campanato_seminorm(u, UNIT_BOX, 2.0, 1.0,
                             scales=[0.2 * 2.0**-k for k in range(5)],
                             budget=192, n_centers=24, seed=2)
    assert rep.fitted_gamma == pytest.approx(gamma, abs=0.15)
    assert embedding_exponent(2.0, rep.fitted_theta, 1) == pytest.approx(
        rep.fitted_gamma, rel=1e-12)


def test_embedding_exponent_range():
    assert embedding_exponent(2.0, 1.0 + 2.0 / 3.0, 1) == pytest.approx(1.0)
    gamma = 0.5
    theta = 1.0 + gamma * 2.0 / 3.0
    assert embedding_exponent(2.0, theta, 1) == pytest.approx(gamma)
    with pytest.raises(ThetaOutOfEmbeddingRange):
        embedding_exponent(4.0, 1.0, 2)
    with pytest.raises(ThetaOutOfEmbeddingRange):
        embedding_exponent(2.0, 2.0, 1)  # above 1 + p/(d+2)


def test_inclusion_truth_table():
    # (p, theta, q, sigma) -> whether the (q, sigma) class sits inside (p, theta)
    cases = [
        ((2.0, 2.0, 4.0, 4.0), True),    # (theta-1)/p = 0.5 <= 0.75
        ((2.0, 3.0, 4.0, 4.0), False),   # 1.0 > 0.75
        ((2.0, 2.0, 2.0, 2.0), True),    # reflexivity
        ((3.0, 2.5, 3.0, 2.5), True),    # reflexivity, fractional
        ((4.0, 1.0, 2.0, 9.0), False),   # p > q fails outright
        ((1.0, 1.0, 8.0, 1.0), True),    # zero oscillation exponent both sides
        ((2.0, 1.6, 4.0, 2.2), True),    # 0.3 <= 0.3 boundary
        ((2.0, 1.7, 4.0, 2.2), False),   # 0.35 > 0.3
    ]
    for args, expected in cases:
        assert inclusion_holds(*args) is expected


def test_inclusion_monotone_in_sigma():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.uniform(1.0, 4.0)
        q = p + rng.uniform(0.0, 4.0)
        theta = rng.uniform(0.0, 4.0)
        sigmas = np.sort(rng.uniform(0.0, 5.0, 4))
        results = [inclusion_holds(p, theta, q, s) for s in sigmas]
        # once true it stays true as sigma grows
        seen_true = False
        for r in results:
            if seen_true:
                assert r
            seen_true = seen_true or r


def test_pair_moment_reducer():
    groups = [(0.2, 1.0, 4.0), (0.2, 1.0, 5.0), (0.1, 0.5, 2.0)]
    rep = campanato_from_pair_moments(groups, 2.0, 1.5)
    assert rep.scales == [0.2, 0.1]
    assert rep.per_scale[0] == pytest.approx(5.0 * 1.0 ** (-0.5))
    assert rep.per_scale[1] == pytest.approx(2.0 * 0.5 ** (-0.5))
    # a mean deviation per cylinder adds its own normalized sups and changes nothing else
    dev = campanato_from_pair_moments([g + (1.0,) for g in groups], 2.0, 1.5)
    assert rep.per_scale_meandev is None
    assert dev.per_scale_meandev == [1.0, 0.5 ** (1.0 - 1.5)]
    assert (dev.per_scale, dev.raw_per_scale, dev.seminorm) == \
        (rep.per_scale, rep.raw_per_scale, rep.seminorm)


@pytest.mark.parametrize("p, theta", [(math.inf, -3.0), (2.0, -3.0), (math.nan, 1.5),
                                      (0.5, 1.5), (math.inf, 1.5), (2.0, math.nan),
                                      (2.0, math.inf)])
def test_both_campanato_routes_refuse_the_same_exponents(p, theta):
    # a moment order not finite and >= 1, or a theta not finite and >= 0, is refused before
    # anything is reduced; (inf, -3) once gave a seminorm of 1.0
    groups = [(0.25, 0.1, 0.02), (0.125, 0.01, 0.005)]
    with pytest.raises(ValueError, match="must be finite"):
        campanato_from_pair_moments(groups, p, theta)
    with pytest.raises(ValueError, match="must be finite"):
        campanato_seminorm(lambda ts, xs: ts, UNIT_BOX, p, theta, UNIT_SCALES)


def test_seminorm_report_io(tmp_path):
    rep = campanato_seminorm(lambda ts, xs: xs[:, 0], UNIT_BOX, 2.0, 1.0,
                             scales=[0.2, 0.1, 0.05, 0.025], budget=96,
                             n_centers=6, seed=9)
    write_json(tmp_path / "r.json", rep.to_dict())
    write_table(tmp_path / "r.csv", ["scale", "value", "raw_value"],
                zip(rep.scales, rep.per_scale, rep.raw_per_scale))
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "scale,value,raw_value"
    assert len(lines) == 5
    assert [float(line.split(",")[1]) for line in lines[1:]] == [float(v) for v in rep.per_scale]
    assert json.loads((tmp_path / "r.json").read_text()) == rep.to_dict()
