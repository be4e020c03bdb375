"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
two field-exponent sharpness criteria (brownian/poisson regularity) are
implemented exactly as stated and are expected to fail: the measured
parabolic exponent of the second-moment field is 1 (the time integrator's
scaling), not min(gamma1, gamma2, beta); the upper-bound form of the same
claim is verified separately and passes.  See the repository notes for the
analysis.
"""

import json
import math

import numpy as np
import pytest

from holderlab.campanato import Box, campanato_seminorm, embedding_exponent
from holderlab.conditions import ConditionProbe, audit_conditions
from holderlab.experiments import default_config, dyadic, load_config, run_experiment
from holderlab.kernels import KernelSpec, SpectralGrid
from holderlab.noise import JumpSpec, MarkLaw, NoiseSpec
from oracles import (
    compensated_ensemble,
    grid_for_times,
    inclusion_holds,
    ito_ensemble,
    kernel_periodized,
    spectral_kernel,
)


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return ok


# --- criterion 1: kernel mass ----------------------------------------------

def test_kernel_mass_unit():
    failures = []
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for dim in (1, 2):
            for t in (0.01, 0.1, 1.0):
                grid = grid_for_times(alpha, dim, t_min=t, length=8.0 * t ** (1.0 / alpha))
                vals = spectral_kernel(KernelSpec(alpha=alpha, dim=dim), grid, t)
                mass = vals.sum() * grid.spacing**dim
                if abs(mass - 1.0) > 1e-6:
                    failures.append((alpha, dim, t, mass))
    ok = report("kernel-mass", not failures,
                "24 (alpha, d, t) cases, tolerance 1e-6")
    assert ok, f"mass failures: {failures}"


# --- criterion 2: spectral vs closed forms ----------------------------------

def test_spectral_vs_closed_forms():
    worst = 0.0
    for spec, t in [
        (KernelSpec(alpha=2.0, dim=1), 0.01),
        (KernelSpec(alpha=2.0, dim=1), 1.0),
        (KernelSpec(alpha=2.0, dim=2), 0.1),
        (KernelSpec(alpha=1.0, dim=1), 0.1),
        (KernelSpec(alpha=1.0, dim=1), 0.5),
    ]:
        # double the guard-required resolution: comparing down to the 1e-10
        # floor needs the Fourier truncation residue below 1e-14
        base = grid_for_times(spec.alpha, spec.dim, t_min=t)
        grid = SpectralGrid(length=base.length, points=2 * base.points,
                            dim=base.dim)
        vals = spectral_kernel(spec, grid, t)
        closed = kernel_periodized(spec, grid, t)
        mask = np.abs(closed) > 1e-10
        rel = np.max(np.abs(vals[mask] - closed[mask]) / np.abs(closed[mask]))
        worst = max(worst, float(rel))

    # free-space spot values from the closed forms
    grid = grid_for_times(2.0, 1, t_min=0.1)
    center = spectral_kernel(KernelSpec(alpha=2.0), grid, 0.1)[0]
    gauss_ok = abs(center - (4.0 * math.pi * 0.1) ** -0.5) < 1e-4 * center

    cgrid = grid_for_times(1.0, 1, t_min=0.5, length=160.0)
    ax = np.fft.ifftshift(cgrid.axis())
    j = int(np.argmin(np.abs(ax - 1.0)))
    cauchy = spectral_kernel(KernelSpec(alpha=1.0), cgrid, 0.5)[j]
    cauchy_ok = abs(cauchy - 0.12732) < 1e-4 * 0.12732

    ok = report("spectral-vs-closed-form", worst < 1e-4 and gauss_ok and cauchy_ok,
                f"max rel dev {worst:.2e}, tolerance 1e-4 above 1e-10")
    assert ok


# --- criterion 3: Gaussian condition exponents -------------------------------

TIME_PAIRS = [(0.5, 0.5 + lag) for lag in dyadic("lags", 3, 10)]  # lags 2^-3 .. 2^-10 at s = 0.5


def test_gaussian_condition_exponents():
    failures = []
    fitted = {}
    for beta in (0.0, 0.3, 0.5):
        probe = ConditionProbe(kernel=KernelSpec(alpha=2.0), beta=beta,
                               power=2.0,
                               time_pairs=TIME_PAIRS)
        rep = audit_conditions(probe)
        fitted[beta] = (rep.gamma1, rep.gamma2)
        for name, val in (("gamma1", rep.gamma1), ("gamma2", rep.gamma2)):
            if not 0.85 <= val <= 1.15:
                failures.append((beta, name, val))
    detail = "; ".join(f"beta={b:g}: g1={g1:.3f}, g2={g2:.3f}"
                       for b, (g1, g2) in fitted.items())
    ok = report("gaussian-condition-exponents", not failures, detail)
    assert ok, f"outside [0.85, 1.15]: {failures}"


# --- criterion 4: fractional exponent surface --------------------------------

SURFACE_CASES = [(1.0, 0.0), (1.0, 0.25), (1.5, 0.0), (1.5, 0.3), (2.0, 0.5)]
SURFACE_FITS = {}


def test_fractional_exponent_surface():
    failures = []
    for alpha, eps in SURFACE_CASES:
        probe = ConditionProbe(kernel=KernelSpec(alpha=alpha, epsilon=eps),
                               beta=0.0, power=2.0,
                               time_pairs=TIME_PAIRS)
        rep = audit_conditions(probe)
        predicted = (alpha - 2.0 * eps) / alpha
        SURFACE_FITS[(alpha, eps)] = (rep.gamma1, rep.gamma2)
        if abs(rep.gamma1 - predicted) > 0.2:
            failures.append((alpha, eps, "gamma1", rep.gamma1, predicted))
        if abs(rep.gamma2 - predicted) > 0.2:
            failures.append((alpha, eps, "gamma2", rep.gamma2, predicted))
    ok = report("fractional-exponent-surface", not failures,
                "5 (alpha, eps) cases, tolerance 0.2")
    assert ok, f"surface failures: {failures}"


# --- criterion 5: Ito / Poisson isometries -----------------------------------

def test_stochastic_isometries():
    M = 10_000
    failures = []

    brownian = NoiseSpec(kind="brownian", horizon=1.0, steps=256, seed=41)
    cases_w = [
        ("h=1", lambda t: np.ones_like(t), 1.0),
        ("h=cos(2 pi t)", lambda t: np.cos(2.0 * math.pi * t), 0.5),
        ("h=t", lambda t: t, 1.0 / 3.0),
    ]
    for name, h, target in cases_w:
        vals = ito_ensemble(brownian, h, M)
        sq = vals**2
        se = sq.std() / math.sqrt(M)
        if abs(sq.mean() - target) > 3.0 * se:
            failures.append(("brownian", name, sq.mean(), target, se))

    jump = JumpSpec(intensity=5.0, mark=MarkLaw("two-sided-exponential", 1.0))
    poisson = NoiseSpec(kind="poisson", horizon=1.0, steps=256, seed=42, jump=jump)
    lam = jump.intensity
    ez2, ez4 = jump.mark.second_moment, jump.mark.abs_moment(4.0)
    cases_n = [
        ("h=z", lambda t, z: z, lam * ez2),
        ("h=z cos t", lambda t, z: z * np.cos(t),
         lam * ez2 * (0.5 + math.sin(2.0) / 4.0)),
        ("h=z^2", lambda t, z: z * z, lam * ez4),
    ]
    for name, h, target in cases_n:
        vals = compensated_ensemble(poisson, h, M)
        sq = vals**2
        se = sq.std() / math.sqrt(M)
        if abs(sq.mean() - target) > 3.0 * se:
            failures.append(("poisson", name, sq.mean(), target, se))

    ok = report("stochastic-isometries", not failures,
                f"6 integrands at M={M}, 3 sigma")
    assert ok, f"isometry failures: {failures}"


# --- criteria 6/7: field regularity presets ----------------------------------

@pytest.fixture(scope="module")
def brownian_reports():
    out = {}
    for beta in (0.3, 0.5):
        cfg = default_config("brownian-regularity", seed=2024)
        cfg.moments.beta = beta
        out[beta] = run_experiment(cfg)
    return out


def test_brownian_regularity_exponent(brownian_reports):
    failures = []
    for beta, rep in brownian_reports.items():
        mod = rep.modules["moments"]
        predicted = mod["gamma_predicted"]
        mc, oracle = mod["fitted_gamma"], mod["fitted_gamma_oracle"]
        print(f"  beta={beta:g}: predicted={predicted:.3f}  "
              f"fitted_mc={mc:.3f}  fitted_oracle={oracle:.3f}")
        if abs(mc - predicted) > 0.15:
            failures.append((beta, "monte-carlo", mc, predicted))
        if abs(oracle - predicted) > 0.05:
            failures.append((beta, "oracle", oracle, predicted))
    bound_ok = all(
        v.passed for rep in brownian_reports.values()
        for v in rep.verdicts if "bound" in v.claim)
    report("brownian-regularity-bound", bound_ok,
           "upper-bound form of the moment estimate")
    ok = report("brownian-regularity-exponent", not failures,
                "sharpness of min(gamma1, gamma2, beta) at p=2")
    assert ok, (
        f"fitted field exponents are ~1 (time-integrator scaling), not beta: "
        f"{failures}; the upper bound passes -- see notes/decisions ledger")


def test_poisson_regularity_exponent():
    cfg = default_config("poisson-regularity", seed=2024)
    rep = run_experiment(cfg)
    mod = rep.modules["moments"]
    # the prediction uses the fitted kernel exponents of the surface run
    g1, g2 = SURFACE_FITS.get((1.5, 0.0), (1.0, 1.0))
    predicted = min(g1, g2, cfg.moments.beta)
    mc = mod["fitted_gamma"]
    print(f"  predicted={predicted:.3f}  fitted_mc={mc:.3f}  "
          f"fitted_oracle={mod['fitted_gamma_oracle']:.3f}")
    bound_ok = all(v.passed for v in rep.verdicts if "bound" in v.claim)
    report("poisson-regularity-bound", bound_ok,
           "upper-bound form of the moment estimate")
    ok = report("poisson-regularity-exponent", abs(mc - predicted) <= 0.2,
                "sharpness of min(gamma1, gamma2, beta), tolerance 0.2")
    assert ok, (
        f"fitted field exponent {mc:.3f} is ~1 (time-integrator scaling), "
        f"not {predicted:.3f}; the upper bound passes -- see notes ledger")


# --- criterion 8: campanato machinery oracles --------------------------------

def test_campanato_machinery_oracles():
    domain = Box(0.0, 1.0, [0.0], [1.0])
    checks = {}

    const = campanato_seminorm(lambda ts, xs: np.full(ts.shape, 2.0),
                               domain, 2.0, 1.2, budget=96, n_centers=6, seed=1)
    checks["constant-field-zero"] = const.seminorm <= 1e-12

    # linear field vs dense-grid double-integral quadrature on a 200 x 200
    # lattice; at p = 2 the pairwise double average is exactly twice the
    # grid variance, which sidesteps the 40000^2 difference matrix
    p, theta, c = 2.0, 1.0, 0.2
    rep = campanato_seminorm(lambda ts, xs: xs[:, 0], domain, p, theta,
                             scales=[c], budget=4096, n_centers=10, seed=1)
    ts = np.linspace(0.5 - c * c, 0.5 + c * c, 200)
    xs = np.linspace(0.5 - c, 0.5 + c, 200)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    vals = xx.ravel()
    pair_mean = 2.0 * vals.var()
    measure = 2.0 * c * c * 2.0 * c
    brute = pair_mean * measure ** (1.0 - theta)
    checks["linear-field-vs-brute-force"] = (
        abs(rep.per_scale[0] - brute) <= 0.05 * brute)

    # embedding round trip: theta = 1 + gamma p/(d+2) -> alpha = gamma
    rng = np.random.default_rng(2)
    round_trip = True
    for _ in range(50):
        pp = rng.uniform(1.0, 6.0)
        d = int(rng.integers(1, 3))
        gamma = rng.uniform(1e-6, 1.0)
        theta_g = 1.0 + gamma * pp / (d + 2.0)
        round_trip &= abs(embedding_exponent(pp, theta_g, d) - gamma) < 1e-12
    checks["embedding-round-trip"] = round_trip

    table = [
        ((2.0, 2.0, 4.0, 4.0), True),
        ((2.0, 3.0, 4.0, 4.0), False),
        ((2.0, 2.0, 2.0, 2.0), True),
        ((3.0, 2.5, 3.0, 2.5), True),
        ((4.0, 1.0, 2.0, 9.0), False),
        ((1.0, 1.0, 8.0, 1.0), True),
        ((2.0, 1.6, 4.0, 2.2), True),
        ((2.0, 1.7, 4.0, 2.2), False),
    ]
    checks["inclusion-truth-table"] = all(
        inclusion_holds(*args) is expect for args, expect in table)

    failures = [k for k, v in checks.items() if not v]
    ok = report("campanato-oracles", not failures, ", ".join(checks))
    assert ok, f"failed campanato checks: {failures}"


# --- criterion 9: determinism ------------------------------------------------

SMALL_CONFIGS = {
    "kernel-audit": {
        "experiment": "kernel-audit", "seed": 3,
        "conditions": {"betas": [0.3], "lag_k_min": 4, "lag_k_max": 7,
                       "mesh_points": 64}},
    "fractional-sweep": {
        "experiment": "fractional-sweep", "seed": 3,
        "sweep": {"cases": [[1.5, 0.3]]},
        "conditions": {"betas": [0.0], "lag_k_min": 4, "lag_k_max": 7,
                       "mesh_points": 64}},
    "brownian-regularity": {
        "experiment": "brownian-regularity", "seed": 5,
        "simulation": {"steps": 256, "grid_points": 512, "grid_length": 4.0,
                       "ensemble": 120},
        "moments": {"p": 2.0, "beta": 0.5, "lag_k_min": 1, "lag_k_max": 4,
                    "pairs_per_lag": 48},
        "conditions": {"lag_k_min": 4, "lag_k_max": 7, "mesh_points": 64}},
    "poisson-regularity": {
        "experiment": "poisson-regularity", "seed": 5,
        "kernel": {"alpha": 1.5},
        "simulation": {"steps": 256, "grid_points": 1024, "grid_length": 2.0,
                       "ensemble": 120},
        "moments": {"p": 2.0, "beta": 0.5, "lag_k_min": 1, "lag_k_max": 4,
                    "pairs_per_lag": 48},
        "conditions": {"lag_k_min": 4, "lag_k_max": 7, "mesh_points": 64}},
    "embedding-check": {
        "experiment": "embedding-check", "seed": 2,
        "campanato": {"budget": 128, "n_centers": 12}},
}


def test_determinism_every_preset(tmp_path):
    failures = []
    for preset, data in SMALL_CONFIGS.items():
        cfg_path = tmp_path / f"{preset}.json"
        cfg_path.write_text(json.dumps(data))
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / preset / run
            run_experiment(load_config(cfg_path), out_dir=out)
            blobs.append((out / "report.json").read_bytes())
        if blobs[0] != blobs[1]:
            failures.append(preset)
    ok = report("determinism", not failures,
                "byte-identical reports, 5 presets, repeated seeded runs")
    assert ok, f"nondeterministic presets: {failures}"
