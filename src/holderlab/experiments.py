"""Experiment presets, configuration, and report emission.

Five presets tie the modules together end to end:

  kernel-audit        quadrature of the three kernel conditions over dyadic
                      lags and exponent fits.
  fractional-sweep    the audit across a grid of (alpha, epsilon) pairs
                      against the predicted exponent (alpha - 2 eps)/alpha.
  brownian-regularity simulate the Brownian-driven convolution, estimate
                      p-moment increments at dyadic parabolic lags, fit the
                      field scaling exponent (Monte Carlo and exact-oracle
                      routes), and compare with min(gamma1, gamma2, beta).
  poisson-regularity  the same for the compensated-Poisson drive.
  embedding-check     Campanato scaling of a deterministic cusp field and
                      the Holder-exponent round trip.

Reports are deterministic given (config, seed): wall-clock goes to a
separate timing file so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import resource
import shutil
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .campanato import Box, campanato_seminorm, embedding_exponent
from .conditions import MESH_GRADING, ConditionProbe, audit_conditions, fit_exponent
from .convolution import PAIR_CHUNK, Lattice, TestFunctionSpec, convolve_brownian, convolve_poisson
from .errors import ConfigError, PairOffGrid, ThetaOutOfEmbeddingRange
from .kernels import ALIAS_LOG, KernelSpec, SpectralGrid, physical_memory
from .moments import estimate_pair_moments, lag_offsets, sample_pairs_dyadic
from .noise import PATH_ARRAYS, JumpSpec, MarkLaw, NoiseSpec, event_block

@dataclass
class KernelConfig:
    alpha: float = 2.0
    epsilon: float = 0.0
    dim: int = 1


@dataclass
class ConditionsConfig:
    betas: tuple[float, ...] = (0.0,)
    power: float = 2.0
    s_base: float = 0.5
    lag_k_min: int = 3
    lag_k_max: int = 10
    mesh_points: int = 256


@dataclass
class SweepConfig:
    # (alpha, epsilon) pairs for fractional-sweep
    cases: tuple[tuple[float, float], ...] = ((1.0, 0.0), (1.0, 0.25), (1.5, 0.0), (1.5, 0.3),
                                              (2.0, 0.5))


@dataclass
class SimulationConfig:
    horizon: float = 1.0
    steps: int = 1024
    grid_points: int = 1024
    grid_length: float = 4.0
    ensemble: int = 2000


@dataclass
class NoiseConfig:
    intensity: float = 10.0
    mark_family: str = "two-sided-exponential"
    mark_parameter: float = 1.0


@dataclass
class MomentsConfig:
    p: float = 2.0
    beta: float = 0.5
    amplitude: float = 1.0
    lag_k_min: int = 1
    lag_k_max: int = 5
    pairs_per_lag: int = 512


@dataclass
class CampanatoConfig:
    p: float = 2.0
    gamma: float = 0.5
    theta: float | None = None  # default 1 + gamma p/(d+2)
    budget: int = 192
    n_centers: int = 24
    n_scales: int = 5
    top_scale: float = 0.2


@dataclass
class Tolerances:
    exponent: float = 0.15
    oracle_exponent: float = 0.05
    sweep_exponent: float = 0.2
    bound_margin: float = 2.0


@dataclass
class ExperimentConfig:
    experiment: str = "kernel-audit"
    seed: int = 0
    kernel: KernelConfig = field(default_factory=KernelConfig)
    conditions: ConditionsConfig = field(default_factory=ConditionsConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    moments: MomentsConfig = field(default_factory=MomentsConfig)
    campanato: CampanatoConfig = field(default_factory=CampanatoConfig)
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.experiment not in PRESETS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose one of {', '.join(PRESETS)}")


# The fields each preset reads, section by section, besides experiment and seed (which
# report.json's rng block records); load_config refuses, and config_to_dict leaves out, the rest.
_CONDITIONS = ("power", "s_base", "lag_k_min", "lag_k_max", "mesh_points")
_SIMULATED = {  # what build_regularity reads: all that `holderlab simulate` runs
    "kernel": ("alpha", "epsilon", "dim"),
    "simulation": ("horizon", "steps", "grid_points", "grid_length", "ensemble"),
    "moments": ("p", "beta", "amplitude", "lag_k_min", "lag_k_max")}
_REGULARITY = {
    **_SIMULATED, "conditions": _CONDITIONS,
    "moments": (*_SIMULATED["moments"], "pairs_per_lag"),
    "tolerances": ("exponent", "oracle_exponent", "bound_margin")}
_NOISE = {"noise": ("intensity", "mark_family", "mark_parameter")}
PRESET_FIELDS = {
    "kernel-audit": {"kernel": _REGULARITY["kernel"], "conditions": ("betas", *_CONDITIONS),
                     "tolerances": ("exponent",)},
    "fractional-sweep": {"kernel": ("dim",), "conditions": ("betas", *_CONDITIONS),
                         "sweep": ("cases",), "tolerances": ("sweep_exponent",)},
    "brownian-regularity": _REGULARITY,
    "poisson-regularity": {**_REGULARITY, **_NOISE},
    "embedding-check": {"kernel": ("dim",), "campanato": ("p", "gamma", "theta", "budget",
                        "n_centers", "n_scales", "top_scale"), "tolerances": ("exponent",)}}
SIMULATE_FIELDS = {"brownian-regularity": _SIMULATED,
                   "poisson-regularity": {**_SIMULATED, **_NOISE}}


_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _checked(hint, value, path):
    """A JSON value as the field type takes it: float also takes ints, X | None takes null,
    tuple[X, ...] and tuple[X, Y] take lists; anything else, bools and non-finite numbers
    among it, raises ConfigError naming path."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _checked(args[0], value, path)
    if typing.get_origin(hint) is tuple:
        items = args[:1] * len(value) if args[-1] is Ellipsis and isinstance(value, list) else args
        if not isinstance(value, list) or len(value) != len(items):
            raise ConfigError(f"{path}: expected {hint}, got {value!r}")
        return tuple(_checked(h, v, f"{path}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
    if (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[hint])
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    return value


def _build_dataclass(cls, data, path="config"):
    """Strict dict -> dataclass: unknown keys and mistyped or non-finite
    values are errors, not warnings."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        hint, where = hints[key], f"{path}.{key}"
        kwargs[key] = (_build_dataclass(hint, value, where) if dataclasses.is_dataclass(hint)
                       else _checked(hint, value, where))
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path, simulate: bool = False) -> ExperimentConfig:
    """The config a JSON file sets; a field its preset does not read (PRESET_FIELDS) is a
    ConfigError naming the field and the preset.  With simulate, a regularity config may set
    only what `holderlab simulate` reads (SIMULATE_FIELDS)."""
    with open(path) as fh:
        data = json.load(fh)
    config = _build_dataclass(ExperimentConfig, data)
    reads, reader = PRESET_FIELDS[config.experiment], f"the {config.experiment} preset"
    if simulate and config.experiment in SIMULATE_FIELDS:
        reads, reader = SIMULATE_FIELDS[config.experiment], "holderlab simulate"
    accepted = {"experiment", "seed", *reads, *(f"{s}.{n}" for s in reads for n in reads[s])}
    for key, value in data.items():
        for name in [f"{key}.{n}" for n in value] if isinstance(value, dict) and value else [key]:
            if name not in accepted:
                raise ConfigError(f"config.{name}: {reader} does not read it")
    return config


def config_to_dict(config) -> dict:
    """experiment, seed and the fields config's preset reads, section by section."""
    data = {"experiment": config.experiment, "seed": config.seed}
    for section, names in PRESET_FIELDS[config.experiment].items():
        values = dataclasses.asdict(getattr(config, section))
        data[section] = {name: values[name] for name in names}
    return data


def default_config(preset: str, seed: int = 0) -> ExperimentConfig:
    """Documented defaults per preset: the dataclasses' defaults with these overrides."""
    cfg = ExperimentConfig(experiment=preset, seed=seed)
    if preset == "kernel-audit":
        cfg.conditions.betas = (0.0, 0.3, 0.5)
    elif preset in ("brownian-regularity", "poisson-regularity"):
        cfg.moments.lag_k_max = 4
        cfg.conditions.lag_k_max, cfg.conditions.mesh_points = 9, 128
    if preset == "poisson-regularity":
        cfg.kernel.alpha = 1.5
        cfg.simulation.grid_points, cfg.simulation.grid_length = 2048, 2.0
    return cfg


@dataclass
class Verdict:
    claim: str
    predicted: float | None
    fitted: float | None
    tolerance: float | None
    passed: bool
    detail: str = ""

    @classmethod
    def within(cls, claim, predicted, fitted, tolerance, detail="") -> "Verdict":
        """Passes when fitted lies within tolerance of predicted; no fit fails."""
        passed = fitted is not None and bool(abs(fitted - predicted) <= tolerance)
        return cls(claim, predicted, fitted, tolerance, passed, detail)


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    verdicts: list
    modules: dict
    seed: int

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "config": self.config,
            "verdicts": [dataclasses.asdict(v) for v in self.verdicts],
            "modules": self.modules,
            "rng": {"seed": self.seed, "generator": "philox"},
            "version": __version__,
            "passed": self.passed,
        }


def write_json(path, obj) -> None:
    """obj as indented JSON with sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(path, header, rows) -> None:
    """CSV with a header row; string cells are written as given, numbers as repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


def dyadic(field: str, k_min: int, k_max: int, top: float = 1.0) -> list:
    """top * 2^-k for k = k_min, ..., k_max; ConfigError naming field, the config fields or
    CLI flags that set the range, when it is empty or an end overflows or underflows to 0."""
    if k_min > k_max:
        raise ConfigError(f"{field}: k from {k_min} to {k_max} leaves no scales")
    for k in (k_min, k_max):
        try:
            scale = top * 2.0**-k
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            value = f"2^{-k}" if top == 1.0 else f"{top:g} * 2^{-k}"
            raise ConfigError(f"{field}: at k = {k}, {value} "
                              f"{'overflows' if scale else 'underflows to 0'}")
    return [top * 2.0**-k for k in range(k_min, k_max + 1)]


def _fit_lags(section: str, cfg) -> list:
    """config.<section>'s dyadic lags; fewer than the four an exponent fit needs: ConfigError."""
    lags = dyadic(f"config.{section}.lag_k_min / lag_k_max", cfg.lag_k_min, cfg.lag_k_max)
    if len(lags) < 4:
        raise ConfigError(f"config.{section}: lag_k_min {cfg.lag_k_min} .. lag_k_max "
                          f"{cfg.lag_k_max} gives {len(lags)} lags; the exponent fit needs 4")
    return lags


# --- preset pipelines -----------------------------------------------------

def _audit_one(kernel: KernelSpec, beta: float, cond: ConditionsConfig, tol: float, claims):
    """The condition audit of kernel at beta, and its verdicts, named by the two claims,
    that gamma1 and gamma2 lie within tol of (alpha - 2 eps)/alpha."""
    lags = _fit_lags("conditions", cond)
    probe = _spec("config: condition probe", ConditionProbe, kernel=kernel, beta=beta,
                  power=cond.power, time_pairs=[(cond.s_base, cond.s_base + lag) for lag in lags],
                  mesh_points=cond.mesh_points)
    # the graded meshes reach kernel times down to this; its aliasing cutoff must be finite
    finest = min(cond.s_base, lags[-1]) * (0.5 / cond.mesh_points) ** MESH_GRADING
    with np.errstate(divide="ignore", over="ignore"):
        cutoff = (ALIAS_LOG / np.float64(finest)) ** (1.0 / kernel.alpha)
    if not np.isfinite(cutoff):
        raise ConfigError(f"config.conditions.s_base: {cond.s_base!r} takes the audit to kernel "
                          f"time {finest!r}, where alpha={kernel.alpha:g} needs frequencies "
                          "past the float range")
    rep = audit_conditions(probe)
    predicted = (kernel.alpha - 2.0 * kernel.epsilon) / kernel.alpha
    return rep, [Verdict.within(claim, predicted, fitted, tol)
                 for claim, fitted in zip(claims, (rep.gamma1, rep.gamma2))]


def _run_kernel_audit(config: ExperimentConfig, progress: Stages):
    kc = config.kernel
    kernel = _spec("config.kernel", KernelSpec, alpha=kc.alpha, epsilon=kc.epsilon, dim=kc.dim)
    if not config.conditions.betas:
        raise ConfigError("config.conditions.betas: the audit needs a Holder order, got none")
    verdicts, modules = [], {}
    for beta in config.conditions.betas:
        rep, checks = _audit_one(kernel, beta, config.conditions, config.tolerances.exponent,
                                 (f"increment exponent gamma1 (beta={beta:g})",
                                  f"tail exponent gamma2 (beta={beta:g})"))
        modules[f"conditions_beta_{beta:g}"] = rep.to_dict()
        verdicts += checks
    return verdicts, modules


def _run_fractional_sweep(config: ExperimentConfig, progress: Stages):
    if not config.sweep.cases:
        raise ConfigError("config.sweep.cases: the sweep needs an (alpha, epsilon) pair, got none")
    if len(config.conditions.betas) != 1:
        raise ConfigError(f"config.conditions.betas: the sweep audits one Holder order, got "
                          f"{list(config.conditions.betas)}")
    beta = config.conditions.betas[0]
    verdicts, modules = [], {}
    for i, (alpha, eps) in enumerate(config.sweep.cases):
        kernel = _spec(f"config.sweep.cases[{i}] / config.kernel.dim", KernelSpec, alpha=alpha,
                       epsilon=eps, dim=config.kernel.dim)
        rep, checks = _audit_one(kernel, beta, config.conditions,
                                 config.tolerances.sweep_exponent,
                                 (f"increment exponent (alpha={alpha:g}, eps={eps:g})",
                                  f"tail exponent (alpha={alpha:g}, eps={eps:g})"))
        modules[f"conditions_a{alpha:g}_e{eps:g}"] = rep.to_dict()
        verdicts += checks
    return verdicts, modules


# Base times of the regularity presets' saved-time set.
SAVED_BASES = 8


def _regularity_saved_indices(steps: int, lag_steps):
    """Economical saved-time set: SAVED_BASES base times spread over the interior
    [T/4, 3T/4] plus each base's lag partners, SAVED_BASES * (len(lag_steps) + 1)
    times at most; the presets' pairs and `holderlab simulate`'s samplers lie on
    them."""
    lo, hi = steps // 4, 3 * steps // 4
    max_step = max(lag_steps)
    span = max(hi - lo - max_step, 1)
    bases = sorted({lo + round(j * span / (SAVED_BASES - 1)) for j in range(SAVED_BASES)})
    saved = set(bases)
    for b in bases:
        for s in lag_steps:
            saved.add(b + s)
    return sorted(saved)


class RegularityPieces(typing.NamedTuple):
    """Pipeline pieces of a regularity preset, as build_regularity makes them."""

    kernel: KernelSpec
    grid: SpectralGrid
    noise: NoiseSpec
    g: TestFunctionSpec
    lags: list    # dyadic parabolic lags 2^-k, largest first
    saved: list   # saved lattice time indices; the pairs lie on them

    @property
    def lattice(self) -> Lattice:
        return Lattice(self.noise.dt, self.grid, np.array(self.saved))

    def require_memory(self, M: int, n_pairs: int | None = None) -> float:
        """Bytes the simulation, and for pairs their moment estimates, hold at most, counted
        without allocating; ConfigError past physical memory.  Always, for the last saved
        index k: the (M, k) slab weights, the largest Poisson path and the real (k + 1, F) lag
        symbols that any reader of the weights builds.  Pairs: the profiles at the members'
        positions, at most min(n, 2 n_pairs) of them over k + 1 lags; the temporaries of one
        chunk of lags or of rows of D; and, for one lag's share of the pairs (the presets draw
        as many at each lag), its rows of D and the estimator's one float64 product, reduced in
        place."""
        n, k = self.grid.points, self.saved[-1]  # 1-D: 2F = n + 2
        need = 8 * M * k + 4 * (k + 1) * (n + 2)
        if n_pairs is not None:
            lag_pairs = -(-n_pairs // len(self.lags))
            need += (8 * (k + 1) * min(n, 2 * n_pairs) + 32 * max(PAIR_CHUNK, 3 * n, 3 * k)
                     + 8 * lag_pairs * (M + k))
        fields, what = "config.simulation.ensemble / config.simulation.grid_points", ""
        if self.noise.kind == "poisson":
            events = event_block(self.noise)
            need += PATH_ARRAYS * 8 * events
            fields, what = fields + " / config.noise.intensity", f" and {events:.3g} events"
        memory = physical_memory()
        if need > memory:
            raise ConfigError(f"{fields}: {M} realizations on {n} points{what} need "
                              f"{need / 2**30:.1f} GiB, more than the {memory / 2**30:.1f} GiB "
                              "of physical memory")
        return need

    def simulate(self, M: int, sink=None):
        """After require_memory, the FieldEnsemble of M realizations; with sink, a path prefix,
        its slab weights written to {sink}.bin and {sink}.json (FieldEnsemble.save), after a
        ConfigError if the .bin would not fit the free space of sink's directory."""
        self.require_memory(M)
        if sink is not None:
            size = 8 * M * self.saved[-1]
            free = shutil.disk_usage(Path(sink).parent).free
            if size > free:
                raise ConfigError(f"config.simulation.ensemble / config.simulation.steps: "
                                  f"the ensemble of {M} realizations needs {size / 2**30:.1f} "
                                  f"GiB, more than the {free / 2**30:.1f} GiB free under "
                                  f"{Path(sink).parent}")
        convolve = convolve_brownian if self.noise.kind == "brownian" else convolve_poisson
        ens = convolve(self.kernel, self.grid, self.g, self.noise, M=M, save_times=self.saved)
        if sink is not None:
            ens.save(sink)
        return ens


def _spec(path: str, cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError, ConfigError) as exc:  # a SpectralGrid past memory
        raise ConfigError(f"{path}: {exc}") from exc


def build_regularity(config: ExperimentConfig) -> RegularityPieces:
    """Turn a regularity config into pipeline pieces, for the presets and
    the CLI alike, without running quadrature or allocating arrays.  What
    the pipeline cannot honour (kernel.dim != 1, no realizations, a moment order below 1,
    no lags, lags finer than the lattice or too wide for it, a value a spec rejects) raises
    ConfigError naming the field."""
    kc, sim, mom, nc = config.kernel, config.simulation, config.moments, config.noise
    if kc.dim != 1:
        raise ConfigError(f"config.kernel.dim: the regularity presets are 1-D, got {kc.dim}")
    if sim.ensemble < 1:
        raise ConfigError(f"config.simulation.ensemble: need a realization, got {sim.ensemble}")
    if not mom.p >= 1.0:
        raise ConfigError(f"config.moments.p: the moment order must be >= 1, got {mom.p}")
    kernel = _spec("config.kernel", KernelSpec, alpha=kc.alpha, epsilon=kc.epsilon, dim=1)
    grid = _spec("config.simulation", SpectralGrid, length=sim.grid_length,
                 points=sim.grid_points, dim=1)
    kind = "brownian" if config.experiment == "brownian-regularity" else "poisson"
    jump = None
    if kind == "poisson":
        jump = _spec("config.noise", JumpSpec, intensity=nc.intensity,
                     mark=_spec("config.noise", MarkLaw, nc.mark_family, nc.mark_parameter))
    noise = _spec("config.simulation", NoiseSpec, kind=kind, horizon=sim.horizon,
                  steps=sim.steps, seed=config.seed, jump=jump)
    g = _spec("config.moments", TestFunctionSpec, family="parabolic-power", beta=mom.beta,
              amplitude=mom.amplitude)
    lags = dyadic("config.moments.lag_k_min / lag_k_max", mom.lag_k_min, mom.lag_k_max)
    if lags[0] * lags[0] > sim.horizon:  # a parabolic lag delta spans the time delta^2
        raise ConfigError(f"config.moments.lag_k_min: lag {lags[0]:g} spans the time "
                          f"{lags[0] * lags[0]:g}, more than the horizon {sim.horizon:g}")
    try:
        lag_steps = [lag_offsets(lag, noise.dt, grid.spacing)[0] for lag in lags]
    except PairOffGrid as exc:
        raise ConfigError(f"config.moments.lag_k_max: {exc}") from exc
    saved = _regularity_saved_indices(sim.steps, lag_steps)
    if saved[-1] > sim.steps:
        raise ConfigError(f"config.moments.lag_k_min: lag {lags[0]:g} spans {lag_steps[0]} "
                          f"time steps, too many for the {sim.steps}-step lattice")
    return RegularityPieces(kernel, grid, noise, g, lags, saved)


def _run_regularity(config: ExperimentConfig, progress: Stages):
    progress.enter("setup")
    pieces = build_regularity(config)
    kernel, mom = pieces.kernel, config.moments
    if mom.pairs_per_lag < 2:  # each lag's stderr is a std with ddof=1
        raise ConfigError(f"config.moments.pairs_per_lag: the per-lag standard errors need 2 "
                          f"pairs per lag, got {mom.pairs_per_lag}")
    lags = _fit_lags("moments", mom)
    pieces.require_memory(config.simulation.ensemble, mom.pairs_per_lag * len(lags))
    tolerances = config.tolerances
    beta = mom.beta

    progress.enter("audit")  # the field prediction uses its fitted slopes
    audit, verdicts = _audit_one(kernel, beta, config.conditions, tolerances.exponent,
                                 ("kernel increment exponent gamma1",
                                  "kernel tail exponent gamma2"))
    gamma_pred = min(audit.gamma1, audit.gamma2, beta)
    modules = {"conditions": audit.to_dict()}

    progress.enter("pairs")  # pairs depend only on the lattice: draw them first
    pairs = sample_pairs_dyadic(pieces.lattice, lags, mom.pairs_per_lag, seed=config.seed)
    progress.enter("simulate")
    values = pieces.simulate(config.simulation.ensemble).differences(pairs.indices)
    progress.enter("moments")
    mfield = estimate_pair_moments(values, pairs, mom.p)
    per_lag = []
    for lag in lags:
        sel = pairs.requested_delta == lag
        per_lag.append({
            "lag": lag,
            "mean": float(mfield.estimates[sel].mean()),
            "stderr": float(mfield.estimates[sel].std(ddof=1) / np.sqrt(sel.sum())),
            "stderr_realizations": mfield.realization_stderr[lag],
            "max": float(mfield.estimates[sel].max()),
            "n_pairs": int(sel.sum()),
        })
    progress.enter("fit")
    fit_mc = fit_exponent([(row["lag"], row["mean"]) for row in per_lag])
    gamma_mc = fit_mc.slope / mom.p

    gamma_oracle = None
    oracle_rows = None
    if mom.p == 2.0:
        oracle = values.second_moments  # exact, from the simulation's slab differences
        oracle_rows = [{"lag": lag, "mean": float(oracle[pairs.requested_delta == lag].mean())}
                       for lag in lags]
        fit_oracle = fit_exponent([(r["lag"], r["mean"]) for r in oracle_rows])
        gamma_oracle = fit_oracle.slope / 2.0

    # boundedness of the normalized moments (the upper-bound claim);
    # lags[0] is the largest lag, so ratios must not grow past its value
    ratios = [row["mean"] / row["lag"] ** (mom.p * gamma_pred) for row in per_lag]
    ref = ratios[0]
    bound_ok = all(r <= tolerances.bound_margin * ref for r in ratios)

    modules["moments"] = {
        "p": mom.p, "beta": beta, "per_lag": per_lag,
        "fit": dataclasses.asdict(fit_mc), "fitted_gamma": gamma_mc,
        "oracle_per_lag": oracle_rows,
        "fitted_gamma_oracle": gamma_oracle,
        "gamma_predicted": gamma_pred,
        "normalized_ratios": ratios,
    }

    verdicts.append(Verdict.within(
        "field exponent (Monte Carlo) equals min(gamma1, gamma2, beta)", gamma_pred, gamma_mc,
        tolerances.exponent, "sharpness of the moment bound at the predicted exponent"))
    if gamma_oracle is not None:
        verdicts.append(Verdict.within(
            "field exponent (exact quadrature) equals min(gamma1, gamma2, beta)", gamma_pred,
            gamma_oracle, tolerances.oracle_exponent,
            "no-Monte-Carlo route via the discrete isometry"))
    verdicts.append(Verdict(
        claim="moment bound E|du|^p <= N delta^(p gamma) holds across lags",
        predicted=gamma_pred, fitted=max(ratios) / ref, tolerance=tolerances.bound_margin,
        passed=bool(bound_ok),
        detail="normalized ratios do not grow as the lag shrinks"))
    return verdicts, modules


def _run_embedding_check(config: ExperimentConfig, progress: Stages):
    cam = config.campanato
    gamma = cam.gamma
    dim = config.kernel.dim
    p = cam.p
    if dim not in (1, 2):
        raise ConfigError(f"config.kernel.dim: embedding-check runs on the unit interval or "
                          f"square, d = 1 or 2, got {dim}")
    if not p >= 1.0:
        raise ConfigError(f"config.campanato.p: the moment order must be >= 1, got {p}")
    if cam.n_centers < 1 or not cam.top_scale > 0.0:
        raise ConfigError(f"config.campanato: need n_centers >= 1 and top_scale > 0, got "
                          f"{cam.n_centers} and {cam.top_scale}")
    if 16 * cam.budget**2 > physical_memory():  # the pairwise differences and their powers
        raise ConfigError(f"config.campanato.budget: {cam.budget} points per cylinder hold "
                          f"{16 * cam.budget**2 / 2**30:.1f} GiB of pairwise differences, more "
                          "than physical memory")
    theta = cam.theta if cam.theta is not None else 1.0 + gamma * p / (dim + 2.0)
    # validates the embedding range; theta <= 1 marks the config invalid
    try:
        alpha_embed = embedding_exponent(p, theta, dim)
    except ThetaOutOfEmbeddingRange as exc:
        raise ConfigError(f"invalid-config: {exc}") from exc

    domain = Box(0.0, 1.0, [0.0] * dim, [1.0] * dim)

    def u(ts, xs):
        return np.linalg.norm(xs, axis=1) ** gamma + ts ** (gamma / 2.0)

    scales = dyadic("config.campanato.n_scales", 0, cam.n_scales - 1, cam.top_scale)
    rep = campanato_seminorm(u, domain, p, theta, scales=scales,
                             budget=cam.budget, n_centers=cam.n_centers,
                             seed=config.seed)
    modules = {"campanato": rep.to_dict()}
    tol = config.tolerances.exponent
    verdicts = [
        Verdict.within("campanato scaling recovers the cusp Holder exponent", gamma,
                       rep.fitted_gamma, tol),
        Verdict.within("embedding exponent round trip theta -> alpha", gamma, alpha_embed,
                       1e-12),
        Verdict(claim="theta = 1 rejected by the embedding range check",
                predicted=None, fitted=None, tolerance=None,
                passed=_theta_one_rejected(p, dim)),
    ]
    return verdicts, modules


def _theta_one_rejected(p: float, dim: int) -> bool:
    try:
        embedding_exponent(p, 1.0, dim)
    except ThetaOutOfEmbeddingRange:
        return True
    return False


class Stages:
    """The stage a run is in, which FAILED.json names, and timing.json's span of each stage:
    its wall seconds and the process's peak RSS in MiB when it ended.  Until a runner enters
    its first stage, which starts with the run, the stage is the preset's name."""

    def __init__(self, run: str):
        self.stage, self.spans, self._start, self._first = run, [], time.time(), True

    def enter(self, stage: str) -> None:
        if not self._first:
            self.end()
        self.stage, self._first = stage, False

    def end(self) -> None:
        now, rss = time.time(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
        self.spans.append({"stage": self.stage, "wall_seconds": now - self._start,
                           "peak_rss_mib": rss / 1024})
        self._start = now


_RUNNERS = {
    "kernel-audit": _run_kernel_audit,
    "fractional-sweep": _run_fractional_sweep,
    "brownian-regularity": _run_regularity,
    "poisson-regularity": _run_regularity,
    "embedding-check": _run_embedding_check,
}
PRESETS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run a preset pipeline; deterministic given (config, seed).

    When out_dir is set, writes report.json, timing.json, and the plot-data
    CSV bundle there; on any exception flushes a FAILED.json marker naming the
    stage that failed and the exception's class, then re-raises.
    """
    out = Path(out_dir) if out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    t_start = time.time()
    progress = Stages(config.experiment)  # runners enter their sub-stages
    try:
        verdicts, modules = _RUNNERS[config.experiment](config, progress)
    except Exception as exc:
        if out is not None:
            write_json(out / "FAILED.json",
                       {"stage": progress.stage, "error": type(exc).__name__,
                        "message": str(exc), "invalid_config": isinstance(exc, ConfigError)})
        raise
    progress.end()
    report = ExperimentReport(
        experiment=config.experiment,
        config=config_to_dict(config),
        verdicts=verdicts,
        modules=modules,
        seed=config.seed,
    )
    if out is not None:
        write_json(out / "report.json", report.to_dict())
        write_json(out / "timing.json", {"wall_clock_seconds": time.time() - t_start,
                                         "stages": progress.spans})
        emit_plot_data(report.modules, out / "plots")
    return report


def emit_plot_data(modules: dict, out_dir) -> list:
    """One CSV per fitted relationship (log-log columns plus the fit line)
    in a report's ``modules``.

    Returns the list of written paths; reports with no fitted relationships
    produce an empty bundle (manifest only).
    """
    tables = {}  # file stem -> (header, rows)
    for key, mod in sorted(modules.items()):
        if key.startswith("conditions"):
            for cond in ("increment", "tail", "mass"):
                table = mod[cond]
                scales = table.get("pairs", table.get("times", []))
                values = table["lhs"]
                fit = table.get("fit")
                rows = []
                for s, v in zip(scales, values):
                    pred = (np.exp(fit["intercept"]) * s ** fit["slope"]
                            if fit else float("nan"))
                    rows.append((s, v, pred))
                tables[f"{key}_{cond}"] = (["scale", "lhs", "fit"], rows)
        elif key == "moments":
            fit = mod["fit"]
            oracle = {row["lag"]: row["mean"] for row in mod.get("oracle_per_lag") or ()}
            rows = [(row["lag"], row["mean"], row["stderr"],
                     np.exp(fit["intercept"]) * row["lag"] ** fit["slope"],
                     oracle.get(row["lag"], float("nan"))) for row in mod["per_lag"]]
            tables["moments_lag"] = (["lag", "moment", "stderr", "fit", "oracle"], rows)
        elif key == "campanato":
            rows = list(zip(mod["scales"], mod["per_scale"],
                            mod["raw_per_scale"] or [float("nan")] * len(mod["scales"])))
            tables["campanato_scales"] = (["scale", "normalized_sup", "raw_sup"], rows)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (header, rows) in tables.items():
        path = out / f"{name}.csv"
        write_table(path, header, rows)
        written.append(str(path))
    write_json(out / "manifest.json", {"files": sorted(written)})
    return written
