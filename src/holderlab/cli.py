"""Command-line entry point.

Subcommands: audit-kernel, simulate, moments, seminorm, run, emit-plots.
Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 configuration
error, 3 numerical failure or any untyped exception (a defect, reported with
its traceback).  The default seed comes from HOLDERLAB_SEED when --seed is
absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .campanato import campanato_from_pair_moments, ParabolicCylinder, SpaceTimePoint
from .convolution import FieldEnsemble
from .errors import ConfigError, EmptyCylinder, HolderLabError, PairOffGrid
from .experiments import (
    SIMULATE_FIELDS,
    ExperimentConfig,
    build_regularity,
    check_memory,
    default_config,
    dyadic,
    emit_plot_data,
    load_config,
    run_experiment,
    write_json,
    write_table,
)
from .moments import (PairSet, cylinder_lattice, estimate_pair_moments, sample_pairs_dyadic,
                      sample_pairs_within_cylinder)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SEED_ENV = "HOLDERLAB_SEED"


def _resolve_seed(args) -> int | None:
    """--seed, else HOLDERLAB_SEED if set and not empty: a ConfigError unless an integer."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    try:
        return int(env) if env else None
    except ValueError:
        raise ConfigError(f"{SEED_ENV}={env!r}: the seed must be an integer") from None


def _read(flag: str, path, load):
    """load(path); a file that cannot be opened, or whose JSON cannot be parsed, is a
    ConfigError naming the flag and path."""
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{flag} {path}: not JSON ({exc})") from exc


def _read_ensemble(args, n_pairs: int) -> FieldEnsemble:
    """FieldEnsemble.load(--ensemble); files it cannot make an ensemble of (a sidecar without a
    key, a stored field among them, or a .bin of another size) are a ConfigError naming
    --ensemble and the path; n_pairs pairs past check_memory, before the .bin is read, --pairs."""
    def budget(M, k, n):
        check_memory(f"--pairs {args.pairs}", M, k, n, n_pairs, what=f" and {n_pairs} pairs")
    try:
        return _read("--ensemble", args.ensemble, lambda path: FieldEnsemble.load(path, budget))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"--ensemble {args.ensemble}: not a holderlab ensemble "
                          f"({type(exc).__name__}: {exc})") from exc


def _config_from_args(args, preset=None, default="kernel-audit") -> ExperimentConfig:
    """The --config file's config, or without one preset's defaults (default's when preset
    is None); a config for another preset than a given one is a ConfigError."""
    if args.config:
        cfg = _read("--config", args.config,
                    lambda path: load_config(path, simulate=args.command == "simulate"))
        if preset is not None and cfg.experiment != preset:
            raise ConfigError(
                f"config requests {cfg.experiment!r} but the subcommand "
                f"runs {preset!r}")
    else:
        cfg = default_config(preset or default)
    seed = _resolve_seed(args)
    if seed is not None:
        cfg.seed = seed
    return cfg


def _print_verdicts(report):
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        pieces = [f"[{status}] {v.claim}"]
        if v.predicted is not None:
            pieces.append(f"predicted={v.predicted:.4g}")
        if v.fitted is not None:
            pieces.append(f"fitted={v.fitted:.4g}")
        if v.tolerance is not None:
            pieces.append(f"tol={v.tolerance:g}")
        print("  ".join(pieces))
    print(f"experiment {report.experiment}: "
          f"{'PASS' if report.passed else 'FAIL'}")


def _cmd_run(args) -> int:
    report = run_experiment(_config_from_args(args, args.preset), out_dir=args.out)
    _print_verdicts(report)
    if args.out:
        print(f"report written to {args.out}")
    return EXIT_PASS if report.passed else EXIT_VERDICT_FAIL


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args, args.kind_preset, default="brownian-regularity")
    if cfg.experiment not in SIMULATE_FIELDS:
        raise ConfigError(f"config requests {cfg.experiment!r} but the subcommand runs "
                          "'brownian-regularity' or 'poisson-regularity'")
    pieces = build_regularity(cfg)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    prefix = str(out / "ensemble")
    pieces.simulate(cfg.simulation.ensemble, sink=prefix)
    print(f"ensemble written to {prefix}.bin / {prefix}.json")
    return EXIT_PASS


def _check_flags(args) -> None:
    """--pairs, --p and (seminorm) --theta, before the ensemble is read."""
    if args.pairs < 1:
        raise ConfigError(f"--pairs {args.pairs}: need at least one pair")
    if not 1.0 <= args.p < math.inf:
        raise ConfigError(f"--p {args.p}: the moment order must be finite and >= 1")
    if not 0.0 <= getattr(args, "theta", 0.0) < math.inf:
        raise ConfigError(f"--theta {args.theta}: the exponent must be finite and >= 0")


def _cmd_moments(args) -> int:
    _check_flags(args)
    lags = dyadic("--lag-k-min / --lag-k-max", args.lag_k_min, args.lag_k_max)
    seed = _resolve_seed(args) or 0
    ens = _read_ensemble(args, args.pairs * len(lags))
    try:
        pairs = sample_pairs_dyadic(ens, lags, args.pairs, seed=seed)
    except PairOffGrid as exc:
        raise ConfigError(f"--lag-k-min / --lag-k-max: {exc}") from exc
    field = estimate_pair_moments(ens.differences(pairs), args.p)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    ps, coords = field.pairs, ens.grid.axis()
    write_table(out / "moments.csv", ["t", "x", "s", "y", "delta", "estimate", "stderr"],
                zip(ps.t_idx1 * ens.dt, coords[ps.s_idx1], ps.t_idx2 * ens.dt, coords[ps.s_idx2],
                    ps.delta, field.estimates, field.stderr))
    write_json(out / "moments.json", field.to_dict())
    print(f"moment field written to {out / 'moments.csv'}")
    return EXIT_PASS


def _cmd_seminorm(args) -> int:
    _check_flags(args)
    scales = dyadic("--scale-k-min / --scale-k-max", args.scale_k_min, args.scale_k_max)
    seed = _resolve_seed(args) or 0
    ens = _read_ensemble(args, args.pairs * len(scales))
    cylinders = []  # (scale, cylinder, pairs) of each cylinder holding two saved points
    times = ens.times
    t_mid = float(times[len(times) // 2])
    for k, c in enumerate(scales, start=args.scale_k_min):
        cyl = ParabolicCylinder(SpaceTimePoint(t_mid, [0.0]), c)
        try:
            cylinders.append((c, cyl, sample_pairs_within_cylinder(ens, cyl, args.pairs,
                                                                   seed=seed + k)))
        except EmptyCylinder:
            continue
    if not cylinders:
        raise ConfigError(f"--scale-k-min {args.scale_k_min} .. --scale-k-max "
                          f"{args.scale_k_max} leaves no cylinder holding two saved lattice "
                          f"points (lattice spacing {ens.grid.spacing:g})")
    # every cylinder's pairs at once: one table of slab differences
    pairs = PairSet.concatenate([p for _, _, p in cylinders])
    field = estimate_pair_moments(ens.differences(pairs), args.p)
    groups = [(c, cyl.measure, float(est.mean())) for (c, cyl, _), est
              in zip(cylinders, np.split(field.estimates, len(cylinders)))]
    report = campanato_from_pair_moments(groups, args.p, args.theta)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    # per scale, the saved times its cylinder holds: with one, every pair is pure-space
    write_json(out / "seminorm.json", {**report.to_dict(), "saved_times": [
        int(cylinder_lattice(ens, cyl)[0].size) for _, cyl, _ in cylinders]})
    write_table(out / "seminorm.csv", ["scale", "value", "raw_value"],
                zip(report.scales, report.per_scale, report.raw_per_scale))
    print(f"seminorm report written to {out / 'seminorm.json'}")
    return EXIT_PASS


def _cmd_emit_plots(args) -> int:
    report = _read("--report", args.report, lambda path: Path(path).read_text())
    try:
        written = emit_plot_data(json.loads(report)["modules"], args.out or "plots")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:  # not a holderlab report
        raise ConfigError(f"--report {args.report}: not a holderlab report "
                          f"({type(exc).__name__}: {exc})") from exc
    print(f"{len(written)} plot files written")
    return EXIT_PASS


def _add_common(sub, with_config=True):
    if with_config:
        sub.add_argument("--config", help="JSON experiment configuration")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default: ${SEED_ENV} or config)")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holderlab",
        description="Moment-regularity laboratory for stochastic heat-type "
                    "convolutions")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a full experiment preset")
    run.add_argument("--preset", help="preset to run (default: the --config file's, "
                                      "else kernel-audit)")
    _add_common(run)
    run.set_defaults(func=_cmd_run)

    audit = subs.add_parser("audit-kernel", help="kernel condition audit")
    _add_common(audit)
    audit.set_defaults(func=_cmd_run, preset="kernel-audit")

    simulate = subs.add_parser("simulate", help="generate and persist an ensemble")
    simulate.add_argument("--kind-preset", choices=list(SIMULATE_FIELDS),
                          help="preset to simulate (default: the --config file's, else "
                               "brownian-regularity)")
    _add_common(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    moments = subs.add_parser("moments", help="pair moments of a stored ensemble")
    moments.add_argument("--ensemble", required=True,
                         help="path prefix of ensemble.bin/.json")
    moments.add_argument("--p", type=float, default=2.0)
    moments.add_argument("--lag-k-min", type=int, default=1)
    moments.add_argument("--lag-k-max", type=int, default=5)
    moments.add_argument("--pairs", type=int, default=256)
    _add_common(moments, with_config=False)
    moments.set_defaults(func=_cmd_moments)

    seminorm = subs.add_parser("seminorm", help="Campanato scaling of a stored ensemble")
    seminorm.add_argument("--ensemble", required=True)
    seminorm.add_argument("--p", type=float, default=2.0)
    seminorm.add_argument("--theta", type=float, default=4.0 / 3.0)
    seminorm.add_argument("--scale-k-min", type=int, default=2)
    seminorm.add_argument("--scale-k-max", type=int, default=5)
    seminorm.add_argument("--pairs", type=int, default=256)
    _add_common(seminorm, with_config=False)
    seminorm.set_defaults(func=_cmd_seminorm)

    plots = subs.add_parser("emit-plots", help="CSV plot bundle from a report")
    plots.add_argument("--report", required=True, help="path to report.json")
    plots.add_argument("--out", help="output directory")
    plots.set_defaults(func=_cmd_emit_plots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HolderLabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:  # untyped, a defect: exit 3 all the same, as 1 means a failed verdict
        traceback.print_exc()
        print(f"holderlab {args.command}: unexpected error, traceback above", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
