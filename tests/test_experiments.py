import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import holderlab.cli as cli
import holderlab.convolution as convolution
import holderlab.errors as errors
import holderlab.experiments as experiments
import holderlab.noise as noise
from holderlab.cli import main
from holderlab.convolution import FieldEnsemble, TestFunctionSpec
from holderlab.errors import AliasingViolation, ConfigError, HolderLabError
from holderlab.experiments import (
    ExperimentConfig,
    build_regularity,
    default_config,
    emit_plot_data,
    load_config,
    run_experiment,
    write_json,
    write_table,
)
from holderlab.kernels import KernelSpec, SpectralGrid
from holderlab.moments import estimate_pair_moments, sample_pairs_dyadic
from holderlab.noise import NoiseSpec, slab_cumulant

SMALL_AUDIT = {
    "experiment": "kernel-audit",
    "seed": 3,
    "conditions": {"betas": [0.3], "lag_k_min": 4, "lag_k_max": 7, "mesh_points": 64},
}

SMALL_SWEEP = {
    "experiment": "fractional-sweep",
    "seed": 3,
    "sweep": {"cases": [[1.5, 0.3]]},
    "conditions": {"betas": [0.0], "lag_k_min": 4, "lag_k_max": 7, "mesh_points": 64},
}

SIM_BROWNIAN = {  # what `holderlab simulate` reads; the preset also audits and samples pairs
    "experiment": "brownian-regularity",
    "seed": 5,
    "simulation": {"steps": 256, "grid_points": 512, "grid_length": 4.0,
                   "ensemble": 120},
    "moments": {"p": 2.0, "beta": 0.5, "lag_k_min": 1, "lag_k_max": 4},
}
SMALL_BROWNIAN = {**SIM_BROWNIAN, "moments": {**SIM_BROWNIAN["moments"], "pairs_per_lag": 48},
                  "conditions": {"lag_k_min": 4, "lag_k_max": 7, "mesh_points": 64}}

SIM_POISSON = {
    "experiment": "poisson-regularity",
    "seed": 5,
    "simulation": {"steps": 256, "grid_points": 1024, "grid_length": 2.0,
                   "ensemble": 120},
    "noise": {"intensity": 10.0},
    "kernel": {"alpha": 1.5},
    "moments": {"p": 2.0, "beta": 0.5, "lag_k_min": 1, "lag_k_max": 4},
}
SMALL_POISSON = {**SIM_POISSON, "moments": {**SIM_POISSON["moments"], "pairs_per_lag": 48},
                 "conditions": {"lag_k_min": 4, "lag_k_max": 7, "mesh_points": 64}}

SMALL_EMBED = {"experiment": "embedding-check", "seed": 2,
               "campanato": {"budget": 128, "n_centers": 12}}

ALL_SMALL = [SMALL_AUDIT, SMALL_SWEEP, SMALL_BROWNIAN, SMALL_POISSON, SMALL_EMBED]


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_unknown_keys_rejected(tmp_path):
    path = _write(tmp_path, {"experiment": "kernel-audit", "mystery": 1})
    with pytest.raises(ConfigError):
        load_config(path)
    path = _write(tmp_path, {"experiment": "kernel-audit",
                             "conditions": {"betaz": [0.1]}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="quantum-audit")


def test_default_configs_exist():
    for preset in ("kernel-audit", "fractional-sweep", "brownian-regularity",
                   "poisson-regularity", "embedding-check"):
        cfg = default_config(preset, seed=1)
        assert cfg.experiment == preset
        assert cfg.seed == 1


@pytest.mark.parametrize("preset", experiments.PRESETS)
def test_a_config_file_starts_from_its_presets_defaults(tmp_path, preset):
    # {"experiment": P} runs what --preset P runs, and simulates what --kind-preset P does
    path = _write(tmp_path, {"experiment": preset})
    assert load_config(path) == default_config(preset)
    if preset in experiments.SIMULATE_FIELDS:
        assert load_config(path, simulate=True) == default_config(preset)


def test_a_config_file_replaces_only_the_fields_it_sets(tmp_path):
    cfg = load_config(_write(tmp_path, {"experiment": "poisson-regularity", "seed": 4,
                                        "kernel": {"epsilon": 0.1}}))
    assert cfg == dataclasses.replace(default_config("poisson-regularity", seed=4),
                                      kernel=experiments.KernelConfig(alpha=1.5, epsilon=0.1))


def test_kernel_audit_small(tmp_path):
    cfg = load_config(_write(tmp_path, SMALL_AUDIT))
    report = run_experiment(cfg, out_dir=tmp_path / "out")
    assert report.passed
    assert (tmp_path / "out" / "report.json").exists()
    timing = json.loads((tmp_path / "out" / "timing.json").read_text())
    assert [span["stage"] for span in timing["stages"]] == ["kernel-audit"]
    plots = sorted(p.name for p in (tmp_path / "out" / "plots").iterdir())
    assert "manifest.json" in plots
    # one CSV per condition table
    assert sum(1 for p in plots if p.endswith(".csv")) == 3


def test_embedding_check_invalid_theta(tmp_path):
    data = dict(SMALL_EMBED)
    data["campanato"] = {"theta": 1.0}
    cfg = load_config(_write(tmp_path, data))
    with pytest.raises(ConfigError):
        run_experiment(cfg, out_dir=tmp_path / "bad")
    marker = json.loads((tmp_path / "bad" / "FAILED.json").read_text())
    assert marker["invalid_config"]
    assert not (tmp_path / "bad" / "report.json").exists()


def test_failed_marker_names_the_failing_stage(tmp_path):
    # 64 points on [-4, 4) cannot resolve the kernel symbol at lag dt/2
    data = json.loads(json.dumps(SMALL_BROWNIAN))
    data["simulation"]["grid_points"] = 64
    cfg = load_config(_write(tmp_path, data))
    with pytest.raises(AliasingViolation):
        run_experiment(cfg, out_dir=tmp_path / "bad")
    marker = json.loads((tmp_path / "bad" / "FAILED.json").read_text())
    assert marker["stage"] == "simulate"
    assert marker["error"] == "AliasingViolation"
    assert not marker["invalid_config"]


@pytest.mark.parametrize("config", ALL_SMALL,
                         ids=[c["experiment"] for c in ALL_SMALL])
def test_determinism_byte_identical(tmp_path, config):
    cfg_path = _write(tmp_path, config)
    outs = []
    for run in ("a", "b"):
        cfg = load_config(cfg_path)
        run_experiment(cfg, out_dir=tmp_path / run)
        outs.append((tmp_path / run / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_verdict_structure(tmp_path):
    cfg = load_config(_write(tmp_path, SMALL_BROWNIAN))
    report = run_experiment(cfg)
    claims = [v.claim for v in report.verdicts]
    assert any("gamma1" in c for c in claims)
    assert any("Monte Carlo" in c for c in claims)
    assert any("exact quadrature" in c for c in claims)
    data = report.to_dict()
    # every verdict quantity traces back to module outputs
    mc = [v for v in report.verdicts if "Monte Carlo" in v.claim][0]
    assert mc.fitted == pytest.approx(data["modules"]["moments"]["fitted_gamma"])


def test_emit_plot_data_empty_report(tmp_path):
    written = emit_plot_data({}, tmp_path / "plots")
    assert written == []
    manifest = json.loads((tmp_path / "plots" / "manifest.json").read_text())
    assert manifest["files"] == []


def test_write_table_and_write_json(tmp_path):
    write_table(tmp_path / "t.csv", ["a", "b"], [(1, 0.1), ("x;y", float("nan"))])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n1.0,0.1\r\nx;y,nan\r\n"
    write_json(tmp_path / "o.json", {"b": [1.5], "a": None})
    assert (tmp_path / "o.json").read_text() == '{\n  "a": null,\n  "b": [\n    1.5\n  ]\n}\n'


def test_write_table_numpy_cells_and_no_rows(tmp_path):
    # numpy scalars are written as the repr of the float they widen to
    write_table(tmp_path / "t.csv", ["t", "v"], [(np.int64(3), np.float32(0.1))])
    assert (tmp_path / "t.csv").read_bytes() == b"t,v\r\n3.0,0.10000000149011612\r\n"
    write_table(tmp_path / "e.csv", ["t", "v"], iter(()))
    assert (tmp_path / "e.csv").read_bytes() == b"t,v\r\n"


def test_timing_gives_each_stage_its_wall_time_and_peak_memory(tmp_path):
    cfg = load_config(_write(tmp_path, SMALL_BROWNIAN))
    run_experiment(cfg, out_dir=tmp_path / "out")
    timing = json.loads((tmp_path / "out" / "timing.json").read_text())
    spans = timing["stages"]
    assert [span["stage"] for span in spans] == ["setup", "audit", "pairs", "simulate",
                                                 "moments", "fit"]
    assert all(span["wall_seconds"] >= 0.0 for span in spans)
    assert sum(span["wall_seconds"] for span in spans) <= timing["wall_clock_seconds"]
    peaks = [span["peak_rss_mib"] for span in spans]
    assert 0.0 < peaks[0] and peaks == sorted(peaks)  # the process's peak so far


def test_emit_plot_lags_match_config(tmp_path):
    cfg = load_config(_write(tmp_path, SMALL_BROWNIAN))
    report = run_experiment(cfg, out_dir=tmp_path / "out")
    rows = (tmp_path / "out" / "plots" / "moments_lag.csv").read_text().strip().splitlines()
    lags = [float(r.split(",")[0]) for r in rows[1:]]
    expected = [2.0**-k for k in range(1, 5)]
    assert lags == expected


# --- CLI ------------------------------------------------------------------

def test_cli_audit_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, SMALL_AUDIT)
    code = main(["audit-kernel", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("command", [["run", "--preset", "embedding-check"],
                                     ["audit-kernel"], ["emit-plots", "--report", "r.json"]])
def test_cli_untyped_exception_exits_3_naming_the_subcommand(tmp_path, capsys, monkeypatch,
                                                             command):
    # an exception that is not a HolderLabError is a defect: exit 3 with the subcommand named
    # and the traceback on stderr, never 1, which a failed verdict owns
    def defect(*args, **kwargs):
        raise ZeroDivisionError("a defect")

    monkeypatch.setattr(cli, "run_experiment", defect)
    monkeypatch.setattr(cli, "emit_plot_data", defect)
    (tmp_path / "r.json").write_text('{"modules": {}}')
    monkeypatch.chdir(tmp_path)
    assert main(command) == cli.EXIT_NUMERICAL == 3
    captured = capsys.readouterr()
    assert f"holderlab {command[0]}: unexpected error" in captured.err
    assert "Traceback" in captured.err and "ZeroDivisionError: a defect" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("config, target, stage", [
    (SMALL_BROWNIAN, "build_regularity", "setup"),
    (SMALL_BROWNIAN, "_audit_one", "audit"),
    (SMALL_BROWNIAN, "sample_pairs_dyadic", "pairs"),
    (SMALL_POISSON, "convolve_poisson", "simulate"),
    (SMALL_BROWNIAN, "estimate_pair_moments", "moments"),
    (SMALL_BROWNIAN, "fit_exponent", "fit"),
    (SMALL_AUDIT, "audit_conditions", "kernel-audit"),
    (SMALL_SWEEP, "audit_conditions", "fractional-sweep"),
    (SMALL_EMBED, "campanato_seminorm", "embedding-check"),
], ids=["setup", "audit", "pairs", "poisson-simulate", "moments", "fit", "kernel-audit",
        "fractional-sweep", "embedding-check"])
def test_untyped_exception_in_a_runner_leaves_failed_json(tmp_path, capsys, monkeypatch, config,
                                                          target, stage):
    # a defect inside a runner is marked as a typed error is: FAILED.json names the stage it
    # failed in and the exception's class, and the run exits 3
    def defect(*args, **kwargs):
        raise ZeroDivisionError("a defect")

    monkeypatch.setattr(experiments, target, defect)
    path = _write(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "ZeroDivisionError: a defect" in capsys.readouterr().err
    assert json.loads((tmp_path / "o" / "FAILED.json").read_text()) == {
        "stage": stage, "error": "ZeroDivisionError", "message": "a defect",
        "invalid_config": False}
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["FAILED.json"]


def _with(base, section, **fields):
    return dict(base, **{section: dict(base.get(section, {}), **fields)})


BAD_REGULARITY = {
    "unknown-key": (dict(SIM_BROWNIAN, nope=True), "unknown keys"),
    "dim-2": (_with(SIM_BROWNIAN, "kernel", dim=2), "config.kernel.dim"),
    "store-dtype": (_with(SIM_BROWNIAN, "simulation", store_dtype="float32"),
                    "config.simulation: unknown keys ['store_dtype']"),
    "grid-past-memory": (_with(SIM_BROWNIAN, "simulation", grid_points=2**40),
                         "config.simulation: 1099511627776 points per axis"),
    "grid-spacing-underflows": (_with(SIM_BROWNIAN, "simulation", grid_length=5e-324),
                                "config.simulation: box half-width 5e-324 over 512 points"),
    "theta-not-a-number": (_with(SMALL_EMBED, "campanato", theta="abc"),
                           "config.campanato.theta: expected float, got 'abc'"),
    "lag-overflows": (_with(SIM_BROWNIAN, "moments", lag_k_min=-1100),
                      "config.moments.lag_k_min / lag_k_max: at k = -1100, 2^1100 overflows"),
    "lag-past-horizon": (_with(SIM_BROWNIAN, "moments", lag_k_min=-600),
                         "config.moments.lag_k_min: lag 4.14952e+180 spans the time inf"),
    "lag-finer-than-lattice": (_with(SIM_BROWNIAN, "moments", lag_k_max=40),
                               "config.moments.lag_k_max: lag 0.03125 spans 0.25 time steps"),
    "ensemble-below-the-estimates-floor": (
        _with(SIM_BROWNIAN, "simulation", ensemble=10),
        "config.simulation.ensemble: the moment estimates need at least 30 realizations, got 10"),
}


@pytest.mark.parametrize("bad", sorted(BAD_REGULARITY))
@pytest.mark.parametrize("command", ["run", "simulate"])
def test_cli_config_error_exit_two(tmp_path, monkeypatch, capsys, command, bad):
    # the config is rejected before any quadrature or simulation starts
    def must_not_run(*args, **kwargs):
        raise AssertionError("pipeline ran on a rejected config")

    for name in ("audit_conditions", "convolve_brownian", "convolve_poisson"):
        monkeypatch.setattr(experiments, name, must_not_run)
    config, field = BAD_REGULARITY[bad]
    path = _write(tmp_path, config)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o" / "ensemble.bin").exists()


@pytest.mark.parametrize("config, field", [
    (_with(SMALL_EMBED, "kernel", dim=3), "config.kernel.dim"),
    (_with(SMALL_EMBED, "campanato", p=0.5), "config.campanato.p"),
    (_with(SMALL_EMBED, "campanato", n_centers=0), "config.campanato"),
    (_with(SMALL_AUDIT, "kernel", alpha=3), "config.kernel"),
    (_with(SMALL_AUDIT, "conditions", betas=[]), "config.conditions.betas"),
    (_with(SMALL_SWEEP, "sweep", cases=[[3.0, 0.0]]), "config.sweep.cases"),
    (_with(SMALL_BROWNIAN, "conditions", lag_k_max=6), "config.conditions: lag_k_min 4"),
    (_with(SMALL_EMBED, "campanato", n_scales=0), "config.campanato.n_scales: k from 0 to -1"),
    (_with(SMALL_EMBED, "campanato", n_scales=2000), "config.campanato.n_scales: at k = 1999"),
    (_with(SMALL_AUDIT, "conditions", lag_k_min=-1100),
     "config.conditions.lag_k_min / lag_k_max: at k = -1100, 2^1100 overflows"),
    (_with(SMALL_AUDIT, "conditions", s_base=1e-320), "config.conditions.s_base: 1e-320"),
    (_with(SMALL_POISSON, "noise", mark_parameter=1e-245),
     "config.noise: mark law parameter 1e-245"),
    (_with(SMALL_BROWNIAN, "moments", lag_k_max=40), "config.moments.lag_k_max"),
    (_with(SMALL_SWEEP, "conditions", betas=[0.0, 0.5]), "config.conditions.betas"),
    (_with(SMALL_BROWNIAN, "moments", pairs_per_lag=0), "config.moments.pairs_per_lag"),
    (_with(SMALL_BROWNIAN, "moments", pairs_per_lag=1), "config.moments.pairs_per_lag"),
    (_with(SMALL_BROWNIAN, "moments", lag_k_max=3), "config.moments: lag_k_min 1"),
    (_with(SMALL_POISSON, "simulation", ensemble=29), "config.simulation.ensemble"),
], ids=["embed-dim-3", "embed-p-half", "embed-no-centers", "audit-alpha-3", "audit-no-betas",
        "sweep-alpha-3", "regularity-three-lags", "embed-no-scales", "embed-scale-underflows",
        "audit-lag-overflows", "audit-s-base-underflows", "mark-variance-underflows",
        "regularity-lag-finer-than-lattice", "sweep-two-betas",
        "regularity-no-pairs", "regularity-one-pair-per-lag", "regularity-three-moment-lags",
        "regularity-ensemble-below-the-estimates-floor"])
def test_preset_config_error_exit_two_with_marker(tmp_path, capsys, config, field):
    path = _write(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    marker = json.loads((tmp_path / "o" / "FAILED.json").read_text())
    assert marker["invalid_config"] and marker["message"].startswith(field)
    assert not (tmp_path / "o" / "report.json").exists()


class _Recorder:
    """A config, or a section of one, that records the dotted name of each field read."""

    def __init__(self, target, seen, prefix=""):
        self._target, self._seen, self._prefix = target, seen, prefix

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if dataclasses.is_dataclass(value):
            return _Recorder(value, self._seen, f"{self._prefix}{name}.")
        self._seen.add(self._prefix + name)
        return value


def _table(preset, tables=experiments.PRESET_FIELDS):
    return {f"{s}.{n}" for s, names in tables[preset].items() for n in names}


@pytest.mark.parametrize("config", ALL_SMALL, ids=[c["experiment"] for c in ALL_SMALL])
def test_each_preset_reads_the_fields_of_its_table(tmp_path, config):
    preset, seen = config["experiment"], set()
    cfg = load_config(_write(tmp_path, config))
    experiments._RUNNERS[preset](_Recorder(cfg, seen), experiments.Stages(preset))
    assert seen - {"experiment", "seed"} == _table(preset)
    # and report.json's config block holds these fields, besides experiment and seed
    written = experiments.config_to_dict(cfg)
    assert {f"{s}.{n}" for s, v in written.items() if isinstance(v, dict)
            for n in v} == _table(preset)
    assert written["experiment"] == preset and written["seed"] == config["seed"]
    if preset in experiments.SIMULATE_FIELDS:  # and `holderlab simulate` reads its own table
        seen.clear()
        build_regularity(_Recorder(cfg, seen))
        assert seen - {"experiment", "seed"} == _table(preset, experiments.SIMULATE_FIELDS)


_DEFAULTS = dataclasses.asdict(ExperimentConfig())


def test_readme_table_lists_each_presets_fields_and_defaults():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index(f"| field | {' | '.join(f'`{p}`' for p in experiments.PRESETS)} |")
    table = {}
    for line in lines[start + 2:lines.index("", start)]:
        field, *cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        table[field] = cells
    assert set(table) == {"seed"} | {f"{s}.{n}" for s, v in _DEFAULTS.items()
                                     if isinstance(v, dict) for n in v}
    for i, preset in enumerate(experiments.PRESETS):
        defaults = json.loads(json.dumps(dataclasses.asdict(default_config(preset))))
        want = {"seed": 0}
        for field in _table(preset):
            section, name = field.split(".")
            want[field] = defaults[section][name]
        assert {field: json.loads(cells[i]) for field, cells in table.items()
                if cells[i] != "—"} == want


UNREAD = [(c, f"{s}.{n}") for c in ALL_SMALL for s, v in _DEFAULTS.items() if isinstance(v, dict)
          for n in v if f"{s}.{n}" not in _table(c["experiment"])]


@pytest.mark.parametrize("config, field", UNREAD,
                         ids=[f"{c['experiment']}-{f}" for c, f in UNREAD])
def test_a_field_the_preset_does_not_read_exits_two(tmp_path, capsys, config, field):
    # set to its default, well-typed: refused because the preset would ignore it
    section, name = field.split(".")
    data = _with(config, section, **{name: _DEFAULTS[section][name]})
    assert main(["run", "--config", str(_write(tmp_path, data)), "--out",
                 str(tmp_path / "o")]) == 2
    assert (f"config error: config.{field}: the {config['experiment']} preset does not read it"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", ALL_SMALL, ids=[c["experiment"] for c in ALL_SMALL])
def test_the_output_directory_is_a_flag_not_a_config_key(tmp_path, capsys, config):
    path = str(_write(tmp_path, dict(config, out=str(tmp_path / "elsewhere"))))
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: config: unknown keys ['out']" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# read by the brownian-regularity preset's audit, pair sampling and verdicts, not by simulate
SIMULATE_UNREAD = sorted(_table("brownian-regularity")
                         - _table("brownian-regularity", experiments.SIMULATE_FIELDS))


@pytest.mark.parametrize("config, field", [
    (_with(SIM_BROWNIAN, "conditions", betas=[0.9]), "config.conditions.betas"),
    (dict(SIM_BROWNIAN, noise={}), "config.noise"),
    *[(_with(SIM_BROWNIAN, f.split(".")[0], **{f.split(".")[1]: 3}), f"config.{f}")
      for f in SIMULATE_UNREAD],
], ids=["conditions-betas", "empty-noise", *SIMULATE_UNREAD])
def test_simulate_refuses_what_it_does_not_read(tmp_path, capsys, config, field):
    assert len(SIMULATE_UNREAD) == 9  # conditions.* (5), tolerances.* (3), pairs_per_lag
    path = str(_write(tmp_path, config))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}: holderlab simulate does not read it" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_null_betas_is_a_type_error(tmp_path, capsys):
    path = str(_write(tmp_path, _with(SMALL_AUDIT, "conditions", betas=None)))
    assert main(["run", "--config", path]) == 2
    assert ("config error: config.conditions.betas: expected tuple[float, ...], got None"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, flags, message", [
    ("moments", ["--pairs", "0"], "--pairs 0: need at least one pair"),
    ("seminorm", ["--pairs", "0"], "--pairs 0: need at least one pair"),
    ("moments", ["--lag-k-min", "5", "--lag-k-max", "1"],
     "--lag-k-min / --lag-k-max: k from 5 to 1 leaves no scales"),
    ("moments", ["--lag-k-min", "-1100"],
     "--lag-k-min / --lag-k-max: at k = -1100, 2^1100 overflows"),
    ("moments", ["--lag-k-max", "2000"],
     "--lag-k-min / --lag-k-max: at k = 2000, 2^-2000 underflows to 0"),
    ("seminorm", ["--scale-k-min", "5", "--scale-k-max", "2"],
     "--scale-k-min / --scale-k-max: k from 5 to 2 leaves no scales"),
    ("seminorm", ["--scale-k-min", "-1100"],
     "--scale-k-min / --scale-k-max: at k = -1100, 2^1100 overflows"),
    ("seminorm", ["--scale-k-max", "2000"],
     "--scale-k-min / --scale-k-max: at k = 2000, 2^-2000 underflows to 0"),
    ("moments", ["--p", "nan"], "--p nan: the moment order must be finite and >= 1"),
    ("moments", ["--p", "0.5"], "--p 0.5: the moment order must be finite and >= 1"),
    ("seminorm", ["--p", "inf"], "--p inf: the moment order must be finite and >= 1"),
    ("seminorm", ["--theta", "-3"], "--theta -3.0: the exponent must be finite and >= 0"),
    ("seminorm", ["--theta", "nan"], "--theta nan: the exponent must be finite and >= 0"),
], ids=["moments-zero-pairs", "seminorm-zero-pairs", "lags-empty", "lag-overflows",
        "lag-underflows", "scales-empty", "scale-overflows", "scale-underflows", "moments-p-nan",
        "moments-p-half", "seminorm-p-inf", "seminorm-theta-negative", "seminorm-theta-nan"])
def test_cli_flag_errors_exit_two_before_the_ensemble_is_read(tmp_path, capsys, command, flags,
                                                              message):
    missing = str(tmp_path / "missing" / "ensemble")
    assert main([command, "--ensemble", missing, *flags, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_untyped_errors_are_not_config_errors(monkeypatch, capsys):
    # exit 2 is a ConfigError and exit 3 any other HolderLabError; a bare ValueError is a
    # defect of the program, not of its input: exit 3 as well, with its traceback
    def broken(args):
        raise ValueError("not a holderlab error")

    monkeypatch.setattr(cli, "_cmd_moments", broken)
    assert main(["moments", "--ensemble", "unused"]) == 3
    assert "ValueError: not a holderlab error" in capsys.readouterr().err


def _tiny_ensemble(prefix, steps=8):
    """A saved ensemble of 40 realizations, 3 saved times up to index steps, 16 points."""
    ens = FieldEnsemble(values=np.zeros((40, steps)),
                        time_indices=np.array([0, steps // 2, steps]),
                        grid=SpectralGrid(length=1.0, points=16), kernel=KernelSpec(2.0),
                        g=TestFunctionSpec(),
                        noise=NoiseSpec(kind="brownian", horizon=1.0, steps=steps, seed=1))
    ens.save(prefix)
    FieldEnsemble.load(prefix)
    return ens


@pytest.mark.parametrize("command", ["moments", "seminorm"])
@pytest.mark.parametrize("damage", ["no-kernel", "short-bin", "grid-dim-2", "kernel-dim-2",
                                    "long-bin", "shape-30-4-16", "shape-40-6-8", "shape-0-3-16",
                                    "weights-40-4", "weights-41-8", "time-4.5",
                                    "time-decreasing", "time-past-steps", "time-none",
                                    "poisson-flat-mark"])
def test_cli_malformed_ensemble_exit_two(tmp_path, capsys, command, damage):
    prefix = str(tmp_path / "ensemble")
    _tiny_ensemble(prefix)
    side = json.loads((tmp_path / "ensemble.json").read_text())
    if damage == "no-kernel":
        del side["kernel"]
    elif damage == "short-bin":
        np.zeros((40, 7)).tofile(f"{prefix}.bin")
    elif damage == "long-bin":  # one realization more than the sidecar's shape
        np.zeros((41, 8)).tofile(f"{prefix}.bin")
    elif damage.startswith(("shape", "weights")):  # with a .bin of as many weights
        side[damage.split("-")[0]] = [int(n) for n in damage.split("-")[1:]]
        np.zeros(side["weights"]).tofile(f"{prefix}.bin")
    elif damage.startswith("time"):  # one or more, whole, increasing, at most noise.steps = 8
        side["time_indices"] = {"time-4.5": [0, 4.5, 8], "time-decreasing": [0, 8, 4],
                                "time-past-steps": [0, 4, 9], "time-none": []}[damage]
        if damage == "time-none":  # with a .bin of its shape
            side["shape"], side["weights"] = [40, 0, 16], [40, 0]
            np.zeros(0).tofile(f"{prefix}.bin")
    elif damage == "poisson-flat-mark":  # the jump layout before the mark law nested its fields
        side["noise"].update(kind="poisson", jump={
            "intensity": 2.0, "mark_family": "two-sided-exponential", "mark_parameter": 1.0})
    else:  # the field is 1-D: a 2-D sidecar, even with a .bin of its shape, is not one
        side[damage.split("-")[0]]["dim"] = 2
        side["shape"] = [40, 3, 16, 16]
    (tmp_path / "ensemble.json").write_text(json.dumps(side))
    assert main([command, "--ensemble", prefix, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: --ensemble {prefix}: not a holderlab ensemble" in err
    assert damage != "poisson-flat-mark" or "(KeyError: 'mark')" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["moments", "seminorm"])
def test_cli_refuses_a_stored_field_of_earlier_versions(tmp_path, capsys, command):
    # earlier versions stored the field, (M, saved times, points) float32 values, with a
    # sidecar of its shape and dtype and no weights.  Such an ensemble is refused, never read
    # as weights, even where its .bin is as large as the weights would be: here 40 x 3 x 16
    # float32 values and 40 x 24 float64 weights are both 7,680 bytes
    prefix = str(tmp_path / "ensemble")
    _tiny_ensemble(prefix, steps=24)
    side = json.loads((tmp_path / "ensemble.json").read_text())
    del side["weights"]
    side["dtype"] = "float32"
    side["g"]["mark_family"] = "identity"
    (tmp_path / "ensemble.json").write_text(json.dumps(side))
    np.ones((40, 3, 16), np.float32).tofile(f"{prefix}.bin")
    assert (tmp_path / "ensemble.bin").stat().st_size == 8 * 40 * 24
    assert main([command, "--ensemble", prefix, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: --ensemble {prefix}: not a holderlab ensemble (KeyError: 'weights')" \
        in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["grid", "kernel", "g", "noise", "time_indices", "shape",
                                 "weights"])
def test_load_refuses_a_sidecar_missing_a_key(tmp_path, key):
    prefix = str(tmp_path / "ensemble")
    _tiny_ensemble(prefix)
    side = json.loads((tmp_path / "ensemble.json").read_text())
    del side[key]
    (tmp_path / "ensemble.json").write_text(json.dumps(side))
    with pytest.raises(KeyError, match=key):
        FieldEnsemble.load(prefix)


@pytest.mark.parametrize("rows, slabs", [(40, 7), (40, 9), (39, 8), (0, 0)])
def test_load_refuses_a_bin_of_another_size(tmp_path, rows, slabs):
    prefix = str(tmp_path / "ensemble")
    _tiny_ensemble(prefix)
    np.zeros((rows, slabs)).tofile(f"{prefix}.bin")
    with pytest.raises(ValueError, match=f"holds {8 * rows * slabs} bytes, not the 2560 of "
                                         "40 x 8 float64 weights"):
        FieldEnsemble.load(prefix)


def test_cli_moments_read_dt_from_the_noise(tmp_path):
    # a sidecar's stray top-level dt (earlier sidecars wrote one) changes nothing
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=40))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    prefix = str(tmp_path / "ensemble")
    outputs = []
    for stale_dt in (None, 2.0 / SMALL_BROWNIAN["simulation"]["steps"]):
        if stale_dt is not None:
            side = json.loads((tmp_path / "ensemble.json").read_text())
            assert "dt" not in side
            (tmp_path / "ensemble.json").write_text(json.dumps(dict(side, dt=stale_dt)))
        out = tmp_path / f"o-{stale_dt}"
        assert main(["moments", "--ensemble", prefix, "--lag-k-max", "4", "--pairs", "16",
                     "--seed", "5", "--out", str(out)]) == 0
        outputs.append((out / "moments.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_run_preset_flag_must_match_the_config(tmp_path, capsys):
    path = str(_write(tmp_path, SMALL_EMBED))
    assert main(["run", "--preset", "brownian-regularity", "--config", path]) == 2
    assert ("config error: config requests 'embedding-check' but the subcommand runs "
            "'brownian-regularity'" in capsys.readouterr().err)
    for flags, preset in [(["--preset", "embedding-check", "--config", path], "embedding-check"),
                          (["--config", path], "embedding-check"), ([], "kernel-audit")]:
        args = cli.build_parser().parse_args(["run", *flags])
        assert cli._config_from_args(args, args.preset).experiment == preset


def test_cli_simulate_runs_the_preset_of_its_config(tmp_path, capsys):
    # --kind-preset defaults to the config's preset, else brownian-regularity; a config for
    # another preset than the flag's, or for none that simulate runs, exits 2 naming both
    path = str(_write(tmp_path, _with(SIM_POISSON, "simulation", ensemble=40)))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "p")]) == 0
    assert json.loads((tmp_path / "p" / "ensemble.json").read_text())["noise"]["kind"] == "poisson"
    assert main(["simulate", "--kind-preset", "brownian-regularity", "--config", path,
                 "--out", str(tmp_path / "b")]) == 2
    assert ("config error: config requests 'poisson-regularity' but the subcommand runs "
            "'brownian-regularity'" in capsys.readouterr().err)
    embed = str(_write(tmp_path, SMALL_EMBED, "embed.json"))
    assert main(["simulate", "--config", embed, "--out", str(tmp_path / "e")]) == 2
    assert ("config error: config requests 'embedding-check' but the subcommand runs "
            "'brownian-regularity' or 'poisson-regularity'" in capsys.readouterr().err)
    assert not (tmp_path / "b").exists() and not (tmp_path / "e").exists()
    for flags, preset in [([], "brownian-regularity"), (["--config", path], "poisson-regularity"),
                          (["--kind-preset", "poisson-regularity"], "poisson-regularity")]:
        args = cli.build_parser().parse_args(["simulate", *flags])
        assert cli._config_from_args(args, args.kind_preset,
                                     "brownian-regularity").experiment == preset


def test_cli_verdict_failure_exit_one(tmp_path):
    # small brownian run: the field-exponent sharpness verdict fails (the
    # measured parabolic exponent is 1, not beta), so the run exits 1
    path = _write(tmp_path, SMALL_BROWNIAN)
    assert main(["run", "--config", str(path)]) == 1


def test_cli_numerical_failure_exit_three(tmp_path):
    # a lattice too coarse for the Ito lag dt/2 trips the aliasing guard
    data = dict(SMALL_BROWNIAN)
    data["simulation"] = {"steps": 1024, "grid_points": 64,
                          "grid_length": 4.0, "ensemble": 120}
    path = _write(tmp_path, data)
    assert main(["run", "--config", str(path)]) == 3


def test_cli_invalid_theta_exit_two(tmp_path):
    data = {"experiment": "embedding-check", "campanato": {"theta": 0.9}}
    path = _write(tmp_path, data)
    assert main(["run", "--config", str(path)]) == 2


def test_cli_seed_flag_overrides(tmp_path):
    path = _write(tmp_path, SMALL_EMBED)
    code = main(["run", "--config", str(path), "--seed", "77",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["rng"]["seed"] == 77


def test_cli_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("HOLDERLAB_SEED", "123")
    path = _write(tmp_path, SMALL_EMBED)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["rng"]["seed"] == 123


@pytest.mark.parametrize("value", ["abc", " "], ids=["letters", "blank"])
@pytest.mark.parametrize("command", [["run", "--preset", "embedding-check"],
                                     ["moments", "--ensemble", "missing"],
                                     ["seminorm", "--ensemble", "missing"]])
def test_cli_malformed_env_seed_exits_two_naming_it(tmp_path, monkeypatch, capsys, command,
                                                    value):
    # a HOLDERLAB_SEED that is not an integer is a config error, not an untyped ValueError;
    # moments and seminorm read it before the ensemble
    monkeypatch.setenv("HOLDERLAB_SEED", value)
    assert main(command + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: HOLDERLAB_SEED={value!r}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_simulate_moments_seminorm_chain(tmp_path, capsys):
    path = _write(tmp_path, SIM_BROWNIAN)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "ensemble.bin").exists()
    side = json.loads((tmp_path / "ensemble.json").read_text())
    # the CLI stores exactly what the shared builder describes: the slab weights up to the
    # last saved time, with the shape of the field they determine
    pieces = build_regularity(load_config(path))
    assert side["time_indices"] == pieces.saved and "dtype" not in side
    assert side["weights"] == [SMALL_BROWNIAN["simulation"]["ensemble"], pieces.saved[-1]]
    assert (tmp_path / "ensemble.bin").stat().st_size == 8 * side["weights"][0] * pieces.saved[-1]
    assert side["shape"] == [SMALL_BROWNIAN["simulation"]["ensemble"], len(pieces.saved),
                             SMALL_BROWNIAN["simulation"]["grid_points"]]
    # lag 4 spans 256 spacings of h = 1/64: wider than the central window; from 2^-5 on, the
    # lags span under half a time step of 1/256: finer than the lattice.  Either is a flag error
    capsys.readouterr()
    for k_min, k_max, message in (("-2", "1", "lag 4 spans 256 lattice spacings"),
                                  ("1", "40", "lag 0.03125 spans 0.25 time steps"),
                                  ("1", "6", "lag 0.03125 spans 0.25 time steps")):
        assert main(["moments", "--ensemble", str(tmp_path / "ensemble"), "--lag-k-min",
                     k_min, "--lag-k-max", k_max, "--out", str(tmp_path)]) == 2
        assert (f"config error: --lag-k-min / --lag-k-max: {message}"
                in capsys.readouterr().err)
        assert not (tmp_path / "moments.csv").exists()
    assert main(["moments", "--ensemble", str(tmp_path / "ensemble"),
                 "--lag-k-min", "1", "--lag-k-max", "4", "--pairs", "32",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "moments.csv").read_text().splitlines()
    assert lines[0] == "t,x,s,y,delta,estimate,stderr"
    assert len(lines) == 1 + 4 * 32
    moments = json.loads((tmp_path / "moments.json").read_text())
    assert len(moments["estimate"]) == 4 * 32
    # h = 1/64: from k = 6 on, a cylinder of radius 2^-k holds one lattice point
    for k_min, k_max in (("6", "9"), ("7", "7")):
        assert main(["seminorm", "--ensemble", str(tmp_path / "ensemble"),
                     "--scale-k-min", k_min, "--scale-k-max", k_max,
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"--scale-k-min {k_min} .. --scale-k-max {k_max} leaves no cylinder" in err
        assert "lattice spacing 0.015625" in err
        assert not (tmp_path / "seminorm.json").exists()
    assert main(["seminorm", "--ensemble", str(tmp_path / "ensemble"),
                 "--scale-k-min", "4", "--scale-k-max", "8",
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "seminorm.json").read_text())["scales"] == [0.0625, 0.03125]
    assert main(["seminorm", "--ensemble", str(tmp_path / "ensemble"),
                 "--scale-k-min", "2", "--scale-k-max", "4",
                 "--out", str(tmp_path)]) == 0
    seminorm = json.loads((tmp_path / "seminorm.json").read_text())
    assert seminorm["kind"] == "campanato"
    lines = (tmp_path / "seminorm.csv").read_text().splitlines()
    assert lines[0] == "scale,value,raw_value"
    assert seminorm["scales"]
    assert len(lines) == 1 + len(seminorm["scales"])
    # per scale, the saved times inside its cylinder around the middle saved time
    times = FieldEnsemble.load(str(tmp_path / "ensemble")).times
    t_mid = times[len(times) // 2]
    assert seminorm["saved_times"] == [int(np.sum(np.abs(times - t_mid) < c * c))
                                       for c in seminorm["scales"]]
    assert seminorm["saved_times"][-1] >= 1


@pytest.mark.parametrize("config", [SIM_BROWNIAN, SIM_POISSON], ids=["brownian", "poisson"])
def test_cli_moments_are_the_presets_pair_route_bit_for_bit(tmp_path, config):
    # moments reads its pairs from the stored weights through the presets' engine: its
    # estimates are those of the pair ensemble the presets form for the same pairs
    path = _write(tmp_path, _with(config, "simulation", ensemble=40))
    prefix = str(tmp_path / "ensemble")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["moments", "--ensemble", prefix, "--lag-k-max", "4", "--pairs", "16",
                 "--seed", "5", "--out", str(tmp_path)]) == 0
    assert main(["seminorm", "--ensemble", prefix, "--pairs", "16", "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    pieces = build_regularity(load_config(path, simulate=True))
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, 16, seed=5)
    want = estimate_pair_moments(pieces.simulate(40).differences(pairs), 2.0)
    got = json.loads((tmp_path / "moments.json").read_text())
    assert got["estimate"] == want.estimates.tolist()
    assert got["stderr"] == want.stderr.tolist()
    assert all(np.isfinite(json.loads((tmp_path / "seminorm.json").read_text())["per_scale"]))


def _patch_oracle(monkeypatch, replacement):
    """second_moment_pairs replaced by replacement wherever a holderlab module binds it."""
    original = convolution.second_moment_pairs
    for name, module in list(sys.modules.items()):
        if name.startswith("holderlab") and getattr(module, "second_moment_pairs", 0) is original:
            monkeypatch.setattr(module, "second_moment_pairs", replacement)


def test_cli_chain_never_forms_the_exact_second_moments(tmp_path, monkeypatch):
    # moments and seminorm write Monte Carlo values only, so neither makes the pass over the
    # rows of D that the exact second moments take
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=40))
    prefix = str(tmp_path / "ensemble")

    def refuse(*args):
        raise AssertionError("the exact second moments were formed")

    _patch_oracle(monkeypatch, refuse)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["moments", "--ensemble", prefix, "--lag-k-max", "4", "--pairs", "16",
                 "--out", str(tmp_path)]) == 0
    assert main(["seminorm", "--ensemble", prefix, "--pairs", "16", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("p, want", [(2.0, ["oracle", "estimate"]), (3.0, ["estimate"])])
def test_regularity_forms_the_oracle_before_the_estimate_and_only_at_p_2(tmp_path, monkeypatch,
                                                                          p, want):
    # the exact second moments are formed, at p = 2 only, between the pair ensemble and the
    # Monte Carlo estimate, while no block of the estimate is alive
    events = []
    oracle = convolution.second_moment_pairs
    _patch_oracle(monkeypatch, lambda *a: events.append("oracle") or oracle(*a))
    monkeypatch.setattr(experiments, "estimate_pair_moments",
                        lambda *a: events.append("estimate") or estimate_pair_moments(*a))
    config = _with(SMALL_BROWNIAN, "moments", p=p)
    moments = run_experiment(load_config(_write(tmp_path, config))).modules["moments"]
    assert events == want
    assert (moments["fitted_gamma_oracle"] is None) == (p != 2.0)


@pytest.mark.parametrize("preset, points", [("brownian-regularity", 1024),
                                            ("poisson-regularity", 2048)])
def test_cli_simulate_stores_the_weights_of_the_default_field(tmp_path, preset, points):
    # at the defaults the sidecar's shape is the [2000, 39, n] field the weights determine, and
    # the .bin holds the 2000 x 768 float64 weights: 12.3 MB, where the float32 field is
    # 319.5 MB (brownian) or 639.0 MB (poisson)
    assert main(["simulate", "--kind-preset", preset, "--out", str(tmp_path)]) == 0
    side = json.loads((tmp_path / "ensemble.json").read_text())
    assert side["shape"] == [2000, 39, points] and side["weights"] == [2000, 768]
    assert (tmp_path / "ensemble.bin").stat().st_size == 12_288_000


def test_cli_chain_holds_under_a_quarter_of_one_field(tmp_path):
    # simulate stores the slab weights, and moments and seminorm read the pairs from them:
    # no step holds a quarter of the 32 MB float32 field they determine
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=400))
    prefix = str(tmp_path / "ensemble")
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert main(["moments", "--ensemble", prefix, "--lag-k-max", "4", "--pairs", "16",
                     "--out", str(tmp_path)]) == 0
        assert main(["seminorm", "--ensemble", prefix, "--pairs", "16",
                     "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    saved = build_regularity(load_config(path)).saved
    field = 400 * len(saved) * 512 * 4  # float32
    assert (tmp_path / "ensemble.bin").stat().st_size == 400 * saved[-1] * 8 < field / 10
    assert peak < field / 4


def test_cli_chain_runs_under_the_benchmark_tracer(tmp_path):
    # perfbench/tracer.py reads .values.shape, .values.nbytes and .time_indices of what
    # convolve_* returns: the ensemble's values are its slab weights, the .bin's bytes
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=40))
    prefix = str(tmp_path / "ensemble")
    steps = [("simulate", ["simulate", "--config", str(path), "--out", str(tmp_path)]),
             ("moments", ["moments", "--ensemble", prefix, "--lag-k-max", "4", "--pairs", "16",
                          "--out", str(tmp_path)]),
             ("seminorm", ["seminorm", "--ensemble", prefix, "--pairs", "16",
                           "--out", str(tmp_path)])]
    t = _load_tracer().Tracer()
    t.install()
    try:
        for name, argv in steps:
            t.run_id = name
            assert cli.main(argv) == 0, name
    finally:
        t.uninstall()
    simulate = t.summary("simulate")
    # the one writer, FieldEnsemble.save, writes what convolve_* drew
    assert simulate["convolution.convolve.calls"] == 1
    assert simulate["convolution.ensemble_save.calls"] == 1
    assert simulate["convolution.ensemble_load.calls"] == 0
    assert simulate["convolution.realizations"] == 40
    assert simulate["convolution.ensemble_bytes"] == (tmp_path / "ensemble.bin").stat().st_size
    for name in ("moments", "seminorm"):  # one read of the .bin each, and no write or draw
        layers = t.summary(name)
        assert layers["convolution.ensemble_load.calls"] == layers["moments.estimate.calls"] == 1
        assert layers["convolution.ensemble_save.calls"] == 0
        assert layers.get("convolution.convolve.calls", 0) == 0
        assert layers.get("noise.sample_path.calls", 0) == 0


def test_cli_pairs_take_any_integer_seed(tmp_path):
    # a seed past 2^64 keys the pair samplers as seed mod 2^64, like the noise: 2^70 is 0
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=40))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    for seed in (str(2**70), "0"):
        for command in (["moments", "--lag-k-max", "4"], ["seminorm"]):
            assert main([*command, "--ensemble", str(tmp_path / "ensemble"), "--pairs", "16",
                         "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    for name in ("moments.json", "seminorm.json"):
        assert (tmp_path / str(2**70) / name).read_bytes() == (tmp_path / "0" / name).read_bytes()


def test_cli_simulate_past_the_free_disk_exit_two(tmp_path, capsys, monkeypatch):
    # checked before anything is written: no .bin, sidecar or partial file is left
    monkeypatch.setattr(experiments.shutil, "disk_usage", lambda path: SimpleNamespace(free=1000))
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=40))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config.simulation.ensemble / config.simulation.steps" in err
    assert "GiB free under" in err
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("spare, code", [(0, 0), (-1, 2)], ids=["fits", "one-byte-short"])
def test_cli_simulate_needs_free_disk_for_the_weights_alone(tmp_path, monkeypatch, spare, code):
    # the .bin is the 8 M k bytes of the weights, not the field: that much free space is enough
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=40))
    weights = 8 * 40 * build_regularity(load_config(path, simulate=True)).saved[-1]
    monkeypatch.setattr(experiments.shutil, "disk_usage",
                        lambda path: SimpleNamespace(free=weights + spare))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    written = sorted(p.name for p in (tmp_path / "o").iterdir())
    assert written == (["ensemble.bin", "ensemble.json"] if code == 0 else [])


def test_failed_simulate_leaves_the_previous_ensemble(tmp_path, monkeypatch, capsys):
    # the new .bin and sidecar are renamed over the old ones only when both are complete
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=40))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["ensemble.bin", "ensemble.json"]
    side = json.loads(before["ensemble.json"])

    def stopped(*args, **kwargs):  # the write fails after the new .bin was written
        assert (out / "ensemble.bin.partial").stat().st_size == 8 * 60 * side["weights"][1]
        raise OSError("stopped mid-write")

    monkeypatch.setattr(convolution.json, "dump", stopped)
    path = _write(tmp_path, _with(SIM_BROWNIAN, "simulation", ensemble=60), name="cfg2.json")
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert "OSError: stopped mid-write" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_emit_plots_takes_no_seed(tmp_path, capsys):
    # emit-plots reads a finished report: a seed would be accepted and ignored
    report = str(tmp_path / "report.json")
    with pytest.raises(SystemExit) as exc:
        main(["emit-plots", "--report", report, "--out", str(tmp_path / "p"), "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_cli_emit_plots_roundtrip(tmp_path):
    path = _write(tmp_path, SMALL_AUDIT)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
    code = main(["emit-plots", "--report", str(tmp_path / "r" / "report.json"),
                 "--out", str(tmp_path / "p")])
    assert code == 0
    assert (tmp_path / "p" / "manifest.json").exists()


@pytest.mark.parametrize("text", [
    '{"a": 1}', "[1, 2]", '{"modules": {"conditions": {"increment": {"pairs": [0.5]}}}}',
    "not json",
], ids=["no-modules", "list", "conditions-without-lhs", "not-json"])
def test_cli_emit_plots_malformed_report_exit_two(tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert main(["emit-plots", "--report", str(report), "--out", str(tmp_path / "p")]) == 2
    assert f"config error: --report {report}: not a holderlab report" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("command, flag", [
    ("run", "--config"), ("audit-kernel", "--config"), ("simulate", "--config"),
    ("moments", "--ensemble"), ("seminorm", "--ensemble"), ("emit-plots", "--report"),
])
def test_cli_missing_input_file_exit_two(tmp_path, capsys, command, flag):
    # exit 1 means a verdict failed; a file that is not there is a configuration error
    missing = str(tmp_path / "missing" / "input")
    assert main([command, flag, missing, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {flag} {missing}: No such file or directory" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    if flag == "--config":  # so is a config that is not JSON
        bad = tmp_path / "config.json"
        bad.write_text("{'seed': 1}")
        assert main([command, flag, str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {flag} {bad}: not JSON (" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# --- config -> pipeline builder ------------------------------------------

_WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                   st.lists(st.integers(), max_size=2),
                   st.sampled_from([float("nan"), float("inf")]))


def _field(good):
    # mostly well-typed values, so many configs reach the builder's own checks
    return st.integers(0, 9).flatmap(lambda i: _WRONG if i == 0 else good)


def _regularity_configs(field, alpha, steps, grid_points, ensemble, pairs_per_lag, **fixed):
    def section(**fields):
        return st.fixed_dictionaries({}, optional={k: field(v) for k, v in fields.items()})

    sections = {
        "seed": field(st.integers(0, 2**32)),
        "kernel": section(alpha=alpha, epsilon=st.floats(-0.5, 1.0),
                          dim=st.sampled_from([0, 1, 1, 1, 2, 3])),
        "simulation": section(
            horizon=st.floats(-1.0, 4.0), steps=steps, grid_points=grid_points,
            grid_length=st.floats(-1.0, 8.0), ensemble=ensemble),
        "moments": section(
            p=st.floats(0.5, 4.0), beta=st.floats(-0.2, 1.2),
            amplitude=st.floats(-2.0, 2.0), lag_k_min=st.integers(-1100, 12),
            lag_k_max=st.integers(-3, 12), pairs_per_lag=pairs_per_lag),
    }
    noise = section(intensity=st.floats(-1.0, 20.0), mark_parameter=st.floats(-1.0, 3.0),
                    mark_family=st.sampled_from(["two-sided-exponential", "gaussian", "cauchy"]))
    fixed = {key: st.just(value) for key, value in fixed.items()}
    # noise only where it is read: the brownian preset refuses it
    return st.one_of(
        st.fixed_dictionaries({"experiment": st.just("brownian-regularity"), **fixed},
                              optional=sections),
        st.fixed_dictionaries({"experiment": st.just("poisson-regularity"), **fixed},
                              optional={**sections, "noise": noise}))


REGULARITY_CONFIGS = _regularity_configs(
    _field, alpha=st.floats(-0.5, 2.5), steps=st.integers(-2, 4096),
    grid_points=st.sampled_from([-2, 0, 63, 64, 512, 1024]), ensemble=st.integers(-2, 4096),
    pairs_per_lag=st.integers(-2, 512))

# Well-typed values (the build test draws the ill-typed ones) at sizes a full run finishes
# in about a second.  alpha stays >= 0.9 or out of range: the condition quadrature's
# lattice grows like 7000^(1/alpha) points, too slow or too large below that.
SMALL_REGULARITY_CONFIGS = _regularity_configs(
    lambda good: good, alpha=st.one_of(st.floats(0.9, 2.5), st.sampled_from([-0.5, 0.0])),
    steps=st.integers(-2, 256), grid_points=st.sampled_from([-2, 0, 63, 64, 256, 512]),
    ensemble=st.integers(-2, 160), pairs_per_lag=st.integers(-2, 48),
    conditions=SMALL_BROWNIAN["conditions"])


@settings(max_examples=300, deadline=None)
@given(data=REGULARITY_CONFIGS)
def test_regularity_configs_build_or_config_error(tmp_path_factory, data):
    # any other exception escaping load or build fails the test
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    path.write_text(json.dumps(data))
    try:
        pieces = build_regularity(load_config(path))
    except ConfigError:
        return
    assert pieces.kernel.dim == 1 and pieces.grid.dim == 1
    assert pieces.lags and 0 <= pieces.saved[0] and pieces.saved[-1] <= pieces.noise.steps


# kernel-audit, fractional-sweep and embedding-check configs, well-typed and mostly valid, at
# sizes a full run finishes in about a second: alpha >= 0.9 or out of range, no 2-D audit
# (5.7 s), mesh_points <= 64 and lags 4..7 (0.73 s for one audit at alpha = 0.9)
def _mostly(good, bad):
    return st.sampled_from([good] * 7 + [bad]).flatmap(lambda strategy: strategy)


_AUDIT_ALPHA = _mostly(st.floats(0.9, 2.0), st.sampled_from([-0.5, 0.0, 2.5]))
_AUDIT_EPSILON = _mostly(st.floats(0.0, 0.4), st.floats(-0.5, 1.0))
_AUDIT_CONDITIONS = st.fixed_dictionaries(
    {"lag_k_min": st.just(4), "lag_k_max": st.just(7),
     "mesh_points": _mostly(st.sampled_from([32, 64]), st.just(8))},
    optional={"betas": _mostly(st.lists(st.floats(0.0, 0.8), min_size=1, max_size=2),
                               st.lists(st.floats(-0.2, 1.2), max_size=1)),
              "power": _mostly(st.floats(1.0, 4.0), st.floats(0.0, 1.0))})
_AUDIT_DIM = _mostly(st.just(1), st.sampled_from([0, 3]))
_AUDIT_KERNEL = st.fixed_dictionaries({}, optional={
    "alpha": _AUDIT_ALPHA, "epsilon": _AUDIT_EPSILON, "dim": _AUDIT_DIM})
SMALL_AUDIT_CONFIGS = st.one_of(
    st.fixed_dictionaries({"experiment": st.just("kernel-audit"), "kernel": _AUDIT_KERNEL,
                           "conditions": _AUDIT_CONDITIONS}),
    # the sweep takes (alpha, epsilon) from its cases: of kernel it reads dim alone
    st.fixed_dictionaries({"experiment": st.just("fractional-sweep"),
                           "kernel": st.fixed_dictionaries({}, optional={"dim": _AUDIT_DIM}),
                           "conditions": _AUDIT_CONDITIONS,
                           "sweep": st.fixed_dictionaries({"cases": _mostly(
                               st.lists(st.tuples(_AUDIT_ALPHA, _AUDIT_EPSILON), min_size=1,
                                        max_size=1), st.just([]))})}),
    st.fixed_dictionaries(
        {"experiment": st.just("embedding-check"),
         "kernel": st.fixed_dictionaries({}, optional={
             "dim": _mostly(st.sampled_from([1, 2]), st.sampled_from([0, 3]))})},
        optional={"seed": st.integers(0, 2**32), "campanato": st.fixed_dictionaries({}, optional={
            "p": _mostly(st.floats(1.0, 4.0), st.floats(0.0, 1.0)), "gamma": st.floats(-0.2, 1.2),
            "theta": st.one_of(st.none(), st.floats(0.5, 3.0)),
            "budget": _mostly(st.sampled_from([64, 128]), st.just(32)),
            "n_centers": _mostly(st.sampled_from([1, 12]), st.sampled_from([-1, 0])),
            "n_scales": st.sampled_from([0, 3, 5]),
            "top_scale": _mostly(st.sampled_from([0.05, 0.2]), st.sampled_from([-0.1, 0.0]))})}),
)


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _run_exits_with_its_code(tmp_path_factory, data):
    # a drawn config runs, writing a report that is valid JSON and exiting 0 or 1 by its
    # verdicts, or fails with a typed error: exit 2 for a ConfigError, 3 for any other
    # HolderLabError; other exceptions fail here
    out = tmp_path_factory.mktemp("run")
    path = out / "drawn.json"
    path.write_text(json.dumps(data))
    try:
        load_config(path)
    except ConfigError:
        loads = False
    else:
        loads = True
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(out)])
    if not loads:
        assert code == 2, err.getvalue()
    elif (out / "report.json").exists():
        assert code == (0 if _strict_json((out / "report.json").read_text())["passed"] else 1)
    else:
        marker = json.loads((out / "FAILED.json").read_text())
        assert issubclass(getattr(errors, marker["error"], Exception), HolderLabError), \
            f"untyped failure: {err.getvalue()}"
        assert code == (2 if marker["invalid_config"] else 3), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(data=SMALL_REGULARITY_CONFIGS)
@example(data={"experiment": "poisson-regularity",  # the mark variance underflows to 0
               "noise": {"mark_parameter": 7.71593441431373e-245},
               "conditions": SMALL_BROWNIAN["conditions"]})
@example(data=_with(SMALL_POISSON, "noise",  # marks of scale 4e105, past float32
                    mark_parameter=2.4402243716812903e-106, intensity=1.0))
@example(data=_with(SMALL_BROWNIAN, "moments", pairs_per_lag=1))  # stderr over one pair
@example(data=_with(SMALL_BROWNIAN, "moments", lag_k_max=3))  # three lags, fit needs four
def test_regularity_configs_run_or_exit_with_their_code(tmp_path_factory, data):
    _run_exits_with_its_code(tmp_path_factory, data)


@settings(max_examples=40, deadline=None)
@given(data=SMALL_AUDIT_CONFIGS)
def test_audit_and_embedding_configs_run_or_exit_with_their_code(tmp_path_factory, data):
    _run_exits_with_its_code(tmp_path_factory, data)


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_package_exports_resolve():
    # every name holderlab.__all__ lists is importable, once, through a star import
    import holderlab

    namespace = {}
    exec("from holderlab import *", namespace)
    assert len(set(holderlab.__all__)) == len(holderlab.__all__)
    for name in holderlab.__all__:
        assert namespace[name] is getattr(holderlab, name)


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter, with this environment (PYTHONDONTWRITEBYTECODE included)
    import holderlab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(holderlab.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, holderlab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_benchmark_tracer_targets_resolve(tmp_path):
    # perfbench/tracer.py wraps these names from outside the package
    tracer = _load_tracer()
    for module, attr, _, _ in tracer.TARGETS:
        obj = importlib.import_module(f"holderlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"holderlab.{module}.{attr}"

    def installed(module, attr):  # what install() replaces: the defining namespace's entry
        owner = importlib.import_module(f"holderlab.{module}")
        *cls, name = attr.split(".")
        for part in cls:
            owner = getattr(owner, part)
        return vars(owner)[name]

    originals = [installed(module, attr) for module, attr, _, _ in tracer.TARGETS]
    # the builder's simulate step looks convolve_* up at call time, so a
    # traced run still records it
    cfg = load_config(_write(tmp_path, SMALL_BROWNIAN))
    t = tracer.Tracer()
    t.install()
    try:
        # a target that install() binds nowhere would be traced as zero calls, not as an error
        replaced = [original for _, _, original in t._patched]
        assert [target[:2] for target, original in zip(tracer.TARGETS, originals)
                if not any(r is original for r in replaced)] == []
        build_regularity(cfg).simulate(2, sink=str(tmp_path / "ensemble"))
    finally:
        t.uninstall()
    assert [s[0] for s in t.spans].count("convolution.convolve") == 1


@pytest.mark.parametrize("config", [SMALL_BROWNIAN, SMALL_POISSON],
                         ids=["brownian", "poisson"])
def test_regularity_preset_runs_under_the_benchmark_tracer(tmp_path, monkeypatch, config):
    # perfbench/tracer.py reads .values and .time_indices of what convolve_* returns
    cfg = load_config(_write(tmp_path, config))
    pieces = build_regularity(cfg)
    built = []  # the Monte Carlo values and the oracle share one slab-difference table
    slab_differences = convolution._slab_differences
    monkeypatch.setattr(convolution, "_slab_differences",
                        lambda *args: built.append(1) or slab_differences(*args))
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.run_id = config["experiment"]
    t.install()
    try:
        run_experiment(cfg, out_dir=tmp_path / "out")
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    assert names.count("convolution.convolve") == 1
    assert names.count("moments.estimate") == 1
    assert names.count("convolution.oracle") == 1
    layers = t.summary(config["experiment"])
    n_pairs = config["moments"]["pairs_per_lag"] * len(pieces.lags)
    M = config["simulation"]["ensemble"]
    assert layers["convolution.realizations"] == M
    assert layers["convolution.saved_times"] == len(pieces.saved)
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, config["moments"]["pairs_per_lag"],
                                seed=cfg.seed)
    k = int(max(pairs.t_idx1.max(), pairs.t_idx2.max()))
    assert layers["convolution.ensemble_bytes"] == M * k * 8  # the slab weights the pairs read
    assert layers["moments.pairs"] == n_pairs
    assert layers["convolution.oracle_pairs"] == n_pairs  # the preset's p = 2 oracle
    assert len(built) == 1


def test_regularity_run_never_holds_the_full_field(tmp_path):
    data = json.loads(json.dumps(SMALL_BROWNIAN))
    data["simulation"]["ensemble"] = 400
    cfg = load_config(_write(tmp_path, data))
    pieces = build_regularity(cfg)
    full_block = 400 * len(pieces.saved) * pieces.grid.points * 4  # float32 (M, saved, n)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_block


def test_lattice_pairs_equal_pairs_drawn_from_the_simulated_ensemble(tmp_path):
    cfg = load_config(_write(tmp_path, SMALL_BROWNIAN))
    pieces = build_regularity(cfg)
    ens = pieces.simulate(2, sink=str(tmp_path / "ensemble"))
    a = sample_pairs_dyadic(pieces.lattice, pieces.lags, 48, seed=cfg.seed)
    b = sample_pairs_dyadic(ens, pieces.lags, 48, seed=cfg.seed)
    for name in ("t_idx1", "s_idx1", "t_idx2", "s_idx2", "delta", "requested_delta"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


# the grid case fits its one real array (4 GiB), but not the temporaries that any reader of the
# weights builds for one chunk of 3 lags on 2^29 points (48 GiB)
@pytest.mark.parametrize("simulation", [{"ensemble": 10**8}, {"grid_points": 2**29}])
def test_simulation_beyond_physical_memory_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                             simulation):
    def not_reached(*args, **kwargs):
        raise AssertionError("work started before the memory check")

    monkeypatch.setattr(experiments, "convolve_brownian", not_reached)
    monkeypatch.setattr(experiments, "sample_pairs_dyadic", not_reached)
    monkeypatch.setattr(experiments, "_audit_one", not_reached)
    path = _write(tmp_path, {"experiment": "brownian-regularity", "simulation": simulation})
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config.simulation.ensemble / config.simulation.grid_points" in err
    assert "physical memory" in err
    assert not (tmp_path / "out" / "ensemble.bin").exists()

    small = json.loads(json.dumps(SMALL_BROWNIAN))
    small["simulation"].update(simulation)
    with pytest.raises(ConfigError, match="physical memory"):
        run_experiment(load_config(_write(tmp_path, small)), out_dir=tmp_path / "run")
    marker = json.loads((tmp_path / "run" / "FAILED.json").read_text())
    assert marker["stage"] == "setup" and marker["invalid_config"]


def test_simulation_counts_one_chunk_of_lag_symbols(tmp_path):
    # 30 realizations of 2^14 steps on 2^20 points: their (k + 1, F) lag symbols up to the last
    # saved index 12,288 would be 52 GB, but any reader builds them one chunk of 3 lags at a
    # time, so the count is the weights, that chunk and its temporaries: about 0.1 GB
    sim = {**SIM_BROWNIAN["simulation"], "grid_points": 2**20, "steps": 2**14, "ensemble": 30}
    pieces = build_regularity(load_config(_write(tmp_path, {**SIM_BROWNIAN, "simulation": sim})))
    k, n = pieces.saved[-1], 2**20
    assert k == 12288
    weights, chunk, temporaries = 8 * 30 * k, 8 * 3 * (n // 2 + 1), 32 * 3 * n
    assert pieces.require_memory(30) == weights + chunk + temporaries < 2**27


@pytest.mark.parametrize("command, groups", [("moments", 5), ("seminorm", 4)])
def test_cli_pairs_past_physical_memory_exit_two_before_the_bin_is_read(tmp_path, capsys,
                                                                         monkeypatch, command,
                                                                         groups):
    # 10^15 pairs at each of the default 5 lags or 4 scales are counted (check_memory,
    # PAIR_BYTES each) far past physical memory: exit 2 naming --pairs, before the .bin is read
    # or a pair is drawn
    prefix = str(tmp_path / "ensemble")
    assert main(["simulate", "--config", str(_write(tmp_path, SIM_BROWNIAN)),
                 "--out", str(tmp_path)]) == 0

    def not_reached(*args, **kwargs):
        raise AssertionError("the ensemble was read or pairs drawn before the memory check")

    monkeypatch.setattr(np, "fromfile", not_reached)
    monkeypatch.setattr(cli, "sample_pairs_dyadic", not_reached)
    monkeypatch.setattr(cli, "sample_pairs_within_cylinder", not_reached)
    argv = [command, "--ensemble", prefix, "--pairs", str(10**15), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--pairs {10**15}: 120 realizations on 512 points and {groups * 10**15} pairs" in err
    assert "physical memory" in err and not (tmp_path / "o").exists()


def test_poisson_paths_beyond_physical_memory_are_a_config_error(tmp_path, capsys, monkeypatch):
    # a path of 1e10 events holds about 640 GB: counted from the intensity, never drawn
    def not_reached(*args, **kwargs):
        raise AssertionError("a Poisson path was drawn before the memory check")

    monkeypatch.setattr(noise, "sample_path", not_reached)
    path = _write(tmp_path, _with(SIM_POISSON, "noise", intensity=1e10))
    for command in (["simulate", "--kind-preset", "poisson-regularity"], ["run"]):
        assert main([*command, "--config", str(path), "--out", str(tmp_path / command[0])]) == 2
        err = capsys.readouterr().err
        assert "config.noise.intensity" in err and "1e+10 events" in err
    marker = json.loads((tmp_path / "run" / "FAILED.json").read_text())
    assert marker["stage"] == "setup" and marker["invalid_config"]


@pytest.mark.parametrize("config", [
    SMALL_BROWNIAN,
    pytest.param(SMALL_POISSON, marks=pytest.mark.xfail(strict=True, reason=(
        "lag 0.0625 sits 3.56 stderr_realizations below the oracle: over 120 realizations "
        "the skewed Poisson lag means understate their spread; with 2000 every |z| <= 1.51"))),
], ids=["brownian", "poisson"])
def test_monte_carlo_lag_means_agree_with_the_oracle(tmp_path, config):
    # both routes read the same slab differences, so their expectations are equal exactly
    report = run_experiment(load_config(_write(tmp_path, config)))
    moments = report.modules["moments"]
    for row, oracle in zip(moments["per_lag"], moments["oracle_per_lag"], strict=True):
        assert row["lag"] == oracle["lag"]
        assert abs(row["mean"] - oracle["mean"]) <= 3.0 * row["stderr_realizations"], row["lag"]


@pytest.mark.parametrize("config", [SMALL_BROWNIAN, SMALL_POISSON], ids=["brownian", "poisson"])
def test_monte_carlo_lag_means_within_three_exact_standard_errors(tmp_path, config):
    # a lag mean is (1/M) sum_m w_m^T A w_m with A = D^T D / n over the lag's n pairs; for
    # independent centered slab weights Var(w^T A w) = 2 k2^2 |A|_F^2 + k4 sum_k A_kk^2
    cfg = load_config(_write(tmp_path, config))
    pieces = build_regularity(cfg)
    pairs = sample_pairs_dyadic(pieces.lattice, pieces.lags, cfg.moments.pairs_per_lag,
                                seed=cfg.seed)
    k2, k4 = (slab_cumulant(pieces.noise, n) for n in (2, 4))
    moments = run_experiment(cfg).modules["moments"]
    for row, oracle in zip(moments["per_lag"], moments["oracle_per_lag"], strict=True):
        sel = pairs.requested_delta == row["lag"]
        d = convolution._slab_differences(pieces.kernel, pieces.grid, pieces.g, pieces.noise,
                                          pairs.t_idx1[sel], pairs.s_idx1[sel],
                                          pairs.t_idx2[sel], pairs.s_idx2[sel]).rows()
        n = d.shape[0]
        frobenius2 = np.sum((d @ d.T) ** 2) / n**2  # |D^T D|_F = |D D^T|_F
        diagonal2 = np.sum((np.einsum("nk,nk->k", d, d) / n) ** 2)
        stderr = np.sqrt((2.0 * k2**2 * frobenius2 + k4 * diagonal2) / cfg.simulation.ensemble)
        assert row["lag"] == oracle["lag"]
        assert abs(row["mean"] - oracle["mean"]) <= 3.0 * stderr, row["lag"]
