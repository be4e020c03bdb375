"""One pass of one benchmark workload, in a fresh process.

Started by run.py with holderlab importable from the checkout's src/ (the
package is not installed).  Measures set-up (process start until holderlab,
NumPy and SciPy are imported and the workload's inputs are built), then the
workload's wall time, CPU time and peak RSS, and writes them with the
checked outputs to <out>/result.json.  Output checks happen in run.py.

    python3 perfbench/child.py --workload brownian --seed 1 --out DIR \
        --t0 <CLOCK_MONOTONIC at spawn> [--trace SPANS.json] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
import traceback
from pathlib import Path


def monotonic():
    # system-wide clock, so the parent's spawn time is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- workloads ---------------------------------------------------------------
# Each workload is a list of operations; an operation is one preset run or
# one CLI step.  build() returns the operations' inputs (set-up), run()
# executes one operation, extract() reads its outputs after timing stops.
# run() looks its entry point up at call time, so that a traced pass calls
# the wrapped function.

PRESETS = {
    "audit": ("kernel-audit", "fractional-sweep", "embedding-check"),
    "brownian": ("brownian-regularity",),
    "poisson": ("poisson-regularity",),
}
OPS = dict(PRESETS, **{"ensemble-cli": ("simulate", "moments", "seminorm")})


def build(workload, seed, out):
    if workload in PRESETS:
        from holderlab.experiments import default_config

        return [(name, default_config(name, seed)) for name in PRESETS[workload]]
    ens = str(out / "ensemble")
    return [
        ("simulate", ["simulate", "--kind-preset", "brownian-regularity",
                      "--seed", str(seed), "--out", str(out)]),
        ("moments", ["moments", "--ensemble", ens, "--seed", str(seed),
                     "--out", str(out)]),
        ("seminorm", ["seminorm", "--ensemble", ens, "--seed", str(seed),
                      "--out", str(out)]),
    ]


def run(workload, name, inp, out):
    """Run one operation; returns the CLI exit code (None for presets)."""
    if workload in PRESETS:
        from holderlab.experiments import run_experiment

        run_experiment(inp, out_dir=out / name)
        return None
    from holderlab.cli import main

    return main(inp)


def extract(workload, name, out):
    """Checked values and digests of one operation's outputs."""
    if workload in PRESETS:
        path = out / name / "report.json"
        report = json.loads(path.read_text())
        exact, seeded = {}, {}
        for key, mod in sorted(report["modules"].items()):
            if key.startswith("conditions"):
                exact[f"{key}.gamma1"] = mod["fitted_gamma1"]
                exact[f"{key}.gamma2"] = mod["fitted_gamma2"]
            elif key == "moments":
                seeded["moments.fitted_gamma"] = mod["fitted_gamma"]
                seeded["moments.fitted_gamma_oracle"] = mod["fitted_gamma_oracle"]
            elif key == "campanato":
                seeded["campanato.fitted_gamma"] = mod["fitted_gamma"]
        return {"verdicts": [v["passed"] for v in report["verdicts"]],
                "exact": exact, "seeded": seeded,
                "digests": {"report.json": digest(path)}}
    if name == "simulate":
        side = json.loads((out / "ensemble.json").read_text())
        return {"exact": {"ensemble.shape": side["shape"]}, "seeded": {},
                "digests": {"ensemble.json": digest(out / "ensemble.json")}}
    if name == "moments":
        data = json.loads((out / "moments.json").read_text())
        by_lag = {}
        for lag, est in zip(data["requested_delta"], data["estimate"]):
            by_lag.setdefault(lag, []).append(est)
        seeded = {f"moments.mean_at_lag_{lag:g}": sum(v) / len(v)
                  for lag, v in sorted(by_lag.items())}
        return {"exact": {}, "seeded": seeded,
                "digests": {"moments.json": digest(out / "moments.json")}}
    data = json.loads((out / "seminorm.json").read_text())
    seeded = {f"seminorm.per_scale_{s:g}": v
              for s, v in zip(data["scales"], data["per_scale"])}
    seeded["seminorm.seminorm"] = data["seminorm"]
    return {"exact": {"seminorm.scales": data["scales"]}, "seeded": seeded,
            "digests": {"seminorm.json": digest(out / "seminorm.json")}}


def environment():
    import platform

    import numpy
    import scipy

    import holderlab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "holderlab": holderlab.__file__}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", default=None, help="write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)

    import holderlab.cli  # noqa: F401  (loads every holderlab module)
    from holderlab.errors import HolderLabError

    ops = build(args.workload, args.seed, out)
    result = {"setup_s": monotonic() - args.t0}
    if args.setup_only:
        result["environment"] = environment()
        (out / "result.json").write_text(json.dumps(result))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for name, inp in ops:
        if tracer is not None:
            tracer.run_id = name
        rec = {"op": name, "error": None, "exit_code": None}
        try:
            rec["exit_code"] = run(args.workload, name, inp, out)
        except HolderLabError as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        except Exception:  # any crash is a failed operation, not a dead run
            rec["error"] = traceback.format_exc(limit=3)
        records.append(rec)
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    for rec in records:
        if rec["error"] is None:
            try:
                rec.update(extract(args.workload, rec["op"], out))
            except (OSError, ValueError, KeyError) as exc:
                rec["error"] = f"output unreadable: {type(exc).__name__}: {exc}"
    result.update({
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        "ops": records,
    })
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["counts_by_op"] = {name: tracer.summary(name) for name, _ in ops}
        Path(args.trace).write_text(json.dumps(tracer.span_table()))
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
