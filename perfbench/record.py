"""Record perfbench/reference.json from the checked-out holderlab.

    python3 perfbench/record.py --seeds 0-15,2024-2028

Runs one untraced pass of every workload per seed and one traced pass per
workload, and writes what run.py checks: the exit code and the
seed-independent verdicts and outputs of every operation, the verdicts
that differ between seeds, the Monte Carlo outputs
per recorded seed with a band for other seeds, and the traced call counts
of the self-test.  Re-record only when a change of outputs was accepted.
"""

from __future__ import annotations

import argparse
import json
import subprocess

from child import OPS
from run import BENCH, ROOT, RUN_LIMIT_S, child_env, run_child

# Traced counts that prove every call site of the layers is patched.
SELF_TEST = {
    "kernel-audit": ("kernels.symbol.calls", "conditions.weighted_l1.calls",
                     "conditions.weighted_l1_increment.calls"),
    "fractional-sweep": ("kernels.symbol.calls", "conditions.weighted_l1.calls",
                         "conditions.weighted_l1_increment.calls"),
    "brownian-regularity": ("noise.sample_path.calls",),
    "poisson-regularity": ("noise.sample_path.calls",),
}
BAND_WIDTHS = 2.0  # other seeds may lie this many recorded ranges outside it


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    args = parser.parse_args()
    env = child_env()
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    refs = {"commit": commit, "ops": {}, "seeded": {}, "seeded_verdicts": {},
            "bands": {}, "counts": {}}
    verdicts = {}
    for workload in OPS:
        for seed in args.seeds:
            res = run_child(work, env, workload, seed, RUN_LIMIT_S)
            if res is None:
                raise SystemExit(f"{workload} seed {seed}: the pass died")
            for rec in res["ops"]:
                name = rec["op"]
                if rec["error"] is not None:
                    raise SystemExit(f"{workload} seed {seed}: {name}: {rec['error']}")
                fixed = {"exit_code": rec["exit_code"], "exact": rec["exact"]}
                if refs["ops"].setdefault(name, fixed) != fixed:
                    raise SystemExit(f"{name}: seed-independent outputs vary with the seed")
                if rec["seeded"]:
                    refs["seeded"].setdefault(name, {})[str(seed)] = rec["seeded"]
                verdicts.setdefault(name, {})[str(seed)] = rec.get("verdicts")
            print(workload, seed, "recorded", flush=True)
        res = run_child(work, env, workload, args.seeds[0], RUN_LIMIT_S,
                        trace_path=work / f"spans-{workload}.json")
        for name, layer in res["counts_by_op"].items():
            if name in SELF_TEST:
                refs["counts"][name] = {k: layer[k] for k in SELF_TEST[name]}
    for name, per_seed in verdicts.items():
        # a verdict that differs between recorded seeds is checked per seed
        rows = list(per_seed.values())
        if rows[0] is None:
            refs["ops"][name]["verdicts"] = None
            continue
        refs["ops"][name]["verdicts"] = [
            row[0] if len(set(row)) == 1 else None for row in zip(*rows)]
        if None in refs["ops"][name]["verdicts"]:
            refs["seeded_verdicts"][name] = per_seed
    for name, per_seed in refs["seeded"].items():
        bands = {}
        for key in next(iter(per_seed.values())):
            values = [row[key] for row in per_seed.values()]
            width = BAND_WIDTHS * (max(values) - min(values))
            bands[key] = [min(values) - width, max(values) + width]
        refs["bands"][name] = bands
    (BENCH / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
