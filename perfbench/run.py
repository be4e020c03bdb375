"""holderlab benchmark: one command for every speed claim.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh
process (perfbench/child.py) that imports holderlab from src/, as the
test command does, with a fixed BLAS/OpenMP thread count.  Passes repeat
until --seconds have gone by, and never fewer than two, so that every run
also checks that one (workload, seed) gives byte-identical outputs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
passes.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead.  Outputs
of every pass are checked against perfbench/reference.json.  Lines before
the last describe the environment, every pass and every failed check; the
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from child import OPS, monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# BLAS/OpenMP threads per pass.  With two BLAS threads on the two shared
# cores, wall_s spread 15% between runs, against 6% with one.
THREADS = 1
SETUP_PROBES = 2  # extra set-up-only processes per untraced run
MIN_PASSES = 2
RUN_LIMIT_S = 170  # no pass may run past this many seconds after the start
EXACT_REL = 1e-6  # seed-independent outputs: admits 1e-9 relative drift
SEEDED_REL = 1e-4  # Monte Carlo outputs at a recorded seed: admits 1e-5


def close(a, b, rel):
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rel) for x, y in zip(a, b))
    if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def check_op(rec, seed, refs):
    """Problems with one operation's outputs, as messages."""
    name = rec["op"]
    if rec["error"] is not None:
        return [f"{name}: {rec['error'].strip().splitlines()[-1]}"]
    ref = refs["ops"][name]
    problems = []
    if rec["exit_code"] != ref["exit_code"]:
        problems.append(f"{name}: exit code {rec['exit_code']}, expected {ref['exit_code']}")
    got = rec.get("verdicts")
    want = refs["seeded_verdicts"].get(name, {}).get(str(seed), ref["verdicts"])
    if want is None or got is None:
        agree = want is got
    else:
        agree = len(got) == len(want) and all(
            w is None or g == w for g, w in zip(got, want))
    if not agree:
        problems.append(f"{name}: verdicts {got}, expected {want} (null: either)")
    for key, want in ref["exact"].items():
        got = rec["exact"].get(key)
        if not close(got, want, EXACT_REL):
            problems.append(f"{name}: {key} = {got}, reference {want}")
    recorded = refs["seeded"].get(name, {}).get(str(seed))
    for key, (lo, hi) in refs["bands"].get(name, {}).items():
        got = rec["seeded"].get(key)
        if recorded is not None:
            if not close(got, recorded[key], SEEDED_REL):
                problems.append(f"{name}: {key} = {got}, reference {recorded[key]}")
        elif got is None or not lo <= got <= hi:
            problems.append(f"{name}: {key} = {got}, outside [{lo}, {hi}]")
    return problems


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_child(work, env, workload, seed, timeout, trace_path=None, setup_only=False):
    """One fresh process; its result.json, or None if it died or timed out."""
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(monotonic())], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=timeout, text=True)
        if proc.returncode != 0:
            print(f"pass exited {proc.returncode}:\n{proc.stdout[-2000:]}", file=sys.stderr)
            return None
        return json.loads((out / "result.json").read_text())
    except subprocess.TimeoutExpired:
        print(f"pass exceeded {timeout:.0f} s and was stopped", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)


def emit(obj):
    print(json.dumps(obj, sort_keys=True), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "holderlab" / "__init__.py").is_file():
        print(f"no holderlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((BENCH / "reference.json").read_text())
    env = child_env()
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    trace_path = work / f"spans-{args.workload}.json"
    start = monotonic()
    deadline = start + args.seconds
    limit = start + RUN_LIMIT_S

    setups = []
    probes = 0 if args.trace else SETUP_PROBES
    for i in range(max(probes, 1)):
        probe = run_child(work, env, args.workload, args.seed, limit - monotonic(),
                          setup_only=True)
        if probe is None:
            print("holderlab could not be imported; nothing was measured", file=sys.stderr)
            return 1
        if i == 0:
            emit({"environment": dict(
                probe["environment"], nproc=len(os.sched_getaffinity(0)), threads=THREADS,
                mem_total_mb=os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)})
        if probes:
            setups.append(probe["setup_s"])

    passes = []  # (traced?, result or None)
    while (len(passes) < MIN_PASSES or monotonic() < deadline) and monotonic() < limit:
        traced = bool(args.trace) and len(passes) % 2 == 1
        res = run_child(work, env, args.workload, args.seed, limit - monotonic(),
                        trace_path=trace_path if traced else None)
        passes.append((traced, res))
        summary = {"pass": len(passes), "traced": traced}
        if res is not None:
            summary.update({k: res[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")})
        emit(summary)

    # -- checks ----------------------------------------------------------------
    ops = OPS[args.workload]
    attempted = len(passes) * len(ops)
    failed_ops = set()  # (pass index, op)
    problems = []
    digests = {}
    counts = {}
    for i, (traced, res) in enumerate(passes):
        if res is None:
            failed_ops.update((i, op) for op in ops)
            problems.append(f"pass {i + 1}: process failed")
            continue
        for rec in res["ops"]:
            found = check_op(rec, args.seed, refs)
            if rec["error"] is None:
                digests.setdefault((rec["op"], json.dumps(rec["digests"])), i)
            if found:
                failed_ops.add((i, rec["op"]))
                problems.extend(f"pass {i + 1}: {p}" for p in found)
        if traced:
            for op, layer in res["counts_by_op"].items():
                got = {k: v for k, v in layer.items() if isinstance(v, int)}
                counts.setdefault(op, got)
                if got != counts[op]:
                    failed_ops.add((i, op))
                    problems.append(f"pass {i + 1}: {op}: traced counts differ between passes")
                for key, want in refs["counts"].get(op, {}).items():
                    if got.get(key) != want:
                        failed_ops.add((i, op))
                        problems.append(f"pass {i + 1}: {op}: {key} = {got.get(key)}, "
                                        f"reference {want}")
    if len(passes) < MIN_PASSES:
        problems.append(f"only {len(passes)} pass(es) within {RUN_LIMIT_S} s")
    for op in ops:
        seen = [key for key in digests if key[0] == op]
        if len(seen) > 1:
            later = max(digests[key] for key in seen)
            failed_ops.add((later, op))
            problems.append(f"{op}: outputs differ between passes of one seed")
    # -- metrics ---------------------------------------------------------------
    good = [(t, r) for t, r in passes if r is not None]
    metrics = {}
    if args.trace:
        plain = [r["wall_s"] for t, r in good if not t]
        traced_runs = [r for t, r in good if t]
        if plain and traced_runs:
            layers = {}
            for key in traced_runs[0]["layers"]:
                layers[key] = statistics.median(r["layers"][key] for r in traced_runs)
            layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced_runs)
            layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(plain)
            for m in spec["per_layer"]:
                metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    elif good:
        setups.extend(r["setup_s"] for _, r in good)
        values = {"setup_s": statistics.median(setups)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for _, r in good)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if not metrics:
        problems.append("no pass gave the metrics")
    for p in problems:
        emit({"check_failed": p})
    emit({"correct": not problems, "attempted": attempted,
          "failed": len(failed_ops), "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
