#!/usr/bin/env python3
"""The repository benchmark: build the program and run one workload, every
workload, or compare two result sets.

One run:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

prints human-readable tables, then one JSON result line last. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics. The exit code is nonzero when any
output failed its check.

Every workload, with a result set written for later comparison:

    python3 perfbench/run.py --all --seed 1 --runs 10 --seconds 15 --out new.jsonl

Compare two result sets (for example parent and change):

    python3 perfbench/run.py --compare old.jsonl new.jsonl

Run from the root of a checkout. Builds go to ``$CARGO_TARGET_DIR``
(default ``.bench_build``); disk logs and span dumps to ``.bench_out``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep", "symmetric", "hot-read", "churn"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    """$CARGO_TARGET_DIR (relative to the caller's directory), else .bench_build."""
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds bi-serve, bi-router and the benchmark binary in release mode."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "service")
    ):
        fail(f"{ROOT} is not a checkout of the program (no Cargo.toml / crates/)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bi-service",
         "--bin", "bi-serve", "--bin", "bi-router"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(target_dir(), "release")


def run_once(release, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [
        os.path.join(release, "bi-perfbench"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--bin-dir", release,
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(records, metrics):
    """Prints median, quartiles and run count per workload and metric."""
    for workload in WORKLOADS:
        rows = [r for r in records if r["workload"] == workload]
        if not rows:
            continue
        print(f"\n{workload}: {len(rows)} runs, "
              f"{sum(r['result']['failed'] for r in rows)} failed of "
              f"{sum(r['result']['attempted'] for r in rows)} attempted")
        print(f"  {'metric':<32} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4} {'iqr/med':>8}")
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows
                    if m["name"] in r["result"]["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {m['name']:<32} {m['unit']:>6} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{len(vals):>4} {spread:>8.4f}")


def run_all(args):
    release = build()
    bench = load_benchmark()
    records = []
    ok = True
    for workload in WORKLOADS:
        for i in range(args.runs):
            seed = args.seed + i
            code, result = run_once(release, workload, seed, args.seconds, 0, echo=args.verbose)
            if result is None or code != 0 or not result["correct"]:
                ok = False
                print(f"perfbench: {workload} seed {seed} failed (exit {code})")
            if result is not None:
                records.append({"workload": workload, "seed": seed, "trace": 0, "result": result})
    summarize(records, bench["end_to_end"])
    if args.traced:
        for workload in WORKLOADS:
            print(f"\n{workload}: traced run")
            code, result = run_once(release, workload, args.seed, args.seconds, 1, echo=True)
            ok = ok and code == 0 and result is not None and result["correct"]
            if result is not None:
                records.append({"workload": workload, "seed": args.seed, "trace": 1, "result": result})
    if args.out:
        with open(args.out, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")
    return 0 if ok else 1


def read_set(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def verdict(old, new, better, bound):
    """The verdict of one metric on one workload; see choosing-metrics §8.

    old and new map seed -> value, in run order. Runs pair up by seed; two
    sets run on different seeds pair up in run order instead. Returns
    (verdict, win fraction)."""
    sign = 1.0 if better == "higher" else -1.0
    common = sorted(set(old) & set(new))
    if common:
        pairs = [(old[s], new[s]) for s in common]
    else:
        pairs = list(zip(old.values(), new.values()))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    win_frac = wins / len(pairs) if pairs else float("nan")
    q1o, medo, q3o = quartiles(list(old.values()))
    _, medn, _ = quartiles(list(new.values()))
    spread = (q3o - q1o) / abs(medo) if medo else float("inf")
    all_better = all(sign * (b - a) > 0 for a in old.values() for b in new.values())
    if pairs and win_frac >= 0.9 and sign * (medn - medo) > (q3o - q1o):
        return "improved", win_frac
    if spread > bound and not all_better:
        return "unresolved", win_frac
    worse_by = sign * (medo - medn) / abs(medo) if medo else 0.0
    if worse_by > bound:
        return "worse", win_frac
    return "no worse than bound", win_frac


def compare(args):
    bench = load_benchmark()
    old, new = read_set(args.compare[0]), read_set(args.compare[1])
    status = 0
    for workload in WORKLOADS:
        o_rows = [r for r in old if r["workload"] == workload and r["trace"] == 0]
        n_rows = [r for r in new if r["workload"] == workload and r["trace"] == 0]
        if not o_rows or not n_rows:
            continue
        print(f"\n{workload}: {len(o_rows)} old runs, {len(n_rows)} new runs")
        print(f"  {'metric':<20} {'old median':>12} {'old q1..q3':>25} {'new median':>12} "
              f"{'new q1..q3':>25} {'win':>5}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            ov = {r["seed"]: r["result"]["metrics"][name]["value"] for r in o_rows}
            nv = {r["seed"]: r["result"]["metrics"][name]["value"] for r in n_rows}
            v, win = verdict(ov, nv, m["better"], m["bound"])
            if v == "worse":
                status = 1
            oq1, omed, oq3 = quartiles(list(ov.values()))
            nq1, nmed, nq3 = quartiles(list(nv.values()))
            print(f"  {name:<20} {omed:>12.4f} {oq1:>12.4f}..{oq3:<12.4f} {nmed:>12.4f} "
                  f"{nq1:>12.4f}..{nq3:<12.4f} {win:>5.2f}  {v}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload --runs times")
    p.add_argument("--runs", type=int, default=1, help="runs per workload with --all (seeds seed, seed+1, ...)")
    p.add_argument("--traced", action="store_true", help="with --all, add one traced run per workload")
    p.add_argument("--out", help="with --all, write the result set (JSON lines) here")
    p.add_argument("--verbose", action="store_true", help="with --all, echo every run's tables")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result sets")
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(args))
    if args.all:
        sys.exit(run_all(args))
    if not args.workload:
        fail("give --workload, --all or --compare")
    release = build()
    code, _ = run_once(release, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
