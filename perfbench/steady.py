#!/usr/bin/env python3
"""Steadiness report for the end-to-end metrics of BENCHMARK.json.

Run every workload of BENCHMARK.json once per seed, each run
run_seconds long, and summarise every end-to-end metric:

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--out runs.json]

For each workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) /
median, and that spread as a share of the metric's bound. Raw values go to
--out, so two sets of runs can be compared side by side:

    python3 perfbench/steady.py --compare before.json after.json

which prints both medians and spreads and the median shift in the
metric's worse direction, as a share of the first median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: {workload} seed {seed} reported incorrect results")
    return {k: v["value"] for k, v in result["metrics"].items()}


def collect(args, bench):
    runs = {}
    for w in (w["name"] for w in bench["workloads"]):
        runs[w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs[w].append(run_once(w, seed, bench["run_seconds"]))
            print(f"  {w} seed {seed}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in runs[w][-1].items()), flush=True)
    return runs


def report(runs, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':18} {'metric':10} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'/bound':>7}")
    for w, rs in runs.items():
        for m in bounds:
            s = summary([r[m] for r in rs])
            share = s["spread"] / bounds[m]
            flag = "" if share < 1 / 3 else "  > 1/3 of bound"
            print(f"{w:18} {m:10} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {bounds[m]:6.3f} {share:7.3f}{flag}")


def compare(a_path, b_path, bench):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    print(f"{'workload':18} {'metric':10} {'median A':>12} {'median B':>12} {'spread A':>9} "
          f"{'spread B':>9} {'worse by':>9} {'bound':>6}")
    for w in a:
        if w not in b:
            continue
        for name, m in metrics.items():
            sa = summary([r[name] for r in a[w]])
            sb = summary([r[name] for r in b[w]])
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            flag = "  REGRESSION" if worse > m["bound"] else ""
            print(f"{w:18} {name:10} {sa['median']:12.6g} {sb['median']:12.6g} "
                  f"{sa['spread']:9.4f} {sb['spread']:9.4f} {worse:9.4f} {m['bound']:6.3f}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bench = spec()
    if args.compare:
        compare(*args.compare, bench)
        return
    if args.runs < 4:
        sys.exit("steady.py: quartiles need at least 4 runs")
    runs = collect(args, bench)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    report(runs, bench)


if __name__ == "__main__":
    main()
