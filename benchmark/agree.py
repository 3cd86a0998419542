#!/usr/bin/env python3
"""Do two sets of runs of the same code agree within the benchmark's own bounds?

Runs every workload of BENCHMARK.json `--runs` times per set, two sets, the
workload order reversed on every other pass, each run with another seed (the
same seeds in both sets). For every end-to-end metric x workload it prints
the two medians, their ratio, each set's spread (distance between the first
and third quartile of `statistics.quantiles(values, n=4)`, as a share of the
median) and the bound, and fails when

  * set B's median is worse than set A's by more than the bound,
  * a spread (except `setup_s`'s) exceeds the bound,
  * any run failed an op or exited non-zero.

Then one traced run per workload and set, same seed: every `model.*`
(virtual-time) metric must be bit-identical between the sets, and so must
`simnet.events_per_op`.

Run from the repository root:  python3 benchmark/agree.py [--runs 10]
`--dump FILE` also writes every value of every run as JSON, for citing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_PREFIXES = ("model.",)
EXACT_NAMES = ("simnet.events_per_op",)


def run(workload, seed, seconds, trace):
    cmd = CONTRACT["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--seconds", type=int, default=CONTRACT["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--dump", help="write every run's values to this JSON file")
    args = ap.parse_args()

    workloads = [w["name"] for w in CONTRACT["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = CONTRACT["end_to_end"]

    sets = []
    for s in range(2):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(args.runs):
            order = workloads if (s + i) % 2 == 0 else workloads[::-1]
            for w in order:
                got = run(w, args.seed + i, args.seconds, 0)
                for name, v in got.items():
                    values[w][name].append(v)
                print(f"set {'AB'[s]} run {i} {w}: "
                      + ", ".join(f"{k}={v:.6g}" for k, v in got.items()), flush=True)
        sets.append(values)

    bad = 0
    print(f"\n{'workload':<16} {'metric':<16} {'median A':>12} {'median B':>12} "
          f"{'B/A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            a, b = sets[0][w][m["name"]], sets[1][w][m["name"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb / ma - 1) if m["better"] == "lower" else (ma / mb - 1)
            sa, sb = (spread(a), spread(b)) if args.runs >= 2 else (0.0, 0.0)
            verdict = []
            if worse > m["bound"]:
                verdict.append("MEDIANS DISAGREE")
            if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
                verdict.append("SPREAD OVER BOUND")
            elif m["name"] != "setup_s" and max(sa, sb) > m["bound"] / 3:
                verdict.append("(spread over a third of the bound)")
            bad += any(v.isupper() for v in verdict)
            print(f"{w:<16} {m['name']:<16} {ma:>12.6g} {mb:>12.6g} {mb / ma:>8.4f} "
                  f"{sa:>9.4f} {sb:>9.4f} {m['bound']:>6}  {' '.join(verdict) or 'ok'}")

    print("\ntraced runs, same seed in both sets: virtual time and event counts must repeat")
    traced = {}
    for w in workloads:
        a = run(w, args.seed, args.seconds, 1)
        b = run(w, args.seed, args.seconds, 1)
        traced[w] = [a, b]
        for name in a:
            if name.startswith(EXACT_PREFIXES) or name in EXACT_NAMES:
                same = a[name] == b[name]
                bad += not same
                print(f"{w:<16} {name:<28} {a[name]!r:>22} {b[name]!r:>22}  "
                      f"{'ok' if same else 'DIFFERS'}")
        print(f"{w:<16} trace.overhead_frac {a['trace.overhead_frac']:.4f} / "
              f"{b['trace.overhead_frac']:.4f}, trace.layer_sum_frac "
              f"{a['trace.layer_sum_frac']:.4f} / {b['trace.layer_sum_frac']:.4f}")

    if args.dump:
        Path(args.dump).write_text(json.dumps({"end_to_end": sets, "per_layer": traced}, indent=1))
    print("\nagree: " + ("PASS" if bad == 0 else f"FAIL ({bad} disagreements)"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
