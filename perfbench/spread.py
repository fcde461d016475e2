#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median and
run-to-run spread (interquartile range as a share of the median).

    python3 perfbench/spread.py --workload survey_mem --seeds 1-10 [--seconds 10] [--trace 0]

Run from the repository root; the benchmark binary is built first.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="first-last, inclusive")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    cmd = ["cargo", "run", "-q", "--release", "--offline", "--manifest-path", manifest, "--"]
    values = {}
    units = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not line.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        result = json.loads(line)
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: output checks failed: {out.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {result['attempted']}", file=sys.stderr)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        runs = " ".join(f"{v:.4g}" for v in vals)
        print(f"{name:<30} median {med:>12.6g} {units[name]:<6} spread {spread:7.2%}  [{runs}]")


if __name__ == "__main__":
    main()
