#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 hostbench/spread.py --workload ior-grid --seeds 1-10 --seconds 20

For every metric of the result line it prints the median of the runs and
the distance between the first and third quartile as a share of the
median, as statistics.quantiles(values, n=4) gives them.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for s in seeds(args.seeds):
        cmd = ["bash", "hostbench/run.sh", "--workload", args.workload, "--seed", str(s),
               "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(lines[-1])
        print(f"seed {s}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{args.workload} {k}: median {med:.6g}, quartile spread {spread:.4f}")


if __name__ == "__main__":
    main()
