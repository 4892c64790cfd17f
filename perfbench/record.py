#!/usr/bin/env python3
"""Records one results file: every workload untraced and traced at one seed.

Run from the repository root after building the benchmark:

    python3 perfbench/record.py --label baseline [--seed 2007] [--seconds 20]

It writes perfbench/results/BENCH_<label>.json with every metric each run
printed (value, unit, samples), the property report, and the git revision,
date, core count and `rustc -V` of the machine that ran it.
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys

WORKLOADS = ["device-admit", "signoff-sweep", "serve-remote"]
ROW = re.compile(r"^  (\S+)\s+(-?[0-9.]+)\s+(\S+)\s+(\d+)$")


def command(*args):
    return subprocess.run(args, capture_output=True, text=True, check=True).stdout.strip()


def run(bench, workload, seed, seconds, trace):
    proc = subprocess.run(
        [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {}
    for line in lines:
        m = ROW.match(line)
        if m:
            metrics[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3),
                                   "samples": int(m.group(4))}
    # The JSON line carries the declared metrics with all their digits.
    for name, metric in result["metrics"].items():
        metrics.setdefault(name, {"unit": metric["unit"]})["value"] = metric["value"]
    return {
        "exit_status": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "properties": [l.split("property: ", 1)[1] for l in lines if "property: " in l],
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    bench = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release", "perfbench")
    record = {
        "label": args.label,
        "git_rev": command("git", "rev-parse", "HEAD"),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "rustc": command("rustc", "-V"),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": {},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            key = f"{workload} {'traced' if trace else 'untraced'}"
            print(f"running {key}", file=sys.stderr)
            record["runs"][key] = run(bench, workload, args.seed, args.seconds, trace)
    os.makedirs("perfbench/results", exist_ok=True)
    path = f"perfbench/results/BENCH_{args.label}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(path)


if __name__ == "__main__":
    main()
