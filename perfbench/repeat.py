#!/usr/bin/env python3
"""Runs one workload with several seeds and prints each end-to-end metric's
median and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/repeat.py --workload hit --runs 10 --seconds 10 [--first-seed 1]

Run from the repository root. Each run's JSON result line is kept in
perfbench/out/repeat-<workload>.jsonl.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def values_of(result: dict, record: dict):
    return list(result["metrics"].items()) + list(record["unlisted"].items())


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10, help="at least 2")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    if a.runs < 2:
        p.error("--runs must be at least 2")

    bounds = {m["name"]: m.get("bound") for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]} \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    shares = set()
    with open(out / f"repeat-{a.workload}.jsonl", "w") as log:
        for i in range(a.runs):
            seed = a.first_seed + i
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", a.workload,
                 "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if done.returncode != 0:
                print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads((out / f"result-{a.workload}-seed{seed}-trace0.json")
                                .read_text())
            log.write(json.dumps({"seed": seed, **result, "unlisted": record["unlisted"]}) + "\n")
            shares.add(result["failed"] / result["attempted"])
            for name, m in values_of(result, record):
                values.setdefault(name, []).append(m["value"])
            print(f"seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in values_of(result, record)), flush=True)
    print(f"failed share per run: {sorted(shares)}")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        note = f" (bound {bound}, third {bound / 3:.4f})" if bound else \
            (" (not in BENCHMARK.json)" if name in record["unlisted"] else "")
        print(f"{name:28s} median {med:14.6g}  spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
