"""Run one workload on several seeds and print each end-to-end metric's
median and quartile spread, the figures README.md quotes.

    python3 perfbench/spread.py --workload bell-lp --seeds 1-10

Run from the root of a checkout.  Each run is a separate process of
run.py with the run length from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        seconds = str(json.load(handle)["run_seconds"])
    values = {}
    units = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit("seed %d failed: %s" % (seed, proc.stderr[-2000:]))
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: passes %d, steal %s s, probe %.3f-%.3f ms, correct %s"
              % (seed, record["passes"], record["cpu_steal_s"],
                 min(record["probe_ms"]), max(record["probe_ms"]),
                 result["correct"]), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) > 1 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        print("%-42s %12.6g %-6s spread %.3f" % (name, med, units[name],
                                                  spread))
    print("failed, attempted, correct:", sorted(shares))


if __name__ == "__main__":
    main()
