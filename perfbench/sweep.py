#!/usr/bin/env python3
"""Runs perfbench/run.py once per seed per workload and reports each
end-to-end metric's median and spread, the distance between its first and
third quartile as a share of the median.

    python3 perfbench/sweep.py --seeds 1-10 [--out perfbench/baseline.json --label L]

The workloads and the run length are BENCHMARK.json's. A spread is marked
`ok` when it is below a third of the metric's bound there. `--out` appends the
set's medians, spreads and per-seed values, labelled `--label`, to a
baseline file that also records the host core count.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import parse_seeds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    if r.returncode != 0:
        sys.exit(f"sweep: {' '.join(argv)} exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--out")
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    host = {"cores": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version()}
    seconds = spec["run_seconds"]
    run_set = {"label": args.label, "seeds": seeds, "run_seconds": seconds,
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, s, seconds) for s in seeds]
        incorrect = [s for s, r in zip(seeds, results) if not r["correct"]]
        print(f"{workload}: {len(seeds)} seeds, incorrect at {incorrect or 'none'}")
        entry = {"incorrect_seeds": incorrect, "metrics": {}}
        for name, bound in bounds.items():
            xs = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            print(f"  {name:<12} median {med:<12.6g} spread {spread:7.4f} "
                  f"bound {bound:.2f} {'ok' if ok else 'WIDE'}")
            entry["metrics"][name] = {"median": med, "spread": round(spread, 4),
                                      "unit": results[0]["metrics"][name]["unit"],
                                      "values": [round(x, 6) for x in xs]}
        run_set["workloads"][workload] = entry
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.is_file() else {"host": host, "sets": []}
        doc["sets"].append(run_set)
        out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
