"""Run the benchmark on several workloads and seeds and print every metric.

    python3 bench/report.py                       # every workload, seed 1
    python3 bench/report.py --seeds 1-10 --workloads ring-reach,sim-walk

Each (workload, seed) runs `run.py --trace 0` with BENCHMARK.json's
run_seconds in its own process, one after another.
For each workload and metric it prints the median over the seeds, and with
two or more seeds the quartiles and the spread (q3 - q1) / median, the
figure a metric's bound in BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and failed == 0 and all(r["correct"] for r in runs)
        print(f"== {workload}: {len(runs)} run(s), failed_frac {failed / attempted:.6f} "
              f"({failed} of {attempted} jobs)")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {name:32s} {median:16.6f} {first['unit']:8s}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("nan")
                bound = bounds.get(name)
                line += f" q1 {q1:14.6f} q3 {q3:14.6f} spread {spread:7.4f}"
                if bound is not None:
                    line += f" (bound {bound})"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
