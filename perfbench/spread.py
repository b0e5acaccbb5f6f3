"""Run the benchmark over ten seeds and summarise it: per workload in
``BENCHMARK.json`` and end-to-end metric the median, the quartiles and the
spread (distance between the quartiles over the median), plus the per-layer
figures of two traced runs, of which the second must repeat the first's
deterministic counters exactly.
With ``--out``, the summary is appended to that file's list of sets.

Usage (from the repository root):

    python3 perfbench/spread.py --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode or not result or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: benchmark failed")
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="append the summary to this JSON file")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if c == "python3" else c for c in bench["command"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    summary = {}
    for name in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(run(command, name, seed, bench["run_seconds"], 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
        traced = [run(command, name, 0, bench["run_seconds"], 1) for _ in range(2)]
        summary[name] = {
            "seeds": list(SEEDS),
            "end_to_end": {k: summarise([r["metrics"][k]["value"] for r in results], bounds[k])
                           for k in bounds},
            "per_layer_seed0": {k: v["value"] for k, v in traced[1]["metrics"].items()},
        }
        for k, s in summary[name]["end_to_end"].items():
            print(f"  {k:14} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)

    if args.out:
        out = Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {
            "machine": {
                "nproc": os.cpu_count(),
                "cpu": cpu_model(),
                "python": platform.python_version(),
                "cpu_pinning": "none: the benchmark runs on whatever cores the scheduler gives it",
            },
            "sets": [],
        }
        report["sets"].append({"started": started, "run_seconds": bench["run_seconds"],
                               "workloads": summary})
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
