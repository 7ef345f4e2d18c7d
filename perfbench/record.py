"""Repeat the benchmark over many seeds and record median and quartiles.

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
and writes per-metric statistics over the seeds to a JSON file together
with a machine fingerprint, the workloads' parameters and the prediction
table (``predictions.json``)::

    python3 perfbench/record.py --seeds 1-10 --trace 0 \\
        --out perfbench/results.json

Re-running with other workloads or ``--trace`` merges into the same file.
The spread of a metric is its interquartile range over its median, as
``statistics.quantiles(values, n=4)`` gives the quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version
        crypto = version("cryptography")
    except Exception:  # not installed, or no metadata
        crypto = None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "cryptography": crypto,
            "platform": platform.platform()}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "n": len(values)}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="default: the workloads in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None,
                        help="JSON file to merge the results into")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record: dict = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "predictions.json")) as f:
        record["predictions"] = json.load(f)
    record["fingerprint"] = fingerprint()
    record["run_seconds"] = seconds
    mode = "per_layer" if args.trace else "end_to_end"
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        correct = True
        for seed in parse_seeds(args.seeds):
            result = run_one(workload, seed, seconds, args.trace)
            correct &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.6g}"
                             for k, m in result["metrics"].items()
                             if args.trace == 0), flush=True)
        entry = record.setdefault("workloads", {}).setdefault(workload, {})
        entry["why"] = WORKLOADS[workload].why
        entry["params"] = WORKLOADS[workload].params
        entry[mode] = {
            "seeds": args.seeds, "all_correct": correct,
            "metrics": {name: {"unit": units[name], **stats(vals),
                               "values": vals}
                        for name, vals in values.items()},
        }
        for name, vals in values.items():
            st = entry[mode]["metrics"][name]
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and st["spread"] > bound / 3:
                flag = "  <-- spread above bound/3"
            if args.trace == 0:
                print(f"  {workload:<11} {name:<22} median {st['median']:.6g}"
                      f" spread {st['spread']:.4f} bound {bound}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
