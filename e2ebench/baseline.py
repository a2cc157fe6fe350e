"""Record the benchmark's baseline: ten seeds per workload, two sets.

    python3 e2ebench/baseline.py            # untraced, both sets of seeds
    python3 e2ebench/baseline.py --traced   # add one traced run per workload

Runs ``run.py`` once per (workload, seed), untraced, for ``run_seconds``
from ``BENCHMARK.json``, and writes ``e2ebench/baseline.json``: for each
set of seeds and each workload, the median, quartiles and spread
(quartile distance over median) of every end-to-end metric, plus the
provenance of the runs.  Two sets of seeds show the numbers are not tied
to one seed; the file also records, per metric, how far the second
set's median sits from the first's.

``--traced`` adds one traced run per workload (per-layer metrics) to an
existing baseline.  ``--quick`` makes smoke runs (one set-up per run,
three seeds per set), and a quick run never overwrites a full baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")

FIRST_SEEDS = list(range(1, 11))
SECOND_SEEDS = list(range(11, 21))
QUICK_SEEDS = 3
TRACED_SEED = 1


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def run_one(workload: str, seed: int, seconds: int, trace: int, quick: bool) -> Any:
    """Result and provenance of one ``run.py`` invocation."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def run_set(workloads: List[str], seeds: List[int], seconds: int, quick: bool) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        runs = []
        for seed in seeds:
            result, provenance = run_one(workload, seed, seconds, 0, quick)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        out[workload] = {
            "summary": {name: summarize(vals) for name, vals in values.items()},
            "runs": runs,
            "provenance": provenance,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="smoke runs; never overwrite a full baseline")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    args = parser.parse_args()
    benchmark = load_benchmark()
    seconds = benchmark["run_seconds"]
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    mode = "quick" if args.quick else "full"
    existing: Dict[str, Any] = {}
    if os.path.exists(OUT):
        with open(OUT) as handle:
            existing = json.load(handle)
        if existing.get("mode") == "full" and mode == "quick":
            raise SystemExit("refusing to overwrite a full baseline with a quick run")
    if args.traced:
        if not existing:
            raise SystemExit("record the untraced baseline first")
        existing["traced"] = {}
        for workload in workloads:
            result, provenance = run_one(workload, TRACED_SEED, seconds, 1, args.quick)
            existing["traced"][workload] = {
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "provenance": provenance,
            }
        write(existing)
        return 0
    first_seeds = FIRST_SEEDS[:QUICK_SEEDS] if args.quick else FIRST_SEEDS
    second_seeds = SECOND_SEEDS[:QUICK_SEEDS] if args.quick else SECOND_SEEDS
    first = run_set(workloads, first_seeds, seconds, args.quick)
    second = run_set(workloads, second_seeds, seconds, args.quick)
    drift = {
        workload: {
            name: (second[workload]["summary"][name]["median"] / stats["median"] - 1.0)
            if stats["median"]
            else 0.0
            for name, stats in first[workload]["summary"].items()
        }
        for workload in workloads
    }
    record = {
        "mode": mode,
        "seconds": seconds,
        "seeds": {"first": first_seeds, "second": second_seeds},
        "first": first,
        "second": second,
        "median_shift": drift,
    }
    write(record)
    return 0


def write(record: Dict[str, Any]) -> None:
    with open(OUT, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
