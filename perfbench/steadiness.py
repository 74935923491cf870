"""Steadiness evidence: run each workload over several seeds and record the
spread of every end-to-end metric, raw and normalized.

Run from the repository root::

    python3 perfbench/steadiness.py [--workloads dense,wide,serve_rw]
        [--seeds 101,...,110] [--output perfbench/STEADINESS.json]

The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median. Each timing gets three: ``spread`` of the gated value, and
``raw_spread`` and ``normalized_spread`` of the value before and after it is
scaled by the reference kernel. A workload's entry in the output file is
replaced when that workload is run again; the others are kept. Each run's
line is printed as it finishes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(101, 111)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--output", default=str(HERE / "STEADINESS.json"))
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    output = Path(args.output)
    report = json.loads(output.read_text()) if output.exists() else {"workloads": {}}
    for workload in args.workloads.split(","):
        gated: Dict[str, List[float]] = {}
        variants: Dict[str, Dict[str, List[float]]] = {"raw": {}, "normalized": {}}
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            for name, metric in result["metrics"].items():
                gated.setdefault(name, []).append(metric["value"])
            for variant, values in variants.items():
                for name, value in detail[variant].items():
                    values.setdefault(name, []).append(value)
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "cpus_usable": detail["cpus_usable"],
                "ref_ms": detail["ref_ms"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                "raw": detail["raw"],
                "normalized": detail["normalized"],
            })
            print(json.dumps({"workload": workload, **runs[-1]}), flush=True)
        metrics = {}
        for name, values in gated.items():
            entry = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bounds[name],
            }
            for variant, samples in variants.items():
                if name in samples:
                    entry[f"{variant}_spread"] = spread(samples[name])
            metrics[name] = entry
        report["workloads"][workload] = {
            "seconds": args.seconds, "seeds": seeds, "metrics": metrics, "runs": runs,
        }
        print(json.dumps({"workload": workload, "spreads": metrics}, indent=1), flush=True)
        output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
