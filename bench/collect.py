"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --seconds 15 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per (seed, workload), workloads interleaved,
one run at a time.  For every metric it prints the median, the quartiles
and the spread (q3 - q1) / median, and for end-to-end metrics compares the
spread with the bound in BENCHMARK.json.  ``--out`` writes the summary,
with the run environment, as a BENCH file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    environment = run.environment()
    results: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    failures: dict[str, int] = {name: 0 for name in names}
    for seed in seeds:
        for name in names:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, check=True, text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            failures[name] += last["failed"]
            for key, metric in last["metrics"].items():
                results[name].setdefault(key, []).append(metric["value"])
            print(f"seed {seed} {name}: " + ", ".join(f"{k}={m['value']:.5g}" for k, m in last["metrics"].items()
                                                       if args.trace == 0), flush=True)

    summary = {}
    for name in names:
        summary[name] = {"failed": failures[name], "metrics": {}}
        print(f"{name}  (failed operations: {failures[name]})")
        for key, values in results[name].items():
            row = summarise(values)
            summary[name]["metrics"][key] = row
            if key in bounds:
                verdict = "ok" if row["spread"] <= bounds[key] / 3 else ("within bound" if row["spread"] <= bounds[key] else "OVER BOUND")
                print(f"  {key:<12} median {row['median']:.6g}  spread {row['spread']:.4f}  bound {bounds[key]}  {verdict}")
            else:
                print(f"  {key:<50} median {row['median']:.6g}  spread {row['spread']:.4f}")
    if args.out:
        doc = {
            "environment": environment,
            "seeds": seeds,
            "seconds": seconds,
            "trace": args.trace,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
