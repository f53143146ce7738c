"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/prove.py --workloads verify_suite oracle_ladder --seeds 1 2 3 4 5 \
        --seconds 30 [--out perfbench/baseline.json]

For every end-to-end metric it prints the median of the per-run values, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json.
``--out`` appends the figures, with the environment record, as one more set
to the file's ``sets`` list.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = next((json.loads(l.split(":", 1)[1]) for l in lines if l.startswith("environment:")), {})
    return {"result": json.loads(lines[-1]), "environment": env}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", help="append the figures and the environment record here")
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    report = {"git_commit": git_commit(root), "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    all_ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr)
        results = [r["result"] for r in runs]
        report["environment"] = runs[-1]["environment"]
        figures = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for name in results[0]["metrics"]:
            figures["metrics"][name] = spread([r["metrics"][name]["value"] for r in results])
            figures["metrics"][name]["unit"] = results[0]["metrics"][name]["unit"]
        report["workloads"][workload] = figures
        for name, f in figures["metrics"].items():
            bound = bounds.get(name)
            ok = bound is None or f["spread"] <= bound / 3
            all_ok = all_ok and ok
            print(f"{workload:16s} {name:20s} median={f['median']:.5g} q1={f['q1']:.5g} "
                  f"q3={f['q3']:.5g} spread={f['spread']:.4f} bound={bound} "
                  f"{'ok' if ok else 'WIDE'}")
    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out) as fh:
                sets = json.load(fh)["sets"]
        with open(args.out, "w") as fh:
            json.dump({"sets": sets + [report]}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
