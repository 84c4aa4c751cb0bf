"""Steadiness check: two sets of runs of one workload, alternating order.

    python3 perfbench/steady.py --workload cone_query --runs 10

Set A runs seeds 1..N and set B seeds 101..100+N, each for the spec's
``run_seconds``; run i goes A-then-B when i is even and B-then-A when odd.
For every end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``), the spread (interquartile distance over the
median) against the metric's bound, and whether the two medians agree within
the bound (``|B - A| / A``, in either direction).  The failed share of
operations must be identical in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first`` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
        for name in order:
            seed = (1 if name == "A" else 101) + i
            result = run_once(args.workload, seed, seconds)
            sets[name].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"set {name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    ok = True
    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        rows = {}
        for set_name, results in sets.items():
            rows[set_name] = spread([r["metrics"][name]["value"] for r in results])
            median, q1, q3, share = rows[set_name]
            steady = share <= bound
            ok &= steady
            print(f"  {name:<16} set {set_name}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {share:.3f} (bound {bound}, {'ok' if steady else 'TOO WIDE'})")
        worse = worse_by(rows["A"][0], rows["B"][0], metric["better"])
        agree = abs(worse) <= bound
        ok &= agree
        print(f"  {name:<16} B vs A median: {100 * worse:+.1f}% worse "
              f"({'within' if agree else 'OUTSIDE'} bound {bound})")
    shares = [r["failed"] / r["attempted"] for results in sets.values() for r in results]
    same = len(set(shares)) == 1
    ok &= same and all(r["correct"] for results in sets.values() for r in results)
    print(f"  failed share per run: {'identical' if same else 'DIFFERS'} ({shares[0]:.4f})")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
