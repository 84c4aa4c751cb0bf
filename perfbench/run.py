"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload cone_query --seed 1 --seconds 10 --trace 0

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs an untraced and a traced half (the difference is the
tracing overhead) and reports every per-layer metric, writing the spans to
``.perfbench_out/``.  A layer a workload never enters reports 0.

The last line is ``{"correct", "attempted", "failed", "metrics"}``.  The run
exits non-zero, without that line, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    # The program's default backend: an inherited REPRO_BACKEND would select another.
    inherited_backend = os.environ.pop("REPRO_BACKEND", None)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro.nn import get_backend

    print(
        "environment: "
        + json.dumps(
            {
                "backend": get_backend().name,
                "inherited_REPRO_BACKEND": inherited_backend,
                "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
            }
        ),
        flush=True,
    )
    scratch_parent = ROOT / ".perfbench_tmp"
    scratch_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_parent))
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print("details: " + json.dumps(outcome.details), flush=True)
    for error in outcome.errors[:20]:
        print(f"failed op: {error}", flush=True)
    for problem in outcome.problems[:20]:
        print(f"wrong output: {problem}", flush=True)
    if args.trace:
        outcome.tracer.dump(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json")
        wanted, measured = spec["per_layer"], outcome.layers
    else:
        wanted, measured = spec["end_to_end"], outcome.metrics
    metrics = {
        metric["name"]: {"value": float(measured.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in wanted
    }
    result = {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
