"""Tests of the benchmark itself: its output checkers, its tracer and its names.

    PYTHONPATH=src python -m pytest perfbench -q

Each checker must reject a planted wrong answer, and every metric name the
workloads produce must be the one ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def make_index(rows: int = 60, dim: int = 8, seed: int = 0):
    matrix = np.random.default_rng(seed).normal(size=(rows, dim))
    return [f"k{i:02d}" for i in range(rows)], matrix, checks.unit_rows(matrix)


class TestSearchChecks:
    def test_brute_force_answer_passes(self):
        keys, matrix, unit = make_index()
        expected = checks.brute_force_topk(matrix[3] + 0.1, keys, unit, 5)
        assert checks.check_scores(expected, expected) == []

    def test_swapped_hit_list_is_rejected(self):
        keys, matrix, unit = make_index()
        expected = checks.brute_force_topk(matrix[3], keys, unit, 5)
        other_query = checks.brute_force_topk(matrix[7], keys, unit, 5)
        assert checks.check_scores(other_query, expected)

    def test_short_hit_list_is_rejected(self):
        keys, matrix, unit = make_index()
        expected = checks.brute_force_topk(matrix[3], keys, unit, 5)
        assert checks.check_scores(expected[:4], expected)

    def test_self_hit(self):
        hits = [("a", 1.0), ("b", 1.0), ("c", 0.5)]
        assert checks.check_self_hit(hits, "b", tied_total=2) == []
        assert checks.check_self_hit(hits, "z", tied_total=2)
        assert checks.check_self_hit([("a", 0.9)], "a", tied_total=1)
        # More rows tie than the list holds: any of them may fill it.
        all_tied = [("a", 1.0), ("b", 1.0)]
        assert checks.check_self_hit(all_tied, "z", tied_total=5) == []
        assert checks.check_self_hit(all_tied, "z", tied_total=2)


class TestIngestCheck:
    NAMES = ["n1", "n2"]
    CONES = ["n1::r0", "n1::r1", "n2::r0"]

    def test_complete_index_passes(self):
        assert checks.check_ingest(self.NAMES, self.CONES, self.NAMES, self.CONES) == []

    def test_missing_ingested_key_is_rejected(self):
        assert checks.check_ingest(self.NAMES[:1], self.CONES, self.NAMES, self.CONES)
        assert checks.check_ingest(self.NAMES, self.CONES[:2], self.NAMES, self.CONES)

    def test_duplicate_and_extra_rows_are_rejected(self):
        assert checks.check_ingest(self.NAMES + ["n1"], self.CONES, self.NAMES, self.CONES)
        assert checks.check_ingest(self.NAMES, self.CONES + ["n3::r0"], self.NAMES, self.CONES)


class TestLossCheck:
    def test_decreasing_curve_passes(self):
        assert checks.check_losses(np.linspace(2.0, 1.0, 20), 20, 20, "x") == []

    def test_skipped_steps_are_allowed(self):
        assert checks.check_losses(np.linspace(2.0, 1.0, 18), 20, 20, "x") == []

    def test_non_decreasing_curve_is_rejected(self):
        assert checks.check_losses(np.ones(20), 20, 20, "x")
        assert checks.check_losses(np.linspace(1.0, 2.0, 20), 20, 20, "x")

    def test_non_finite_loss_and_wrong_budget_are_rejected(self):
        curve = np.linspace(2.0, 1.0, 20)
        curve[5] = math.nan
        assert checks.check_losses(curve, 20, 20, "x")
        assert checks.check_losses(np.linspace(2.0, 1.0, 19), 19, 20, "x")


class TestTracer:
    def test_self_time_and_coverage(self):
        tracer = Tracer()
        tracer.spans = [
            (1, 0, "encode", 0.0, 10.0, 1),
            (2, 1, "tag_build", 1.0, 4.0, 1),
            (3, 1, "tagformer", 5.0, 7.0, 1),
            (4, 0, "search", 12.0, 13.0, 1),
            (5, 0, "ingest", 9.0, 11.0, 2),
        ]
        own = tracer.self_times()
        assert own["encode"] == 5.0 and own["tag_build"] == 3.0
        assert tracer.busy_times()["encode"] == 10.0
        assert tracer.covered_seconds() == 12.0

    def test_wrap_records_nesting_and_skips_reentry(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1, lambda a, k, r: {"inner.items": r})
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        reentrant = tracer.wrap("outer", outer)
        assert reentrant(1) == 4
        names = {span[2]: span for span in tracer.spans}
        assert sorted(names) == ["inner", "outer"]
        assert names["inner"][1] == names["outer"][0]
        assert tracer.counters == {"inner.items": 2.0}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        tracer.enabled = False
        assert tracer.wrap("x", lambda: 7)() == 7
        assert tracer.spans == []

    def test_request_wait_subtracts_the_serving_flush(self):
        tracer = Tracer()
        tracer.spans = [(1, 0, "scheduler.flush", 1.0, 1.5, 1), (2, 0, "scheduler.flush", 2.0, 2.2, 1)]
        tracer.requests = [(0.9, 1.6), (1.4, 2.3)]
        waits = tracer.request_waits_ms()
        assert np.allclose(waits, [200.0, 700.0])


def test_window_medians_ignore_a_slow_stretch():
    import workloads

    # Nine windows at 10 ms per op, one slow window at 100 ms.
    done = [w + (i + 0.5) / 10 for w in range(10) for i in range(10)]
    latencies = [0.1 if 9 <= t < 10 else 0.01 for t in done]
    metrics = workloads.latency_metrics(
        workloads.LoopResult(latencies=latencies, done=done, elapsed=10.0)
    )
    assert metrics["ops_per_s"] == 10.0
    assert np.isclose(metrics["latency_p50_ms"], 10.0)
    assert np.isclose(metrics["latency_p90_ms"], 10.0)


class TestNames:
    def test_spec_shape(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
        assert len(names) == len(set(names))
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert all(0 < bound <= 0.25 for bound in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())
        assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])

    def test_end_to_end_names_match_the_workloads(self):
        import workloads

        names = {m["name"] for m in SPEC["end_to_end"]}
        loop = workloads.LoopResult(latencies=[0.01, 0.02, 0.03], done=[0.1, 0.5, 0.9], elapsed=1.0)
        assert set(workloads.latency_metrics(loop)) | {"setup_s", "peak_rss_mb"} == names
        assert set(workloads.pretrain_metrics([0.1], [2.0, 3.0])) == names

    def test_per_layer_names_match_the_workloads(self):
        import workloads

        names = {m["name"] for m in SPEC["per_layer"]}
        produced = set(workloads.span_layers(Tracer(), 1.0))

        class Profile:
            calls, seconds = {"matmul": 1}, {"matmul": 0.5}

        produced |= set(workloads.kernel_layers([Profile()]))
        assert produced <= names
        # Every listed name is written somewhere by the workloads, so none is
        # silently reported as the 0 that stands for "layer not entered".
        source = (HERE / "workloads.py").read_text()
        assert [n for n in sorted(names) if f'"{n}"' not in source] == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cone_query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
