"""The benchmark's workloads: inputs from the seed, set-up, timed loop, checks.

Each workload is a function ``run_<name>(seed, seconds, trace, scratch)``
returning a :class:`Outcome`.  Inputs are generated from the seed with the
repo's RTL generators and synthesis *before* any set-up is timed; the
program then sees only those inputs, through its public entry points
(``NetTAGService`` / ``AsyncFrontend``, ``EmbeddingIndex``,
``NetTAGPipeline.pretrain``).

The load is a closed loop: one asyncio thread keeps ``IN_FLIGHT`` requests
outstanding, each client sending its next request when the previous one
returns.  The only other threads are the program's own (the scheduler
worker and the frontend's executor).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import NetTAG, NetTAGConfig, NetTAGPipeline, PretrainSummary
from repro.netlist import extract_register_cones
from repro.nn import profile_kernels
from repro.pretrain import ExprPretrainConfig, TAGPretrainConfig
from repro.rtl import generate_suite, make_controller, make_peripheral
from repro.serve import CIRCUIT_KIND, CONE_KIND, AsyncFrontend, NetTAGService, cone_key
from repro.synth import synthesize

import checks
from tracing import Tracer, instrument

IN_FLIGHT = 16          # closed-loop clients
WINDOWS = 10            # the timed phase is cut into this many equal windows
TOP_K = 10
QUERY_DEADLINE_S = 10.0  # far above any latency seen; a miss counts as failed
SETUP_REPEATS = 5        # set-ups per serving run and per pretrain round; setup_s is their median

# cone_query inputs (controllers and peripherals: their
# synthesis takes milliseconds and never depends on a multiplier's shape).
BASE_DESIGNS = 16        # indexed at set-up
HELD_OUT_DESIGNS = 16    # their register cones are the query pool
SELF_QUERIES = 32        # indexed cones queried against themselves

# pretrain budget (fast preset model; step counts fixed so every seed trains
# the same number of optimizer steps)
EXPR_STEPS = 100
TAG_STEPS = 60
PRETRAIN_DESIGNS = 3  # per suite


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)  # failed output checks
    errors: List[str] = field(default_factory=list)  # ops that raised, timed out or were refused
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)  # printed, not compared
    tracer: Optional[Tracer] = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_designs(prefix: str, count: int, seed: int, salt: int):
    """``count`` synthesised controllers and peripherals, named ``<prefix><i>``."""
    netlists = []
    for i in range(count):
        design_seed = seed * 100_003 + salt * 10_007 + i
        variant = i // 2
        if i % 2 == 0:
            module = make_controller(
                f"{prefix}{i:03d}", design_seed,
                num_states=3 + variant % 4, data_width=3 + variant % 3,
            )
        else:
            module = make_peripheral(f"{prefix}{i:03d}", design_seed, data_width=4 + variant % 3)
        netlists.append(synthesize(module).netlist)
    return netlists


@dataclass
class ConeQuery:
    cone: object
    own_key: Optional[str]  # set for an indexed cone queried against itself


def serving_inputs(seed: int):
    base = make_designs("base", BASE_DESIGNS, seed, 1)
    held_out = make_designs("held", HELD_OUT_DESIGNS, seed, 2)
    rng = np.random.default_rng([seed, 4])
    queries = [ConeQuery(cone, None) for n in held_out for cone in extract_register_cones(n)]
    indexed = [(n.name, cone) for n in base for cone in extract_register_cones(n)]
    for position in rng.choice(len(indexed), size=SELF_QUERIES, replace=False):
        name, cone = indexed[int(position)]
        queries.append(ConeQuery(cone, cone_key(name, cone.register_name)))
    order = rng.permutation(len(queries))
    return base, [queries[int(i)] for i in order]


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    latencies: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)  # completion time after the loop's start
    hits: Dict[int, list] = field(default_factory=dict)  # op number -> [(key, score)]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    elapsed: float = 0.0


async def closed_loop(
    send: Callable[[int], "asyncio.Future"],
    stop: Callable[[int], bool],
    keep: bool = True,
) -> LoopResult:
    """``IN_FLIGHT`` clients; op ``n`` is ``send(n)``; a client stops when ``stop(n)``."""
    result = LoopResult()
    counter = itertools.count()

    async def client() -> None:
        while True:
            n = next(counter)
            if stop(n):
                return
            result.attempted += 1
            start = time.perf_counter()
            try:
                hits = await send(n)
            except Exception as error:  # a refused, late or raising query is a failed op
                result.failures.append(f"op {n}: {type(error).__name__}: {error}")
                continue
            finished = time.perf_counter()
            result.latencies.append(finished - start)
            result.done.append(finished - loop_start)
            if keep:
                result.hits[n] = [(hit.key, hit.score) for hit in hits]

    loop_start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(IN_FLIGHT)))
    result.elapsed = time.perf_counter() - loop_start
    return result


def latency_metrics(loop: LoopResult) -> Dict[str, float]:
    """Rate, p50 and p90 per window of the timed phase, each reported as its median over windows.

    The host's speed drifts by tens of percent over seconds; a median over
    windows keeps a slow stretch in part of a run from moving the result.
    """
    latencies_ms = np.asarray(loop.latencies) * 1000.0
    edges = np.linspace(0.0, loop.elapsed, WINDOWS + 1)
    window_of = np.clip(np.searchsorted(edges, loop.done, side="right") - 1, 0, WINDOWS - 1)
    rates, p50, p90 = [], [], []
    for window in range(WINDOWS):
        sample = latencies_ms[window_of == window]
        rates.append(len(sample) * WINDOWS / loop.elapsed)
        if len(sample):
            p50.append(float(np.percentile(sample, 50)))
            p90.append(float(np.percentile(sample, 90)))
    return {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50),
        "latency_p90_ms": statistics.median(p90),
    }


# ----------------------------------------------------------------------
# Index read-back
# ----------------------------------------------------------------------
def read_back(index, kind: str) -> Tuple[List[str], np.ndarray]:
    """Every stored row of ``kind`` (keys are unique here: nothing is re-added or removed)."""
    keys: List[str] = []
    blocks = []
    for seg_keys, seg_kinds, matrix, _ in index.iter_segments():
        rows = [r for r, k in enumerate(seg_kinds) if k == kind]
        keys.extend(seg_keys[r] for r in rows)
        blocks.append(np.asarray(matrix[rows], dtype=np.float64))
    return keys, np.concatenate(blocks, axis=0)


# ----------------------------------------------------------------------
# Serving set-up and phases
# ----------------------------------------------------------------------
def close_service(service: NetTAGService) -> None:
    """Close the service and remove its index directory."""
    service.close()
    shutil.rmtree(service.index.directory, ignore_errors=True)


def setup_cone_service(scratch_root: Path, base) -> Tuple[NetTAGService, float]:
    """The program's set-up: model, index, initial ingest of the base designs."""
    start = time.perf_counter()
    model = NetTAG(NetTAGConfig.fast())
    index = NetTAGService.create_index(model, tempfile.mkdtemp(prefix="index-", dir=scratch_root))
    service = NetTAGService(model, index)
    service.add_netlists(base)
    return service, time.perf_counter() - start


def timed_setups(make: Callable[[], Tuple[NetTAGService, float]], repeats: int):
    """Set up ``repeats`` times; keep the last service, return the median time."""
    times = []
    service = None
    for _ in range(repeats):
        if service is not None:
            close_service(service)
            service = None
            gc.collect()
        service, seconds = make()
        times.append(seconds)
    return service, statistics.median(times)


def layer_snapshot(service: NetTAGService, frontend: Optional[AsyncFrontend]) -> Dict[str, float]:
    stats = service.stats()
    cache = stats["expression_cache"]
    snap = {
        "scheduler.batches": stats["scheduler"]["batches"],
        "scheduler.completed": stats["scheduler"]["completed"],
        "scheduler.deadline_flushes": stats["scheduler"]["deadline_flushes"],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
    }
    if frontend is not None:
        kinds = frontend.stats()["kinds"].values()
        snap["frontend.admitted"] = sum(k["admitted"] for k in kinds)
        snap["frontend.rejected"] = sum(k["rejected"] for k in kinds)
    return snap


def span_layers(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Per-layer metrics from every recorded span; ``wall`` is the traced wall time."""
    busy = tracer.busy_times()
    own = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters
    layers = {
        "tag_build.calls": calls.get("tag_build", 0),
        "tag_build.busy_s": busy.get("tag_build", 0.0),
        "tag_build.nodes": counters.get("tag_build.nodes", 0.0),
        "expr_llm.calls": calls.get("expr_llm", 0),
        "expr_llm.busy_s": busy.get("expr_llm", 0.0),
        "expr_llm.texts": counters.get("expr_llm.texts", 0.0),
        "tagformer.calls": calls.get("tagformer", 0),
        "tagformer.busy_s": busy.get("tagformer", 0.0),
        "tagformer.nodes": counters.get("tagformer.nodes", 0.0),
        "encode.busy_s": busy.get("encode", 0.0),
        "readout.busy_s": own.get("encode", 0.0),
        "scheduler.flush_busy_s": busy.get("scheduler.flush", 0.0),
        "search.calls": calls.get("search", 0),
        "search.busy_s": busy.get("search", 0.0),
        "search.ms_per_call": 1000.0 * busy.get("search", 0.0) / max(calls.get("search", 0), 1),
        "search.rows_scanned": counters.get("search.rows_scanned", 0.0),
        "ingest.calls": calls.get("ingest", 0),
        "ingest.busy_s": busy.get("ingest", 0.0),
        "index.add_busy_s": busy.get("index.add", 0.0),
        "index.save_busy_s": busy.get("index.save", 0.0),
        "synth.calls": calls.get("synth", 0),
        "synth.busy_s": busy.get("synth", 0.0),
        "preprocess.busy_s": busy.get("preprocess", 0.0),
        "align.busy_s": busy.get("align", 0.0),
        "samples.busy_s": busy.get("samples", 0.0),
        "expr_pretrain.busy_s": busy.get("expr_pretrain", 0.0),
        "tag_pretrain.busy_s": busy.get("tag_pretrain", 0.0),
        "pretrain.self_s": own.get("pretrain", 0.0),
        "unattributed_s": max(wall - tracer.covered_seconds(), 0.0),
        "traced_wall_s": wall,
    }
    waits = tracer.request_waits_ms()
    layers["query.wait_ms_p50"] = float(np.percentile(waits, 50)) if waits else 0.0
    return layers


def kernel_layers(profiles) -> Dict[str, float]:
    """Kernel totals over the ``nn.profile_kernels`` profiles of the traced window."""
    return {
        "kernels.calls": sum(sum(p.calls.values()) for p in profiles),
        "kernels.busy_s": sum(sum(p.seconds.values()) for p in profiles),
        "kernels.matmul_s": sum(p.seconds.get("matmul", 0.0) for p in profiles),
    }


def run_serving(
    seed: int,
    seconds: float,
    trace: bool,
    scratch_root: Path,
    setup: Callable[[Path], Tuple[NetTAGService, float]],
    phase: Callable[[NetTAGService, AsyncFrontend, float], "asyncio.Future"],
    check: Callable[[NetTAGService, LoopResult], List[Tuple[Optional[int], str]]],
) -> Outcome:
    """Driver of a serving workload: set-up, closed-loop phases, checks.

    Untraced: ``SETUP_REPEATS`` set-ups, a warm-up round, one timed phase.
    Traced: an untraced half-length phase (for the overhead), then a traced
    set-up and a traced half-length phase that give the per-layer metrics.
    """
    outcome = Outcome()

    async def measure(service: NetTAGService, length: float, tracer: Optional[Tracer] = None,
                      profiles: Optional[list] = None):
        async with AsyncFrontend(service, deadline=QUERY_DEADLINE_S) as frontend:
            await phase(service, frontend, 0.0)  # warm-up: one pass, untimed
            before = layer_snapshot(service, frontend)
            if tracer is None:
                loop = await phase(service, frontend, length)
            else:
                tracer.enabled = True
                with profile_kernels() as profile:
                    loop = await phase(service, frontend, length)
                tracer.enabled = False
                profiles.append(profile)
            after = layer_snapshot(service, frontend)
        return loop, {key: after[key] - before[key] for key in after}

    def finish(service: NetTAGService, loop: LoopResult) -> None:
        problems = check(service, loop)
        # An op fails once however many of its checks fail; a whole-run check
        # (op None) that fails counts as one more failed op.
        failed_ops = {op for op, _ in problems if op is not None}
        failed = len(loop.failures) + len(failed_ops) + sum(op is None for op, _ in problems)
        outcome.attempted += loop.attempted
        outcome.failed += min(failed, loop.attempted)
        outcome.details.update(queries=len(loop.latencies), elapsed_s=round(loop.elapsed, 3))
        outcome.errors.extend(loop.failures[:5])
        outcome.problems.extend(f"op {op}: {message}" for op, message in problems[:5])

    if not trace:
        service, setup_s = timed_setups(lambda: setup(scratch_root), SETUP_REPEATS)
        try:
            loop, _ = asyncio.run(measure(service, seconds))
            # Read before the checks, whose read-back copies of the index
            # would otherwise count towards the program's peak.
            rss = peak_rss_mb()
            finish(service, loop)
            outcome.metrics = {"setup_s": setup_s, **latency_metrics(loop), "peak_rss_mb": rss}
        finally:
            close_service(service)
        return outcome

    service, _ = setup(scratch_root)
    try:
        plain, _ = asyncio.run(measure(service, seconds / 2))
        finish(service, plain)
    finally:
        close_service(service)
    # The traced window is the set-up plus the timed phase; the warm-up
    # between them runs with the tracer switched off.
    tracer = Tracer()
    with instrument(tracer):
        with profile_kernels() as profile:
            service, setup_wall = setup(scratch_root)
        profiles = [profile]
        tracer.enabled = False
        try:
            traced, deltas = asyncio.run(measure(service, seconds / 2, tracer, profiles))
            finish(service, traced)
            index_stats = service.index.stats()
            service_stats = service.stats()
        finally:
            close_service(service)
    layers = span_layers(tracer, setup_wall + traced.elapsed)
    layers.update(kernel_layers(profiles))
    hits, misses = deltas["cache.hits"], deltas["cache.misses"]
    layers.update(
        {
            "expr_llm.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "scheduler.batches": deltas["scheduler.batches"],
            "scheduler.mean_batch_size": deltas["scheduler.completed"] / max(deltas["scheduler.batches"], 1),
            "scheduler.deadline_flushes": deltas["scheduler.deadline_flushes"],
            "snapshot.refreshes": service_stats["snapshots"]["refreshes"],
            "frontend.admitted": deltas["frontend.admitted"],
            "frontend.rejected": deltas["frontend.rejected"],
            "index.rows": index_stats["rows"],
            "index.payload_bytes": index_stats["payload_bytes"],
            "ingest.rows_per_s": tracer.counters.get("ingest.rows", 0.0) / max(layers["ingest.busy_s"], 1e-9),
            "trace.overhead_pct": 100.0 * (
                (len(plain.latencies) / plain.elapsed) / (len(traced.latencies) / traced.elapsed) - 1.0
            ),
        }
    )
    outcome.layers = layers
    outcome.tracer = tracer
    return outcome


# ----------------------------------------------------------------------
# cone_query
# ----------------------------------------------------------------------
def cone_query_checks(
    service: NetTAGService, loop: LoopResult, queries: Sequence[ConeQuery], base
) -> List[Tuple[Optional[int], str]]:
    """The index against the ingested designs, every result against brute force.

    The set-up ingest must have left one circuit row per base netlist and one
    cone row per register (counted apart, with ``extract_register_cones``);
    each query's top-k scores must equal a brute-force scan of the cone rows
    read back from the index.
    """
    problems: List[Tuple[Optional[int], str]] = [
        (None, p)
        for p in checks.check_ingest(
            service.index.keys(kind=CIRCUIT_KIND),
            service.index.keys(kind=CONE_KIND),
            [n.name for n in base],
            [cone_key(n.name, cone.register_name) for n in base for cone in extract_register_cones(n)],
        )
    ]
    keys, matrix = read_back(service.index, CONE_KIND)
    unit = checks.unit_rows(matrix)
    vectors = service.model.encode_batch([q.cone for q in queries])
    expected = {}
    for position, vector in enumerate(vectors):
        padded = service.model.pad_to_index_dim(vector)
        scores = unit @ checks.unit_rows(padded)[0]
        tied_total = int(np.sum(np.abs(scores - scores.max()) <= checks.SCORE_TOLERANCE))
        expected[position] = (checks.brute_force_topk(padded, keys, unit, TOP_K), tied_total)
    for n, hits in loop.hits.items():
        position = n % len(queries)
        top, tied_total = expected[position]
        found = checks.check_scores(hits, top)
        if queries[position].own_key is not None:
            found += checks.check_self_hit(hits, queries[position].own_key, tied_total)
        problems.extend((n, p) for p in found)
    return problems


def run_cone_query(seed: int, seconds: float, trace: bool, scratch_root: Path) -> Outcome:
    base, queries = serving_inputs(seed)

    async def phase(service, frontend, length):
        deadline = time.perf_counter() + length
        if length == 0.0:
            stop = lambda n: n >= len(queries)  # noqa: E731 - warm-up: one pass
        else:
            stop = lambda n: time.perf_counter() >= deadline  # noqa: E731
        send = lambda n: frontend.query_cone(queries[n % len(queries)].cone, k=TOP_K)  # noqa: E731
        return await closed_loop(send, stop, keep=length > 0.0)

    return run_serving(
        seed, seconds, trace, scratch_root,
        setup=lambda scratch_root: setup_cone_service(scratch_root, base),
        phase=phase,
        check=lambda service, loop: cone_query_checks(service, loop, queries, base),
    )


# ----------------------------------------------------------------------
# pretrain
# ----------------------------------------------------------------------
def pretrain_config() -> NetTAGConfig:
    fast = NetTAGConfig.fast()
    return NetTAGConfig.fast(
        expr_pretrain=ExprPretrainConfig(num_steps=EXPR_STEPS, batch_size=fast.expr_pretrain.batch_size),
        # Enough epochs that the fixed TAG_STEPS budget, not the corpus size, ends the stage.
        tag_pretrain=TAGPretrainConfig(num_epochs=50, batch_size=fast.tag_pretrain.batch_size),
    )


def pretrain_corpus(seed: int):
    """Seeded controllers (itc99) and peripherals (opencores).

    The datapath-block and CPU-slice generators are left out: their
    multipliers make synthesis time swing between milliseconds and seconds
    with the design seed (and one width-7 CPU slice takes about a minute),
    which spread pretrain time by a quarter across seeds.
    """
    return {
        "itc99": generate_suite("itc99", num_designs=PRETRAIN_DESIGNS, seed=seed),
        "opencores": generate_suite("opencores", num_designs=PRETRAIN_DESIGNS, seed=seed + 1),
    }


def pretrain_round(corpus) -> Tuple[List[float], float, List[str], NetTAGPipeline, PretrainSummary]:
    """``SETUP_REPEATS`` set-ups plus one budgeted pretrain of the last.

    Returns (set-up times, pretrain_s, problems, pipeline, summary).
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pipeline = NetTAGPipeline(pretrain_config())
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    summary = pipeline.pretrain(corpus=corpus, max_steps={"tag_pretrain": TAG_STEPS})
    pretrain_s = time.perf_counter() - start
    expr, tag = summary.expr_result, summary.tag_result
    problems = checks.check_losses(expr.losses, expr.steps, EXPR_STEPS, "expr_pretrain")
    problems += checks.check_losses(tag.total_losses, tag.steps, TAG_STEPS, "tag_pretrain")
    return setups, pretrain_s, problems, pipeline, summary


def pretrain_metrics(setups: Sequence[float], times: Sequence[float]) -> Dict[str, float]:
    """End-to-end metrics of the pretrain workload: one operation is one pretrain call."""
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": 1000.0 * float(np.percentile(times, 50)),
        "latency_p90_ms": 1000.0 * float(np.percentile(times, 90)),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_pretrain(seed: int, seconds: float, trace: bool, scratch_root: Path) -> Outcome:
    corpus = pretrain_corpus(seed)
    outcome = Outcome()
    warm_setups, *_ = pretrain_round(corpus)  # warm-up round: its pretrain is untimed

    # Summed over the rounds since the last reset: cache counters and the
    # optimizer steps each trainer reports it ran.
    totals = dict.fromkeys(("hits", "misses", "expr_steps", "tag_steps"), 0)

    def rounds(length: float):
        setups, times = list(warm_setups), []
        deadline = time.perf_counter() + length
        while not times or time.perf_counter() < deadline:
            round_setups, pretrain_s, problems, pipeline, summary = pretrain_round(corpus)
            stats = pipeline.model.expr_llm.cache_stats()
            totals["hits"] += stats["hits"]
            totals["misses"] += stats["misses"]
            totals["expr_steps"] += summary.expr_result.steps
            totals["tag_steps"] += summary.tag_result.steps
            outcome.attempted += 1
            if problems:
                outcome.failed += 1
                outcome.problems.extend(problems)
            setups.extend(round_setups)
            times.append(pretrain_s)
        return setups, times

    if not trace:
        setups, times = rounds(seconds)
        outcome.details = {"setup_s": setups, "round_s": times}
        outcome.metrics = pretrain_metrics(setups, times)
        return outcome

    _, plain = rounds(seconds / 2)
    totals.update(dict.fromkeys(totals, 0))
    tracer = Tracer()
    with instrument(tracer), profile_kernels() as profile:
        window_start = time.perf_counter()
        _, traced = rounds(seconds / 2)
        wall = time.perf_counter() - window_start
    layers = span_layers(tracer, wall)
    layers.update(kernel_layers([profile]))
    expr_steps, tag_steps = totals["expr_steps"], totals["tag_steps"]
    layers.update(
        {
            "expr_pretrain.steps": expr_steps,
            "expr_pretrain.step_ms": 1000.0 * layers["expr_pretrain.busy_s"] / max(expr_steps, 1),
            "tag_pretrain.steps": tag_steps,
            "tag_pretrain.step_ms": 1000.0 * layers["tag_pretrain.busy_s"] / max(tag_steps, 1),
            "expr_llm.cache_hit_rate": totals["hits"] / max(totals["hits"] + totals["misses"], 1),
            "trace.overhead_pct": 100.0 * (statistics.mean(traced) / statistics.mean(plain) - 1.0),
        }
    )
    outcome.layers = layers
    outcome.tracer = tracer
    return outcome


WORKLOADS = {
    "cone_query": run_cone_query,
    "pretrain": run_pretrain,
}
