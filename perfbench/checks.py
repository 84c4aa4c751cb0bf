"""Output checks, each made apart from the program.

Every checker returns a list of problems (empty when the output is right),
so a run can count each failed check as a failed operation.  They take plain
numpy arrays and key lists: the vectors are read back from the index, and
the reference search here is a brute-force numpy cosine scan.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

# Scores are cosines of float32-stored rows computed in float64 on both sides;
# the only difference is summation order, far below this tolerance.
SCORE_TOLERANCE = 1e-6


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    norms = np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
    return matrix / norms


def brute_force_topk(
    query: np.ndarray, keys: Sequence[str], unit_matrix: np.ndarray, k: int
) -> List[Tuple[str, float]]:
    """Exact cosine top-k by a full scan over unit rows, ties broken by row order."""
    scores = unit_matrix @ unit_rows(query)[0]
    order = np.argsort(-scores, kind="stable")[:k]
    return [(keys[i], float(scores[i])) for i in order]


def check_scores(
    hits: Sequence[Tuple[str, float]], expected: Sequence[Tuple[str, float]]
) -> List[str]:
    """The returned top-k scores equal the brute-force top-k scores."""
    if len(hits) != len(expected):
        return [f"{len(hits)} hits returned, {len(expected)} expected"]
    got = np.array([score for _, score in hits])
    want = np.array([score for _, score in expected])
    worst = float(np.max(np.abs(got - want))) if len(got) else 0.0
    if worst > SCORE_TOLERANCE:
        return [f"top-k scores differ from brute force by {worst:.3g}"]
    return []


def check_self_hit(hits: Sequence[Tuple[str, float]], own_key: str, tied_total: int) -> List[str]:
    """An indexed cone queried against itself scores ~1, and its key is among the ties.

    ``tied_total`` is how many index rows brute force ties at the top score:
    when more rows tie than ``hits`` holds, any of them may fill the list.
    """
    if not hits:
        return ["no hits for an indexed cone"]
    top = hits[0][1]
    if abs(top - 1.0) > SCORE_TOLERANCE:
        return [f"self-query top score {top:.6f}, expected 1"]
    tied = [key for key, score in hits if abs(score - top) <= SCORE_TOLERANCE]
    if own_key not in tied and not (len(tied) == len(hits) < tied_total):
        return [f"{own_key!r} not among the {len(tied)} hits tied at the top score"]
    return []


def check_ingest(
    circuit_keys: Iterable[str],
    cone_keys: Iterable[str],
    netlist_names: Sequence[str],
    expected_cone_keys: Iterable[str],
) -> List[str]:
    """Exactly one circuit row per ingested netlist and one cone row per register."""
    problems = []
    circuits = list(circuit_keys)
    cones = list(cone_keys)
    for label, got, want in (
        ("circuit", circuits, list(netlist_names)),
        ("cone", cones, list(expected_cone_keys)),
    ):
        if len(got) != len(set(got)):
            problems.append(f"duplicate live {label} rows")
        missing = set(want) - set(got)
        extra = set(got) - set(want)
        if missing:
            problems.append(f"{len(missing)} {label} rows missing, e.g. {sorted(missing)[0]!r}")
        if extra:
            problems.append(f"{len(extra)} unexpected {label} rows, e.g. {sorted(extra)[0]!r}")
    return problems


def check_losses(losses: Sequence[float], steps: int, budget: int, label: str) -> List[str]:
    """Finite losses, the step count equals the budget, and the loss curve went down.

    A step whose batch is below the task's minimum size records no loss (the
    trainer skips it), so there may be fewer losses than steps, never more.
    """
    losses = np.asarray(losses, dtype=np.float64)
    problems = []
    if steps != budget:
        problems.append(f"{label}: ran {steps} steps, budget {budget}")
    if not 2 <= len(losses) <= steps:
        problems.append(f"{label}: {len(losses)} losses for {steps} steps")
    if not np.all(np.isfinite(losses)):
        problems.append(f"{label}: non-finite loss")
    if len(losses) >= 2:
        window = max(1, len(losses) // 4)
        first, last = losses[:window].mean(), losses[-window:].mean()
        if not last < first:
            problems.append(f"{label}: last-window loss {last:.4f} not below first {first:.4f}")
    return problems
