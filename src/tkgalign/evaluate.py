"""Alignment ranking metrics and time-sensitivity analysis.

Evaluation is pure numpy over frozen representations: build a similarity
matrix (negative L1), optionally re-score it with CSLS hubness correction,
and rank each source entity's gold target among all test-split targets.
Ties are broken pessimistically — an equal-similarity candidate pushes the
gold down — so reported numbers never benefit from degenerate embeddings.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .tkg import UNKNOWN_TIME_ID, NeighborhoodIndex

DEFAULT_CSLS_K = 10
DEFAULT_SENSITIVITY_THRESHOLD = 0.5
# upper bound on one similarity tile's (rows, cols, k) difference array, so
# a tile stays in cache; budgets from 128 KiB to 512 KiB timed alike on
# 1500- and 6000-row pools at k = 100 and 400
TILE_BYTES = 256 * 1024


@dataclass
class RankingReport:
    """Metrics plus the per-pair ranks they were computed from."""

    mrr: float
    hits1: float
    hits10: float
    ranks: list[int]
    partition: str = "all"  # all | highly | lowly
    metric_space: str = "l1"  # l1 | csls
    direction: str = "g1->g2"
    seed: int | None = None
    seconds: float | None = None

    @property
    def num_pairs(self) -> int:
        return len(self.ranks)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def csv_rows(self) -> list[str]:
        head = "metric,value,partition,metric_space,direction,seed,seconds"
        seed = "" if self.seed is None else str(self.seed)
        secs = "" if self.seconds is None else f"{self.seconds:.4f}"
        tail = f"{self.partition},{self.metric_space},{self.direction},{seed},{secs}"
        return [
            head,
            f"mrr,{self.mrr:.6f},{tail}",
            f"hits1,{self.hits1:.6f},{tail}",
            f"hits10,{self.hits10:.6f},{tail}",
        ]


def similarity_matrix(
    src_reps: np.ndarray,
    tgt_reps: np.ndarray,
    block: int = 128,
) -> np.ndarray:
    """Pairwise similarity sim[i][j] = -L1(src[i], tgt[j]), the distance the
    model trains with, computed tile by tile.

    Each tile is at most ``block`` rows by as many columns as keep its
    (rows, cols, k) difference array within ``TILE_BYTES``, so the working
    set stays in cache whatever the pool size. Every cell still reduces one
    contiguous length-k vector, which makes the result bitwise equal to
    ``-np.abs(src[i] - tgt[j]).sum()`` for any tiling.
    """
    src_reps = np.asarray(src_reps)
    tgt_reps = np.asarray(tgt_reps)
    if src_reps.ndim != 2 or tgt_reps.ndim != 2 or src_reps.shape[1] != tgt_reps.shape[1]:
        raise ValueError(
            f"representation shapes incompatible: {src_reps.shape} vs {tgt_reps.shape}"
        )
    n, m = len(src_reps), len(tgt_reps)
    sim = np.empty((n, m), dtype=src_reps.dtype)
    cells = max(1, TILE_BYTES // max(1, src_reps.shape[1] * src_reps.itemsize))
    cols = max(1, min(m, cells))
    rows = max(1, min(block, cells // cols))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        for c_lo in range(0, m, cols):
            c_hi = min(c_lo + cols, m)
            sim[lo:hi, c_lo:c_hi] = -np.abs(
                src_reps[lo:hi, None, :] - tgt_reps[None, c_lo:c_hi, :]
            ).sum(axis=2)
    return sim


def csls_adjust(sim: np.ndarray, k_csls: int = DEFAULT_CSLS_K) -> np.ndarray:
    """Cross-domain similarity local scaling: penalize hub candidates.

    csls[i][j] = 2*sim[i][j] - r_src(i) - r_tgt(j), where r_src(i) is the mean
    of row i's k_csls largest entries and r_tgt(j) the column counterpart.
    """
    sim = np.asarray(sim)
    rows, cols = sim.shape
    if not (1 <= k_csls <= min(rows, cols)):
        raise ConfigError(
            f"csls neighborhood {k_csls} out of range for a {rows}x{cols} matrix"
        )
    # full sorts (not np.partition) and contiguous innermost-axis means for
    # both directions: the top-k entries are summed in ascending order
    # through the same reduction path, which keeps the means bit-reproducible
    # against a straightforward per-row/per-column reimplementation
    # (partition leaves the block order unspecified, and float means depend
    # on summation order and memory layout)
    top_rows = np.sort(sim, axis=1)[:, cols - k_csls:]
    top_cols = np.sort(np.ascontiguousarray(sim.T), axis=1)[:, rows - k_csls:]
    r_src = top_rows.mean(axis=1)
    r_tgt = top_cols.mean(axis=1)
    return 2.0 * sim - r_src[:, None] - r_tgt[None, :]


def compute_metrics(
    sim: np.ndarray,
    gold_cols: np.ndarray,
    partition: str = "all",
    metric_space: str = "l1",
    direction: str = "g1->g2",
) -> RankingReport:
    """Rank each row's gold column; rank = 1 + #candidates scoring >= gold.

    The gold entry itself supplies the 1 (it trivially scores >= itself), so
    any other candidate tied with the gold worsens the rank.
    """
    sim = np.asarray(sim)
    gold_cols = np.asarray(gold_cols)
    if len(gold_cols) != sim.shape[0]:
        raise ValueError(f"{len(gold_cols)} gold labels for {sim.shape[0]} rows")
    if np.any(gold_cols < 0) or np.any(gold_cols >= sim.shape[1]):
        raise ValueError("gold column out of range")
    gold_sim = sim[np.arange(sim.shape[0]), gold_cols]
    ranks = (sim >= gold_sim[:, None]).sum(axis=1)
    return RankingReport(
        mrr=float((1.0 / ranks).mean()),
        hits1=float((ranks <= 1).mean()),
        hits10=float((ranks <= 10).mean()),
        ranks=[int(r) for r in ranks],
        partition=partition,
        metric_space=metric_space,
        direction=direction,
    )


def _as_pairs(pairs) -> np.ndarray:
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be (n, 2), got {pairs.shape}")
    return pairs


def rank_alignment(
    reps: np.ndarray,
    pairs: np.ndarray,
    metric_space: str = "csls",
    k_csls: int = DEFAULT_CSLS_K,
    partition: str = "all",
    direction: str = "g1->g2",
    l1: np.ndarray | None = None,
) -> RankingReport:
    """Rank gold targets for merged-id test pairs against the test-target pool.

    ``l1`` is this pool's L1 similarity matrix in ``direction`` (row i: the
    source of pair i), when the caller already has it; otherwise it is
    computed here from ``reps``.
    """
    pairs = _as_pairs(pairs)
    if direction == "g2->g1":
        pairs = pairs[:, ::-1]
    if l1 is None:
        sim = similarity_matrix(reps[pairs[:, 0]], reps[pairs[:, 1]])
    elif l1.shape != (len(pairs), len(pairs)):
        raise ValueError(f"l1 matrix {l1.shape} does not fit {len(pairs)} pairs")
    else:
        sim = l1
    if metric_space == "csls":
        k_eff = max(1, min(k_csls, sim.shape[0], sim.shape[1]))
        sim = csls_adjust(sim, k_eff)
    elif metric_space != "l1":
        raise ConfigError(f"unknown metric space {metric_space!r}")
    return compute_metrics(
        sim, np.arange(len(pairs)), partition=partition,
        metric_space=metric_space, direction=direction,
    )


def rank_pool(
    reps: np.ndarray,
    pairs: np.ndarray,
    spaces: tuple[str, ...] = ("l1", "csls"),
    directions: tuple[str, ...] = ("g1->g2",),
    k_csls: int = DEFAULT_CSLS_K,
    partitions: tuple[tuple[str, np.ndarray], ...] = (),
) -> list[RankingReport]:
    """Every report of one evaluation, from one L1 matrix of the test pool.

    The g1->g2 matrix is computed once. g2->g1 is its exact transpose
    (|a - b| == |b - a| in IEEE arithmetic), copied to C order so CSLS keeps
    its contiguous reduction path, and a partition's matrix is an exact
    sub-block; each report is thus bitwise what a standalone
    :func:`rank_alignment` call on that subset and direction gives.

    Reports come per space, then per direction: the whole pool, then each
    ``(name, pair indices)`` partition in order, skipping empty ones. A
    whole-pool report's ``seconds`` is the wall time of its own ranking from
    the shared matrix (transpose, CSLS, ranks); the matrix itself is not in
    any report's ``seconds``, and partition reports carry none.
    """
    pairs = _as_pairs(pairs)
    l1 = similarity_matrix(reps[pairs[:, 0]], reps[pairs[:, 1]])
    reports = []
    for space in spaces:
        for direction in directions:
            t0 = time.perf_counter()
            block = np.ascontiguousarray(l1.T) if direction == "g2->g1" else l1
            rep = rank_alignment(reps, pairs, metric_space=space, k_csls=k_csls,
                                 direction=direction, l1=block)
            rep.seconds = time.perf_counter() - t0
            reports.append(rep)
            for name, idx in partitions:
                if len(idx) == 0:
                    continue
                reports.append(rank_alignment(
                    reps, pairs[idx], metric_space=space, k_csls=k_csls,
                    partition=name, direction=direction, l1=block[np.ix_(idx, idx)],
                ))
    return reports


def average_reports(reports: list[RankingReport]) -> dict:
    """Mean metrics across runs (the repeat-flag aggregation)."""
    if not reports:
        raise ValueError("no reports to average")
    return {
        "mrr": float(np.mean([r.mrr for r in reports])),
        "hits1": float(np.mean([r.hits1 for r in reports])),
        "hits10": float(np.mean([r.hits10 for r in reports])),
        "runs": len(reports),
    }


# ---------------------------------------------------------------------------
# time sensitivity


def time_sensitivity(entity: int, index: NeighborhoodIndex) -> float:
    """Fraction of an entity's links carrying a real (non-unknown) timestamp.

    Self-loops are implementation plumbing, not graph facts, so they are
    excluded; an entity with no remaining links gets sensitivity 0.
    """
    links = index.links_without_self_loops(entity)
    if not links:
        return 0.0
    untimed = sum(1 for ln in links if ln.time == UNKNOWN_TIME_ID)
    return 1.0 - untimed / len(links)


def partition_test_pairs(
    pairs: np.ndarray,
    index: NeighborhoodIndex,
    threshold: float = DEFAULT_SENSITIVITY_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Split merged-id pairs into (highly, lowly) time-sensitive index arrays.

    A pair is highly time-sensitive iff both its entities have sensitivity
    >= threshold. The two returned arrays index into ``pairs`` and together
    cover it exactly.
    """
    pairs = np.asarray(pairs)
    highly, lowly = [], []
    for p, (a, b) in enumerate(pairs):
        if time_sensitivity(int(a), index) >= threshold and time_sensitivity(int(b), index) >= threshold:
            highly.append(p)
        else:
            lowly.append(p)
    return np.asarray(highly, dtype=np.int64), np.asarray(lowly, dtype=np.int64)
