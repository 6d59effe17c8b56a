"""Alignment ranking metrics and time-sensitivity analysis.

Evaluation is pure numpy over frozen representations: build a similarity
matrix (negative L1), optionally re-score it with CSLS hubness correction,
and rank each source entity's gold target among all test-split targets.
Ties are broken pessimistically — an equal-similarity candidate, or a NaN
score, pushes the gold down — so reported numbers never benefit from
degenerate embeddings.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .tkg import UNKNOWN_TIME_ID

DEFAULT_CSLS_K = 10
DEFAULT_SENSITIVITY_THRESHOLD = 0.5
# upper bound on one similarity tile's (rows, cols, k) difference array, so
# a tile stays in cache; budgets from 128 KiB to 512 KiB timed alike on
# 1500- and 6000-row pools at k = 100 and 400. CSLS and rank counting read
# the pool matrix in row blocks of the same budget.
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

    @property
    def num_pairs(self) -> int:
        return len(self.ranks)

    def csv_rows(self) -> list[str]:
        head = "metric,value,partition,metric_space,direction,seed"
        seed = "" if self.seed is None else str(self.seed)
        tail = f"{self.partition},{self.metric_space},{self.direction},{seed}"
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


def _block_rows(cols: int, itemsize: int) -> int:
    """Rows per block so that a block of ``cols`` columns of ``itemsize``-byte
    cells stays within ``TILE_BYTES``."""
    return max(1, TILE_BYTES // max(1, cols * itemsize))


def _pool_blocks(sim: np.ndarray, subset: np.ndarray | None = None):
    """Yield (first row, block) for the C-order row blocks of ``sim``, or of
    its square sub-pool ``sim[subset][:, subset]``, each of at most
    ``TILE_BYTES``. A sub-pool block is gathered from whole rows of ``sim``
    (``take`` keeps it C-order, in a third of the time of ``np.ix_``), so
    its rows per block follow ``sim``'s width, as those rows fit the budget
    too."""
    rows = len(sim) if subset is None else len(subset)
    step = _block_rows(sim.shape[1], sim.itemsize)
    for lo in range(0, rows, step):
        if subset is None:
            yield lo, np.ascontiguousarray(sim[lo:lo + step])
        else:
            yield lo, sim[subset[lo:lo + step]].take(subset, axis=1)


def _top_k_means(sim: np.ndarray, k: int, subset: np.ndarray | None = None) -> np.ndarray:
    """Mean of each row's ``k`` largest entries in ``sim``, or in its sub-pool
    ``sim[subset][:, subset]``, one C-order row block at a time."""
    # np.partition moves each row's k largest entries to its end in no set
    # order, but which values they are is fixed (ties are equal values), so
    # sorting that slice gives exactly the last k entries of a full sort.
    # Each mean then sums the same ascending values along one contiguous
    # row, the reduction path of a per-row/per-column reimplementation;
    # float sums depend on order and layout, hence the C-order blocks.
    means = np.empty(len(sim) if subset is None else len(subset), dtype=sim.dtype)
    for lo, block in _pool_blocks(sim, subset):
        cols = block.shape[1]
        top = np.sort(np.partition(block, cols - k, axis=1)[:, cols - k:], axis=1)
        means[lo:lo + len(block)] = top.mean(axis=1)
    return means


def csls_adjust(
    sim: np.ndarray,
    k_csls: int = DEFAULT_CSLS_K,
    means: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Cross-domain similarity local scaling: penalize hub candidates.

    csls[i][j] = 2*sim[i][j] - r_src(i) - r_tgt(j), where r_src(i) is the mean
    of row i's k_csls largest entries and r_tgt(j) the column counterpart.
    ``sim`` may be a view in any memory layout (a transposed L1 matrix); the
    result holds the same bits as for its C-order copy.

    ``means``, when given, is the pair (r_src of ``sim``'s rows, r_tgt of its
    columns) taken from a larger matrix that ``sim`` is a block of, and
    ``k_csls`` is not read: :func:`rank_alignment` takes both vectors once
    per report and adjusts one row block at a time, each holding the bits
    of the same rows of the whole matrix's result.
    """
    sim = np.asarray(sim)
    if means is None:
        rows, cols = sim.shape
        if not (1 <= k_csls <= min(rows, cols)):
            raise ConfigError(
                f"csls neighborhood {k_csls} out of range for a {rows}x{cols} matrix"
            )
        means = _csls_means(sim, k_csls)
    r_src, r_tgt = means
    # 2.0 * sim - r_src[:, None] - r_tgt[None, :], without the temporaries
    out = np.multiply(sim, 2.0)
    out -= r_src[:, None]
    out -= r_tgt[None, :]
    return out


def _csls_means(l1: np.ndarray, k_csls: int, subset: np.ndarray | None = None):
    """CSLS's (row, column) mean vectors of the g1->g2 matrix ``l1``, or of
    its sub-pool, with ``k_csls`` clamped to the pool; g2->g1 reads them
    swapped. :func:`csls_adjust` passes any matrix, with ``k_csls``
    already checked against both its sides."""
    k = max(1, min(k_csls, len(l1) if subset is None else len(subset)))
    return _top_k_means(l1, k, subset), _top_k_means(l1.T, k, subset)


def _report(ranks: np.ndarray, **labels) -> RankingReport:
    return RankingReport(
        mrr=float((1.0 / ranks).mean()),
        hits1=float((ranks <= 1).mean()),
        hits10=float((ranks <= 10).mean()),
        ranks=ranks.tolist(),
        **labels,
    )


def compute_metrics(sim: np.ndarray, gold_cols: np.ndarray) -> RankingReport:
    """Rank each row's gold column; rank = 1 + #other candidates not
    strictly below the gold.

    A candidate tied with the gold worsens its rank, and so does a NaN
    candidate; a NaN gold ranks last. Every rank is thus in 1..cols. The
    matrix is counted one block of rows at a time, so no full-matrix mask
    is built.
    """
    sim = np.asarray(sim)
    gold_cols = np.asarray(gold_cols)
    if len(gold_cols) != sim.shape[0]:
        raise ValueError(f"{len(gold_cols)} gold labels for {sim.shape[0]} rows")
    if np.any(gold_cols < 0) or np.any(gold_cols >= sim.shape[1]):
        raise ValueError("gold column out of range")
    rows, cols = sim.shape
    gold_sim = sim[np.arange(rows), gold_cols]
    ranks = np.empty(rows, dtype=np.int64)
    step = _block_rows(cols, 1)  # one bool per cell
    for lo in range(0, rows, step):
        below = sim[lo:lo + step] < gold_sim[lo:lo + step, None]
        ranks[lo:lo + step] = cols - np.count_nonzero(below, axis=1)
    return _report(ranks)


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
    subset: np.ndarray | None = None,
    means: tuple[np.ndarray, np.ndarray] | None = None,
) -> RankingReport:
    """Rank gold targets for merged-id test pairs against the test-target pool.

    ``l1`` is the g1->g2 L1 similarity matrix of ``pairs`` (row i: the
    source of pair i), when the caller already has it; otherwise it is
    computed here from ``reps``. g2->g1 ranks its exact transpose
    (|a - b| == |b - a| in IEEE arithmetic). ``subset``, indices into
    ``pairs``, ranks only those pairs among their own targets, which gives
    the bits of ``rank_alignment(reps, pairs[subset], ...)``.

    Ranking reads the matrix in C-order row blocks of at most
    ``TILE_BYTES``, a sub-pool's gathered one block at a time, and holds
    no second pool-sized matrix. CSLS takes its two mean vectors once per
    report, with ``_top_k_means``, unless the caller passes them as
    ``means`` (the row and column vectors of the g1->g2 matrix or its
    sub-pool, in either direction); :func:`csls_adjust` is handed them for each row block, and
    :func:`compute_metrics` counts that block's ranks.
    """
    pairs = _as_pairs(pairs)
    if l1 is None:
        l1 = similarity_matrix(reps[pairs[:, 0]], reps[pairs[:, 1]])
    elif l1.shape != (len(pairs), len(pairs)):
        raise ValueError(f"l1 matrix {l1.shape} does not fit {len(pairs)} pairs")
    if metric_space == "l1":
        means = None
    elif metric_space == "csls":
        means = _csls_means(l1, k_csls, subset) if means is None else means
    else:
        raise ConfigError(f"unknown metric space {metric_space!r}")
    sim = l1
    if direction == "g2->g1":
        sim = l1.T
        means = None if means is None else means[::-1]
    n = len(sim) if subset is None else len(subset)
    ranks = np.empty(n, dtype=np.int64)
    for lo, block in _pool_blocks(sim, subset):
        hi = lo + len(block)
        if means is not None:
            block = csls_adjust(block, means=(means[0][lo:hi], means[1]))
        ranks[lo:hi] = compute_metrics(block, np.arange(lo, hi)).ranks
    return _report(ranks, partition=partition, metric_space=metric_space, direction=direction)


def rank_pool(
    reps: np.ndarray,
    pairs: np.ndarray,
    spaces: tuple[str, ...] = ("l1", "csls"),
    directions: tuple[str, ...] = ("g1->g2",),
    k_csls: int = DEFAULT_CSLS_K,
    partitions: tuple[tuple[str, np.ndarray], ...] = (),
) -> list[RankingReport]:
    """Every report of one evaluation, from one L1 matrix of the test pool.

    The g1->g2 matrix is computed once, and every report is a
    :func:`rank_alignment` call on it: g2->g1 ranks its transpose and a
    partition its sub-pool, both read in row blocks, so ranking holds the
    L1 matrix and nothing else of pool size. :func:`csls_adjust` gives the
    same bits in any layout and a rank (1 + #other candidates not strictly
    below the gold, so ties and NaN scores count against the gold and every
    rank lies in 1..n) is a count, so each report is bitwise what a
    standalone :func:`rank_alignment` call on that subset and direction
    gives.

    Reports come per space, then per direction: the whole pool, then each
    ``(name, pair indices)`` partition in order, skipping empty ones. A
    partition that is the whole pool in order (every pair highly
    time-sensitive) takes the whole-pool report under its own name, with no
    sub-pool ranked again. Each pool's and partition's CSLS means are taken
    once, in the first direction, and passed to :func:`rank_alignment` in
    the other. Reports hold no wall-clock time, so a rerun writes the same
    bytes; ``tkgalign eval`` times its whole scoring into the run manifest.
    """
    pairs = _as_pairs(pairs)
    if len(pairs) == 0:
        raise ValueError("cannot rank an empty test pool")
    l1 = similarity_matrix(reps[pairs[:, 0]], reps[pairs[:, 1]])
    whole = np.arange(len(pairs))
    csls_means = {}  # pool (None) or partition number -> its CSLS means, for both directions

    def rank(space, direction, part=None):
        name, subset = ("all", None) if part is None else partitions[part]
        means = None
        if space == "csls":
            if part not in csls_means:
                csls_means[part] = _csls_means(l1, k_csls, subset)
            means = csls_means[part]
        return rank_alignment(reps, pairs, metric_space=space, k_csls=k_csls, partition=name,
                              direction=direction, l1=l1, subset=subset, means=means)

    reports = []
    for space in spaces:
        for direction in directions:
            rep = rank(space, direction)
            reports.append(rep)
            for i, (name, idx) in enumerate(partitions):
                if len(idx) == 0:
                    continue
                if np.array_equal(idx, whole):
                    reports.append(replace(rep, partition=name))
                else:
                    reports.append(rank(space, direction, i))
    return reports


def average_reports(reports: list[RankingReport]) -> dict:
    """Mean metrics across runs, and the spread of MRR and hits@1 (the
    repeat-flag aggregation)."""
    if not reports:
        raise ValueError("no reports to average")
    mrr, hits1 = [r.mrr for r in reports], [r.hits1 for r in reports]
    return {
        "mrr": float(np.mean(mrr)),
        "mrr_std": float(np.std(mrr)),
        "hits1": float(np.mean(hits1)),
        "hits1_std": float(np.std(hits1)),
        "hits10": float(np.mean([r.hits10 for r in reports])),
        "runs": len(reports),
    }


# ---------------------------------------------------------------------------
# time sensitivity


def time_sensitivity(dst: np.ndarray, time: np.ndarray, num_entities: int) -> np.ndarray:
    """Per entity, the fraction of its inward links carrying a real timestamp.

    ``dst``/``time`` are the links of the graph itself, without self-loops
    (plumbing, not graph facts); an entity with no links gets sensitivity 0.
    """
    total = np.bincount(dst, minlength=num_entities)
    untimed = np.bincount(dst, weights=time == UNKNOWN_TIME_ID, minlength=num_entities)
    sensitivity = np.zeros(num_entities, dtype=np.float64)
    linked = total > 0
    sensitivity[linked] = 1.0 - untimed[linked] / total[linked]
    return sensitivity


def partition_test_pairs(pairs: np.ndarray, sensitivity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split merged-id pairs into (highly, lowly) time-sensitive index arrays.

    A pair is highly time-sensitive iff both its entities have sensitivity
    >= :data:`DEFAULT_SENSITIVITY_THRESHOLD`. The two returned arrays index
    into ``pairs`` and together cover it exactly.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    highly = (np.asarray(sensitivity)[pairs] >= DEFAULT_SENSITIVITY_THRESHOLD).all(axis=1)
    return np.flatnonzero(highly), np.flatnonzero(~highly)
