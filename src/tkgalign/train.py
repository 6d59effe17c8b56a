"""Margin-ranking training over merged graph pairs.

Training is full-batch: every epoch scores all seed pairs against freshly
sampled corrupted pairs (both corruption directions, independent samples),
backpropagates the hinge loss, and applies one RMSprop step. Runs are
bit-deterministic for a fixed seed at thread count 1.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Grouping, Tensor
from .errors import ConfigError, NonFiniteError, TrainingDivergedError
from .evaluate import DEFAULT_CSLS_K, RankingReport, partition_test_pairs, rank_pool
from .model import (
    AttentionProbe,
    FlatGraph,
    INT64_LIMIT,
    ModelConfig,
    block_rows,
    init_params,
    model_forward,
    prepare_graph,
    table_sizes,
)
from .optim import ParameterStore, RmsPropState
from .tkg import UNKNOWN_TIME_ID, MergedGraph, SeedAlignments, TemporalKG, merge_pair

logger = logging.getLogger(__name__)

MODES = ("time-aware", "time-unaware")


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    """Everything a run needs; defaults follow the reference setup. The one place a
    run setting is declared and checked: the CLI, the experiments and the
    checkpoint header take their settings from these fields by name. Every
    setting is checked when the config is built, so ``tkgalign train``
    refuses a bad one before it parses the dataset. The
    architecture fields are inherited from :class:`~tkgalign.model.ModelConfig`,
    so the model, :func:`build_graph` and :func:`score_model` all take the run's
    config itself."""

    lr: float = 0.005
    margin: float = 1.0
    epochs: int = 6000
    negatives_per_positive: int = 0  # 0: derived from graph size (see default_negatives)
    eval_every: int = 0  # 0: no validation during training
    patience: int = 0  # 0: no early stopping; else evals without MRR gain before stop
    seed: int = 0
    mode: str = "time-aware"
    k_csls: int = DEFAULT_CSLS_K

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (_finite(self.margin) and self.margin >= 0):
            raise ConfigError(f"margin must be finite and >= 0, got {self.margin}")
        if not (_finite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.negatives_per_positive < 0:
            raise ConfigError("negatives_per_positive must be >= 0 (0 = auto)")
        if self.negatives_per_positive >= INT64_LIMIT:
            raise ConfigError("negatives_per_positive must be below 2**63,"
                              f" got {self.negatives_per_positive}")
        for name in ("eval_every", "patience", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.patience and not self.eval_every:
            raise ConfigError("patience needs eval_every > 0: early stopping counts evals")
        if self.k_csls < 1:
            raise ConfigError(f"k_csls must be >= 1, got {self.k_csls}")
        super().__post_init__()  # checks dim, num_layers, dropout and precision

    def model_config(self) -> TrainConfig:
        """The architecture settings: this config itself."""
        return self


def _finite(value: float) -> bool:
    """Whether ``value`` is finite as the float it converts to: an integer too
    large for a float (a JSON config may give one) is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def default_negatives(num_entities_1: int, num_entities_2: int, num_seeds: int) -> int:
    """Corruptions per positive when unset: (|E1|+|E2|) // |seeds| + 1."""
    return (num_entities_1 + num_entities_2) // num_seeds + 1


def l1_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise L1 distance on the tape: (n, d) x (n, d) -> (n,)."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"dimension mismatch {a.data.shape} vs {b.data.shape}")
    return ad.row_sum(ad.absolute(ad.sub(a, b)))


def sample_negatives(
    pairs: np.ndarray,
    eta: int,
    src_range: tuple[int, int],
    tgt_range: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw corrupted entities for both directions of every positive pair.

    Returns ``(neg_src, neg_tgt)``, each (P, eta): ``neg_tgt[p]`` are uniform
    over the target id range excluding the gold target of pair p (for
    corrupting the right side), ``neg_src[p]`` symmetric over the source
    range. Ranges are half-open in the merged id space.
    """
    if eta < 1:
        raise ConfigError(f"need at least one negative per positive, got {eta}")
    pairs = np.asarray(pairs)
    out = []
    for (lo, hi), gold in ((src_range, pairs[:, 0]), (tgt_range, pairs[:, 1])):
        n = hi - lo
        if n < 2:
            raise ConfigError(
                f"cannot corrupt within an id range of size {n}; need >= 2 entities"
            )
        draws = rng.integers(0, n - 1, size=(len(pairs), eta))
        # skip over the gold id so draws stay uniform on the complement
        draws += draws >= (gold - lo)[:, None]
        out.append(draws + lo)
    return out[0], out[1]


def _l1_block(columns: tuple[Grouping, Grouping], reps: Tensor, replay: bool) -> Tensor:
    """:func:`l1_rows` between the rows of ``reps`` that a block's left and
    right ``columns`` name (a step of :func:`margin_loss`)."""
    left, right = columns
    return l1_rows(ad.gather_rows(reps, left), ad.gather_rows(reps, right))


def margin_loss(
    reps: Tensor,
    pairs: np.ndarray,
    neg_src: np.ndarray,
    neg_tgt: np.ndarray,
    margin: float,
) -> Tensor:
    """Hinge loss summed over both corruption directions.

    Every corrupted pair contributes ReLU(d(pos) + margin - d(neg)); the
    positive distance is shared across its eta corruptions. The P(1 + 2 eta)
    L1 distances are one :func:`autodiff.by_blocks` node: the P positive
    distances (left ``src``, right ``tgt``), the P*eta target corruptions
    (left ``src*eta``, right ``neg_tgt``), then the P*eta source corruptions
    (left ``neg_src``, right ``tgt*eta``), cut into blocks of at most
    ``model.BLOCK_BYTES`` per (rows, width) array. Each block reads only the
    distinct rows of ``reps`` that its two columns name, gathered by
    block-local groupings, and its gradient is added back at those rows. So
    the loss holds one block's arrays at a time, not P*eta*width ones, and
    the backward reruns every block but the last.

    The hinges, their ReLU and both sums are one tape node over the
    distances. The blocks move no bit: each row's L1 is still one contiguous
    row sum, and from a backward root the gradient that reaches ``reps`` is
    integer-valued, so summing it per block and then across blocks is exact
    in any order.
    """
    pairs = np.asarray(pairs)
    num_pos, eta = neg_tgt.shape
    src, tgt = pairs[:, 0], pairs[:, 1]
    left = np.concatenate([src, np.repeat(src, eta), neg_src.reshape(-1)])
    right = np.concatenate([tgt, neg_tgt.reshape(-1), np.repeat(tgt, eta)])
    step = block_rows(reps.shape[1], reps.dtype)
    blocks = []
    for lo in range(0, len(left), step):
        ends = left[lo:lo + step], right[lo:lo + step]
        used, local = np.unique(np.concatenate(ends), return_inverse=True)
        cut = len(ends[0])
        blocks.append((lo, (Grouping(local[:cut]), Grouping(local[cut:])), (used,)))
    d = ad.by_blocks(_l1_block, blocks, len(left), reps)
    d_pos, d_neg = d.data[:num_pos], d.data[num_pos:]
    hinge = (np.tile(np.repeat(d_pos, eta), 2) - d_neg) + margin
    active = hinge > 0
    hinge = np.where(active, hinge, 0)
    # one sum per direction, then their sum: this order fixes the loss's rounding
    loss = hinge[:num_pos * eta].sum() + hinge[num_pos * eta:].sum()
    uses = active.reshape(2, num_pos, eta).sum(axis=(0, 2))

    def bw(g):
        grad = np.empty(num_pos + len(active), dtype=d.dtype)
        grad[:num_pos] = uses
        grad[num_pos:] = np.where(active, -1, 0)
        grad *= g
        d.accumulate(grad)

    return Tensor(np.asarray(loss), (d,), bw)


def apply_time_unaware(graph: FlatGraph) -> FlatGraph:
    """Replace every link timestamp with the unknown id (the ablation input)."""
    return replace(graph, time=np.full_like(graph.time, UNKNOWN_TIME_ID))


def build_graph(merged: MergedGraph, cfg: TrainConfig) -> tuple[FlatGraph, np.ndarray]:
    """The graph a run trains on, and every entity's time sensitivity.

    Training and evaluation both build through here, from ``cfg.mode`` and
    ``cfg.self_loops``, so a checkpoint is evaluated on exactly the graph it
    was trained on. The time-unaware mode blanks every link timestamp; the
    sensitivity always comes from the real timestamps.
    """
    graph, sensitivity = prepare_graph(merged, cfg.self_loops)
    if cfg.mode == "time-unaware":
        graph = apply_time_unaware(graph)
    return graph, sensitivity


def score_model(
    store: ParameterStore,
    graph: FlatGraph,
    cfg: TrainConfig,
    pairs: np.ndarray,
    *,
    spaces: tuple[str, ...],
    directions: tuple[str, ...] = ("g1->g2",),
    sensitivity: np.ndarray | None = None,
) -> list[RankingReport]:
    """Rank merged-id test ``pairs`` with the model's inference forward.

    Validation, ``tkgalign train``/``eval`` and the experiments all score
    through here, in the report order of :func:`evaluate.rank_pool`, with
    CSLS over ``cfg.k_csls`` neighbours, and each report's seed is
    ``cfg.seed``. Given the per-entity
    ``sensitivity`` from :func:`build_graph`, the highly and lowly
    time-sensitive partitions are each re-ranked inside their own sub-pool
    after every whole-pool report. The forward builds no tape (see
    :func:`autodiff.no_tape`); like every forward, it runs one block of
    destination entities at a time, on the blocks that training used (the
    graph keeps its cut, :meth:`model.FlatGraph.blocks`), so a validation
    cuts and groups nothing anew. Raises NonFiniteError, naming how
    many entities it affects, if a representation holds a NaN or infinity
    or is so large that its L1 or CSLS scores could overflow (a row L1 norm
    above 1/16 of the dtype's largest value), as finite tables whose forward
    overflows give.
    """
    with ad.no_tape():
        reps = model_forward(store, graph, cfg, training=False).data
    # |L1| <= 2 * the largest row L1 norm and |CSLS| <= 4 * max |L1|; 16 leaves room for rounding
    norms = np.abs(reps).sum(axis=1, dtype=np.float64)
    bad = np.count_nonzero(~(norms <= np.finfo(reps.dtype).max / 16))  # NaN compares False
    if bad:
        raise NonFiniteError(f"the representations of {bad} of {len(reps)} entities are"
                             " not finite or too large to score")
    partitions = ()
    if sensitivity is not None:
        partitions = tuple(zip(("highly", "lowly"), partition_test_pairs(pairs, sensitivity)))
    reports = rank_pool(reps, pairs, spaces=spaces, directions=directions, k_csls=cfg.k_csls,
                        partitions=partitions)
    return [replace(rep, seed=cfg.seed) for rep in reports]


@dataclass
class TrainReport:
    """Everything measured during one run; timings never enter the fingerprint."""

    losses: list[float] = field(default_factory=list)
    eval_history: list[dict] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    attention_deviations: list[float] = field(default_factory=list)
    stopped_early: bool = False

    def fingerprint(self) -> str:
        """Hash of the deterministic run trace (losses, evals, attention sums)."""
        h = hashlib.sha256()
        h.update(np.asarray(self.losses, dtype=np.float64).tobytes())
        h.update(np.asarray(self.attention_deviations, dtype=np.float64).tobytes())
        h.update(json.dumps(self.eval_history, sort_keys=True).encode())
        return h.hexdigest()

    def history_rows(self) -> list[str]:
        """CSV lines: epoch,loss,mrr,hits1,hits10 (metrics blank between evals).
        No wall-clock time, so reruns write the same bytes; ``epoch_seconds``
        goes to the run manifest."""
        by_epoch = {e["epoch"]: e for e in self.eval_history}
        rows = ["epoch,loss,mrr,hits1,hits10"]
        for i, loss in enumerate(self.losses):
            ev = by_epoch.get(i)
            mrr = f"{ev['mrr']:.6f}" if ev else ""
            h1 = f"{ev['hits1']:.6f}" if ev else ""
            h10 = f"{ev['hits10']:.6f}" if ev else ""
            rows.append(f"{i},{loss:.6f},{mrr},{h1},{h10}")
        return rows


@dataclass
class TrainResult:
    store: ParameterStore
    report: TrainReport
    merged: MergedGraph
    graph: FlatGraph  # as trained on (mode substitution applied)
    index: np.ndarray  # per-entity time sensitivity from the real timestamps
    config: TrainConfig


def train(
    g1: TemporalKG,
    g2: TemporalKG,
    seeds: SeedAlignments,
    config: TrainConfig,
) -> TrainResult:
    """Run one full training job on a graph pair.

    The time-unaware mode substitutes the unknown timestamp everywhere before
    any computation; everything else is shared between modes. Raises
    TrainingDivergedError, naming the epoch, if the loss leaves the finite
    range.
    """
    if not seeds.train_pairs:
        raise ConfigError("need at least one seed pair to train")
    if config.eval_every and not seeds.test_pairs:
        raise ConfigError("eval_every needs at least one test pair to score")
    merged = merge_pair(g1, g2)
    graph, index = build_graph(merged, config)

    rng = np.random.default_rng(config.seed)
    store = init_params(rng, *table_sizes(merged, config.self_loops), config)
    opt = RmsPropState()

    train_pairs = merged.merged_pairs(seeds.train_pairs)
    test_pairs = merged.merged_pairs(seeds.test_pairs)
    eta = config.negatives_per_positive or default_negatives(
        g1.num_entities, g2.num_entities, len(train_pairs)
    )
    src_range = (0, g1.num_entities)
    tgt_range = (merged.entity_offset, merged.entity_offset + g2.num_entities)

    report = TrainReport()
    logger.info(
        "training %d epochs: %d entities, %d links, %d seeds, eta=%d, mode=%s",
        config.epochs, merged.kg.num_entities, graph.num_links, len(train_pairs),
        eta, config.mode,
    )

    best_mrr, evals_since_best = -1.0, 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        neg_src, neg_tgt = sample_negatives(train_pairs, eta, src_range, tgt_range, rng)
        probe = AttentionProbe()
        store.zero_grads()
        reps = model_forward(store, graph, config, training=True, rng=rng, probe=probe)
        loss = margin_loss(reps, train_pairs, neg_src, neg_tgt, config.margin)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(epoch)
        ad.backward(loss)
        opt.step(store, config.lr)

        report.losses.append(loss_value)
        report.attention_deviations.append(probe.worst)
        if config.eval_every and (epoch % config.eval_every == 0 or epoch == config.epochs - 1):
            (rep,) = score_model(store, graph, config, test_pairs, spaces=("csls",))
            metrics = {"mrr": rep.mrr, "hits1": rep.hits1, "hits10": rep.hits10, "epoch": epoch}
            report.eval_history.append(metrics)
            logger.info(
                "epoch %d: loss %.4f, mrr %.4f, hits@1 %.4f",
                epoch, loss_value, metrics["mrr"], metrics["hits1"],
            )
            if config.patience:
                if metrics["mrr"] > best_mrr:
                    best_mrr, evals_since_best = metrics["mrr"], 0
                else:
                    evals_since_best += 1
                    report.stopped_early = evals_since_best >= config.patience
        report.epoch_seconds.append(time.perf_counter() - t0)
        if report.stopped_early:
            logger.info("stopping early at epoch %d (mrr plateau)", epoch)
            break

    return TrainResult(store, report, merged, graph, index, config)
