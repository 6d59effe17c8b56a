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
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, TrainingDivergedError
from .evaluate import rank_alignment
from .model import (
    AttentionProbe,
    FlatGraph,
    ModelConfig,
    init_params,
    model_forward,
    num_relation_rows,
    prepare_graph,
)
from .optim import ParameterStore, RmsPropState
from .tkg import (
    UNKNOWN_TIME_ID,
    DirectedLink,
    MergedGraph,
    NeighborhoodIndex,
    SeedAlignments,
    TemporalKG,
    merge_pair,
)

logger = logging.getLogger(__name__)

MODES = ("time-aware", "time-unaware")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; defaults follow the reference setup."""

    dim: int = 100
    num_layers: int = 2
    lr: float = 0.005
    margin: float = 1.0
    dropout: float = 0.3
    epochs: int = 6000
    negatives_per_positive: int = 0  # 0: derived from graph size (see default_negatives)
    eval_every: int = 0  # 0: no validation during training
    patience: int = 0  # 0: no early stopping; else evals without MRR gain before stop
    seed: int = 0
    mode: str = "time-aware"
    precision: str = "f32"
    self_loops: bool = True
    unique_times: bool = False
    k_csls: int = 10

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.margin < 0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.negatives_per_positive < 0:
            raise ConfigError("negatives_per_positive must be >= 0 (0 = auto)")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            dim=self.dim,
            num_layers=self.num_layers,
            dropout=self.dropout,
            self_loops=self.self_loops,
            unique_times=self.unique_times,
            precision=self.precision,
        )


def default_negatives(num_entities_1: int, num_entities_2: int, num_seeds: int) -> int:
    """Corruptions per positive when unset: (|E1|+|E2|) // |seeds| + 1."""
    if num_seeds < 1:
        raise ConfigError("need at least one seed pair to train")
    return (num_entities_1 + num_entities_2) // num_seeds + 1


def l1_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of absolute coordinate differences between two representations."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch {x.shape} vs {y.shape}")
    return float(np.abs(x - y).sum())


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


def margin_loss(
    reps: Tensor,
    pairs: np.ndarray,
    neg_src: np.ndarray,
    neg_tgt: np.ndarray,
    margin: float,
) -> Tensor:
    """Hinge loss summed over both corruption directions.

    Every corrupted pair contributes ReLU(d(pos) + margin - d(neg)); the
    positive distance is shared across its eta corruptions.
    """
    pairs = np.asarray(pairs)
    num_pos, eta = neg_tgt.shape
    src, tgt = pairs[:, 0], pairs[:, 1]
    d_pos = l1_rows(ad.gather_rows(reps, src), ad.gather_rows(reps, tgt))
    d_pos_rep = ad.gather_rows(d_pos, np.repeat(np.arange(num_pos), eta))
    d_neg_tgt = l1_rows(
        ad.gather_rows(reps, np.repeat(src, eta)),
        ad.gather_rows(reps, neg_tgt.reshape(-1)),
    )
    d_neg_src = l1_rows(
        ad.gather_rows(reps, neg_src.reshape(-1)),
        ad.gather_rows(reps, np.repeat(tgt, eta)),
    )
    hinge_tgt = ad.relu(ad.add_scalar(ad.sub(d_pos_rep, d_neg_tgt), margin))
    hinge_src = ad.relu(ad.add_scalar(ad.sub(d_pos_rep, d_neg_src), margin))
    return ad.add(ad.sum_all(hinge_tgt), ad.sum_all(hinge_src))


def apply_time_unaware(index: NeighborhoodIndex) -> NeighborhoodIndex:
    """Replace every link timestamp with the unknown id (the ablation input)."""
    inward = [
        [DirectedLink(ln.subject, ln.relation, ln.object, UNKNOWN_TIME_ID) for ln in links]
        for links in index.inward
    ]
    return NeighborhoodIndex(inward=inward, self_relation=index.self_relation)


def build_graph(
    merged: MergedGraph,
    mode: str = "time-aware",
    self_loops: bool = True,
    unique_times: bool = False,
) -> tuple[FlatGraph, NeighborhoodIndex]:
    """The graph a run trains on, and the index it was built from.

    Training and evaluation both build through here, so a checkpoint is
    evaluated on exactly the graph it was trained on. The time-unaware mode
    blanks every link timestamp before flattening; the index keeps the real
    timestamps for sensitivity analysis.
    """
    graph, index = prepare_graph(merged, self_loops, unique_times)
    if mode == "time-unaware":
        graph = FlatGraph.from_index(apply_time_unaware(index), unique_times)
    return graph, index


@dataclass
class TrainReport:
    """Everything measured during one run; timings never enter the fingerprint."""

    config: dict
    losses: list[float] = field(default_factory=list)
    eval_history: list[dict] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    attention_deviations: list[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def num_epochs(self) -> int:
        return len(self.losses)

    def fingerprint(self) -> str:
        """Hash of the deterministic run trace (losses, evals, attention sums)."""
        h = hashlib.sha256()
        h.update(np.asarray(self.losses, dtype=np.float64).tobytes())
        h.update(np.asarray(self.attention_deviations, dtype=np.float64).tobytes())
        h.update(json.dumps(self.eval_history, sort_keys=True).encode())
        return h.hexdigest()

    def history_rows(self) -> list[str]:
        """CSV lines: epoch,loss,mrr,hits1,hits10,seconds (metrics blank between evals)."""
        by_epoch = {e["epoch"]: e for e in self.eval_history}
        rows = ["epoch,loss,mrr,hits1,hits10,seconds"]
        for i, (loss, sec) in enumerate(zip(self.losses, self.epoch_seconds)):
            ev = by_epoch.get(i)
            mrr = f"{ev['mrr']:.6f}" if ev else ""
            h1 = f"{ev['hits1']:.6f}" if ev else ""
            h10 = f"{ev['hits10']:.6f}" if ev else ""
            rows.append(f"{i},{loss:.6f},{mrr},{h1},{h10},{sec:.4f}")
        return rows


@dataclass
class TrainResult:
    store: ParameterStore
    report: TrainReport
    merged: MergedGraph
    graph: FlatGraph  # as trained on (mode substitution applied)
    index: NeighborhoodIndex  # pre-substitution structure, for sensitivity analysis
    config: TrainConfig


def _validation_metrics(
    store: ParameterStore,
    graph: FlatGraph,
    mcfg: ModelConfig,
    test_pairs: np.ndarray,
    k_csls: int,
) -> dict:
    reps = model_forward(store, graph, mcfg, training=False).data
    report = rank_alignment(reps, test_pairs, metric_space="csls", k_csls=k_csls)
    return {"mrr": report.mrr, "hits1": report.hits1, "hits10": report.hits10}


def train(
    g1: TemporalKG,
    g2: TemporalKG,
    seeds: SeedAlignments,
    config: TrainConfig,
) -> TrainResult:
    """Run one full training job on a graph pair.

    The time-unaware mode substitutes the unknown timestamp everywhere before
    any computation; everything else is shared between modes. Raises
    TrainingDivergedError (carrying the last finite-loss parameter snapshot)
    if the loss leaves the finite range.
    """
    merged = merge_pair(g1, g2)
    mcfg = config.model_config()
    graph, index = build_graph(merged, config.mode, config.self_loops, config.unique_times)

    rng = np.random.default_rng(config.seed)
    store = init_params(
        rng,
        merged.kg.num_entities,
        num_relation_rows(merged.kg.num_relations, config.self_loops),
        merged.kg.time_index.num_ids,
        mcfg,
    )
    opt = RmsPropState()

    train_pairs = merged.merged_pairs(seeds.train_pairs)
    test_pairs = merged.merged_pairs(seeds.test_pairs)
    eta = config.negatives_per_positive or default_negatives(
        g1.num_entities, g2.num_entities, len(train_pairs)
    )
    src_range = (0, g1.num_entities)
    tgt_range = (merged.entity_offset, merged.entity_offset + g2.num_entities)

    report = TrainReport(config=asdict(config))
    logger.info(
        "training %d epochs: %d entities, %d links, %d seeds, eta=%d, mode=%s",
        config.epochs, merged.kg.num_entities, graph.num_links, len(train_pairs),
        eta, config.mode,
    )

    last_good: dict[str, np.ndarray] | None = None
    best_mrr, evals_since_best = -1.0, 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        neg_src, neg_tgt = sample_negatives(train_pairs, eta, src_range, tgt_range, rng)
        probe = AttentionProbe()
        store.zero_grads()
        reps = model_forward(store, graph, mcfg, training=True, rng=rng, probe=probe)
        loss = margin_loss(reps, train_pairs, neg_src, neg_tgt, config.margin)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(epoch, last_good=last_good)
        last_good = store.state_dict()
        ad.backward(loss)
        opt.step(store, config.lr)

        report.losses.append(loss_value)
        report.attention_deviations.append(probe.worst)
        if config.eval_every and (epoch % config.eval_every == 0 or epoch == config.epochs - 1):
            metrics = _validation_metrics(store, graph, mcfg, test_pairs, config.k_csls)
            metrics["epoch"] = epoch
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
                    if evals_since_best >= config.patience:
                        report.stopped_early = True
                        report.epoch_seconds.append(time.perf_counter() - t0)
                        logger.info("stopping early at epoch %d (mrr plateau)", epoch)
                        break
        report.epoch_seconds.append(time.perf_counter() - t0)

    return TrainResult(store, report, merged, graph, index, config)
