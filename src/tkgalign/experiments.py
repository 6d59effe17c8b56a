"""Canned desk-scale experiments contrasting time-aware and time-blind models.

Two experiments, each fully pinned by its default config:

* ``planted_ambiguity_experiment`` — a synthetic pair with twin entities that
  only timestamps can tell apart. The time-aware model should align every
  twin; the time-blind ablation faces a symmetric tie across the twin group
  and cannot do better than chance there. The twins' hits@1 is read off the
  whole-pool ranks.
* ``sensitivity_gap_experiment`` — a hybrid dataset (about a third of the
  facts untimed) where the time-aware advantage should concentrate on the
  highly time-sensitive test pairs and mostly vanish on the lowly sensitive
  ones. Each partition is re-ranked inside its own sub-pool, as
  ``tkgalign eval --partition`` does.

An :class:`ExperimentConfig` is a forge spec, one
:class:`~tkgalign.train.TrainConfig` and the training seeds; each run trains
that config with its mode and seed replaced, so the experiments declare no
training setting of their own. Every run is scored by CSLS through
:func:`train.score_model`. Reports are plain dicts, with the training
settings under ``config["train"]``; apart from ``runtime_seconds``, reruns
with the same config give identical reports.
"""
from __future__ import annotations

import logging
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError
from .evaluate import RankingReport, partition_test_pairs
from .forge import ForgeResult, ForgeSpec, dataset_stats, synth_tkg
from .model import prepare_graph
from .tkg import merge_pair
from .train import TrainConfig, TrainReport, score_model, train

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """One dataset recipe plus the training setup run per seed and mode."""

    forge: ForgeSpec
    train: TrainConfig
    train_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        for i, seed in enumerate(self.train_seeds):  # refused here, before a dataset is forged
            replace(self.train, seed=seed)
            if seed in self.train_seeds[:i]:
                raise ConfigError(f"training seed {seed} is repeated; each seed is one run")


PLANTED_AMBIGUITY = ExperimentConfig(
    forge=ForgeSpec(
        entities=60,
        relations=4,
        time_steps=40,
        quads_per_entity=4,
        planted_pairs=3,
        seed_count=20,
        seed=11,
        name="planted",
    ),
    train=TrainConfig(dim=25, epochs=500),
)

SENSITIVITY_GAP = ExperimentConfig(
    forge=ForgeSpec(
        entities=60,
        relations=4,
        time_steps=40,
        quads_per_entity=4,
        planted_pairs=3,
        planted_untimed_pairs=4,
        nontemporal_entity_fraction=0.3,
        seed_count=20,
        seed=23,
        name="hybrid",
    ),
    train=TrainConfig(dim=25, epochs=2000),
)


def _planted_test_indices(data: ForgeResult) -> list[int]:
    test = [tuple(p) for p in data.seeds.test_pairs]
    return [test.index((rec["e1"], rec["e2"])) for rec in data.manifest["planted"]]


def _run_pairs(
    data: ForgeResult,
    cfg: ExperimentConfig,
    measure: Callable[[dict[str, RankingReport], TrainReport], dict],
) -> list[dict]:
    """Train every (seed, mode) pair of ``cfg`` and rank its test pairs by CSLS.

    ``measure(reports, trained)`` turns one run's reports, keyed by partition
    (the whole pool under "all"), and its training report into that mode's
    entry of the seed's row: ``{"seed": s, "tea": ..., "tu": ...}``.
    """
    runs = []
    for seed in cfg.train_seeds:
        row: dict = {"seed": seed}
        for mode, tag in (("time-aware", "tea"), ("time-unaware", "tu")):
            result = train(data.g1, data.g2, data.seeds, replace(cfg.train, mode=mode, seed=seed))
            reports = score_model(
                result.store, result.graph, result.config,
                result.merged.merged_pairs(data.seeds.test_pairs),
                spaces=("csls",), sensitivity=result.index,
            )
            row[tag] = measure({r.partition: r for r in reports}, result.report)
        runs.append(row)
        logger.info("seed %d: %s", seed, " | ".join(
            tag + "".join(f" {k} {v:.3f}" for k, v in row[tag].items()) for tag in ("tea", "tu")))
    return runs


def planted_ambiguity_experiment(cfg: ExperimentConfig = PLANTED_AMBIGUITY) -> dict:
    """Twins separable only by time: the ablation should fail them, the full
    model should align every one of them, in (nearly) every seed."""
    t0 = time.perf_counter()
    data = synth_tkg(cfg.forge)
    planted_idx = _planted_test_indices(data)

    def measure(reports: dict[str, RankingReport], trained: TrainReport) -> dict:
        whole = reports["all"]
        return {
            "hits1": whole.hits1,
            "mrr": whole.mrr,
            "planted_hits1": float((np.asarray(whole.ranks)[planted_idx] == 1).mean()),
            "worst_attention_deviation": max(trained.attention_deviations, default=0.0),
        }

    runs = _run_pairs(data, cfg, measure)
    n = len(runs)
    summary = {
        "num_runs": n,
        "tea_planted_perfect_runs": sum(r["tea"]["planted_hits1"] == 1.0 for r in runs),
        "tu_planted_low_runs": sum(r["tu"]["planted_hits1"] <= 0.5 for r in runs),
        "tea_ge_tu_overall_runs": sum(r["tea"]["hits1"] >= r["tu"]["hits1"] for r in runs),
        "mean_tea_planted_hits1": float(np.mean([r["tea"]["planted_hits1"] for r in runs])),
        "mean_tu_planted_hits1": float(np.mean([r["tu"]["planted_hits1"] for r in runs])),
    }
    return {
        "experiment": "planted_ambiguity",
        "config": asdict(cfg),
        "dataset": asdict(dataset_stats(data.g1, data.g2, data.seeds)),
        "planted_test_indices": planted_idx,
        "runs": runs,
        "summary": summary,
        "runtime_seconds": time.perf_counter() - t0,
    }


def sensitivity_gap_experiment(cfg: ExperimentConfig = SENSITIVITY_GAP) -> dict:
    """Hybrid dataset: the time-aware advantage should concentrate on the
    highly time-sensitive partition (gap there exceeds the lowly gap)."""
    t0 = time.perf_counter()
    data = synth_tkg(cfg.forge)
    merged = merge_pair(data.g1, data.g2)
    parts = partition_test_pairs(merged.merged_pairs(data.seeds.test_pairs), prepare_graph(merged)[1])
    for name, idx in zip(("highly", "lowly"), parts):
        if len(idx) == 0:  # checked before training: the gap is undefined without it
            raise ConfigError(f"the {name} time-sensitive partition of {cfg.forge.name!r} has no test pairs")
    runs = _run_pairs(data, cfg, lambda reports, _: {
        "hits1": reports["all"].hits1,
        "hits1_high": reports["highly"].hits1,
        "hits1_low": reports["lowly"].hits1,
    })
    for row in runs:
        row["num_high"], row["num_low"] = (len(idx) for idx in parts)
        row["gap_high"] = row["tea"]["hits1_high"] - row["tu"]["hits1_high"]
        row["gap_low"] = row["tea"]["hits1_low"] - row["tu"]["hits1_low"]
    mean_high = float(np.mean([r["gap_high"] for r in runs]))
    mean_low = float(np.mean([r["gap_low"] for r in runs]))
    summary = {
        "num_runs": len(runs),
        "mean_gap_high": mean_high,
        "mean_gap_low": mean_low,
        "pattern_holds": mean_high > mean_low,
        "runs_where_pattern_holds": sum(r["gap_high"] > r["gap_low"] for r in runs),
    }
    return {
        "experiment": "sensitivity_gap",
        "config": asdict(cfg),
        "dataset": asdict(dataset_stats(data.g1, data.g2, data.seeds)),
        "runs": runs,
        "summary": summary,
        "runtime_seconds": time.perf_counter() - t0,
    }
