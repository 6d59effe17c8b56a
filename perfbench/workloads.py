"""The benchmark's workloads: a generated dataset shape plus one CLI command.

Sizes are chosen so that one command takes a few seconds on a 2-core
machine, which lets a run of the benchmark time several fresh processes per
workload and still fit its time budget. Densities (links per entity), widths,
negatives per positive (eta) and the untimed share follow the workload's
purpose; absolute entity counts are smaller than the paper's datasets.
"""
from __future__ import annotations

from dataclasses import dataclass

from gen import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    traits: frozenset[str]  # which layers the command exercises (see tracing.Metric.needs)
    options: dict  # TrainConfig fields of the trained model

    @property
    def trains(self) -> bool:
        return "train" in self.traits


# A few epochs keep a run short while still showing a falling loss.
TRAIN_EPOCHS = 3
# Epochs used to write the checkpoint that eval-pool evaluates (untimed).
EVAL_CHECKPOINT_EPOCHS = 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-dense",
            "link-heavy narrow graph (YAGO-WIKI-like): per-link gather/scatter and "
            "segment reductions dominate, most quads to parse; evaluation near zero",
            Shape(entities=2000, quads=17800, relations=30, time_steps=1000,
                  seeds=365, test_pairs=300, untimed_share=0.0),
            frozenset({"train"}),
            {"dim": 25, "num_layers": 2, "epochs": TRAIN_EPOCHS, "seed": 0},
        ),
        Workload(
            "train-wide-tu",
            "wide rows and eta ~100 (DICEWS-like, time-unaware): per-element "
            "arithmetic and the loss dominate; runs the time-unaware graph path",
            Shape(entities=1500, quads=4500, relations=30, time_steps=1000,
                  seeds=30, test_pairs=150, untimed_share=0.0),
            frozenset({"train", "time-unaware"}),
            {"dim": 100, "num_layers": 2, "margin": 3.0, "mode": "time-unaware",
             "epochs": TRAIN_EPOCHS, "seed": 0},
        ),
        Workload(
            "eval-pool",
            "large test pool with both time-sensitivity partitions: L1/CSLS "
            "similarity, sorts and partitioning dominate; one inference forward",
            Shape(entities=2000, quads=6000, relations=30, time_steps=1000,
                  seeds=300, test_pairs=1500, untimed_share=0.3),
            frozenset({"eval"}),
            {"dim": 25, "num_layers": 2, "epochs": EVAL_CHECKPOINT_EPOCHS, "seed": 0},
        ),
    )
}

_FLAGS = {"dim": "--dim", "num_layers": "--layers", "margin": "--margin",
          "mode": "--mode", "epochs": "--epochs", "seed": "--seed"}


def train_argv(options: dict, data: str, out: str) -> list[str]:
    argv = ["train", "--data", data, "--repeats", "1", "--out", out]
    for key, value in options.items():
        argv += [_FLAGS[key], str(value)]
    return argv


def command_argv(w: Workload, data: str, out: str, checkpoint: str) -> list[str]:
    """The timed command, as ``tkgalign`` arguments."""
    if w.trains:
        return train_argv(w.options, data, out)
    return ["eval", "--checkpoint", checkpoint, "--data", data, "--metric", "both",
            "--direction", "both", "--partition", "--out", out]
