"""Parameter checkpoint files.

A checkpoint is a numpy ``.npz`` archive holding every parameter array under
its name plus a ``__meta__`` entry: a JSON header recording the format
version, architecture sizes, precision, the graph options (mode, self-loops,
unique times) and the seed that produced the run.
Arrays are stored row-major exactly as trained.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .model import ModelConfig, init_params, num_relation_rows
from .optim import ParameterStore

if TYPE_CHECKING:  # pragma: no cover
    from .train import TrainResult

FORMAT_VERSION = 2


@dataclass(frozen=True)
class CheckpointMeta:
    """Header pinned alongside the arrays; enough to rebuild the model."""

    format_version: int
    dim: int
    num_layers: int
    num_entities: int
    num_relation_rows: int
    num_times: int
    precision: str
    self_loops: bool
    mode: str
    seed: int
    unique_times: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CheckpointMeta":
        return cls(**json.loads(text))


def meta_from_result(result: "TrainResult") -> CheckpointMeta:
    """Derive the checkpoint header from a finished training run."""
    cfg = result.config
    kg = result.merged.kg
    return CheckpointMeta(
        format_version=FORMAT_VERSION,
        dim=cfg.dim,
        num_layers=cfg.num_layers,
        num_entities=kg.num_entities,
        num_relation_rows=num_relation_rows(kg.num_relations, cfg.self_loops),
        num_times=kg.time_index.num_ids,
        precision=cfg.precision,
        self_loops=cfg.self_loops,
        mode=cfg.mode,
        seed=cfg.seed,
        unique_times=cfg.unique_times,
    )


def save_checkpoint(path: str | Path, store: ParameterStore, meta: CheckpointMeta) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {name: t.data for name, t in store.items()}
    np.savez(path, __meta__=np.frombuffer(meta.to_json().encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str | Path) -> tuple[ParameterStore, CheckpointMeta]:
    with np.load(Path(path)) as archive:
        if "__meta__" not in archive:
            raise ConfigError(f"{path}: not a checkpoint (missing header)")
        meta = CheckpointMeta.from_json(bytes(archive["__meta__"]).decode())
        if meta.format_version != FORMAT_VERSION:
            raise ConfigError(
                f"{path}: checkpoint format {meta.format_version}, expected {FORMAT_VERSION}"
            )
        cfg = ModelConfig(
            dim=meta.dim,
            num_layers=meta.num_layers,
            self_loops=meta.self_loops,
            precision=meta.precision,
        )
        store = init_params(
            np.random.default_rng(0),
            meta.num_entities,
            meta.num_relation_rows,
            meta.num_times,
            cfg,
        )
        store.load_state_dict({k: archive[k] for k in archive.files if k != "__meta__"})
    return store, meta
