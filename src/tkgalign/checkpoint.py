"""Parameter checkpoint files.

A checkpoint is a numpy ``.npz`` archive holding every parameter array under
its name plus a ``__meta__`` entry: a JSON header recording the format
version, the table sizes (entities, relation rows, time ids) and the run
settings named in :data:`RUN_SETTINGS` (architecture, precision, graph
options, the CSLS neighbourhood its metrics were ranked with and the seed),
copied from the run's :class:`~tkgalign.train.TrainConfig` by field name.
The version is checked before anything else in the header is read, so a
checkpoint of another format is refused with a ConfigError whatever keys it
carries; so is a missing file, one that is not an ``.npz`` archive, a header
that is not JSON, a header value of the wrong type (the version, sizes, seed
and ``k_csls`` must be ints, ``self_loops`` a bool), run settings that
``TrainConfig`` rejects, a negative size, arrays that do not match by name or
shape the tables ``model.param_shapes`` lays out for the header, and an array
holding a NaN or infinity. Arrays are stored row-major exactly as trained and
loaded as stored, with no model built and no random numbers drawn.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, require_field_types
from .model import param_shapes, table_sizes
from .optim import ParameterStore
from .train import TrainConfig, TrainResult

FORMAT_VERSION = 4
# the TrainConfig fields a header records; CheckpointMeta carries each under its own name
RUN_SETTINGS = ("dim", "num_layers", "precision", "self_loops", "mode", "seed", "k_csls")
SIZES = ("num_entities", "num_relation_rows", "num_times")


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
    k_csls: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @property
    def sizes(self) -> tuple[int, int, int]:
        """The table sizes, in :data:`SIZES` order."""
        return tuple(getattr(self, name) for name in SIZES)

    def model_config(self) -> TrainConfig:
        """The run's settings as recorded, checked as ``train`` checks them: the
        architecture to rebuild, the graph options and the CSLS neighbourhood
        (fields the header does not record, such as dropout, which inference
        skips, stay at their defaults)."""
        return TrainConfig(**{name: getattr(self, name) for name in RUN_SETTINGS})


def meta_from_result(result: TrainResult) -> CheckpointMeta:
    """Derive the checkpoint header from a finished training run."""
    return CheckpointMeta(
        format_version=FORMAT_VERSION,
        **dict(zip(SIZES, table_sizes(result.merged, result.config.self_loops))),
        **{name: getattr(result.config, name) for name in RUN_SETTINGS},
    )


def save_checkpoint(path: str | Path, store: ParameterStore, meta: CheckpointMeta) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {name: t.data for name, t in store.items()}
    np.savez(path, __meta__=np.frombuffer(meta.to_json().encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str | Path) -> tuple[ParameterStore, CheckpointMeta]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        archive = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a checkpoint archive ({exc})") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not a checkpoint archive (a bare array)")
    with archive:
        if "__meta__" not in archive:
            raise ConfigError(f"{path}: not a checkpoint (missing header)")
        try:
            header = json.loads(bytes(archive["__meta__"]).decode())
        except ValueError as exc:
            raise ConfigError(f"{path}: checkpoint header is not JSON ({exc})") from None
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != FORMAT_VERSION:
            raise ConfigError(
                f"{path}: checkpoint format {version}, expected {FORMAT_VERSION}"
            )
        try:
            meta = CheckpointMeta(**header)
        except TypeError as exc:
            raise ConfigError(f"{path}: malformed checkpoint header ({exc})") from exc
        where = f"{path}: checkpoint header"
        require_field_types(CheckpointMeta, header, where)
        try:
            mcfg = meta.model_config()
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        for name, size in zip(SIZES, meta.sizes):
            if size < 0:
                raise ConfigError(f"{where}: {name} must be >= 0, got {size}")
        shapes = param_shapes(*meta.sizes, mcfg)
        names = {k for k in archive.files if k != "__meta__"}
        if names != shapes.keys():
            missing, unknown = sorted(shapes.keys() - names), sorted(names - shapes.keys())
            raise ConfigError(
                f"{path}: checkpoint arrays do not match the header"
                f" (missing {missing}, unknown {unknown})"
            )
        store = ParameterStore()
        for name, shape in shapes.items():
            try:
                arr = archive[name]
                if arr.shape != shape:
                    raise ConfigError(f"{path}: shape mismatch for {name!r}: {arr.shape} vs {shape}")
                arr = arr.astype(mcfg.dtype, copy=False)
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise ConfigError(f"{path}: {exc}") from None
            if not np.isfinite(arr).all():
                raise ConfigError(f"{path}: checkpoint array {name!r} holds non-finite values")
            store.add(name, arr)
    return store, meta
