"""Parameter checkpoint files.

A checkpoint is a numpy ``.npz`` archive, a zip of one ``<name>.npy`` member
per parameter array plus ``__meta__.npy``: a JSON header that is the run's
:class:`~tkgalign.train.TrainConfig`, every field under its own name, plus
the format version, the table sizes (entities, relation rows, time ids) and
the digest of the graph the run trained on (``model.FlatGraph.sha256``),
which ``tkgalign eval`` compares with the graph it builds. Loading checks,
in this order: the version, so a checkpoint of another format (format 5 had
no graph digest, format 4 recorded seven settings) is refused whatever keys
it carries; that the header's keys are exactly the fields of
:class:`CheckpointMeta`; the type of each value (the version, sizes, seed
and ``k_csls`` must be ints, ``self_loops`` a bool, the digest a str, and so
on); the run settings, by ``TrainConfig``'s own rules; the sizes, which must
be >= 0; and the arrays, which must match by name and shape the tables
``model.param_shapes`` lays out for the header, be of the header
precision's float type (in either byte order) and hold no NaN or infinity.
A missing file, one that is not a zip archive or has no ``__meta__.npy``
member, a member that cannot be read (a damaged archive: see
:data:`UNREADABLE`) or a header that is not JSON is refused too, each with a
ConfigError. Arrays are stored row-major exactly as trained and loaded as
stored, with no model built and no random numbers drawn.
"""
from __future__ import annotations

import io
import json
import tokenize
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, require_field_types
from .model import param_shapes, table_sizes
from .optim import ParameterStore
from .tkg import write_file
from .train import TrainConfig, TrainResult

FORMAT_VERSION = 6
SIZES = ("num_entities", "num_relation_rows", "num_times")
# what opening a damaged archive or reading one of its members raises: a bad
# CRC, name or magic number (BadZipFile), a cut or garbled stream (OSError,
# EOFError, ValueError), a compression method, zip version or flag that zipfile
# does not handle (RuntimeError for "encrypted", and its subclass
# NotImplementedError) and a garbled npy header (ValueError, or
# tokenize.TokenError for an unclosed bracket). Named, not Exception, so that
# running out of memory still ends the run as a failure of its own.
UNREADABLE = (zipfile.BadZipFile, OSError, EOFError, ValueError, RuntimeError,
              tokenize.TokenError)


@dataclass(frozen=True, kw_only=True)
class CheckpointMeta(TrainConfig):
    """Header pinned alongside the arrays: every setting of the run's
    ``TrainConfig``, which rebuilds the model and its graph and ranks as the
    run did, plus the format version, the table sizes and the digest of the
    graph the run trained on. Loading checks the version, the exact key set,
    the value types, the settings and the sizes, in that order (see the
    module docstring). A loaded meta is handed as it is wherever a
    ``TrainConfig`` goes."""

    format_version: int
    num_entities: int
    num_relation_rows: int
    num_times: int
    graph_sha256: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @property
    def sizes(self) -> tuple[int, int, int]:
        """The table sizes, in :data:`SIZES` order."""
        return tuple(getattr(self, name) for name in SIZES)


def meta_from_result(result: TrainResult) -> CheckpointMeta:
    """Derive the checkpoint header from a finished training run."""
    return CheckpointMeta(
        format_version=FORMAT_VERSION,
        **dict(zip(SIZES, table_sizes(result.merged, result.config.self_loops))),
        graph_sha256=result.graph.sha256(),
        **asdict(result.config),
    )


def save_checkpoint(path: str | Path, store: ParameterStore, meta: CheckpointMeta) -> None:
    buffer = io.BytesIO()
    arrays = {name: t.data for name, t in store.items()}
    np.savez(buffer, __meta__=np.frombuffer(meta.to_json().encode(), dtype=np.uint8), **arrays)
    write_file(Path(path), buffer.getbuffer())


def load_checkpoint(path: str | Path) -> tuple[ParameterStore, CheckpointMeta]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        archive = zipfile.ZipFile(path)
    except UNREADABLE as exc:
        raise ConfigError(f"{path}: not a checkpoint archive ({exc})") from None
    with archive:
        members = set(archive.namelist())
        if "__meta__.npy" not in members:
            raise ConfigError(f"{path}: not a checkpoint (missing header)")
        header_bytes = bytes(_read_member(archive, "__meta__", path))
        try:
            header = json.loads(header_bytes.decode())
        except ValueError as exc:
            raise ConfigError(f"{path}: checkpoint header is not JSON ({exc})") from None
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != FORMAT_VERSION:
            raise ConfigError(
                f"{path}: checkpoint format {version}, expected {FORMAT_VERSION}"
            )
        where = f"{path}: checkpoint header"
        # every key, or TrainConfig's defaults would fill a missing setting silently
        keys = {f.name for f in fields(CheckpointMeta)}
        if header.keys() != keys:
            missing, unknown = sorted(keys - header.keys()), sorted(header.keys() - keys)
            raise ConfigError(f"{where}: missing keys {missing}, unknown keys {unknown}")
        require_field_types(CheckpointMeta, header, where)
        try:
            meta = CheckpointMeta(**header)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        for name, size in zip(SIZES, meta.sizes):
            if size < 0:
                raise ConfigError(f"{where}: {name} must be >= 0, got {size}")
        shapes = param_shapes(*meta.sizes, meta)
        stored, expected = members - {"__meta__.npy"}, {f"{name}.npy" for name in shapes}
        if stored != expected:
            missing = sorted(m.removesuffix(".npy") for m in expected - stored)
            unknown = sorted(m.removesuffix(".npy") for m in stored - expected)
            raise ConfigError(
                f"{path}: checkpoint arrays do not match the header"
                f" (missing {missing}, unknown {unknown})"
            )
        store = ParameterStore()
        for name, shape in shapes.items():
            arr = _read_member(archive, name, path)
            if arr.dtype.newbyteorder("=") != meta.dtype:
                raise ConfigError(f"{path}: checkpoint array {name!r} is {arr.dtype},"
                                  f" expected {meta.dtype}")
            arr = arr.astype(meta.dtype, copy=False)
            if arr.shape != shape:
                raise ConfigError(f"{path}: shape mismatch for {name!r}: {arr.shape} vs {shape}")
            if not np.isfinite(arr).all():
                raise ConfigError(f"{path}: checkpoint array {name!r} holds non-finite values")
            store.add(name, arr)
    return store, meta


def _read_member(archive, name: str, path: Path) -> np.ndarray:
    """Member ``name`` of an open checkpoint archive as stored; a ConfigError
    naming the file and the member if it cannot be read.

    The member is read whole, so zipfile checks its CRC, and must hold
    nothing after its array: reading only the bytes an npy header asks for
    would skip that check, and a damaged header length would silently
    shift every value of the table."""
    try:
        raw = archive.read(f"{name}.npy")
        stream = io.BytesIO(raw)
        arr = np.lib.format.read_array(stream, allow_pickle=False)
        if stream.tell() != len(raw):
            raise ValueError(f"{len(raw) - stream.tell()} bytes follow the array")
        return arr
    except UNREADABLE as exc:
        raise ConfigError(f"{path}: checkpoint member {name!r} is unreadable ({exc})") from None
