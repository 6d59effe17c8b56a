"""Temporal knowledge graph data model and dataset ingestion.

A temporal KG is a set of facts (subject, relation, object, [begin, end])
over dense integer id spaces for entities, relations and timestamps. A graph
holds its facts in one :class:`QuadTable`, a read-only (n, 5) int64 array
with the columns subject, relation, object, begin and end. Begin and end are
time ids; a time point has begin == end, an unknown endpoint is the reserved
id 0 and a fully non-temporal fact is (0, 0). Two graphs being aligned
always share one timestamp index, in which id 0 is reserved for
unknown/absent time information and never denotes a real date.

The table keeps its form from the file reader through :func:`merge_pair` to
``model.prepare_graph``, which decomposes every fact into a pair of directed
links: the forward link carries the begin time and a reverse link (with a
synthetic reverse relation) carries the end time, so a single attention pass
sees relation direction and both interval endpoints.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError, GraphError, ParseError

logger = logging.getLogger(__name__)

UNKNOWN_TIME_ID = 0
UNKNOWN_TIME_LABEL = "unknown"

DATASET_FILES = (
    "triples_1",
    "triples_2",
    "ent_ids_1",
    "ent_ids_2",
    "rel_ids_1",
    "rel_ids_2",
    "time_id",
    "sup_pairs",
    "ref_pairs",
)


class TimeIndex:
    """Bijective map between normalized timestamp labels and dense ids.

    ``labels[i]`` is the label of id ``i``; id 0 is always the unknown-time
    sentinel. ``num_ids`` counts all ids including the sentinel and equals
    the number of rows a time embedding table must allocate.
    """

    def __init__(self, labels: list[str]):
        if not labels:
            raise GraphError("time index needs at least the sentinel label")
        self.labels = list(labels)
        if len(set(self.labels)) != len(self.labels):
            raise GraphError("duplicate labels in time index")

    @property
    def num_ids(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeIndex) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"TimeIndex(num_ids={self.num_ids})"


def first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a 2-D int64 array that do not repeat an earlier row."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    # one opaque fixed-width key per row: np.unique on it sorts bytes, not fields
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    keep = np.zeros(len(rows), dtype=bool)
    keep[first] = True
    return keep


def _first_dangling(rows: np.ndarray, columns) -> tuple[int, str] | None:
    """The first row holding an id outside its id space, and that id's kind.

    ``columns`` lists ``(column indices, first id, id count, kind)``.
    """
    dangling = [((rows[:, cols] < first) | (rows[:, cols] > first + count - 1)).any(axis=1)
                for cols, first, count, _ in columns]
    bad = np.flatnonzero(np.logical_or.reduce(dangling))
    if len(bad) == 0:
        return None
    i = int(bad[0])
    return i, next(c[3] for c, d in zip(columns, dangling) if d[i])


class QuadTable:
    """A graph's facts: one read-only, C-contiguous (n, 5) int64 array.

    Row i of ``rows`` is fact i as (subject, relation, object, begin, end).
    The constructor copies its input, so nothing else can write to a table.
    ``==`` compares whole tables, row order included, and gives a ``bool``.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        table = np.array(rows, dtype=np.int64, order="C")
        if table.size == 0:
            table = table.reshape(0, 5)
        if table.ndim != 2 or table.shape[1] != 5:
            raise GraphError(f"quad rows must have shape (n, 5), got {table.shape}")
        table.setflags(write=False)
        self.rows = table

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadTable):
            return NotImplemented
        return bool(np.array_equal(self.rows, other.rows))

    def __repr__(self) -> str:
        return f"QuadTable(n={len(self)})"


@dataclass
class TemporalKG:
    """One temporal KG over dense id spaces with a shared time index."""

    num_entities: int
    num_relations: int
    time_index: TimeIndex
    quadruples: QuadTable
    entity_labels: list[str] = field(default_factory=list)
    relation_labels: list[str] = field(default_factory=list)
    name: str = "g"

    def validate(self) -> None:
        """Check referential integrity and duplicate-freeness."""
        q = self.quadruples.rows
        hit = _first_dangling(q, (
            ([0, 2], 0, self.num_entities, "entity"),
            ([1], 0, self.num_relations, "relation"),
            ([3, 4], 0, self.time_index.num_ids, "time"),
        ))
        if hit is not None:
            raise GraphError(f"{self.name}: {hit[1]} id out of range in {tuple(q[hit[0]].tolist())}")
        repeat = ~first_occurrences(q)
        if repeat.any():
            raise GraphError(f"{self.name}: duplicate quadruple {tuple(q[repeat.argmax()].tolist())}")


@dataclass
class SeedAlignments:
    """Pre-aligned entity pairs: training seeds plus held-out test pairs."""

    train_pairs: list[tuple[int, int]]
    test_pairs: list[tuple[int, int]]

    def validate(self) -> None:
        pairs = np.array(self.all_pairs, dtype=np.int64).reshape(-1, 2)
        for side in (0, 1):
            ids, counts = np.unique(pairs[:, side], return_counts=True)
            if (counts > 1).any():
                raise GraphError(f"g{side + 1} entity {ids[counts > 1][0]} is in more than one pair")

    @property
    def all_pairs(self) -> list[tuple[int, int]]:
        return self.train_pairs + self.test_pairs


@dataclass
class MergedGraph:
    """Disjoint union of two KGs in one id space.

    Entities of the second graph are offset by the first graph's entity
    count (``entity_offset``); relations likewise by the first graph's
    relation count. The reverse and self-loop relation ids that the model
    adds on top are laid out by ``model.prepare_graph``.
    """

    kg: TemporalKG
    entity_offset: int

    def merged_pairs(self, pairs) -> np.ndarray:
        """Per-side pairs -> (n, 2) array in the merged id space."""
        return np.array(pairs, dtype=np.int64).reshape(-1, 2) + [0, self.entity_offset]


def merge_pair(g1: TemporalKG, g2: TemporalKG) -> MergedGraph:
    """Merge two KGs sharing a time index into one id space."""
    if g1.time_index is not g2.time_index and g1.time_index != g2.time_index:
        raise GraphError("graphs must share one time index")
    e_off = g1.num_entities
    shifted = g2.quadruples.rows + [e_off, g1.num_relations, e_off, 0, 0]
    merged = TemporalKG(
        num_entities=g1.num_entities + g2.num_entities,
        num_relations=g1.num_relations + g2.num_relations,
        time_index=g1.time_index,
        quadruples=QuadTable(np.concatenate([g1.quadruples.rows, shifted])),
        name="merged",
    )
    return MergedGraph(kg=merged, entity_offset=e_off)


def _field_spans(buf: np.ndarray, row_start: np.ndarray, row_end: np.ndarray,
                 width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's tab count, and the byte spans of the fields of the rows
    before the first row without ``width - 1`` tabs, in row-major order."""
    tabs = np.flatnonzero(buf == ord("\t"))
    tab_count = np.searchsorted(tabs, row_end) - np.searchsorted(tabs, row_start)
    wrong = np.flatnonzero(tab_count != width - 1)
    rows = int(wrong[0]) if len(wrong) else len(row_start)
    # those rows hold all the tabs before the first miscounted one, width - 1 each
    inner = tabs[:(width - 1) * rows].reshape(rows, width - 1)
    field_end = np.concatenate([inner, row_end[:rows, None]], axis=1).ravel()
    field_start = np.empty_like(field_end)
    np.add(field_end[:-1], 1, out=field_start[1:])
    field_start[::width] = row_start[:rows]
    return field_start, field_end, tab_count


def _integer_fields(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and validity of the byte spans ``buf[starts[i]:ends[i]]`` as int64.

    A span is valid if it matches ``-?[0-9]+`` and fits int64. Spans of up
    to 18 digits are built together, one digit column at a time by Horner's
    rule, which cannot overflow; longer ones (zero-padded or out of range)
    are few and are checked and converted exactly with Python's ``int``.
    """
    # clipped reads: an empty field may start, and a short one's cursor may run, past buf's end
    signed = (ends > starts) & (np.take(buf, starts, mode="clip") == ord("-"))
    cursor = starts + signed
    digits = ends - cursor
    valid = digits > 0
    long = np.flatnonzero(digits > 18)
    digits[long] = 0
    values = np.zeros(len(starts), dtype=np.int64)
    for j in range(int(digits.max(initial=0))):
        live = digits > j
        digit = np.take(buf, cursor, mode="clip") - np.uint8(ord("0"))  # past 9 for a non-digit
        valid &= (digit < 10) | ~live
        np.multiply(values, 10, out=values, where=live)
        np.add(values, digit, out=values, where=live)
        cursor += 1
    np.negative(values, out=values, where=signed)
    for k in long.tolist():
        span = buf[starts[k]:ends[k]].tobytes()
        valid[k] = re.fullmatch(rb"-?[0-9]+", span) is not None and -2 ** 63 <= int(span) < 2 ** 63
        values[k] = int(span) if valid[k] else 0
    return values, valid


def read_table(path: Path, width: int, labelled: bool = False) -> tuple[np.ndarray, list[str], list[int]]:
    """Read a UTF-8 file of ``width`` tab-separated fields per line.

    Every dataset file and ``forge split``'s source is read here. Lines end
    in ``\\n`` or ``\\r\\n``; any other character (a lone ``\\r``, ``\\v``,
    ``\\f``, U+2028 and the like) belongs to its line, so a label may hold
    it. A blank line (empty or ASCII spaces only, before the dropped
    ``\\r``) is skipped but counted, and any other line is data.
    Returns the integer fields as int64 rows (the ids of a ``labelled``
    id<TAB>label file), the labels and each row's 1-based line number.
    An integer field is ASCII decimal with an optional leading ``-``
    (``-?[0-9]+``) that fits int64: a ``+`` sign, a ``_`` separator, a space
    or a non-ASCII digit is refused. ParseError names the line of the first
    byte that is not UTF-8, else the first line with another column count
    or an integer field that breaks that rule, whichever comes first.

    The rules above are the whole contract; the file is read in array
    passes over its bytes, not line by line. Newline positions give the
    lines, tab positions each line's column count and the field spans
    (:func:`_field_spans`), and every integer field's value is built at
    once (:func:`_integer_fields`). Only labels are decoded one by one.
    The temporaries hold one entry per line or per field; no per-byte int64
    array is built.
    """
    if not path.is_file():
        raise DatasetError(f"missing dataset file: {path}")
    data = path.read_bytes()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(path.name, line, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    buf = np.frombuffer(data, dtype=np.uint8)
    # split at \n only: \v, \f, U+2028 and the like belong to their line
    newlines = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines, len(buf))
    ended = np.flatnonzero(ends > starts)
    ends[ended] -= buf[ends[ended] - 1] == ord("\r")
    # blank: empty or ASCII spaces only, so only a line that starts with a space needs a look
    blank = ends == starts
    spaced = np.flatnonzero(~blank)
    spaced = spaced[buf[starts[spaced]] == ord(" ")]
    if len(spaced):
        bounds = np.stack([starts[spaced], ends[spaced]], axis=1).ravel()
        # segments [start, end) at the even positions; the last may run to the end of buf
        other = np.logical_or.reduceat(buf != ord(" "), bounds[:-1] if bounds[-1] == len(buf) else bounds)
        blank[spaced] = ~other[::2]
    lines = np.flatnonzero(~blank)
    field_start, field_end, tab_count = _field_spans(buf, starts[lines], ends[lines], width)
    per_row = 1 if labelled else width
    int_start, int_end = (field_start[::width], field_end[::width]) if labelled else (field_start, field_end)
    values, valid = _integer_fields(buf, int_start, int_end)
    # only the rows before the first miscounted one have fields, so an earlier bad integer wins
    bad = np.flatnonzero(~valid)
    if len(bad):
        k = int(bad[0])
        field = data[int_start[k]:int_end[k]].decode("utf-8")
        raise ParseError(path.name, int(lines[k // per_row]) + 1, f"id {field!r} is not a 64-bit integer")
    miscounted = len(field_start) // width
    if miscounted < len(lines):
        raise ParseError(path.name, int(lines[miscounted]) + 1,
                         f"expected {width} columns, got {tab_count[miscounted] + 1}")
    labels = []
    if labelled:
        labels = [data[s:e].decode("utf-8")
                  for s, e in zip(field_start[1::width].tolist(), field_end[1::width].tolist())]
    return values.reshape(-1, per_row), labels, (lines + 1).tolist()


def _read_id_labels(path: Path, unique_labels: bool = False) -> tuple[list[str], int]:
    """Read an id<TAB>label file; return the labels in id order and the first id.

    Ids must be contiguous but may start anywhere: each graph's ids are
    shifted down by their own first id to dense 0..n-1 ids. With
    ``unique_labels`` a label given to a second id raises ParseError at that line.
    After :func:`read_table`'s checks, an empty file, then the first repeated
    id or label, then ids that are not contiguous raise ParseError.
    """
    rows, labels, line_no = read_table(path, 2, labelled=True)
    if not labels:
        raise ParseError(path.name, 0, "file is empty")
    ids = rows[:, 0]
    repeat_id = ~first_occurrences(rows)
    repeat_label = np.zeros_like(repeat_id)
    if unique_labels:
        _, codes = np.unique(np.array(labels, dtype=object), return_inverse=True)
        repeat_label = ~first_occurrences(codes.reshape(-1, 1))
    bad = np.flatnonzero(repeat_id | repeat_label)
    if len(bad):
        k = int(bad[0])
        if repeat_id[k]:
            raise ParseError(path.name, line_no[k], f"duplicate id {ids[k]}")
        also = ids[labels.index(labels[k])]
        raise ParseError(path.name, line_no[k], f"duplicate label {labels[k]!r} (also id {also})")
    lo, hi = int(ids.min()), int(ids.max())
    if hi - lo + 1 != len(ids):
        raise ParseError(path.name, 0, f"ids are not contiguous ({lo}..{hi}, {len(ids)} rows)")
    return [labels[k] for k in np.argsort(ids).tolist()], lo


def _read_local_ids(path: Path, columns) -> np.ndarray:
    """Read a tab-separated integer file, shifting its ids to 0-based local ids.

    ``columns`` covers every column with ``(column indices, first id, id
    count, kind)`` groups; an id becomes ``id - first``. An id outside
    ``first .. first + count - 1`` raises ParseError at the first such line.
    Ranges are checked before the shift, so it cannot wrap around int64.
    """
    width = sum(len(cols) for cols, *_ in columns)
    raw, _, line_no = read_table(path, width)
    hit = _first_dangling(raw, columns)
    if hit is not None:
        i, kind = hit
        raise ParseError(path.name, line_no[i], f"dangling {kind} id in {raw[i].tolist()}")
    shift = np.zeros(width, dtype=np.int64)
    for cols, first, _, _ in columns:
        shift[cols] = first
    return raw - shift


def drop_repeated_rows(rows: np.ndarray, name: str) -> np.ndarray:
    """The rows without those that repeat an earlier row, warning when any go."""
    keep = first_occurrences(rows)
    if not keep.all():
        logger.warning("%s: dropped %d duplicate quadruples", name, len(keep) - keep.sum())
    return rows[keep]


def parse_dataset(directory: str | Path) -> tuple[TemporalKG, TemporalKG, SeedAlignments]:
    """Parse a dataset directory into two KGs and their seed alignments.

    The directory layout is the tab-separated contract shared with the forge:
    ``triples_1``/``triples_2`` (5 integer columns; time id 0 = unknown),
    ``ent_ids_*``/``rel_ids_*``/``time_id`` (id<TAB>label) and
    ``sup_pairs``/``ref_pairs`` (train seeds / test pairs). Each graph's
    entity and relation ids may start anywhere (0, 1, or past the other
    graph's range); every file is localized by the first id of its graph's
    id file. Repeated fact rows are dropped, keeping the first occurrence.
    """
    d = Path(directory)
    if not d.is_dir():
        raise DatasetError(f"dataset directory not found: {d}")

    ents1, e1 = _read_id_labels(d / "ent_ids_1")
    rels1, r1 = _read_id_labels(d / "rel_ids_1")
    ents2, e2 = _read_id_labels(d / "ent_ids_2")
    rels2, r2 = _read_id_labels(d / "rel_ids_2")
    time_labels, t0 = _read_id_labels(d / "time_id", unique_labels=True)
    if t0 != 0:
        raise ParseError("time_id", 0, "time ids must be dense starting at 0")
    time_index = TimeIndex(time_labels)

    def read_kg(tag: str, ents: list[str], rels: list[str], e_off: int, r_off: int) -> TemporalKG:
        local = _read_local_ids(d / f"triples_{tag}", (
            ([0, 2], e_off, len(ents), "entity"),
            ([1], r_off, len(rels), "relation"),
            ([3, 4], 0, time_index.num_ids, "time"),
        ))
        quads = QuadTable(drop_repeated_rows(local, f"triples_{tag}"))
        return TemporalKG(len(ents), len(rels), time_index, quads, ents, rels, f"g{tag}")

    g1 = read_kg("1", ents1, rels1, e1, r1)
    g2 = read_kg("2", ents2, rels2, e2, r2)

    def read_pairs(name: str) -> list[tuple[int, int]]:
        local = _read_local_ids(d / name, (([0], e1, len(ents1), "entity"), ([1], e2, len(ents2), "entity")))
        return list(map(tuple, local.tolist()))

    seeds = SeedAlignments(train_pairs=read_pairs("sup_pairs"), test_pairs=read_pairs("ref_pairs"))
    try:
        seeds.validate()
    except GraphError as exc:
        raise ParseError("sup_pairs/ref_pairs", 0, str(exc)) from None

    logger.info(
        "parsed %s: |E1|=%d |E2|=%d |R1|=%d |R2|=%d |T|=%d |Q1|=%d |Q2|=%d seeds=%d test=%d",
        d, g1.num_entities, g2.num_entities, g1.num_relations, g2.num_relations,
        time_index.num_ids, len(g1.quadruples), len(g2.quadruples),
        len(seeds.train_pairs), len(seeds.test_pairs),
    )
    return g1, g2, seeds
