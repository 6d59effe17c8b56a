"""Temporal knowledge graph data model and dataset ingestion.

A temporal KG is a set of quadruples (subject, relation, object, interval)
over dense integer id spaces for entities, relations and timestamps. Two
graphs being aligned always share one timestamp index, in which id 0 is
reserved for unknown/absent time information and never denotes a real date.

The model later decomposes every interval fact into a pair of directed
links (see ``model.prepare_graph``): the forward link carries the begin time
and a reverse link (with a synthetic reverse relation) carries the end time,
so a single attention pass sees relation direction and both interval
endpoints.
"""
from __future__ import annotations

import logging
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


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """[begin, end] endpoints as time ids; a time point has begin == end.

    An unknown begin or end is the reserved id 0; a fully non-temporal fact
    is (0, 0).
    """

    begin: int
    end: int


@dataclass(frozen=True, slots=True)
class Quadruple:
    subject: int
    relation: int
    object: int
    interval: TimeInterval


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
        self._id_of = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._id_of) != len(self.labels):
            raise GraphError("duplicate labels in time index")

    @property
    def num_ids(self) -> int:
        return len(self.labels)

    @property
    def num_real(self) -> int:
        return len(self.labels) - 1

    def id_of(self, label: str) -> int:
        return self._id_of[label]

    def label_of(self, time_id: int) -> str:
        return self.labels[time_id]

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeIndex) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"TimeIndex(num_ids={self.num_ids})"


def _time_sort_key(label: str) -> tuple[int, int, int]:
    parts = label.split("-")
    try:
        if len(parts) == 1:
            return (int(parts[0]), 0, 0)
        if len(parts) == 3:
            return (int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise ParseError("<labels>", 0, f"unparseable timestamp label {label!r}")


def unify_time_sets(labels_1: list[str], labels_2: list[str]) -> TimeIndex:
    """Build the shared time index over the union of two label sets.

    Labels must already be normalized to a common textual granularity
    (``YYYY`` or ``YYYY-MM-DD``). Real labels are sorted chronologically and
    assigned ids starting at 1; id 0 is the unknown-time sentinel.
    """
    union = set(labels_1) | set(labels_2)
    union.discard(UNKNOWN_TIME_LABEL)
    ordered = sorted(union, key=_time_sort_key)
    return TimeIndex([UNKNOWN_TIME_LABEL] + ordered)


@dataclass
class TemporalKG:
    """One temporal KG over dense id spaces with a shared time index."""

    num_entities: int
    num_relations: int
    time_index: TimeIndex
    quadruples: list[Quadruple]
    entity_labels: list[str] = field(default_factory=list)
    relation_labels: list[str] = field(default_factory=list)
    name: str = "g"

    def validate(self) -> None:
        """Check referential integrity and duplicate-freeness."""
        seen = set()
        for q in self.quadruples:
            if not (0 <= q.subject < self.num_entities):
                raise GraphError(f"{self.name}: subject {q.subject} out of range")
            if not (0 <= q.object < self.num_entities):
                raise GraphError(f"{self.name}: object {q.object} out of range")
            if not (0 <= q.relation < self.num_relations):
                raise GraphError(f"{self.name}: relation {q.relation} out of range")
            for t in (q.interval.begin, q.interval.end):
                if not (0 <= t < self.time_index.num_ids):
                    raise GraphError(f"{self.name}: time id {t} out of range")
            key = (q.subject, q.relation, q.object, q.interval.begin, q.interval.end)
            if key in seen:
                raise GraphError(f"{self.name}: duplicate quadruple {key}")
            seen.add(key)


@dataclass
class SeedAlignments:
    """Pre-aligned entity pairs: training seeds plus held-out test pairs."""

    train_pairs: list[tuple[int, int]]
    test_pairs: list[tuple[int, int]]

    def validate(self) -> None:
        for side in (0, 1):
            seen: set[int] = set()
            for split in (self.train_pairs, self.test_pairs):
                for pair in split:
                    e = pair[side]
                    if e in seen:
                        raise GraphError(f"entity {e} appears in more than one alignment pair")
                    seen.add(e)

    @property
    def all_pairs(self) -> list[tuple[int, int]]:
        return self.train_pairs + self.test_pairs


@dataclass
class MergedGraph:
    """Disjoint union of two KGs in one id space.

    Entities of the second graph are offset by the first graph's entity
    count; relations likewise. Reverse relations for the merged relation set
    live in a contiguous block above the originals, and the optional
    self-loop relation sits just past the reverses.
    """

    kg: TemporalKG
    num_entities_g1: int
    num_entities_g2: int
    num_relations_g1: int
    num_relations_g2: int

    @property
    def entity_offset(self) -> int:
        return self.num_entities_g1

    @property
    def relation_offset(self) -> int:
        return self.num_relations_g1

    @property
    def self_relation(self) -> int:
        # one id past the reverse block
        return 2 * self.kg.num_relations

    def merged_pair(self, pair: tuple[int, int]) -> tuple[int, int]:
        return (pair[0], pair[1] + self.entity_offset)

    def merged_pairs(self, pairs) -> np.ndarray:
        """Per-side pairs -> (n, 2) array in the merged id space."""
        out = np.asarray([self.merged_pair(tuple(p)) for p in pairs], dtype=np.int64)
        return out.reshape(-1, 2)


def merge_pair(g1: TemporalKG, g2: TemporalKG) -> MergedGraph:
    """Merge two KGs sharing a time index into one id space."""
    if g1.time_index is not g2.time_index and g1.time_index != g2.time_index:
        raise GraphError("graphs must share one time index")
    e_off = g1.num_entities
    r_off = g1.num_relations
    quads = list(g1.quadruples)
    for q in g2.quadruples:
        quads.append(
            Quadruple(q.subject + e_off, q.relation + r_off, q.object + e_off, q.interval)
        )
    merged = TemporalKG(
        num_entities=g1.num_entities + g2.num_entities,
        num_relations=g1.num_relations + g2.num_relations,
        time_index=g1.time_index,
        quadruples=quads,
        name="merged",
    )
    return MergedGraph(
        kg=merged,
        num_entities_g1=g1.num_entities,
        num_entities_g2=g2.num_entities,
        num_relations_g1=g1.num_relations,
        num_relations_g2=g2.num_relations,
    )


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DatasetError(f"missing dataset file: {path}")
    return path.read_text(encoding="utf-8").splitlines()


def _parse_int(value: str, file: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(file, line_no, f"non-integer id {value!r}") from None


def _read_id_label_file(path: Path) -> dict[int, str]:
    mapping: dict[int, str] = {}
    for i, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(path.name, i, f"expected 2 columns, got {len(cols)}")
        idx = _parse_int(cols[0], path.name, i)
        if idx in mapping:
            raise ParseError(path.name, i, f"duplicate id {idx}")
        mapping[idx] = cols[1]
    if not mapping:
        raise ParseError(path.name, 0, "file is empty")
    return mapping


def _localize_ids(mapping: dict[int, str], path_name: str) -> list[str]:
    """Re-base an id->label map to a dense 0..n-1 label list.

    Ids must be contiguous; a nonzero start (the convention where the second
    graph's ids continue after the first's) is shifted down.
    """
    lo, hi = min(mapping), max(mapping)
    if hi - lo + 1 != len(mapping):
        raise ParseError(path_name, 0, f"ids are not contiguous ({lo}..{hi}, {len(mapping)} rows)")
    return [mapping[i] for i in range(lo, hi + 1)]


def _read_pair_file(path: Path) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    for i, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(path.name, i, f"expected 2 columns, got {len(cols)}")
        pairs.append((_parse_int(cols[0], path.name, i), _parse_int(cols[1], path.name, i)))
    return pairs


def parse_dataset(directory: str | Path) -> tuple[TemporalKG, TemporalKG, SeedAlignments]:
    """Parse a dataset directory into two KGs and their seed alignments.

    The directory layout is the tab-separated contract shared with the forge:
    ``triples_1``/``triples_2`` (5 integer columns; time id 0 = unknown),
    ``ent_ids_*``/``rel_ids_*``/``time_id`` (id<TAB>label) and
    ``sup_pairs``/``ref_pairs`` (train seeds / test pairs). Ids of the second
    graph may be 0-based or continue the first graph's range; both are
    normalized to per-graph dense ids.
    """
    d = Path(directory)
    if not d.is_dir():
        raise DatasetError(f"dataset directory not found: {d}")

    ent1 = _localize_ids(_read_id_label_file(d / "ent_ids_1"), "ent_ids_1")
    rel1 = _localize_ids(_read_id_label_file(d / "rel_ids_1"), "rel_ids_1")
    ent2_raw = _read_id_label_file(d / "ent_ids_2")
    rel2_raw = _read_id_label_file(d / "rel_ids_2")
    ent2_offset = min(ent2_raw)
    rel2_offset = min(rel2_raw)
    ent2 = _localize_ids(ent2_raw, "ent_ids_2")
    rel2 = _localize_ids(rel2_raw, "rel_ids_2")

    time_rows = _read_id_label_file(d / "time_id")
    if min(time_rows) != 0 or max(time_rows) != len(time_rows) - 1:
        raise ParseError("time_id", 0, "time ids must be dense starting at 0")
    time_index = TimeIndex([time_rows[i] for i in range(len(time_rows))])

    def build_kg(tag: str, ents, rels, e_off, r_off) -> TemporalKG:
        path = d / f"triples_{tag}"
        seen: set[tuple] = set()
        quads: list[Quadruple] = []
        dropped = 0
        for i, line in enumerate(_read_lines(path), start=1):
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 5:
                raise ParseError(path.name, i, f"expected 5 columns, got {len(cols)}")
            s, r, o, tb, te = (_parse_int(c, path.name, i) for c in cols)
            s, r, o = s - e_off, r - r_off, o - e_off
            if not (0 <= s < len(ents)) or not (0 <= o < len(ents)):
                raise ParseError(path.name, i, f"dangling entity id ({s} or {o})")
            if not (0 <= r < len(rels)):
                raise ParseError(path.name, i, f"dangling relation id {r}")
            if not (0 <= tb < time_index.num_ids) or not (0 <= te < time_index.num_ids):
                raise ParseError(path.name, i, f"dangling time id ({tb} or {te})")
            key = (s, r, o, tb, te)
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
            quads.append(Quadruple(s, r, o, TimeInterval(tb, te)))
        if dropped:
            logger.warning("%s: dropped %d duplicate quadruples", path.name, dropped)
        return TemporalKG(
            num_entities=len(ents),
            num_relations=len(rels),
            time_index=time_index,
            quadruples=quads,
            entity_labels=ents,
            relation_labels=rels,
            name=f"g{tag}",
        )

    g1 = build_kg("1", ent1, rel1, 0, 0)
    g2 = build_kg("2", ent2, rel2, ent2_offset, rel2_offset)

    def localize_pairs(name: str) -> list[tuple[int, int]]:
        pairs = []
        for i, (a, b) in enumerate(_read_pair_file(d / name), start=1):
            a2, b2 = a, b - ent2_offset
            if not (0 <= a2 < g1.num_entities) or not (0 <= b2 < g2.num_entities):
                raise ParseError(name, i, f"dangling entity id in pair ({a}, {b})")
            pairs.append((a2, b2))
        return pairs

    seeds = SeedAlignments(
        train_pairs=localize_pairs("sup_pairs"),
        test_pairs=localize_pairs("ref_pairs"),
    )

    for side, tag in ((0, "g1"), (1, "g2")):
        seen: set[int] = set()
        for a, b in seeds.all_pairs:
            e = (a, b)[side]
            if e in seen:
                raise ParseError(
                    "sup_pairs/ref_pairs", 0, f"duplicate seed entity {e} in {tag}"
                )
            seen.add(e)

    g1.validate()
    g2.validate()
    logger.info(
        "parsed %s: |E1|=%d |E2|=%d |R1|=%d |R2|=%d |T|=%d |Q1|=%d |Q2|=%d seeds=%d test=%d",
        d,
        g1.num_entities,
        g2.num_entities,
        g1.num_relations,
        g2.num_relations,
        time_index.num_ids,
        len(g1.quadruples),
        len(g2.quadruples),
        len(seeds.train_pairs),
        len(seeds.test_pairs),
    )
    return g1, g2, seeds
