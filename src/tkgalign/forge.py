"""Dataset construction: overlap splits, synthetic graph pairs, statistics.

The generator builds a random source quadruple set, divides it into two
overlapping subsets with independently re-indexed id spaces, and optionally
plants *time-ambiguous twins*: groups of entities wired to one shared set of
anchor neighbors through identical relations, distinguishable only by the
timestamps on their links. A time-blind model faces a symmetric tie across
the whole twin group; a time-aware model can still separate them. Twin
links live in disjoint timestamp windows per twin, and every twin quadruple
is forced into the shared split portion so both graphs carry the identical
facts (timestamps included).

Untimed twins (all motif links at the unknown timestamp) are the mirror
construction: ambiguous for time-aware and time-blind models alike, useful
for datasets that need a low-time-sensitivity partition with known-hard
pairs.
"""
from __future__ import annotations

import json
import logging
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError, ParseError
from .model import ModelConfig, num_relation_rows, param_shapes
from .tkg import (
    UNKNOWN_TIME_ID,
    UNKNOWN_TIME_LABEL,
    QuadTable,
    SeedAlignments,
    TemporalKG,
    TimeIndex,
    drop_repeated_rows,
    first_occurrences,
    read_int_rows,
)

logger = logging.getLogger(__name__)

ANCHORS_PER_TWIN = 3
RELATIONS_PER_MOTIF = 2
WINDOW_WIDTH = 3
UNTIMED_AFFINITY = 0.8  # chance an untimed entity links to another untimed entity


@dataclass(frozen=True)
class ForgeSpec:
    """Generation recipe; byte-identical outputs for identical specs."""

    entities: int = 60
    relations: int = 4
    time_steps: int = 40
    quads_per_entity: int = 4
    planted_pairs: int = 0
    planted_untimed_pairs: int = 0
    nontemporal_entity_fraction: float = 0.0
    overlap_ratio: float = 0.5
    seed_count: int = 20
    seed: int = 0
    name: str = "synth"

    def __post_init__(self):
        if not (0.0 <= self.overlap_ratio <= 1.0):
            raise ConfigError(f"overlap_ratio must be in [0,1], got {self.overlap_ratio}")
        if not (0.0 <= self.nontemporal_entity_fraction <= 1.0):
            raise ConfigError("nontemporal_entity_fraction must be in [0,1]")
        for fname in ("entities", "relations", "time_steps", "quads_per_entity", "seed_count"):
            if getattr(self, fname) < 1:
                raise ConfigError(f"{fname} must be >= 1")
        if self.planted_pairs < 0 or self.planted_untimed_pairs < 0:
            raise ConfigError("planted pair counts must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_twins(self) -> int:
        return 2 * (self.planted_pairs + self.planted_untimed_pairs)


@dataclass(frozen=True)
class DatasetStats:
    """Size summary of a graph pair (reverse links excluded everywhere)."""

    num_entities_1: int
    num_entities_2: int
    num_relations_1: int
    num_relations_2: int
    num_times: int
    num_quads_1: int
    num_quads_2: int
    num_pairs: int
    num_seeds: int

    def as_row(self) -> tuple:
        return (
            self.num_entities_1, self.num_entities_2,
            self.num_relations_1, self.num_relations_2,
            self.num_times, self.num_quads_1, self.num_quads_2,
            self.num_pairs, self.num_seeds,
        )


@dataclass
class SplitResult:
    """Two re-indexed (n, 5) int64 quad arrays; local id i of a side is source
    id ``ents_*[i]`` (``rels_*[i]``), so ``searchsorted`` maps source to local."""

    quads_1: np.ndarray  # local ids per side
    quads_2: np.ndarray
    ents_1: np.ndarray  # sorted source entity ids of each side
    ents_2: np.ndarray
    rels_1: np.ndarray  # sorted source relation ids of each side
    rels_2: np.ndarray
    alignment: np.ndarray  # (a, 2) local_1, local_2 of both-side entities, source-id order
    shared_count: int
    total: int


@dataclass
class ForgeResult:
    g1: TemporalKG
    g2: TemporalKG
    seeds: SeedAlignments
    manifest: dict


def split_overlap(
    quads,
    overlap_ratio: float,
    rng: np.random.Generator,
    forced_shared: range | list[int] = (),
) -> SplitResult:
    """Divide (n, 5) source quads into two overlapping, similarly sized subsets.

    ``overlap_ratio`` of the quads (rounded, with a warning when inexact) go
    to both sides with identical timestamps; the rest is halved. Indices in
    ``forced_shared`` are guaranteed into the shared portion (they count
    toward its quota). Entity and relation ids are re-indexed densely per
    side in source-id order, and the gold entity alignment over both-side
    entities is returned.
    """
    quads = QuadTable(quads).rows
    n = len(quads)
    if n == 0:
        raise ConfigError("cannot split an empty quadruple set")
    if not (0.0 <= overlap_ratio <= 1.0):
        raise ConfigError(f"overlap_ratio must be in [0,1], got {overlap_ratio}")
    exact = n * overlap_ratio
    shared_n = int(round(exact))
    if abs(exact - shared_n) > 1e-9:
        logger.warning(
            "overlap %g of %d quads is not integral; using %d shared",
            overlap_ratio, n, shared_n,
        )
    forced = np.unique(np.asarray(forced_shared, dtype=np.int64))
    if ((forced < 0) | (forced >= n)).any():
        raise ConfigError("forced_shared index out of range")
    if len(forced) > shared_n:
        raise ConfigError(
            f"{len(forced)} quads must be shared but the overlap quota is {shared_n}"
        )
    rest = n - shared_n
    if rest % 2:
        logger.warning("%d exclusive quads split unevenly (%d vs %d)", rest, rest // 2, rest - rest // 2)

    is_forced = np.zeros(n, dtype=bool)
    is_forced[forced] = True
    free = np.flatnonzero(~is_forced)
    drawn = free[rng.permutation(len(free))]
    take = shared_n - len(forced)
    shared_idx = np.concatenate([forced, drawn[:take]])
    side1 = np.sort(np.concatenate([shared_idx, drawn[take : take + rest // 2]]))
    side2 = np.sort(np.concatenate([shared_idx, drawn[take + rest // 2 :]]))

    def build_side(idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        local = quads[idxs]
        ents, ent_local = np.unique(local[:, [0, 2]], return_inverse=True)
        rels, rel_local = np.unique(local[:, 1], return_inverse=True)
        local[:, [0, 2]] = ent_local.reshape(-1, 2)
        local[:, 1] = rel_local.ravel()
        return local, ents, rels

    q1, ents1, rels1 = build_side(side1)
    q2, ents2, rels2 = build_side(side2)
    both = np.intersect1d(ents1, ents2)
    alignment = np.stack([np.searchsorted(ents1, both), np.searchsorted(ents2, both)], axis=1)
    return SplitResult(q1, q2, ents1, ents2, rels1, rels2, alignment, shared_n, n)


def _side_kg(
    name: str,
    local_quads: np.ndarray,
    ents: np.ndarray,
    rels: np.ndarray,
    time_index: TimeIndex,
    entity_label: Callable[[int], str] = "e{}".format,
) -> TemporalKG:
    """The validated graph of one split side.

    ``ents``/``rels`` are the side's sorted source ids (local id i is source
    id ``ents[i]``); a local entity is labelled ``entity_label(source id)``
    and a local relation ``r<source id>``.
    """
    kg = TemporalKG(
        num_entities=len(ents),
        num_relations=len(rels),
        time_index=time_index,
        quadruples=QuadTable(local_quads),
        entity_labels=[entity_label(e) for e in ents.tolist()],
        relation_labels=[f"r{r}" for r in rels.tolist()],
        name=name,
    )
    kg.validate()
    return kg


def measured_overlap(g1: TemporalKG, g2: TemporalKG, all_pairs) -> float:
    """Fraction of distinct facts present in both graphs.

    A fact is shared when its subject and object are gold-aligned, its
    relation label matches, and its interval is identical. Denominator is
    the size of the union under the same identification.
    """
    pairs = np.array(all_pairs, dtype=np.int64).reshape(-1, 2)
    e_map = np.full(g1.num_entities, -1, dtype=np.int64)
    e_map[pairs[:, 0]] = pairs[:, 1]
    label_code = {lab: i for i, lab in enumerate(dict.fromkeys(g1.relation_labels + g2.relation_labels))}

    def canon(kg: TemporalKG, rows: np.ndarray) -> np.ndarray:
        """Distinct rows, with relation ids replaced by shared label codes."""
        codes = np.array([label_code[lab] for lab in kg.relation_labels], dtype=np.int64)
        rows = rows.copy()
        rows[:, 1] = codes[rows[:, 1]]
        return rows[first_occurrences(rows)]

    q1 = g1.quadruples.rows
    mapped = (e_map[q1[:, 0]] >= 0) & (e_map[q1[:, 2]] >= 0)
    only1 = int(first_occurrences(q1[~mapped]).sum())  # facts graph 2 cannot share
    aligned = q1[mapped]
    aligned[:, [0, 2]] = e_map[aligned[:, [0, 2]]]
    s1 = canon(g1, aligned)
    s2 = canon(g2, g2.quadruples.rows)
    both = int(first_occurrences(np.concatenate([s1, s2])).sum())
    union = both + only1
    return (len(s1) + len(s2) - both) / union if union else 0.0


def _generate_base_quads(spec: ForgeSpec, rng: np.random.Generator) -> tuple[list[tuple], set[int]]:
    """Random quads, one batch per subject entity; bounded retry on duplicates.

    Entities selected as non-temporal emit only unknown-time facts and
    preferentially link among themselves, so the graph develops genuinely
    low-time-sensitivity regions rather than uniform dilution.
    """
    n_untimed = int(round(spec.nontemporal_entity_fraction * spec.entities))
    untimed = set(rng.choice(spec.entities, size=n_untimed, replace=False).tolist()) if n_untimed else set()
    untimed_list = sorted(untimed)
    quads: set[tuple[int, int, int, int, int]] = set()
    for e in range(spec.entities):
        emitted = 0
        attempts = 0
        while emitted < spec.quads_per_entity and attempts < 100 * spec.quads_per_entity:
            attempts += 1
            r = int(rng.integers(spec.relations))
            if e in untimed and len(untimed_list) > 1 and rng.random() < UNTIMED_AFFINITY:
                o = untimed_list[int(rng.integers(len(untimed_list)))]
                while o == e:
                    o = untimed_list[int(rng.integers(len(untimed_list)))]
            else:
                o = int(rng.integers(spec.entities - 1))
                o += o >= e
            if e in untimed:
                tb = te = UNKNOWN_TIME_ID
            else:
                a = int(rng.integers(1, spec.time_steps + 1))
                b = int(rng.integers(1, spec.time_steps + 1))
                tb, te = min(a, b), max(a, b)
            q = (e, r, o, tb, te)
            if q not in quads:
                quads.add(q)
                emitted += 1
        if emitted < spec.quads_per_entity:
            raise ConfigError(
                f"cannot place {spec.quads_per_entity} distinct quads for entity {e}; "
                "increase relations/time_steps/entities"
            )
    return sorted(quads), untimed


@dataclass
class _TwinPlan:
    kind: str  # timed | untimed
    group: int  # twins of one pair share a group id
    member: str  # a | b
    source_id: int
    window: tuple[int, int] | None  # inclusive real-time range, None for untimed
    quads: list[tuple[int, int, int, int, int]] = field(default_factory=list)


def _plan_twins(spec: ForgeSpec, rng: np.random.Generator) -> tuple[list[_TwinPlan], dict]:
    """Lay out twin entities, their shared anchors, and disjoint time windows."""
    if spec.num_twins == 0:
        return [], {"anchors_timed": [], "anchors_untimed": [], "relations": []}
    if spec.relations < RELATIONS_PER_MOTIF:
        raise ConfigError(
            f"planting needs >= {RELATIONS_PER_MOTIF} relations, got {spec.relations}"
        )
    need_anchors = ANCHORS_PER_TWIN * (2 if spec.planted_pairs and spec.planted_untimed_pairs else 1)
    if spec.entities < need_anchors + 2:
        raise ConfigError("too few entities to host the planted motif anchors")
    n_timed = 2 * spec.planted_pairs
    if n_timed:
        slot = spec.time_steps // n_timed
        if slot < WINDOW_WIDTH:
            raise ConfigError(
                f"{spec.time_steps} time steps cannot hold {n_timed} disjoint "
                f"windows of width {WINDOW_WIDTH}"
            )
    anchor_pool = rng.choice(spec.entities, size=need_anchors, replace=False).tolist()
    anchors_timed = sorted(int(a) for a in anchor_pool[:ANCHORS_PER_TWIN]) if spec.planted_pairs else []
    anchors_untimed = (
        sorted(int(a) for a in anchor_pool[ANCHORS_PER_TWIN:ANCHORS_PER_TWIN * 2])
        if spec.planted_untimed_pairs and spec.planted_pairs
        else (sorted(int(a) for a in anchor_pool[:ANCHORS_PER_TWIN]) if spec.planted_untimed_pairs else [])
    )
    motif_rels = sorted(int(r) for r in rng.choice(spec.relations, size=RELATIONS_PER_MOTIF, replace=False))

    plans: list[_TwinPlan] = []
    next_id = spec.entities
    for pair in range(spec.planted_pairs):
        for j, member in enumerate(("a", "b")):
            t_idx = 2 * pair + j
            start = 1 + t_idx * (spec.time_steps // n_timed)
            window = (start, start + WINDOW_WIDTH - 1)
            plan = _TwinPlan("timed", pair, member, next_id, window)
            for m, anchor in enumerate(anchors_timed):
                lo, hi = sorted(rng.integers(window[0], window[1] + 1, size=2).tolist())
                plan.quads.append((next_id, motif_rels[m % RELATIONS_PER_MOTIF], anchor, int(lo), int(hi)))
            plans.append(plan)
            next_id += 1
    for pair in range(spec.planted_untimed_pairs):
        for member in ("a", "b"):
            plan = _TwinPlan("untimed", spec.planted_pairs + pair, member, next_id, None)
            for m, anchor in enumerate(anchors_untimed):
                plan.quads.append(
                    (next_id, motif_rels[m % RELATIONS_PER_MOTIF], anchor, UNKNOWN_TIME_ID, UNKNOWN_TIME_ID)
                )
            plans.append(plan)
            next_id += 1
    meta = {
        "anchors_timed": anchors_timed,
        "anchors_untimed": anchors_untimed,
        "relations": motif_rels,
    }
    return plans, meta


def synth_tkg(spec: ForgeSpec, rng: np.random.Generator | None = None) -> ForgeResult:
    """Generate an aligned graph pair with optional planted ambiguity.

    All twin quads are forced into the shared split portion, so every twin
    exists on both sides with identical facts; anchors are promoted into the
    training seeds and twins always land in the test split (the manifest
    lists them).
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    base, untimed_entities = _generate_base_quads(spec, rng)
    plans, twin_meta = _plan_twins(spec, rng)
    quads = list(base)
    forced_start = len(quads)
    for plan in plans:
        quads.extend(plan.quads)
    split = split_overlap(quads, spec.overlap_ratio, rng, forced_shared=range(forced_start, len(quads)))

    ent_labels = {e: f"e{e}" for e in range(spec.entities)}
    for plan in plans:
        ent_labels[plan.source_id] = f"twin{plan.group}{plan.member}"
    time_index = TimeIndex([UNKNOWN_TIME_LABEL] + [f"t{i}" for i in range(1, spec.time_steps + 1)])
    g1 = _side_kg(f"{spec.name}_1", split.quads_1, split.ents_1, split.rels_1,
                  time_index, ent_labels.__getitem__)
    g2 = _side_kg(f"{spec.name}_2", split.quads_2, split.ents_2, split.rels_2,
                  time_index, ent_labels.__getitem__)

    # every twin's quads are shared, so twins are always alignable
    twin_sources = np.array([p.source_id for p in plans], dtype=np.int64)
    anchor_sources = np.union1d(np.asarray(twin_meta["anchors_timed"], dtype=np.int64),
                                np.asarray(twin_meta["anchors_untimed"], dtype=np.int64))
    alignable_sources = np.intersect1d(split.ents_1, split.ents_2)
    lost = np.setdiff1d(anchor_sources, alignable_sources)
    if len(lost):
        raise DatasetError(f"anchor entity {lost[0]} missing from one side after split")

    candidate_seeds = np.setdiff1d(alignable_sources, np.union1d(twin_sources, anchor_sources))
    fill = spec.seed_count - len(anchor_sources)
    if fill < 0:
        raise ConfigError(
            f"seed_count {spec.seed_count} below the {len(anchor_sources)} anchor seeds"
        )
    if fill > len(candidate_seeds):
        raise ConfigError(
            f"seed_count {spec.seed_count} exceeds the {len(candidate_seeds) + len(anchor_sources)} "
            "alignable non-twin entities"
        )
    chosen = rng.choice(len(candidate_seeds), size=fill, replace=False) if fill else []
    seed_sources = np.union1d(anchor_sources, candidate_seeds[chosen])
    test_sources = np.setdiff1d(alignable_sources, seed_sources)

    def to_pairs(sources) -> list[tuple[int, int]]:
        """Source entity ids -> (local_1, local_2) pairs."""
        sources = np.asarray(sources, dtype=np.int64)
        local = np.stack([np.searchsorted(split.ents_1, sources), np.searchsorted(split.ents_2, sources)], 1)
        return list(map(tuple, local.tolist()))

    seeds = SeedAlignments(train_pairs=to_pairs(seed_sources), test_pairs=to_pairs(test_sources))
    seeds.validate()

    planted = [
        {
            "kind": p.kind,
            "group": p.group,
            "member": p.member,
            "e1": e1,
            "e2": e2,
            "window": list(p.window) if p.window else None,
        }
        for p, (e1, e2) in zip(plans, to_pairs([p.source_id for p in plans]))
    ]
    manifest = {
        "spec": asdict(spec),
        "planted": planted,
        "anchors": {
            "timed": to_pairs(twin_meta["anchors_timed"]),
            "untimed": to_pairs(twin_meta["anchors_untimed"]),
            "relations": twin_meta["relations"],
        },
        "shared_quads": split.shared_count,
        "source_quads": split.total,
        "overlap": split.shared_count / split.total,
        "untimed_entities": len(untimed_entities),
    }
    return ForgeResult(g1, g2, seeds, manifest)


def planted_isomorphic(kg: TemporalKG, a: int, b: int, time_blind: bool = True) -> bool:
    """Check whether two entities' outgoing facts match as multisets.

    Time-blind comparison drops the interval, so twins wired to the same
    anchors through the same relations pass it while the timestamp-aware
    comparison tells them apart.
    """
    q = kg.quadruples.rows
    cols = [1, 2] if time_blind else [1, 2, 3, 4]

    def profile(e: int) -> np.ndarray:
        rows = q[q[:, 0] == e][:, cols]
        return rows[np.lexsort(rows.T[::-1])]

    return np.array_equal(profile(a), profile(b))


def param_count(stats: DatasetStats, k: int, num_layers: int) -> int:
    """Trainable scalars of the model at width k with self-loops off, summed
    over the tables ``model.param_shapes`` lays out for the merged pair."""
    rows = num_relation_rows(stats.num_relations_1 + stats.num_relations_2, self_loops=False)
    shapes = param_shapes(stats.num_entities_1 + stats.num_entities_2, rows, stats.num_times,
                          ModelConfig(dim=k, num_layers=num_layers))
    return sum(math.prod(shape) for shape in shapes.values())


def dataset_stats(g1: TemporalKG, g2: TemporalKG, seeds: SeedAlignments) -> DatasetStats:
    return DatasetStats(
        num_entities_1=g1.num_entities,
        num_entities_2=g2.num_entities,
        num_relations_1=g1.num_relations,
        num_relations_2=g2.num_relations,
        num_times=g1.time_index.num_ids,
        num_quads_1=len(g1.quadruples),
        num_quads_2=len(g2.quadruples),
        num_pairs=len(seeds.train_pairs) + len(seeds.test_pairs),
        num_seeds=len(seeds.train_pairs),
    )


def format_stats(stats: DatasetStats, name: str, overlap: float | None = None) -> str:
    head = f"{'dataset':<16}" + "".join(
        f"{c:>9}" for c in ("|E1|", "|E2|", "|R1|", "|R2|", "|T*|", "|Q1|", "|Q2|", "|P|", "|S|")
    )
    row = f"{name:<16}" + "".join(f"{v:>9}" for v in stats.as_row())
    lines = [head, row]
    if overlap is not None:
        lines.append(f"overlap {overlap:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# directory io (mirrors the parser's file contract)


def write_dataset(
    directory: str | Path,
    g1: TemporalKG,
    g2: TemporalKG,
    seeds: SeedAlignments,
    manifest: dict | None = None,
) -> Path:
    """Emit the on-disk dataset directory (ids of graph 2 continue graph 1's).

    Writes triples_1/2, ent_ids_1/2, rel_ids_1/2, time_id, sup_pairs,
    ref_pairs, stats.txt, and manifest.json when given one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    e_off, r_off = g1.num_entities, g1.num_relations

    def lines_to(fname: str, rows) -> None:
        (directory / fname).write_text("".join(f"{row}\n" for row in rows))

    def quad_rows(kg: TemporalKG, eo: int, ro: int):
        for s, r, o, tb, te in (kg.quadruples.rows + [eo, ro, eo, 0, 0]).tolist():
            yield f"{s}\t{r}\t{o}\t{tb}\t{te}"

    lines_to("triples_1", quad_rows(g1, 0, 0))
    lines_to("triples_2", quad_rows(g2, e_off, r_off))
    lines_to("ent_ids_1", (f"{i}\t{lab}" for i, lab in enumerate(g1.entity_labels)))
    lines_to("ent_ids_2", (f"{i + e_off}\t{lab}" for i, lab in enumerate(g2.entity_labels)))
    lines_to("rel_ids_1", (f"{i}\t{lab}" for i, lab in enumerate(g1.relation_labels)))
    lines_to("rel_ids_2", (f"{i + r_off}\t{lab}" for i, lab in enumerate(g2.relation_labels)))
    lines_to("time_id", (f"{i}\t{g1.time_index.label_of(i)}" for i in range(g1.time_index.num_ids)))
    lines_to("sup_pairs", (f"{a}\t{b + e_off}" for a, b in seeds.train_pairs))
    lines_to("ref_pairs", (f"{a}\t{b + e_off}" for a, b in seeds.test_pairs))

    stats = dataset_stats(g1, g2, seeds)
    overlap = measured_overlap(g1, g2, seeds.all_pairs)
    (directory / "stats.txt").write_text(format_stats(stats, g1.name.removesuffix("_1"), overlap))
    if manifest is not None:
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return directory


def read_source_quads(path: str | Path) -> np.ndarray:
    """Read a raw source file of five tab-separated ints per line (s r o tb te)
    into (n, 5) int64 rows; time ids must be >= 0, repeated rows are dropped."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"source quad file not found: {path}")
    rows, line_no = read_int_rows(path, 5)
    if len(rows) == 0:
        raise DatasetError(f"{path}: no quadruples")
    negative = np.flatnonzero((rows[:, 3:] < 0).any(axis=1))
    if len(negative):
        i = int(negative[0])
        raise ParseError(path.name, line_no[i], f"negative time id in {rows[i].tolist()}")
    return drop_repeated_rows(rows, path.name)


def split_to_result(
    quads,
    overlap_ratio: float,
    seed_count: int,
    rng: np.random.Generator,
    name: str = "split",
) -> ForgeResult:
    """Split an externally supplied (n, 5) source into a dataset pair with seeds."""
    if seed_count < 1:
        raise ConfigError(f"seed_count must be >= 1, got {seed_count}")
    split = split_overlap(quads, overlap_ratio, rng)
    max_time = int(max(split.quads_1[:, 3:].max(initial=0), split.quads_2[:, 3:].max(initial=0)))
    time_index = TimeIndex([UNKNOWN_TIME_LABEL] + [f"t{i}" for i in range(1, max_time + 1)])
    g1 = _side_kg(f"{name}_1", split.quads_1, split.ents_1, split.rels_1, time_index)
    g2 = _side_kg(f"{name}_2", split.quads_2, split.ents_2, split.rels_2, time_index)
    if seed_count > len(split.alignment):
        raise ConfigError(
            f"seed_count {seed_count} exceeds {len(split.alignment)} alignable pairs"
        )
    order = rng.permutation(len(split.alignment))
    # alignment rows ascend in both columns, so sorted indices give sorted pairs
    train, test = (list(map(tuple, split.alignment[np.sort(idx)].tolist()))
                   for idx in (order[:seed_count], order[seed_count:]))
    seeds = SeedAlignments(train_pairs=train, test_pairs=test)
    seeds.validate()
    manifest = {
        "source_quads": split.total,
        "shared_quads": split.shared_count,
        "overlap": split.shared_count / split.total,
        "overlap_requested": overlap_ratio,
        "seed_count": seed_count,
        "planted": [],
    }
    return ForgeResult(g1, g2, seeds, manifest)
