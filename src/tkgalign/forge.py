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

import itertools
import json
import logging
import math
from dataclasses import asdict, astuple, dataclass
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
    read_table,
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
        if self.entities < 2:  # every fact's object differs from its subject
            raise ConfigError(f"entities must be >= 2, got {self.entities}")
        for fname in ("relations", "time_steps", "quads_per_entity", "seed_count"):
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
        return astuple(self)


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


def _assemble(
    name: str,
    split: SplitResult,
    time_steps: int,
    is_seed: np.ndarray,
    labels: dict[int, str],
    manifest: dict,
) -> ForgeResult:
    """The forged pair of one split: both validated side graphs on one time
    index of ``time_steps`` real steps, and the alignment rows where
    ``is_seed`` holds as training seeds, the others as test pairs.

    A local entity is labelled ``labels[source id]``, else ``e<source id>``,
    and a local relation ``r<source id>``. ``manifest`` gets the split's
    sizes. A pair whose seeds leave no test pair is refused.
    """
    if is_seed.all():
        raise ConfigError(f"seed_count {len(is_seed)} takes every alignable pair, leaving no test pair")
    time_index = TimeIndex([UNKNOWN_TIME_LABEL] + [f"t{i}" for i in range(1, time_steps + 1)])

    def side(tag: int, local_quads: np.ndarray, ents: np.ndarray, rels: np.ndarray) -> TemporalKG:
        kg = TemporalKG(
            num_entities=len(ents),
            num_relations=len(rels),
            time_index=time_index,
            quadruples=QuadTable(local_quads),
            entity_labels=[labels.get(e, f"e{e}") for e in ents.tolist()],
            relation_labels=[f"r{r}" for r in rels.tolist()],
            name=f"{name}_{tag}",
        )
        kg.validate()
        return kg

    # alignment rows ascend in both columns, so a masked selection is sorted
    train, test = (list(map(tuple, split.alignment[mask].tolist())) for mask in (is_seed, ~is_seed))
    seeds = SeedAlignments(train_pairs=train, test_pairs=test)
    seeds.validate()
    manifest = {"source_quads": split.total, "shared_quads": split.shared_count,
                "overlap": split.shared_count / split.total, **manifest}
    return ForgeResult(side(1, split.quads_1, split.ents_1, split.rels_1),
                       side(2, split.quads_2, split.ents_2, split.rels_2), seeds, manifest)


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


def _generate_base_quads(spec: ForgeSpec, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Random quads, one batch per subject entity; bounded retry on duplicates.

    Entities selected as non-temporal emit only unknown-time facts and
    preferentially link among themselves, so the graph develops genuinely
    low-time-sensitivity regions rather than uniform dilution. Returns the
    distinct quads as sorted (n, 5) int64 rows, and the number of
    non-temporal entities.
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
    flat = np.fromiter(itertools.chain.from_iterable(quads), dtype=np.int64, count=5 * len(quads))
    rows = flat.reshape(-1, 5)
    return rows[np.lexsort(rows.T[::-1])], n_untimed


def _plan_twins(spec: ForgeSpec, rng: np.random.Generator) -> tuple[list[dict], np.ndarray, dict]:
    """Lay out twin entities, their shared anchors, and disjoint time windows.

    Twin i is source entity ``spec.entities + i``, timed twins first. Returns
    each twin's manifest record (kind, group, member, window), the twins'
    quad rows (``ANCHORS_PER_TWIN`` per twin, in twin order) and the motif's
    anchors and relations.
    """
    rows = np.empty((spec.num_twins, ANCHORS_PER_TWIN, 5), dtype=np.int64)
    if spec.num_twins == 0:
        return [], rows.reshape(0, 5), {"anchors_timed": [], "anchors_untimed": [], "relations": []}
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
    anchors_timed = sorted(anchor_pool[:ANCHORS_PER_TWIN]) if spec.planted_pairs else []
    anchors_untimed = sorted(anchor_pool[-ANCHORS_PER_TWIN:]) if spec.planted_untimed_pairs else []
    motif_rels = sorted(rng.choice(spec.relations, size=RELATIONS_PER_MOTIF, replace=False).tolist())

    rows[:, :, 0] = np.arange(spec.entities, spec.entities + spec.num_twins)[:, None]
    rows[:, :, 1] = [motif_rels[m % RELATIONS_PER_MOTIF] for m in range(ANCHORS_PER_TWIN)]
    plans: list[dict] = []
    for pair in range(spec.planted_pairs):
        for member in "ab":
            twin = len(plans)
            start = 1 + twin * slot
            rows[twin, :, 2] = anchors_timed
            for m in range(ANCHORS_PER_TWIN):
                rows[twin, m, 3:] = np.sort(rng.integers(start, start + WINDOW_WIDTH, size=2))
            window = [start, start + WINDOW_WIDTH - 1]  # inclusive
            plans.append({"kind": "timed", "group": pair, "member": member, "window": window})
    for pair in range(spec.planted_pairs, spec.planted_pairs + spec.planted_untimed_pairs):
        for member in "ab":
            twin = len(plans)
            rows[twin, :, 2] = anchors_untimed
            rows[twin, :, 3:] = UNKNOWN_TIME_ID
            plans.append({"kind": "untimed", "group": pair, "member": member, "window": None})
    meta = {
        "anchors_timed": anchors_timed,
        "anchors_untimed": anchors_untimed,
        "relations": motif_rels,
    }
    return plans, rows.reshape(-1, 5), meta


def synth_tkg(spec: ForgeSpec) -> ForgeResult:
    """Generate an aligned graph pair with optional planted ambiguity.

    All twin quads are forced into the shared split portion, so every twin
    and every anchor (an object of twin quads) exists on both sides with
    identical facts; anchors are promoted into the training seeds and twins
    always land in the test split (the manifest lists them).
    """
    rng = np.random.default_rng(spec.seed)
    base, n_untimed = _generate_base_quads(spec, rng)
    plans, twin_rows, twin_meta = _plan_twins(spec, rng)
    quads = np.concatenate([base, twin_rows])
    split = split_overlap(quads, spec.overlap_ratio, rng, forced_shared=range(len(base), len(quads)))

    alignable = split.ents_1[split.alignment[:, 0]]  # source id of each alignment row, ascending
    twins = np.arange(spec.entities, spec.entities + spec.num_twins)
    anchors = np.unique(np.array(twin_meta["anchors_timed"] + twin_meta["anchors_untimed"], dtype=np.int64))
    candidates = np.flatnonzero(~np.isin(alignable, np.concatenate([twins, anchors])))
    fill = spec.seed_count - len(anchors)
    if fill < 0:
        raise ConfigError(
            f"seed_count {spec.seed_count} below the {len(anchors)} anchor seeds"
        )
    if fill > len(candidates):
        raise ConfigError(
            f"seed_count {spec.seed_count} exceeds the {len(candidates) + len(anchors)} "
            "alignable non-twin entities"
        )
    is_seed = np.isin(alignable, anchors)
    is_seed[candidates[rng.choice(len(candidates), size=fill, replace=False)]] = True

    def to_pairs(sources) -> list[list[int]]:
        """Source entity ids -> (local_1, local_2) pairs."""
        return split.alignment[np.searchsorted(alignable, sources)].tolist()

    planted = [{**plan, "e1": e1, "e2": e2} for plan, (e1, e2) in zip(plans, to_pairs(twins))]
    manifest = {
        "spec": asdict(spec),
        "planted": planted,
        "anchors": {
            "timed": to_pairs(twin_meta["anchors_timed"]),
            "untimed": to_pairs(twin_meta["anchors_untimed"]),
            "relations": twin_meta["relations"],
        },
        "untimed_entities": n_untimed,
    }
    labels = {spec.entities + i: f"twin{plan['group']}{plan['member']}" for i, plan in enumerate(plans)}
    return _assemble(spec.name, split, spec.time_steps, is_seed, labels, manifest)


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


def format_stats(stats: DatasetStats, name: str, overlap: float) -> str:
    head = f"{'dataset':<16}" + "".join(
        f"{c:>9}" for c in ("|E1|", "|E2|", "|R1|", "|R2|", "|T*|", "|Q1|", "|Q2|", "|P|", "|S|")
    )
    row = f"{name:<16}" + "".join(f"{v:>9}" for v in stats.as_row())
    return f"{head}\n{row}\noverlap {overlap:.6f}\n"


# ---------------------------------------------------------------------------
# directory io (mirrors the parser's file contract)


def write_dataset(
    directory: str | Path,
    g1: TemporalKG,
    g2: TemporalKG,
    seeds: SeedAlignments,
    manifest: dict,
) -> Path:
    """Emit the on-disk dataset directory (ids of graph 2 continue graph 1's).

    Writes triples_1/2, ent_ids_1/2, rel_ids_1/2, time_id, sup_pairs,
    ref_pairs, stats.txt (the size table, named after graph 1 without its
    ``_1`` suffix) and manifest.json.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    e_off, r_off = g1.num_entities, g1.num_relations

    def lines_to(fname: str, rows) -> None:
        (directory / fname).write_text("".join(f"{row}\n" for row in rows))

    def write_quads(fname: str, kg: TemporalKG, eo: int, ro: int) -> None:
        # one %-format over all fields: under half the CPU of a line per quad
        fields = (kg.quadruples.rows + [eo, ro, eo, 0, 0]).ravel().tolist()
        (directory / fname).write_text(("%d\t%d\t%d\t%d\t%d\n" * len(kg.quadruples)) % tuple(fields))

    write_quads("triples_1", g1, 0, 0)
    write_quads("triples_2", g2, e_off, r_off)
    lines_to("ent_ids_1", (f"{i}\t{lab}" for i, lab in enumerate(g1.entity_labels)))
    lines_to("ent_ids_2", (f"{i + e_off}\t{lab}" for i, lab in enumerate(g2.entity_labels)))
    lines_to("rel_ids_1", (f"{i}\t{lab}" for i, lab in enumerate(g1.relation_labels)))
    lines_to("rel_ids_2", (f"{i + r_off}\t{lab}" for i, lab in enumerate(g2.relation_labels)))
    lines_to("time_id", (f"{i}\t{lab}" for i, lab in enumerate(g1.time_index.labels)))
    lines_to("sup_pairs", (f"{a}\t{b + e_off}" for a, b in seeds.train_pairs))
    lines_to("ref_pairs", (f"{a}\t{b + e_off}" for a, b in seeds.test_pairs))

    stats = dataset_stats(g1, g2, seeds)
    overlap = measured_overlap(g1, g2, seeds.all_pairs)
    (directory / "stats.txt").write_text(format_stats(stats, g1.name.removesuffix("_1"), overlap))
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return directory


def read_source_quads(path: str | Path) -> np.ndarray:
    """Read a raw source file of five tab-separated ints per line (s r o tb te)
    into (n, 5) int64 rows; time ids must be >= 0, repeated rows are dropped."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"source quad file not found: {path}")
    rows, _, line_no = read_table(path, 5)
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
    if seed_count > len(split.alignment):
        raise ConfigError(
            f"seed_count {seed_count} exceeds {len(split.alignment)} alignable pairs"
        )
    is_seed = np.zeros(len(split.alignment), dtype=bool)
    is_seed[rng.permutation(len(split.alignment))[:seed_count]] = True
    max_time = max(int(q[:, 3:].max(initial=0)) for q in (split.quads_1, split.quads_2))
    manifest = {"overlap_requested": overlap_ratio, "seed_count": seed_count, "planted": []}
    return _assemble(name, split, max_time, is_seed, {}, manifest)
