"""Shared fixtures: small deterministic graph pairs and dataset dirs."""
from __future__ import annotations

import numpy as np
import pytest

from tkgalign.tkg import UNKNOWN_TIME_LABEL, QuadTable, SeedAlignments, TemporalKG, TimeIndex


def quad(s: int, r: int, o: int, tb: int, te: int | None = None) -> tuple[int, ...]:
    """One fact row (subject, relation, object, begin, end); a time point by default."""
    return (s, r, o, tb, tb if te is None else te)


def unvalidated_kg(num_entities, num_relations, time_index, quads, name="g") -> TemporalKG:
    return TemporalKG(
        num_entities=num_entities,
        num_relations=num_relations,
        time_index=time_index,
        quadruples=QuadTable(quads),
        entity_labels=[f"e{i}" for i in range(num_entities)],
        relation_labels=[f"r{i}" for i in range(num_relations)],
        name=name,
    )


def make_kg(num_entities, num_relations, time_index, quads, name="g") -> TemporalKG:
    kg = unvalidated_kg(num_entities, num_relations, time_index, quads, name)
    kg.validate()
    return kg


def build_time_index():
    """The sentinel plus six real years: 2001-2005 and 2007."""
    return TimeIndex([UNKNOWN_TIME_LABEL, "2001", "2002", "2003", "2004", "2005", "2007"])


def build_six_entity_pair():
    """Mirrored 6-entity pair with 2 relations and 3 distinct real times."""
    ti = build_time_index()
    quads = [
        quad(0, 0, 1, 1),
        quad(1, 1, 2, 2),
        quad(2, 0, 3, 3),
        quad(3, 1, 4, 1, 2),
        quad(4, 0, 5, 0),
        quad(5, 1, 0, 2),
    ]
    g1 = make_kg(6, 2, ti, quads, name="g1")
    g2 = make_kg(6, 2, ti, list(quads), name="g2")
    seeds = SeedAlignments(
        train_pairs=[(0, 0), (1, 1), (2, 2), (3, 3)],
        test_pairs=[(4, 4), (5, 5)],
    )
    seeds.validate()
    return g1, g2, seeds


@pytest.fixture
def time_index():
    return build_time_index()


@pytest.fixture
def tiny_pair(time_index):
    """Two 3-entity graphs, mirror images of each other, one relation each.

    Entity i in g1 corresponds to entity i in g2; both graphs carry the same
    facts so the alignment signal is exact.
    """
    quads = [quad(0, 0, 1, 1), quad(1, 0, 2, 2, 3), quad(2, 0, 0, 0)]
    g1 = make_kg(3, 1, time_index, quads, name="g1")
    g2 = make_kg(3, 1, time_index, list(quads), name="g2")
    seeds = SeedAlignments(train_pairs=[(0, 0), (1, 1)], test_pairs=[(2, 2)])
    seeds.validate()
    return g1, g2, seeds


@pytest.fixture
def fixture_6ent():
    """Small enough for exhaustive finite-difference work, rich enough that
    every parameter table (entities, relations + reverses, times, attention)
    receives gradient."""
    return build_six_entity_pair()


def write_dataset_dir(directory, g1, g2, seeds, continue_ids=False):
    """Write the tab-separated dataset layout; optionally let graph 2's ids
    continue graph 1's ranges (the other accepted on-disk convention)."""
    directory.mkdir(parents=True, exist_ok=True)
    e_off = g1.num_entities if continue_ids else 0
    r_off = g1.num_relations if continue_ids else 0

    def write(name, rows):
        (directory / name).write_text("".join(f"{row}\n" for row in rows))

    write("triples_1", ("\t".join(map(str, q)) for q in g1.quadruples.rows.tolist()))
    write("triples_2", (
        "\t".join(map(str, q))
        for q in (g2.quadruples.rows + [e_off, r_off, e_off, 0, 0]).tolist()
    ))
    write("ent_ids_1", (f"{i}\t{lab}" for i, lab in enumerate(g1.entity_labels)))
    write("ent_ids_2", (f"{i + e_off}\t{lab}" for i, lab in enumerate(g2.entity_labels)))
    write("rel_ids_1", (f"{i}\t{lab}" for i, lab in enumerate(g1.relation_labels)))
    write("rel_ids_2", (f"{i + r_off}\t{lab}" for i, lab in enumerate(g2.relation_labels)))
    write("time_id", (f"{i}\t{lab}" for i, lab in enumerate(g1.time_index.labels)))
    write("sup_pairs", (f"{a}\t{b + e_off}" for a, b in seeds.train_pairs))
    write("ref_pairs", (f"{a}\t{b + e_off}" for a, b in seeds.test_pairs))
    return directory


@pytest.fixture
def dataset_dir(tmp_path, tiny_pair):
    g1, g2, seeds = tiny_pair
    return write_dataset_dir(tmp_path / "tiny", g1, g2, seeds)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
