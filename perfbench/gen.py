"""Seeded generator for the benchmark's aligned temporal KG pairs.

Writes the nine-file dataset layout that ``tkgalign.tkg.parse_dataset``
reads. It deliberately does not use ``tkgalign.forge``: the workloads must
stay fixed when the program's own synthesiser changes its random stream.

Both graphs are noisy copies of one base graph. Every base entity appears in
both graphs (graph 2's ids and relation ids are shuffled), so every entity
has a gold partner. A share of entities is "untimed": every fact touching
one carries the unknown time id 0, which puts those entities in the lowly
time-sensitive partition.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

FILES = (
    "triples_1", "triples_2", "ent_ids_1", "ent_ids_2", "rel_ids_1",
    "rel_ids_2", "time_id", "sup_pairs", "ref_pairs",
)
KEEP = 0.85  # chance a base fact survives into each graph


@dataclass(frozen=True)
class Shape:
    entities: int  # per graph
    quads: int  # expected facts per graph
    relations: int  # per graph
    time_steps: int
    seeds: int  # training pairs
    test_pairs: int
    untimed_share: float  # share of entities whose facts are all untimed


def _base_quads(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """Distinct (s, r, o, tb, te) rows, s != o, over the base entity set."""
    n = shape.entities
    want = int(round(shape.quads / KEEP))
    draw = int(want * 1.1) + 16
    s = rng.integers(0, n, draw)
    o = (s + rng.integers(1, n, draw)) % n
    r = rng.integers(0, shape.relations, draw)
    tb = rng.integers(1, shape.time_steps + 1, draw)
    span = rng.geometric(0.05, draw) - 1
    te = np.minimum(tb + span, shape.time_steps)
    untimed = rng.random(n) < shape.untimed_share
    no_time = untimed[s] | untimed[o]
    tb[no_time] = 0
    te[no_time] = 0
    rows = np.stack([s, r, o, tb, te], axis=1)
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)][:want]


def generate(out_dir: str | Path, shape: Shape, seed: int) -> dict:
    """Write one dataset directory; return its shape record and checksum."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([0x7B3A, seed])
    n, nr = shape.entities, shape.relations
    base = _base_quads(shape, rng)
    ent_perm = rng.permutation(n)  # base entity i is entity ent_perm[i] of graph 2
    rel_perm = rng.permutation(nr)
    g1 = base[rng.random(len(base)) < KEEP]
    g2 = base[rng.random(len(base)) < KEEP].copy()
    g2[:, 0] = ent_perm[g2[:, 0]]
    g2[:, 2] = ent_perm[g2[:, 2]]
    g2[:, 1] = rel_perm[g2[:, 1]]
    g2 = g2[rng.permutation(len(g2))]
    chosen = rng.permutation(n)[: shape.seeds + shape.test_pairs]
    pairs = np.stack([chosen, ent_perm[chosen]], axis=1)

    def write(name: str, rows) -> None:
        (out / name).write_text("".join(f"{row}\n" for row in rows))

    def quad_rows(q: np.ndarray, e_off: int, r_off: int):
        for s, r, o, tb, te in q.tolist():
            yield f"{s + e_off}\t{r + r_off}\t{o + e_off}\t{tb}\t{te}"

    write("triples_1", quad_rows(g1, 0, 0))
    write("triples_2", quad_rows(g2, n, nr))
    write("ent_ids_1", (f"{i}\tE1_{i}" for i in range(n)))
    write("ent_ids_2", (f"{i + n}\tE2_{i}" for i in range(n)))
    write("rel_ids_1", (f"{i}\tR1_{i}" for i in range(nr)))
    write("rel_ids_2", (f"{i + nr}\tR2_{i}" for i in range(nr)))
    write("time_id", ["0\tunknown"] + [f"{t}\t{1000 + t}" for t in range(1, shape.time_steps + 1)])
    write("sup_pairs", (f"{a}\t{b + n}" for a, b in pairs[: shape.seeds].tolist()))
    write("ref_pairs", (f"{a}\t{b + n}" for a, b in pairs[shape.seeds:].tolist()))

    num_quads = len(g1) + len(g2)
    untimed_entities = _untimed_entities(base, n)
    return {
        **asdict(shape),
        "quads_total": num_quads,
        "links": 2 * num_quads + 2 * n,  # forward + reverse + one self-loop each
        "eta": (2 * n) // shape.seeds + 1,
        "untimed_entity_share": round(float(untimed_entities.mean()), 4),
        "untimed_test_share": round(float(untimed_entities[pairs[shape.seeds:, 0]].mean()), 4)
        if shape.test_pairs else 0.0,
        "sha256": checksum(out),
    }


def _untimed_entities(base: np.ndarray, n: int) -> np.ndarray:
    """Entities with no timed base fact (approximates the lowly partition)."""
    timed = np.zeros(n, dtype=bool)
    has_time = base[:, 3] > 0
    timed[base[has_time, 0]] = True
    timed[base[has_time, 2]] = True
    return ~timed


def checksum(directory: str | Path) -> str:
    """SHA-256 over the nine dataset files, in layout order."""
    h = hashlib.sha256()
    for name in FILES:
        h.update(name.encode())
        h.update((Path(directory) / name).read_bytes())
    return h.hexdigest()
