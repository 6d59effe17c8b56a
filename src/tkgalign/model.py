"""Graph attention network with reflection-based relation and time transforms.

Entities, relations, and timestamps share one embedding space of width k.
Each relation/time embedding, kept unit-norm, parameterizes an orthogonal
reflection applied to neighbor features; per-link attention over both the
time view and the relation view, scored without the paper's destination
term (constant per softmax group), weights the aggregation. Each layer's
weighted sum is one sealed node, whose inner values are freed as soon as it
is built (:func:`layer_forward`). Final entity representations concatenate
every layer's output with the mean embedding of the entity's incident
timestamps.

The parameter layout is decided here alone: :func:`param_shapes` names every
table and its shape, and :func:`table_sizes` counts a merged graph's rows.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Grouping, Tensor
from .errors import ConfigError, GraphError
from .evaluate import time_sensitivity
from .optim import ParameterStore
from .tkg import UNKNOWN_TIME_ID, MergedGraph

DTYPES = {"f32": np.float32, "f64": np.float64}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and numeric settings shared by training and evaluation."""

    dim: int = 100
    num_layers: int = 2
    dropout: float = 0.3
    self_loops: bool = True
    precision: str = "f32"

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"embedding dim must be >= 1, got {self.dim}")
        if self.num_layers < 0:
            raise ConfigError(f"layer count must be >= 0, got {self.num_layers}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.precision not in DTYPES:
            raise ConfigError(f"precision must be one of {sorted(DTYPES)}, got {self.precision!r}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(DTYPES[self.precision])


@dataclass(frozen=True)
class FlatGraph:
    """Link structure flattened to parallel arrays for vectorized passes.

    Row m of ``src``/``dst``/``rel``/``time`` is one directed link
    src[m] -> dst[m]; aggregation groups rows by ``dst``. Rows are stored
    grouped by ``dst`` (see :func:`prepare_graph`), so each entity's inward
    links are one contiguous run of rows and grouping by ``dst`` needs no
    sort. The ``time`` of an entity's rows is also its
    incident-timestamp multiset, which the final time-mean block averages
    (one entry per inward link).

    The graph owns the :class:`~tkgalign.autodiff.Grouping` of each column
    (``by_src``, ``by_dst``, ``by_rel``, ``by_time``), which every gather
    and segment reduction over links takes. Each is built on first use and
    kept: building a graph (``train(epochs=0)``) groups nothing, and every
    later forward and backward reuses the same groupings. The columns must
    not be changed in place; ``dataclasses.replace`` makes a new graph,
    which builds its own.
    """

    num_entities: int
    src: np.ndarray
    dst: np.ndarray
    rel: np.ndarray
    time: np.ndarray

    @property
    def num_links(self) -> int:
        return len(self.src)

    def sha256(self) -> str:
        """Hex digest of the entity count and the four link columns, as
        little-endian int64 in row order (a time-unaware graph's time column
        after blanking): a checkpoint records it to name the graph it was
        trained on."""
        digest = hashlib.sha256(np.array(self.num_entities, dtype="<i8"))
        for column in (self.src, self.dst, self.rel, self.time):
            digest.update(np.ascontiguousarray(column, dtype="<i8"))
        return digest.hexdigest()

    @cached_property
    def by_src(self) -> Grouping:
        return Grouping(self.src)

    @cached_property
    def by_dst(self) -> Grouping:
        return Grouping(self.dst)

    @cached_property
    def by_rel(self) -> Grouping:
        return Grouping(self.rel)

    @cached_property
    def by_time(self) -> Grouping:
        return Grouping(self.time)


def prepare_graph(
    merged: MergedGraph, self_loops: bool = True
) -> tuple[FlatGraph, np.ndarray]:
    """Decompose a merged graph into its link arrays, plus time sensitivity.

    Quadruple (s, r, o, [b, e]) yields the forward link s -> o (relation r,
    time b) and the reverse link o -> s (relation r + |R|, time e); with
    ``self_loops`` every entity also gets one link to itself under the
    self-loop relation at the unknown time. Rows are stably sorted by ``dst``,
    so each entity's inward links keep quadruple order (forward before
    reverse) with its self-loop last.

    The second value is every entity's time sensitivity (see
    :func:`evaluate.time_sensitivity`), computed before self-loops are added.
    """
    kg = merged.kg
    n = kg.num_entities
    s, r, o, begin, end = kg.quadruples.rows.T
    if len(s) and (min(s.min(), o.min()) < 0 or max(s.max(), o.max()) >= n):
        raise GraphError(f"a quadruple references an entity id outside 0..{n - 1}")
    # each quadruple's forward link directly followed by its reverse link
    src = np.stack([s, o], 1).ravel()
    dst = np.stack([o, s], 1).ravel()
    rel = np.stack([r, r + kg.num_relations], 1).ravel()
    time = np.stack([begin, end], 1).ravel()
    sensitivity = time_sensitivity(dst, time, n)
    if self_loops:
        loops = np.arange(n, dtype=np.int64)
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])
        self_relation = num_relation_rows(kg.num_relations, True) - 1  # the table's last row
        rel = np.concatenate([rel, np.full(n, self_relation, dtype=np.int64)])
        time = np.concatenate([time, np.full(n, UNKNOWN_TIME_ID, dtype=np.int64)])
    order = np.argsort(dst, kind="stable")
    return FlatGraph(n, src[order], dst[order], rel[order], time[order]), sensitivity


def num_relation_rows(num_relations: int, self_loops: bool) -> int:
    """Rows in the relation table: forward + reverse ids, plus the self id."""
    return 2 * num_relations + (1 if self_loops else 0)


def table_sizes(merged: MergedGraph, self_loops: bool) -> tuple[int, int, int]:
    """(entities, relation rows, time ids): the embedding-table rows a merged graph needs."""
    kg = merged.kg
    return kg.num_entities, num_relation_rows(kg.num_relations, self_loops), kg.time_index.num_ids


def param_shapes(
    num_entities: int, num_rel_rows: int, num_times: int, cfg: ModelConfig
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable table, in draw order: the entity,
    relation and time embeddings, then two 3k attention vectors per layer.
    Their first k entries get a zero gradient and keep their initial values
    (:func:`attention_logits`); they stay so that a seed draws the same
    initialization and checkpoints keep their format."""
    k = cfg.dim
    shapes = {"entity": (num_entities, k), "relation": (num_rel_rows, k), "time": (num_times, k)}
    for layer in range(cfg.num_layers):
        shapes[f"attn_time_{layer}"] = (3 * k,)
        shapes[f"attn_rel_{layer}"] = (3 * k,)
    return shapes


def init_params(
    rng: np.random.Generator,
    num_entities: int,
    num_rel_rows: int,
    num_times: int,
    cfg: ModelConfig,
) -> ParameterStore:
    """Allocate all trainable tables.

    Everything starts uniform in [-1/sqrt(k), 1/sqrt(k)]; relation and time
    rows are additionally scaled to unit norm (the forward pass re-normalizes
    them anyway, this just starts them on the constraint surface). Draw order
    is :func:`param_shapes` order, so a seed pins the full initialization.
    """
    bound = 1.0 / np.sqrt(cfg.dim)
    store = ParameterStore()
    for name, shape in param_shapes(num_entities, num_rel_rows, num_times, cfg).items():
        table = rng.uniform(-bound, bound, size=shape).astype(cfg.dtype)
        if name in ("relation", "time"):
            table /= np.linalg.norm(table, axis=1, keepdims=True)
        store.add(name, table)
    return store


def attention_logits(transformed: Tensor, table: Tensor, idx: Grouping, nu: Tensor) -> Tensor:
    """Per-link score nu_2 . reflected neighbor + nu_3 . table[idx].

    The paper's destination term, nu_1 . h[dst], is one constant within each
    destination's softmax group, so it cancels: it is left out, and nu_1 (the
    first k entries) gets a zero gradient. Each term reads its k-slice of
    ``nu`` in place; the edge term is computed once per table row, then
    gathered per link.
    """
    k = transformed.shape[1]
    edge_term = ad.gather_rows(ad.matvec(table, nu, 2 * k), idx)
    return ad.add(ad.matvec(transformed, nu, k), edge_term)


@dataclass
class AttentionProbe:
    """Per-layer max deviation of attention-weight sums from 1 (non-empty entities)."""

    deviations: list[float] = field(default_factory=list)

    def record(self, weights: np.ndarray, dst: np.ndarray, num_entities: int) -> None:
        sums = np.bincount(dst, weights=weights.astype(np.float64), minlength=num_entities)
        occupied = np.bincount(dst, minlength=num_entities) > 0
        dev = float(np.max(np.abs(sums[occupied] - 1.0))) if occupied.any() else 0.0
        self.deviations.append(dev)

    @property
    def worst(self) -> float:
        return max(self.deviations) if self.deviations else 0.0


def layer_forward(
    h: Tensor,
    graph: FlatGraph,
    rel_e: Tensor,
    time_e: Tensor,
    nu_time: Tensor,
    nu_rel: Tensor,
    rel_table: Tensor,
    time_table: Tensor,
    probe: AttentionProbe | None = None,
) -> Tensor:
    """One aggregation layer over pre-gathered per-link edge embeddings.

    ``rel_e``/``time_e`` are ``rel_table``/``time_table`` gathered by
    ``graph.rel``/``graph.time``; the reflections use the per-link rows, the
    attention's edge term the tables. Every gather and reduction over links
    uses the graph's own column groupings. Entities with no inward links get
    a zero output row (ReLU of an empty sum). ``h`` must already carry
    dropout if training. The time view, then the relation view, runs
    through one loop body; the probe records their weights in that order.

    The weighted sum is sealed (:func:`~tkgalign.autodiff.seal`): its two
    scaled views and their sum, three (links, k) values that no backward
    rule reads, are freed as soon as the sum is reduced. Each of the four
    inputs has one other reader at most, so every gradient keeps its bits.
    """
    h_src = ad.gather_rows(h, graph.by_src)
    views = []
    for edge_e, table, by_edge, nu in ((time_e, time_table, graph.by_time, nu_time),
                                        (rel_e, rel_table, graph.by_rel, nu_rel)):
        via = ad.householder_apply(edge_e, h_src)
        logits = attention_logits(via, table, by_edge, nu)
        # softmax within each destination entity's inward links
        weights = ad.segment_softmax(logits, graph.by_dst, graph.num_entities)
        if probe is not None:
            probe.record(weights.data, graph.dst, graph.num_entities)
        views += (via, weights)
    del h_src  # outside a tape nothing else holds it: freed before the sum allocates

    def aggregate(via_t, omega, via_r, upsilon):
        message = ad.add(ad.scale_rows(via_t, omega), ad.scale_rows(via_r, upsilon))
        return ad.segment_sum(message, graph.by_dst, graph.num_entities)

    return ad.relu(ad.seal(aggregate, *views))


def incident_time_mean(time_e: Tensor, graph: FlatGraph) -> Tensor:
    """Mean embedding of each entity's incident timestamps (zero row if none).

    ``time_e`` holds one time embedding per link, the time table gathered by
    ``graph.time``.
    """
    counts = np.bincount(graph.dst, minlength=graph.num_entities)
    inv = np.zeros(graph.num_entities, dtype=time_e.data.dtype)
    nonzero = counts > 0
    inv[nonzero] = 1.0 / counts[nonzero]
    summed = ad.segment_sum(time_e, graph.by_dst, graph.num_entities)
    return ad.scale_rows_const(summed, inv)


def model_forward(
    store: ParameterStore,
    graph: FlatGraph,
    cfg: ModelConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
    probe: AttentionProbe | None = None,
) -> Tensor:
    """Full forward pass: (num_entities, (L+2)*k) final representations.

    Relation/time tables are row-normalized inside the pass so the unit-norm
    constraint is part of the differentiated graph; the stored tables may
    drift off-norm between steps without affecting model output.
    """
    if training and cfg.dropout > 0.0 and rng is None:
        raise ConfigError("training with dropout requires an rng")
    rel_table = ad.normalize_rows(store["relation"])
    time_table = ad.normalize_rows(store["time"])
    rel_e = ad.gather_rows(rel_table, graph.by_rel)
    time_e = ad.gather_rows(time_table, graph.by_time)
    acts = [store["entity"]]
    for layer in range(cfg.num_layers):
        h_in = ad.dropout(acts[-1], cfg.dropout, rng, training)
        acts.append(
            layer_forward(
                h_in,
                graph,
                rel_e,
                time_e,
                store[f"attn_time_{layer}"],
                store[f"attn_rel_{layer}"],
                rel_table,
                time_table,
                probe=probe,
            )
        )
    # every layer's output (layer 0 = raw embeddings), then the incident-time mean
    return ad.concat_cols(acts + [incident_time_mean(time_e, graph)])

