"""Graph attention network with reflection-based relation and time transforms.

Entities, relations, and timestamps share one embedding space of width k.
Each relation/time embedding, kept unit-norm, parameterizes an orthogonal
reflection applied to neighbor features; per-link attention over both the
time view and the relation view, scored without the paper's destination
term (constant per softmax group), weights the aggregation. Final entity
representations concatenate every layer's output with the mean embedding of
the entity's incident timestamps.

A layer's output row depends only on the destination entity's own inward
links, so every forward, training included, computes each layer, and the
time mean, one block of destination entities at a time
(:meth:`FlatGraph.blocks`, :func:`autodiff.by_blocks`): its per-link arrays
span one block's links, not the graph's. A training step keeps each
layer's last block on its tape and reruns the others in the backward, so no
step holds a per-link array of the whole graph either.

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
# a count that sizes arrays or loops must fit numpy's int64
INT64_LIMIT = 2 ** 63
# Bytes of one (rows, width) array of a block in every forward and backward: a
# layer's (links, k) arrays and the loss's (pairs, width) ones. Fixed, never
# taken from the host, so a graph and a loss are cut the same way on every machine.
BLOCK_BYTES = 1 << 20


def block_rows(width: int, dtype: np.dtype) -> int:
    """Rows of one block of (rows, ``width``) ``dtype`` arrays within
    ``BLOCK_BYTES``, at least one."""
    return max(1, BLOCK_BYTES // (width * np.dtype(dtype).itemsize))


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
        if self.dim >= INT64_LIMIT:
            raise ConfigError(f"embedding dim must be below 2**63, got {self.dim}")
        if self.num_layers < 0:
            raise ConfigError(f"layer count must be >= 0, got {self.num_layers}")
        if self.num_layers >= INT64_LIMIT:
            raise ConfigError(f"layer count must be below 2**63, got {self.num_layers}")
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
    and segment reduction over links takes, and each entity's ``in_degree``,
    which the time mean and the attention probe read. Each is built on
    first use and kept: building a graph (``train(epochs=0)``) groups
    nothing, and every later forward and backward reuses the same
    groupings. The columns must not be changed in place;
    ``dataclasses.replace`` makes a new graph, which builds its own.

    :meth:`blocks` cuts the rows into consecutive blocks of whole ``dst``
    runs for the forward and its backward. A block is a graph of its own
    entity range: its ``dst`` counts from the range's first entity, while
    ``src``, ``rel`` and ``time`` keep naming rows of the whole entity,
    relation and time tables. The graph keeps each cut, so every epoch and
    every validation reuses the same blocks and their groupings.
    """

    num_entities: int
    src: np.ndarray
    dst: np.ndarray
    rel: np.ndarray
    time: np.ndarray
    _cuts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @cached_property
    def in_degree(self) -> np.ndarray:
        """Each entity's inward links: ``dst`` counted over ``num_entities``."""
        return np.bincount(self.dst, minlength=self.num_entities)

    def blocks(self, max_links: int) -> list[tuple[int, FlatGraph]]:
        """``(first entity, block)`` for consecutive blocks of whole ``dst``
        runs, each of at most ``max_links`` rows unless one run alone is
        longer; the graph itself when it fits in one. Cut once per
        ``max_links``: later calls return the same list.

        A block's entities run from its first to the next block's first
        (the last block's to ``num_entities``), so the ranges tile 0..n, and
        an entity with no inward link belongs to the block before it (the
        first block, for those before every link) and gets the zero row of
        an empty run there.
        """
        if max_links not in self._cuts:
            self._cuts[max_links] = self._cut(max_links)
        return self._cuts[max_links]

    def _cut(self, max_links: int) -> list[tuple[int, FlatGraph]]:
        m = self.num_links
        if m <= max_links:
            return [(0, self)]
        # each dst run's first row, then m
        starts = np.append(np.flatnonzero(np.diff(self.dst, prepend=-1)), m)
        cuts = [0]
        while m - cuts[-1] > max_links:
            # the last run start within reach; the next one if a run overruns the budget
            i = np.searchsorted(starts, cuts[-1] + max_links, side="right") - 1
            cuts.append(int(starts[i] if starts[i] > cuts[-1] else starts[i + 1]))
        if cuts[-1] < m:
            cuts.append(m)
        firsts = [0] + [int(self.dst[c]) for c in cuts[1:-1]] + [self.num_entities]
        return [(lo, FlatGraph(hi - lo, self.src[a:b], self.dst[a:b] - lo, self.rel[a:b],
                               self.time[a:b]))
                for a, b, lo, hi in zip(cuts, cuts[1:], firsts, firsts[1:])]


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
    """Max deviation of attention-weight sums from 1 (non-empty entities),
    one entry per :func:`layer_forward` call and view, so per layer, view
    and block of the forward (a backward's reruns record nothing). A softmax
    group is one entity's inward links and never spans blocks, so ``worst``
    is the whole graph's."""

    deviations: list[float] = field(default_factory=list)

    def record(self, weights: np.ndarray, graph: FlatGraph) -> None:
        """One deviation for ``weights``, one per link of ``graph``."""
        sums = np.bincount(graph.dst, weights=weights.astype(np.float64),
                           minlength=graph.num_entities)
        occupied = graph.in_degree > 0
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
            probe.record(weights.data, graph)
        views += (via, weights)
    del h_src  # outside a tape nothing else holds it: freed before the sum allocates
    via_t, omega, via_r, upsilon = views
    message = ad.add(ad.scale_rows(via_t, omega), ad.scale_rows(via_r, upsilon))
    return ad.relu(ad.segment_sum(message, graph.by_dst, graph.num_entities))


def incident_time_mean(time_e: Tensor, graph: FlatGraph) -> Tensor:
    """Mean embedding of each entity's incident timestamps (zero row if none).

    ``time_e`` holds one time embedding per link, the time table gathered by
    ``graph.time``.
    """
    counts = graph.in_degree
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

    Each layer, and then the incident-time mean, is one
    :func:`autodiff.by_blocks` node over :meth:`FlatGraph.blocks` of at most
    ``BLOCK_BYTES`` per (links, k) array (one block when the graph fits):
    each block gathers the edge rows its step reads and writes its entity
    range of the (n, k) output. Every block but the last runs untaped, and
    on a tape the node's rule reruns those block by block; training and
    inference take this one path. A run's sums and softmax read only its own
    rows, so the values, and the probe's ``worst``, are the whole graph's
    bit for bit at any width (a width-1 run is reduced alone, see
    :class:`~tkgalign.autodiff.Grouping`). A gradient is summed per block,
    then across blocks.
    """
    if training and cfg.dropout > 0.0 and rng is None:
        raise ConfigError("training with dropout requires an rng")
    rel_table = ad.normalize_rows(store["relation"])
    time_table = ad.normalize_rows(store["time"])
    entity = store["entity"]
    n = graph.num_entities
    blocks = graph.blocks(block_rows(entity.shape[1], entity.dtype))

    def layer(block, h, rel, time, nu_time, nu_rel, replay):
        return layer_forward(h, block, ad.gather_rows(rel, block.by_rel),
                             ad.gather_rows(time, block.by_time), nu_time, nu_rel, rel, time,
                             None if replay else probe)

    def time_mean(block, time, replay):
        return incident_time_mean(ad.gather_rows(time, block.by_time), block)

    acts = [entity]  # layer 0 = raw embeddings
    for i in range(cfg.num_layers):
        h_in = ad.dropout(acts[-1], cfg.dropout, rng, training)
        acts.append(ad.by_blocks(layer, blocks, n, h_in, rel_table, time_table,
                                 store[f"attn_time_{i}"], store[f"attn_rel_{i}"]))
    return ad.concat_cols(acts + [ad.by_blocks(time_mean, blocks, n, time_table)])
