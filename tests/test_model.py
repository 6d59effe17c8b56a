"""Network forward pass against brute-force per-entity oracles."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tkgalign import autodiff as ad
from tkgalign import model as model_module
from tkgalign.errors import ConfigError
from tkgalign.model import (
    AttentionProbe,
    FlatGraph,
    ModelConfig,
    attention_logits,
    incident_time_mean,
    init_params,
    layer_forward,
    model_forward,
    num_relation_rows,
    param_shapes,
    prepare_graph,
    table_sizes,
)
from tkgalign.tkg import UNKNOWN_TIME_ID, merge_pair
from tkgalign.train import apply_time_unaware

from conftest import make_kg, quad
from test_autodiff import mul, sum_all


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def brute_force_layer(h, graph: FlatGraph, rel_e, time_e, nu_time, nu_rel):
    """Per-entity oracle: materialized reflection matrices, dense softmax."""
    n, k = h.shape
    out = np.zeros_like(h)
    for i in range(n):
        rows = np.flatnonzero(graph.dst == i)
        if len(rows) == 0:
            continue
        alphas, betas, via_t, via_r = [], [], [], []
        for m in rows:
            mt = ad.materialize_householder(time_e[m])
            mr = ad.materialize_householder(rel_e[m])
            vt = mt @ h[graph.src[m]]
            vr = mr @ h[graph.src[m]]
            via_t.append(vt)
            via_r.append(vr)
            alphas.append(nu_time @ np.concatenate([h[i], vt, time_e[m]]))
            betas.append(nu_rel @ np.concatenate([h[i], vr, rel_e[m]]))
        alphas, betas = np.array(alphas), np.array(betas)
        omega = np.exp(alphas - alphas.max())
        omega /= omega.sum()
        upsilon = np.exp(betas - betas.max())
        upsilon /= upsilon.sum()
        agg = sum(w * v for w, v in zip(omega, via_t)) + sum(
            w * v for w, v in zip(upsilon, via_r)
        )
        out[i] = np.maximum(agg, 0.0)
    return out


def three_term_layer(h, graph, rel_e, time_e, nu_time, nu_rel, rel_table, time_table,
                     probe=None):
    """``layer_forward`` with the paper's full logit: the destination term
    ``(h @ nu_1)[dst]`` added before the reflected-neighbor and edge terms."""
    k = h.shape[1]
    h_src = ad.gather_rows(h, graph.by_src)
    weighted = []
    for edge_e, table, by_edge, nu in ((time_e, time_table, graph.by_time, nu_time),
                                        (rel_e, rel_table, graph.by_rel, nu_rel)):
        via = ad.householder_apply(edge_e, h_src)
        own = ad.gather_rows(ad.matvec(h, nu, 0), graph.by_dst)
        edge = ad.gather_rows(ad.matvec(table, nu, 2 * k), by_edge)
        logits = ad.add(ad.add(own, ad.matvec(via, nu, k)), edge)
        weights = ad.segment_softmax(logits, graph.by_dst, graph.num_entities)
        weighted.append(ad.scale_rows(via, weights))
    return ad.relu(ad.segment_sum(ad.add(*weighted), graph.by_dst, graph.num_entities))


def random_flat_graph(rng, n_entities=5, n_links=12, n_rel=4, n_time=6):
    src = rng.integers(0, n_entities, n_links)
    dst = rng.integers(0, n_entities, n_links)
    rel = rng.integers(0, n_rel, n_links)
    time = rng.integers(0, n_time, n_links)
    return FlatGraph(n_entities, src, dst, rel, time)


class TestAttentionPieces:
    def test_zero_weight_vector_gives_zero_logit(self, rng):
        k = 4
        tr = ad.leaf(rng.normal(size=(3, k)))
        table = ad.leaf(rng.normal(size=(2, k)))
        nu = ad.leaf(np.zeros(3 * k))
        out = attention_logits(tr, table, ad.Grouping([1, 0, 1]), nu)
        assert np.allclose(out.data, 0.0)

    def test_logits_match_materialized_matrix_oracle(self, rng):
        k = 4
        h_src = rng.normal(size=(5, k))
        table = np.stack([unit(rng.normal(size=k)) for _ in range(3)])
        idx = np.array([2, 0, 2, 1, 0])
        edge = table[idx]
        nu = rng.normal(size=3 * k)
        tr = ad.householder_apply(ad.leaf(edge), ad.leaf(h_src))
        got = attention_logits(tr, ad.leaf(table), ad.Grouping(idx), ad.leaf(nu)).data
        for m in range(5):
            mat = ad.materialize_householder(edge[m])
            want = nu[k:] @ np.concatenate([mat @ h_src[m], edge[m]])
            assert abs(got[m] - want) < 1e-10

    @pytest.mark.parametrize(
        "idx",
        [
            np.array([3, 1, 3, 0, 1, 3, 0]),  # repeated rows; row 2 unused
            np.array([1, 1, 1, 1, 1, 1, 1]),  # one row for every link
            "unknown-time",  # the time-unaware graph's all-unknown time column
        ],
        ids=["repeated-unused", "single-row", "time-unaware"],
    )
    def test_edge_term_from_table_rows_matches_per_link_oracle(self, rng, idx):
        """f64: the edge term reduced per table row equals the per-link
        ``concat @ nu[k:]`` oracle in values and in the gradients of the
        transformed rows, the table and ``nu``, whose first k entries get an
        exactly zero gradient; a row no link names gets one too."""
        k = 4
        if isinstance(idx, str):
            graph = FlatGraph(5, np.array([1, 2, 0, 0, 1, 3, 4]), np.array([0, 0, 1, 2, 2, 2, 4]),
                              np.zeros(7, dtype=np.int64), rng.integers(0, 4, 7))
            idx = apply_time_unaware(graph).time
            assert np.all(idx == UNKNOWN_TIME_ID)
        tr = rng.normal(size=(7, k))
        table = rng.normal(size=(4, k))
        nu = rng.normal(size=3 * k)
        c = rng.normal(size=7)
        ttr, ttable, tnu = (ad.leaf(a) for a in (tr, table, nu))
        out = attention_logits(ttr, ttable, ad.Grouping(idx), tnu)
        concat = np.concatenate([tr, table[idx]], axis=1)
        assert np.max(np.abs(out.data - concat @ nu[k:])) < 1e-12
        ad.backward(sum_all(mul(out, ad.leaf(c))))
        want_table = np.zeros_like(table)
        np.add.at(want_table, idx, c[:, None] * nu[2 * k :])
        assert np.max(np.abs(ttr.grad - c[:, None] * nu[k : 2 * k])) < 1e-12
        assert np.max(np.abs(ttable.grad - want_table)) < 1e-12
        assert np.array_equal(tnu.grad[:k], np.zeros(k))
        assert np.max(np.abs(tnu.grad[k:] - concat.T @ c)) < 1e-12
        unused = np.setdiff1d(np.arange(len(table)), idx)
        assert len(unused)
        assert np.array_equal(ttable.grad[unused], np.zeros((len(unused), k)))

    def test_attention_probe_tracks_deviation(self):
        probe = AttentionProbe()
        probe.record(np.array([0.5, 0.5]), np.array([0, 0]), 2)
        probe.record(np.array([0.9, 0.2]), np.array([1, 1]), 2)
        assert probe.worst == pytest.approx(0.1, abs=1e-12)

    def test_attention_probe_equals_scatter_reference(self, rng):
        """Bitwise equal to an np.add.at float64 sum; entities 4 and 5 get no
        link and must not count as a deviation of 1."""
        probe = AttentionProbe()
        for _ in range(20):
            dst = rng.integers(0, 4, size=int(rng.integers(1, 12)))
            weights = rng.random(len(dst)).astype(np.float32)
            sums = np.zeros(6)
            np.add.at(sums, dst, weights.astype(np.float64))
            occupied = np.zeros(6, dtype=bool)
            occupied[dst] = True
            probe.record(weights, dst, 6)
            assert probe.deviations[-1] == float(np.max(np.abs(sums[occupied] - 1.0)))


def unit_table(rng, rows, k):
    return np.stack([unit(rng.normal(size=k)) for _ in range(rows)])


def run_layer(h, graph, rel_tab, time_tab, nu_t, nu_r):
    """``layer_forward`` on leaf tables, gathered per link as ``model_forward`` does."""
    rel, tim = ad.leaf(rel_tab), ad.leaf(time_tab)
    return layer_forward(
        ad.leaf(h), graph, ad.gather_rows(rel, graph.by_rel), ad.gather_rows(tim, graph.by_time),
        ad.leaf(nu_t), ad.leaf(nu_r), rel, tim,
    ).data


class TestLayerForward:
    def test_matches_brute_force_oracle(self, rng):
        k = 5
        graph = random_flat_graph(rng)
        h = rng.normal(size=(graph.num_entities, k))
        rel_tab = unit_table(rng, 4, k)
        time_tab = unit_table(rng, 6, k)
        nu_t = rng.normal(size=3 * k)
        nu_r = rng.normal(size=3 * k)
        got = run_layer(h, graph, rel_tab, time_tab, nu_t, nu_r)
        want = brute_force_layer(h, graph, rel_tab[graph.rel], time_tab[graph.time], nu_t, nu_r)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_zero_nu_reduces_to_uniform_mean_aggregate(self, rng):
        """With both attention vectors zero, weights are uniform over each
        entity's links, so the output is ReLU of the mean-like aggregate."""
        k = 3
        graph = random_flat_graph(rng, n_entities=4, n_links=9)
        h = rng.normal(size=(4, k))
        rel_tab = unit_table(rng, 4, k)
        time_tab = unit_table(rng, 6, k)
        zero = np.zeros(3 * k)
        got = run_layer(h, graph, rel_tab, time_tab, zero, zero)
        for i in range(4):
            rows = np.flatnonzero(graph.dst == i)
            if len(rows) == 0:
                assert np.allclose(got[i], 0.0)
                continue
            acc = np.zeros(k)
            for m in rows:
                mt = ad.materialize_householder(time_tab[graph.time[m]])
                mr = ad.materialize_householder(rel_tab[graph.rel[m]])
                acc += (mt @ h[graph.src[m]] + mr @ h[graph.src[m]]) / len(rows)
            assert np.allclose(got[i], np.maximum(acc, 0.0), atol=1e-10)

    def test_outputs_nonnegative(self, rng):
        k = 4
        graph = random_flat_graph(rng)
        h = rng.normal(size=(graph.num_entities, k))
        out = run_layer(
            h, graph, unit_table(rng, 4, k), unit_table(rng, 6, k),
            rng.normal(size=3 * k), rng.normal(size=3 * k),
        )
        assert np.all(out >= 0.0)

    def test_link_order_invariance(self, rng):
        """Permuting link rows must not change any entity's output (the
        aggregation is a set operation)."""
        k = 4
        graph = random_flat_graph(rng)
        h = rng.normal(size=(graph.num_entities, k)).astype(np.float64)
        rel_tab = unit_table(rng, 4, k)
        time_tab = unit_table(rng, 6, k)
        nu_t = rng.normal(size=3 * k)
        nu_r = rng.normal(size=3 * k)

        def run(order):
            g = FlatGraph(
                graph.num_entities, graph.src[order], graph.dst[order],
                graph.rel[order], graph.time[order],
            )
            return run_layer(h, g, rel_tab, time_tab, nu_t, nu_r)

        base = run(np.arange(graph.num_links))
        perm = rng.permutation(graph.num_links)
        assert np.max(np.abs(run(perm) - base)) < 1e-12

    def test_attention_sums_to_one_inside_full_pass(self, tiny_pair):
        g1, g2, _ = tiny_pair
        merged = merge_pair(g1, g2)
        graph, _ = prepare_graph(merged, self_loops=True)
        cfg = ModelConfig(dim=6, num_layers=2, precision="f64")
        store = init_params(np.random.default_rng(0), *table_sizes(merged, True), cfg)
        probe = AttentionProbe()
        model_forward(store, graph, cfg, probe=probe)
        assert len(probe.deviations) == 2 * cfg.num_layers
        assert probe.worst < 1e-6


class TestConcatAndTimeMean:
    def test_depth_zero_concat_is_raw_embeddings(self, rng):
        h = rng.normal(size=(4, 3))
        out = ad.concat_cols([ad.leaf(h)])
        assert np.array_equal(out.data, h)

    def test_segments_recover_layer_matrices(self, rng):
        mats = [rng.normal(size=(4, 2)) for _ in range(3)]
        out = ad.concat_cols([ad.leaf(m) for m in mats]).data
        assert out.shape == (4, 6)
        for i, m in enumerate(mats):
            assert np.array_equal(out[:, 2 * i : 2 * i + 2], m)

    def test_single_incident_time(self, rng):
        table = rng.normal(size=(5, 3))
        graph = FlatGraph(2, np.array([0]), np.array([1]), np.array([0]), np.array([4]))
        out = incident_time_mean(ad.leaf(table[graph.time]), graph).data
        assert np.allclose(out[1], table[4])
        assert np.allclose(out[0], 0.0)

    def test_repeated_time_is_plain_mean(self, rng):
        table = rng.normal(size=(5, 3))
        graph = FlatGraph(1, *[np.array([0, 0])] * 3, np.array([2, 2]))
        out = incident_time_mean(ad.leaf(table[graph.time]), graph).data
        assert np.allclose(out[0], table[2])

    def test_multiplicity_weighted_mean(self, rng):
        table = rng.normal(size=(5, 3))
        graph = FlatGraph(1, *[np.array([0, 0, 0])] * 3, np.array([1, 2, 2]))
        out = incident_time_mean(ad.leaf(table[graph.time]), graph).data
        assert np.allclose(out[0], (table[1] + 2 * table[2]) / 3)

    def test_gradient_reaches_each_link_row(self, rng):
        """Each link row gets its entity's 1/count share of the upstream
        gradient; the block is linear in ``time_e``."""
        graph = FlatGraph(3, *[np.array([0, 0, 0, 2])] * 2, np.array([0, 0, 0, 0]),
                          np.array([1, 2, 2, 0]))
        time_e = ad.leaf(rng.normal(size=(4, 3)))
        c = rng.normal(size=(3, 3))
        ad.backward(sum_all(mul(incident_time_mean(time_e, graph), ad.leaf(c))))
        want = np.stack([c[0] / 3, c[0] / 3, c[0] / 3, c[2]])
        assert np.max(np.abs(time_e.grad - want)) < 1e-15


def hub_and_isolated_pair(time_index, seed=0):
    """Two 14-entity graphs: entities 0, 6, 7 and 13 of each take part in no
    quadruple, and entity 3 in at least 12, so its inward run is long."""
    rng = np.random.default_rng(seed)
    linked = [e for e in range(14) if e not in (0, 6, 7, 13)]
    graphs = []
    for name in ("g1", "g2"):
        quads = {quad(3, int(r), int(o), int(t))
                 for r, o, t in zip(rng.integers(0, 3, 12), rng.choice(linked[1:], 12),
                                    rng.integers(0, 7, 12))}
        while len(quads) < 30:
            s, o = rng.choice(linked, 2, replace=False)
            quads.add(quad(int(s), int(rng.integers(0, 3)), int(o), int(rng.integers(0, 7))))
        graphs.append(make_kg(14, 3, time_index, sorted(quads), name=name))
    return graphs


class TestBlockedInference:
    """An inference forward runs each layer and the time mean one block of
    destination entities at a time; the taped forward is the whole graph."""

    @pytest.mark.parametrize("self_loops", [True, False], ids=["loops", "no-loops"])
    def test_blocks_tile_the_entities_and_keep_runs_whole(self, time_index, self_loops):
        merged = merge_pair(*hub_and_isolated_pair(time_index))
        graph, _ = prepare_graph(merged, self_loops)
        assert graph.blocks(graph.num_links) == [(0, graph)]
        run_length = np.bincount(graph.dst, minlength=graph.num_entities)
        for max_links in (1, 2, 5, 9, graph.num_links - 1):
            blocks = graph.blocks(max_links)
            firsts = [first for first, _ in blocks]
            assert len(blocks) > 1 and firsts[0] == 0
            assert [f + b.num_entities for f, b in blocks] == firsts[1:] + [graph.num_entities]
            for first, block in blocks:
                runs = run_length[first:first + block.num_entities]
                assert block.num_links == runs.sum()
                assert block.num_links <= max_links or np.count_nonzero(runs) == 1
                assert first == 0 or runs[0] > 0  # a later block starts with its first run
            for name in ("src", "rel", "time"):
                assert np.array_equal(np.concatenate([getattr(b, name) for _, b in blocks]),
                                      getattr(graph, name))
            assert np.array_equal(np.concatenate([b.dst + f for f, b in blocks]), graph.dst)
        assert max(run_length) > 9  # a run longer than the budget is a block of its own
        isolated = run_length == 0
        assert isolated.any() != self_loops

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("self_loops", [True, False], ids=["loops", "no-loops"])
    @pytest.mark.parametrize("unaware", [False, True], ids=["aware", "unaware"])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_blocked_forward_equals_the_whole_graph_bitwise(self, time_index, monkeypatch,
                                                            precision, unaware, self_loops,
                                                            layers):
        """Blocks of 1 to 9 links, so a run longer than a block and (without
        self-loops) entities with no inward link sit at block edges: every
        bit and the probe's one deviation per layer and view are the taped
        whole-graph forward's."""
        merged = merge_pair(*hub_and_isolated_pair(time_index))
        graph, _ = prepare_graph(merged, self_loops)
        if unaware:
            graph = apply_time_unaware(graph)
        cfg = ModelConfig(dim=4, num_layers=layers, precision=precision)
        store = init_params(np.random.default_rng(1), *table_sizes(merged, self_loops), cfg)
        whole_probe = AttentionProbe()
        whole = model_forward(store, graph, cfg, probe=whole_probe)
        assert whole.backward_fn is not None
        row_bytes = cfg.dim * cfg.dtype.itemsize
        for max_links in (1, 2, 5, 9):
            monkeypatch.setattr(model_module, "INFERENCE_BLOCK_BYTES", max_links * row_bytes)
            probe = AttentionProbe()
            with ad.no_tape():
                blocked = model_forward(store, graph, cfg, probe=probe)
            assert blocked.data.dtype == whole.data.dtype
            assert blocked.data.tobytes() == whole.data.tobytes(), max_links
            assert len(probe.deviations) == 2 * layers
            assert probe.deviations == whole_probe.deviations

    def test_attention_probe_merges_block_probes_per_view(self):
        parts = [AttentionProbe([0.1, 0.4]), AttentionProbe([0.3, 0.2]), AttentionProbe([0.0, 0.0])]
        probe = AttentionProbe([0.5, 0.6])
        probe.merge(parts)
        assert probe.deviations == [0.5, 0.6, 0.3, 0.4]


class TestModelForward:
    def build(self, pair, self_loops=True, layers=2, dim=5, precision="f64", seed=0):
        g1, g2, _ = pair
        merged = merge_pair(g1, g2)
        graph, sensitivity = prepare_graph(merged, self_loops=self_loops)
        cfg = ModelConfig(dim=dim, num_layers=layers, precision=precision)
        store = init_params(np.random.default_rng(seed), *table_sizes(merged, self_loops), cfg)
        return store, graph, sensitivity, cfg, merged

    def test_output_shape(self, fixture_6ent):
        store, graph, _, cfg, merged = self.build(fixture_6ent)
        out = model_forward(store, graph, cfg)
        # L+1 layer blocks plus the incident-time mean
        assert out.data.shape == (merged.kg.num_entities, (cfg.num_layers + 2) * cfg.dim)

    def test_all_unknown_times_make_modes_agree(self, time_index):
        """A graph whose links already all carry the unknown time is a fixed
        point of the time-unaware substitution."""
        quads = [quad(0, 0, 1, 0), quad(1, 0, 2, 0), quad(2, 0, 0, 0)]
        g1 = make_kg(3, 1, time_index, quads, name="g1")
        g2 = make_kg(3, 1, time_index, list(quads), name="g2")
        store, graph, _, cfg, _ = self.build((g1, g2, None))
        aware = model_forward(store, graph, cfg).data
        unaware = model_forward(store, apply_time_unaware(graph), cfg).data
        assert np.array_equal(aware, unaware)

    def test_timestamps_separate_entities_only_in_aware_mode(self, time_index):
        """Two entities whose neighborhoods differ only in link timestamps:
        distinguishable time-aware, indistinguishable time-unaware."""
        # entities 1 and 2 both receive r0 from entity 0, at different times
        quads = [quad(0, 0, 1, 1), quad(0, 0, 2, 3)]
        g1 = make_kg(3, 1, time_index, quads, name="g1")
        g2 = make_kg(3, 1, time_index, list(quads), name="g2")
        store, graph, _, cfg, _ = self.build((g1, g2, None), self_loops=False)
        aware = model_forward(store, graph, cfg).data
        unaware = model_forward(store, apply_time_unaware(graph), cfg).data
        k = cfg.dim
        # layer blocks beyond the raw embedding + the time mean block
        assert not np.allclose(aware[1, k:], aware[2, k:])
        assert np.allclose(unaware[1, k:], unaware[2, k:], atol=1e-12)

    def test_layers_match_brute_force_without_self_loops(self, time_index):
        """Without self-loops an entity with no quadruple has no inward link:
        its layer rows stay zero, and every layer block equals the oracle's."""
        quads = [quad(0, 0, 1, 1), quad(1, 1, 2, 2), quad(2, 0, 0, 3), quad(0, 1, 2, 4)]
        g1 = make_kg(4, 2, time_index, quads, name="g1")
        g2 = make_kg(4, 2, time_index, list(quads), name="g2")
        store, graph, _, cfg, _ = self.build((g1, g2, None), self_loops=False)
        isolated = np.setdiff1d(np.arange(graph.num_entities), graph.dst)
        assert isolated.tolist() == [3, 7]
        out = model_forward(store, graph, cfg).data
        rel = store["relation"].data
        tim = store["time"].data
        rel_e = (rel / np.linalg.norm(rel, axis=1, keepdims=True))[graph.rel]
        time_e = (tim / np.linalg.norm(tim, axis=1, keepdims=True))[graph.time]
        k, h = cfg.dim, store["entity"].data
        for layer in range(cfg.num_layers):
            h = brute_force_layer(
                h, graph, rel_e, time_e,
                store[f"attn_time_{layer}"].data, store[f"attn_rel_{layer}"].data,
            )
            block = out[:, (layer + 1) * k : (layer + 2) * k]
            assert np.max(np.abs(block - h)) < 1e-10
            assert np.array_equal(block[isolated], np.zeros((2, k)))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("unaware", [False, True])
    def test_time_mean_block_equals_gather_from_table(self, fixture_6ent, precision, unaware):
        """The time-mean block, now summed from the per-link ``time_e``, is
        bitwise the mean gathered from the normalised time table."""
        store, graph, _, cfg, _ = self.build(fixture_6ent, precision=precision)
        if unaware:
            graph = apply_time_unaware(graph)
        out = model_forward(store, graph, cfg).data
        table = ad.normalize_rows(store["time"])
        counts = np.bincount(graph.dst, minlength=graph.num_entities)
        inv = np.zeros(graph.num_entities, dtype=cfg.dtype)
        inv[counts > 0] = 1.0 / counts[counts > 0]
        summed = ad.segment_sum(ad.gather_rows(table, graph.by_time), graph.by_dst,
                                graph.num_entities)
        want = ad.scale_rows_const(summed, inv).data
        got = out[:, (cfg.num_layers + 1) * cfg.dim :]
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_unaware_mode_invariant_to_time_relabeling(self, fixture_6ent, rng):
        store, graph, _, cfg, merged = self.build(fixture_6ent)
        base = model_forward(store, apply_time_unaware(graph), cfg).data
        n_times = merged.kg.time_index.num_ids
        scrambled_times = rng.integers(1, n_times, size=graph.num_links)
        scrambled = FlatGraph(
            graph.num_entities, graph.src, graph.dst, graph.rel, scrambled_times,
        )
        assert np.array_equal(
            model_forward(store, apply_time_unaware(scrambled), cfg).data, base
        )

    def test_bit_determinism_in_training_mode(self, fixture_6ent):
        store, graph, _, cfg, _ = self.build(fixture_6ent)
        a = model_forward(
            store, graph, cfg, training=True, rng=np.random.default_rng(5)
        ).data
        b = model_forward(
            store, graph, cfg, training=True, rng=np.random.default_rng(5)
        ).data
        assert np.array_equal(a, b)

    def test_graph_groups_each_column_once(self, fixture_6ent, monkeypatch):
        """Two training forwards, each backpropagated, group the four link
        columns once between them, and through the graph's own groupings."""
        grouped = []

        class CountingGrouping(ad.Grouping):
            __slots__ = ()

            def __init__(self, index):
                grouped.append(index)
                super().__init__(index)

        monkeypatch.setattr(model_module, "Grouping", CountingGrouping)
        store, graph, _, cfg, _ = self.build(fixture_6ent)
        assert grouped == []  # building a graph groups nothing
        for seed in (5, 6):
            reps = model_forward(store, graph, cfg, training=True, rng=np.random.default_rng(seed))
            ad.backward(sum_all(reps))
        columns = (graph.src, graph.dst, graph.rel, graph.time)
        assert len(grouped) == 4
        assert all(any(g is c for g in grouped) for c in columns)
        for name, column in zip(("by_src", "by_dst", "by_rel", "by_time"), columns):
            assert getattr(graph, name) is getattr(graph, name)
            assert getattr(graph, name).index is column

    def test_time_unaware_graph_gets_fresh_groupings(self, fixture_6ent):
        _, graph, _, _, _ = self.build(fixture_6ent)
        before = {name: getattr(graph, name) for name in ("by_src", "by_dst", "by_rel", "by_time")}
        unaware = apply_time_unaware(graph)
        for name, grouping in before.items():
            assert getattr(unaware, name) is not grouping
        assert unaware.by_time.index is unaware.time
        (span, ids), = unaware.by_time.buckets  # one run of every link, read in place
        assert span == slice(0, graph.num_links) and ids.tolist() == [UNKNOWN_TIME_ID]
        assert unaware.by_time.by_id[0] is None
        assert graph.by_time is before["by_time"]

    def test_graph_digest_names_its_links(self, fixture_6ent):
        """Equal graphs share a digest; another entity count, a changed entry in
        any column, a swap of two links or the time-unaware blanking changes it."""
        _, graph, _, _, _ = self.build(fixture_6ent)
        digest = graph.sha256()
        copy = FlatGraph(graph.num_entities, *(c.astype(np.int32) for c in
                                               (graph.src, graph.dst, graph.rel, graph.time)))
        assert copy.sha256() == digest and len(digest) == 64
        others = [dataclasses.replace(graph, num_entities=graph.num_entities + 1),
                  apply_time_unaware(graph)]
        for name in ("src", "dst", "rel", "time"):
            column = getattr(graph, name).copy()
            column[0] += 1
            others.append(dataclasses.replace(graph, **{name: column}))
        swapped = np.r_[1, 0, 2:graph.num_links]
        others.append(FlatGraph(graph.num_entities, graph.src[swapped], graph.dst[swapped],
                                graph.rel[swapped], graph.time[swapped]))
        assert graph.rel[0] != graph.rel[1]  # the swap moves a relation
        assert len({digest} | {g.sha256() for g in others}) == len(others) + 1

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("self_loops", [True, False], ids=["loops", "no-loops"])
    @pytest.mark.parametrize("unaware", [False, True], ids=["time-aware", "time-unaware"])
    def test_destination_term_cancels_in_the_softmax(self, fixture_6ent, monkeypatch,
                                                     layers, self_loops, unaware):
        """f64: the two-term logit gives the paper's three-term logit's
        attention weights, training-mode output and parameter gradients to
        1e-12. The reference's gradient into each nu_1 is rounding noise; the
        model's is exactly zero."""
        _, graph, _, cfg, merged = self.build(fixture_6ent, self_loops=self_loops, layers=layers)
        if unaware:
            graph = apply_time_unaware(graph)
        c = np.random.default_rng(1).normal(size=(graph.num_entities, (layers + 2) * cfg.dim))

        def run():
            weights = []
            softmax = ad.segment_softmax

            def recording(*args):
                out = softmax(*args)
                weights.append(out.data.copy())
                return out

            store = init_params(np.random.default_rng(0), *table_sizes(merged, self_loops), cfg)
            with monkeypatch.context() as patch:
                patch.setattr(ad, "segment_softmax", recording)
                reps = model_forward(store, graph, cfg, training=True, rng=np.random.default_rng(2))
            out = reps.data.copy()
            ad.backward(sum_all(mul(reps, ad.leaf(c))))
            return weights, out, {name: t.grad for name, t in store.items()}

        weights, out, grads = run()
        monkeypatch.setattr(model_module, "layer_forward", three_term_layer)
        want_weights, want_out, want_grads = run()
        assert len(weights) == len(want_weights) == 2 * layers
        for got, want in zip(weights, want_weights):
            assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(out - want_out)) < 1e-12
        assert grads.keys() == want_grads.keys()
        k = cfg.dim
        for name, grad in grads.items():
            assert np.max(np.abs(grad - want_grads[name])) < 1e-12, name
            if name.startswith("attn_"):
                assert np.array_equal(grad[:k], np.zeros(k)), name
                assert np.max(np.abs(want_grads[name][:k])) <= 1e-12, name

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("self_loops", [True, False], ids=["loops", "no-loops"])
    @pytest.mark.parametrize("unaware", [False, True], ids=["time-aware", "time-unaware"])
    def test_sealed_sum_equals_the_unsealed_tail_bitwise(self, fixture_6ent, monkeypatch,
                                                         layers, self_loops, unaware):
        """f64: sealing each layer's weighted sum changes no bit of the
        training-mode output or of any parameter gradient."""
        _, graph, _, cfg, merged = self.build(fixture_6ent, self_loops=self_loops, layers=layers)
        if unaware:
            graph = apply_time_unaware(graph)
        c = np.random.default_rng(1).normal(size=(graph.num_entities, (layers + 2) * cfg.dim))

        def run(seal):
            sealed = []

            def counting(fn, *inputs):
                out = seal(fn, *inputs)
                sealed.append(out.parents == inputs)
                return out

            store = init_params(np.random.default_rng(0), *table_sizes(merged, self_loops), cfg)
            with monkeypatch.context() as patch:
                patch.setattr(ad, "seal", counting)
                reps = model_forward(store, graph, cfg, training=True, rng=np.random.default_rng(2))
            out = reps.data.copy()
            ad.backward(sum_all(mul(reps, ad.leaf(c))))
            return sealed, out, {name: t.grad for name, t in store.items()}

        sealed, out, grads = run(ad.seal)
        unsealed, want_out, want_grads = run(lambda fn, *inputs: fn(*inputs))
        assert sealed == [True] * layers and unsealed == [False] * layers
        assert out.tobytes() == want_out.tobytes()
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == want_grads[name].tobytes(), name

    def test_training_with_dropout_requires_rng(self, fixture_6ent):
        store, graph, _, cfg, _ = self.build(fixture_6ent)
        with pytest.raises(ConfigError):
            model_forward(store, graph, cfg, training=True)

    def test_forward_insensitive_to_stored_table_scale(self, fixture_6ent):
        """The pass normalizes rel/time tables internally, so scaling the
        stored rows must not change the output (f64 exactness not expected)."""
        store, graph, _, cfg, _ = self.build(fixture_6ent)
        base = model_forward(store, graph, cfg).data
        store["relation"].data *= 2.0
        store["time"].data *= 0.5
        again = model_forward(store, graph, cfg).data
        assert np.max(np.abs(base - again)) < 1e-9

    def test_self_loop_flag_changes_relation_rows(self, fixture_6ent):
        g1, g2, _ = fixture_6ent
        merged = merge_pair(g1, g2)
        r = merged.kg.num_relations
        assert num_relation_rows(r, True) == 2 * r + 1
        assert num_relation_rows(r, False) == 2 * r
        graph_with, _ = prepare_graph(merged, self_loops=True)
        graph_without, _ = prepare_graph(merged, self_loops=False)
        assert graph_with.num_links == graph_without.num_links + merged.kg.num_entities
        # the self-loop relation is the table's last row, just past the reverse block
        loops = graph_with.src == graph_with.dst
        assert np.all(graph_with.rel[loops] == 2 * r)
        assert table_sizes(merged, True)[1] == 2 * r + 1

    def test_param_shapes_layout(self):
        cfg = ModelConfig(dim=3, num_layers=2)
        # draw order: the three embedding tables, then each layer's two attention vectors
        assert list(param_shapes(7, 5, 4, cfg).items()) == [
            ("entity", (7, 3)), ("relation", (5, 3)), ("time", (4, 3)),
            ("attn_time_0", (9,)), ("attn_rel_0", (9,)), ("attn_time_1", (9,)), ("attn_rel_1", (9,)),
        ]
        store = init_params(np.random.default_rng(0), 7, 5, 4, cfg)
        assert [(name, t.data.shape) for name, t in store.items()] == \
            list(param_shapes(7, 5, 4, cfg).items())

    def test_param_count_formula(self, fixture_6ent):
        store, _, _, cfg, merged = self.build(fixture_6ent, self_loops=False)
        n_e = merged.kg.num_entities
        n_r = 2 * merged.kg.num_relations
        n_t = merged.kg.time_index.num_ids
        expected = cfg.dim * (n_e + n_r + n_t) + 2 * 3 * cfg.dim * cfg.num_layers
        assert store.num_scalars() == expected
