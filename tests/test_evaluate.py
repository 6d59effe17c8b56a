"""Ranking metrics: oracle equivalence, hand examples, and partition logic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgalign import evaluate
from tkgalign.errors import ConfigError
from tkgalign.evaluate import (
    RankingReport,
    average_reports,
    compute_metrics,
    csls_adjust,
    partition_test_pairs,
    rank_alignment,
    rank_pool,
    similarity_matrix,
    time_sensitivity,
)
from tkgalign.model import prepare_graph
from tkgalign.tkg import UNKNOWN_TIME_ID, merge_pair

from conftest import make_kg, quad


def naive_l1_sim(src, tgt):
    out = np.empty((len(src), len(tgt)))
    for i, a in enumerate(src):
        for j, b in enumerate(tgt):
            out[i, j] = -float(np.abs(a - b).sum())
    return out


def naive_csls(sim, k):
    rows, cols = sim.shape
    out = np.empty_like(sim)
    for i in range(rows):
        r_src = float(np.mean(sorted(sim[i])[-k:]))
        for j in range(cols):
            r_tgt = float(np.mean(sorted(sim[:, j])[-k:]))
            out[i, j] = 2.0 * sim[i, j] - r_src - r_tgt
    return out


def full_sort_csls_means(sim, k):
    """CSLS's row and column means, from full sorts of a C-order copy and its
    C-order transpose."""
    sim = np.ascontiguousarray(sim)
    rows, cols = sim.shape
    r_src = np.sort(sim, axis=1)[:, cols - k:].mean(axis=1)
    r_tgt = np.sort(np.ascontiguousarray(sim.T), axis=1)[:, rows - k:].mean(axis=1)
    return r_src, r_tgt


def full_sort_csls(sim, k):
    r_src, r_tgt = full_sort_csls_means(sim, k)
    return 2.0 * np.ascontiguousarray(sim) - r_src[:, None] - r_tgt[None, :]


class TestSimilarityMatrix:
    def test_matches_naive_loop_200x200(self, rng):
        src = rng.normal(size=(200, 24))
        tgt = rng.normal(size=(200, 24))
        sim = similarity_matrix(src, tgt, block=37)
        assert np.allclose(sim, naive_l1_sim(src, tgt), atol=1e-10)

    def test_blocking_is_invisible(self, rng):
        src = rng.normal(size=(13, 5))
        tgt = rng.normal(size=(9, 5))
        full = similarity_matrix(src, tgt, block=1024)
        tiny = similarity_matrix(src, tgt, block=2)
        assert np.array_equal(full, tiny)

    def test_identical_rows_score_zero(self, rng):
        reps = rng.normal(size=(4, 6))
        sim = similarity_matrix(reps, reps)
        assert np.allclose(np.diag(sim), 0.0)
        assert np.all(sim <= 1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            similarity_matrix(np.zeros((3, 4)), np.zeros((3, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,m,k", [(17, 23, 13), (1, 31, 11), (29, 1, 9), (6, 5, 3), (9, 11, 133)])
    @pytest.mark.parametrize("tile_cells", [1, 5, 40, 10 ** 6])
    def test_tiles_are_bitwise_equal_to_the_pair_loop(self, rng, monkeypatch, dtype, n, m, k,
                                                      tile_cells):
        # tile_cells < m splits every row into several column tiles; larger
        # budgets give multi-row tiles (capped by block) or the whole matrix
        itemsize = np.dtype(dtype).itemsize
        monkeypatch.setattr(evaluate, "TILE_BYTES", tile_cells * k * itemsize)
        src = rng.normal(size=(n, k)).astype(dtype)
        tgt = rng.normal(size=(m, k)).astype(dtype)
        sim = similarity_matrix(src, tgt, block=4)
        naive = np.empty((n, m), dtype=dtype)
        for i in range(n):
            for j in range(m):
                naive[i, j] = -np.abs(src[i] - tgt[j]).sum()
        assert sim.dtype == dtype
        assert np.array_equal(sim, naive)


class TestCsls:
    def test_constant_matrix_flattens_to_zero(self):
        sim = np.full((4, 4), 2.5)
        assert np.allclose(csls_adjust(sim, k_csls=2), 0.0)

    def test_single_cell(self):
        assert np.allclose(csls_adjust(np.array([[3.0]]), k_csls=1), 0.0)

    def test_matches_naive_loop(self, rng):
        sim = rng.normal(size=(5, 5))
        assert np.allclose(csls_adjust(sim, k_csls=2), naive_csls(sim, 2), atol=1e-12)

    def test_rectangular_matches_naive(self, rng):
        sim = rng.normal(size=(6, 4))
        assert np.allclose(csls_adjust(sim, k_csls=3), naive_csls(sim, 3), atol=1e-12)

    def test_hub_column_is_penalized(self):
        # column 0 is everyone's best match; csls should knock it down
        # relative to a column that only row 0 likes.
        sim = np.array([
            [0.9, 0.8, 0.1],
            [0.9, 0.1, 0.2],
            [0.9, 0.2, 0.1],
        ])
        adj = csls_adjust(sim, k_csls=2)
        raw_margin = sim[0, 0] - sim[0, 1]
        adj_margin = adj[0, 0] - adj[0, 1]
        assert adj_margin < raw_margin

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_neighborhood_out_of_range(self, k):
        with pytest.raises(ConfigError, match="out of range"):
            csls_adjust(np.zeros((5, 5)), k_csls=k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,k", [
        ((300, 307), 10),  # 2-3 row blocks each way
        ((300, 307), 37),
        ((307, 300), 300),  # k == cols
        ((1100, 600), 8),  # 11-21 row blocks each way
    ])
    @pytest.mark.parametrize("kind", ["normal", "ties"])
    def test_any_layout_gives_the_bits_of_full_sorts(self, rng, dtype, shape, k, kind):
        if kind == "normal":
            base = rng.normal(size=shape[::-1]).astype(dtype)
        else:  # few distinct values: ties straddle every top-k boundary
            base = -rng.integers(0, 4, size=shape[::-1]).astype(dtype)
        view = base.T
        assert not view.flags.c_contiguous
        got = csls_adjust(view, k)
        copy = csls_adjust(np.ascontiguousarray(view), k)
        assert got.dtype == dtype
        assert got.tobytes() == copy.tobytes()
        assert copy.tobytes() == full_sort_csls(view, k).tobytes()

    @pytest.mark.parametrize("row_bytes", [1, 3, 64])
    def test_row_blocking_is_invisible(self, rng, monkeypatch, row_bytes):
        sim = rng.normal(size=(23, 19)).astype(np.float32)
        monkeypatch.setattr(evaluate, "TILE_BYTES", row_bytes * 19 * 4)
        for k in (1, 8, 19):
            assert csls_adjust(sim, k).tobytes() == full_sort_csls(sim, k).tobytes()
            assert csls_adjust(sim.T, k).tobytes() == full_sort_csls(sim.T, k).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_blocks_with_the_whole_means_give_the_whole_bits(self, rng, dtype):
        sim = rng.normal(size=(23, 19)).astype(dtype)
        whole = csls_adjust(sim, 4)
        r_src, r_tgt = full_sort_csls_means(sim, 4)
        for lo, hi in ((0, 1), (1, 9), (9, 23)):
            block = csls_adjust(sim[lo:hi], k_csls=99, means=(r_src[lo:hi], r_tgt))
            assert block.tobytes() == whole[lo:hi].tobytes()

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_row_constant_shift_cancels(self, seed):
        # adding a constant to the whole matrix never changes csls differences
        rng = np.random.default_rng(seed)
        sim = rng.normal(size=(4, 6))
        a = csls_adjust(sim, k_csls=2)
        b = csls_adjust(sim + 13.5, k_csls=2)
        assert np.allclose(a - a[0, 0], b - b[0, 0], atol=1e-9)


class TestComputeMetrics:
    def test_perfect_identity(self):
        sim = np.eye(5)
        rep = compute_metrics(sim, np.arange(5))
        assert rep.mrr == 1.0 and rep.hits1 == 1.0 and rep.hits10 == 1.0
        assert rep.ranks == [1, 1, 1, 1, 1]

    def test_hand_ranks_one_and_four(self):
        sim = np.array([
            [5.0, 1.0, 2.0, 3.0],   # gold col 0 -> rank 1
            [9.0, 8.0, 7.0, 0.0],   # gold col 3 -> rank 4
        ])
        rep = compute_metrics(sim, np.array([0, 3]))
        assert rep.ranks == [1, 4]
        assert rep.mrr == pytest.approx(0.625)
        assert rep.hits1 == pytest.approx(0.5)
        assert rep.hits10 == pytest.approx(1.0)

    def test_ties_count_against_the_gold(self):
        # a duplicate of the gold column must push its rank to 2
        sim = np.array([[1.0, 1.0, 0.0]])
        rep = compute_metrics(sim, np.array([0]))
        assert rep.ranks == [2]
        assert rep.hits1 == 0.0

    def test_all_equal_is_worst_case(self):
        sim = np.zeros((3, 12))
        rep = compute_metrics(sim, np.array([0, 5, 11]))
        assert rep.ranks == [12, 12, 12]
        assert rep.hits10 == 0.0

    # a Fortran-order matrix is a transposed view, counted by column blocks
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray],
                             ids=["C", "F"])
    def test_nan_never_improves_a_rank(self, layout):
        sim = layout(np.array([
            [np.nan, 1.0, 2.0],   # NaN gold ranks last
            [1.0, np.nan, 0.5],   # NaN candidate counts against the gold
            [0.0, 1.0, 2.0],
            [np.nan, np.nan, np.nan],
        ]))
        rep = compute_metrics(sim, np.array([0, 0, 1, 2]))
        assert rep.ranks == [3, 2, 2, 3]
        assert rep.mrr == pytest.approx((1 / 3 + 1 / 2 + 1 / 2 + 1 / 3) / 4)
        assert rep.hits1 == 0.0

    @pytest.mark.parametrize("row_bytes", [1, 2, 7])
    def test_row_blocking_is_invisible(self, rng, monkeypatch, row_bytes):
        sim = rng.integers(0, 5, size=(15, 8)).astype(np.float64)
        gold = rng.integers(0, 8, size=15)
        want = [1 + int(sum(sim[i, j] >= sim[i, gold[i]] for j in range(8) if j != gold[i]))
                for i in range(15)]
        monkeypatch.setattr(evaluate, "TILE_BYTES", row_bytes * 8)
        assert compute_metrics(sim, gold).ranks == want
        assert compute_metrics(np.asfortranarray(sim), gold).ranks == want

    def test_monotone_transform_preserves_ranks(self, rng):
        sim = rng.normal(size=(10, 30))
        gold = rng.integers(0, 30, size=10)
        base = compute_metrics(sim, gold)
        for f in (lambda s: 2.0 * s + 7.0, np.tanh, lambda s: s ** 3):
            assert compute_metrics(f(sim), gold).ranks == base.ranks

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            compute_metrics(np.zeros((2, 3)), np.array([0, 3]))

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="gold labels"):
            compute_metrics(np.zeros((2, 3)), np.array([0]))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_metric_bounds(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 40))
        sim = rng.normal(size=(rows, cols))
        gold = rng.integers(0, cols, size=rows)
        rep = compute_metrics(sim, gold)
        assert all(1 <= r <= cols for r in rep.ranks)
        assert 0.0 < rep.mrr <= 1.0
        assert 0.0 <= rep.hits1 <= rep.hits10 <= 1.0
        assert rep.mrr >= rep.hits1

    def test_csv_rows_layout(self):
        rep = compute_metrics(np.eye(2), np.arange(2))
        rows = rep.csv_rows()
        assert rows[0] == "metric,value,partition,metric_space,direction,seed,seconds"
        assert rows[1].startswith("mrr,1.000000,all,l1,g1->g2,")
        assert len(rows) == 4
        # unset seed/seconds serialize as empty cells, not "None"
        assert rows[1].endswith(",,")


class TestRankAlignment:
    def make_reps(self, rng, n=6, dim=8, noise=0.0):
        base = rng.normal(size=(n // 2, dim))
        twin = base + noise * rng.normal(size=base.shape)
        return np.concatenate([base, twin], axis=0)

    def test_perfect_twins_rank_first(self, rng):
        reps = self.make_reps(rng, noise=0.0)
        pairs = np.array([[0, 3], [1, 4], [2, 5]])
        rep = rank_alignment(reps, pairs, metric_space="l1")
        assert rep.mrr == 1.0
        assert rep.num_pairs == 3

    def test_direction_flip_swaps_pools(self, rng):
        reps = self.make_reps(rng, noise=0.3)
        pairs = np.array([[0, 3], [1, 4], [2, 5]])
        fwd = rank_alignment(reps, pairs, metric_space="l1", direction="g1->g2")
        rev = rank_alignment(reps, pairs, metric_space="l1", direction="g2->g1")
        sim_rev = similarity_matrix(reps[pairs[:, 1]], reps[pairs[:, 0]])
        assert rev.ranks == compute_metrics(sim_rev, np.arange(3)).ranks
        assert fwd.direction == "g1->g2" and rev.direction == "g2->g1"

    def test_csls_neighborhood_clamped_for_small_splits(self, rng):
        reps = self.make_reps(rng, noise=0.1)
        pairs = np.array([[0, 3], [1, 4], [2, 5]])
        rep = rank_alignment(reps, pairs, metric_space="csls", k_csls=10)
        assert rep.metric_space == "csls"
        assert all(1 <= r <= 3 for r in rep.ranks)

    def test_csls_matches_manual_pipeline(self, rng):
        reps = rng.normal(size=(8, 5))
        pairs = np.array([[0, 4], [1, 5], [2, 6], [3, 7]])
        rep = rank_alignment(reps, pairs, metric_space="csls", k_csls=2)
        sim = csls_adjust(similarity_matrix(reps[:4], reps[4:]), k_csls=2)
        assert rep.ranks == compute_metrics(sim, np.arange(4)).ranks

    def test_bad_pair_shape(self, rng):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            rank_alignment(rng.normal(size=(4, 3)), np.array([0, 1]))

    def test_unknown_metric_space(self, rng):
        pairs = np.array([[0, 1]])
        with pytest.raises(ConfigError, match="metric space"):
            rank_alignment(rng.normal(size=(2, 3)), pairs, metric_space="l2")


class TestRankPool:
    SPACES = ("l1", "csls")
    DIRECTIONS = ("g1->g2", "g2->g1")

    def pool(self, rng, reps):
        n = len(reps) // 2
        pairs = np.stack([np.arange(n), n + rng.permutation(n)], axis=1)
        order = rng.permutation(n)
        partitions = (
            ("highly", np.array([7, 2, 11])),  # smaller than k_csls: clamped
            ("empty", np.array([], dtype=np.int64)),  # skipped
            ("lowly", np.setdiff1d(np.arange(n), [7, 2, 11])),
            # uneven, one in shuffled order: at n = 600 each spans 3-4 row blocks
            ("shuffled", order[:3 * n // 8]),
            ("rest", np.sort(order[3 * n // 8:])),
        )
        return pairs, partitions

    def check_against_standalone_rankings(self, rng, kind, n):
        if kind == "ties":  # few distinct values: many tied scores, ranked pessimistically
            reps = rng.integers(0, 3, size=(2 * n, 5)).astype(np.float32)
        else:
            reps = rng.normal(size=(2 * n, 13)).astype(np.float32)
        if kind == "nan":  # pair 2's source (in "highly"): a NaN L1 row, NaN CSLS means
            reps[2] = np.nan
        pairs, partitions = self.pool(rng, reps)
        reports = rank_pool(reps, pairs, spaces=self.SPACES, directions=self.DIRECTIONS,
                            k_csls=5, partitions=partitions)
        expected = [
            (space, direction, name, idx)
            for space in self.SPACES
            for direction in self.DIRECTIONS
            for name, idx in (("all", np.arange(len(pairs))),) + partitions
            if len(idx)
        ]
        assert len(reports) == len(expected)
        for rep, (space, direction, name, idx) in zip(reports, expected):
            alone = rank_alignment(reps, pairs[idx], metric_space=space, k_csls=5,
                                   partition=name, direction=direction)
            # the whole-matrix path: one L1 matrix in the report's direction,
            # adjusted and counted whole
            src, tgt = pairs[idx].T if direction == "g1->g2" else pairs[idx].T[::-1]
            sim = similarity_matrix(reps[src], reps[tgt])
            if space == "csls":
                sim = csls_adjust(sim, min(5, len(idx)))
            whole = compute_metrics(sim, np.arange(len(idx)))
            assert (rep.metric_space, rep.direction, rep.partition) == (space, direction, name)
            assert rep.ranks == alone.ranks == whole.ranks
            assert (rep.mrr, rep.hits1, rep.hits10) == (alone.mrr, alone.hits1, alone.hits10)
            assert (rep.seconds is not None) == (name == "all")

    @pytest.mark.parametrize("kind", ["normal", "ties", "nan"])
    def test_each_report_equals_a_standalone_ranking(self, rng, kind):
        self.check_against_standalone_rankings(rng, kind, 20)

    @pytest.mark.parametrize("kind", ["normal", "ties", "nan"])
    def test_pool_of_several_row_blocks(self, rng, kind):
        n = 600  # CSLS and the rank counts each take several row blocks
        assert n * 4 * 2 <= evaluate.TILE_BYTES < n * n * 4
        self.check_against_standalone_rankings(rng, kind, n)

    def test_holds_about_one_pool_matrix(self, rng):
        # the L1 matrix and row-block temporaries of at most TILE_BYTES each
        # (6% of a pool matrix at n = 1000); g2->g1, CSLS and the partitions
        # add no full-size matrix. Measured 1.20; 2.5 while ranking held a
        # CSLS matrix and copied each partition's sub-pool.
        n = 1000
        reps = rng.normal(size=(2 * n, 16)).astype(np.float32)
        pairs = np.stack([np.arange(n), n + rng.permutation(n)], axis=1)
        order = rng.permutation(n)
        partitions = (("highly", np.sort(order[:400])), ("lowly", np.sort(order[400:])))
        tracemalloc.start()
        try:
            reports = rank_pool(reps, pairs, spaces=self.SPACES, directions=self.DIRECTIONS,
                                partitions=partitions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 12
        assert peak <= 1.25 * n * n * 4

    def test_partition_of_the_whole_pool_reuses_its_ranking(self, rng):
        """A pool with no lowly time-sensitive pair: the highly report is the
        whole-pool ranking under its own name, as a standalone ranking of that
        subset gives it, with its sub-pool not ranked again."""
        n = 1500
        reps = rng.normal(size=(2 * n, 16)).astype(np.float32)
        pairs = np.stack([np.arange(n), n + rng.permutation(n)], axis=1)
        partitions = (("highly", np.arange(n)), ("lowly", np.array([], dtype=np.int64)))
        tracemalloc.start()
        try:
            reports = rank_pool(reps, pairs, spaces=self.SPACES, directions=self.DIRECTIONS,
                                partitions=partitions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = [(space, direction, name) for space in self.SPACES
                    for direction in self.DIRECTIONS for name in ("all", "highly")]
        assert [(r.metric_space, r.direction, r.partition) for r in reports] == expected
        for rep, (space, direction, name) in zip(reports, expected):
            alone = rank_alignment(reps, pairs, metric_space=space, partition=name,
                                   direction=direction)
            assert rep.ranks == alone.ranks
            assert (rep.mrr, rep.hits1, rep.hits10) == (alone.mrr, alone.hits1, alone.hits10)
            assert (rep.seconds is not None) == (name == "all")
        assert peak <= 1.1 * n * n * 4  # measured 1.08; 2.2 with a whole CSLS matrix

    def test_single_space_and_direction(self, rng):
        reps = rng.normal(size=(10, 4))
        pairs, _ = self.pool(rng, reps[:8])
        (rep,) = rank_pool(reps, pairs, spaces=("csls",), directions=("g2->g1",), k_csls=2)
        alone = rank_alignment(reps, pairs, metric_space="csls", k_csls=2, direction="g2->g1")
        assert rep.ranks == alone.ranks and rep.direction == "g2->g1"

    def test_bad_pair_shape(self, rng):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            rank_pool(rng.normal(size=(4, 3)), np.array([0, 1]))

    def test_empty_pool_rejected(self, rng):
        with pytest.raises(ValueError, match="empty test pool"):
            rank_pool(rng.normal(size=(4, 3)), np.empty((0, 2), dtype=np.int64))

    def test_l1_block_must_fit_the_pairs(self, rng):
        with pytest.raises(ValueError, match="does not fit"):
            rank_alignment(rng.normal(size=(4, 3)), np.array([[0, 2], [1, 3]]),
                           l1=np.zeros((3, 3)))


class TestAverageReports:
    def test_means_across_runs(self):
        a = RankingReport(mrr=0.5, hits1=0.4, hits10=0.8, ranks=[2])
        b = RankingReport(mrr=0.7, hits1=0.6, hits10=1.0, ranks=[1])
        avg = average_reports([a, b])
        assert avg == {"mrr": 0.6, "mrr_std": pytest.approx(0.1), "hits1": 0.5,
                       "hits1_std": pytest.approx(0.1), "hits10": 0.9, "runs": 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            average_reports([])


class TestTimeSensitivity:
    def sensitivity(self, times, n=6):
        """Entity 0 receives one link per time."""
        return time_sensitivity(np.zeros(len(times), dtype=np.int64), np.array(times), n)

    def test_all_unknown_times(self):
        assert self.sensitivity([UNKNOWN_TIME_ID] * 3)[0] == 0.0

    def test_all_real_times(self):
        assert self.sensitivity([2, 3, 4])[0] == 1.0

    def test_three_quarters(self):
        assert self.sensitivity([UNKNOWN_TIME_ID, 2, 3, 4])[0] == pytest.approx(0.75)

    def test_no_links_is_zero(self):
        assert self.sensitivity([]).tolist() == [0.0] * 6

    def test_matches_per_entity_fraction(self, fixture_6ent):
        g1, g2, _ = fixture_6ent
        graph, sens = prepare_graph(merge_pair(g1, g2), self_loops=False)
        for e in range(graph.num_entities):
            times = graph.time[graph.dst == e]
            expected = 1.0 - np.sum(times == UNKNOWN_TIME_ID) / len(times) if len(times) else 0.0
            assert sens[e] == expected

    def test_self_loops_do_not_dilute(self, time_index):
        quads = [quad(1, 0, 0, 2), quad(2, 0, 0, 3)]
        g = make_kg(3, 1, time_index, quads)
        merged = merge_pair(g, make_kg(3, 1, time_index, list(quads)))
        graph, sens = prepare_graph(merged, self_loops=True)
        assert sens[0] == 1.0
        assert np.array_equal(sens, prepare_graph(merged, self_loops=False)[1])
        # ...but over the rows with the self-loop, entity 0 would read 2/3
        rows_sens = time_sensitivity(graph.dst, graph.time, graph.num_entities)
        assert rows_sens[0] == pytest.approx(2.0 / 3.0)

    def test_only_self_loops_counts_as_zero(self, time_index):
        g = make_kg(3, 1, time_index, [quad(0, 0, 1, 2)])  # entity 2 has no facts
        _, sens = prepare_graph(merge_pair(g, make_kg(3, 1, time_index, [])), self_loops=True)
        assert sens[2] == 0.0


class TestPartition:
    def build_sensitivity(self):
        # entities 0,1: fully timed; entity 2: half timed; entity 3: untimed
        dst = np.array([0, 1, 2, 2, 3])
        time = np.array([2, 3, 4, UNKNOWN_TIME_ID, UNKNOWN_TIME_ID])
        return time_sensitivity(dst, time, 4)

    def test_both_must_clear_threshold(self):
        sens = self.build_sensitivity()
        pairs = np.array([[0, 1], [0, 3], [3, 1], [2, 3]])
        highly, lowly = partition_test_pairs(pairs, sens)
        assert highly.tolist() == [0]
        assert lowly.tolist() == [1, 2, 3]

    def test_exact_threshold_is_highly(self):
        sens = self.build_sensitivity()  # entity 2 sits exactly at 0.5
        assert sens[2] == 0.5
        highly, lowly = partition_test_pairs(np.array([[2, 2], [2, 3]]), sens)
        assert highly.tolist() == [0]
        assert lowly.tolist() == [1]

    def test_partition_covers_exactly(self, rng):
        sens = self.build_sensitivity()
        pairs = rng.integers(0, 4, size=(20, 2))
        highly, lowly = partition_test_pairs(pairs, sens)
        merged = sorted(highly.tolist() + lowly.tolist())
        assert merged == list(range(20))

    def test_empty_pairs(self):
        highly, lowly = partition_test_pairs(
            np.empty((0, 2), dtype=np.int64), self.build_sensitivity())
        assert highly.size == 0 and lowly.size == 0
        assert highly.dtype == lowly.dtype == np.int64
