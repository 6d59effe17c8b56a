"""Loss pieces, negative sampling, and the training loop."""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgalign import autodiff as ad
from tkgalign import model as model_module
from tkgalign.checkpoint import meta_from_result, save_checkpoint
from tkgalign.errors import ConfigError, NonFiniteError, TrainingDivergedError
from tkgalign.experiments import SENSITIVITY_GAP
from tkgalign.forge import ForgeSpec, synth_tkg
from tkgalign.tkg import UNKNOWN_TIME_ID, merge_pair
from tkgalign.model import ModelConfig, init_params, model_forward, prepare_graph, table_sizes
from tkgalign.train import (
    MODES,
    TrainConfig,
    apply_time_unaware,
    build_graph,
    default_negatives,
    l1_rows,
    margin_loss,
    sample_negatives,
    score_model,
    train,
)

from test_autodiff import backward_keeping_tape, copying_accumulate, tape_order


class TestL1:
    def test_identical_is_zero(self, rng):
        x = rng.normal(size=(3, 8))
        assert np.all(l1_rows(ad.leaf(x), ad.leaf(x.copy())).data == 0.0)

    def test_simple_pair(self):
        rows = l1_rows(ad.leaf(np.array([[1.0, 2.0]])), ad.leaf(np.zeros((1, 2)))).data
        assert rows.tolist() == [3.0]

    def test_matches_naive_loop(self, rng):
        x, y = rng.normal(size=(1, 30)), rng.normal(size=(1, 30))
        naive = sum(abs(a - b) for a, b in zip(x[0], y[0]))
        assert l1_rows(ad.leaf(x), ad.leaf(y)).data[0] == pytest.approx(naive, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l1_rows(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((2, 4))))

    def test_tape_version_agrees(self, rng):
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        rows = l1_rows(ad.leaf(a), ad.leaf(b)).data
        for i in range(4):
            assert rows[i] == pytest.approx(np.abs(a[i] - b[i]).sum(), abs=1e-12)


class TestSampleNegatives:
    def test_forced_choice_with_two_candidates(self):
        pairs = np.array([[0, 5]])
        for s in range(10):
            _, neg_tgt = sample_negatives(
                pairs, 1, (0, 4), (4, 6), np.random.default_rng(s)
            )
            assert neg_tgt[0, 0] == 4  # only non-gold target available

    def test_gold_never_drawn(self, rng):
        pairs = np.array([[2, 7], [0, 9]])
        neg_src, neg_tgt = sample_negatives(pairs, 500, (0, 5), (5, 10), rng)
        assert not np.any(neg_tgt[0] == 7)
        assert not np.any(neg_tgt[1] == 9)
        assert not np.any(neg_src[0] == 2)
        assert not np.any(neg_src[1] == 0)

    def test_ranges_respected(self, rng):
        pairs = np.array([[1, 6]])
        neg_src, neg_tgt = sample_negatives(pairs, 200, (0, 5), (5, 10), rng)
        assert np.all((neg_src >= 0) & (neg_src < 5))
        assert np.all((neg_tgt >= 5) & (neg_tgt < 10))

    def test_uniform_over_complement(self):
        """Chi-square on 10^4 draws over 4 allowed candidates."""
        pairs = np.array([[0, 7]])
        _, neg_tgt = sample_negatives(
            pairs, 10_000, (0, 5), (5, 10), np.random.default_rng(17)
        )
        counts = np.bincount(neg_tgt[0] - 5, minlength=5)
        assert counts[2] == 0  # gold 7
        expected = 10_000 / 4
        chi2 = float(((counts[[0, 1, 3, 4]] - expected) ** 2 / expected).sum())
        # 3 degrees of freedom; 3-sigma-ish bound
        assert chi2 < 16.3

    def test_degenerate_range_rejected(self, rng):
        with pytest.raises(ConfigError):
            sample_negatives(np.array([[0, 1]]), 1, (0, 1), (1, 3), rng)

    def test_eta_zero_rejected(self, rng):
        with pytest.raises(ConfigError):
            sample_negatives(np.array([[0, 1]]), 0, (0, 2), (2, 4), rng)

    def test_default_eta_formula(self):
        assert default_negatives(9517, 9537, 1000) == 20
        assert default_negatives(10, 10, 3) == 7

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 8), st.integers(1, 5))
    def test_never_gold_property(self, seed, n_tgt, eta):
        gen = np.random.default_rng(seed)
        gold_tgt = int(gen.integers(10, 10 + n_tgt))
        pairs = np.array([[0, gold_tgt]])
        _, neg_tgt = sample_negatives(pairs, eta, (0, 5), (10, 10 + n_tgt), gen)
        assert not np.any(neg_tgt == gold_tgt)
        assert np.all((neg_tgt >= 10) & (neg_tgt < 10 + n_tgt))


class TestMarginLoss:
    def rep_matrix(self):
        # hand-chosen rows so L1 distances are easy to read off
        return np.array(
            [
                [0.0, 0.0],  # 0: source
                [1.0, 0.0],  # 1: gold target, d(0,1) = 1
                [3.0, 0.0],  # 2: far negative, d(0,2) = 3
                [1.0, 1.0],  # 3: near negative, d(0,3) = 2
            ]
        )

    def loss_for(self, neg_id, margin):
        reps = ad.leaf(self.rep_matrix())
        pairs = np.array([[0, 1]])
        neg_tgt = np.array([[neg_id]])
        neg_src = np.array([[neg_id]])
        return float(margin_loss(reps, pairs, neg_src, neg_tgt, margin).data)

    def test_satisfied_margin_contributes_zero(self):
        # d_pos 1, d_neg(0,2) 3, margin 1 -> hinge 0 for the target side;
        # source side corrupts pair (2,1): d = 2 >= 1+1 -> 0 as well
        assert self.loss_for(2, 1.0) == 0.0

    def test_tight_margin_contributes_difference(self):
        # target side: d(0,3)=2, hinge = 1+1-2 = 0; source side: d(3,1)=1,
        # hinge = 1+1-1 = 1
        assert self.loss_for(3, 1.0) == pytest.approx(1.0)

    def test_matches_enumerated_sum(self, rng):
        reps_data = rng.normal(size=(8, 5))
        pairs = np.array([[0, 4], [1, 5]])
        neg_tgt = np.array([[6, 7], [6, 5]])
        neg_src = np.array([[2, 3], [0, 2]])
        margin = 0.7
        got = float(margin_loss(ad.leaf(reps_data), pairs, neg_src, neg_tgt, margin).data)
        want = 0.0
        for p, (s, t) in enumerate(pairs):
            d_pos = np.abs(reps_data[s] - reps_data[t]).sum()
            for n in neg_tgt[p]:
                want += max(0.0, d_pos + margin - np.abs(reps_data[s] - reps_data[n]).sum())
            for n in neg_src[p]:
                want += max(0.0, d_pos + margin - np.abs(reps_data[n] - reps_data[t]).sum())
        assert got == pytest.approx(want, rel=1e-12)

    def test_nonnegative_even_with_zero_margin(self, rng):
        reps = ad.leaf(rng.normal(size=(6, 4)))
        pairs = np.array([[0, 3], [1, 4]])
        neg_tgt = np.array([[5], [5]])
        neg_src = np.array([[2], [2]])
        assert float(margin_loss(reps, pairs, neg_src, neg_tgt, 0.0).data) >= 0.0

    def test_gradient_against_finite_differences(self, rng):
        reps_data = rng.normal(size=(6, 4))
        pairs = np.array([[0, 3], [1, 4]])
        neg_tgt = np.array([[5], [2]])
        neg_src = np.array([[2], [5]])

        def loss_value():
            return float(
                margin_loss(ad.leaf(reps_data), pairs, neg_src, neg_tgt, 1.0).data
            )

        t = ad.leaf(reps_data)
        root = margin_loss(t, pairs, neg_src, neg_tgt, 1.0)
        ad.backward(root)
        flat = reps_data.reshape(-1)
        step = 1e-6
        for c in range(flat.size):
            saved = flat[c]
            flat[c] = saved + step
            up = loss_value()
            flat[c] = saved - step
            down = loss_value()
            flat[c] = saved
            fd = (up - down) / (2 * step)
            a = t.grad.reshape(-1)[c]
            assert abs(a - fd) / max(abs(a), abs(fd), 1e-8) < 1e-5


def composed_loss(x, pairs, neg_src, neg_tgt, margin):
    """The hinge loss written out op by op in numpy: L1 rows per direction,
    ReLU, each direction summed, then the two sums added."""
    src, tgt = pairs[:, 0], pairs[:, 1]
    eta = neg_tgt.shape[1]
    d_pos = np.abs(x[src] - x[tgt]).sum(axis=1)[np.repeat(np.arange(len(pairs)), eta)]
    d_neg_tgt = np.abs(x[np.repeat(src, eta)] - x[neg_tgt.reshape(-1)]).sum(axis=1)
    d_neg_src = np.abs(x[neg_src.reshape(-1)] - x[np.repeat(tgt, eta)]).sum(axis=1)
    sums = []
    for d_neg in (d_neg_tgt, d_neg_src):
        h = (d_pos - d_neg) + margin
        sums.append(np.where(h > 0, h, 0).sum())
    return sums[0] + sums[1]


def loop_gradient(x, pairs, neg_src, neg_tgt, margin):
    """The loss gradient hinge by hinge: every active hinge adds +-1 sign
    terms to the four rows it reads."""
    grad = np.zeros_like(x)
    for p, (s, t) in enumerate(pairs):
        corrupted = [(s, n) for n in neg_tgt[p]] + [(n, t) for n in neg_src[p]]
        for a, b in corrupted:
            d_pos = np.abs(x[s] - x[t]).sum()
            d_neg = np.abs(x[a] - x[b]).sum()
            if (d_pos - d_neg) + margin > 0:
                grad[s] += np.sign(x[s] - x[t])
                grad[t] -= np.sign(x[s] - x[t])
                grad[a] -= np.sign(x[a] - x[b])
                grad[b] += np.sign(x[a] - x[b])
    return grad


def oracle_cases():
    """(reps, pairs, neg_src, neg_tgt, margin) per named case."""
    gen = np.random.default_rng(5)
    pairs = np.array([[0, 4], [1, 5]])
    return {
        # 5 is pair 1's target and a negative of pair 0; pair 1 repeats 6
        "shared-and-repeated": (gen.normal(size=(8, 5)), pairs,
                                np.array([[2, 1], [3, 3]]), np.array([[5, 7], [6, 6]]), 0.7),
        # small integers: many zero-difference coordinates and exact ties
        "zero-differences": (gen.integers(-1, 2, size=(8, 5)).astype(float), pairs,
                             np.array([[2, 3], [0, 2]]), np.array([[6, 7], [4, 5]]), 1.0),
        # negatives far from every positive: no hinge is active
        "all-inactive": (np.concatenate([np.zeros((6, 3)), np.full((2, 3), 9.0)]), pairs,
                         np.array([[6, 7], [7, 6]]), np.array([[6, 7], [7, 7]]), 1.0),
        "eta-1-margin-0": (gen.normal(size=(6, 4)), np.array([[0, 3], [1, 4], [2, 5]]),
                           np.array([[1], [2], [0]]), np.array([[4], [5], [3]]), 0.0),
    }


def exactly_equal(got, want):
    """Same dtype and the same value in every entry. The sign of a zero is
    free: the tape sums +-0.0 terms where the loop starts from +0.0."""
    return got.dtype == want.dtype and np.array_equal(got, want)


class TestMarginLossOracle:
    """The loss against the composed formula (value, bit for bit) and a loop
    over every hinge (gradient, exact integer sums)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(oracle_cases()))
    def test_bitwise_against_composed_loss_and_hinge_loop(self, case, dtype):
        x, *args = oracle_cases()[case]
        x = x.astype(dtype)
        reps = ad.leaf(x.copy())
        loss = margin_loss(reps, *args)
        assert loss.data.dtype == dtype
        assert loss.data.tobytes() == composed_loss(x, *args).tobytes()
        ad.backward(loss)
        assert exactly_equal(reps.grad, loop_gradient(x, *args))
        if case == "all-inactive":
            assert float(loss.data) == 0.0 and not reps.grad.any()
        if case == "zero-differences":
            pairs = args[0]
            assert (x[pairs[:, 0]] == x[pairs[:, 1]]).any() and reps.grad.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_batches_bitwise(self, dtype):
        gen = np.random.default_rng(9)
        for _ in range(20):
            k, num_pos, eta = (int(v) for v in gen.integers(1, [7, 5, 6]))
            x = gen.normal(size=(12, k)).astype(dtype)
            pairs = gen.integers(0, 12, size=(num_pos, 2))
            neg_src, neg_tgt = gen.integers(0, 12, size=(2, num_pos, eta))
            args = (pairs, neg_src, neg_tgt, float(gen.choice([0.0, 0.5, 2.0])))
            reps = ad.leaf(x.copy())
            loss = margin_loss(reps, *args)
            assert loss.data.tobytes() == composed_loss(x, *args).tobytes()
            ad.backward(loss)
            assert exactly_equal(reps.grad, loop_gradient(x, *args))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_over_draws(self, dtype):
        """Several negative draws over pairs with repeated ids: each loss
        groups its own block-local columns and keeps the composed value and
        the hinge loop's gradient."""
        gen = np.random.default_rng(13)
        x = gen.normal(size=(16, 6)).astype(dtype)
        pairs = np.array([[0, 8], [1, 9], [2, 10], [3, 8], [1, 11]])  # repeated ids
        eta = 3
        for margin in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            neg_src, neg_tgt = sample_negatives(pairs, eta, (0, 8), (8, 16), gen)
            args = (pairs, neg_src, neg_tgt, margin)
            reps = ad.leaf(x.copy())
            loss = margin_loss(reps, *args)
            assert loss.data.tobytes() == composed_loss(x, *args).tobytes()
            ad.backward(loss)
            assert exactly_equal(reps.grad, loop_gradient(x, *args))

    def test_hinges_are_one_node_over_one_blocked_l1_node(self):
        x, *args = oracle_cases()["shared-and-repeated"]
        pairs, neg_src, _, _ = args
        reps = ad.leaf(x)
        loss = margin_loss(reps, *args)
        (d,) = loss.parents
        assert loss.data.shape == ()
        assert d.data.shape == (len(pairs) + 2 * neg_src.size,)
        # the gathers, difference, |.| and row sum of every block sit inside the
        # one by_blocks node, which reads reps alone: loss, distances and reps
        assert d.parents == (reps,)
        assert len(tape_order(loss)) == 3


def sealed_directions_loss(reps, pairs, neg_src, neg_tgt, margin):
    """The loss as it was before it ran by row blocks: each corruption
    direction's L1 chain is one sealed node over the whole of ``reps`` (a
    one-block ``by_blocks``), the P positive distances then the P*eta target
    corruptions in one, the P*eta source corruptions in the other, and the
    hinges one node over both."""
    pairs = np.asarray(pairs)
    num_pos, eta = neg_tgt.shape
    src, tgt = pairs[:, 0], pairs[:, 1]

    def sealed_l1(left, right):
        columns = ad.Grouping(left), ad.Grouping(right)
        return ad.by_blocks(lambda _, r, replay: l1_rows(ad.gather_rows(r, columns[0]),
                                                         ad.gather_rows(r, columns[1])),
                            [(0, None)], len(left), reps)

    d_t = sealed_l1(np.concatenate([src, np.repeat(src, eta)]),
                    np.concatenate([tgt, neg_tgt.reshape(-1)]))
    d_s = sealed_l1(neg_src.reshape(-1), np.repeat(tgt, eta))
    d_pos = d_t.data[:num_pos]
    d_neg = np.concatenate([d_t.data[num_pos:], d_s.data])
    hinge = (np.tile(np.repeat(d_pos, eta), 2) - d_neg) + margin
    active = hinge > 0
    hinge = np.where(active, hinge, 0)
    loss = hinge[:num_pos * eta].sum() + hinge[num_pos * eta:].sum()
    uses = active.reshape(2, num_pos, eta).sum(axis=(0, 2))

    def bw(g):
        grad = np.empty(num_pos + len(active), dtype=d_t.dtype)
        grad[:num_pos] = uses
        grad[num_pos:] = np.where(active, -1, 0)
        grad *= g
        split = num_pos * (1 + eta)
        d_t.accumulate(grad[:split])
        d_s.accumulate(grad[split:])

    return ad.Tensor(np.asarray(loss), (d_t, d_s), bw)


class TestBlockedLoss:
    """The loss by row blocks against its two sealed directions, bit for
    bit, at every block size from one row to all of them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(oracle_cases()))
    def test_bitwise_against_sealed_directions_at_every_block_size(self, case, dtype,
                                                                   monkeypatch):
        x, *args = oracle_cases()[case]
        x = x.astype(dtype)
        pairs, neg_src = args[0], args[1]
        total = len(pairs) + 2 * neg_src.size
        want_reps = ad.leaf(x.copy())
        want = sealed_directions_loss(want_reps, *args)
        ad.backward(want)
        for rows in range(1, total + 1):
            monkeypatch.setattr(model_module, "BLOCK_BYTES", rows * x.shape[1] * x.itemsize)
            reps = ad.leaf(x.copy())
            loss = margin_loss(reps, *args)
            assert loss.data.tobytes() == want.data.tobytes(), rows
            ad.backward(loss)
            assert reps.grad.tobytes() == want_reps.grad.tobytes(), rows

    def test_blocks_read_only_their_rows(self, monkeypatch):
        """Two rows per block: each block's stand-in holds the distinct rows
        of ``reps`` that its two columns name, and the rerun ones again."""
        x, pairs, neg_src, neg_tgt, margin = oracle_cases()["shared-and-repeated"]
        monkeypatch.setattr(model_module, "BLOCK_BYTES", 2 * x.shape[1] * x.itemsize)
        src, tgt = pairs[:, 0], pairs[:, 1]
        eta = neg_tgt.shape[1]
        left = np.concatenate([src, np.repeat(src, eta), neg_src.reshape(-1)])
        right = np.concatenate([tgt, neg_tgt.reshape(-1), np.repeat(tgt, eta)])
        held = []
        gather = ad.gather_rows

        def recording(a, runs):
            held.append((a.data.copy(), runs.index))
            return gather(a, runs)

        monkeypatch.setattr(ad, "gather_rows", recording)
        loss = margin_loss(ad.leaf(x), pairs, neg_src, neg_tgt, margin)
        ad.backward(loss)
        blocks = [(lo, lo + 2) for lo in range(0, len(left), 2)]
        order = blocks + blocks[-2::-1]  # the forward, then the reruns last to first
        assert len(held) == 2 * len(order)
        for (lo, hi), (a_left, i_left), (a_right, i_right) in zip(order, held[::2], held[1::2]):
            rows = np.unique(np.concatenate([left[lo:hi], right[lo:hi]]))
            assert a_left.tobytes() == a_right.tobytes() == x[rows].tobytes()
            assert rows[i_left].tolist() == left[lo:hi].tolist()
            assert rows[i_right].tolist() == right[lo:hi].tolist()


class TestApplyTimeUnaware:
    def graph(self, pair):
        g1, g2, _ = pair
        graph, _ = prepare_graph(merge_pair(g1, g2), self_loops=True)
        return graph

    def test_all_times_become_unknown(self, fixture_6ent):
        blanked = apply_time_unaware(self.graph(fixture_6ent))
        assert np.all(blanked.time == UNKNOWN_TIME_ID)

    def test_structure_preserved(self, fixture_6ent):
        graph = self.graph(fixture_6ent)
        real_times = graph.time.copy()
        blanked = apply_time_unaware(graph)
        assert blanked.num_entities == graph.num_entities
        assert blanked.num_links == graph.num_links
        for name in ("src", "dst", "rel"):
            assert np.array_equal(getattr(blanked, name), getattr(graph, name))
        assert np.array_equal(graph.time, real_times)  # the input is not modified

    def test_idempotent(self, fixture_6ent):
        once = apply_time_unaware(self.graph(fixture_6ent))
        twice = apply_time_unaware(once)
        for name in ("src", "dst", "rel", "time"):
            assert np.array_equal(getattr(once, name), getattr(twice, name))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.dim, cfg.lr, cfg.num_layers, cfg.margin, cfg.dropout) == (
            100, 0.005, 2, 1.0, 0.3,
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="clairvoyant")

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(margin=-0.5)

    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_k_csls_rejected(self, k):
        with pytest.raises(ConfigError, match="k_csls"):
            TrainConfig(k_csls=k)

    @pytest.mark.parametrize("key, value, message", [
        ("margin", float("nan"), "margin must be finite and >= 0, got nan"),
        ("margin", float("inf"), "margin must be finite and >= 0, got inf"),
        ("lr", float("nan"), "lr must be finite and positive, got nan"),
        ("lr", float("inf"), "lr must be finite and positive, got inf"),
        ("lr", 0.0, "lr must be finite and positive, got 0.0"),
        ("lr", 2 ** 1024, f"lr must be finite and positive, got {2 ** 1024}"),
        ("margin", -2 ** 1024, f"margin must be finite and >= 0, got {-2 ** 1024}"),
    ], ids=["margin-nan", "margin-inf", "lr-nan", "lr-inf", "lr-zero", "lr-huge-int",
            "margin-huge-int"])
    def test_non_finite_or_out_of_range_float_rejected(self, key, value, message):
        with pytest.raises(ConfigError) as err:
            TrainConfig(**{key: value})
        assert str(err.value) == message

    def test_integer_floats_checked_as_the_float_they_convert_to(self):
        """An integer past 64 bits is a float setting like any other as long as
        it converts to a float: up to the largest float, 2**1024 - 2**971."""
        cfg = TrainConfig(lr=10 ** 20, margin=2 ** 1024 - 2 ** 971)
        assert (float(cfg.lr), float(cfg.margin)) == (1e20, np.finfo(np.float64).max)

    def test_patience_without_eval_every_rejected(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig(patience=1, epochs=6)
        assert str(err.value) == "patience needs eval_every > 0: early stopping counts evals"
        assert TrainConfig(patience=1, eval_every=2).patience == 1

    @pytest.mark.parametrize("key, value, message", [
        ("dim", 0, "embedding dim must be >= 1, got 0"),
        ("num_layers", -1, "layer count must be >= 0, got -1"),
        ("dropout", 1.0, "dropout must be in [0, 1), got 1.0"),
        ("precision", "f16", "precision must be one of ['f32', 'f64'], got 'f16'"),
    ], ids=["dim", "num_layers", "dropout", "precision"])
    def test_model_settings_checked_when_built(self, key, value, message):
        """The model's own checks run when the config is built, not when it is used."""
        with pytest.raises(ConfigError) as err:
            TrainConfig(**{key: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("key, name", [
        ("dim", "embedding dim"),
        ("num_layers", "layer count"),
        ("negatives_per_positive", "negatives_per_positive"),
    ], ids=["dim", "num_layers", "negatives_per_positive"])
    def test_counts_must_fit_64_bits(self, key, name):
        """Checked on the config alone: no table or forward is built here."""
        for value in (2 ** 63, 10 ** 20):
            with pytest.raises(ConfigError) as err:
                TrainConfig(**{key: value})
            assert str(err.value) == f"{name} must be below 2**63, got {value}"
        assert getattr(TrainConfig(**{key: 2 ** 63 - 1}), key) == 2 ** 63 - 1

    def test_extends_model_config_without_redeclaring_it(self):
        """The architecture settings are declared once, in ModelConfig; a run's
        config is itself the model config it hands to the model."""
        cfg = TrainConfig()
        assert isinstance(cfg, ModelConfig)
        assert cfg.model_config() is cfg
        inherited = {f.name for f in dataclasses.fields(ModelConfig)}
        assert not inherited & set(inspect.get_annotations(TrainConfig))


class TestTrainLoop:
    def small_config(self, **kw):
        base = dict(
            dim=6, num_layers=2, epochs=60, dropout=0.3, lr=0.01,
            seed=0, precision="f64", eval_every=0,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_loss_decreases_on_toy_fixture(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        result = train(g1, g2, seeds, self.small_config(epochs=200))
        losses = result.report.losses
        assert len(losses) == 200
        assert losses[-1] < losses[0]
        # monotone trend, not strict monotonicity: compare decade means
        first, last = np.mean(losses[:20]), np.mean(losses[-20:])
        assert last < first

    def test_losses_finite_and_nonnegative(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        result = train(g1, g2, seeds, self.small_config())
        losses = np.array(result.report.losses)
        assert np.all(np.isfinite(losses))
        assert np.all(losses >= 0.0)

    def test_same_seed_identical_report(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        cfg = self.small_config(epochs=40)
        a = train(g1, g2, seeds, cfg)
        b = train(g1, g2, seeds, cfg)
        assert a.report.fingerprint() == b.report.fingerprint()
        for name, t in a.store.items():
            assert np.array_equal(t.data, b.store[name].data)

    def test_different_seed_differs(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        a = train(g1, g2, seeds, self.small_config(epochs=10, seed=0))
        b = train(g1, g2, seeds, self.small_config(epochs=10, seed=1))
        assert a.report.fingerprint() != b.report.fingerprint()

    def test_attention_sums_hold_every_epoch(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        result = train(g1, g2, seeds, self.small_config(epochs=30))
        assert len(result.report.attention_deviations) == 30
        assert max(result.report.attention_deviations) < 1e-6

    def test_time_unaware_mode_blanks_the_graph(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        result = train(
            g1, g2, seeds, self.small_config(epochs=2, mode="time-unaware")
        )
        assert np.all(result.graph.time == UNKNOWN_TIME_ID)
        # the sensitivity still comes from the real timestamps
        _, real = prepare_graph(merge_pair(g1, g2), self_loops=True)
        assert np.array_equal(result.index, real)
        assert np.any(result.index > 0.0)

    def test_divergence_aborts_with_last_good_state(self, fixture_6ent):
        # The optimizer normalizes step sizes, so a merely large lr walks the
        # parameters linearly instead of exploding them.  An lr near the f32
        # ceiling overflows the forward pass itself on the step after the
        # first update, which is the path we want: a non-finite *loss*, not a
        # non-finite gradient (the optimizer guards that separately).
        g1, g2, seeds = fixture_6ent
        cfg = self.small_config(epochs=50, lr=1e37, dropout=0.0, precision="f32")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as exc:
                train(g1, g2, seeds, cfg)
        assert exc.value.epoch > 0

    def test_eval_history_and_early_stop(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        cfg = self.small_config(epochs=50, eval_every=5, patience=2)
        result = train(g1, g2, seeds, cfg)
        assert result.report.eval_history
        for entry in result.report.eval_history:
            assert set(entry) == {"mrr", "hits1", "hits10", "epoch"}
        if result.report.stopped_early:
            assert len(result.report.losses) < 50
        assert len(result.report.epoch_seconds) == len(result.report.losses)

    def test_history_rows_shape(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        cfg = self.small_config(epochs=10, eval_every=4)
        result = train(g1, g2, seeds, cfg)
        rows = result.report.history_rows()
        assert rows[0] == "epoch,loss,mrr,hits1,hits10"
        assert len(rows) == 1 + 10
        # epochs 0, 4, 8 and the final epoch carry metrics
        assert rows[1].split(",")[2] != ""
        assert rows[2].split(",")[2] == ""

    @pytest.mark.parametrize("eta", [0, 3], ids=["derived-eta", "fixed-eta"])
    def test_no_seed_pairs_rejected_before_any_epoch(self, fixture_6ent, eta, monkeypatch):
        g1, g2, seeds = fixture_6ent
        no_seeds = dataclasses.replace(seeds, train_pairs=[])
        monkeypatch.setattr("tkgalign.train.model_forward",
                            lambda *a, **k: pytest.fail("trained without seed pairs"))
        with pytest.raises(ConfigError, match="need at least one seed pair to train"):
            train(g1, g2, no_seeds, self.small_config(negatives_per_positive=eta))

    def test_eval_without_test_pairs_rejected_before_any_epoch(self, fixture_6ent,
                                                               monkeypatch):
        g1, g2, seeds = fixture_6ent
        no_tests = dataclasses.replace(seeds, test_pairs=[])
        monkeypatch.setattr("tkgalign.train.model_forward",
                            lambda *a, **k: pytest.fail("trained without test pairs to score"))
        with pytest.raises(ConfigError, match="eval_every needs at least one test pair"):
            train(g1, g2, no_tests, self.small_config(eval_every=1))

    def test_zero_epochs_returns_initial_params(self, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        result = train(g1, g2, seeds, self.small_config(epochs=0))
        assert result.report.losses == []
        assert result.store.num_scalars() > 0

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("mode", MODES)
    def test_inert_attention_entries_keep_their_initial_bits(self, fixture_6ent, mode,
                                                             precision):
        """The first k entries of every attention vector weight the destination
        term that the logit leaves out: their gradient is exactly zero, so
        RMSprop never moves them, while the other 2k train."""
        g1, g2, seeds = fixture_6ent
        cfg = self.small_config(epochs=30, mode=mode, precision=precision)
        initial = train(g1, g2, seeds, dataclasses.replace(cfg, epochs=0)).store
        trained = train(g1, g2, seeds, cfg).store
        k = cfg.dim
        names = [name for name, _ in trained.items() if name.startswith("attn_")]
        assert len(names) == 2 * cfg.num_layers
        for name in names:
            before, after = initial[name].data, trained[name].data
            assert after[:k].tobytes() == before[:k].tobytes(), name
            assert not np.array_equal(after[k:], before[k:]), name


class TestModelTapeOwnership:
    @pytest.mark.parametrize("self_loops", [True, False], ids=["loops", "no-loops"])
    @pytest.mark.parametrize("mode", MODES)
    def test_gradients_match_copying_reference_without_aliasing(
        self, fixture_6ent, mode, self_loops, monkeypatch
    ):
        """One model forward and loss backward keeps gradients without copies
        and releases every interior value, yet every parameter gradient is
        bitwise what copying every first contribution and keeping every
        value gives, and no two gradients share memory."""
        g1, g2, seeds = fixture_6ent
        merged = merge_pair(g1, g2)
        cfg = TrainConfig(dim=5, num_layers=2, precision="f64", mode=mode,
                          self_loops=self_loops)
        graph, _ = build_graph(merged, cfg)
        pairs = merged.merged_pairs(seeds.train_pairs)
        tgt_range = (merged.entity_offset, merged.entity_offset + g2.num_entities)

        def parameter_grads(run_backward):
            rng = np.random.default_rng(7)
            store = init_params(rng, *table_sizes(merged, self_loops), cfg)
            neg_src, neg_tgt = sample_negatives(pairs, 3, (0, g1.num_entities), tgt_range, rng)
            reps = model_forward(store, graph, cfg, training=True, rng=rng)
            loss = margin_loss(reps, pairs, neg_src, neg_tgt, cfg.margin)
            interior = [n for n in tape_order(loss) if n.backward_fn is not None and n is not loss]
            run_backward(loss)
            return store, {name: t.grad for name, t in store.items()}, interior

        store, got, released = parameter_grads(ad.backward)
        monkeypatch.setattr(ad.Tensor, "accumulate", copying_accumulate)
        _, want, kept = parameter_grads(backward_keeping_tape)

        # the two normalized tables, two dropouts, one node per layer and one for the
        # time mean (each reruns its blocks on a tape of its own), the concatenation
        # and the loss's one node of L1 blocks; 10 while the loss sealed each
        # direction's L1 chain apart, 41 while every per-link op of the layers was on
        # this tape, 44 before the loss sealed each direction's L1 chain
        assert len(released) == len(kept) == 9
        assert all(n.data is None for n in released)
        assert all(n.data is not None for n in kept)

        assert got.keys() == want.keys()
        for name, grad in got.items():
            assert grad is not None, name
            assert grad.dtype == want[name].dtype and grad.shape == want[name].shape
            assert grad.tobytes() == want[name].tobytes(), name
        arrays = list(got.values()) + [t.data for _, t in store.items()]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


def traced_peak(fn):
    """``fn()`` and the peak bytes that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryRatchet:
    """Peak traced memory in units of one f32 (links x dim) array, on a forged
    pair of 20,999 links at dim 64 (below dim ~64 the tables and index arrays
    weigh more per link); the loss alone in its own unit, at its own shape.
    A change that lowers a peak lowers its bound with it; one that has to
    raise a bound says why."""

    TRAINING_EPOCH = 4.1  # measured 3.82 (6 blocks, each layer keeping its last block's
    # tape, the loss by row blocks); 5.92 while the loss sealed each corruption
    # direction over all its rows, 14.39 while training ran the whole graph on its
    # tape, 16.92 before the loss sealed each direction's L1 chain, 22.92 before each
    # layer's weighted sum was sealed, 23.06 with the destination term, 29.02 while
    # the tape kept every value
    INFERENCE_FORWARD = 2.1  # measured 1.85; 7.29 before it ran one block of destination
    # entities at a time, 7.84 before the layer dropped its gathered rows ahead of the
    # weighted sum
    LOSS = 2.8  # measured 2.41, and 2.56 at 4x eta; 6.06 while each corruption
    # direction's L1 chain was one sealed block over all its rows, 10.11 while one
    # unsealed L1 chain held both directions

    @pytest.fixture(scope="class")
    def pair(self):
        res = synth_tkg(ForgeSpec(entities=1500, relations=20, time_steps=200,
                                  quads_per_entity=4, seed_count=300, seed=1))
        return res.g1, res.g2, res.seeds

    def test_one_training_epoch(self, pair):
        cfg = TrainConfig(dim=64, num_layers=2, epochs=1, seed=0)
        result, peak = traced_peak(lambda: train(*pair, cfg))
        assert result.graph.num_links == 20_999
        assert peak <= self.TRAINING_EPOCH * result.graph.num_links * cfg.dim * 4

    def test_inference_forward(self, pair):
        cfg = TrainConfig(dim=64, num_layers=2, epochs=0, seed=0)
        result = train(*pair, cfg)
        with ad.no_tape():
            reps, peak = traced_peak(lambda: model_forward(result.store, result.graph, cfg))
        assert reps.shape == (result.graph.num_entities, 4 * cfg.dim)
        assert peak <= self.INFERENCE_FORWARD * result.graph.num_links * cfg.dim * 4

    def loss_peak(self, eta):
        """The loss's forward and backward at perfbench train-wide-tu's shape
        (3000 entities, 30 seed pairs, f32 rows 400 wide) with ``eta``
        corruptions per pair: its tracemalloc peak in bytes."""
        gen = np.random.default_rng(0)
        num_pos, width = 30, 400
        reps = ad.leaf(gen.normal(size=(3000, width)).astype(np.float32))
        pairs = np.stack([np.arange(num_pos), 1500 + np.arange(num_pos)], axis=1)
        neg_src, neg_tgt = sample_negatives(pairs, eta, (0, 1500), (1500, 3000), gen)

        def loss_and_backward():
            loss = margin_loss(reps, pairs, neg_src, neg_tgt, 3.0)
            ad.backward(loss)
            return loss

        loss, peak = traced_peak(loss_and_backward)
        assert loss.data > 0 and reps.grad.any()
        return peak

    def test_margin_loss_at_the_wide_shape(self):
        """In units of one corruption direction's (P*eta x width) array at eta
        101; the 3000 x 400 gradient of ``reps`` is one such unit."""
        assert self.loss_peak(101) <= self.LOSS * 30 * 101 * 400 * 4

    def test_margin_loss_peak_does_not_grow_with_eta(self):
        """At 4x eta the loss still holds one block's arrays at a time: its
        peak stays within the bound at eta 101, in the same bytes."""
        assert self.loss_peak(4 * 101) <= self.LOSS * 30 * 101 * 400 * 4


class TestTapeRatchet:
    """One training epoch on the sensitivity-gap experiment's forged pair at
    dim 25 with 2 layers (acceptance criterion 8's shape, where per-node
    Python overhead sets the epoch time), once the graph's column groupings
    exist: the tape nodes reachable from the loss, leaves included, and the
    groupings built. A change that removes nodes lowers the bound with it.
    Each layer, and the time mean, is one node here; its rule builds a tape
    per block (one block at this shape) and consumes it at once."""

    TAPE_NODES = 17  # 18 while the loss sealed each direction's L1 chain apart,
    # 49 while every per-link op of the layers was on this tape, 52 before the loss
    # sealed each direction's L1 chain, 58 before each layer's weighted sum was
    # sealed, 70 with the destination term; 82 while nu was cut into slices by gathers
    GROUPINGS = 2  # the loss's two block-local columns (one block at this shape); 2
    # while its two negative columns were grouped per epoch and the two fixed ones
    # once per run, 14 with the layers' gathers

    def test_one_training_epoch(self, monkeypatch):
        data = synth_tkg(SENSITIVITY_GAP.forge)
        cfg = SENSITIVITY_GAP.train
        assert (cfg.dim, cfg.num_layers) == (25, 2)
        merged = merge_pair(data.g1, data.g2)
        graph, _ = build_graph(merged, cfg)
        for name in ("by_src", "by_dst", "by_rel", "by_time"):
            getattr(graph, name)  # built once per graph, not per epoch
        rng = np.random.default_rng(0)
        store = init_params(rng, *table_sizes(merged, cfg.self_loops), cfg)
        pairs = merged.merged_pairs(data.seeds.train_pairs)
        eta = default_negatives(data.g1.num_entities, data.g2.num_entities, len(pairs))
        tgt_range = (merged.entity_offset, merged.entity_offset + data.g2.num_entities)
        neg_src, neg_tgt = sample_negatives(pairs, eta, (0, data.g1.num_entities), tgt_range, rng)

        built = []
        grouping_init = ad.Grouping.__init__

        def counting_init(grouping, index):
            built.append(index)
            grouping_init(grouping, index)

        monkeypatch.setattr(ad.Grouping, "__init__", counting_init)
        reps = model_forward(store, graph, cfg, training=True, rng=rng)
        loss = margin_loss(reps, pairs, neg_src, neg_tgt, cfg.margin)
        nodes = len(tape_order(loss))
        ad.backward(loss)
        assert nodes <= self.TAPE_NODES
        assert len(built) == self.GROUPINGS
        assert all(store[name].grad is not None for name, _ in store.items())

    def test_each_block_is_grouped_once_per_run(self, monkeypatch):
        """Three epochs, each validated, on blocks of at most 200 links: every
        block's four groupings, and its in-degree, are built once, when the
        first epoch's forward reaches it, and every later forward, rerun and
        validation reuses them."""
        data = synth_tkg(SENSITIVITY_GAP.forge)
        cfg = dataclasses.replace(SENSITIVITY_GAP.train, epochs=3, eval_every=1)
        monkeypatch.setattr(model_module, "BLOCK_BYTES", 200 * cfg.dim * 4)
        built, counted = [], []
        grouping_init = ad.Grouping.__init__
        in_degree = model_module.FlatGraph.in_degree.func

        def counting_init(grouping, index):
            built.append(index)
            grouping_init(grouping, index)

        def counting_in_degree(graph):
            counted.append(graph)
            return in_degree(graph)

        monkeypatch.setattr(ad.Grouping, "__init__", counting_init)
        cached = functools.cached_property(counting_in_degree)
        cached.__set_name__(model_module.FlatGraph, "in_degree")
        monkeypatch.setattr(model_module.FlatGraph, "in_degree", cached)
        result = train(data.g1, data.g2, data.seeds, cfg)
        blocks = [b for _, b in result.graph.blocks(200)]
        columns = [getattr(b, name) for b in blocks for name in ("src", "dst", "rel", "time")]
        assert len(blocks) > 4 and len(result.report.eval_history) == 3
        assert all(sum(index is c for index in built) == 1 for c in columns)
        assert len(counted) == len(blocks) and all(any(g is b for g in counted) for b in blocks)
        # beside them, the loss's two block-local columns per block and epoch: a
        # block of (rows, 4 * dim) f32 arrays holds a quarter of the layers' links
        eta = default_negatives(data.g1.num_entities, data.g2.num_entities,
                                len(data.seeds.train_pairs))
        loss_blocks = -(-len(data.seeds.train_pairs) * (1 + 2 * eta) // 50)
        assert len(built) == len(columns) + 2 * loss_blocks * cfg.epochs


class TestInferenceForward:
    def model(self, fixture, mode="time-aware"):
        g1, g2, seeds = fixture
        merged = merge_pair(g1, g2)
        cfg = TrainConfig(dim=5, num_layers=2, mode=mode)
        graph, _ = build_graph(merged, cfg)
        store = init_params(np.random.default_rng(3), *table_sizes(merged, cfg.self_loops), cfg)
        return store, graph, cfg, merged.merged_pairs(seeds.test_pairs)

    @pytest.mark.parametrize("mode", MODES)
    def test_forward_in_the_scope_keeps_no_tape_and_the_same_bits(self, fixture_6ent, mode):
        store, graph, cfg, _ = self.model(fixture_6ent, mode)
        taped = model_forward(store, graph, cfg)
        with ad.no_tape():
            bare = model_forward(store, graph, cfg)
        assert taped.parents and taped.backward_fn is not None
        assert bare.parents == () and bare.backward_fn is None
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_score_model_runs_its_forward_in_the_scope(self, fixture_6ent, monkeypatch):
        store, graph, cfg, pairs = self.model(fixture_6ent)
        seen = []

        def forward(*args, **kwargs):
            out = model_forward(*args, **kwargs)
            seen.append(out.backward_fn)
            return out

        monkeypatch.setattr("tkgalign.train.model_forward", forward)
        score_model(store, graph, cfg, pairs, spaces=("l1",))
        assert seen == [None]
        assert model_forward(store, graph, cfg).backward_fn is not None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_score_model_refuses_representations_it_cannot_score(self, fixture_6ent,
                                                                 monkeypatch, dtype):
        """A NaN, an infinity or a row whose L1 and CSLS scores could overflow is
        refused; a row of a sixteenth of the dtype's range in L1 norm is scored."""
        store, graph, cfg, pairs = self.model(fixture_6ent)
        top = np.finfo(dtype).max
        reps = np.zeros((graph.num_entities, 4), dtype=dtype)
        reps[0, 1], reps[2, 0], reps[3] = np.nan, -np.inf, top / 8
        monkeypatch.setattr("tkgalign.train.model_forward", lambda *a, **k: ad.leaf(reps))
        with pytest.raises(NonFiniteError) as err:
            score_model(store, graph, cfg, pairs, spaces=("l1", "csls"))
        assert str(err.value) == (f"the representations of 3 of {len(reps)} entities"
                                  " are not finite or too large to score")
        reps[:4] = 0
        reps[pairs[:, 1], :2] = top / 32  # L1 norm top / 16, the largest scored
        with np.errstate(all="raise"):
            reports = score_model(store, graph, cfg, pairs, spaces=("l1", "csls"))
        assert all(np.isfinite(r.mrr) for r in reports)

    def test_validation_mid_training_changes_no_bit(self, fixture_6ent, tmp_path, monkeypatch):
        g1, g2, seeds = fixture_6ent
        cfg = TrainConfig(dim=6, num_layers=2, epochs=12, dropout=0.3, lr=0.01,
                          eval_every=1, seed=0)

        def run(name):
            result = train(g1, g2, seeds, cfg)
            path = tmp_path / f"{name}.npz"
            save_checkpoint(path, result.store, meta_from_result(result))
            return result.report, hashlib.sha256(path.read_bytes()).hexdigest()

        lean, lean_sha = run("lean")
        monkeypatch.setattr(ad, "no_tape", contextlib.nullcontext)  # validation builds its tape
        taped, taped_sha = run("taped")
        assert len(lean.eval_history) == 12
        assert lean.fingerprint() == taped.fingerprint()
        assert lean_sha == taped_sha
