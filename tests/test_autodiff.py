"""Tape ops: values checked against hand math, gradients against finite differences."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from tkgalign import autodiff as ad
from tkgalign.errors import ConfigError, DegenerateEmbeddingError


def mul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Elementwise product: test scaffolding that weights an op's output."""
    a_val, b_val = a.data, b.data

    def bw(g):
        a.accumulate(g * b_val)
        b.accumulate(g * a_val)

    return ad.Tensor(a_val * b_val, (a, b), bw)


def sum_all(a: ad.Tensor) -> ad.Tensor:
    """A scalar root over every element; its backward hands on a read-only broadcast."""
    shape = a.shape

    def bw(g):
        a.accumulate(np.broadcast_to(g, shape))

    return ad.Tensor(np.asarray(a.data.sum()), (a,), bw)


def fd_grad(fn, arr: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Centered finite differences of scalar fn over every coordinate."""
    out = np.zeros_like(arr)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        out.reshape(-1)[i] = (hi - lo) / (2.0 * step)
    return out


def check_grads(build, *arrays, step=1e-6, tol=1e-7):
    """build(*tensors) -> scalar Tensor; compare each input's gradient."""
    tensors = [ad.leaf(a) for a in arrays]
    root = build(*tensors)
    ad.backward(root)
    for t, a in zip(tensors, arrays):
        fd = fd_grad(lambda: float(build(*[ad.leaf(x) for x in arrays]).data), a, step)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(fd)), 1e-8)
        worst = np.max(np.abs(t.grad - fd) / denom)
        assert worst < tol, f"gradient mismatch {worst:.3e}"


unit_rows = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=2, max_value=6).map(lambda k: (n, k))
)


def random_unit_rows(rng, n, k):
    h = rng.normal(size=(n, k))
    return h / np.linalg.norm(h, axis=1, keepdims=True)


class TestHouseholder:
    def test_axis_reflection(self):
        h = ad.leaf(np.array([[1.0, 0.0, 0.0]]))
        x = ad.leaf(np.array([[1.0, 2.0, 3.0]]))
        y = ad.householder_apply(h, x)
        assert np.allclose(y.data, [[-1.0, 2.0, 3.0]])

    def test_reflecting_h_itself_negates(self):
        h = np.array([[0.6, 0.8]])
        y = ad.householder_apply(ad.leaf(h), ad.leaf(h.copy()))
        assert np.allclose(y.data, -h)

    def test_hand_computed_plane_reflection(self):
        s = 1.0 / np.sqrt(2.0)
        h = ad.leaf(np.array([[s, s, 0.0]]))
        x = ad.leaf(np.array([[1.0, 0.0, 0.0]]))
        y = ad.householder_apply(h, x)
        assert np.allclose(y.data, [[0.0, -1.0, 0.0]], atol=1e-12)

    def test_matches_materialized_matrix(self, rng):
        h = random_unit_rows(rng, 7, 5)
        x = rng.normal(size=(7, 5))
        y = ad.householder_apply(ad.leaf(h), ad.leaf(x)).data
        for i in range(7):
            m = ad.materialize_householder(h[i])
            assert np.allclose(y[i], m @ x[i], atol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ad.householder_apply(ad.leaf(np.ones((1, 3))), ad.leaf(np.ones((1, 4))))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), unit_rows)
    def test_orthogonality_f64(self, seed, shape):
        n, k = shape
        h = random_unit_rows(np.random.default_rng(seed), n, k)
        for row in h:
            m = ad.materialize_householder(row)
            assert np.max(np.abs(m.T @ m - np.eye(k))) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), unit_rows)
    def test_isometry(self, seed, shape):
        n, k = shape
        gen = np.random.default_rng(seed)
        h = random_unit_rows(gen, n, k)
        x = gen.normal(size=(n, k))
        y = ad.householder_apply(ad.leaf(h), ad.leaf(x)).data
        assert np.allclose(np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), atol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_inner_product_preserved(self, seed):
        gen = np.random.default_rng(seed)
        h = random_unit_rows(gen, 1, 6)
        x = gen.normal(size=(1, 6))
        y = gen.normal(size=(1, 6))
        mx = ad.householder_apply(ad.leaf(h), ad.leaf(x)).data
        my = ad.householder_apply(ad.leaf(h), ad.leaf(y)).data
        assert abs(np.vdot(mx, my) - np.vdot(x, y)) < 1e-5

    def test_gradients_both_inputs(self, rng):
        h = random_unit_rows(rng, 3, 4)
        x = rng.normal(size=(3, 4))
        c = rng.normal(size=(3, 4))
        # weight the output so the loss is NOT invariant to h
        check_grads(
            lambda th, tx: sum_all(mul(ad.householder_apply(th, tx), ad.leaf(c))),
            h, x,
        )

    def test_grad_through_normalization(self, rng):
        """The unit-norm constraint is differentiated through, so raw
        (non-unit) parameter rows must still receive correct gradients."""
        raw = rng.normal(size=(2, 5)) * 3.0
        x = rng.normal(size=(2, 5))
        c = rng.normal(size=(2, 5))
        check_grads(
            lambda tr, tx: sum_all(
                mul(ad.householder_apply(ad.normalize_rows(tr), tx), ad.leaf(c))
            ),
            raw, x,
        )


class TestNormalizeRows:
    def test_three_four_five(self):
        out = ad.normalize_rows(ad.leaf(np.array([[3.0, 4.0]])))
        assert np.allclose(out.data, [[0.6, 0.8]])

    def test_unit_rows_unchanged(self, rng):
        h = random_unit_rows(rng, 4, 3)
        out = ad.normalize_rows(ad.leaf(h.copy()))
        assert np.allclose(out.data, h, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_unit_norm_postcondition(self, seed):
        m = np.random.default_rng(seed).normal(size=(10, 8)) + 0.1
        out = ad.normalize_rows(ad.leaf(m)).data
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_zero_row_rejected(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateEmbeddingError):
            ad.normalize_rows(ad.leaf(m))

    def test_gradient(self, rng):
        m = rng.normal(size=(3, 4)) + 0.2
        c = rng.normal(size=(3, 4))
        check_grads(lambda t: sum_all(mul(ad.normalize_rows(t), ad.leaf(c))), m)


class TestSegmentOps:
    def test_single_element_segment_gets_weight_one(self):
        w = ad.segment_softmax(ad.leaf(np.array([3.7])), ad.Grouping([0]), 1)
        assert np.allclose(w.data, [1.0])

    def test_equal_logits_split_evenly(self):
        w = ad.segment_softmax(ad.leaf(np.zeros(2)), ad.Grouping([0, 0]), 1)
        assert np.allclose(w.data, [0.5, 0.5])

    def test_log_weighted_logits(self):
        logits = np.log(np.array([1.0, 2.0, 3.0]))
        w = ad.segment_softmax(ad.leaf(logits), ad.Grouping([0, 0, 0]), 1)
        assert np.allclose(w.data, [1 / 6, 2 / 6, 3 / 6])

    def test_segments_need_not_be_contiguous(self):
        logits = np.array([0.0, 5.0, 0.0, 5.0])
        seg = ad.Grouping([0, 1, 0, 1])
        w = ad.segment_softmax(ad.leaf(logits), seg, 2).data
        assert np.allclose(w, [0.5, 0.5, 0.5, 0.5])

    def test_extreme_logits_stable(self):
        logits = np.array([1000.0, 999.0])
        w = ad.segment_softmax(ad.leaf(logits), ad.Grouping([0, 0]), 1).data
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 30))
    def test_sums_to_one_per_occupied_segment(self, seed, n):
        gen = np.random.default_rng(seed)
        seg = gen.integers(0, 4, size=n)
        w = ad.segment_softmax(ad.leaf(gen.normal(size=n)), ad.Grouping(seg), 4).data
        sums = np.zeros(4)
        np.add.at(sums, seg, w)
        for s in range(4):
            if np.any(seg == s):
                assert abs(sums[s] - 1.0) < 1e-6

    def test_softmax_gradient(self, rng):
        logits = rng.normal(size=6)
        seg = ad.Grouping([0, 1, 0, 2, 1, 0])
        c = rng.normal(size=6)
        check_grads(
            lambda t: sum_all(mul(ad.segment_softmax(t, seg, 3), ad.leaf(c))),
            logits,
        )

    def test_segment_sum_values_and_gradient(self, rng):
        x = rng.normal(size=(5, 3))
        seg = ad.Grouping([0, 2, 0, 1, 2])
        out = ad.segment_sum(ad.leaf(x), seg, 3).data
        assert np.allclose(out[0], x[0] + x[2])
        assert np.allclose(out[1], x[3])
        c = rng.normal(size=(3, 3))
        check_grads(
            lambda t: sum_all(mul(ad.segment_sum(t, seg, 3), ad.leaf(c))), x
        )


@st.composite
def segment_cases(draw):
    """Segment ids (sorted or not, some segments empty, high ids unused, maybe
    no rows at all), row width (None = 1-D rows), dtype and a data seed."""
    num_segments = draw(st.integers(1, 6))
    used = draw(st.integers(1, num_segments))
    ids = draw(st.lists(st.integers(0, used - 1), max_size=12))
    if draw(st.booleans()):
        ids.sort()
    width = draw(st.sampled_from([None, 1, 3]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return np.array(ids, dtype=np.int64), num_segments, width, dtype, draw(st.integers(0, 2**31 - 1))


# always tried: no rows; unsorted repeats with empty and unused high segments
EDGE_CASES = (
    (np.zeros(0, dtype=np.int64), 3, None, np.float32, 0),
    (np.array([2, 0, 2, 2, 0]), 5, 3, np.float64, 1),
)


def with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return test


def rows_of(gen, count, width, dtype):
    return gen.normal(size=(count,) if width is None else (count, width)).astype(dtype)


def rounding_tol(dtype):
    return 1e-5 if dtype == np.float32 else 1e-12


def input_grad(op, x, c):
    """Gradient of sum(op(x) * c) with respect to x, through the tape."""
    t = ad.leaf(x)
    ad.backward(sum_all(mul(op(t), ad.leaf(c))))
    return t.grad


class TestSortedReductions:
    """Run-wise reductions against np.add.at / np.maximum.at references.

    Summation order differs from the scatter, so values agree to rounding."""

    @settings(max_examples=40, deadline=None)
    @given(segment_cases())
    @with_edge_cases
    def test_segment_sum_matches_scatter(self, case):
        seg, n, width, dtype, seed = case
        gen = np.random.default_rng(seed)
        x = rows_of(gen, len(seg), width or 2, dtype)  # the model sums 2-D rows
        want = np.zeros((n, x.shape[1]), dtype=dtype)
        np.add.at(want, seg, x)
        runs = ad.Grouping(seg)
        got = ad.segment_sum(ad.leaf(x), runs, n).data
        assert got.dtype == dtype
        tol = rounding_tol(dtype)
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
        empty = np.setdiff1d(np.arange(n), seg)
        assert np.array_equal(got[empty], np.zeros_like(got[empty]))
        c = rows_of(gen, n, x.shape[1], dtype)
        assert np.array_equal(input_grad(lambda t: ad.segment_sum(t, runs, n), x, c), c[seg])

    @settings(max_examples=40, deadline=None)
    @given(segment_cases())
    @with_edge_cases
    def test_segment_softmax_matches_scatter(self, case):
        seg, n, _, dtype, seed = case
        gen = np.random.default_rng(seed)
        z = rows_of(gen, len(seg), None, dtype)
        top = np.full(n, -np.inf, dtype=dtype)
        np.maximum.at(top, seg, z)
        e = np.exp(z - top[seg])
        denom = np.zeros(n, dtype=dtype)
        np.add.at(denom, seg, e)
        want = e / denom[seg]
        runs = ad.Grouping(seg)
        got = ad.segment_softmax(ad.leaf(z), runs, n).data
        assert got.dtype == dtype
        tol = rounding_tol(dtype)
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
        c = rows_of(gen, len(seg), None, dtype)
        dot = np.zeros(n, dtype=dtype)
        np.add.at(dot, seg, c * want)
        got_grad = input_grad(lambda t: ad.segment_softmax(t, runs, n), z, c)
        np.testing.assert_allclose(got_grad, want * (c - dot[seg]), rtol=tol, atol=tol)

    @settings(max_examples=40, deadline=None)
    @given(segment_cases())
    @with_edge_cases
    def test_gather_rows_backward_matches_scatter(self, case):
        idx, n, width, dtype, seed = case
        gen = np.random.default_rng(seed)
        a = rows_of(gen, n, width, dtype)
        runs = ad.Grouping(idx)
        assert np.array_equal(ad.gather_rows(ad.leaf(a), runs).data, a[idx])
        c = rows_of(gen, len(idx), width, dtype)
        want = np.zeros_like(a)
        np.add.at(want, idx, c)
        got = input_grad(lambda t: ad.gather_rows(t, runs), a, c)
        assert got.dtype == dtype and got.shape == a.shape
        tol = rounding_tol(dtype)
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
        untouched = np.setdiff1d(np.arange(n), idx)
        assert np.array_equal(got[untouched], np.zeros_like(a[untouched]))


def sequential_reduce(ufunc, x, idx, size, fill):
    """Reference: each group's rows folded left to right in a Python loop."""
    out = np.full((size,) + x.shape[1:], fill, dtype=x.dtype)
    for group in range(size):
        rows = x[idx == group]
        if len(rows):
            acc = rows[0].copy()
            for row in rows[1:]:
                acc = ufunc(acc, row)
            out[group] = acc
    return out


def grouping_cases():
    """(name, index, number of groups) for the length-bucketed reduction."""
    gen = np.random.default_rng(7)
    skewed = np.repeat(np.arange(12), [1, 1, 2, 3, 3, 3, 5, 8, 8, 13, 40, 1])
    return [
        ("sorted", np.sort(gen.integers(0, 30, 200)), 30),
        ("unsorted-ties", gen.integers(0, 30, 200), 30),
        ("skewed-shuffled", gen.permutation(skewed), 12),
        ("empty-groups", np.array([5, 1, 5, 5, 1, 8]), 10),
        ("one-run", np.full(300, 3), 5),
        ("all-distinct", gen.permutation(50), 50),
        ("no-rows", np.zeros(0, dtype=np.int64), 4),
    ]


def bucket_positions(span):
    """A bucket's (L, c) positions, whether stored as an array or a slice."""
    return np.arange(span.start, span.stop)[:, None] if isinstance(span, slice) else span


class TestBucketedReduction:
    """``Grouping.reduce`` against a per-group sequential loop.

    Width-k rows fold each run left to right, so they equal the loop's
    bits; 1-D rows go through ``reduceat``, which sums a run pairwise, and
    agree to rounding."""

    @pytest.mark.parametrize("name, idx, size", grouping_cases(),
                             ids=[c[0] for c in grouping_cases()])
    @pytest.mark.parametrize("width", [None, 4], ids=["1-D", "2-D"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_sequential_loop(self, name, idx, size, width, dtype):
        gen = np.random.default_rng(len(idx))
        x = rows_of(gen, len(idx), width, dtype)
        runs = ad.Grouping(idx)
        empty = np.setdiff1d(np.arange(size), idx)
        tol = rounding_tol(dtype)
        for ufunc, fill in ((np.add, 0.0), (np.maximum, -np.inf)):
            got = runs.reduce(ufunc, x, size, fill)
            want = sequential_reduce(ufunc, x, idx, size, fill)
            assert got.shape == want.shape and got.dtype == dtype
            if width is None:
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
            else:
                assert got.tobytes() == want.tobytes()
            assert np.all(got[empty] == fill)

    @pytest.mark.parametrize("name, idx, size", grouping_cases(),
                             ids=[c[0] for c in grouping_cases()])
    def test_one_bucket_per_distinct_run_length(self, name, idx, size):
        runs = ad.Grouping(idx)
        lengths = np.bincount(idx, minlength=size)
        spans = [bucket_positions(span) for span, _ in runs.buckets]
        assert [len(span) for span in spans] == sorted(set(lengths[lengths > 0]))
        named = [int(i) for _, ids in runs.buckets for i in ids]
        assert sorted(named) == sorted(set(idx.tolist()))
        for span, (_, ids) in zip(spans, runs.buckets):
            # column j holds run ids[j]'s positions, in their original order
            assert span.shape == (span.shape[0], len(ids))
            for column, i in zip(span.T, ids):
                assert column.tolist() == np.flatnonzero(idx == i).tolist()

    @pytest.mark.parametrize("name, idx, size", grouping_cases(),
                             ids=[c[0] for c in grouping_cases()])
    def test_stores_at_most_one_narrow_copy_of_each_layout(self, name, idx, size):
        """An unsorted index stores two m-long position arrays (id order and
        the buckets' spans), a sorted one only the spans, a single run none;
        each of the narrowest integer type that holds m."""
        runs = ad.Grouping(idx)
        m = len(idx)
        stored = [runs.by_id[0]] + [span for span, _ in runs.buckets]
        arrays = [a for a in stored if a is not None and not isinstance(a, slice)]
        assert all(a.dtype == np.min_scalar_type(m) for a in arrays)
        if len(set(idx.tolist())) == 1:
            allowed = 0
        else:
            allowed = 1 if np.all(idx[1:] >= idx[:-1]) else 2
        assert sum(a.size for a in arrays) <= allowed * m

    def test_single_run_is_one_bucket_in_place(self):
        runs = ad.Grouping(np.full(300, 3))
        (span, ids), = runs.buckets
        assert runs.by_id[0] is None  # rows are reduced where they lie
        assert span == slice(0, 300) and ids.tolist() == [3]

    def test_positions_lay_runs_out_by_length(self):
        runs = ad.Grouping(np.array([4, 1, 4, 2, 4, 1]))
        assert [(span.tolist(), ids.tolist()) for span, ids in runs.buckets] == \
            [([[3]], [2]), ([[1], [5]], [1]), ([[0], [2], [4]], [4])]
        assert all(span.dtype == np.uint8 for span, _ in runs.buckets)
        # runs of one length are laid out position-major: every first row,
        # then every second row
        (span, ids), = ad.Grouping(np.array([4, 1, 4, 2, 1, 2])).buckets
        assert span.tolist() == [[1, 3, 0], [4, 5, 2]] and ids.tolist() == [1, 2, 4]
        (span, ids), = ad.Grouping(np.array([1, 1, 2, 2, 4, 4])).buckets
        assert span.tolist() == [[0, 2, 4], [1, 3, 5]] and span.dtype == np.uint8

    def test_shared_grouping_equals_fresh_ones(self, rng):
        """One grouping read by every op, forward and backward, gives what a
        grouping built for each op gives: no op changes the one it reads."""
        idx = rng.integers(0, 6, 40)
        runs = ad.Grouping(idx)
        x = rng.normal(size=(40, 3))
        z = rng.normal(size=40)
        table = rng.normal(size=(6, 3))
        pairs = [
            (lambda t, i: ad.segment_sum(t, i, 7), x),
            (lambda t, i: ad.segment_softmax(t, i, 7), z),
            (lambda t, i: ad.gather_rows(t, i), table),
        ]
        for op, data in pairs:
            c = rng.normal(size=op(ad.leaf(data), runs).shape)
            assert np.array_equal(op(ad.leaf(data), runs).data,
                                  op(ad.leaf(data), ad.Grouping(idx)).data)
            assert np.array_equal(input_grad(lambda t: op(t, runs), data, c),
                                  input_grad(lambda t: op(t, ad.Grouping(idx)), data, c))
        assert runs.index.dtype == np.int64 and np.array_equal(runs.index, idx)


def per_run_reduce(ufunc, x, idx, size, fill=0):
    """Reference for scalar rows: each run's values, copied out in their
    original order, folded by a ``reduceat`` of their own."""
    out = np.full(size, fill, dtype=x.dtype)
    order = np.argsort(idx, kind="stable")
    ids, starts = np.unique(idx[order], return_index=True)
    for i, run in zip(ids, np.split(order, starts[1:])):
        out[i] = ufunc.reduceat(x[run], [0])[0]
    return out


def traced_peak(fn):
    """(result, peak bytes tracemalloc saw allocated while ``fn`` ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScalarReduce:
    """1-D rows reduce with one ``reduceat`` over the runs in id order, so
    each run is folded exactly as it would be on its own."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ordered", [True, False], ids=["sorted", "unsorted"])
    def test_bitwise_equal_to_each_run_reduced_alone(self, dtype, ordered):
        gen = np.random.default_rng(3)
        m, size = 200_000, 2000
        # runs of uneven length, so the buckets lay them out in another order
        idx = gen.integers(0, size - 10, m)
        idx = np.sort(idx) if ordered else idx
        runs = ad.Grouping(idx)
        assert (runs.by_id[0] is None) is ordered
        by_id = np.arange(m) if ordered else runs.by_id[0]
        by_length = np.concatenate([bucket_positions(s).ravel() for s, _ in runs.buckets])
        assert np.array_equal(np.sort(by_length), np.arange(m))
        assert not np.array_equal(by_length, by_id)
        x = gen.normal(size=m).astype(dtype)
        m_long = m * x.itemsize
        for ufunc, fill in ((np.add, 0), (np.maximum, -np.inf)):
            want = per_run_reduce(ufunc, x, idx, size, fill)
            got, peak = traced_peak(lambda: runs.reduce(ufunc, x, size, fill))
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
            # a sorted index is read in place, any other gathered once
            assert m_long > 8 * peak if ordered else peak >= m_long

    def test_runs_in_id_order(self):
        runs = ad.Grouping(np.array([4, 1, 4, 2, 4, 1]))
        pos, starts, ids = runs.by_id
        assert pos.tolist() == [1, 5, 3, 0, 2, 4] and pos.dtype == np.uint8
        assert starts.tolist() == [0, 2, 3] and ids.tolist() == [1, 2, 4]
        pos, starts, ids = ad.Grouping(np.array([1, 1, 2, 4, 4, 4])).by_id
        assert pos is None and starts.tolist() == [0, 2, 3] and ids.tolist() == [1, 2, 4]


def in_place_cases(dtype):
    """name -> (build(*leaves) -> Tensor, inputs, upstream gradient, parent):
    ``parent(*inputs, c)`` gives the value and input gradients through the
    expressions each rule wrote out before it built its result in place."""
    gen = np.random.default_rng(17)

    def rows(*shape):
        x = gen.normal(size=shape).astype(dtype)
        x.reshape(-1)[:2] = (0.0, -0.0)  # relu's and absolute's kink
        return x

    h, x, c = rows(6, 4), rows(6, 4), rows(6, 4)
    h /= np.sqrt(np.einsum("nk,nk->n", h, h))[:, None]
    w, z, cz = rows(6), rows(6), rows(6)
    rate, seed = 0.4, 5

    def reflect(h, x, c):
        hx, hg = np.einsum("nk,nk->n", h, x), np.einsum("nk,nk->n", h, c)
        return x - 2.0 * hx[:, None] * h, [-2.0 * (hg[:, None] * x + hx[:, None] * c),
                                           c - 2.0 * hg[:, None] * h]

    def dropped(x, c):
        keep = (np.random.default_rng(seed).random(x.shape) >= rate).astype(dtype)
        factor = 1.0 / (1.0 - rate)
        return x * keep * factor, [c * keep * factor]

    def softmax(index):
        runs = ad.Grouping(index)

        def parent(z, c):
            e = np.exp(z - per_run_reduce(np.maximum, z, index, 4, -np.inf)[index])
            w = e / per_run_reduce(np.add, e, index, 4)[index]
            dot = per_run_reduce(np.add, c * w, index, 4)
            return w, [w * (c - dot[index])]

        return (lambda t: ad.segment_softmax(t, runs, 4)), [z], cz, parent

    return {
        "householder_apply": (ad.householder_apply, [h, x], c, reflect),
        "scale_rows": (ad.scale_rows, [x, w], c, lambda x, w, c: (
            x * w[:, None], [c * w[:, None], np.einsum("nk,nk->n", c, x)])),
        "relu": (ad.relu, [x], c, lambda a, c: (np.where(a > 0, a, 0), [c * (a > 0)])),
        "absolute": (ad.absolute, [x], c, lambda a, c: (np.abs(a), [c * np.sign(a)])),
        "dropout": (lambda t: ad.dropout(t, rate, np.random.default_rng(seed), True),
                    [x], c, dropped),
        "segment_softmax-sorted": softmax(np.array([0, 0, 1, 3, 3, 3])),
        "segment_softmax-unsorted": softmax(np.array([3, 0, 3, 1, 0, 3])),
    }


IN_PLACE_OPS = list(in_place_cases(np.float64))


class TestInPlaceRules:
    """Rules that build each result in one array, or in the gradient they
    are handed, keep the bits of the expressions they replaced."""

    @pytest.mark.parametrize("beside", [False, True], ids=["alone", "add-first"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", IN_PLACE_OPS)
    def test_values_and_gradients_bitwise(self, name, dtype, beside):
        """With ``beside``, the op is ``add``'s first parent and so is handed
        ``add``'s own gradient; the sibling's copy must stay the upstream's."""
        build, inputs, c, parent = in_place_cases(dtype)[name]
        want_value, want_grads = parent(*inputs, c)
        leaves = [ad.leaf(a) for a in inputs]
        out = build(*leaves)
        value = out.data
        sibling = ad.leaf(np.zeros_like(c))
        top = ad.add(out, sibling) if beside else out
        ad.backward(sum_all(mul(top, ad.leaf(c))))
        assert value.dtype == dtype and value.tobytes() == want_value.tobytes()
        for leaf, want in zip(leaves, want_grads):
            assert leaf.grad.dtype == dtype and leaf.grad.tobytes() == want.tobytes()
        if beside:
            assert sibling.grad.tobytes() == c.tobytes()


class TestElementwiseOps:
    def test_arith_values(self):
        a, b = ad.leaf(np.array([2.0, -1.0])), ad.leaf(np.array([3.0, 5.0]))
        assert np.allclose(ad.add(a, b).data, [5.0, 4.0])
        assert np.allclose(ad.sub(a, b).data, [-1.0, -6.0])
        assert np.allclose(mul(a, b).data, [6.0, -5.0])
        assert np.allclose(ad.relu(a).data, [2.0, 0.0])
        assert np.allclose(ad.absolute(a).data, [2.0, 1.0])

    def test_gradients(self, rng):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2))
        c = rng.normal(size=(3, 2))
        check_grads(lambda ta, tb: sum_all(mul(ad.add(ta, tb), ad.leaf(c))), a, b)
        check_grads(lambda ta, tb: sum_all(mul(ad.sub(ta, tb), ad.leaf(c))), a, b)
        check_grads(lambda ta, tb: sum_all(mul(ta, tb)), a, b)
        # keep relu/abs inputs away from their kinks
        a_safe = a + np.sign(a) * 0.5
        check_grads(lambda t: sum_all(mul(ad.relu(t), ad.leaf(c))), a_safe)
        check_grads(lambda t: sum_all(mul(ad.absolute(t), ad.leaf(c))), a_safe)

    def test_row_sum(self, rng):
        x = rng.normal(size=(4, 3))
        assert np.allclose(ad.row_sum(ad.leaf(x)).data, x.sum(axis=1))
        c = rng.normal(size=4)
        check_grads(lambda t: sum_all(mul(ad.row_sum(t), ad.leaf(c))), x)


class TestIndexingOps:
    def test_gather_rows_repeated_index_accumulates(self, rng):
        x = rng.normal(size=(4, 3))
        idx = np.array([1, 1, 3])
        out = ad.gather_rows(ad.leaf(x), ad.Grouping(idx))
        assert np.allclose(out.data, x[idx])
        t = ad.leaf(x)
        root = sum_all(ad.gather_rows(t, ad.Grouping(idx)))
        ad.backward(root)
        expected = np.zeros_like(x)
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.allclose(t.grad, expected)

    def test_concat_cols_roundtrip(self, rng):
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
        out = ad.concat_cols([ad.leaf(a), ad.leaf(b)])
        assert out.data.shape == (3, 6)
        assert np.allclose(out.data[:, :2], a)
        c = rng.normal(size=(3, 6))
        check_grads(
            lambda ta, tb: sum_all(mul(ad.concat_cols([ta, tb]), ad.leaf(c))), a, b
        )

    def test_matvec(self, rng):
        """f64: ``a`` times the k-slice of a 3k vector at offset 0, k or 2k,
        read in place; the vector's gradient is zero outside that slice."""
        k = 3
        m = rng.normal(size=(4, k))
        v = rng.normal(size=3 * k)
        c = rng.normal(size=4)
        for lo in (0, k, 2 * k):
            hi = lo + k
            out = ad.matvec(ad.leaf(m), ad.leaf(v), lo)
            assert np.allclose(out.data, m @ v[lo:hi], rtol=1e-14, atol=1e-14)
            check_grads(lambda tm, tv: sum_all(mul(ad.matvec(tm, tv, lo), ad.leaf(c))), m, v)
            tv = ad.leaf(v)
            ad.backward(sum_all(mul(ad.matvec(ad.leaf(m), tv, lo), ad.leaf(c))))
            assert np.allclose(tv.grad[lo:hi], m.T @ c, rtol=1e-14, atol=1e-14)
            assert not np.delete(tv.grad, np.s_[lo:hi]).any()

    def test_scale_rows(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=3)
        out = ad.scale_rows(ad.leaf(x), ad.leaf(w))
        assert np.allclose(out.data, x * w[:, None])
        c = rng.normal(size=(3, 4))
        check_grads(
            lambda tx, tw: sum_all(mul(ad.scale_rows(tx, tw), ad.leaf(c))), x, w
        )


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = ad.leaf(np.ones((5, 5)))
        assert ad.dropout(x, 0.0, rng, training=True) is x

    def test_eval_mode_is_identity(self, rng):
        x = ad.leaf(np.ones((5, 5)))
        assert ad.dropout(x, 0.3, rng, training=False) is x

    def test_empirical_zero_fraction(self):
        gen = np.random.default_rng(123)
        x = ad.leaf(np.ones(100_000))
        out = ad.dropout(x, 0.3, gen, training=True)
        frac = float(np.mean(out.data == 0.0))
        assert abs(frac - 0.3) < 0.01

    def test_survivors_scaled(self):
        gen = np.random.default_rng(7)
        out = ad.dropout(ad.leaf(np.ones(1000)), 0.5, gen, training=True)
        survivors = out.data[out.data != 0.0]
        assert np.allclose(survivors, 2.0)

    def test_rate_one_rejected(self, rng):
        with pytest.raises(ConfigError):
            ad.dropout(ad.leaf(np.ones(3)), 1.0, rng, training=True)

    def test_backward_uses_same_mask(self):
        gen = np.random.default_rng(11)
        x = ad.leaf(np.ones(200))
        out = ad.dropout(x, 0.4, gen, training=True)
        kept = out.data != 0.0  # read before backward releases it
        ad.backward(sum_all(out))
        assert np.allclose(x.grad, np.where(kept, 1 / 0.6, 0.0))


def tape_order(root):
    """Nodes reachable from root in the order ad.backward visits them reversed."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in seen)
    return order


def backward_keeping_tape(root):
    """ad.backward's accumulation without releasing the tape: the reference run."""
    root.grad = np.ones_like(root.data)
    for node in reversed(tape_order(root)):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)


def shared_subterm_loss(a, b):
    """A scalar whose tape reuses nodes and reduces by unsorted indices."""
    h = ad.normalize_rows(ad.gather_rows(a, ad.Grouping([0, 2, 1, 0, 2])))
    y = ad.householder_apply(h, ad.gather_rows(b, ad.Grouping([1, 1, 0, 2, 0])))
    s = ad.segment_sum(ad.add(y, mul(y, h)), ad.Grouping([2, 0, 2, 1, 0]), 3)
    return sum_all(ad.relu(ad.add(s, ad.gather_rows(a, ad.Grouping([1, 0, 2])))))


def stale_row_sum(a: ad.Tensor) -> ad.Tensor:
    """``row_sum`` with a rule that reads its input's value while backward runs."""

    def bw(g):
        a.accumulate(np.repeat(g[:, None], a.data.shape[1], axis=1))

    return ad.Tensor(a.data.sum(axis=1), (a,), bw)


class TestTape:
    def test_backward_releases_interior_nodes_and_keeps_leaf_grads(self, rng):
        arrays = [rng.normal(size=(3, 4)) for _ in range(2)]
        reference = [ad.leaf(x) for x in arrays]
        reference_root = shared_subterm_loss(*reference)
        backward_keeping_tape(reference_root)

        leaves = [ad.leaf(x) for x in arrays]
        root = shared_subterm_loss(*leaves)
        value = root.data.copy()
        interior = [n for n in tape_order(root) if n.backward_fn is not None]
        ad.backward(root)
        assert len(interior) > 10
        for node in interior:
            assert node.grad is None and node.backward_fn is None and not node.parents
            assert (node.data is None) == (node is not root)
        assert root.data.tobytes() == value.tobytes() == reference_root.data.tobytes()
        for got, want, x in zip(leaves, reference, arrays):
            assert got.data.tobytes() == x.tobytes()
            assert np.array_equal(got.grad, want.grad)

    def test_rule_reading_a_released_value_fails(self, rng):
        x = ad.leaf(rng.normal(size=(3, 4)))
        ad.backward(sum_all(stale_row_sum(x)))  # a leaf keeps its value
        assert np.array_equal(x.grad, np.ones((3, 4)))
        root = sum_all(stale_row_sum(ad.add(x, x)))  # add's output is released
        with pytest.raises(AttributeError, match="NoneType"):
            ad.backward(root)

    def test_diamond_graph_accumulates_once_per_path(self):
        x = ad.leaf(np.array([2.0]))
        y = ad.add(x, x)  # dy/dx = 2
        z = mul(y, y)  # z = (2x)^2, dz/dx = 8x = 16
        ad.backward(sum_all(z))
        assert np.allclose(x.grad, [16.0])

    def test_backward_requires_scalar_root(self):
        with pytest.raises(ValueError):
            ad.backward(ad.leaf(np.ones(3)))

    def test_quadratic_loss_exact_gradient(self, rng):
        theta = rng.normal(size=(4, 3))
        t = ad.leaf(theta)
        ad.backward(sum_all(mul(t, t)))
        assert np.max(np.abs(t.grad - 2 * theta)) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        npst.arrays(
            np.float64,
            npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4),
            elements=st.floats(-10, 10),
        )
    )
    def test_add_sub_roundtrip_gradient_cancels(self, x):
        t = ad.leaf(x)
        out = sum_all(ad.sub(ad.add(t, t), t))  # == sum(x)
        ad.backward(out)
        assert np.allclose(t.grad, np.ones_like(x))


def recorded(node: ad.Tensor) -> bool:
    return node.backward_fn is not None and len(node.parents) > 0


class TestNoTape:
    def test_ops_keep_no_parents_or_rule_inside_the_scope(self, rng):
        x = ad.leaf(rng.normal(size=(3, 4)))
        taped = ad.normalize_rows(ad.add(x, x))
        with ad.no_tape():
            bare = ad.normalize_rows(ad.add(x, x))
        assert recorded(taped)
        assert bare.parents == () and bare.backward_fn is None
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_exception_inside_the_scope_restores_recording(self, rng):
        x = ad.leaf(rng.normal(size=(2, 2)))
        with pytest.raises(DegenerateEmbeddingError):
            with ad.no_tape():
                ad.normalize_rows(ad.sub(x, x))
        assert recorded(ad.add(x, x))

    def test_nested_scope_keeps_the_outer_one(self, rng):
        x = ad.leaf(rng.normal(size=(2, 2)))
        with ad.no_tape():
            with ad.no_tape():
                pass
            assert not recorded(ad.add(x, x))
        assert recorded(ad.add(x, x))


def copying_accumulate(self, g):
    """The reference rule: every first contribution is copied."""
    if self.grad is None:
        self.grad = np.array(g, dtype=self.dtype, copy=True)
    else:
        self.grad += g


def aliasing_loss(x, y, z, v, c1, c2):
    """``add`` hands one gradient to x and y, whose next contributions come
    from ``concat_cols`` slices; z's first contribution is ``sum_all``'s
    read-only broadcast, v's a slice view."""
    s = ad.add(x, y)
    first = ad.add(sum_all(mul(s, c1)), sum_all(z))
    cat = ad.concat_cols([v, x, y, z])
    second = sum_all(mul(ad.relu(cat), c2))
    return ad.add(first, second), s, cat


def read_only_array():
    g = np.ones((2, 3))
    g.flags.writeable = False
    return g


class TestAccumulate:
    def test_fresh_first_contribution_is_kept(self):
        t = ad.leaf(np.zeros((2, 3)))
        g = np.ones((2, 3))
        t.accumulate(g)
        assert t.grad is g

    @pytest.mark.parametrize(
        "g",
        [
            np.ones((2, 3), dtype=np.float32),  # another dtype
            np.ones((2, 6))[:, :3],  # a view
            np.broadcast_to(np.ones(3), (2, 3)),  # a read-only view
            read_only_array(),  # read-only, though no view
        ],
        ids=["dtype", "view", "broadcast", "read-only"],
    )
    def test_first_contribution_copied_unless_kept_safely(self, g):
        t = ad.leaf(np.zeros((2, 3)))
        t.accumulate(g)
        assert t.grad.dtype == np.float64 and t.grad.flags.writeable
        assert not np.shares_memory(t.grad, g)
        assert np.array_equal(t.grad, g)

    @pytest.mark.parametrize("earlier", [0, 1], ids=["first", "later"])
    def test_contribution_of_another_shape_refused(self, earlier):
        """A (1, 3) gradient would be kept at its shape, or broadcast into both rows."""
        t = ad.leaf(np.zeros((2, 3)))
        for _ in range(earlier):
            t.accumulate(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"shape \(1, 3\) for a node of shape \(2, 3\)"):
            t.accumulate(np.ones((1, 3)))

    def test_later_contributions_add_in_place(self):
        t = ad.leaf(np.zeros(3))
        first = np.ones(3)
        t.accumulate(first)
        t.accumulate(np.full(3, 2.0))
        assert t.grad is first and first.tolist() == [3.0, 3.0, 3.0]

    def test_shared_gradients_never_alias(self, rng, monkeypatch):
        arrays = [rng.normal(size=(3, 4)) for _ in range(5)] + [rng.normal(size=(3, 16))]

        leaves = [ad.leaf(a) for a in arrays]
        root, s, cat = aliasing_loss(*leaves)
        order = tape_order(root)[::-1]
        # add's gradient reaches x and y before the concat's slices do
        assert order.index(s) < order.index(cat)
        ad.backward(root)

        monkeypatch.setattr(ad.Tensor, "accumulate", copying_accumulate)
        reference = [ad.leaf(a) for a in arrays]
        ad.backward(aliasing_loss(*reference)[0])

        for got, want in zip(leaves, reference):
            assert got.grad.flags.writeable
            assert np.array_equal(got.grad, want.grad)
        for i, a in enumerate(leaves):
            for b in leaves[i + 1 :]:
                assert not np.shares_memory(a.grad, b.grad)
