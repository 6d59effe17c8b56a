"""Minimal reverse-mode tape over dense numpy arrays.

The computation graph of the alignment model is small and static, so instead
of a general autodiff framework each operation this model needs carries its
own analytic backward rule. Tensors wrap numpy arrays; calling
:func:`backward` on a scalar result accumulates gradients into every leaf
reachable from it and consumes the tape: each interior node gives up its
value when backward starts and its gradient, backward closure and parents
as soon as its rule has run, so a tape is backpropagated once and its
memory is freed as it goes. All ops preserve the dtype of their inputs
(float32 for training, float64 for verification) and avoid BLAS so that
results are bit-reproducible at thread count 1.

Every op keeps three rules.

Index: an op that gathers or reduces by an index takes it as a prebuilt
:class:`Grouping`, so a static column (a graph's link columns) is grouped
once and reused by every op that reads it.

Ownership: a backward rule hands each array it passes on to one parent only;
``add``, the one op that passes its upstream gradient to two parents, gives
the second a copy. So :meth:`Tensor.accumulate` keeps a first contribution
that is no view, is writeable and has the node's dtype, and copies anything
else (``concat_cols``' column slices, a broadcast). Later contributions are
added in place, so no two nodes share gradient memory. A contribution of
another shape than its node's is refused, first or later: it would
otherwise be kept at its own shape or broadcast into the gradient. So the
gradient a rule is handed belongs to its node alone, and the rule may write
into it and hand it on rather than allocate a result of the same shape.

Values: a backward rule reads no node's ``data``. What it needs of a value
it captures when its op is built (an input array, a mask, its own output),
and a node's ``shape`` and ``dtype`` are kept apart from its value. So
:func:`backward` releases the value of every interior node other than the
root before the first rule runs: an array that some rule captured lives
until that rule has run, and any other (a sum that no rule reads, a
gathered block that only feeds a difference) is freed at once, before
gradients are allocated. :func:`matvec` keeps a view of its slice of ``v``,
which keeps all of ``v`` alive until its rule has run. A rule that still
read a released value would fail on ``None`` rather than read stale data.
:func:`seal` applies the same rule as soon as a composition is built: it
releases the values of the nodes inside it then, not when backward starts,
so they are gone before the rest of the forward allocates.

Inference: inside :func:`no_tape` every op still computes its value, but
the node it returns keeps no parents and no backward rule, so nothing on the
way to a result outlives the code that made it (a no-grad mode). The
training path never enters it.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DegenerateEmbeddingError

ZERO_NORM_TOLERANCE = 1e-12

_recording = True


@contextmanager
def no_tape() -> Iterator[None]:
    """Build no tape inside this scope; the previous setting returns on exit."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A node in the tape: value (None once backward has released it), its
    shape and dtype, gradient slot, and a backward closure."""

    __slots__ = ("data", "shape", "dtype", "grad", "parents", "backward_fn", "name")

    def __init__(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ):
        self.data: np.ndarray | None = np.asarray(data)
        self.shape, self.dtype = self.data.shape, self.data.dtype
        self.grad: np.ndarray | None = None
        if not _recording:
            parents, backward_fn = (), None
        self.parents = parents
        self.backward_fn = backward_fn
        self.name = name

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into this node's gradient (see the ownership rule above)."""
        if g.shape != self.shape:
            raise ValueError(f"gradient of shape {g.shape} for a node of shape {self.shape}")
        if self.grad is None:
            if g.base is None and g.flags.writeable and g.dtype == self.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"


def leaf(data: np.ndarray, name: str = "") -> Tensor:
    return Tensor(np.asarray(data), name=name)


def backward(root: Tensor) -> None:
    """Reverse-accumulate gradients from a scalar root through the tape.

    Only leaves keep their gradients and, with the root, their values; every
    interior node reached is released (``data``, ``grad`` and
    ``backward_fn`` None, no ``parents``). Values go before the first rule
    runs (see the values rule above).
    """
    if root.data.size != 1:
        raise ValueError("backward root must be a scalar")
    _propagate(root, np.ones_like(root.data))


def _tape_order(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root``, each after all of its parents."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _propagate(root: Tensor, seed: np.ndarray) -> None:
    """:func:`backward` from ``root`` with ``seed`` as its gradient, which
    ``root`` takes over; ``root`` may have any shape."""
    order = _tape_order(root)
    for node in order:
        if node.backward_fn is not None and node is not root:
            node.data = None
    root.grad = seed
    for node in reversed(order):
        if node.backward_fn is not None:
            if node.grad is not None:
                node.backward_fn(node.grad)
            node.grad = node.backward_fn = None
            node.parents = ()


def seal(fn: Callable[..., Tensor], *inputs: Tensor) -> Tensor:
    """``fn(*inputs)`` as one node whose inner values are released at once.

    ``fn`` runs on leaf stand-ins of ``inputs`` (the same arrays and names)
    and must reach the tape through its arguments only. Once it returns,
    every node it built gives up its value, as :func:`backward` would: what
    the rules captured lives on, the rest is freed before the forward goes
    on. The returned node's parents are ``inputs``. Its rule backpropagates
    its gradient through the inner tape, which that consumes, and hands each
    stand-in's gradient to its input. Every op inside still runs its own
    rule; what an input gets from inside ``fn`` reaches it as one term, so an
    input whose gradient sums at most two terms keeps its bits. Under
    :func:`no_tape` it returns ``fn(*inputs)``.
    """
    if not _recording:
        return fn(*inputs)
    stand_ins = tuple(leaf(x.data, x.name) for x in inputs)
    inner = fn(*stand_ins)
    out = inner.data
    for node in _tape_order(inner):
        if node.backward_fn is not None:
            node.data = None

    def bw(g):
        _propagate(inner, g)
        for x, s in zip(inputs, stand_ins):
            if s.grad is not None:
                x.accumulate(s.grad)
                s.grad = None

    return Tensor(out, inputs, bw)


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        a.accumulate(g)
        b.accumulate(g.copy())

    return Tensor(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        a.accumulate(g)
        b.accumulate(-g)

    return Tensor(a.data - b.data, (a, b), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bw(g):
        g *= mask
        a.accumulate(g)

    return Tensor(np.where(mask, a.data, 0), (a,), bw)


def absolute(a: Tensor) -> Tensor:
    # subgradient 0 at the kink, matching the ReLU policy
    sgn = np.sign(a.data)

    def bw(g):
        a.accumulate(np.multiply(g, sgn, out=sgn))

    return Tensor(np.abs(a.data), (a,), bw)


def row_sum(a: Tensor) -> Tensor:
    """(n, d) -> (n,) sum along axis 1."""
    width = a.shape[1]

    def bw(g):
        a.accumulate(np.repeat(g[:, None], width, axis=1))

    return Tensor(a.data.sum(axis=1), (a,), bw)


# ---------------------------------------------------------------------------
# indexing, shaping


class Grouping:
    """Positions of an index array grouped by value, runs bucketed by length.

    The positions holding one index value form a run, in their original
    order. ``by_id`` lays the runs out in id order: ``(positions, starts,
    ids)``, with positions None when that layout is the identity (a
    non-decreasing index, like a graph's ``dst`` column), else an array of
    the narrowest integer type that holds it, ``starts`` where each run
    begins in it and ``ids`` each run's index value. ``buckets`` holds, per
    distinct run length L, its c runs' ``(span, ids)``: ``span`` is their
    (L, c) positions, position-major (every run's first row, then its second
    and so on) and as narrow as ``positions``, or a slice for one run in place.

    Scalar rows are reduced with one ``ufunc.reduceat`` over the id-order
    layout, which walks each run contiguously: ``x`` is read in place where
    the index is non-decreasing, else its m values are gathered first. Rows
    of width k reduce one bucket at a time: its span gathers an (L, c, k)
    block that one ``ufunc.reduce`` over axis 0 collapses, with long
    contiguous inner loops and each run taken left to right. That is one
    Python step per distinct run length, at most sqrt(2m) for m positions
    whatever the skew of the index, and one bucket's rows copied at a time,
    none for a slice (the time column of a time-unaware graph).

    So a grouping fixes the summation order of every reduction by an index
    (the segment sum and softmax of the aggregation, the gradient of a row
    gather), and that order is part of the determinism contract: a kernel
    that sums a run in another order changes a seed's results by rounding.
    A graph groups each link column once (``model.FlatGraph``) and every
    epoch reuses it.
    """

    __slots__ = ("index", "by_id", "buckets")

    def __init__(self, index: np.ndarray):
        idx = self.index = np.asarray(index, dtype=np.int64)
        m = len(idx)
        narrow = np.min_scalar_type(m)
        order = None
        if (idx[1:] < idx[:-1]).any():
            # (index, position) keys are unique, so the fast unstable sort
            # yields exactly the stable order
            order = np.argsort(idx * m + np.arange(m)).astype(narrow)
            idx = idx[order]
        starts = np.flatnonzero(np.diff(idx, prepend=idx[:1] - 1))
        lengths = np.diff(starts, append=m)
        ids = idx[starts]
        self.by_id = (order, starts, ids)
        by_length = np.argsort(lengths, kind="stable")
        lengths, starts, ids = lengths[by_length], starts[by_length], ids[by_length]
        bounds = np.flatnonzero(np.diff(lengths, prepend=0, append=m + 1)).tolist()
        self.buckets = []
        for lo, hi in zip(bounds, bounds[1:]):
            a, length = int(starts[lo]), int(lengths[lo])
            if order is None and hi - lo == 1:
                span = slice(a, a + length)
            else:
                span = starts[lo:hi] + np.arange(length)[:, None]
                span = span.astype(narrow) if order is None else order[span]
            self.buckets.append((span, ids[lo:hi]))

    def reduce(self, ufunc: np.ufunc, x: np.ndarray, size: int, fill=0) -> np.ndarray:
        """``ufunc`` over the rows of ``x`` in each run; ``fill`` where no row falls."""
        rest = x.shape[1:]
        out = np.full((size,) + rest, fill, dtype=x.dtype)
        if not rest:
            pos, starts, ids = self.by_id
            if len(ids):
                out[ids] = ufunc.reduceat(x if pos is None else x.take(pos), starts)
            return out
        for span, ids in self.buckets:
            block = x[span] if isinstance(span, slice) else x.take(span, axis=0)
            out[ids] = ufunc.reduce(block, axis=0) if len(block) > 1 else block[0]
        return out


def gather_rows(a: Tensor, runs: Grouping) -> Tensor:
    """Select the rows ``runs.index`` names (axis 0); the backward sums each
    source row's gradients."""
    rows = a.shape[0]

    def bw(g):
        a.accumulate(runs.reduce(np.add, g, rows))

    return Tensor(np.take(a.data, runs.index, axis=0), (a,), bw)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p.accumulate(g[:, lo:hi])

    return Tensor(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bw)


def matvec(a: Tensor, v: Tensor, offset: int) -> Tensor:
    """(n, m) @ v[offset:offset + m] -> (n,), reading that slice of ``v`` in
    place. einsum keeps it off BLAS for reproducibility."""
    hi = offset + a.shape[1]
    a_val, v_val = a.data, v.data[offset:hi]

    def bw(g):
        a.accumulate(g[:, None] * v_val[None, :])
        gv = np.zeros(v.shape, dtype=v.dtype)
        gv[offset:hi] = np.einsum("nm,n->m", a_val, g)
        v.accumulate(gv)

    return Tensor(np.einsum("nm,m->n", a_val, v_val), (a, v), bw)


def scale_rows(x: Tensor, w: Tensor) -> Tensor:
    """Row i of x times scalar w[i], with w trainable."""
    x_val, w_val = x.data, w.data

    def bw(g):
        w.accumulate(np.einsum("nk,nk->n", g, x_val))
        g *= w_val[:, None]
        x.accumulate(g)

    return Tensor(x_val * w_val[:, None], (x, w), bw)


def scale_rows_const(x: Tensor, w: np.ndarray) -> Tensor:
    """Row i of x times constant w[i]."""
    w = np.asarray(w, dtype=x.data.dtype)

    def bw(g):
        x.accumulate(g * w[:, None])

    return Tensor(x.data * w[:, None], (x,), bw)


# ---------------------------------------------------------------------------
# model-specific primitives


def normalize_rows(a: Tensor) -> Tensor:
    """Scale every row to unit Euclidean norm (differentiated through)."""
    norms = np.sqrt(np.einsum("nk,nk->n", a.data, a.data))
    if np.any(norms < ZERO_NORM_TOLERANCE):
        bad = int(np.argmin(norms))
        raise DegenerateEmbeddingError(
            f"row {bad} has norm {norms[bad]:.3e} < {ZERO_NORM_TOLERANCE}"
        )
    inv = 1.0 / norms
    unit = a.data * inv[:, None]

    def bw(g):
        proj = np.einsum("nk,nk->n", unit, g)
        a.accumulate((g - unit * proj[:, None]) * inv[:, None])

    return Tensor(unit, (a,), bw)


def householder_apply(h: Tensor, x: Tensor) -> Tensor:
    """Row-wise reflection y = x - 2 (h.x) h for unit rows h.

    Equivalent to multiplying each row of x by the orthogonal matrix
    I - 2 h h^T without materializing it (O(k) per row instead of O(k^2)).
    """
    if h.shape != x.shape:
        raise ValueError(f"shape mismatch {h.shape} vs {x.shape}")
    h_val, x_val = h.data, x.data
    hx = np.einsum("nk,nk->n", h_val, x_val)
    # each result is built in one array, in the order and so with the bits
    # of x - 2.0 * hx[:, None] * h
    out = (2.0 * hx)[:, None] * h_val
    np.subtract(x_val, out, out=out)

    def bw(g):
        hg = np.einsum("nk,nk->n", h_val, g)
        gx = (2.0 * hg)[:, None] * h_val
        x.accumulate(np.subtract(g, gx, out=gx))
        # -2.0 * (hg[:, None] * x + hx[:, None] * g)
        gh = hg[:, None] * x_val
        g *= hx[:, None]
        gh += g
        gh *= -2.0
        h.accumulate(gh)

    return Tensor(out, (h, x), bw)


def segment_softmax(logits: Tensor, runs: Grouping, num_segments: int) -> Tensor:
    """Softmax within each segment (max-subtracted for stability).

    ``runs.index[i]`` names the group of element i; groups need not be
    contiguous. Elements of empty groups do not exist, so no division by
    zero can occur.
    """
    seg = runs.index
    z = logits.data
    e = np.exp(z - runs.reduce(np.maximum, z, num_segments, -np.inf)[seg])
    w = e / runs.reduce(np.add, e, num_segments)[seg]

    def bw(g):
        dot = runs.reduce(np.add, g * w, num_segments)
        g -= dot[seg]
        g *= w
        logits.accumulate(g)

    return Tensor(w, (logits,), bw)


def segment_sum(x: Tensor, runs: Grouping, num_segments: int) -> Tensor:
    """Sum rows of x into their segment's output row (``runs`` as in
    :func:`segment_softmax`)."""

    def bw(g):
        x.accumulate(np.take(g, runs.index, axis=0))

    return Tensor(runs.reduce(np.add, x.data, num_segments), (x,), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Zero elements with probability ``rate``, scaling survivors by 1/(1-rate).

    Identity in eval mode or at rate 0.
    """
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    factor = 1.0 / (1.0 - rate)

    def bw(g):
        g *= keep
        g *= factor
        x.accumulate(g)

    return Tensor(x.data * keep * factor, (x,), bw)


# ---------------------------------------------------------------------------
# non-tape helpers used by tests and verification suites


def materialize_householder(h: np.ndarray) -> np.ndarray:
    """The explicit k x k reflection matrix I - 2 h h^T for one unit vector."""
    h = np.asarray(h)
    return np.eye(h.shape[0], dtype=h.dtype) - 2.0 * np.outer(h, h)
