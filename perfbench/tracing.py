"""Spans around tkgalign's layers, recorded from outside the package.

:class:`Tracer` replaces the public functions of each tkgalign module with
timing wrappers (in every tkgalign module that imported them, so
``cli.rank_alignment`` and ``train.similarity_matrix`` are covered too),
records one :class:`Span` per call, and restores the originals on
:meth:`Tracer.uninstall`. Autodiff backward time is taken by wrapping the
``backward_fn`` of every tensor an op returns. Spans are kept in memory and
written out by the caller when the run ends.

:func:`layer_metrics` turns a span list into the per-layer metrics listed in
``METRICS``. Training-time metrics are medians over epochs; everything else
covers the whole command. A metric whose spans were expected but never seen
is reported as missing, never as zero.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Single-threaded span stack; spans nest by call order.

    Span times are this process's CPU seconds, like the benchmark's
    end-to-end times (see ``run.py``).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.process_time(), float("nan"), parent, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.process_time()
        self._stack.pop()

    def context(self) -> str:
        """Name of the innermost open span that is not an autodiff op."""
        for i in reversed(self._stack):
            if not self.spans[i].name.startswith("autodiff."):
                return self.spans[i].name
        return ""


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, hi = 0.0, float("-inf")
    for lo, end in sorted(intervals):
        lo = max(lo, hi)
        if end > lo:
            total += end - lo
            hi = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, [])]
        out.append(s.seconds - union_length(inside))
    return out


# ---------------------------------------------------------------------------
# wrappers

# every autodiff op that returns a new tape node
AUTODIFF_OPS = (
    "add", "sub", "mul", "scale", "add_scalar", "relu", "absolute", "sum_all",
    "row_sum", "gather_rows", "concat_cols", "matvec", "scale_rows",
    "scale_rows_const", "normalize_rows", "householder_apply", "segment_softmax",
    "segment_sum", "dropout",
)


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def _tape_size(root) -> tuple[int, int]:
    """Nodes reachable from a backward root, and the bytes their values hold."""
    seen, stack, nbytes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(node.parents)
    return len(seen), nbytes


class Tracer:
    """Installs timing wrappers into the imported tkgalign modules."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tkgalign" or mod_name.startswith("tkgalign.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _timed(self, original, name, after: Callable | None):
        """``original`` inside a span; ``name`` is a string or f(args, kwargs) -> str,
        ``after(span, result, args, kwargs)`` runs once the span is closed."""
        rec = self.rec

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = rec.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(span)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        return wrapper

    def _wrap(self, module, attr: str, name, after: Callable | None = None) -> None:
        original = getattr(module, attr, None)
        if original is not None:  # else renamed or removed: its spans show up as missing
            self._replace_everywhere(original, self._timed(original, name, after))

    def _wrap_method(self, cls, attr: str, name: str, after: Callable | None = None) -> None:
        original = getattr(cls, attr, None)
        if original is not None:
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._timed(original, name, after))

    def _op_done(self, op: str):
        rec = self.rec

        def after(span, out, args, kwargs):
            span.attrs["bytes"] = int(out.data.nbytes)
            if any(out is a for a in args) or out.backward_fn is None:
                return  # identity (e.g. dropout in eval mode): no new tape node
            fn, ctx = out.backward_fn, rec.context()

            def timed_backward(g):
                s = rec.open(f"autodiff.{op}.bwd", ctx=ctx)
                try:
                    fn(g)
                finally:
                    rec.close(s)

            out.backward_fn = timed_backward

        return after

    def install(self) -> None:
        from tkgalign import autodiff, checkpoint, cli, evaluate, model, optim, tkg, train

        rec = self.rec
        self._wrap(cli, "main", "cli.main")
        self._wrap(tkg, "parse_dataset", "tkg.parse_dataset", lambda s, r, a, k: s.attrs.update(
            quads=len(r[0].quadruples) + len(r[1].quadruples)))
        self._wrap(tkg, "merge_pair", "tkg.merge_pair")
        self._wrap(model, "prepare_graph", "model.prepare_graph",
                   lambda s, r, a, k: s.attrs.update(links=int(r[0].num_links)))

        def forward_name(args, kwargs):
            training = kwargs.get("training", args[3] if len(args) > 3 else False)
            return "model.model_forward." + ("train" if training else "infer")

        def layer_name(args, kwargs):
            nu_time = kwargs.get("nu_time", args[4] if len(args) > 4 else None)
            return "model.layer_forward.L" + nu_time.name.rsplit("_", 1)[-1]

        self._wrap(model, "model_forward", forward_name)
        self._wrap(model, "layer_forward", layer_name)
        self._wrap(train, "train", "train.train")
        self._wrap(train, "apply_time_unaware", "train.apply_time_unaware")
        self._wrap(train, "sample_negatives", "train.sample_negatives",
                   lambda s, r, a, k: s.attrs.update(negatives=int(r[0].size + r[1].size)))
        self._wrap(train, "margin_loss", "train.margin_loss")
        for op in AUTODIFF_OPS:
            self._wrap(autodiff, op, f"autodiff.{op}", self._op_done(op))

        original_backward = autodiff.backward

        @functools.wraps(original_backward)
        def backward(root):
            nodes, nbytes = _tape_size(root)
            span = rec.open("autodiff.backward", nodes=nodes, bytes=nbytes)
            try:
                return original_backward(root)
            finally:
                rec.close(span)

        self._replace_everywhere(original_backward, backward)
        self._wrap_method(autodiff.Tensor, "accumulate", "autodiff.accumulate")
        self._wrap_method(optim.RmsPropState, "step", "optim.step",
                          lambda s, r, a, k: s.attrs.update(params=int(a[1].num_scalars())))
        self._wrap(evaluate, "similarity_matrix", "evaluate.similarity_matrix",
                   lambda s, r, a, k: s.attrs.update(cells=int(r.size), bytes=int(r.nbytes)))
        for fn in ("csls_adjust", "compute_metrics", "rank_alignment", "partition_test_pairs"):
            self._wrap(evaluate, fn, f"evaluate.{fn}")
        self._wrap(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint",
                   lambda s, r, a, k: s.attrs.update(bytes=_file_bytes(a[0])))
        self._wrap(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint",
                   lambda s, r, a, k: s.attrs.update(bytes=_file_bytes(a[0])))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics


class Scope:
    """Queries over the spans of one window (a whole run or one epoch).

    Every span name a query touches is added to ``asked``, so the caller can
    tell a metric whose spans never appeared from one that measured zero.
    """

    def __init__(self, spans: list[Span], selfs: list[float], traits: set[str]):
        self.spans, self.selfs, self.traits = spans, selfs, traits
        self.asked: set[str] = set()

    def _named(self, name: str) -> list[int]:
        self.asked.add(name)
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def busy(self, name: str) -> float:
        return sum(self.spans[i].seconds for i in self._named(name))

    def self_s(self, name: str) -> float:
        return sum(self.selfs[i] for i in self._named(name))

    def calls(self, name: str) -> int:
        return len(self._named(name))

    def attrs(self, name: str, key: str) -> list:
        return [self.spans[i].attrs[key] for i in self._named(name)]

    def epoch_lengths(self) -> list[float]:
        self.asked.update(("train.sample_negatives", "train.train"))
        return [hi - lo for lo, hi in epoch_windows(self.spans)]

    def backward_in(self, ctx: str) -> float:
        """Op-backward seconds for tape nodes created inside span ``ctx``."""
        self.asked.add(ctx)
        return sum(s.seconds for s in self.spans
                   if s.name.endswith(".bwd") and s.attrs.get("ctx") == ctx)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    fn: Callable[[Scope], float]
    per_epoch: bool = False
    needs: str | None = None  # workload trait without which the layer does no work


def _percentile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _epoch_seconds(scope: Scope, q: float) -> float:
    seconds = scope.epoch_lengths()
    return _percentile(seconds, q) if seconds else 0.0


def _coverage(scope: Scope) -> float:
    total = scope.busy("cli.main")
    return 1.0 - scope.self_s("cli.main") / total if total else 0.0


TIMED_OPS = ("gather_rows", "concat_cols", "segment_sum", "segment_softmax",
             "householder_apply", "matvec", "scale_rows", "absolute", "sub", "add",
             "row_sum", "relu", "dropout", "normalize_rows")
LOSS_OPS = ("absolute", "sub", "row_sum")  # only the training loss runs these
BYTES_OPS = ("gather_rows", "concat_cols", "segment_sum", "householder_apply", "matvec")


def _metrics() -> list[Metric]:
    m = [
        Metric("tkg.parse_dataset.s", "s", lambda r: r.busy("tkg.parse_dataset")),
        Metric("tkg.parse_dataset.quads", "count", lambda r: sum(r.attrs("tkg.parse_dataset", "quads"))),
        Metric("tkg.merge_pair.s", "s", lambda r: r.busy("tkg.merge_pair")),
        Metric("model.prepare_graph.s", "s", lambda r: r.busy("model.prepare_graph")),
        Metric("model.graph.links", "count", lambda r: max(r.attrs("model.prepare_graph", "links"), default=0)),
        Metric("model.model_forward.train.self_s", "s",
               lambda e: e.self_s("model.model_forward.train"), True, "train"),
        Metric("model.model_forward.infer.s", "s", lambda r: r.busy("model.model_forward.infer")),
        Metric("model.layer_forward.L0.s", "s", lambda e: e.busy("model.layer_forward.L0"), True),
        Metric("model.layer_forward.L1.s", "s", lambda e: e.busy("model.layer_forward.L1"), True),
        Metric("train.apply_time_unaware.s", "s",
               lambda r: r.busy("train.apply_time_unaware"), needs="time-unaware"),
        Metric("train.epoch_s.p50", "s", lambda r: _epoch_seconds(r, 0.5), needs="train"),
        Metric("train.epoch_s.p90", "s", lambda r: _epoch_seconds(r, 0.9), needs="train"),
        Metric("train.sample_negatives.s", "s", lambda e: e.busy("train.sample_negatives"), True, "train"),
        Metric("train.margin_loss.fwd_s", "s", lambda e: e.busy("train.margin_loss"), True, "train"),
        Metric("train.margin_loss.bwd_s", "s", lambda e: e.backward_in("train.margin_loss"), True, "train"),
        Metric("train.negatives", "count",
               lambda e: sum(e.attrs("train.sample_negatives", "negatives")), True, "train"),
        Metric("autodiff.backward.s", "s", lambda e: e.busy("autodiff.backward"), True, "train"),
        Metric("autodiff.backward.self_s", "s", lambda e: e.self_s("autodiff.backward"), True, "train"),
        Metric("autodiff.tape.nodes", "count",
               lambda e: sum(e.attrs("autodiff.backward", "nodes")), True, "train"),
        Metric("autodiff.tape.bytes", "bytes",
               lambda e: sum(e.attrs("autodiff.backward", "bytes")), True, "train"),
        Metric("autodiff.accumulate.calls", "count", lambda e: e.calls("autodiff.accumulate"), True, "train"),
        Metric("autodiff.accumulate.s", "s", lambda e: e.busy("autodiff.accumulate"), True, "train"),
    ]
    for op in TIMED_OPS:
        m.append(Metric(f"autodiff.{op}.fwd_s", "s", lambda e, op=op: e.busy(f"autodiff.{op}"),
                        True, "train" if op in LOSS_OPS else None))
        m.append(Metric(f"autodiff.{op}.bwd_s", "s", lambda e, op=op: e.busy(f"autodiff.{op}.bwd"),
                        True, "train"))
    for op in BYTES_OPS:
        m.append(Metric(f"autodiff.{op}.bytes", "bytes",
                        lambda e, op=op: sum(e.attrs(f"autodiff.{op}", "bytes")), True))
    m += [
        Metric("optim.step.s", "s", lambda e: e.busy("optim.step"), True, "train"),
        Metric("optim.params", "count", lambda r: max(r.attrs("optim.step", "params"), default=0), needs="train"),
        Metric("evaluate.similarity_matrix.s", "s", lambda r: r.busy("evaluate.similarity_matrix")),
        Metric("evaluate.similarity_matrix.calls", "count", lambda r: r.calls("evaluate.similarity_matrix")),
        Metric("evaluate.similarity_matrix.cells", "count",
               lambda r: sum(r.attrs("evaluate.similarity_matrix", "cells"))),
        Metric("evaluate.similarity_matrix.max_bytes", "bytes",
               lambda r: max(r.attrs("evaluate.similarity_matrix", "bytes"), default=0)),
        Metric("evaluate.csls_adjust.s", "s", lambda r: r.busy("evaluate.csls_adjust")),
        Metric("evaluate.csls_adjust.calls", "count", lambda r: r.calls("evaluate.csls_adjust")),
        Metric("evaluate.compute_metrics.s", "s", lambda r: r.busy("evaluate.compute_metrics")),
        Metric("evaluate.rank_alignment.calls", "count", lambda r: r.calls("evaluate.rank_alignment")),
        Metric("evaluate.partition_test_pairs.s", "s",
               lambda r: r.busy("evaluate.partition_test_pairs"), needs="eval"),
        Metric("evaluate.partition_test_pairs.calls", "count",
               lambda r: r.calls("evaluate.partition_test_pairs"), needs="eval"),
        Metric("checkpoint.save_checkpoint.s", "s",
               lambda r: r.busy("checkpoint.save_checkpoint"), needs="train"),
        Metric("checkpoint.load_checkpoint.s", "s",
               lambda r: r.busy("checkpoint.load_checkpoint"), needs="eval"),
        Metric("checkpoint.bytes", "bytes", lambda r: sum(r.attrs(
            "checkpoint.save_checkpoint" if "train" in r.traits else "checkpoint.load_checkpoint",
            "bytes"))),
        Metric("cli.self_s", "s", lambda r: r.self_s("cli.main")),
        Metric("trace.coverage", "ratio", _coverage),
    ]
    return m


METRICS = _metrics()
# computed by the harness from whole runs rather than from one span list
RUN_METRICS = (("trace.overhead_s", "s"), ("trace.missing", "count"))


def epoch_windows(spans: list[Span]) -> list[tuple[float, float]]:
    """[start, end) of each training epoch: from one negative draw to the next."""
    starts = [s.start for s in spans if s.name == "train.sample_negatives"]
    ends = [s.end for s in spans if s.name == "train.train"]
    if not starts or not ends:
        return []
    return list(zip(starts, starts[1:] + [max(ends)]))


def layer_metrics(spans: list[Span], traits: set[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values and the names of metrics whose spans were missing.

    A metric whose workload lacks the trait it needs reads 0 (the layer does
    no work there). One that should have been measured but whose spans never
    appeared is left out of the values and named in the missing list.
    """
    selfs = self_times(spans)
    seen = {s.name for s in spans}
    run = Scope(spans, selfs, traits)
    epochs = []
    for lo, hi in epoch_windows(spans):
        idx = [i for i, s in enumerate(spans) if lo <= s.start < hi]
        epochs.append(Scope([spans[i] for i in idx], [selfs[i] for i in idx], traits))
    values: dict[str, float] = {}
    missing: list[str] = []
    for metric in METRICS:
        if metric.needs is not None and metric.needs not in traits:
            values[metric.name] = 0.0
            continue
        scopes = epochs if metric.per_epoch and epochs else [run]
        for scope in scopes:
            scope.asked = set()
        value = statistics.median(metric.fn(scope) for scope in scopes)
        if set().union(*(scope.asked for scope in scopes)) - seen:
            missing.append(metric.name)
        else:
            values[metric.name] = float(value)
    return values, missing
