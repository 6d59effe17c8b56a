"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tkgalign.tkg import parse_dataset  # noqa: E402
from tracing import Span, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = gen.Shape(entities=60, quads=240, relations=4, time_steps=20, seeds=12,
                 test_pairs=30, untimed_share=0.3)


def test_generator_is_deterministic_and_parses(tmp_path):
    a = gen.generate(tmp_path / "a", TINY, seed=5)
    b = gen.generate(tmp_path / "b", TINY, seed=5)
    c = gen.generate(tmp_path / "c", TINY, seed=6)
    assert a == b
    assert a["sha256"] != c["sha256"]
    for name in gen.FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    g1, g2, seeds = parse_dataset(tmp_path / "a")
    assert g1.num_entities == g2.num_entities == TINY.entities
    assert len(g1.quadruples) + len(g2.quadruples) == a["quads_total"]
    assert len(seeds.train_pairs) == TINY.seeds
    assert len(seeds.test_pairs) == TINY.test_pairs


def _span(name, start, end, parent=-1, **attrs):
    return Span(name, start, end, parent, attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("a.child", 1.5, 2.5, 1),
        _span("b", 2.0, 5.0, 0),  # overlaps a: counted once
        _span("c", 6.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 3.0, 1.0])


def test_layer_metrics_per_epoch_medians_and_missing_spans():
    spans = [_span("cli.main", 0.0, 10.0), _span("train.train", 1.0, 9.5, 0)]
    for lo, step in ((1.0, 0.2), (4.0, 0.4), (7.0, 0.3)):
        spans.append(_span("train.sample_negatives", lo, lo + 0.1, 1, negatives=8))
        spans.append(_span("optim.step", lo + 1.0, lo + 1.0 + step, 1, params=40))
    values, missing = layer_metrics(spans, {"train"})
    assert values["optim.step.s"] == pytest.approx(0.3)  # median over the 3 epochs
    assert values["train.negatives"] == 8
    assert values["train.epoch_s.p50"] == pytest.approx(3.0)  # epochs of 3, 3, 2.5 s
    assert values["train.epoch_s.p90"] == pytest.approx(3.0)
    assert values["cli.self_s"] == pytest.approx(1.5)
    assert values["trace.coverage"] == pytest.approx(0.85)
    # layers the workload has no trait for read zero ...
    assert values["evaluate.partition_test_pairs.calls"] == 0
    # ... while expected spans that never appeared are missing, not zero
    assert "autodiff.backward.s" in missing and "autodiff.backward.s" not in values
    assert "tkg.parse_dataset.s" in missing


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    layers = [(m.name, m.unit) for m in tracing.METRICS] + list(tracing.RUN_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_at_tiny_size(tmp_path, monkeypatch, name, trace):
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)
    monkeypatch.setattr(run, "SETUPS_PER_SAMPLE", 1)
    w = dataclasses.replace(WORKLOADS[name], shape=TINY)
    result = run.run_workload(w, seed=3, seconds=0.0, trace=trace, out_root=tmp_path)
    assert result["failed"] == 0, result["samples"]
    assert result["repeatable_outputs"]
    if trace:
        assert result["missing"] == []
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        assert result["metrics"]["trace.coverage"]["median"] > 0.5
    else:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["n"] == 2 for m in result["metrics"].values())
