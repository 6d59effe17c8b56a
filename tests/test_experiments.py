"""The canned experiments report the quantities the acceptance criteria compute,
and ``tkgalign experiment`` runs them end to end."""
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tkgalign import experiments
from tkgalign.cli import main
from tkgalign.errors import ConfigError
from tkgalign.evaluate import partition_test_pairs, rank_alignment
from tkgalign.experiments import (
    EXPERIMENTS,
    PLANTED_AMBIGUITY,
    SENSITIVITY_GAP,
    planted_ambiguity_experiment,
    sensitivity_gap_experiment,
)
from tkgalign.forge import synth_tkg
from tkgalign.model import model_forward
from tkgalign.train import TrainConfig, train

MODES = (("time-aware", "tea"), ("time-unaware", "tu"))


def short(cfg, epochs=20):
    return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=epochs),
                               train_seeds=(0,))


def retrained(cfg, mode):
    """Seed 0's run of ``cfg`` again, ranked by hand: (run, reps, merged test pairs)."""
    data = synth_tkg(cfg.forge)
    run = train(data.g1, data.g2, data.seeds, dataclasses.replace(cfg.train, mode=mode, seed=0))
    reps = model_forward(run.store, run.graph, run.config.model_config()).data
    return run, reps, run.merged.merged_pairs(data.seeds.test_pairs)


@pytest.fixture(scope="module")
def sensitivity_report():
    return sensitivity_gap_experiment(short(SENSITIVITY_GAP))


@pytest.fixture(scope="module")
def planted_report():
    return planted_ambiguity_experiment(short(PLANTED_AMBIGUITY))


@pytest.mark.parametrize("mode, tag", MODES)
def test_partition_hits1_is_criterion_8s(sensitivity_report, mode, tag):
    """Each partition is re-ranked inside its own sub-pool, as criterion 8 does."""
    run, reps, merged_test = retrained(short(SENSITIVITY_GAP), mode)
    high, low = partition_test_pairs(merged_test, run.index)
    assert len(high) and len(low)
    row = sensitivity_report["runs"][0]
    assert (row["num_high"], row["num_low"]) == (len(high), len(low))
    assert row[tag]["hits1_high"] == rank_alignment(reps, merged_test[high],
                                                    metric_space="csls").hits1
    assert row[tag]["hits1_low"] == rank_alignment(reps, merged_test[low],
                                                   metric_space="csls").hits1
    assert row[tag]["hits1"] == rank_alignment(reps, merged_test, metric_space="csls").hits1


def test_empty_partition_is_named():
    """PLANTED_AMBIGUITY's forge spec has no untimed facts, so no test pair is
    lowly time-sensitive and the lowly gap is undefined."""
    cfg = dataclasses.replace(short(SENSITIVITY_GAP, epochs=2), forge=PLANTED_AMBIGUITY.forge)
    with pytest.raises(ConfigError, match="lowly"):
        sensitivity_gap_experiment(cfg)


@pytest.mark.parametrize("experiment, cfg, epochs", [
    (planted_ambiguity_experiment, PLANTED_AMBIGUITY, 500),
    (sensitivity_gap_experiment, SENSITIVITY_GAP, 2000),
], ids=["planted", "sensitivity"])
def test_runs_train_the_reference_setup(monkeypatch, experiment, cfg, epochs):
    """Each run trains the experiment's TrainConfig with only its mode and seed
    replaced; this pins the settings both experiments have always used."""
    seen = []

    def spy(g1, g2, seeds, config):
        seen.append(config)
        return train(g1, g2, seeds, dataclasses.replace(config, epochs=1))

    monkeypatch.setattr(experiments, "train", spy)
    experiment(dataclasses.replace(cfg, train_seeds=(3,)))
    reference = TrainConfig(dim=25, num_layers=2, lr=0.005, margin=1.0, dropout=0.3,
                            precision="f32", self_loops=True, epochs=epochs)
    assert seen == [dataclasses.replace(reference, mode=mode, seed=3) for mode, _ in MODES]


@pytest.mark.parametrize("mode, tag", MODES)
def test_planted_hits1_is_a_subset_of_whole_pool_ranks(planted_report, mode, tag):
    _, reps, merged_test = retrained(short(PLANTED_AMBIGUITY), mode)
    ranks = np.asarray(rank_alignment(reps, merged_test, metric_space="csls").ranks)
    idx = planted_report["planted_test_indices"]
    assert idx
    assert planted_report["runs"][0][tag]["planted_hits1"] == float((ranks[idx] == 1).mean())


@pytest.mark.parametrize("epochs, out", [(2, "reports"), (0, None)],
                         ids=["out", "default-out"])
@pytest.mark.parametrize("name, keys", [
    ("planted_ambiguity", {"num_runs", "tea_planted_perfect_runs", "tu_planted_low_runs",
                           "tea_ge_tu_overall_runs", "mean_tea_planted_hits1",
                           "mean_tu_planted_hits1"}),
    ("sensitivity_gap", {"num_runs", "mean_gap_high", "mean_gap_low",
                         "pattern_holds", "runs_where_pattern_holds"}),
], ids=["planted_ambiguity", "sensitivity_gap"])
def test_cli_runs_either_experiment(tmp_path, monkeypatch, capsys, name, keys, epochs, out):
    """``tkgalign experiment`` runs either experiment; ``--epochs 0`` is kept,
    not replaced by the default, and without ``--out`` it writes
    ``runs/<name>.json``."""
    monkeypatch.chdir(tmp_path)
    code = main(["experiment", name, "--epochs", str(epochs), "--train-seeds", "0",
                 *(["--out", out] if out else [])])
    assert code == 0, capsys.readouterr().err
    report = json.loads((tmp_path / (out or "runs") / f"{name}.json").read_text())
    assert report["experiment"] == name
    assert (report["config"]["train"]["epochs"], report["config"]["train_seeds"]) == (epochs, [0])
    assert set(report["summary"]) == keys
    assert report["summary"]["num_runs"] == 1


@pytest.fixture
def no_forging(monkeypatch):
    monkeypatch.setattr(experiments, "synth_tkg", lambda spec: pytest.fail("forged a dataset"))


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "-1"], "error: epochs must be >= 0, got -1\n"),
    (["--train-seeds", "0", "-2"], "error: seed must be >= 0, got -2\n"),
    (["--train-seeds", "0", "1", "0"],
     "error: training seed 0 is repeated; each seed is one run\n"),
], ids=["epochs", "train-seeds", "repeated-seed"])
def test_cli_refuses_bad_settings_before_forging(tmp_path, monkeypatch, capsys, no_forging,
                                                 flags, message):
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "sensitivity_gap", *flags]) == 2
    assert capsys.readouterr() == ("", message)
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
        Path("runs"), Path("runs", "run_manifest.json")]
    assert json.loads((tmp_path / "runs" / "run_manifest.json").read_text())["status"] == "failure"


def test_cli_refuses_out_on_a_file_before_forging(tmp_path, capsys, no_forging):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    assert main(["experiment", "planted_ambiguity", "--out", str(blocker)]) == 2
    assert capsys.readouterr() == ("", f"error: --out {blocker} is a file or lies under one\n")
    assert blocker.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_cli_reports_are_byte_identical_on_rerun(tmp_path, name):
    paths = [tmp_path / run / f"{name}.json" for run in ("a", "b")]
    for path in paths:
        assert main(["experiment", name, "--epochs", "2", "--train-seeds", "0",
                     "--out", str(path.parent)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_manifest_records_report_and_config(tmp_path):
    out = tmp_path / "out"
    assert main(["experiment", "sensitivity_gap", "--epochs", "2", "--train-seeds", "0",
                 "--out", str(out)]) == 0
    path = out / "sensitivity_gap.json"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "success"
    assert manifest["artifacts"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
    resolved = json.loads(json.dumps(dataclasses.asdict(short(SENSITIVITY_GAP, epochs=2))))
    assert manifest["config"] == resolved == json.loads(path.read_text())["config"]
    assert manifest["seeds"] == [0]


def test_cli_manifest_keeps_the_manifest_it_replaces(tmp_path, capsys):
    out = tmp_path / "shared"
    for name in ("planted_ambiguity", "sensitivity_gap"):
        assert main(["experiment", name, "--epochs", "2", "--train-seeds", "0",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    first, second = out / "planted_ambiguity.json", out / "sensitivity_gap.json"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["artifacts"] == {str(second): hashlib.sha256(second.read_bytes()).hexdigest()}
    [previous] = manifest["previous"]
    assert previous["argv"][:2] == ["experiment", "planted_ambiguity"]
    assert previous["status"] == "success" and "previous" not in previous
    assert previous["artifacts"] == {str(first): hashlib.sha256(first.read_bytes()).hexdigest()}
