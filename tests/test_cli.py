"""End-to-end command-line runs: artifacts, exit codes, manifests, determinism."""
import json

import numpy as np
import pytest

from tkgalign.checkpoint import load_checkpoint
from tkgalign.cli import DATA_ROOT_ENV, main

SYNTH_ARGS = [
    "forge", "synth",
    "--entities", "20", "--relations", "3", "--time-steps", "24",
    "--quads-per-entity", "2", "--planted", "0", "--seeds", "6",
    "--seed", "5", "--name", "mini",
]

TRAIN_ARGS = [
    "train", "--repeats", "1", "--seed", "0", "--dim", "4", "--layers", "1",
    "--epochs", "2", "--dropout", "0.0",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "mini"
    assert main(SYNTH_ARGS + ["--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("cli_train")
    code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(out)])
    assert code == 0
    return out


def read_manifest(out_dir):
    return json.loads((out_dir / "run_manifest.json").read_text())


class TestForgeSynth:
    def test_writes_dataset_and_manifest(self, dataset_dir, capsys):
        for name in ("triples_1", "triples_2", "ent_ids_1", "ent_ids_2",
                     "rel_ids_1", "rel_ids_2", "time_id", "sup_pairs",
                     "ref_pairs", "stats.txt", "manifest.json"):
            assert (dataset_dir / name).is_file(), name
        man = read_manifest(dataset_dir)
        assert man["status"] == "success"
        assert man["command"] == "forge synth"
        assert man["seeds"] == [5]
        assert all("run_manifest" not in k for k in man["artifacts"])

    def test_rerun_is_byte_identical_outside_the_manifest(self, dataset_dir, tmp_path):
        twin = tmp_path / "mini2"
        assert main(SYNTH_ARGS + ["--out", str(twin)]) == 0
        names = sorted(p.name for p in dataset_dir.iterdir())
        assert names == sorted(p.name for p in twin.iterdir())
        for name in names:
            if name == "run_manifest.json":
                continue
            assert (dataset_dir / name).read_bytes() == (twin / name).read_bytes(), name

    def test_stdout_reports_stats(self, tmp_path, capsys):
        assert main(SYNTH_ARGS + ["--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "dataset" in out and "|E1|" in out
        assert "dataset written to" in out

    def test_infeasible_spec_exits_2(self, tmp_path, capsys):
        code = main(["forge", "synth", "--relations", "1", "--planted", "1",
                     "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert read_manifest(tmp_path / "bad")["status"] == "failure"


class TestForgeSplit:
    def test_split_external_source(self, tmp_path, capsys):
        src = tmp_path / "source.tsv"
        rng = np.random.default_rng(3)
        rows = set()
        while len(rows) < 40:
            s, o = rng.integers(0, 12, size=2)
            if s == o:
                continue
            rows.add((int(s), int(rng.integers(3)), int(o),
                      int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        src.write_text("".join(f"{s}\t{r}\t{o}\t{min(a, b)}\t{max(a, b)}\n"
                               for s, r, o, a, b in sorted(rows)))
        out = tmp_path / "split"
        code = main(["forge", "split", "--source", str(src), "--ratio", "0.5",
                     "--seeds", "4", "--out", str(out)])
        assert code == 0
        assert (out / "triples_1").is_file()
        assert "overlap 0.500000" in capsys.readouterr().out
        man = read_manifest(out)
        assert str(src) in man["inputs"]

    def test_missing_source_exits_2(self, tmp_path, capsys):
        code = main(["forge", "split", "--source", str(tmp_path / "ghost.tsv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestForgeStats:
    def test_stats_and_param_count(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "stats"
        code = main(["forge", "stats", "--data", str(dataset_dir),
                     "--k", "10", "--layers", "2", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "trainable parameters (k=10, layers=2):" in text
        assert "self-loop delta when enabled: +10" in text
        man = read_manifest(out)
        assert man["metrics"]["param_count"] > 0

    def test_data_root_env_resolution(self, dataset_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(DATA_ROOT_ENV, str(dataset_dir.parent))
        out = tmp_path / "stats_env"
        code = main(["forge", "stats", "--data", dataset_dir.name, "--out", str(out)])
        assert code == 0

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        monkeypatch_free_name = "definitely_not_here"
        code = main(["forge", "stats", "--data", monkeypatch_free_name,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dataset directory not found" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_and_summary(self, trained, capsys):
        run = trained / "run_0"
        for name in ("checkpoint.npz", "history.csv", "metrics.json"):
            assert (run / name).is_file(), name
        summary = json.loads((trained / "summary.json").read_text())
        assert set(summary) == {"l1", "csls"}
        assert summary["csls"]["runs"] == 1
        man = read_manifest(trained)
        assert man["status"] == "success"
        assert man["seeds"] == [0]
        assert any(k.endswith("checkpoint.npz") for k in man["artifacts"])

    def test_metrics_shape(self, trained):
        metrics = json.loads((trained / "run_0" / "metrics.json").read_text())
        assert metrics["seed"] == 0
        assert metrics["mode"] == "time-aware"
        assert len(metrics["reports"]) == 2
        assert {r["metric_space"] for r in metrics["reports"]} == {"l1", "csls"}
        assert metrics["worst_attention_deviation"] < 1e-6
        assert isinstance(metrics["fingerprint"], str)

    def test_history_layout(self, trained):
        rows = (trained / "run_0" / "history.csv").read_text().splitlines()
        assert rows[0] == "epoch,loss,mrr,hits1,hits10,seconds"
        assert len(rows) == 3  # header + 2 epochs

    def test_repeats_make_run_dirs(self, dataset_dir, tmp_path):
        out = tmp_path / "multi"
        code = main(["train", "--data", str(dataset_dir), "--repeats", "2",
                     "--seed", "7", "--dim", "4", "--layers", "1", "--epochs", "1",
                     "--dropout", "0.0", "--out", str(out)])
        assert code == 0
        assert (out / "run_7").is_dir() and (out / "run_8").is_dir()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["l1"]["runs"] == 2
        assert read_manifest(out)["seeds"] == [7, 8]

    def test_deterministic_artifacts_across_reruns(self, dataset_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(out)])
            assert code == 0
            outs.append(out)
        a, b = outs
        for rel in ("run_0/checkpoint.npz", "run_0/metrics.json", "summary.json"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        # history differs only in the wall-clock column
        strip = lambda text: [",".join(r.split(",")[:-1]) for r in text.splitlines()]
        assert strip((a / "run_0/history.csv").read_text()) == \
               strip((b / "run_0/history.csv").read_text())

    def test_config_file_then_flags_precedence(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 5, "num_layers": 1, "epochs": 1, "dropout": 0.0}))
        out_file = tmp_path / "from_file"
        assert main(["train", "--data", str(dataset_dir), "--repeats", "1",
                     "--seed", "0", "--config", str(cfg), "--out", str(out_file)]) == 0
        _, meta = load_checkpoint(out_file / "run_0" / "checkpoint.npz")
        assert meta.dim == 5

        out_flag = tmp_path / "flag_wins"
        assert main(["train", "--data", str(dataset_dir), "--repeats", "1",
                     "--seed", "0", "--config", str(cfg), "--dim", "6",
                     "--out", str(out_flag)]) == 0
        _, meta = load_checkpoint(out_flag / "run_0" / "checkpoint.npz")
        assert meta.dim == 6

    def test_unknown_config_key_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dim": 4, "learning_rate": 0.1}))
        out = tmp_path / "badrun"
        code = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err
        assert read_manifest(out)["status"] == "failure"

    def test_broken_dataset_names_missing_file(self, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in dataset_dir.iterdir():
            if p.name not in ("sup_pairs", "run_manifest.json"):
                (broken / p.name).write_bytes(p.read_bytes())
        code = main(TRAIN_ARGS + ["--data", str(broken), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sup_pairs" in capsys.readouterr().err

    def test_emit_plots(self, dataset_dir, tmp_path):
        out = tmp_path / "plots"
        code = main(["train", "--data", str(dataset_dir), "--repeats", "1",
                     "--seed", "0", "--dim", "4", "--layers", "1", "--epochs", "2",
                     "--dropout", "0.0", "--eval-every", "1", "--emit-plots",
                     "--out", str(out)])
        assert code == 0
        loss = (out / "run_0" / "plot_loss.dat").read_text().splitlines()
        assert loss[0] == "# epoch loss"
        assert len(loss) == 3
        val = (out / "run_0" / "plot_validation.dat").read_text().splitlines()
        assert val[0] == "# epoch mrr hits1 hits10"

    def test_mode_flag_reaches_checkpoint(self, dataset_dir, tmp_path):
        out = tmp_path / "tu"
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--mode", "time-unaware",
                                  "--out", str(out)])
        assert code == 0
        _, meta = load_checkpoint(out / "run_0" / "checkpoint.npz")
        assert meta.mode == "time-unaware"

    def test_bad_threads_exits_2(self, dataset_dir, tmp_path, capsys):
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--threads", "0",
                                  "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--threads" in capsys.readouterr().err


class TestEval:
    def test_reports_and_artifacts(self, dataset_dir, trained, tmp_path, capsys):
        out = tmp_path / "ev"
        code = main(["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(dataset_dir), "--metric", "both",
                     "--direction", "both", "--out", str(out)])
        assert code == 0
        reports = json.loads((out / "eval_report.json").read_text())
        combos = {(r["metric_space"], r["direction"]) for r in reports}
        assert combos == {("l1", "g1->g2"), ("l1", "g2->g1"),
                          ("csls", "g1->g2"), ("csls", "g2->g1")}
        csv = (out / "eval_report.csv").read_text().splitlines()
        assert csv[0] == "metric,value,partition,metric_space,direction,seed,seconds"
        assert len(csv) == 1 + 3 * len(reports)
        text = capsys.readouterr().out
        assert "hits@1" in text
        man = read_manifest(out)
        assert "csls/g1->g2/all" in man["metrics"]

    def test_partition_rows(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "evp"
        code = main(["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(dataset_dir), "--metric", "l1", "--partition",
                     "--out", str(out)])
        assert code == 0
        reports = json.loads((out / "eval_report.json").read_text())
        partitions = {r["partition"] for r in reports}
        assert "all" in partitions
        assert partitions <= {"all", "highly", "lowly"}
        n_all = next(r for r in reports if r["partition"] == "all")["ranks"]
        n_sub = sum(len(r["ranks"]) for r in reports if r["partition"] != "all")
        assert n_sub == len(n_all)

    def test_report_order(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "order"
        code = main(["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(dataset_dir), "--metric", "both", "--direction", "both",
                     "--partition", "--out", str(out)])
        assert code == 0
        reports = json.loads((out / "eval_report.json").read_text())
        keys = [(r["metric_space"], r["direction"], r["partition"]) for r in reports]
        parts = [p for p in ("highly", "lowly") if ("l1", "g1->g2", p) in keys]
        assert parts
        assert keys == [(space, direction, part)
                        for space in ("l1", "csls")
                        for direction in ("g1->g2", "g2->g1")
                        for part in ("all", *parts)]
        assert [r["seconds"] is not None for r in reports] == [k[2] == "all" for k in keys]
        csv = (out / "eval_report.csv").read_text().splitlines()[1:]
        assert [tuple(row.split(",")[2:5]) for row in csv[::3]] == \
               [(p, s, d) for s, d, p in keys]

    @pytest.mark.parametrize("mode", ["time-aware", "time-unaware"])
    @pytest.mark.parametrize("self_loops", [True, False])
    @pytest.mark.parametrize("unique_times", [True, False])
    def test_eval_reproduces_train_time_reports(self, dataset_dir, tmp_path, mode, self_loops,
                                                unique_times):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"unique_times": unique_times, "self_loops": self_loops,
                                   "mode": mode}))
        out = tmp_path / "run"
        assert main(TRAIN_ARGS + ["--config", str(cfg), "--data", str(dataset_dir),
                                  "--out", str(out)]) == 0
        ck = out / "run_0" / "checkpoint.npz"
        _, meta = load_checkpoint(ck)
        assert (meta.mode, meta.self_loops, meta.unique_times) == (mode, self_loops, unique_times)
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset_dir),
                     "--metric", "both", "--out", str(tmp_path / "ev")]) == 0
        trained = json.loads((out / "run_0" / "metrics.json").read_text())["reports"]
        evaluated = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        strip = lambda r: {k: v for k, v in r.items() if k != "seconds"}
        assert [strip(r) for r in evaluated] == [strip(r) for r in trained]

    def test_checkpoint_dataset_mismatch_exits_2(self, trained, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["forge", "synth", "--entities", "26", "--relations", "3",
                     "--time-steps", "24", "--quads-per-entity", "2", "--planted", "0",
                     "--seeds", "6", "--seed", "1", "--out", str(other)]) == 0
        code = main(["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(other), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "does not fit" in capsys.readouterr().err

    def test_single_metric_single_direction(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "ev1"
        code = main(["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(dataset_dir), "--metric", "csls", "--k-csls", "3",
                     "--out", str(out)])
        assert code == 0
        reports = json.loads((out / "eval_report.json").read_text())
        assert len(reports) == 1
        assert reports[0]["metric_space"] == "csls"
        assert reports[0]["seconds"] is not None


class TestMainPlumbing:
    def test_unknown_flag_returns_2(self, capsys):
        assert main(["train", "--no-such-flag"]) == 2
        capsys.readouterr()

    def test_no_command_returns_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_version_returns_0(self, capsys):
        assert main(["--version"]) == 0
        assert "tkgalign" in capsys.readouterr().out

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "train" in out and "forge" in out
