"""End-to-end command-line runs: artifacts, exit codes, manifests, determinism."""
import ctypes
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from tkgalign import cli, model
from tkgalign.checkpoint import FORMAT_VERSION, CheckpointMeta, load_checkpoint, save_checkpoint
from tkgalign.cli import DATA_ROOT_ENV, _build_train_config, build_parser, main
from tkgalign.forge import ForgeSpec
from tkgalign.tkg import merge_pair, parse_dataset
from tkgalign.train import TrainConfig, build_graph

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


# Run in a child process, so the heap setting stays out of this one: the
# mapped-block bytes a 64 MiB array adds before and after ``main``.
HEAP_PROBE = """
import ctypes, json, sys
import numpy as np
from tkgalign.cli import main

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2

def mapped_by_64_mib():
    before = mallinfo2().hblkhd
    block = np.ones(64 << 17)
    return mallinfo2().hblkhd - before

default = mapped_by_64_mib()
code = main(json.loads(sys.argv[1]))
print(json.dumps([default, code, mapped_by_64_mib()]))
"""


def has_mallinfo2() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except OSError:
        return False


def read_manifest(out_dir):
    return json.loads((out_dir / "run_manifest.json").read_text())


def copy_with_empty(dataset_dir, dest, *emptied):
    """A copy of a dataset directory whose files named in ``emptied`` hold no lines."""
    dest.mkdir()
    for p in dataset_dir.iterdir():
        if p.name != "run_manifest.json":
            (dest / p.name).write_bytes(b"" if p.name in emptied else p.read_bytes())
    return dest


def printed_table(stdout, out_dir):
    """The forge stdout without its last line, and the stats.txt it wrote."""
    head, tail = stdout.rsplit("dataset written to ", 1)
    assert tail == f"{out_dir}\n"
    return head, (out_dir / "stats.txt").read_text()


def file_and_flag_values(default, choices):
    """A config-file value off the default, then a flag's text and parsed value off the file's."""
    if isinstance(default, bool):
        return not default, "on" if default else "off", default
    if isinstance(default, int):
        return default + 1, str(default + 2), default + 2
    if isinstance(default, float):
        return default / 2, str(default / 4), default / 4
    return next(c for c in choices if c != default), default, default


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

    def test_printed_table_is_stats_txt(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(SYNTH_ARGS + ["--planted", "1", "--out", str(out)]) == 0
        printed, written = printed_table(capsys.readouterr().out, out)
        assert printed == written
        assert written.splitlines()[1].split()[0] == "mini"

    def test_single_entity_exits_2(self, tmp_path, capsys):
        out = tmp_path / "one"
        assert main(SYNTH_ARGS + ["--entities", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: entities must be >= 2, got 1\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "triples_1").exists()

    def test_seeds_taking_every_pair_exit_2(self, tmp_path, capsys):
        out = tmp_path / "all-seeds"
        code = main(["forge", "synth", "--entities", "10", "--quads-per-entity", "2",
                     "--relations", "3", "--time-steps", "10", "--planted", "0",
                     "--ratio", "1.0", "--seeds", "10", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed_count 10 takes every alignable pair, leaving no test pair\n")
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "ref_pairs").exists()

    def test_infeasible_spec_exits_2(self, tmp_path, capsys):
        code = main(["forge", "synth", "--relations", "1", "--planted", "1",
                     "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert read_manifest(tmp_path / "bad")["status"] == "failure"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(SYNTH_ARGS + ["--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "triples_1").exists()

    @pytest.mark.parametrize("command", ["synth", "split"])
    def test_ratio_outside_unit_interval_exits_2(self, tmp_path, capsys, command):
        """Each subcommand checks the ratio: synth in ``ForgeSpec``, split in ``split_overlap``."""
        argv = SYNTH_ARGS
        if command == "split":
            src = tmp_path / "source.tsv"
            src.write_text("".join(f"{s}\t0\t{s + 1}\t1\t2\n" for s in range(8)))
            argv = ["forge", "split", "--source", str(src), "--seeds", "2"]
        out = tmp_path / "ratio"
        assert main(argv + ["--ratio", "1.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: overlap_ratio must be in [0,1], got 1.5\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "triples_1").exists()

    def test_entity_without_room_for_its_quads_exits_2(self, tmp_path, capsys):
        """Three entities, one relation and one time step hold two quads per subject."""
        out = tmp_path / "crowded"
        code = main(["forge", "synth", "--entities", "3", "--relations", "1", "--time-steps", "1",
                     "--quads-per-entity", "3", "--planted", "0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == ("error: cannot place 3 distinct quads for entity 0; "
                                           "increase relations/time_steps/entities\n")
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "triples_1").exists()

    def test_too_few_entities_for_the_anchors_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no-anchors"
        code = main(["forge", "synth", "--entities", "4", "--planted", "1", "--seeds", "1",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: too few entities to host the planted motif anchors\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "triples_1").exists()

    def test_seeds_below_the_anchor_seeds_exit_2(self, tmp_path, capsys):
        out = tmp_path / "few-seeds"
        code = main(["forge", "synth", "--entities", "21", "--relations", "3", "--time-steps",
                     "24", "--quads-per-entity", "2", "--planted", "1", "--seeds", "2",
                     "--seed", "5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed_count 2 below the 3 anchor seeds\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "sup_pairs").exists()


    def test_every_spec_field_has_a_flag_that_reaches_the_spec(self, tmp_path):
        parser = build_parser()
        forge_parser = parser._subparsers._group_actions[0].choices["forge"]
        synth_parser = forge_parser._subparsers._group_actions[0].choices["synth"]
        actions = {a.dest: a for a in synth_parser._actions}
        spec = ForgeSpec(entities=30, relations=5, time_steps=20, quads_per_entity=3,
                         planted_pairs=1, planted_untimed_pairs=1,
                         nontemporal_entity_fraction=0.25, overlap_ratio=0.75, seed_count=7,
                         seed=4, name="every")
        flags = []
        for f in dataclasses.fields(ForgeSpec):
            assert f.name in actions, f"ForgeSpec.{f.name} has no forge synth flag"
            value = getattr(spec, f.name)
            assert value != actions[f.name].default, f.name
            flags += [actions[f.name].option_strings[0], str(value)]
        out = tmp_path / "every"
        assert main(["forge", "synth", *flags, "--out", str(out)]) == 0
        assert read_manifest(out)["config"] == dataclasses.asdict(spec)


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

    def test_printed_table_is_stats_txt(self, tmp_path, capsys):
        src = tmp_path / "source.tsv"
        src.write_text("".join(f"{s}\t{s % 3}\t{(s * 7 + 1) % 40}\t{s % 5}\t{s % 5 + 2}\n"
                               for s in range(40)))
        out = tmp_path / "split"
        assert main(["forge", "split", "--source", str(src), "--ratio", "0.3", "--seeds", "3",
                     "--name", "cut", "--out", str(out)]) == 0
        printed, written = printed_table(capsys.readouterr().out, out)
        assert printed == written
        assert written.splitlines()[1].split()[0] == "cut"

    def test_seeds_taking_every_pair_exit_2(self, tmp_path, capsys):
        src = tmp_path / "source.tsv"
        src.write_text("".join(f"{s}\t0\t{s + 1}\t1\t2\n" for s in range(8)))
        out = tmp_path / "o"
        code = main(["forge", "split", "--source", str(src), "--ratio", "1.0", "--seeds", "9",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed_count 9 takes every alignable pair, leaving no test pair\n")
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "ref_pairs").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        src = tmp_path / "source.tsv"
        src.write_text("".join(f"{s}\t0\t{s + 1}\t1\t2\n" for s in range(8)))
        out = tmp_path / "o"
        code = main(["forge", "split", "--source", str(src), "--seeds", "2", "--seed", "-1",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "triples_1").exists()

    @pytest.mark.parametrize("seeds", ["-1", "0"])
    def test_non_positive_seed_count_exits_2(self, tmp_path, capsys, seeds):
        src = tmp_path / "source.tsv"
        src.write_text("".join(f"{s}\t0\t{s + 1}\t1\t2\n" for s in range(8)))
        out = tmp_path / "o"
        code = main(["forge", "split", "--source", str(src), "--seeds", seeds,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: seed_count must be >= 1, got {seeds}\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "sup_pairs").exists()

    def test_missing_source_exits_2(self, tmp_path, capsys):
        code = main(["forge", "split", "--source", str(tmp_path / "ghost.tsv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--entities", "30"], ["--planted", "0"]])
    def test_generator_options_exit_2(self, tmp_path, capsys, flags):
        """Without ``--source`` there is nothing to split (``forge synth
        --planted 0`` generates and splits a source); the generator's knobs
        are not split options."""
        src = tmp_path / "source.tsv"
        src.write_text("0\t0\t1\t1\t2\n")
        source = ["--source", str(src)] if flags else []
        code = main(["forge", "split", *source, *flags, "--out", str(tmp_path / "o")])
        assert code == 2
        assert (flags or ["--source"])[0] in capsys.readouterr().err

    def test_help_lists_only_split_options(self, capsys):
        assert main(["forge", "split", "--help"]) == 0
        options = {w.strip("[,") for w in capsys.readouterr().out.split() if w.startswith(("--", "[--"))}
        assert options == {"--help", "--source", "--ratio", "--seeds", "--seed", "--name", "--out"}

    @pytest.mark.parametrize("bad, where", [
        ("0\t1\t2\t-1\t4\n", "source.tsv:3: negative time id"),
        ("0 1 2 3 4\n", "source.tsv:3: expected 5 columns"),
    ])
    def test_bad_source_line_exits_2(self, tmp_path, capsys, bad, where):
        src = tmp_path / "source.tsv"
        src.write_text("0\t0\t1\t1\t2\n1\t0\t2\t2\t3\n" + bad)
        code = main(["forge", "split", "--source", str(src), "--seeds", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert where in capsys.readouterr().err

    def test_repeated_source_line_dropped(self, tmp_path, caplog):
        rows = "".join(f"{s}\t0\t{s + 1}\t1\t2\n" for s in range(8))
        src, twin = tmp_path / "source.tsv", tmp_path / "twin.tsv"
        src.write_text(rows + "0\t0\t1\t1\t2\n")
        twin.write_text(rows)
        outs = []
        for path in (src, twin):
            outs.append(tmp_path / path.stem)
            code = main(["forge", "split", "--source", str(path), "--seeds", "2", "--out", str(outs[-1])])
            assert code == 0
        assert "dropped 1 duplicate quadruples" in caplog.text
        for name in ("triples_1", "triples_2", "sup_pairs", "ref_pairs", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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

    @pytest.mark.parametrize("k, layers, message", [
        ("-3", "-1", "embedding dim must be >= 1, got -3"),
        ("0", "2", "embedding dim must be >= 1, got 0"),
        ("10", "-1", "layer count must be >= 0, got -1"),
    ], ids=["both", "k-zero", "layers"])
    def test_bad_k_or_layers_exits_2(self, dataset_dir, tmp_path, capsys, k, layers, message):
        out = tmp_path / "o"
        code = main(["forge", "stats", "--data", str(dataset_dir), "--k", k,
                     "--layers", layers, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "trainable parameters" not in captured.out
        assert read_manifest(out)["status"] == "failure"

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

    @pytest.mark.parametrize("content, message", [
        ('{"dim": 4, "learning_rate": 0.1}', "{cfg}: unknown config keys ['learning_rate']\n"),
        (None, "config file not found: {cfg}\n"),
        ("[4]", "{cfg}: config must be a JSON object\n"),
        ('{"dim": 4', "{cfg}: invalid JSON ("),
    ], ids=["unknown-key", "missing", "not-an-object", "not-json"])
    def test_unknown_config_key_exits_2(self, dataset_dir, tmp_path, capsys, content, message):
        cfg = tmp_path / "bad.json"
        if content is not None:
            cfg.write_text(content)
        out = tmp_path / "badrun"
        code = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(cfg=cfg)) and err.count("\n") == 1
        assert read_manifest(out)["status"] == "failure"

    @pytest.mark.parametrize("key, value, kind", [
        ("self_loops", "off", "bool"),
        ("dim", "8", "int"),
        ("epochs", True, "int"),
        ("lr", True, "float"),
        ("dropout", "0.1", "float"),
        ("precision", ["f32"], "str"),
    ], ids=["bool-as-str", "int-as-str", "int-as-bool", "float-as-bool", "float-as-str",
            "str-as-list"])
    def test_config_value_of_wrong_type_exits_2(self, dataset_dir, tmp_path, capsys,
                                                key, value, kind):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"dim": 4, "num_layers": 1, "epochs": 2, "dropout": 0.0,
                                   key: value}))
        out = tmp_path / "o"
        code = main(["train", "--data", str(dataset_dir), "--repeats", "1",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg}: {key!r} must be {kind}, got {value!r}\n"
        assert read_manifest(out)["status"] == "failure"

    @pytest.mark.parametrize("key, message", [
        ("lr", "lr must be finite and positive"),
        ("margin", "margin must be finite and >= 0"),
    ], ids=["lr", "margin"])
    def test_config_float_beyond_64_bit_integers_exits_2(self, dataset_dir, tmp_path, capsys,
                                                          key, message):
        """A float field takes a JSON integer and checks it as the float it converts
        to: one too large for any float is refused as not finite, by name and value."""
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({key: 2 ** 1024}))
        out = tmp_path / "o"
        code = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}, got {2 ** 1024}\n"
        assert read_manifest(out)["status"] == "failure"

    @pytest.mark.parametrize("key, message", [
        ("dim", "embedding dim must be below 2**63"),
        ("num_layers", "layer count must be below 2**63"),
        ("negatives_per_positive", "negatives_per_positive must be below 2**63"),
    ], ids=["dim", "num_layers", "negatives_per_positive"])
    def test_config_count_beyond_64_bits_exits_2(self, dataset_dir, tmp_path, capsys, monkeypatch,
                                                 key, message):
        """A count that sizes arrays is refused by name when the config is built,
        before the dataset is parsed: nothing is ever sized by it."""
        monkeypatch.setattr(cli, "parse_dataset", None)  # never reached
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({key: 10 ** 20}))
        out = tmp_path / "o"
        code = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}, got {10 ** 20}\n"
        assert read_manifest(out)["status"] == "failure"

    def test_non_utf8_config_file_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"dim": 4, "name": "caf\xe9"}')
        out = tmp_path / "o"
        code = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: invalid JSON (") and err.count("\n") == 1
        assert "can't decode byte 0xe9" in err
        assert read_manifest(out)["status"] == "failure"

    def test_config_float_field_takes_an_int(self, tmp_path):
        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps({"margin": 2, "lr": 1, "self_loops": False}))
        args = build_parser().parse_args(["train", "--data", "unused", "--config", str(cfg)])
        config = _build_train_config(args)
        assert (config.margin, config.lr, config.self_loops) == (2, 1, False)

    def test_every_shipped_config_loads(self):
        """The paper's reference settings in configs/ load as they are, so a
        renamed or removed setting fails here rather than for a user."""
        paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        assert paths
        for path in paths:
            config = TrainConfig(**cli._load_config_file(str(path)))
            assert path.stem.endswith(config.mode), path

    @pytest.mark.parametrize("flags", [["--threads", "2"], ["--emit-plots"]])
    def test_removed_flags_exit_2(self, dataset_dir, tmp_path, capsys, flags):
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(tmp_path / "o")]
                    + flags)
        assert code == 2
        assert flags[0] in capsys.readouterr().err

    def test_non_positive_k_csls_exits_2(self, dataset_dir, tmp_path, capsys):
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--k-csls", "0",
                                  "--out", str(tmp_path / "flag")])
        assert code == 2
        assert "k_csls must be >= 1" in capsys.readouterr().err
        cfg = tmp_path / "k0.json"
        cfg.write_text(json.dumps({"k_csls": 0}))
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--config", str(cfg),
                                  "--out", str(tmp_path / "file")])
        assert code == 2
        assert "k_csls must be >= 1" in capsys.readouterr().err

    def test_removed_config_key_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"dim": 4, "unique_times": True}))
        code = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
                     "--out", str(tmp_path / "oldrun")])
        assert code == 2
        assert "unique_times" in capsys.readouterr().err

    def test_broken_dataset_names_missing_file(self, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in dataset_dir.iterdir():
            if p.name not in ("sup_pairs", "run_manifest.json"):
                (broken / p.name).write_bytes(p.read_bytes())
        code = main(TRAIN_ARGS + ["--data", str(broken), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sup_pairs" in capsys.readouterr().err

    def test_empty_ref_pairs_exits_2_before_training(self, dataset_dir, tmp_path, capsys,
                                                     monkeypatch):
        data = copy_with_empty(dataset_dir, tmp_path / "no-test", "ref_pairs")
        monkeypatch.setattr("tkgalign.cli.train", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "o"
        assert main(TRAIN_ARGS + ["--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {data / 'ref_pairs'}: no test pairs to rank\n"
        assert read_manifest(out)["status"] == "failure"

    def test_empty_sup_pairs_exits_2_before_training(self, dataset_dir, tmp_path, capsys):
        data = copy_with_empty(dataset_dir, tmp_path / "no-seeds", "sup_pairs")
        out = tmp_path / "o"
        code = main(TRAIN_ARGS + ["--neg-per-pos", "3", "--data", str(data), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: need at least one seed pair to train\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "run_0").exists()

    def test_negative_neg_per_pos_exits_2(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--neg-per-pos", "-1",
                                  "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: negatives_per_positive must be >= 0 (0 = auto)\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "run_0").exists()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_non_positive_repeats_exits_2(self, dataset_dir, tmp_path, capsys, repeats):
        out = tmp_path / "o"
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--repeats", repeats,
                                  "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: repeats must be >= 1, got {repeats}\n"
        assert read_manifest(out)["status"] == "failure"

    @pytest.mark.parametrize("flags, config, message", [
        (["--seed", "-1"], None, "seed must be >= 0, got -1"),
        ([], {"seed": -1}, "seed must be >= 0, got -1"),
        (["--eval-every", "-1"], None, "eval_every must be >= 0, got -1"),
        (["--eval-every", "1", "--patience", "-2"], None, "patience must be >= 0, got -2"),
        (["--patience", "3"], None, "patience needs eval_every > 0: early stopping counts evals"),
        ([], {"patience": 3}, "patience needs eval_every > 0: early stopping counts evals"),
    ], ids=["seed-flag", "seed-config", "eval-every", "patience", "patience-no-eval-flag",
            "patience-no-eval-config"])
    def test_invalid_count_exits_2(self, dataset_dir, tmp_path, capsys, flags, config, message):
        if config is not None:
            cfg = tmp_path / "neg.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", str(cfg)]
        out = tmp_path / "o"
        argv = ["train", "--data", str(dataset_dir), "--repeats", "1", "--dim", "4",
                "--layers", "1", "--epochs", "3", "--out", str(out)]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read_manifest(out)["status"] == "failure"
        assert not [p for p in out.iterdir() if p.is_dir()]

    @pytest.mark.parametrize("flags, config, message", [
        (["--margin", "nan"], None, "margin must be finite and >= 0, got nan"),
        (["--margin", "inf"], None, "margin must be finite and >= 0, got inf"),
        (["--lr", "nan"], None, "lr must be finite and positive, got nan"),
        (["--lr", "inf"], None, "lr must be finite and positive, got inf"),
        ([], '{"margin": NaN}', "margin must be finite and >= 0, got nan"),
    ], ids=["margin-nan", "margin-inf", "lr-nan", "lr-inf", "margin-nan-config"])
    def test_non_finite_value_exits_2(self, dataset_dir, tmp_path, capsys, flags, config,
                                      message):
        if config is not None:
            cfg = tmp_path / "nan.json"
            cfg.write_text(config)
            flags = ["--config", str(cfg)]
        out = tmp_path / "o"
        assert main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read_manifest(out)["status"] == "failure"
        assert not [p for p in out.iterdir() if p.is_dir()]

    @pytest.mark.parametrize("lr, message", [
        ("1e37", "error: training diverged at epoch "),
        ("1e30", "error: non-finite gradient for parameter 'entity'\n"),
    ], ids=["loss", "gradient"])
    def test_non_finite_training_exits_1(self, dataset_dir, tmp_path, capsys, lr, message):
        """A learning rate near the float32 ceiling overflows the forward (a
        non-finite loss) or, a little lower, the gradient: a runtime failure,
        reported as one ``error:`` line with no numpy warning before it."""
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(TRAIN_ARGS + ["--epochs", "50", "--lr", lr, "--data", str(dataset_dir),
                                      "--out", str(out)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        errors = capsys.readouterr().err.splitlines(keepends=True)
        assert len(errors) == 1 and errors[0].startswith(message)
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "summary.json").exists()

    def test_every_config_field_has_a_flag_that_overrides_the_file(self, tmp_path):
        parser = build_parser()
        train_parser = parser._subparsers._group_actions[0].choices["train"]
        actions = {a.dest: a for a in train_parser._actions}
        in_file, flags, from_flags = {}, [], {}
        for f in dataclasses.fields(TrainConfig):
            assert f.name in actions, f"TrainConfig.{f.name} has no train flag"
            action = actions[f.name]
            values = file_and_flag_values(f.default, action.choices)
            in_file[f.name], text, from_flags[f.name] = values
            flags += [action.option_strings[0], text]
        cfg = tmp_path / "all.json"
        cfg.write_text(json.dumps(in_file))
        base = ["train", "--data", "unused", "--config", str(cfg)]
        assert dataclasses.asdict(_build_train_config(parser.parse_args(base))) == in_file
        assert dataclasses.asdict(_build_train_config(parser.parse_args(base + flags))) == from_flags

    def test_mode_flag_reaches_checkpoint(self, dataset_dir, tmp_path):
        out = tmp_path / "tu"
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--mode", "time-unaware",
                                  "--out", str(out)])
        assert code == 0
        _, meta = load_checkpoint(out / "run_0" / "checkpoint.npz")
        assert meta.mode == "time-unaware"


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
    @pytest.mark.parametrize("k_csls", [None, 3])
    def test_eval_reproduces_train_time_reports(self, dataset_dir, tmp_path, monkeypatch, mode,
                                                self_loops, k_csls):
        """eval's CSLS neighbourhood defaults to the one the run trained with; an
        inference forward cut into blocks of a few links each reports the same."""
        out = tmp_path / "run"
        k_flags = [] if k_csls is None else ["--k-csls", str(k_csls)]
        assert main(TRAIN_ARGS + k_flags + ["--mode", mode,
                                            "--self-loops", "on" if self_loops else "off",
                                            "--data", str(dataset_dir), "--out", str(out)]) == 0
        ck = out / "run_0" / "checkpoint.npz"
        _, meta = load_checkpoint(ck)
        assert (meta.mode, meta.self_loops, meta.k_csls) == (mode, self_loops, k_csls or 10)
        trained = json.loads((out / "run_0" / "metrics.json").read_text())["reports"]
        strip = lambda r: {k: v for k, v in r.items() if k != "seconds"}
        graph, _ = build_graph(merge_pair(*parse_dataset(dataset_dir)[:2]), meta)
        max_links = 3
        assert len(graph.blocks(max_links)) > 3
        for block_bytes in (model.INFERENCE_BLOCK_BYTES, max_links * meta.dim * 4):
            monkeypatch.setattr(model, "INFERENCE_BLOCK_BYTES", block_bytes)
            ev = tmp_path / f"ev{block_bytes}"
            assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset_dir),
                         "--metric", "both", "--out", str(ev)]) == 0
            evaluated = json.loads((ev / "eval_report.json").read_text())
            assert [strip(r) for r in evaluated] == [strip(r) for r in trained]

    def test_empty_ref_pairs_exits_2(self, dataset_dir, trained, tmp_path, capsys):
        data = copy_with_empty(dataset_dir, tmp_path / "no-test", "ref_pairs")
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(data), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data / 'ref_pairs'}: no test pairs to rank\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "eval_report.json").exists()

    def test_non_positive_k_csls_exits_2(self, dataset_dir, trained, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(dataset_dir), "--k-csls", "-5", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: k_csls must be >= 1, got -5\n"

    def test_k_csls_flag_ranks_as_training_with_it(self, dataset_dir, trained, tmp_path):
        """``eval --k-csls 3`` on a checkpoint trained with the default neighbourhood
        reports what a flagless eval of one trained with ``--k-csls 3`` does."""
        assert main(TRAIN_ARGS + ["--k-csls", "3", "--data", str(dataset_dir),
                                  "--out", str(tmp_path / "k3")]) == 0
        evals = []
        for ck, flags in ((trained, ["--k-csls", "3"]), (tmp_path / "k3", [])):
            out = tmp_path / f"ev{len(evals)}"
            assert main(["eval", "--checkpoint", str(ck / "run_0" / "checkpoint.npz"),
                         "--data", str(dataset_dir), "--partition", "--direction", "both",
                         "--out", str(out)] + flags) == 0
            reports = json.loads((out / "eval_report.json").read_text())
            evals.append(([{k: v for k, v in r.items() if k != "seconds"} for r in reports],
                          read_manifest(out)["config"]["k_csls"]))
        assert evals[0] == evals[1]
        assert evals[0][1] == 3

    def test_checkpoint_dataset_mismatch_exits_2(self, trained, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["forge", "synth", "--entities", "26", "--relations", "3",
                     "--time-steps", "24", "--quads-per-entity", "2", "--planted", "0",
                     "--seeds", "6", "--seed", "1", "--out", str(other)]) == 0
        code = main(["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(other), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "does not fit" in capsys.readouterr().err

    def test_checkpoint_of_another_graph_exits_2(self, dataset_dir, trained, tmp_path,
                                                  capsys):
        """Same table sizes, other links: the object column of ``triples_1``
        permuted. The graph's digest differs from the header's, so eval refuses
        instead of scoring a graph the model never saw."""
        other = copy_with_empty(dataset_dir, tmp_path / "permuted")
        rows = [line.split("\t") for line in (other / "triples_1").read_text().splitlines()]
        objects = [r[2] for r in rows]
        for r, o in zip(rows, objects[1:] + objects[:1]):
            r[2] = o
        (other / "triples_1").write_text("".join("\t".join(r) + "\n" for r in rows))
        ck = trained / "run_0" / "checkpoint.npz"
        _, meta = load_checkpoint(ck)
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(ck), "--data", str(other), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint was trained on another graph: graph_sha256 "
                              f"{meta.graph_sha256} in header, ")
        assert err.endswith(" built from this dataset\n") and err.count("\n") == 1
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("version", [3, 4, 5])
    def test_foreign_format_header_exits_2(self, dataset_dir, trained, tmp_path, capsys,
                                           version):
        """A format-3 checkpoint (it had no k_csls), a format-4 one (it recorded
        seven run settings by hand) or a format-5 one (no graph digest) is
        refused, not a crash."""
        with np.load(trained / "run_0" / "checkpoint.npz") as archive:
            arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
            header = json.loads(bytes(archive["__meta__"]).decode())
        kept = ["dim", "num_layers", "precision", "self_loops", "mode", "seed",
                "num_entities", "num_relation_rows", "num_times"] + ["k_csls"] * (version == 4)
        if version == 5:  # every run setting and the sizes
            kept = [k for k in header if k not in ("format_version", "graph_sha256")]
        header = {"format_version": version, **{k: header[k] for k in kept}}
        old = tmp_path / f"format{version}.npz"
        np.savez(old, __meta__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **arrays)
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(old), "--data", str(dataset_dir),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {old}: checkpoint format {version}, expected {FORMAT_VERSION}\n"
        assert read_manifest(out)["status"] == "failure"

    @pytest.mark.parametrize("dropped, added", [
        *((f.name, None) for f in dataclasses.fields(CheckpointMeta)),
        (None, "threads"),
    ], ids=[*(f"missing-{f.name}" for f in dataclasses.fields(CheckpointMeta)), "unknown"])
    def test_header_keys_must_match_exit_2(self, dataset_dir, trained, tmp_path, capsys,
                                           dropped, added):
        """Every key must be there, so no setting falls back to a TrainConfig default."""
        with np.load(trained / "run_0" / "checkpoint.npz") as archive:
            arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
            header = json.loads(bytes(archive["__meta__"]).decode())
        header.pop(dropped, None)
        if added:
            header[added] = 1
        path = tmp_path / "keys.npz"
        np.savez(path, __meta__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **arrays)
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir),
                     "--out", str(out)])
        assert code == 2
        if dropped == "format_version":
            message = f"checkpoint format None, expected {FORMAT_VERSION}"
        else:
            missing, unknown = [dropped] if dropped else [], [added] if added else []
            message = f"checkpoint header: missing keys {missing}, unknown keys {unknown}"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert read_manifest(out)["status"] == "failure"
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "error: checkpoint not found: {path}\n"),
        (b"", "error: {path}: not a checkpoint archive ("),
        (b"not an archive\n", "error: {path}: not a checkpoint archive ("),
        ("bare-npy", "error: {path}: not a checkpoint archive ("),
        ("no-header", "error: {path}: not a checkpoint (missing header)\n"),
        ("header-without-suffix", "error: {path}: not a checkpoint (missing header)\n"),
    ], ids=["missing", "empty", "not-zip", "bare-npy", "no-header", "header-without-suffix"])
    def test_missing_or_non_npz_checkpoint_exits_2(self, dataset_dir, tmp_path, capsys,
                                                   content, message):
        path = tmp_path / "checkpoint.npz"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content == "bare-npy":
            with open(path, "wb") as f:
                np.save(f, np.zeros(3, dtype=np.float32))
        elif content == "no-header":
            np.savez(path, entity=np.zeros((2, 2), dtype=np.float32))
        elif content == "header-without-suffix":
            with zipfile.ZipFile(path, "w") as archive:
                archive.writestr("__meta__", b"{}")
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message.format(path=path)) and err.count("\n") == 1
        assert read_manifest(out)["status"] == "failure"

    @pytest.mark.parametrize("defect, message", [
        ("header-not-json", "checkpoint header is not JSON"),
        ("missing-array", "missing ['attn_rel_0'], unknown []"),
        ("unknown-array", "missing [], unknown ['extra']"),
        ("shape-mismatch", "shape mismatch for 'entity'"),
        ("integer-array", "checkpoint array 'attn_time_0' is int64, expected float32\n"),
    ], ids=["header-not-json", "missing-array", "unknown-array", "shape-mismatch",
            "integer-array"])
    def test_malformed_checkpoint_exits_2(self, dataset_dir, trained, tmp_path, capsys,
                                          defect, message):
        with np.load(trained / "run_0" / "checkpoint.npz") as archive:
            arrays = {k: archive[k] for k in archive.files}
        if defect == "header-not-json":
            arrays["__meta__"] = np.frombuffer(b'{"format_version": 4,', dtype=np.uint8)
        elif defect == "missing-array":
            del arrays["attn_rel_0"]
        elif defect == "unknown-array":
            arrays["extra"] = np.zeros(3, dtype=np.float32)
        elif defect == "integer-array":
            arrays["attn_time_0"] = arrays["attn_time_0"].astype(np.int64)
        else:
            arrays["entity"] = arrays["entity"][:-1]
        path = tmp_path / "bad.npz"
        np.savez(path, **arrays)
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err
        assert read_manifest(out)["status"] == "failure"

    def test_damaged_checkpoint_header_exits_2(self, dataset_dir, trained, tmp_path, capsys):
        """One flipped bit in the stored header fails that member's CRC check."""
        raw = bytearray((trained / "run_0" / "checkpoint.npz").read_bytes())
        raw[raw.index(b'"format_version"') + 1] ^= 0x20  # "f" -> "F"
        path = tmp_path / "bad.npz"
        path.write_bytes(bytes(raw))
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: checkpoint member '__meta__' is unreadable (")
        assert "Bad CRC-32" in err and err.count("\n") == 1
        assert read_manifest(out)["status"] == "failure"

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_checkpoint_exits_2(self, dataset_dir, trained, tmp_path, capsys, value):
        """A NaN table would rank every pair first and one infinite row gives a CSLS
        MRR of inf; both are refused before anything is scored."""
        with np.load(trained / "run_0" / "checkpoint.npz") as archive:
            arrays = {k: archive[k] for k in archive.files}
        if np.isnan(value):
            arrays["entity"] = np.full_like(arrays["entity"], value)
        else:
            arrays["entity"][0] = value
        path = tmp_path / "bad.npz"
        np.savez(path, **arrays)
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir),
                     "--metric", "both", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {path}: checkpoint array 'entity' holds non-finite values\n"
        assert read_manifest(out)["status"] == "failure"

    def test_overflowing_checkpoint_exits_1(self, dataset_dir, trained, tmp_path, capsys):
        """Finite tables whose representations are too large for their L1 and CSLS
        scores to stay finite are refused after the forward, before any ranking."""
        store, meta = load_checkpoint(trained / "run_0" / "checkpoint.npz")
        store["entity"].data *= np.float32(1e38)
        path = tmp_path / "huge.npz"
        save_checkpoint(path, store, meta)
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir),
                     "--metric", "both", "--direction", "both", "--partition",
                     "--out", str(out)])
        assert code == 1
        n = meta.num_entities
        assert capsys.readouterr().err == (f"error: the representations of {n} of {n} entities"
                                           " are not finite or too large to score\n")
        manifest = read_manifest(out)
        assert manifest["status"] == "failure"
        assert manifest["error"].startswith("NonFiniteError: ")
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("mode", "bogus", "mode must be one of ('time-aware', 'time-unaware'), got 'bogus'"),
        ("dim", 4.0, "'dim' must be int, got 4.0"),
    ], ids=["mode", "dim"])
    def test_header_value_of_wrong_kind_exits_2(self, dataset_dir, trained, tmp_path, capsys,
                                               key, value, message):
        with np.load(trained / "run_0" / "checkpoint.npz") as archive:
            arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
            header = json.loads(bytes(archive["__meta__"]).decode())
        header[key] = value
        path = tmp_path / "bad.npz"
        np.savez(path, __meta__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **arrays)
        out = tmp_path / "o"
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: checkpoint header: {message}\n"
        assert read_manifest(out)["status"] == "failure"

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

    def test_out_of_memory_exits_1_with_one_line(self, dataset_dir, tmp_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 321. MiB for an array")

        monkeypatch.setattr(cli, "train", exhausted)
        out = tmp_path / "out"
        assert main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory (Unable to allocate 321. MiB for an array)\n"
        assert "Traceback" not in err
        manifest = read_manifest(out)
        assert manifest["status"] == "failure"
        assert manifest["error"] == "MemoryError: Unable to allocate 321. MiB for an array"

    @pytest.mark.parametrize("under", [False, True], ids=["is-file", "under-file"])
    @pytest.mark.parametrize("command", ["train", "eval", "forge-synth", "forge-split",
                                         "forge-stats"])
    def test_out_on_a_file_exits_2_without_manifest(self, dataset_dir, trained, tmp_path, capsys,
                                                    command, under):
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        source = tmp_path / "source.tsv"
        source.write_text("".join(f"{s}\t0\t{s + 1}\t1\t2\n" for s in range(8)))
        argv = {
            "train": TRAIN_ARGS + ["--data", str(dataset_dir)],
            "eval": ["eval", "--checkpoint", str(trained / "run_0" / "checkpoint.npz"),
                     "--data", str(dataset_dir)],
            "forge-synth": SYNTH_ARGS,
            "forge-split": ["forge", "split", "--source", str(source), "--seeds", "2"],
            "forge-stats": ["forge", "stats", "--data", str(dataset_dir)],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out} is a file or lies under one\n"
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["source.tsv", "taken"]


class TestHeapSetting:
    @pytest.mark.skipif(not has_mallinfo2(), reason="needs glibc's mallinfo2")
    def test_main_serves_large_blocks_from_the_heap(self, tmp_path):
        argv = SYNTH_ARGS + ["--out", str(tmp_path / "mini")]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", HEAP_PROBE, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        default, code, after_main = json.loads(proc.stdout.splitlines()[-1])
        assert default >= 64 << 20  # glibc maps a block this large by default
        assert code == 0 and after_main == 0

    def test_no_op_on_another_c_library(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the C library was loaded")

        monkeypatch.setattr(cli.platform, "libc_ver", lambda *args, **kwargs: ("", ""))
        monkeypatch.setattr(cli.ctypes, "CDLL", unreachable)
        assert cli._keep_freed_memory_in_heap() is None
        assert main(["--version"]) == 0
        assert capsys.readouterr().err == ""


class TestDatasetFiles:
    @pytest.mark.parametrize("command", [["forge", "stats"], TRAIN_ARGS],
                             ids=["forge-stats", "train"])
    def test_duplicate_time_label_exits_2(self, dataset_dir, tmp_path, capsys, command):
        data = tmp_path / "dup"
        shutil.copytree(dataset_dir, data)
        lines = (data / "time_id").read_text().splitlines()
        label = lines[1].split("\t")[1]
        lines[2] = f"2\t{label}"  # id 2 takes id 1's label
        (data / "time_id").write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main(command + ["--data", str(data), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: time_id:3: duplicate label 't1' (also id 1)\n"
        assert read_manifest(out)["status"] == "failure"

    @pytest.mark.parametrize("command", ["forge-stats", "train", "forge-split"])
    def test_non_utf8_byte_exits_2_naming_its_line(self, dataset_dir, tmp_path, capsys, command):
        data = tmp_path / "latin1"
        shutil.copytree(dataset_dir, data)
        source = tmp_path / "source.tsv"
        source.write_text("".join(f"{s}\t0\t{s + 1}\t1\t2\n" for s in range(8)))
        bad = source if command == "forge-split" else data / "ent_ids_1"
        lines = len(bad.read_text().splitlines())
        with open(bad, "ab") as f:
            f.write(b"0\tcaf\xe9\n")
        argv = {
            "forge-stats": ["forge", "stats", "--data", str(data)],
            "train": TRAIN_ARGS + ["--data", str(data)],
            "forge-split": ["forge", "split", "--source", str(source), "--seeds", "2"],
        }[command]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad.name}:{lines + 1}: byte 0xe9 is not UTF-8\n"
        manifest = read_manifest(out)
        assert manifest["status"] == "failure" and manifest["error"].startswith("ParseError: ")
