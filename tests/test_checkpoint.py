"""Checkpoint files: roundtrip fidelity, header checks, byte determinism."""
import dataclasses
import inspect
import json
import warnings
import zipfile

import numpy as np
import pytest

from tkgalign.checkpoint import (
    FORMAT_VERSION,
    CheckpointMeta,
    load_checkpoint,
    meta_from_result,
    save_checkpoint,
)
from tkgalign.errors import ConfigError
from tkgalign.model import init_params, num_relation_rows
from tkgalign.train import TrainConfig, train

SIZES = {"num_entities", "num_relation_rows", "num_times"}


def small_store(seed=0, dim=4, ents=7, rels=3, times=5, layers=2, **settings):
    cfg = TrainConfig(dim=dim, num_layers=layers, seed=seed, **settings)
    rows = num_relation_rows(rels, cfg.self_loops)
    store = init_params(np.random.default_rng(seed), ents, rows, times, cfg)
    meta = CheckpointMeta(format_version=FORMAT_VERSION, num_entities=ents,
                          num_relation_rows=rows, num_times=times, graph_sha256="0" * 64,
                          **dataclasses.asdict(cfg))
    return store, meta


def write_header(path, store, header):
    """A checkpoint of ``store``'s arrays under a hand-made JSON header."""
    arrays = {name: t.data for name, t in store.items()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        store, meta = small_store()
        path = tmp_path / "model.npz"
        save_checkpoint(path, store, meta)
        loaded, got_meta = load_checkpoint(path)
        assert got_meta == meta
        assert [name for name, _ in loaded.items()] == [name for name, _ in store.items()]
        for name, tensor in store.items():
            back = dict(loaded.items())[name]
            assert back.data.dtype == tensor.data.dtype
            assert np.array_equal(back.data, tensor.data)

    @pytest.mark.parametrize("name", ["model.ckpt", "model"])
    def test_path_without_npz_suffix_is_written_as_named(self, tmp_path, name):
        """A path is written as it is, with no ``.npz`` appended, and loads
        back; the bytes equal a save under an ``.npz`` name."""
        store, meta = small_store()
        path = tmp_path / name
        save_checkpoint(path, store, meta)
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        loaded, got_meta = load_checkpoint(path)
        assert got_meta == meta
        for (got, back), (want, tensor) in zip(loaded.items(), store.items()):
            assert got == want and back.data.tobytes() == tensor.data.tobytes()
        save_checkpoint(tmp_path / "same.npz", store, meta)
        assert (tmp_path / "same.npz").read_bytes() == path.read_bytes()

    def test_meta_json_round_trip(self):
        _, meta = small_store()
        assert CheckpointMeta(**json.loads(meta.to_json())) == meta

    def test_from_train_result(self, tmp_path, fixture_6ent):
        g1, g2, seeds = fixture_6ent
        cfg = TrainConfig(dim=4, num_layers=1, epochs=3, dropout=0.0, seed=1)
        result = train(g1, g2, seeds, cfg)
        meta = meta_from_result(result)
        assert meta.num_entities == result.merged.kg.num_entities
        assert meta.num_relation_rows == num_relation_rows(
            result.merged.kg.num_relations, cfg.self_loops
        )
        assert meta.num_times == g1.time_index.num_ids
        assert meta.seed == 1 and meta.mode == "time-aware"
        assert meta.k_csls == cfg.k_csls
        assert meta.graph_sha256 == result.graph.sha256()
        path = tmp_path / "run.npz"
        save_checkpoint(path, result.store, meta)
        loaded, _ = load_checkpoint(path)
        for name, tensor in result.store.items():
            assert np.array_equal(dict(loaded.items())[name].data, tensor.data)

    def test_extends_train_config_without_redeclaring_it(self):
        """The header is the run's TrainConfig: it declares only the format
        version, the table sizes and the graph digest, and hands itself on as
        the run config."""
        _, meta = small_store()
        assert isinstance(meta, TrainConfig)
        assert meta.model_config() is meta
        own = set(inspect.get_annotations(CheckpointMeta))
        assert own == {"format_version", *SIZES, "graph_sha256"}
        assert not own & {f.name for f in dataclasses.fields(TrainConfig)}

    def test_every_run_setting_survives(self, tmp_path):
        """A setting off its default comes back as written, whichever it is."""
        settings = dict(lr=0.02, margin=2.5, epochs=7, negatives_per_positive=3,
                        eval_every=2, patience=4, dropout=0.1, precision="f64",
                        self_loops=False, mode="time-unaware", k_csls=3)
        store, meta = small_store(seed=9, layers=3, **settings)
        off_default = {f.name for f in dataclasses.fields(TrainConfig)
                       if getattr(meta, f.name) != getattr(TrainConfig(), f.name)}
        assert off_default == {f.name for f in dataclasses.fields(TrainConfig)}
        path = tmp_path / "model.npz"
        save_checkpoint(path, store, meta)
        _, got = load_checkpoint(path)
        assert got == meta


class TestHeaderChecks:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez(path, entity=np.zeros((2, 2)))
        with pytest.raises(ConfigError, match="missing header"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        store, meta = small_store()
        path = tmp_path / "future.npz"
        write_header(path, store, {**json.loads(meta.to_json()),
                                   "format_version": FORMAT_VERSION + 1})
        with pytest.raises(ConfigError, match="format"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra, dropped", [
        ({"format_version": 3}, "k_csls"),  # the previous format
        ({"format_version": 2, "unique_times": False}, "k_csls"),
        ({"format_version": FORMAT_VERSION, "threads": 1}, None),  # an unknown key
        ({"format_version": FORMAT_VERSION}, "k_csls"),  # a missing key
    ])
    def test_foreign_header_keys_rejected(self, tmp_path, extra, dropped):
        store, meta = small_store()
        header = {**json.loads(meta.to_json()), **extra}
        header.pop(dropped, None)
        path = tmp_path / "foreign.npz"
        write_header(path, store, header)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [{"dim": 4}, [3]])
    def test_header_without_version_rejected(self, tmp_path, header):
        store, _ = small_store()
        path = tmp_path / "unversioned.npz"
        write_header(path, store, header)
        with pytest.raises(ConfigError, match="format None"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("mode", "bogus", "mode must be one of ('time-aware', 'time-unaware'), got 'bogus'"),
        ("precision", "f16", "precision must be one of ['f32', 'f64'], got 'f16'"),
        ("self_loops", 1, "'self_loops' must be bool, got 1"),
        ("dim", 8.0, "'dim' must be int, got 8.0"),
        ("num_entities", "7", "'num_entities' must be int, got '7'"),
        ("k_csls", True, "'k_csls' must be int, got True"),
        ("graph_sha256", 5, "'graph_sha256' must be str, got 5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("k_csls", 0, "k_csls must be >= 1, got 0"),
        ("dim", 0, "embedding dim must be >= 1, got 0"),
        ("num_layers", -1, "layer count must be >= 0, got -1"),
        ("num_entities", -1, "num_entities must be >= 0, got -1"),
        ("num_relation_rows", -2, "num_relation_rows must be >= 0, got -2"),
        ("num_times", -1, "num_times must be >= 0, got -1"),
    ], ids=["mode", "precision", "self_loops", "dim", "num_entities", "k_csls", "graph_sha256",
            "seed-negative", "k_csls-zero", "dim-zero", "num_layers-negative",
            "num_entities-negative", "num_relation_rows-negative", "num_times-negative"])
    def test_header_value_rejected(self, tmp_path, key, value, message):
        store, meta = small_store()
        header = {**json.loads(meta.to_json()), key: value}
        path = tmp_path / "bad.npz"
        write_header(path, store, header)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: checkpoint header: {message}"

    def test_shape_mismatch_rejected(self, tmp_path):
        store, meta = small_store()
        path = tmp_path / "model.npz"
        save_checkpoint(path, store, meta)
        # corrupt the header so the rebuilt table disagrees with the arrays
        bad = CheckpointMeta(**{**json.loads(meta.to_json()), "num_entities": meta.num_entities + 3})
        arrays = {name: t.data for name, t in store.items()}
        np.savez(path, __meta__=np.frombuffer(bad.to_json().encode(), dtype=np.uint8), **arrays)
        with pytest.raises(ConfigError, match="shape mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop, extra, missing, unknown", [
        ("attn_rel_1", None, ["attn_rel_1"], []),
        (None, "extra", [], ["extra"]),
    ], ids=["missing", "unknown"])
    def test_array_names_must_match_header(self, tmp_path, drop, extra, missing, unknown):
        store, meta = small_store()
        arrays = {name: t.data for name, t in store.items() if name != drop}
        if extra:
            arrays[extra] = np.zeros(3, dtype=np.float32)
        path = tmp_path / "model.npz"
        np.savez(path, __meta__=np.frombuffer(meta.to_json().encode(), dtype=np.uint8), **arrays)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: checkpoint arrays do not match the header"
                                  f" (missing {missing}, unknown {unknown})")

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("stored", [
        lambda a: a.astype([("value", a.dtype)]).reshape(a.shape),
        lambda a: a.astype("datetime64[s]"),
        lambda a: a.astype("timedelta64[s]"),
        lambda a: a != 0,
        lambda a: a.astype(np.int64),
        lambda a: a.astype(np.float16),
        lambda a: a.astype("U32"),
        lambda a: a.astype(np.complex128),
        lambda a: a.astype(np.float64 if a.dtype == np.float32 else np.float32),
    ], ids=["structured", "datetime64", "timedelta64", "bool", "int64", "float16",
            "numeric-string", "complex", "other-precision"])
    def test_array_of_another_dtype_rejected(self, tmp_path, precision, stored):
        """Every member must hold the header precision's floats: one that
        would cast to them is refused, not converted."""
        store, meta = small_store(precision=precision)
        arrays = {name: t.data for name, t in store.items()}
        arrays["attn_time_0"] = bad = stored(arrays["attn_time_0"])
        path = tmp_path / "model.npz"
        np.savez(path, __meta__=np.frombuffer(meta.to_json().encode(), dtype=np.uint8), **arrays)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # complex values cast with a ComplexWarning
            with pytest.raises(ConfigError) as err:
                load_checkpoint(path)
        assert str(err.value) == (f"{path}: checkpoint array 'attn_time_0' is {bad.dtype},"
                                  f" expected {meta.dtype}")

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_array_in_either_byte_order_loads(self, tmp_path, precision):
        store, meta = small_store(precision=precision)
        arrays = {name: t.data for name, t in store.items()}
        swapped = arrays["entity"].astype(arrays["entity"].dtype.newbyteorder())
        path = tmp_path / "model.npz"
        np.savez(path, __meta__=np.frombuffer(meta.to_json().encode(), dtype=np.uint8),
                 **{**arrays, "entity": swapped})
        loaded, _ = load_checkpoint(path)
        assert loaded["entity"].data.dtype == meta.dtype
        assert loaded["entity"].data.tobytes() == arrays["entity"].tobytes()

    def test_loading_draws_no_random_numbers(self, tmp_path, monkeypatch):
        store, meta = small_store()
        path = tmp_path / "model.npz"
        save_checkpoint(path, store, meta)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded, _ = load_checkpoint(path)
        assert [name for name, _ in loaded.items()] == [name for name, _ in store.items()]


class TestDamagedArchive:
    def test_bit_flips_and_truncations_load_intact_or_raise_config_error(self, tmp_path):
        """Each damaged copy of a checkpoint loads exactly what was saved (the
        damage hit bytes no reader uses) or is refused with a ConfigError; no
        zip or npy error escapes."""
        store, meta = small_store(seed=3, dim=8, ents=300)
        good = tmp_path / "good.npz"
        save_checkpoint(good, store, meta)
        raw = good.read_bytes()
        rng = np.random.default_rng(1)
        path = tmp_path / "damaged.npz"
        refused = 0
        for _ in range(400):
            damaged = bytearray(raw)
            if rng.random() < 0.25:
                del damaged[rng.integers(0, len(raw)):]
            else:
                for pos in rng.integers(0, len(raw), size=rng.integers(1, 4)):
                    damaged[pos] ^= 1 << int(rng.integers(0, 8))
            path.write_bytes(bytes(damaged))
            try:
                loaded, got = load_checkpoint(path)
            except ConfigError:
                refused += 1
                continue
            assert got == meta
            for name, tensor in store.items():
                assert loaded[name].data.tobytes() == tensor.data.tobytes(), name
        assert refused > 350

    @pytest.mark.parametrize("damage, message", [
        # 4 bytes less of npy header: the array would start inside its padding,
        # shifted by one value, and the read would stop short of the CRC check
        (lambda npy: npy[:8] + bytes([npy[8] - 4]) + npy[9:], "4 bytes follow the array"),
        (lambda npy: npy.replace(b"}", b"(", 1), "EOF in multi-line statement"),
    ], ids=["header-length", "unclosed-header"])
    def test_damaged_member_with_a_valid_crc_refused(self, tmp_path, damage, message):
        store, meta = small_store()
        good = tmp_path / "good.npz"
        save_checkpoint(good, store, meta)
        path = tmp_path / "damaged.npz"
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(path, "w") as dst:
            for info in src.infolist():
                npy = src.read(info.filename)
                dst.writestr(info, damage(npy) if info.filename == "entity.npy" else npy)
        with pytest.raises(ConfigError, match=f"member 'entity' is unreadable .*{message}"):
            load_checkpoint(path)


class TestDeterminism:
    def test_same_store_same_bytes(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            store, meta = small_store(seed=5)
            path = tmp_path / f"{tag}.npz"
            save_checkpoint(path, store, meta)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loading_does_not_perturb(self, tmp_path):
        store, meta = small_store(seed=5)
        path = tmp_path / "model.npz"
        save_checkpoint(path, store, meta)
        loaded, got = load_checkpoint(path)
        resaved = tmp_path / "resaved.npz"
        save_checkpoint(resaved, loaded, got)
        assert path.read_bytes() == resaved.read_bytes()
