"""Dataset construction: splits, planted ambiguity, io, and size reports."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgalign.errors import ConfigError, DatasetError, ParseError
from tkgalign.experiments import PLANTED_AMBIGUITY, SENSITIVITY_GAP
from tkgalign.forge import (
    DatasetStats,
    ForgeSpec,
    dataset_stats,
    format_stats,
    measured_overlap,
    param_count,
    planted_isomorphic,
    read_source_quads,
    split_overlap,
    split_to_result,
    synth_tkg,
    write_dataset,
)
from tkgalign.tkg import UNKNOWN_TIME_ID, parse_dataset


def source_quads(n, n_ent=20, n_rel=3, n_time=15, seed=7):
    """Distinct random source quads for split tests."""
    rng = np.random.default_rng(seed)
    quads = set()
    while len(quads) < n:
        s = int(rng.integers(n_ent))
        o = int(rng.integers(n_ent - 1))
        o += o >= s
        r = int(rng.integers(n_rel))
        lo, hi = sorted(rng.integers(1, n_time + 1, size=2).tolist())
        quads.add((s, r, o, int(lo), int(hi)))
    return sorted(quads)


def tuple_split_overlap(quads, overlap_ratio, rng, forced_shared=()):
    """The per-quad tuple/dict split that ``split_overlap`` replaced, kept as
    its oracle: the same index selection and rng draws, each side re-indexed
    through dicts in source-id order. Returns (quads_1, quads_2, ent_map_1,
    ent_map_2, rel_map_1, rel_map_2, alignment)."""
    n = len(quads)
    shared_n = int(round(n * overlap_ratio))
    forced = sorted(set(forced_shared))
    rest = n - shared_n
    forced_set = set(forced)
    free = [i for i in range(n) if i not in forced_set]
    order = rng.permutation(len(free))
    take = shared_n - len(forced)
    shared_idx = forced + [free[j] for j in order[:take]]
    ex1_idx = [free[j] for j in order[take : take + rest // 2]]
    ex2_idx = [free[j] for j in order[take + rest // 2 :]]

    def build_side(idxs):
        ents = sorted({quads[i][0] for i in idxs} | {quads[i][2] for i in idxs})
        rels = sorted({quads[i][1] for i in idxs})
        emap = {e: j for j, e in enumerate(ents)}
        rmap = {r: j for j, r in enumerate(rels)}
        local = [(emap[quads[i][0]], rmap[quads[i][1]], emap[quads[i][2]], quads[i][3], quads[i][4])
                 for i in sorted(idxs)]
        return local, emap, rmap

    q1, emap1, rmap1 = build_side(shared_idx + ex1_idx)
    q2, emap2, rmap2 = build_side(shared_idx + ex2_idx)
    alignment = [(emap1[e], emap2[e]) for e in sorted(set(emap1) & set(emap2))]
    return q1, q2, emap1, emap2, rmap1, rmap2, alignment


@st.composite
def split_cases(draw):
    """Distinct source quads over sparse, possibly negative entity and
    relation ids, a ratio of 0, 0.5 or 1, and forced-shared indices that fit
    the overlap quota."""
    ent_ids = draw(st.lists(st.integers(-10**12, 10**12), min_size=2, max_size=12, unique=True))
    rel_ids = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True))
    row = st.tuples(st.sampled_from(ent_ids), st.sampled_from(rel_ids), st.sampled_from(ent_ids),
                    st.integers(0, 6), st.integers(0, 6))
    quads = draw(st.lists(row, min_size=1, max_size=40, unique=True))
    ratio = draw(st.sampled_from([0.0, 0.5, 1.0]))
    quota = int(round(len(quads) * ratio))
    forced = draw(st.lists(st.integers(0, len(quads) - 1), max_size=quota, unique=True))
    return quads, ratio, forced, draw(st.integers(0, 2**32 - 1))


class TestForgeSpec:
    def test_defaults_valid(self):
        spec = ForgeSpec()
        assert spec.num_twins == 0

    def test_twin_count(self):
        spec = ForgeSpec(planted_pairs=3, planted_untimed_pairs=2)
        assert spec.num_twins == 10

    @pytest.mark.parametrize("kwargs", [
        {"overlap_ratio": 1.5},
        {"overlap_ratio": -0.1},
        {"nontemporal_entity_fraction": 2.0},
        {"entities": 0},
        {"relations": 0},
        {"time_steps": 0},
        {"quads_per_entity": 0},
        {"seed_count": 0},
        {"planted_pairs": -1},
        {"entities": 1},  # no object distinct from the subject
    ])
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ConfigError):
            ForgeSpec(**kwargs)


class TestSplitOverlap:
    def test_half_of_ten(self):
        quads = source_quads(10)
        split = split_overlap(quads, 0.5, np.random.default_rng(0))
        assert split.shared_count == 5
        assert split.total == 10
        # shared 5 plus half the remainder each
        assert len(split.quads_1) == 7 or len(split.quads_1) == 8
        assert len(split.quads_1) + len(split.quads_2) == 10 + 5

    def test_full_overlap_duplicates_everything(self):
        quads = source_quads(8)
        split = split_overlap(quads, 1.0, np.random.default_rng(0))
        back1 = set(map(tuple, split.quads_1.tolist()))
        assert len(back1) == 8
        assert len(split.quads_2) == 8

    def test_zero_overlap_partitions(self):
        quads = source_quads(10)
        split = split_overlap(quads, 0.0, np.random.default_rng(1))
        assert split.shared_count == 0
        assert len(split.quads_1) == 5 and len(split.quads_2) == 5

    def test_reindexing_is_dense_and_ordered(self):
        quads = np.array(source_quads(12))
        split = split_overlap(quads, 0.5, np.random.default_rng(2))
        for local, ents, rels in ((split.quads_1, split.ents_1, split.rels_1),
                                  (split.quads_2, split.ents_2, split.rels_2)):
            # source-id order is preserved by the dense renumbering
            assert np.all(np.diff(ents) > 0) and np.all(np.diff(rels) > 0)
            assert np.array_equal(np.unique(local[:, [0, 2]]), np.arange(len(ents)))
            assert np.array_equal(np.unique(local[:, 1]), np.arange(len(rels)))
            back = np.column_stack([ents[local[:, 0]], rels[local[:, 1]], ents[local[:, 2]], local[:, 3:]])
            assert set(map(tuple, back.tolist())) <= set(map(tuple, quads.tolist()))

    def test_alignment_covers_shared_entities(self):
        quads = source_quads(10)
        split = split_overlap(quads, 0.5, np.random.default_rng(3))
        both = np.intersect1d(split.ents_1, split.ents_2)
        assert split.alignment.shape == (len(both), 2)
        assert np.array_equal(split.ents_1[split.alignment[:, 0]], both)
        assert np.array_equal(split.ents_2[split.alignment[:, 1]], both)

    def test_forced_indices_land_on_both_sides(self):
        quads = source_quads(10)
        split = split_overlap(quads, 0.5, np.random.default_rng(4), forced_shared=[0, 9])
        for idx in (0, 9):
            s, r, o, tb, te = quads[idx]
            for local, ents, rels in ((split.quads_1, split.ents_1, split.rels_1),
                                      (split.quads_2, split.ents_2, split.rels_2)):
                row = [np.searchsorted(ents, s), np.searchsorted(rels, r), np.searchsorted(ents, o), tb, te]
                assert (local == row).all(axis=1).any()

    def test_forced_beyond_quota(self):
        quads = source_quads(10)
        with pytest.raises(ConfigError, match="quota"):
            split_overlap(quads, 0.2, np.random.default_rng(0), forced_shared=range(5))

    def test_forced_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            split_overlap(source_quads(4), 1.0, np.random.default_rng(0), forced_shared=[4])

    def test_empty_source(self):
        with pytest.raises(ConfigError, match="empty"):
            split_overlap([], 0.5, np.random.default_rng(0))

    def test_inexact_ratio_warns(self, caplog):
        with caplog.at_level("WARNING", logger="tkgalign.forge"):
            split_overlap(source_quads(10), 0.33, np.random.default_rng(0))
        assert any("not integral" in r.message for r in caplog.records)

    def test_same_rng_seed_reproduces(self):
        quads = source_quads(20)
        a = split_overlap(quads, 0.5, np.random.default_rng(9))
        b = split_overlap(quads, 0.5, np.random.default_rng(9))
        assert np.array_equal(a.quads_1, b.quads_1) and np.array_equal(a.quads_2, b.quads_2)
        assert np.array_equal(a.alignment, b.alignment)

    @settings(max_examples=60, deadline=None)
    @given(split_cases())
    def test_matches_tuple_oracle(self, case):
        quads, ratio, forced, seed = case
        got = split_overlap(quads, ratio, np.random.default_rng(seed), forced_shared=forced)
        q1, q2, emap1, emap2, rmap1, rmap2, alignment = tuple_split_overlap(
            quads, ratio, np.random.default_rng(seed), forced_shared=forced)
        assert got.quads_1.tolist() == [list(q) for q in q1]
        assert got.quads_2.tolist() == [list(q) for q in q2]
        for ents, emap in ((got.ents_1, emap1), (got.ents_2, emap2)):
            assert dict(zip(ents.tolist(), range(len(ents)))) == emap
        for rels, rmap in ((got.rels_1, rmap1), (got.rels_2, rmap2)):
            assert dict(zip(rels.tolist(), range(len(rels)))) == rmap
        assert got.alignment.reshape(-1, 2).tolist() == [list(p) for p in alignment]
        for arr in (got.quads_1, got.quads_2, got.ents_1, got.ents_2, got.rels_1, got.rels_2, got.alignment):
            assert arr.dtype == np.int64


class TestMeasuredOverlap:
    def test_split_overlap_is_recovered_exactly(self):
        quads = source_quads(400)
        result = split_to_result(quads, 0.5, seed_count=10, rng=np.random.default_rng(5))
        got = measured_overlap(result.g1, result.g2, result.seeds.all_pairs)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_graphs_measure_zero(self):
        quads = source_quads(100)
        result = split_to_result(quads, 0.0, seed_count=5, rng=np.random.default_rng(6))
        got = measured_overlap(result.g1, result.g2, result.seeds.all_pairs)
        assert got == 0.0

    def test_identical_graphs_measure_one(self):
        quads = source_quads(50)
        result = split_to_result(quads, 1.0, seed_count=5, rng=np.random.default_rng(7))
        got = measured_overlap(result.g1, result.g2, result.seeds.all_pairs)
        assert got == 1.0


class TestSynth:
    def spec(self, **kw):
        base = dict(entities=30, relations=3, time_steps=24, quads_per_entity=3,
                    seed_count=8, seed=0)
        base.update(kw)
        return ForgeSpec(**base)

    def test_basic_shape(self):
        res = synth_tkg(self.spec())
        assert res.g1.num_entities > 0 and res.g2.num_entities > 0
        assert res.g1.time_index is res.g2.time_index
        assert len(res.seeds.train_pairs) == 8
        assert res.manifest["planted"] == []

    def test_determinism_in_memory(self):
        a = synth_tkg(self.spec(planted_pairs=2))
        b = synth_tkg(self.spec(planted_pairs=2))
        assert a.g1.quadruples == b.g1.quadruples
        assert a.g2.quadruples == b.g2.quadruples
        assert a.seeds.train_pairs == b.seeds.train_pairs
        assert a.manifest == b.manifest

    def test_determinism_on_disk(self, tmp_path):
        spec = self.spec(planted_pairs=1, planted_untimed_pairs=1)
        dirs = []
        for tag in ("one", "two"):
            res = synth_tkg(spec)
            dirs.append(write_dataset(tmp_path / tag, res.g1, res.g2, res.seeds, res.manifest))
        files1 = sorted(p.name for p in dirs[0].iterdir())
        files2 = sorted(p.name for p in dirs[1].iterdir())
        assert files1 == files2
        for name in files1:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_quad_lines_match_a_line_per_row(self, tmp_path):
        res = synth_tkg(self.spec(planted_pairs=1, planted_untimed_pairs=1,
                                  nontemporal_entity_fraction=0.3))
        d = write_dataset(tmp_path / "ds", res.g1, res.g2, res.seeds, res.manifest)
        offsets = {"triples_1": (res.g1, 0, 0),
                   "triples_2": (res.g2, res.g1.num_entities, res.g1.num_relations)}
        for name, (kg, eo, ro) in offsets.items():
            rows = (kg.quadruples.rows + [eo, ro, eo, 0, 0]).tolist()
            want = "".join(f"{s}\t{r}\t{o}\t{tb}\t{te}\n" for s, r, o, tb, te in rows)
            assert (d / name).read_bytes() == want.encode()

    def test_seed_changes_output(self):
        a = synth_tkg(self.spec(seed=0))
        b = synth_tkg(self.spec(seed=1))
        assert a.g1.quadruples != b.g1.quadruples

    def test_roundtrip_through_disk(self, tmp_path):
        res = synth_tkg(self.spec(planted_pairs=1))
        d = write_dataset(tmp_path / "ds", res.g1, res.g2, res.seeds, res.manifest)
        p1, p2, ps = parse_dataset(d)
        assert p1.quadruples == res.g1.quadruples
        assert p2.quadruples == res.g2.quadruples
        assert p1.entity_labels == res.g1.entity_labels
        assert p2.relation_labels == res.g2.relation_labels
        assert p1.time_index == res.g1.time_index
        assert ps.train_pairs == res.seeds.train_pairs
        assert ps.test_pairs == res.seeds.test_pairs

    def test_timed_twins_fool_only_the_time_blind(self):
        res = synth_tkg(self.spec(entities=40, time_steps=30, planted_pairs=2))
        by_group = {}
        for p in res.manifest["planted"]:
            assert p["kind"] == "timed"
            by_group.setdefault(p["group"], {})[p["member"]] = p
        assert len(by_group) == 2
        for group in by_group.values():
            a, b = group["a"], group["b"]
            for kg, key in ((res.g1, "e1"), (res.g2, "e2")):
                assert planted_isomorphic(kg, a[key], b[key], time_blind=True)
                assert not planted_isomorphic(kg, a[key], b[key], time_blind=False)

    def test_untimed_twins_fool_everyone(self):
        res = synth_tkg(self.spec(entities=40, planted_untimed_pairs=2))
        for p in res.manifest["planted"]:
            assert p["kind"] == "untimed"
            assert p["window"] is None
        groups = {}
        for p in res.manifest["planted"]:
            groups.setdefault(p["group"], {})[p["member"]] = p
        for group in groups.values():
            a, b = group["a"], group["b"]
            assert planted_isomorphic(res.g1, a["e1"], b["e1"], time_blind=True)
            assert planted_isomorphic(res.g1, a["e1"], b["e1"], time_blind=False)

    def test_twin_windows_are_disjoint(self):
        res = synth_tkg(self.spec(entities=40, time_steps=36, planted_pairs=3))
        windows = [tuple(p["window"]) for p in res.manifest["planted"]]
        assert len(windows) == 6
        windows.sort()
        for (a_lo, a_hi), (b_lo, b_hi) in zip(windows, windows[1:]):
            assert a_hi < b_lo

    def test_twins_are_test_pairs_and_anchors_are_seeds(self):
        res = synth_tkg(self.spec(entities=40, time_steps=30, planted_pairs=2))
        train = set(res.seeds.train_pairs)
        test = set(res.seeds.test_pairs)
        for p in res.manifest["planted"]:
            assert (p["e1"], p["e2"]) in test
            assert (p["e1"], p["e2"]) not in train
        for pair in res.manifest["anchors"]["timed"]:
            assert tuple(pair) in train

    def test_untimed_entities_emit_unknown_times_only(self):
        res = synth_tkg(self.spec(nontemporal_entity_fraction=1.0))
        for kg in (res.g1, res.g2):
            assert np.all(kg.quadruples.rows[:, 3:] == UNKNOWN_TIME_ID)
        assert res.manifest["untimed_entities"] == 30

    def test_partial_untimed_fraction_mixes(self):
        res = synth_tkg(self.spec(nontemporal_entity_fraction=0.4))
        begins = set(res.g1.quadruples.rows[:, 3].tolist())
        assert UNKNOWN_TIME_ID in begins
        assert any(b != UNKNOWN_TIME_ID for b in begins)

    def test_planting_needs_two_relations(self):
        with pytest.raises(ConfigError, match="relations"):
            synth_tkg(self.spec(relations=1, planted_pairs=1))

    def test_planting_needs_room_for_windows(self):
        with pytest.raises(ConfigError, match="disjoint"):
            synth_tkg(self.spec(time_steps=10, planted_pairs=3))

    def test_seed_count_beyond_alignable(self):
        with pytest.raises(ConfigError, match="seed_count"):
            synth_tkg(self.spec(entities=10, seed_count=50))

    def test_seeds_taking_every_pair_rejected(self):
        spec = self.spec(entities=10, quads_per_entity=2, time_steps=10,
                         overlap_ratio=1.0, seed_count=10)
        with pytest.raises(ConfigError, match="seed_count 10 takes every alignable pair"):
            synth_tkg(spec)
        assert len(synth_tkg(self.spec(entities=10, quads_per_entity=2, time_steps=10,
                                       overlap_ratio=1.0, seed_count=9)).seeds.test_pairs) == 1

    def test_manifest_records_spec_and_overlap(self):
        spec = self.spec(planted_pairs=1)
        res = synth_tkg(spec)
        assert res.manifest["spec"]["entities"] == 30
        assert res.manifest["spec"]["planted_pairs"] == 1
        assert res.manifest["overlap"] == res.manifest["shared_quads"] / res.manifest["source_quads"]
        got = measured_overlap(res.g1, res.g2, res.seeds.all_pairs)
        assert got == pytest.approx(res.manifest["overlap"], abs=1e-12)


# SHA-256 of every file ``write_dataset`` forges for the specs criteria 7 and 8
# train on; a change to the generator's draw order or the writer shows here
FORGED_SHA256 = {
    "planted": {
        "ent_ids_1": "007102b68332d2b10d3a77145a4c95231e638c2c419f7293fad9c0255a520a30",
        "ent_ids_2": "c81a27bb0c832fb7a97333bbdd1e3d76cf1a039fd74923c8aedb07877b4c4eef",
        "manifest.json": "52b3dee8c743cd9ce4cd39c8438bcf49e3958628fb2048dd903b2b474618151a",
        "ref_pairs": "91cb5c33e3fdc9011cf2b53c08676544176c7931f1c91d6edb20c1202af6ab38",
        "rel_ids_1": "cbf288a049e237b9196be2a52ef48d4e602fb52f0257285828643b2a82d9a5c2",
        "rel_ids_2": "1c56a6f58edfa8fafb974186aec60c13d516aa18d99426b040b66a9357e38c42",
        "stats.txt": "067506fa8fb2ee821b858fc416c330aa331ea9852a920b8f0244ef50886e031d",
        "sup_pairs": "d218cf3f05bc4dc5b2ec40568e2f911f650360e23be7e12f44a561b23b152012",
        "time_id": "d903cb8027efebc6e89305a880d5b1b098e6834ebf7734e41cb9091573806338",
        "triples_1": "bf6bc6cf4054449382e9bfca8fef75e1fa2d369e096572c776b8a2dc96433a0b",
        "triples_2": "013bc740368401be0758143c214e55d681ad40f1064ee9d4cfdf24fbaeebc536",
    },
    "hybrid": {
        "ent_ids_1": "47013b81673b3e069235fa8ed26870681e821ba6f136ad055b4c372ca527d406",
        "ent_ids_2": "105e36d7e714a8a65b2bd6bafa2fb029769004dffb0f1c0fba6303f6646c98f2",
        "manifest.json": "fbec9f8f0783ccf79f72f3ff62ced6a7b23f439ea42df7726860987ecf0c5477",
        "ref_pairs": "8532b4b26cd03572acc0c9b83bc2e60da9faca0dd19fec443afd33a16528d7b2",
        "rel_ids_1": "cbf288a049e237b9196be2a52ef48d4e602fb52f0257285828643b2a82d9a5c2",
        "rel_ids_2": "1c56a6f58edfa8fafb974186aec60c13d516aa18d99426b040b66a9357e38c42",
        "stats.txt": "596257750571259443f3a0cd74c4af4bcfd72606d869e2b77a4fe2ebe116d3a6",
        "sup_pairs": "f02970c60b3944ef6f81facce620c9ec817a348b5e064ecf08c1bb604183ddfa",
        "time_id": "d903cb8027efebc6e89305a880d5b1b098e6834ebf7734e41cb9091573806338",
        "triples_1": "7760ec3f2fc2efb1bd74c877a50a1dac0f8e303d3f74c754bdf3c25fddf52c05",
        "triples_2": "c4816aab1fb83e323a0b031e5e3da65c91e45c78adbfd5a23581bc8ab47e731c",
    },
}


@pytest.mark.parametrize("spec", [PLANTED_AMBIGUITY.forge, SENSITIVITY_GAP.forge],
                         ids=lambda spec: spec.name)
def test_forged_bytes_are_pinned(tmp_path, spec):
    res = synth_tkg(spec)
    d = write_dataset(tmp_path / spec.name, res.g1, res.g2, res.seeds, res.manifest)
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(d.iterdir())}
    assert got == FORGED_SHA256[spec.name]


class TestSplitToResult:
    def test_seeds_taking_every_pair_rejected(self):
        quads = source_quads(30)
        res = split_to_result(quads, 1.0, seed_count=1, rng=np.random.default_rng(0))
        alignable = len(res.seeds.all_pairs)
        with pytest.raises(ConfigError, match=f"seed_count {alignable} takes every alignable pair, "
                                              "leaving no test pair"):
            split_to_result(quads, 1.0, seed_count=alignable, rng=np.random.default_rng(0))

    def test_seed_count_bounds(self):
        quads = source_quads(40)
        with pytest.raises(ConfigError, match="seed_count"):
            split_to_result(quads, 0.5, seed_count=10 ** 6, rng=np.random.default_rng(0))

    def test_seeds_and_test_disjoint_and_cover(self):
        quads = source_quads(60)
        res = split_to_result(quads, 0.5, seed_count=6, rng=np.random.default_rng(1))
        train = set(res.seeds.train_pairs)
        test = set(res.seeds.test_pairs)
        assert len(train) == 6
        assert not (train & test)
        ents1 = {a for a, _ in train | test}
        assert all(0 <= e < res.g1.num_entities for e in ents1)

    def test_graphs_validate_and_parse_back(self, tmp_path):
        quads = source_quads(60)
        res = split_to_result(quads, 0.5, seed_count=6, rng=np.random.default_rng(2))
        d = write_dataset(tmp_path / "ds", res.g1, res.g2, res.seeds, res.manifest)
        p1, p2, ps = parse_dataset(d)
        assert p1.quadruples == res.g1.quadruples
        assert ps.train_pairs == res.seeds.train_pairs


class TestReadSourceQuads:
    def test_reads_tabs_and_spaces(self, tmp_path):
        f = tmp_path / "q.tsv"
        f.write_text("0\t1\t2\t3\t4\n\n-5\t0\t6\t1\t2\n")
        rows = read_source_quads(f)
        assert rows.dtype == np.int64 and rows.tolist() == [[0, 1, 2, 3, 4], [-5, 0, 6, 1, 2]]
        f.write_text("0\t1\t2\t3\t4\n5 0 6 1 2\n")
        with pytest.raises(ParseError, match=r"q\.tsv:2: expected 5 columns"):
            read_source_quads(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            read_source_quads(tmp_path / "nope.tsv")

    def test_wrong_column_count_names_line(self, tmp_path):
        f = tmp_path / "q.tsv"
        f.write_text("0\t1\t2\t3\t4\n0\t1\t2\n")
        with pytest.raises(ParseError, match=":2: expected 5 columns, got 3"):
            read_source_quads(f)

    def test_non_integer_field(self, tmp_path):
        f = tmp_path / "q.tsv"
        f.write_text("0\t1\ttwo\t3\t4\n")
        with pytest.raises(ParseError, match=":1: id 'two' is not a 64-bit integer"):
            read_source_quads(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "q.tsv"
        f.write_text("\n\n")
        with pytest.raises(DatasetError, match="no quadruples"):
            read_source_quads(f)

    def test_negative_time_id_names_line(self, tmp_path):
        f = tmp_path / "q.tsv"
        f.write_text("0\t1\t2\t3\t4\n\n0\t1\t2\t-1\t4\n")
        with pytest.raises(ParseError, match=r"q\.tsv:3: negative time id"):
            read_source_quads(f)

    def test_repeated_row_dropped_keeping_first(self, tmp_path, caplog):
        f = tmp_path / "q.tsv"
        f.write_text("0\t1\t2\t3\t4\n5\t0\t6\t1\t2\n0\t1\t2\t3\t4\n")
        with caplog.at_level("WARNING"):
            rows = read_source_quads(f)
        assert rows.tolist() == [[0, 1, 2, 3, 4], [5, 0, 6, 1, 2]]
        assert any("q.tsv: dropped 1 duplicate quadruples" in r.getMessage() for r in caplog.records)


class TestStatsAndParams:
    def reference_stats(self):
        return DatasetStats(
            num_entities_1=9517, num_entities_2=9537,
            num_relations_1=247, num_relations_2=246,
            num_times=4017, num_quads_1=307552, num_quads_2=307553,
            num_pairs=8566, num_seeds=1000,
        )

    def test_param_count_reference_sizes(self):
        assert param_count(self.reference_stats(), k=100, num_layers=2) == 2_406_900

    def test_param_count_small_hand_case(self):
        stats = DatasetStats(3, 4, 1, 1, 2, 0, 0, 0, 0)
        # tables: 3+4+2+2+2 = 13 rows of k=2, plus 2 attention vectors
        # (3k each) per layer for 1 layer
        assert param_count(stats, k=2, num_layers=1) == 26 + 12

    def test_format_stats_layout(self):
        text = format_stats(self.reference_stats(), "reference", overlap=0.5)
        lines = text.splitlines()
        assert lines[0].split() == [
            "dataset", "|E1|", "|E2|", "|R1|", "|R2|", "|T*|", "|Q1|", "|Q2|", "|P|", "|S|",
        ]
        assert lines[1].split() == [
            "reference", "9517", "9537", "247", "246", "4017",
            "307552", "307553", "8566", "1000",
        ]
        assert lines[2] == "overlap 0.500000"

    def test_dataset_stats_counts(self):
        res = synth_tkg(ForgeSpec(entities=20, relations=3, time_steps=12,
                                  quads_per_entity=2, seed_count=5, seed=3))
        stats = dataset_stats(res.g1, res.g2, res.seeds)
        assert stats.num_entities_1 == res.g1.num_entities
        assert stats.num_quads_2 == len(res.g2.quadruples)
        assert stats.num_times == res.g1.time_index.num_ids
        assert stats.num_seeds == 5
        assert stats.num_pairs == len(res.seeds.all_pairs)
