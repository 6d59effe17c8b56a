"""Data model, ingestion, reverse decomposition, and link grouping."""
from __future__ import annotations

import os
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgalign.cli import main
from tkgalign.errors import GraphError, ParseError, WriteError
from tkgalign.forge import write_dataset
from tkgalign.model import prepare_graph
from tkgalign.tkg import (
    UNKNOWN_TIME_ID,
    UNKNOWN_TIME_LABEL,
    MergedGraph,
    QuadTable,
    SeedAlignments,
    TimeIndex,
    merge_pair,
    parse_dataset,
    read_table,
    write_file,
)

from conftest import build_time_index, make_kg, quad, unvalidated_kg, write_dataset_dir


class TestQuadTable:
    def test_holds_a_read_only_copy(self):
        src = np.array([[0, 0, 1, 1, 1]], dtype=np.int64)
        table = QuadTable(src)
        src[0, 0] = 9
        assert table.rows.tolist() == [[0, 0, 1, 1, 1]]
        assert table.rows.dtype == np.int64 and table.rows.flags.c_contiguous
        assert QuadTable(np.zeros((5, 5), dtype=np.int32).T).rows.flags.c_contiguous
        with pytest.raises(ValueError):
            table.rows[0, 0] = 5

    def test_len_and_whole_table_equality(self):
        a, b = quad(0, 0, 1, 1), quad(1, 0, 0, 2, 3)
        assert len(QuadTable([a, b])) == 2
        assert (QuadTable([a, b]) == QuadTable([a, b])) is True
        assert (QuadTable([a, b]) == QuadTable([b, a])) is False
        assert (QuadTable([a]) != QuadTable()) is True
        assert QuadTable().rows.shape == (0, 5)

    def test_wrong_width_rejected(self):
        with pytest.raises(GraphError):
            QuadTable([(0, 1, 2)])


class TestTimeIndex:
    def test_ids_are_label_positions(self):
        idx = TimeIndex([UNKNOWN_TIME_LABEL, "2005", "2006"])
        assert idx.num_ids == 3  # sentinel + two real labels
        assert idx.labels == [UNKNOWN_TIME_LABEL, "2005", "2006"]
        assert idx == TimeIndex([UNKNOWN_TIME_LABEL, "2005", "2006"])
        assert idx != TimeIndex([UNKNOWN_TIME_LABEL, "2006", "2005"])

    @pytest.mark.parametrize("labels", [[], [UNKNOWN_TIME_LABEL, "2005", "2005"]])
    def test_empty_or_duplicate_labels_rejected(self, labels):
        with pytest.raises(GraphError):
            TimeIndex(labels)

    def test_shared_fixture_index(self):
        idx = build_time_index()
        assert idx.labels == [UNKNOWN_TIME_LABEL, "2001", "2002", "2003", "2004", "2005", "2007"]


def links_of(kg, self_loops=False):
    """prepare_graph on one KG (a merged graph with an empty second side)."""
    merged = MergedGraph(kg, kg.num_entities)
    graph, _ = prepare_graph(merged, self_loops)
    return graph


def rows(graph, mask=None):
    """Links as (src, rel, dst, time) tuples in row order."""
    cols = (graph.src, graph.rel, graph.dst, graph.time)
    if mask is not None:
        cols = tuple(c[mask] for c in cols)
    return list(zip(*(c.tolist() for c in cols)))


class TestReverseLinks:
    def test_interval_decomposition(self, time_index):
        kg = make_kg(2, 1, time_index, [quad(0, 0, 1, 1, 2)])
        assert set(rows(links_of(kg))) == {(0, 0, 1, 1), (1, 1, 0, 2)}

    def test_time_point_carries_same_time_both_ways(self, time_index):
        kg = make_kg(2, 1, time_index, [quad(0, 0, 1, 3)])
        assert set(links_of(kg).time.tolist()) == {3}

    def test_nontemporal_fact_stays_unknown(self, time_index):
        kg = make_kg(2, 1, time_index, [quad(0, 0, 1, 0)])
        assert np.all(links_of(kg).time == UNKNOWN_TIME_ID)

    def test_link_count_is_twice_quad_count(self, fixture_6ent):
        g1, _, _ = fixture_6ent
        assert links_of(g1).num_links == 2 * len(g1.quadruples)

    def test_reverse_involution(self, fixture_6ent):
        """Swapping (src, dst) and r <-> r+|R| maps the link multiset onto
        itself up to time, which swaps begin <-> end within each pair."""
        g1, _, _ = fixture_6ent
        n_rel = g1.num_relations
        links = Counter(rows(links_of(g1)))

        def flip(s, r, d, t):
            return (d, r - n_rel if r >= n_rel else r + n_rel, s, t)

        flipped = Counter(flip(*link) for link in links.elements())
        for s, r, o, b, e in g1.quadruples.rows.tolist():
            assert links[(s, r, o, b)] >= 1
            assert links[(o, r + n_rel, s, e)] >= 1
            assert flipped[(o, r + n_rel, s, b)] >= 1
            assert flipped[(s, r, o, e)] >= 1
        assert sum(flipped.values()) == sum(links.values())


class TestNeighborhoods:
    def test_row_order_pins_quad_order_then_self_loop(self, time_index):
        """Per dst: forward and reverse links in quadruple order, then the
        self-loop (relation 2|R|, unknown time)."""
        quads = [quad(0, 0, 1, 1, 2), quad(2, 1, 0, 3, 4), quad(1, 0, 0, 5)]
        graph = links_of(make_kg(3, 2, time_index, quads), self_loops=True)
        assert rows(graph) == [
            (1, 2, 0, 2), (2, 1, 0, 3), (1, 0, 0, 5), (0, 4, 0, 0),
            (0, 0, 1, 1), (0, 2, 1, 5), (1, 4, 1, 0),
            (0, 3, 2, 4), (2, 4, 2, 0),
        ]

    def test_single_link_lands_on_object(self, time_index):
        kg = make_kg(2, 1, time_index, [quad(0, 0, 1, 2)])
        graph = links_of(kg)
        assert rows(graph, graph.dst == 1) == [(0, 0, 1, 2)]
        assert rows(graph, graph.dst == 0) == [(1, 1, 0, 2)]

    def test_reverse_generation_gives_both_endpoints_one_inward_link(self, time_index):
        kg = make_kg(2, 1, time_index, [quad(0, 0, 1, 1, 2)])
        assert np.bincount(links_of(kg).dst, minlength=2).tolist() == [1, 1]

    def test_matches_hand_enumeration(self, fixture_6ent):
        g1, _, _ = fixture_6ent
        n_rel = g1.num_relations
        graph = links_of(g1)
        assert np.all(np.diff(graph.dst) >= 0)
        for e in range(g1.num_entities):
            expected = []
            for s, r, o, b, end in g1.quadruples.rows.tolist():
                if o == e:
                    expected.append((s, r, e, b))
                if s == e:
                    expected.append((o, r + n_rel, e, end))
            assert rows(graph, graph.dst == e) == expected

    @given(
        st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1), st.integers(0, n - 1),
                               st.integers(0, 6), st.integers(0, 6)),
                     max_size=12),
        )),
        st.booleans(),
    )
    def test_random_graphs_match_hand_enumeration(self, graph_spec, self_loops):
        n, specs = graph_spec
        quads = [quad(s, r, o, min(b, e), max(b, e)) for s, r, o, b, e in specs]
        quads = list(dict.fromkeys(quads))  # sorting the endpoints can collide
        graph = links_of(make_kg(n, 2, build_time_index(), quads), self_loops)
        for e in range(n):
            expected = []
            for s, r, o, b, end in quads:
                if o == e:
                    expected.append((s, r, e, b))
                if s == e:
                    expected.append((o, r + 2, e, end))
            if self_loops:
                expected.append((e, 4, e, UNKNOWN_TIME_ID))
            assert rows(graph, graph.dst == e) == expected
        assert np.all(np.diff(graph.dst) >= 0)

    def test_degree_conservation(self, fixture_6ent):
        g1, _, _ = fixture_6ent
        graph = links_of(g1)
        assert np.bincount(graph.dst, minlength=g1.num_entities).sum() == graph.num_links

    def test_out_of_range_id_rejected(self, time_index):
        kg = unvalidated_kg(2, 1, time_index, [quad(0, 0, 5, 0)])
        with pytest.raises(GraphError):
            links_of(kg)

    def test_self_loops_carry_unknown_time_and_are_filterable(self, fixture_6ent):
        g1, _, _ = fixture_6ent
        self_rel = 2 * g1.num_relations
        graph = links_of(g1, self_loops=True)
        plain = links_of(g1)
        assert graph.num_links == plain.num_links + g1.num_entities
        for e in range(g1.num_entities):
            group = rows(graph, graph.dst == e)
            loops = [link for link in group if link[1] == self_rel]
            assert loops == [(e, self_rel, e, UNKNOWN_TIME_ID)]
            assert group[-1] == loops[0]
            without = [link for link in group if link[1] != self_rel]
            assert without == rows(plain, plain.dst == e)

    def test_time_multiset_counts_multiplicity(self, time_index):
        quads = [quad(0, 0, 1, 2), quad(2, 0, 1, 2), quad(3, 0, 1, 4)]
        graph = links_of(make_kg(4, 1, time_index, quads))
        assert sorted(graph.time[graph.dst == 1].tolist()) == [2, 2, 4]


class TestValidation:
    def test_dangling_entity(self, time_index):
        kg = unvalidated_kg(2, 1, time_index, [quad(0, 0, 7, 1)])
        with pytest.raises(GraphError):
            kg.validate()

    def test_duplicate_quadruple(self, time_index):
        kg = unvalidated_kg(2, 1, time_index, [quad(0, 0, 1, 1), quad(0, 0, 1, 1)])
        with pytest.raises(GraphError, match=r"duplicate quadruple \(0, 0, 1, 1, 1\)"):
            kg.validate()

    @pytest.mark.parametrize("row", [(0, 1, 1, 1, 1), (0, 0, 1, 9, 1), (0, 0, 1, 1, -1)])
    def test_relation_and_time_ranges(self, time_index, row):
        with pytest.raises(GraphError, match="out of range"):
            unvalidated_kg(2, 1, time_index, [row]).validate()

    def test_self_referential_fact_is_legal(self, time_index):
        kg = make_kg(2, 1, time_index, [quad(0, 0, 0, 1)])
        kg.validate()

    def test_seed_entity_in_two_pairs_rejected(self):
        seeds = SeedAlignments(train_pairs=[(0, 0)], test_pairs=[(0, 1)])
        with pytest.raises(GraphError):
            seeds.validate()


class TestMerge:
    def test_offsets(self, tiny_pair):
        g1, g2, _ = tiny_pair
        merged = merge_pair(g1, g2)
        assert merged.entity_offset == g1.num_entities
        assert merged.kg.num_entities == 6
        assert merged.kg.num_relations == 2
        merged.kg.validate()

    def test_merged_pairs_shape_and_offset(self, tiny_pair):
        g1, g2, seeds = tiny_pair
        merged = merge_pair(g1, g2)
        arr = merged.merged_pairs(seeds.test_pairs)
        assert arr.shape == (1, 2)
        assert arr[0, 1] == 2 + g1.num_entities
        empty = merged.merged_pairs([])
        assert empty.shape == (0, 2) and empty.dtype == np.int64

    def test_mismatched_time_index_rejected(self, tiny_pair):
        g1, g2, _ = tiny_pair
        g2.time_index = TimeIndex([UNKNOWN_TIME_LABEL, "1900"])
        with pytest.raises(GraphError):
            merge_pair(g1, g2)


def train_exit_code(data, tmp_path) -> int:
    return main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--repeats", "1",
                 "--epochs", "1", "--dim", "4", "--layers", "1", "--seed", "0"])


def shift_graph1_ids(directory, by: int) -> None:
    """Add ``by`` to every graph-1 entity and relation id on disk."""
    for name, cols in (("triples_1", (0, 1, 2)), ("ent_ids_1", (0,)), ("rel_ids_1", (0,)),
                       ("sup_pairs", (0,)), ("ref_pairs", (0,))):
        rows = [line.split("\t") for line in (directory / name).read_text().splitlines()]
        (directory / name).write_text("".join(
            "\t".join(str(int(c) + by) if i in cols else c for i, c in enumerate(row)) + "\n"
            for row in rows
        ))


@st.composite
def graph_pairs(draw):
    """Two random valid graphs on one time index plus identity seed pairs."""
    time_index = build_time_index()

    def graph(name):
        n = draw(st.integers(1, 6))
        n_rel = draw(st.integers(1, 3))
        t = time_index.num_ids - 1
        rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n_rel - 1),
                                       st.integers(0, n - 1), st.integers(0, t), st.integers(0, t)),
                             unique=True, max_size=15))
        return make_kg(n, n_rel, time_index, rows, name=name)

    g1, g2 = graph("g1"), graph("g2")
    pairs = [(i, i) for i in range(draw(st.integers(0, min(g1.num_entities, g2.num_entities))))]
    cut = draw(st.integers(0, len(pairs)))
    return g1, g2, SeedAlignments(train_pairs=pairs[:cut], test_pairs=pairs[cut:])


class TestParseDataset:
    def test_round_trip(self, tmp_path, tiny_pair):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        p1, p2, ps = parse_dataset(d)
        assert p1.quadruples == g1.quadruples
        assert p2.quadruples == g2.quadruples
        assert p1.entity_labels == g1.entity_labels
        assert p2.relation_labels == g2.relation_labels
        assert p1.time_index == g1.time_index
        assert ps.train_pairs == seeds.train_pairs
        assert ps.test_pairs == seeds.test_pairs

    def test_round_trip_with_continuing_ids(self, tmp_path, tiny_pair):
        """Graph 2's on-disk ids may continue graph 1's ranges."""
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds, continue_ids=True)
        p1, p2, ps = parse_dataset(d)
        assert p2.quadruples == g2.quadruples
        assert ps.train_pairs == seeds.train_pairs

    def test_malformed_quad_line_names_location(self, tmp_path, tiny_pair):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        lines = (d / "triples_1").read_text().splitlines()
        lines[1] = "0\t0\t1"
        (d / "triples_1").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert exc.value.file == "triples_1"
        assert exc.value.line == 2

    def test_dangling_id_in_quad(self, tmp_path, tiny_pair):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        with open(d / "triples_1", "a") as f:
            f.write("0\t0\t99\t1\t1\n")
        with pytest.raises(ParseError):
            parse_dataset(d)

    def test_duplicate_quads_dropped_with_warning(self, tmp_path, tiny_pair, caplog):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        first = (d / "triples_1").read_text().splitlines()[0]
        with open(d / "triples_1", "a") as f:
            f.write(first + "\n")
        with caplog.at_level("WARNING"):
            p1, _, _ = parse_dataset(d)
        assert len(p1.quadruples) == len(g1.quadruples)
        assert any("duplicate" in r.message for r in caplog.records)

    def test_interval_endpoints_survive(self, tmp_path, tiny_pair):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        p1, _, _ = parse_dataset(d)
        intervals = set(map(tuple, p1.quadruples.rows[:, 3:].tolist()))
        assert (2, 3) in intervals
        assert (0, 0) in intervals

    def test_graph1_ids_may_start_anywhere(self, tmp_path, tiny_pair):
        """Graph-1 ids starting at 5 parse like their 0-based twin."""
        g1, g2, seeds = tiny_pair
        base = parse_dataset(write_dataset_dir(tmp_path / "base", g1, g2, seeds))
        d = write_dataset_dir(tmp_path / "shifted", g1, g2, seeds)
        shift_graph1_ids(d, 5)
        assert parse_dataset(d) == base
        assert base == (g1, g2, seeds)

    def test_id_file_beyond_int64_rejected(self, tmp_path, tiny_pair):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        shift_graph1_ids(d, 10 ** 20)
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert exc.value.file == "ent_ids_1"

    @pytest.mark.parametrize("file, bad", [
        ("triples_1", "0\t0\t1\t1"),
        ("triples_1", "0\t0\tone\t1\t1"),
        ("triples_1", "0\t0\t3\t1\t1"),
        ("triples_1", "0\t1\t1\t1\t1"),
        ("triples_1", "0\t0\t1\t1\t99"),
        ("triples_2", "-1\t0\t1\t1\t1"),
        ("sup_pairs", "2\t2\t2"),
        ("ref_pairs", "0\t3"),
    ])
    def test_bad_line_named_with_blank_lines_counted(self, tmp_path, tiny_pair, file, bad):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        lines = (d / file).read_text().splitlines()
        (d / file).write_text("\n".join(["", " ", lines[0], "", bad] + lines[1:]) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert (exc.value.file, exc.value.line) == (file, 5)

    @pytest.mark.parametrize("file, line, message", [
        ("triples_1", "\t\t\t\t", "id '' is not a 64-bit integer"),
        ("triples_1", "\f", "expected 5 columns, got 1"),
        ("triples_1", "\v", "expected 5 columns, got 1"),
        ("triples_1", "\u3000", "expected 5 columns, got 1"),
        ("triples_1", " \r ", "expected 5 columns, got 1"),
        ("ent_ids_1", "\t", "id '' is not a 64-bit integer"),
    ], ids=["four-tabs", "form-feed", "vertical-tab", "ideographic-space", "inner-cr", "tab"])
    def test_line_of_other_whitespace_is_data(self, tmp_path, tiny_pair, capsys, file, line,
                                               message):
        """Only a line that is empty or ASCII spaces (before its \\r) is blank."""
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        lines = (d / file).read_text().splitlines()
        text = "\n".join([lines[0], "\r", "  \r", line] + lines[1:]) + "\n"
        (d / file).write_bytes(text.encode())
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert str(exc.value) == f"{file}:4: {message}"
        assert train_exit_code(d, tmp_path) == 2
        assert f"{file}:4: {message}" in capsys.readouterr().err

    def test_id_beyond_int64_exits_2(self, tmp_path, tiny_pair):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        with open(d / "triples_1", "a") as f:
            f.write("0\t0\t99999999999999999999\t1\t1\n")
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert (exc.value.file, exc.value.line) == ("triples_1", 4)
        assert train_exit_code(d, tmp_path) == 2

    def test_non_integer_field_after_blank_lines_exits_2(self, tmp_path, tiny_pair, capsys):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        lines = (d / "triples_2").read_text().splitlines()
        (d / "triples_2").write_text("\n".join([lines[0], "", "", lines[1], "2\t0\t0\tx\t0"]) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert (exc.value.file, exc.value.line) == ("triples_2", 5)
        assert train_exit_code(d, tmp_path) == 2
        assert "triples_2:5" in capsys.readouterr().err

    @pytest.mark.parametrize("file, content, message", [
        ("sup_pairs", None, "missing dataset file: {d}/sup_pairs"),
        ("ent_ids_1", b"0\te0\n1\tcaf\xe9\n", "ent_ids_1:2: byte 0xe9 is not UTF-8"),
        ("triples_1", "0\t0\t1\t1\n", "triples_1:1: expected 5 columns, got 4"),
        ("sup_pairs", "0\tzero\n", "sup_pairs:1: id 'zero' is not a 64-bit integer"),
        ("ent_ids_1", "", "ent_ids_1:0: file is empty"),
        ("rel_ids_2", "0\tr0\n\n0\tr1\n", "rel_ids_2:3: duplicate id 0"),
        ("ent_ids_2", "0\te0\n1\te1\n3\te3\n", "ent_ids_2:0: ids are not contiguous (0..3, 3 rows)"),
        ("time_id", "1\tunknown\n2\t2001\n", "time_id:0: time ids must be dense starting at 0"),
        ("time_id", "0\tunknown\n1\tt1\n2\tt1\n", "time_id:3: duplicate label 't1' (also id 1)"),
        ("ref_pairs", "2\t9\n", "ref_pairs:1: dangling entity id in [2, 9]"),
        ("ref_pairs", "2\t2\n0\t2\n", "sup_pairs/ref_pairs:0: g1 entity 0 is in more than one pair"),
    ], ids=["missing-file", "not-utf8", "column-count", "not-integer", "empty-id-file",
            "duplicate-id", "non-contiguous-ids", "time-ids-not-from-0", "duplicate-time-label",
            "dangling-id", "entity-in-two-pairs"])
    def test_malformed_file_exits_2(self, tmp_path, tiny_pair, capsys, file, content, message):
        """Each refusal of the dataset reader exits 2 with one error line."""
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        if content is None:
            (d / file).unlink()
        elif isinstance(content, bytes):
            (d / file).write_bytes(content)
        else:
            (d / file).write_text(content)
        assert train_exit_code(d, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {message.format(d=d)}\n"

    @pytest.mark.parametrize("integer_first", [True, False], ids=["integer-first", "columns-first"])
    @pytest.mark.parametrize("file", ["triples_1", "ent_ids_1"])
    def test_first_bad_line_whichever_the_reason(self, tmp_path, tiny_pair, file, integer_first):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        valid = (d / file).read_text().splitlines()
        not_integer = "\t".join(["x"] * len(valid[0].split("\t")))
        first, later = (not_integer, "0") if integer_first else ("0", not_integer)
        (d / file).write_text("\n".join([valid[0], valid[1], first, valid[2], later]) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert (exc.value.file, exc.value.line) == (file, 3)
        assert ("columns" in str(exc.value)) is not integer_first

    @pytest.mark.parametrize("bad_id", ["x", "99999999999999999999"])
    def test_bad_id_named_at_its_line_as_in_triples(self, tmp_path, tiny_pair, bad_id):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        with open(d / "rel_ids_2", "a") as f:
            f.write(f"\n{bad_id}\tr9\n")
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert str(exc.value) == f"rel_ids_2:3: id '{bad_id}' is not a 64-bit integer"

    @pytest.mark.parametrize("inner", ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                       "\x85", "\r"])
    def test_only_newline_ends_a_line(self, tmp_path, tiny_pair, inner):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        text = f"0\tA{inner}B\n1\te1\n2\te2\n"
        (d / "ent_ids_1").write_bytes(text.encode())
        assert parse_dataset(d)[0].entity_labels == [f"A{inner}B", "e1", "e2"]
        (d / "ent_ids_1").write_bytes((text + "3\n").encode())
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert (exc.value.file, exc.value.line) == ("ent_ids_1", 4)

    def test_crlf_lines_parse_like_lf(self, tmp_path, tiny_pair):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        for f in d.iterdir():
            f.write_bytes(f.read_bytes().replace(b"\n", b"\r\n"))
        assert parse_dataset(d) == (g1, g2, seeds)

    def test_interleaved_duplicates_keep_first_occurrence_order(self, tmp_path, tiny_pair, caplog):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        a, b, c = (d / "triples_1").read_text().splitlines()
        (d / "triples_1").write_text("\n".join([b, a, b, "", c, a, b]) + "\n")
        with caplog.at_level("WARNING"):
            p1, _, _ = parse_dataset(d)
        rows = g1.quadruples.rows
        assert p1.quadruples == QuadTable(rows[[1, 0, 2]])
        assert any("dropped 3 duplicate" in r.message for r in caplog.records)
        assert train_exit_code(d, tmp_path) == 0

    @settings(max_examples=40, deadline=None)
    @given(graph_pairs(), st.booleans())
    def test_random_tables_round_trip(self, data, forge_writer):
        g1, g2, seeds = data
        with tempfile.TemporaryDirectory() as tmp:
            if forge_writer:
                d = Path(tmp)
                write_dataset(d, g1, g2, seeds, {})
            else:
                d = write_dataset_dir(Path(tmp), g1, g2, seeds, continue_ids=True)
            p1, p2, ps = parse_dataset(d)
        assert p1.quadruples == g1.quadruples
        assert p2.quadruples == g2.quadruples
        assert (p1, p2, ps) == (g1, g2, seeds)


# fields Python's int() takes but the dataset contract does not: a separator,
# a + sign, a leading space or \v, a non-ASCII digit, and misplaced minus signs
NOT_ASCII_DECIMAL = ["1_0", "+5", " 5", "\v5", "\u0663", "--1", "5-3", "-"]


class TestIntegerFieldRule:
    """An integer field is ``-?[0-9]+`` in ASCII and fits int64; any other
    exits 2 at its file:line, in every file and in ``forge split``'s source."""

    @pytest.mark.parametrize("field", NOT_ASCII_DECIMAL)
    @pytest.mark.parametrize("file, column", [("triples_1", 2), ("ent_ids_2", 0)])
    def test_dataset_field_exits_2_at_its_line(self, tmp_path, tiny_pair, capsys, file, column,
                                               field):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        lines = (d / file).read_text().splitlines()
        cols = lines[1].split("\t")
        cols[column] = field
        (d / file).write_text("\n".join([lines[0], "", "\t".join(cols)] + lines[2:]) + "\n")
        message = f"{file}:3: id {field!r} is not a 64-bit integer"
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert str(exc.value) == message
        assert train_exit_code(d, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field", NOT_ASCII_DECIMAL)
    def test_forge_split_source_field_exits_2_at_its_line(self, tmp_path, capsys, field):
        src = tmp_path / "source.tsv"
        src.write_text("0\t0\t1\t1\t2\n" f"1\t0\t{field}\t1\t2\n" "2\t0\t3\t1\t2\n")
        out = tmp_path / "o"
        assert main(["forge", "split", "--source", str(src), "--seeds", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: source.tsv:2: id {field!r} is not a 64-bit integer\n"
        assert not (out / "triples_1").exists()

    def test_first_offending_field_is_named(self, tmp_path, tiny_pair):
        """Every field of this line reads as an integer to int(); the first is named."""
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        with open(d / "triples_1", "a") as f:
            f.write("1_0\t+2\t \uff13\t\u0663\t0\n")
        with pytest.raises(ParseError) as exc:
            parse_dataset(d)
        assert str(exc.value) == "triples_1:4: id '1_0' is not a 64-bit integer"

    def test_negative_and_zero_padded_fields_are_integers(self, tmp_path, tiny_pair):
        g1, g2, seeds = tiny_pair
        d = write_dataset_dir(tmp_path / "ds", g1, g2, seeds)
        shift_graph1_ids(d, -7)
        triples = (d / "triples_1").read_text()
        assert "\t1\t" in triples
        (d / "triples_1").write_text(triples.replace("\t1\t", "\t0001\t"))
        assert parse_dataset(d) == (g1, g2, seeds)


def line_reader(data: bytes, name: str, width: int, labelled: bool):
    """The reader's rules stated one line at a time: the reference that
    :func:`read_table`'s array passes must match."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(name, line, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    fields, line_no = [], []
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if line.strip(" ") == "":
            continue
        row = line.split("\t")
        if len(row) != width:
            raise ParseError(name, number, f"expected {width} columns, got {len(row)}")
        for field in row[:1] if labelled else row:
            if not re.fullmatch("-?[0-9]+", field) or not -2 ** 63 <= int(field) < 2 ** 63:
                raise ParseError(name, number, f"id {field!r} is not a 64-bit integer")
        fields += row
        line_no.append(number)
    ints = fields[::width] if labelled else fields
    values = np.array([int(f) for f in ints], dtype=np.int64).reshape(-1, 1 if labelled else width)
    return values, fields[1::width] if labelled else [], line_no


def outcome(read, *args):
    """What a reader gives: its three results, or the ParseError's text."""
    try:
        values, labels, line_no = read(*args)
    except ParseError as exc:
        return exc.file, exc.line, str(exc)
    return values.dtype, values.shape, values.tolist(), labels, line_no


# the characters a line or field rule turns on (with the digits' neighbours / and :),
# and fields at the int64 edges, some behind a prefix that int() would take
HOSTILE = ["0", "1", "9", "-", "\t", "\n", "\r", " ", "\v", "\x85", "\u00e9", "+", "_", "/", ":"]
INT64_EDGES = ["0000000000000000000042", "-00000000000000000000", "9223372036854775807",
               "-9223372036854775808", "999999999999999999", "-1000000000000000000"]
INTEGERS = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1).map(str), st.sampled_from(INT64_EDGES))
FIELDS = st.one_of(
    INTEGERS,
    st.lists(st.sampled_from(HOSTILE), max_size=4).map("".join),
    st.tuples(st.sampled_from(["", "+", " ", "_", "\v", "-"]),
              st.sampled_from(INT64_EDGES + ["9223372036854775808", "-9223372036854775809"]))
    .map("".join),
)


@st.composite
def hostile_files(draw, width: int) -> bytes:
    """Rows of ``width`` integers and blank lines, with up to two lines of
    stray characters or another field count put in, an optional \\r per
    line, and now and then one byte that is not UTF-8."""
    good = st.one_of(st.lists(INTEGERS, min_size=width, max_size=width).map("\t".join),
                     st.sampled_from(["", " ", "  ", "\r", " \r"]))
    bad = st.one_of(st.lists(FIELDS, min_size=width, max_size=width).map("\t".join),
                    st.lists(FIELDS, min_size=max(width - 1, 1), max_size=width + 1).map("\t".join),
                    st.lists(st.sampled_from(HOSTILE), max_size=6).map("".join))
    lines = draw(st.lists(good, max_size=8))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    data = "\n".join(line + "\r" * draw(st.booleans()) for line in lines).encode()
    data += b"\n" * draw(st.booleans())
    if draw(st.sampled_from(range(10))) == 9:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


class TestReadTableMatchesLineReader:
    @pytest.mark.parametrize("labelled", [False, True], ids=["integers", "labelled"])
    @pytest.mark.parametrize("width", [1, 2, 5])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_rows_labels_lines_or_error(self, width, labelled, data):
        body = data.draw(hostile_files(width))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table"
            path.write_bytes(body)
            got = outcome(read_table, path, width, labelled)
        assert got == outcome(line_reader, body, "table", width, labelled)


class TestWriteFile:
    def test_writes_text_as_utf8_and_bytes_as_given(self, tmp_path):
        path = tmp_path / "new" / "dir" / "file"
        write_file(path, "caf\u00e9\n")
        assert path.read_bytes() == "caf\u00e9\n".encode()
        write_file(path, b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        assert sorted(p.name for p in path.parent.iterdir()) == ["file"]

    @pytest.mark.parametrize("failure", [OSError(28, "No space left on device"),
                                         KeyboardInterrupt()], ids=["enospc", "interrupt"])
    def test_a_failed_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path,
                                                                        monkeypatch, failure):
        path = tmp_path / "file"
        write_file(path, "old\n")
        real_write_bytes = Path.write_bytes

        def cut_short(self, data):
            real_write_bytes(self, data[:2])
            raise failure

        monkeypatch.setattr(Path, "write_bytes", cut_short)
        with pytest.raises(WriteError if isinstance(failure, OSError) else KeyboardInterrupt) as info:
            write_file(path, "new content\n")
        if isinstance(failure, OSError):
            assert str(info.value) == f"cannot write {path} (No space left on device)"
            assert info.value.__cause__ is None and info.value.__suppress_context__
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_a_directory_in_the_way_is_refused(self, tmp_path):
        path = tmp_path / "taken"
        (path / "inside").mkdir(parents=True)
        with pytest.raises(WriteError, match=f"^cannot write {re.escape(str(path))} \\("):
            write_file(path, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert [p.name for p in path.iterdir()] == ["inside"]

    def test_temporary_name_is_hidden_beside_the_target(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: seen.append(src) or real_replace(src, dst))
        write_file(tmp_path / "file", "x")
        assert seen == [tmp_path / f".file.{os.getpid()}.tmp"]
