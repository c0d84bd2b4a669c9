"""Entity registry, relation loading, validation and stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinddi.hin import (
    RELATIONS,
    EntityKind,
    EntityRegistry,
    Hin,
    RelationMatrix,
    RelationParseError,
    SchemaError,
    build_hin,
    load_ddi,
    load_hin,
    load_pairs,
    load_registry,
    load_relation,
    save_hin,
    stats,
    sorted_unique,
    unique_rows,
    validate,
)
from tests.conftest import (
    coord_set,
    load_outcome,
    make_hin,
    reference_load_ddi,
    reference_load_pairs,
    reference_load_registry,
    reference_load_relation,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRelation:
    def test_basic_construction(self, tmp_path):
        f = write(tmp_path / "t.tsv", "d1\tp1\nd1\tp2\nd2\tp2\n")
        reg = EntityRegistry()
        t = load_relation(f, "T", reg)
        assert t.nnz == 3
        assert t.shape == (2, 2)
        assert coord_set(t) == {(0, 0), (0, 1), (1, 1)}

    def test_duplicates_collapse(self, tmp_path):
        f = write(tmp_path / "t.tsv", "d1\tp1\nd1\tp1\n")
        t = load_relation(f, "T", EntityRegistry())
        assert t.nnz == 1

    def test_ppi_symmetrized(self, tmp_path):
        f = write(tmp_path / "p.tsv", "p1\tp2\n")
        p = load_relation(f, "P", EntityRegistry())
        assert coord_set(p) == {(0, 1), (1, 0)}

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        f = write(tmp_path / "t.tsv", "# header\n\nd1\tp1\n")
        t = load_relation(f, "T", EntityRegistry())
        assert t.nnz == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = write(tmp_path / "t.tsv", "d1\tp1\nd2 only one column\n")
        with pytest.raises(RelationParseError, match=":2:"):
            load_relation(f, "T", EntityRegistry())

    def test_strict_mode_rejects_unknown_id(self, tmp_path):
        f = write(tmp_path / "t.tsv", "d1\tp1\n")
        reg = EntityRegistry()
        reg.add(EntityKind.DRUG, "d1")
        with pytest.raises(SchemaError, match="p1"):
            load_relation(f, "T", reg, mode="strict")

    def test_ddi_canonicalized_and_deduplicated(self, tmp_path):
        f = write(tmp_path / "ddi.tsv", "d2\td1\nd1\td2\nd3\td1\n")
        reg = EntityRegistry()
        ddi = load_ddi(f, reg)
        assert ddi.dtype == np.int64
        assert ddi.tolist() == [[0, 1], [1, 2]]

    def test_build_hin_takes_any_iterable_of_pairs(self):
        reg = make_hin(3, 0, 0, 0).registry
        empty = {name: RelationMatrix.from_pairs((0, 0), []) for name in RELATIONS}
        for given in ([(1, 2), (0, 1), (1, 2)], {(1, 2), (0, 1)},
                      iter([(1, 2), (0, 1)]), np.array([[1, 2], [0, 1], [1, 2]])):
            ddi = build_hin(reg, empty, given).ddi
            assert ddi.dtype == np.int64
            assert ddi.tolist() == [[0, 1], [1, 2]]
        assert build_hin(reg, empty).ddi.shape == (0, 2)

    def test_strict_ddi_names_the_unknown_id(self, tmp_path):
        f = write(tmp_path / "ddi.tsv", "d1\td9\n")
        reg = EntityRegistry()
        reg.add(EntityKind.DRUG, "d1")
        with pytest.raises(SchemaError, match="^unknown drug id 'd9'$"):
            load_ddi(f, reg, mode="strict")
        assert reg.ids(EntityKind.DRUG) == ["d1"]

    def test_ddi_self_pair_rejected(self, tmp_path):
        f = write(tmp_path / "ddi.tsv", "d1\td1\n")
        with pytest.raises(RelationParseError, match="self-interaction"):
            load_ddi(f, EntityRegistry())


    def test_strict_reports_the_unknown_id_of_the_earlier_line(self, tmp_path):
        # the right column's unknown id comes on an earlier line than the left's
        f = write(tmp_path / "t.tsv", "d1\tp1\nd1\tpX\ndX\tp1\n")
        reg = EntityRegistry()
        reg.add(EntityKind.DRUG, "d1")
        reg.add(EntityKind.PROTEIN, "p1")
        with pytest.raises(SchemaError, match="^unknown protein id 'pX'$"):
            load_relation(f, "T", reg, mode="strict")
        f = write(tmp_path / "t.tsv", "d1\tp1\ndX\tpX\n")
        with pytest.raises(SchemaError, match="^unknown drug id 'dX'$"):
            load_relation(f, "T", reg, mode="strict")

    def test_discovery_order_interleaves_same_kind_columns(self, tmp_path):
        f = write(tmp_path / "p.tsv", "p2\tp1\np3\tp2\np1\tp4\n")
        reg = EntityRegistry()
        load_relation(f, "P", reg)
        assert reg.ids(EntityKind.PROTEIN) == ["p2", "p1", "p3", "p4"]
        f = write(tmp_path / "t.tsv", "d2\tp9\nd1\tp1\nd2\tp8\n")
        load_relation(f, "T", reg)
        assert reg.ids(EntityKind.DRUG) == ["d2", "d1"]
        assert reg.ids(EntityKind.PROTEIN) == ["p2", "p1", "p3", "p4", "p9", "p8"]

    def test_ddi_self_pair_after_unknown_id_reports_the_id(self, tmp_path):
        f = write(tmp_path / "ddi.tsv", "d1\tdX\nd1\td1\n")
        reg = EntityRegistry()
        reg.add(EntityKind.DRUG, "d1")
        with pytest.raises(SchemaError, match="dX"):
            load_ddi(f, reg, mode="strict")
        with pytest.raises(RelationParseError, match=":2: self-interaction 'd1'"):
            load_ddi(f, reg)
        assert reg.ids(EntityKind.DRUG) == ["d1", "dX"]

    def test_load_pairs_gives_columns_and_line_numbers(self, tmp_path):
        f = write(tmp_path / "x.tsv", "# c\r\n a\tb \r\n\n\tc\td\t\nc\tc\n")
        lines, left, right = load_pairs(f)
        assert lines.dtype == np.int64
        assert lines.tolist() == [2, 4, 5]
        assert left == ["a", "c", "c"] and right == ["b", "d", "c"]


# Generated TSV files for the loaders: ids from a small pool shared by all
# kinds, so duplicates, self-pairs and ids first seen in the right column
# are common; surrounding spaces and tabs, comments, blank lines, CRLF
# endings, and now and then a malformed line.
_ID = st.sampled_from(["a", "b", "c", "d", "e f", "é"])
_PAD = st.sampled_from(["", " ", "\t", " \t "])
_EOL = st.sampled_from(["\n", "\r\n"])
_PAIR_LINE = st.builds(lambda a, b, left, right: f"{left}{a}\t{b}{right}", _ID, _ID, _PAD, _PAD)
_LINE = st.one_of(_PAIR_LINE, _PAIR_LINE, _PAIR_LINE,
                  st.sampled_from(["# comment\ta\tb", "#", "", "  "]),
                  st.sampled_from(["a", "a\tb\tc", "a \t", "a\t\tb"]))
_TEXT = st.lists(st.tuples(_LINE, _EOL), max_size=10).map(
    lambda lines: "".join(line + eol for line, eol in lines))


def _registry(known):
    reg = EntityRegistry()
    for kind, ids in zip(EntityKind, known):
        for ident in ids:
            reg.add(kind, ident)
    return reg


def _same(got, want):
    if isinstance(want, RelationMatrix):
        return got.shape == want.shape and got.coords.tobytes() == want.coords.tobytes()
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLoadersMatchPerLineOracle:
    """The column loaders against the per-line loaders they replaced: same
    registry order, arrays, and error type and text, in both modes."""

    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT, what=st.sampled_from(["T", "P", "ddi"]),
           mode=st.sampled_from(["discover", "strict"]),
           known=st.lists(st.lists(_ID, unique=True, max_size=5), min_size=4, max_size=4))
    def test_relations_and_ddi(self, tmp_path_factory, text, what, mode, known):
        path = tmp_path_factory.mktemp("tsv") / "x.tsv"
        path.write_bytes(text.encode("utf-8"))
        got_reg, want_reg = _registry(known), _registry(known)
        if what == "ddi":
            got, got_error = load_outcome(load_ddi, path, got_reg, mode)
            want, want_error = load_outcome(reference_load_ddi, path, want_reg, mode)
        else:
            got, got_error = load_outcome(load_relation, path, what, got_reg, mode)
            want, want_error = load_outcome(reference_load_relation, path, what, want_reg, mode)
        assert got_error == want_error
        assert want_error or _same(got, want)
        for kind in EntityKind:
            assert got_reg.ids(kind) == want_reg.ids(kind)
        pairs = load_outcome(lambda p: list(zip(*load_pairs(p))), path)
        assert pairs == load_outcome(reference_load_pairs, path)

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.tuples(
               st.sampled_from(list(EntityKind)), _ID, _PAD, _EOL,
               st.sampled_from([None] * 12 + ["index", "+", " ", "x", "", "kind",
                                              "columns", "comment", "blank"])),
               max_size=12))
    def test_registry(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("tsv") / "registry.tsv"
        seen = {kind: {} for kind in EntityKind}
        text = []
        for kind, ident, pad, eol, fault in entries:
            index = str(seen[kind].setdefault(ident, len(seen[kind])))
            line = {"index": f"{kind.value}\t{int(index) + 1}\t{ident}",
                    "kind": f"bogus\t{index}\t{ident}",
                    "columns": f"{kind.value}\t{index}",
                    "comment": f"# {kind.value}\t{index}\t{ident}",
                    "blank": ""}.get(fault, f"{kind.value}\t{fault or ''}{index}\t{ident}")
            text.append(pad + line + pad + eol)
        path.write_bytes("".join(text).encode("utf-8"))
        got, got_error = load_outcome(load_registry, path)
        want, want_error = load_outcome(reference_load_registry, path)
        assert got_error == want_error
        if want:
            for kind in EntityKind:
                assert got.ids(kind) == want.ids(kind)


class TestValidate:
    def test_well_formed_toy_passes(self):
        hin = make_hin(2, 2, 1, 1, t_pairs=[(0, 0), (1, 1)], c_pairs=[(0, 0)],
                       h_pairs=[(1, 0)], p_pairs=[(0, 1)], ddi=[(0, 1)])
        report = validate(hin)
        assert report.passed
        assert not report.errors and not report.warnings

    def test_injected_asymmetry_names_pair(self):
        hin = make_hin(2, 2, 0, 0, t_pairs=[(0, 0), (1, 1)])
        broken = RelationMatrix.from_pairs((2, 2), [(0, 1)])
        report = validate(Hin(hin.registry, hin.relations | {"P": broken}, hin.ddi))
        assert not report.passed
        assert any("p0" in e and "p1" in e for e in report.errors)

    def test_diagonal_entry_is_error(self):
        hin = make_hin(1, 1, 0, 0, t_pairs=[(0, 0)])
        diag = RelationMatrix.from_pairs((1, 1), [(0, 0)])
        report = validate(Hin(hin.registry, hin.relations | {"P": diag}, hin.ddi))
        assert any("diagonal" in e for e in report.errors)

    def test_bad_ddi_pairs_are_errors_one_each(self):
        hin = make_hin(3, 1, 0, 0, t_pairs=[(0, 0), (1, 0), (2, 0)])
        hin.ddi = np.array([[0, 1], [2, 1], [1, 5], [1, 1], [-1, 2]])
        report = validate(hin)
        assert report.errors == [f"DDI: pair {p} out of bounds or not canonical"
                                 for p in ("(2, 1)", "(1, 5)", "(1, 1)", "(-1, 2)")]
        assert not report.warnings

    def test_orphan_is_warning_not_failure(self):
        hin = make_hin(2, 1, 0, 0, t_pairs=[(0, 0)])  # d1 has no relations
        report = validate(hin)
        assert report.passed
        assert any("d1" in w for w in report.warnings)

    def test_orphans_are_counted_per_kind(self):
        hin = make_hin(4, 2, 1, 5, t_pairs=[(0, 0)], h_pairs=[(2, 2)],
                       ddi=[(0, 2)])
        report = validate(hin)
        assert report.passed
        assert report.warnings == [
            "orphan drug: 2 with no relations, e.g. 'd1', 'd3'",
            "orphan protein: 1 with no relations, e.g. 'p1'",
            "orphan side_effect: 1 with no relations, e.g. 's0'",
            "orphan substructure: 4 with no relations, e.g. 'b0', 'b1', 'b3', ...",
        ]


class TestStats:
    def test_empty_hin_all_zero(self):
        hin = make_hin(0, 0, 0, 0)
        assert all(v == 0 for v in stats(hin).values())

    def test_toy_counts(self, toy_hin):
        s = stats(toy_hin)
        assert s["Drug"] == 2 and s["Protein"] == 2 and s["DPI"] == 3

    def test_paper_schema_scale_counts(self, tmp_path):
        # Synthesize inputs at the published dataset sizes and check the
        # summary reproduces them: 513 drugs, 290 proteins, 527 side
        # effects, 11845 DDI, 514 DPI, 13674 drug-side-effect, 413 PPI.
        rng = np.random.default_rng(0)
        nd, npr, nse = 513, 290, 527

        def sample_pairs(rows, cols, count):
            chosen = rng.choice(rows * cols, size=count, replace=False)
            return [(int(k) % rows, int(k) // rows) for k in chosen]

        # cover every side effect, then fill to the target count
        c_pairs = {(int(rng.integers(nd)), j) for j in range(nse)}
        while len(c_pairs) < 13674:
            c_pairs.add((int(rng.integers(nd)), int(rng.integers(nse))))
        # cover every protein with a matching, then add extra PPI pairs
        p_pairs = {(2 * k, 2 * k + 1) for k in range(npr // 2)}
        while len(p_pairs) < 413:
            i, j = rng.integers(npr, size=2)
            if i != j:
                p_pairs.add((min(int(i), int(j)), max(int(i), int(j))))
        ddi = set()
        while len(ddi) < 11845:
            i, j = rng.integers(nd, size=2)
            if i != j:
                ddi.add((min(int(i), int(j)), max(int(i), int(j))))
        hin = make_hin(nd, npr, nse, 167,
                       t_pairs=sample_pairs(nd, npr, 514),
                       c_pairs=c_pairs,
                       h_pairs=[(i, int(rng.integers(167))) for i in range(nd)],
                       p_pairs=p_pairs,
                       ddi=ddi)
        s = stats(hin)
        assert s == {"Drug": 513, "Protein": 290, "SideEffect": 527,
                     "Substructure": 167, "DDI": 11845, "DPI": 514,
                     "DrugSideEffect": 13674, "PPI": 413}


class TestRoundTrip:
    def test_save_load_identical_coordinates(self, tmp_path):
        rng = np.random.default_rng(5)
        from tests.conftest import random_hin
        hin = random_hin(rng)
        hin.ddi = np.array([[0, 1]])
        save_hin(hin, tmp_path / "graph")
        back = load_hin(tmp_path / "graph")
        for name in ("T", "C", "H", "P"):
            assert coord_set(back.matrix(name)) == coord_set(hin.matrix(name))
        np.testing.assert_array_equal(back.ddi, hin.ddi)
        for kind in EntityKind:
            assert back.registry.ids(kind) == hin.registry.ids(kind)

    def test_stats_equal_coordinate_set_sizes(self):
        rng = np.random.default_rng(9)
        from tests.conftest import random_hin
        for _ in range(10):
            hin = random_hin(rng)
            s = stats(hin)
            assert s["DPI"] == len(coord_set(hin.matrix("T")))
            assert s["DrugSideEffect"] == len(coord_set(hin.matrix("C")))
            assert s["PPI"] * 2 == len(coord_set(hin.matrix("P")))


class TestRelationMatrix:
    def test_out_of_bounds_rejected(self):
        with pytest.raises(SchemaError, match="bounds"):
            RelationMatrix.from_pairs((2, 2), [(0, 5)])

    def test_kind_schema_enforced_on_assembly(self):
        # kinds come from RELATIONS by name, so the schema to enforce is
        # the set of names: one missing (or unknown) matrix is an error
        empty = {name: RelationMatrix.from_pairs((0, 0), []) for name in RELATIONS}
        build_hin(EntityRegistry(), empty)
        del empty["H"]
        with pytest.raises(SchemaError, match="expected"):
            build_hin(EntityRegistry(), empty)
        with pytest.raises(SchemaError, match="expected"):
            build_hin(EntityRegistry(), empty | {"H": empty["T"], "X": empty["T"]})


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-5, 40), st.integers(-5, 40)), max_size=30),
       far=st.sampled_from([0, 2**40]), presort=st.booleans())
def test_unique_rows_equal_np_unique_on_rows(rows, far, presort):
    # `far` pushes one column past the range the int64 keys can hold
    pairs = np.array(rows, dtype=np.int64).reshape(-1, 2)
    pairs[:, 1] += far
    if presort:
        pairs = np.unique(pairs, axis=0)
    got = unique_rows(pairs)
    want = np.unique(pairs, axis=0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, pairs)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(-3, 3), max_size=12))
def test_sorted_unique_equals_np_unique(values):
    values = np.array(values, dtype=np.int64)
    got, want = sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
