"""SMILES tokenization, merge vocabulary and feature encoding."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinddi.espf import (
    FINGERPRINT_BITS,
    FeatureMatrix,
    RelationParseError,
    SmilesError,
    Vocabulary,
    _encode_corpus,
    build_feature_matrix,
    build_vocab,
    load_features,
    load_fingerprints,
    load_smiles,
    save_features,
    save_vocab,
    tokenize_smiles,
)
from hinddi.hin import EntityKind, EntityRegistry
from hinddi.metapath import builtin_specs, commuting_matrix
from perfbench.workloads import PAPER_SPEC, generate_clustered
from tests.conftest import (
    coord_set,
    load_outcome,
    make_registry,
    merge_sequence,
    pair_counts,
    reference_build_vocab,
    reference_encode_drug,
    reference_load_features,
    reference_load_fingerprints,
    reference_tokenize_smiles,
)

# SMILES-like strings from a small alphabet in runs of up to five, so pair
# frequencies tie often and runs such as "CCCC" exercise non-overlap.
_smiles = st.lists(st.tuples(st.sampled_from(["C", "N", "O", "=", "Cl"]),
                             st.integers(1, 5)),
                   min_size=1, max_size=8).map(
    lambda runs: "".join(tok * k for tok, k in runs))
_corpora = st.lists(_smiles, min_size=1, max_size=8)

# Token lists, not SMILES: runs of up to twelve equal tokens, so merges
# split runs of odd and even length; the multi-character token "CC", so
# "C"+"CC" and "CC"+"C" form equal units; and empty lists.
_token_corpora = st.lists(
    st.lists(st.tuples(st.sampled_from(["C", "N", "O", "=", "Cl", "CC"]),
                       st.integers(1, 12)),
             max_size=6).map(lambda runs: [tok for tok, k in runs for _ in range(k)]),
    min_size=1, max_size=8)

# SMILES with bracket atoms and single tokens of any character: control
# characters, a lone surrogate, the last code point, and the low code points
# the corpus replay gives its units.
_odd = (st.sampled_from(["\0", "\x01", "\x02", "\x03", "\ud800", "\U0010ffff"])
        | st.characters(exclude_characters="["))
_any_smiles = st.lists(
    st.sampled_from(["C", "N", "O", "Cl"]) | _odd
    | st.lists(_odd.filter(lambda c: c != "]"), max_size=3).map(lambda cs: f"[{''.join(cs)}]"),
    min_size=1, max_size=10).map("".join)


class TestTokenize:
    def test_single_char_atoms(self):
        assert tokenize_smiles("CCO") == ["C", "C", "O"]

    def test_two_letter_and_bonds(self):
        assert tokenize_smiles("C(Br)=O") == ["C", "(", "Br", ")", "=", "O"]

    def test_bracket_atoms_are_single_tokens(self):
        assert tokenize_smiles("[nH]1cc1") == ["[nH]", "1", "c", "c", "1"]

    def test_unbalanced_bracket_reports_position(self):
        with pytest.raises(SmilesError, match="position 2"):
            tokenize_smiles("CC[nH")

    def test_round_trip(self):
        for s in ("CCO", "C(Br)=O", "[nH]1cc1", "ClC(Cl)Cl", "C%12CC%12",
                  "O=C(O)c1ccccc1"):
            assert "".join(tokenize_smiles(s)) == s

    def test_empty_rejected(self):
        with pytest.raises(SmilesError):
            tokenize_smiles("")

    @settings(max_examples=300, deadline=None)
    @given(s=st.text(st.sampled_from("[]ClBrN(=)\n\0") | st.characters(), max_size=12))
    def test_matches_character_scan(self, s):
        assert load_outcome(tokenize_smiles, s) == load_outcome(reference_tokenize_smiles, s)


class TestBuildVocab:
    def test_hand_traced_merge(self):
        # {"CCO", "CCN"}, threshold 2: only (C, C) reaches frequency 2, so
        # the single merge is CC; base units are the sorted letters.
        corpus = [tokenize_smiles("CCO"), tokenize_smiles("CCN")]
        vocab = build_vocab(corpus, threshold=2, max_size=10)
        assert vocab.units == ("C", "N", "O", "CC")
        assert vocab.merges == (("C", "C"),)

    def test_threshold_above_all_frequencies(self):
        corpus = [tokenize_smiles("CCO"), tokenize_smiles("CCN")]
        vocab = build_vocab(corpus, threshold=3, max_size=10)
        assert vocab.units == ("C", "N", "O")
        assert vocab.merges == ()

    def test_max_size_at_base_units_blocks_merges(self):
        corpus = [tokenize_smiles("CCO"), tokenize_smiles("CCN")]
        vocab = build_vocab(corpus, threshold=2, max_size=3)
        assert vocab.units == ("C", "N", "O")

    def test_non_overlapping_pair_counting(self):
        # "CCC" holds one non-overlapping (C, C) occurrence, so threshold 2
        # is not reached by a single sequence.
        vocab = build_vocab([tokenize_smiles("CCC")], threshold=2, max_size=10)
        assert vocab.merges == ()

    def test_deterministic_across_runs(self):
        corpus = [tokenize_smiles(s) for s in
                  ("CCOCC", "CCNCC", "OCCO", "NCCN", "CCCC")]
        a = build_vocab(corpus, threshold=2, max_size=16)
        b = build_vocab([list(seq) for seq in corpus], threshold=2, max_size=16)
        assert a == b

    def test_merges_shrink_corpus_by_pair_frequency(self):
        corpus = [tokenize_smiles(s) for s in ("CCOCC", "CCNCC", "CCCC")]
        sequences = [list(s) for s in corpus]
        for _ in range(4):
            counts = Counter()
            for s in sequences:
                counts.update(pair_counts(s))
            if not counts:
                break
            pair = max(counts, key=lambda p: (counts[p],))
            before = sum(len(s) for s in sequences)
            sequences = [merge_sequence(s, pair) for s in sequences]
            after = sum(len(s) for s in sequences)
            assert before - after == counts[pair]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            build_vocab([["C"]], threshold=0)

    def test_equal_products_share_a_unit(self):
        # (C, CC) and (CC, C) tie at 2 on the same concatenation, so the
        # smaller pair merges first; the second merge adds no unit.
        corpus = [["C", "CC"], ["C", "CC"], ["CC", "C"], ["CC", "C"]]
        vocab = build_vocab(corpus, threshold=2, max_size=10)
        assert vocab.units == ("C", "CC", "CCC")
        assert vocab.merges == (("C", "CC"), ("CC", "C"))

    def test_empty_sequences_hold_no_pairs(self):
        vocab = build_vocab([[], ["C", "C"], [], [], ["C", "C"], []], threshold=2)
        assert vocab.units == ("C", "CC") and vocab.merges == (("C", "C"),)
        assert build_vocab([[]], threshold=1).units == ()

    @settings(max_examples=500, deadline=None)
    @given(corpus=_corpora.map(lambda c: [tokenize_smiles(s) for s in c]) | _token_corpora,
           threshold=st.integers(1, 4), max_size=st.integers(1, 64))
    def test_array_merges_match_full_recount(self, corpus, threshold, max_size):
        assert (build_vocab(corpus, threshold, max_size)
                == reference_build_vocab(corpus, threshold, max_size))

    def test_paper_scale_corpus_matches_full_recount(self):
        smiles = generate_clustered(PAPER_SPEC, 0)["smiles.tsv"]
        corpus = [tokenize_smiles(line.split("\t")[1]) for line in smiles]
        vocab = build_vocab(corpus, threshold=5)
        assert vocab == reference_build_vocab(corpus, threshold=5, max_size=512)
        assert (len(vocab.merges), vocab.size) == (169, 189)


class TestEncode:
    def test_merge_trace_bits(self):
        vocab = build_vocab([tokenize_smiles("CCO"), tokenize_smiles("CCN")],
                            threshold=2, max_size=10)
        (row,) = _encode_corpus([tokenize_smiles("CCO")], vocab)
        bits = {vocab.units[k] for k in np.flatnonzero(row)}
        assert bits == {"CC", "O"}

    def test_no_merges_gives_raw_token_set(self):
        vocab = Vocabulary(("C", "N", "O"), 3, (), 5, 512)
        (row,) = _encode_corpus([tokenize_smiles("CON")], vocab)
        assert row.tolist() == [1, 1, 1]

    def test_encoding_is_deterministic(self):
        vocab = build_vocab([tokenize_smiles("CCOCC")], threshold=2, max_size=10)
        tokens = tokenize_smiles("CCOCC")
        np.testing.assert_array_equal(_encode_corpus([tokens], vocab),
                                      _encode_corpus([tokens], vocab))

    def test_unknown_unit_falls_back_to_base_chars(self):
        vocab = Vocabulary(("C", "O"), 2, (), 5, 512)
        (row,) = _encode_corpus([tokenize_smiles("CSO")], vocab)  # S unseen
        bits = {vocab.units[k] for k in np.flatnonzero(row)}
        assert bits == {"C", "O"}

    @settings(max_examples=150, deadline=None)
    @given(corpus=_corpora, others=st.lists(_smiles | st.just("CSN[nH]C"), max_size=4),
           threshold=st.integers(1, 4), max_size=st.integers(1, 24),
           truncate=st.booleans())
    def test_matches_replay_of_every_merge(self, corpus, others, threshold, max_size,
                                           truncate):
        vocab = build_vocab([tokenize_smiles(s) for s in corpus], threshold, max_size)
        if truncate:  # merge products missing from the units fall back to chars
            vocab = Vocabulary(vocab.units[:vocab.n_base], vocab.n_base, vocab.merges,
                               threshold, max_size)
        smiles = corpus + others
        expected = [reference_encode_drug(tokenize_smiles(s), vocab) for s in smiles]
        for s, row in zip(smiles, expected):
            np.testing.assert_array_equal(_encode_corpus([tokenize_smiles(s)], vocab)[0], row)
        fm = build_feature_matrix({f"d{k}": s for k, s in enumerate(smiles)}, vocab,
                                  make_registry(len(smiles)))
        np.testing.assert_array_equal(fm.values, np.stack(expected))

    @settings(max_examples=150, deadline=None)
    @given(corpus=st.lists(_any_smiles, min_size=1, max_size=6),
           threshold=st.integers(1, 3), max_size=st.integers(1, 24))
    def test_any_characters_match_replay_of_every_merge(self, corpus, threshold, max_size):
        sequences = [tokenize_smiles(s) for s in corpus]
        vocab = build_vocab(sequences + sequences, threshold, max_size)
        expected = [reference_encode_drug(tokens, vocab) for tokens in sequences]
        for tokens, row in zip(sequences, expected):
            np.testing.assert_array_equal(_encode_corpus([tokens], vocab)[0], row)
        fm = build_feature_matrix({f"d{k}": s for k, s in enumerate(corpus)}, vocab,
                                  make_registry(len(corpus)))
        np.testing.assert_array_equal(fm.values, np.stack(expected))

    def test_registry_alignment_and_missing_smiles(self):
        reg = make_registry(2)
        vocab = build_vocab([tokenize_smiles("CC")], threshold=5, max_size=8)
        with pytest.raises(SmilesError, match="d1"):
            build_feature_matrix({"d0": "CC"}, vocab, reg)
        fm = build_feature_matrix({"d0": "CC", "d1": "C"}, vocab, reg)
        assert fm.values.shape == (2, vocab.size)
        assert fm.drug_ids == ("d0", "d1")


class TestLoadSmiles:
    def test_pairs_by_drug(self, tmp_path):
        f = tmp_path / "smiles.tsv"
        f.write_text("# drug\tsmiles\nd0\tCCO\n\nd1\tC[NH3+]\n", encoding="utf-8")
        assert load_smiles(f) == {"d0": "CCO", "d1": "C[NH3+]"}

    @pytest.mark.parametrize("line", ["d1", "d1\tCC\tO", "\tCC"])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        f = tmp_path / "smiles.tsv"
        f.write_text(f"d0\tCCO\n{line}\n", encoding="utf-8")
        with pytest.raises(RelationParseError, match=f"^{re.escape(str(f))}:2: "):
            load_smiles(f)

    def test_repeated_drug_names_both_lines(self, tmp_path):
        f = tmp_path / "smiles.tsv"
        f.write_text("d0\tCCO\n# note\nd1\tC\nd0\tCCN\n", encoding="utf-8")
        with pytest.raises(RelationParseError,
                           match=f"^{re.escape(str(f))}:4: drug 'd0' repeats line 1$"):
            load_smiles(f)


class TestSaveVocab:
    def test_header_base_units_then_merges(self, tmp_path):
        vocab = build_vocab([tokenize_smiles("CCOCC")], threshold=2, max_size=10)
        save_vocab(vocab, tmp_path / "vocab.tsv")
        assert (tmp_path / "vocab.tsv").read_text(encoding="utf-8") == (
            "#threshold=2\tmax_size=10\nC\nO\nCC\tC\tC\n")


class TestFingerprints:
    def bitstring(self, bits):
        s = ["0"] * FINGERPRINT_BITS
        for b in bits:
            s[b] = "1"
        return "".join(s)

    def test_three_set_bits_three_nonzeros(self, tmp_path):
        f = tmp_path / "fp.tsv"
        f.write_text(f"d0\t{self.bitstring([1, 42, 100])}\n", encoding="utf-8")
        reg = EntityRegistry()
        h, fm = load_fingerprints(f, reg)
        assert h.nnz == 3
        assert reg.count(EntityKind.SUBSTRUCTURE) == FINGERPRINT_BITS
        assert fm.d0 == FINGERPRINT_BITS
        assert fm.values.sum() == 3

    def test_all_zero_bitstring_keeps_drug(self, tmp_path):
        f = tmp_path / "fp.tsv"
        f.write_text(f"d0\t{self.bitstring([])}\n", encoding="utf-8")
        reg = EntityRegistry()
        h, fm = load_fingerprints(f, reg)
        assert reg.count(EntityKind.DRUG) == 1
        assert h.nnz == 0

    def test_shared_bit_creates_substructure_path(self, tmp_path):
        f = tmp_path / "fp.tsv"
        f.write_text(f"d0\t{self.bitstring([42])}\nd1\t{self.bitstring([42, 7])}\n",
                     encoding="utf-8")
        reg = EntityRegistry()
        h, _ = load_fingerprints(f, reg)
        from hinddi.hin import RelationMatrix, build_hin
        empty = RelationMatrix.from_pairs((0, 0), [])
        hin = build_hin(reg, {"T": empty, "C": empty, "H": h, "P": empty})
        spec = [s for s in builtin_specs() if s.name == "DID-3"][0]
        counts = commuting_matrix(hin, spec).counts
        assert counts[0, 1] >= 1

    def test_bits_map_to_registered_substructures(self, tmp_path):
        # Substructures registered earlier shift the bit entities' indices.
        f = tmp_path / "fp.tsv"
        f.write_text(f"d0\t{self.bitstring([0, 42, 100])}\n", encoding="utf-8")
        reg = EntityRegistry()
        reg.add(EntityKind.SUBSTRUCTURE, "b0")
        reg.add(EntityKind.SUBSTRUCTURE, "fp_100")
        h, _ = load_fingerprints(f, reg)
        d0 = reg.index_of(EntityKind.DRUG, "d0")
        assert coord_set(h) == {(d0, reg.index_of(EntityKind.SUBSTRUCTURE, f"fp_{b:03d}"))
                                for b in (0, 42, 100)}

    @pytest.mark.parametrize("line", ["d1", "d1\t0101\t1"])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        f = tmp_path / "fp.tsv"
        f.write_text(f"d0\t{self.bitstring([3])}\n{line}\n", encoding="utf-8")
        with pytest.raises(RelationParseError, match=f"^{re.escape(str(f))}:2: "):
            load_fingerprints(f, EntityRegistry())

    def test_wrong_length_names_drug(self, tmp_path):
        f = tmp_path / "fp.tsv"
        f.write_text("dX\t0101\n", encoding="utf-8")
        with pytest.raises(RelationParseError, match="dX"):
            load_fingerprints(f, EntityRegistry())

    def test_repeated_drug_names_both_lines(self, tmp_path):
        # The same drug twice used to give relation H the union of both
        # bitstrings but the feature row only the second.
        f = tmp_path / "fp.tsv"
        f.write_text(f"d0\t{self.bitstring([0])}\nd1\t{self.bitstring([])}\n"
                     f"d0\t{self.bitstring([1])}\n", encoding="utf-8")
        reg = EntityRegistry()
        with pytest.raises(RelationParseError,
                           match=f"^{re.escape(str(f))}:3: drug 'd0' repeats line 1$"):
            load_fingerprints(f, reg)
        assert reg.ids(EntityKind.DRUG) == ["d0", "d1"]

    def test_bad_bitstring_before_repeat_is_reported(self, tmp_path):
        f = tmp_path / "fp.tsv"
        f.write_text(f"d0\t{self.bitstring([0])}\nd1\t01\nd0\t{self.bitstring([])}\n",
                     encoding="utf-8")
        with pytest.raises(RelationParseError, match=":2: drug 'd1' needs a 167-character"):
            load_fingerprints(f, EntityRegistry())


# Bitstring files of distinct drugs: mostly valid rows, now and then one of
# another length or with a character other than 0/1.
_BITS = st.tuples(st.integers(0, 2**FINGERPRINT_BITS - 1),
                  st.sampled_from([None] * 10 + ["short", "long", "2", " ", "é", "\0", "\x85"]))


def _bitstring(value, fault, width=FINGERPRINT_BITS):
    bits = format(value, f"0{FINGERPRINT_BITS}b")[:width]
    if fault in ("short", "long"):
        return bits[:-1] if fault == "short" else bits + "1"
    return bits if fault is None else bits[:3] + fault + bits[4:]


class TestBitstringLoadersMatchPerLineOracle:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), _BITS, max_size=5),
           known=st.lists(st.sampled_from(["a", "b", "c", "z"]), unique=True, max_size=4),
           mode=st.sampled_from(["discover", "strict"]))
    def test_fingerprints(self, tmp_path_factory, rows, known, mode):
        path = tmp_path_factory.mktemp("fp") / "fingerprints.tsv"
        path.write_bytes("".join(f"{drug}\t{_bitstring(*bits)}\r\n"
                                 for drug, bits in rows.items()).encode("utf-8"))
        got_reg, want_reg = make_registry(0), make_registry(0)
        for reg in (got_reg, want_reg):
            for drug in known:
                reg.add(EntityKind.DRUG, drug)
        got, got_error = load_outcome(load_fingerprints, path, got_reg, mode)
        want, want_error = load_outcome(reference_load_fingerprints, path, want_reg, mode)
        assert got_error == want_error
        if want:
            assert got[0].shape == want[0].shape
            assert got[0].coords.tobytes() == want[0].coords.tobytes()
            assert got[1].drug_ids == want[1].drug_ids and got[1].mode == want[1].mode
            assert got[1].values.dtype == want[1].values.dtype
            assert got[1].values.tobytes() == want[1].values.tobytes()
        for kind in EntityKind:
            assert got_reg.ids(kind) == want_reg.ids(kind)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.dictionaries(st.sampled_from(["d0", "d1", "d2", "d3"]), _BITS, max_size=4),
           width=st.integers(1, 12), n_drugs=st.integers(1, 4))
    def test_features(self, tmp_path_factory, rows, width, n_drugs):
        path = tmp_path_factory.mktemp("features") / "features.tsv"
        path.write_bytes("".join([f"#mode=fingerprint\td0={width}\n"]
                                 + [f"{drug}\t{_bitstring(*bits, width)}\n"
                                    for drug, bits in rows.items()]).encode("utf-8"))
        reg = make_registry(n_drugs)
        got, got_error = load_outcome(load_features, path, reg)
        want, want_error = load_outcome(reference_load_features, path, reg)
        assert got_error == want_error
        if want:
            assert got.drug_ids == want.drug_ids and got.mode == want.mode
            assert got.values.dtype == want.values.dtype
            assert got.values.tobytes() == want.values.tobytes()


class TestLoadFeatures:
    def test_round_trip(self, tmp_path):
        reg = make_registry(3)
        values = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=np.uint8)
        save_features(FeatureMatrix(("d0", "d1", "d2"), values, "espf"), tmp_path / "f.tsv")
        back = load_features(tmp_path / "f.tsv", reg)
        assert back.mode == "espf" and back.drug_ids == ("d0", "d1", "d2")
        assert back.values.dtype == np.uint8 and back.values.tolist() == values.tolist()

    def test_repeated_drug_names_both_lines(self, tmp_path):
        f = tmp_path / "features.tsv"
        f.write_text("#mode=espf\td0=2\nd0\t01\nd1\t11\nd1\t10\n", encoding="utf-8")
        with pytest.raises(RelationParseError,
                           match=f"^{re.escape(str(f))}:4: drug 'd1' repeats line 3$"):
            load_features(f, make_registry(2))

    def test_undeclared_width_is_the_first_rows(self, tmp_path):
        f = tmp_path / "features.tsv"
        f.write_text("d0\t011\nd1\t10\n", encoding="utf-8")
        with pytest.raises(RelationParseError, match=":2: row width 2 != first row width 3"):
            load_features(f, make_registry(2))
