"""SMILES tokenization, merge vocabulary and feature encoding."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinddi.espf import (
    FINGERPRINT_BITS,
    RelationParseError,
    SmilesError,
    Vocabulary,
    build_feature_matrix,
    build_vocab,
    encode_drug,
    load_fingerprints,
    load_smiles,
    load_vocab,
    save_vocab,
    tokenize_smiles,
)
from hinddi.hin import EntityKind, EntityRegistry
from hinddi.metapath import builtin_specs, commuting_matrix
from tests.conftest import coord_set, make_registry, reference_build_vocab, reference_encode_drug

# SMILES-like strings from a small alphabet in runs of up to five, so pair
# frequencies tie often and runs such as "CCCC" exercise non-overlap.
_smiles = st.lists(st.tuples(st.sampled_from(["C", "N", "O", "=", "Cl"]),
                             st.integers(1, 5)),
                   min_size=1, max_size=8).map(
    lambda runs: "".join(tok * k for tok, k in runs))
_corpora = st.lists(_smiles, min_size=1, max_size=8)


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
        from hinddi.espf import _merge_sequence, _pair_counts
        sequences = [list(s) for s in corpus]
        for _ in range(4):
            counts = Counter()
            for s in sequences:
                counts.update(_pair_counts(s))
            if not counts:
                break
            pair = max(counts, key=lambda p: (counts[p],))
            before = sum(len(s) for s in sequences)
            sequences = [_merge_sequence(s, pair) for s in sequences]
            after = sum(len(s) for s in sequences)
            assert before - after == counts[pair]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            build_vocab([["C"]], threshold=0)

    @settings(max_examples=300, deadline=None)
    @given(corpus=_corpora, threshold=st.integers(1, 4), max_size=st.integers(1, 24))
    def test_incremental_counts_match_full_recount(self, corpus, threshold, max_size):
        corpus = [tokenize_smiles(s) for s in corpus]
        assert (build_vocab(corpus, threshold, max_size)
                == reference_build_vocab(corpus, threshold, max_size))


class TestEncode:
    def test_merge_trace_bits(self):
        vocab = build_vocab([tokenize_smiles("CCO"), tokenize_smiles("CCN")],
                            threshold=2, max_size=10)
        row = encode_drug(tokenize_smiles("CCO"), vocab)
        bits = {vocab.units[k] for k in np.flatnonzero(row)}
        assert bits == {"CC", "O"}

    def test_no_merges_gives_raw_token_set(self):
        vocab = Vocabulary(("C", "N", "O"), 3, (), 5, 512)
        row = encode_drug(tokenize_smiles("CON"), vocab)
        assert row.tolist() == [1, 1, 1]

    def test_encoding_is_deterministic(self):
        vocab = build_vocab([tokenize_smiles("CCOCC")], threshold=2, max_size=10)
        tokens = tokenize_smiles("CCOCC")
        np.testing.assert_array_equal(encode_drug(tokens, vocab),
                                      encode_drug(tokens, vocab))

    def test_unknown_unit_falls_back_to_base_chars(self):
        vocab = Vocabulary(("C", "O"), 2, (), 5, 512)
        row = encode_drug(tokenize_smiles("CSO"), vocab)  # S unseen
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
            np.testing.assert_array_equal(encode_drug(tokenize_smiles(s), vocab), row)
        fm = build_feature_matrix({f"d{k}": s for k, s in enumerate(smiles)}, vocab,
                                  make_registry(len(smiles)))
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


class TestVocabRoundTrip:
    def test_save_load_identical(self, tmp_path):
        corpus = [tokenize_smiles(s) for s in
                  ("CCOCC", "CCNCC", "OCCO", "NCCN", "CCCC", "ClCCCl")]
        vocab = build_vocab(corpus, threshold=2, max_size=32)
        save_vocab(vocab, tmp_path / "vocab.tsv")
        assert load_vocab(tmp_path / "vocab.tsv") == vocab

    def test_reload_encodes_identically(self, tmp_path):
        corpus = [tokenize_smiles(s) for s in ("CCOCC", "CCNCC", "CCCC")]
        vocab = build_vocab(corpus, threshold=2, max_size=32)
        save_vocab(vocab, tmp_path / "vocab.tsv")
        back = load_vocab(tmp_path / "vocab.tsv")
        for seq in corpus:
            np.testing.assert_array_equal(encode_drug(seq, vocab),
                                          encode_drug(seq, back))


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
