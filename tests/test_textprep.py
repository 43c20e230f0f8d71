import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotext import jsonio
from aerotext.errors import EmptyCorpus
from aerotext.textprep import (
    OOV_ID,
    PAD_ID,
    CorpusStats,
    Vocabulary,
    cleanse_text,
    default_stopwords,
    encode_sequence,
    fit_vocabulary,
    load_stopwords,
    word_count_stats,
)

from oracles import cleanse_reference, nearest_rank


class TestCleanse:
    def test_punctuation_and_stopwords(self):
        out = cleanse_text("The engine failed, and the pilot landed.", {"the", "and"})
        assert out == "engine failed pilot landed"

    def test_all_stopwords_yield_empty(self):
        assert cleanse_text("The and the AND", {"the", "and"}) == ""

    def test_digits_kept_punctuation_stripped(self):
        assert cleanse_text("N123AB!!!", set()) == "n123ab"

    def test_underscore_is_a_special_character(self):
        assert cleanse_text("a_b", set()) == "a b"

    def test_non_ascii_letters_kept_and_lowercased(self):
        assert cleanse_text("CafÉ MÜNCHEN!", set()) == "café münchen"

    def test_non_ascii_punctuation_stripped(self):
        assert cleanse_text("naïve…end — «ok»", set()) == "naïve end ok"

    @given(st.text(max_size=200),
           st.sets(st.text("abé_", min_size=1, max_size=2), max_size=5))
    @settings(max_examples=300)
    def test_matches_the_regex_reference(self, raw, stopwords):
        assert cleanse_text(raw, stopwords) == cleanse_reference(raw, stopwords)

    def test_every_ascii_character_matches_the_regex_reference(self):
        for code in range(128):
            raw = f"a{chr(code)}b {chr(code)} {chr(code) * 3}"
            assert cleanse_text(raw) == cleanse_reference(raw), hex(code)

    def test_every_code_point_matches_the_regex_reference(self):
        # Each code point on its own, surrogates included, so that each
        # takes its own path: one whose lowercase is ASCII (U+212A KELVIN
        # SIGN lowers to "k") goes through the table, any other through
        # the regex.
        chunk = 0x10000
        for start in range(0, 0x110000, chunk):
            texts = [chr(code) for code in range(start, start + chunk)]
            assert ([cleanse_text(t) for t in texts]
                    == [cleanse_reference(t) for t in texts]), hex(start)

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_idempotent(self, raw):
        stopwords = {"the", "and", "is"}
        once = cleanse_text(raw, stopwords)
        assert cleanse_text(once, stopwords) == once

    def test_default_stopwords_include_canonical_entries(self):
        words = default_stopwords()
        assert {"the", "and", "is"} <= words
        assert len(words) >= 100
        assert all(w == w.lower() and " " not in w for w in words)

    def test_load_stopwords(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("The\nand\n\nis\n", encoding="utf-8")
        assert load_stopwords(path) == {"the", "and", "is"}

    def test_stopword_lines_end_only_at_cr_and_lf(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_bytes("The\r\nan\u2028d\ris\x0cit\nof".encode("utf-8"))
        assert load_stopwords(path) == {"the", "an\u2028d", "is\x0cit", "of"}


class TestVocabulary:
    def test_frequency_then_first_occurrence(self):
        vocab = fit_vocabulary(["b a", "b c"], max_size=10)
        assert vocab.token_to_id == {"b": 2, "a": 3, "c": 4}

    def test_single_token(self):
        assert fit_vocabulary(["x"], max_size=1).token_to_id == {"x": 2}

    def test_cutoff_moves_rest_to_oov(self):
        vocab = fit_vocabulary(["b a", "b c"], max_size=1)
        assert vocab.token_to_id == {"b": 2}
        assert vocab.token_to_id.get("a", OOV_ID) == OOV_ID
        assert vocab.token_to_id.get("c", OOV_ID) == OOV_ID

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_vocabulary([], max_size=5)

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6)
                    .map(" ".join), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=100)
    def test_ids_contiguous_from_two(self, corpus, max_size):
        vocab = fit_vocabulary(corpus, max_size)
        ids = sorted(vocab.token_to_id.values())
        assert ids == list(range(2, 2 + len(ids)))
        assert len(ids) <= max_size
        assert PAD_ID not in ids and OOV_ID not in ids

    def test_decoding_is_a_bijection(self):
        vocab = fit_vocabulary(["a b c a", "d e"], max_size=10)
        ids = vocab.token_to_id.values()
        assert len(set(ids)) == len(ids) == vocab.size

    def test_tsv_round_trip(self, tmp_path):
        vocab = fit_vocabulary(["engine fire engine", "pilot"], max_size=100)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "engine\t2"
        loaded = Vocabulary.load(path)
        assert loaded.token_to_id == vocab.token_to_id

    def test_repeated_token_is_refused(self):
        # its ids are unique and in range; keeping the last would drop id 2
        with pytest.raises(ValueError, match="line 2: token 'a' repeats"):
            Vocabulary.from_tsv("a\t2\na\t3\nb\t4\n", max_size=3)

    def test_tsv_lines_end_only_at_cr_and_lf(self):
        vocab = Vocabulary.from_tsv("a\x85b\t2\r\nc\u2028\t3\rd\t4\n\ne\t5")
        assert vocab.token_to_id == {"a\x85b": 2, "c\u2028": 3, "d": 4, "e": 5}
        with pytest.raises(ValueError, match="line 3: id 'x' is not an integer"):
            Vocabulary.from_tsv("a\u2029\t2\nb\x1e\t3\nc\tx\n")


class TestEncode:
    def test_padding_with_zeros(self):
        vocab = Vocabulary({"engine": 2, "failed": 3}, max_size=10)
        seq = encode_sequence("engine failed", vocab, max_len=5)
        assert seq.ids == [2, 3, 0, 0, 0]
        assert seq.true_length == 2

    def test_head_truncation(self):
        vocab = Vocabulary({f"t{i}": i + 2 for i in range(250)}, max_size=300)
        text = " ".join(f"t{i}" for i in range(250))
        seq = encode_sequence(text, vocab, max_len=200)
        assert len(seq.ids) == 200
        assert seq.ids == [i + 2 for i in range(200)]
        assert seq.true_length == 200

    def test_tail_truncation(self):
        vocab = Vocabulary({f"t{i}": i + 2 for i in range(10)}, max_size=20)
        text = " ".join(f"t{i}" for i in range(10))
        seq = encode_sequence(text, vocab, max_len=4, truncate="tail")
        assert seq.ids == [8, 9, 10, 11]

    def test_oov_id(self):
        vocab = Vocabulary({"engine": 2}, max_size=10)
        seq = encode_sequence("warpcore", vocab, max_len=3)
        assert seq.ids == [1, 0, 0]
        assert seq.true_length == 1

    def test_empty_text_all_padding(self):
        vocab = Vocabulary({}, max_size=1)
        seq = encode_sequence("", vocab, max_len=4)
        assert seq.ids == [0, 0, 0, 0]
        assert seq.true_length == 0

    @given(st.lists(st.sampled_from(["engine", "fire", "pilot", "xyzzy"]),
                    max_size=30).map(" ".join),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=150)
    def test_shape_and_trailing_zeros(self, text, max_len):
        vocab = Vocabulary({"engine": 2, "fire": 3, "pilot": 4}, max_size=10)
        seq = encode_sequence(text, vocab, max_len=max_len)
        assert len(seq.ids) == max_len
        assert all(i == PAD_ID for i in seq.ids[seq.true_length:])
        assert all(0 <= i <= vocab.size + 1 for i in seq.ids)
        again = encode_sequence(text, vocab, max_len=max_len)
        assert again.ids == seq.ids and again.true_length == seq.true_length

    def test_encoding_never_mutates_vocabulary(self):
        vocab = Vocabulary({"engine": 2}, max_size=10)
        before = dict(vocab.token_to_id)
        encode_sequence("totally unseen tokens", vocab, max_len=8)
        assert vocab.token_to_id == before


class TestStats:
    def test_small_histogram(self):
        stats = word_count_stats(["a b", "c"])
        assert stats.histogram == {2: 1, 1: 1}
        assert stats.mean == 1.5
        assert stats.max == 2
        assert stats.median == 1.0

    def test_p95_nearest_rank(self):
        docs = ["w " * n for n in (1, 2, 3, 100)]
        docs = [d.strip() for d in docs]
        stats = word_count_stats(docs)
        assert stats.p95 == 100.0
        assert stats.p95 == nearest_rank([1, 2, 3, 100], 95.0)
        assert stats.median == nearest_rank([1, 2, 3, 100], 50.0) == 2.0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            word_count_stats([])

    def test_histogram_counts_sum_to_corpus_size(self):
        docs = ["a", "a b", "a b c", "a b"]
        stats = word_count_stats(docs)
        assert sum(stats.histogram.values()) == len(docs)

    def test_json_round_trip(self):
        import json
        stats = word_count_stats(["a b", "c d e"])
        parsed = json.loads(jsonio.dumps(stats.to_json_dict()))
        assert parsed["mean"] == 2.5
        assert parsed["histogram"] == {"2": 1, "3": 1}
        assert parsed["documents"] == 2
