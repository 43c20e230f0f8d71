import io
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotext.corpus import (
    LabeledRecord,
    OperatorClass,
    OperatorMapping,
    RawRecord,
    SplitMix64,
    annotate,
    annotate_records,
    clean_records,
    ingest_records,
    normalize_operator,
    split_dataset,
    split_sizes,
)
from aerotext.errors import (
    InvalidMapping,
    MalformedCsv,
    MissingColumn,
    TooFewRecords,
    UnmappedOperator,
)

from oracles import operator_class_by_scan


def repo_mapping() -> OperatorMapping:
    return OperatorMapping.load(
        resources.files("aerotext").joinpath("data/operator_mapping.tsv"))


class TestOperatorClass:
    def test_codes_are_fixed_alphabetically(self):
        assert OperatorClass.COMMERCIAL == 0
        assert OperatorClass.MILITARY == 1
        assert OperatorClass.PRIVATE == 2
        assert len(OperatorClass) == 3

    def test_label_round_trips(self):
        for cls in OperatorClass:
            assert OperatorClass.from_name(cls.label) is cls

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            OperatorClass.from_name("Cargo")


class TestIngest:
    def test_two_rows_in_file_order(self):
        text = "Operator,Summary\nA,first\nB,second\n"
        records = ingest_records(io.StringIO(text))
        assert records == [RawRecord("A", "first"), RawRecord("B", "second")]

    def test_rfc4180_quoting(self):
        text = 'Operator,Summary\n"Smith, John Air","engine fire"\n'
        records = ingest_records(io.StringIO(text))
        assert records[0].operator == "Smith, John Air"
        assert records[0].summary == "engine fire"

    def test_quoted_embedded_newline(self):
        text = 'Operator,Summary\nA,"line one\nline two"\n'
        records = ingest_records(io.StringIO(text))
        assert records[0].summary == "line one\nline two"

    def test_missing_column(self):
        with pytest.raises(MissingColumn) as exc:
            ingest_records(io.StringIO("Operator,Narrative\nA,x\n"))
        assert "Summary" in str(exc.value)

    def test_unbalanced_quote_reports_row(self):
        text = 'Operator,Summary\nok,fine\n"broken,oops\n'
        with pytest.raises(MalformedCsv) as exc:
            ingest_records(io.StringIO(text))
        assert "row" in str(exc.value)

    def test_short_row_is_malformed(self):
        with pytest.raises(MalformedCsv) as exc:
            ingest_records(io.StringIO("Operator,Summary\nonlyone\n"))
        assert "row 2" in str(exc.value)

    def test_custom_column_names(self):
        text = "Op,Text\nA,hello\n"
        records = ingest_records(io.StringIO(text), "Op", "Text")
        assert records == [RawRecord("A", "hello")]

    def test_byte_stream_input(self):
        raw = io.BytesIO("Operator,Summary\nA,utf8 café\n".encode("utf-8"))
        assert ingest_records(raw)[0].summary == "utf8 café"
        with pytest.raises(MalformedCsv) as exc:
            ingest_records(io.BytesIO(b"Operator,Summary\nA,caf\xe9\n"))
        assert "not UTF-8" in str(exc.value)

    def test_fixture_file(self, fixture_csv):
        records = ingest_records(fixture_csv)
        assert len(records) == 15
        assert records[0].operator == "U.S. AIR FORCE"


class TestClean:
    def test_blank_summary_dropped(self):
        records = [RawRecord("A", "x"), RawRecord("B", "   "), RawRecord("C", "y")]
        result = clean_records(records)
        assert [r.operator for r in result.kept] == ["A", "C"]
        assert result.dropped_total == 1
        assert result.dropped["blank_summary"] == 1

    def test_valid_distinct_records_pass_through(self):
        records = [RawRecord("A", "x"), RawRecord("B", "y")]
        result = clean_records(records)
        assert result.kept == records
        assert result.dropped_total == 0

    def test_duplicates_keep_first(self):
        records = [RawRecord("A", "x"), RawRecord("A", "x"), RawRecord("A", "y")]
        result = clean_records(records)
        assert result.kept == [RawRecord("A", "x"), RawRecord("A", "y")]
        assert result.dropped["duplicate"] == 1

    @given(st.lists(st.tuples(st.sampled_from(["", "  ", "A", "B"]),
                              st.sampled_from(["", "x", "y"]))))
    @settings(max_examples=100)
    def test_idempotent(self, pairs):
        records = [RawRecord(op, s) for op, s in pairs]
        once = clean_records(records)
        twice = clean_records(once.kept)
        assert twice.kept == once.kept
        assert twice.dropped_total == 0


class TestAnnotate:
    def test_air_force_maps_to_military(self):
        record = RawRecord("U.S. AIR FORCE", "engine fire")
        assert annotate(record, repo_mapping()).label is OperatorClass.MILITARY

    def test_normalization_then_exact_match(self):
        mapping = OperatorMapping([("delta air lines", OperatorClass.COMMERCIAL)])
        record = RawRecord("  delta  air lines ", "n")
        assert annotate(record, mapping).label is OperatorClass.COMMERCIAL

    def test_unmapped_operator(self):
        with pytest.raises(UnmappedOperator):
            annotate(RawRecord("Zeppelin Tours GmbH", "n"), repo_mapping())

    def test_whole_word_substring_only(self):
        mapping = OperatorMapping([("army", OperatorClass.MILITARY)])
        with pytest.raises(UnmappedOperator):
            mapping.lookup("Smith Armory")
        assert mapping.lookup("Royal Army Flying Corps") is OperatorClass.MILITARY

    def test_longest_pattern_wins(self):
        mapping = OperatorMapping([
            ("air", OperatorClass.PRIVATE),
            ("air force", OperatorClass.MILITARY),
        ])
        assert mapping.lookup("canadian air force") is OperatorClass.MILITARY

    def test_tie_breaks_by_class_code_then_order(self):
        mapping = OperatorMapping([
            ("bush flights", OperatorClass.PRIVATE),
            ("west charter", OperatorClass.COMMERCIAL),
        ])
        # both patterns are 12 chars; Commercial (code 0) wins the tie
        assert mapping.lookup("west charter bush flights") is OperatorClass.COMMERCIAL

    def test_pure_function_of_normalized_operator(self):
        mapping = repo_mapping()
        for _ in range(3):
            assert mapping.lookup("U.S. Navy") is OperatorClass.MILITARY
        assert mapping.lookup("u.s.  navy") is mapping.lookup("U.S. NAVY")

    def test_annotate_records_collects_audit(self):
        records = [RawRecord("U.S. Navy", "a"), RawRecord("Mystery Org", "b"),
                   RawRecord("mystery   org", "c")]
        result = annotate_records(records, repo_mapping())
        assert len(result.labeled) == 1
        assert result.unmapped == Counter({"mystery org": 2})

    def test_mapping_file_rejects_duplicates(self):
        with pytest.raises(InvalidMapping):
            OperatorMapping([("navy", OperatorClass.MILITARY),
                             ("NAVY ", OperatorClass.MILITARY)])

    def test_mapping_file_parsing(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# comment\nnavy\tMilitary\n\nacme air\tCommercial\n",
                        encoding="utf-8")
        mapping = OperatorMapping.load(path)
        assert mapping.lookup("ACME Air") is OperatorClass.COMMERCIAL

    def test_mapping_file_bad_class(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("navy\tNautical\n", encoding="utf-8")
        with pytest.raises(InvalidMapping):
            OperatorMapping.load(path)

    def test_normalize_operator(self):
        assert normalize_operator("  U.S.  AIR\tFORCE ") == "u.s. air force"


# Short tokens, several of one length, so random patterns share tokens and
# tie on length across classes.
WORDS = ["air", "jet", "sky", "co", "navy", "army", "u.s.", "inc"]


@st.composite
def spelled(draw, tokens):
    """The tokens in random case, with random whitespace around and between."""
    gap = st.sampled_from([" ", "  ", "\t", " \n "])
    text = draw(st.sampled_from(["", " ", "\t"]))
    for token in tokens:
        text += draw(st.sampled_from([token, token.upper(), token.title()])) + draw(gap)
    return text


@st.composite
def mapping_and_operator(draw):
    phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4)
    patterns = draw(st.lists(phrases, max_size=8, unique_by=tuple))
    entries = [(draw(spelled(p)), draw(st.sampled_from(OperatorClass))) for p in patterns]
    exact = [st.sampled_from(patterns)] if patterns else []
    tokens = draw(st.one_of(
        st.just([]),  # empty or all-whitespace
        st.lists(st.sampled_from(WORDS), max_size=10),  # up to longer than every pattern
        *exact))
    return entries, draw(spelled(tokens))


class TestLookupAgainstScan:
    @given(mapping_and_operator())
    @settings(max_examples=400, deadline=None)
    def test_span_lookup_equals_the_two_tier_scan(self, case):
        entries, operator = case
        expected = operator_class_by_scan(entries, operator)
        mapping = OperatorMapping(entries)
        if expected is None:
            with pytest.raises(UnmappedOperator):
                mapping.lookup(operator)
        else:
            assert mapping.lookup(operator) is expected


def _records(n):
    return [LabeledRecord(OperatorClass(i % 3), f"doc {i}") for i in range(n)]


class TestSplit:
    def test_sizes_n10(self):
        split = split_dataset(_records(10), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_sizes_4863(self):
        assert split_sizes(4863) == (3890, 486, 487)
        split = split_dataset(_records(4863), seed=9)
        assert (len(split.train), len(split.validation), len(split.test)) == (3890, 486, 487)

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            split_dataset(_records(9), seed=0)

    def test_same_seed_same_split(self):
        records = _records(53)
        a = split_dataset(records, seed=42)
        b = split_dataset(records, seed=42)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_different_seed_differs(self):
        records = _records(200)
        a = split_dataset(records, seed=1)
        b = split_dataset(records, seed=2)
        assert a.train != b.train

    @given(st.integers(min_value=10, max_value=120), st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=60)
    def test_partition_property(self, n, seed):
        records = _records(n)
        split = split_dataset(records, seed)
        n_train, n_val, n_test = split_sizes(n)
        assert (len(split.train), len(split.validation), len(split.test)) == \
            (n_train, n_val, n_test)
        combined = Counter(split.train) + Counter(split.validation) + Counter(split.test)
        assert combined == Counter(records)

    @given(st.integers(min_value=12, max_value=120), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60)
    def test_stratified_partition_keeps_global_sizes(self, n, seed):
        records = _records(n)
        split = split_dataset(records, seed, stratify=True)
        assert (len(split.train), len(split.validation), len(split.test)) == split_sizes(n)
        combined = Counter(split.train) + Counter(split.validation) + Counter(split.test)
        assert combined == Counter(records)

    def test_stratified_is_proportional_per_class(self):
        records = [LabeledRecord(OperatorClass.COMMERCIAL, f"c{i}") for i in range(80)]
        records += [LabeledRecord(OperatorClass.MILITARY, f"m{i}") for i in range(15)]
        records += [LabeledRecord(OperatorClass.PRIVATE, f"p{i}") for i in range(5)]
        split = split_dataset(records, seed=3, stratify=True)
        train_counts = Counter(r.label for r in split.train)
        assert train_counts[OperatorClass.COMMERCIAL] == 64
        assert train_counts[OperatorClass.MILITARY] == 12
        assert train_counts[OperatorClass.PRIVATE] == 4

    def test_splitmix64_reference_vectors(self):
        # from the reference implementation, seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423]
