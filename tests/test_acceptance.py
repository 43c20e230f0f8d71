"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or check the pytest verdicts).

Criterion 8 is a diagnostic against the real full-scale dataset and only
runs when AEROTEXT_SOCRATA_CSV and AEROTEXT_SOCRATA_MAPPING point at the
data; it reports findings instead of failing on metric deviations.
"""

import json
import os
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotext import models
from aerotext.cli import main as cli_main
from aerotext.corpus import (
    LabeledRecord,
    OperatorClass,
    OperatorMapping,
    annotate_records,
    clean_records,
    ingest_records,
    split_dataset,
    split_sizes,
)
from aerotext.metrics import classification_report, confusion_matrix
from aerotext.models import ModelConfig, blstm_forward, recurrent_forward
from aerotext.textprep import (
    OOV_ID,
    Vocabulary,
    cleanse_text,
    default_stopwords,
    encode_sequence,
    fit_vocabulary,
)
from aerotext.training import TrainConfig, train
from aerotext.textprep import TokenSequence

from conftest import dense_loss_and_grads, gradient_check, random_params, synthetic_corpus
from oracles import lstm_unroll, report_from_lists, srnn_unroll


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_mini_instance(arch: str, seed: int):
    """V<=20, T<=10, H,d<=8 instance at a random O(1) parameter point."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(arch=arch, vocab_size=20, embedding_dim=8,
                         hidden_units=8, head_units=8, max_len=10,
                         conv_filters=6, conv_kernel=3)
    params = random_params(config, rng)
    true_length = int(rng.integers(3, 9))
    ids = [int(rng.integers(2, 22)) for _ in range(true_length)]
    ids += [0] * (10 - true_length)
    label = int(rng.integers(0, 3))
    return config, params, TokenSequence(ids, true_length), label


def test_criterion_1_gradient_fidelity():
    started = time.time()
    worst = {}
    for arch, seed in (("srnn", 101), ("lstm", 102), ("blstm", 103), ("cnn", 104)):
        config, params, seq, label = random_mini_instance(arch, seed)
        worst[arch] = gradient_check(
            lambda: dense_loss_and_grads(config, params, [seq], [label]), params, epsilon=1e-5)
    elapsed = time.time() - started
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 120
    detail = ("end-to-end finite differences, every parameter coordinate: "
              + ", ".join(f"{a}={e:.2e}" for a, e in worst.items())
              + f" (< 1e-4), {elapsed:.1f}s (< 120s)")
    verdict(1, ok, detail)


def test_criterion_2_state_update_oracle():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        length = int(rng.integers(0, 9))
        w = rng.uniform(-2, 2, (h, h + d))
        b = rng.uniform(-2, 2, h)
        seq = rng.uniform(-2, 2, (max(length, 1), d))
        got = recurrent_forward(seq[:length], np.arange(length), np.array([length]),
                                {"srnn.w": w.T.copy(), "srnn.b": b}, "srnn")[0][0]
        want = srnn_unroll(w, b, seq[:length])
        worst = max(worst, float(np.max(np.abs(got - want))) if got.size else 0.0)
    verdict(2, worst <= 1e-12,
            f"100 random instances vs hand-unrolled update rule, "
            f"max abs diff {worst:.2e} (<= 1e-12)")


def test_criterion_3_bidirectional_decomposition():
    rng = np.random.default_rng(300)
    exact = True
    for _ in range(100):
        h = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        length = int(rng.integers(0, 7))
        t_max = length + int(rng.integers(0, 3))
        params = {}
        for direction in ("fwd", "bwd"):
            params[f"blstm.{direction}.w"] = rng.uniform(-1, 1, (4 * h, h + d)).T.copy()
            params[f"blstm.{direction}.b"] = rng.uniform(-1, 1, 4 * h)
        seq = rng.uniform(-1, 1, (max(t_max, 1), d))
        lengths = np.array([length])
        rows = np.arange(length)   # the record's rows read in order, as the table
        both = blstm_forward(seq[:length], rows, lengths, params)[0][0]
        fwd_half = recurrent_forward(seq[:length], rows, lengths, params, "blstm.fwd")[0][0]
        bwd_half = recurrent_forward(seq[:length], rows[::-1], lengths, params,
                                     "blstm.bwd")[0][0]
        exact = exact and np.array_equal(both[:h], fwd_half) \
            and np.array_equal(both[h:], bwd_half)
    verdict(3, exact, "100 random instances: both halves equal independent "
                      "unidirectional runs exactly")


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(400)
    exact = True
    identity = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        preds = [int(x) for x in rng.integers(0, 3, n)]
        labels = [int(x) for x in rng.integers(0, 3, n)]
        report = classification_report(confusion_matrix(preds, labels))
        want = report_from_lists(preds, labels)
        for c in range(3):
            m = report.per_class[c]
            w = want["per_class"][c]
            exact = exact and m.precision == w["precision"] \
                and m.recall == w["recall"] and m.f1 == w["f1"] \
                and m.support == w["support"]
        exact = exact and report.accuracy == want["accuracy"]
        for metric in ("precision", "recall", "f1"):
            exact = exact and getattr(report, f"macro_{metric}") == want[f"macro_{metric}"]
            exact = exact and getattr(report, f"weighted_{metric}") == want[f"weighted_{metric}"]
        identity = identity and report.weighted_recall == report.accuracy
    verdict(4, exact and identity,
            "1000 random cases: report equals brute-force recomputation on every "
            "field exactly; weighted recall == accuracy on all of them")


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_criterion_5_overfit_capability(arch):
    split = synthetic_corpus(n_per_class=20, extra_per_class=2, seed=7)
    assert len(split.train) == 60
    vocab = fit_vocabulary([r.summary for r in split.train])
    reached = None
    elapsed = None
    for epochs in (40, 300):  # escalate only if the short run falls short
        config = ModelConfig(arch=arch, vocab_size=vocab.size)  # default dims
        train_config = TrainConfig(epochs=epochs, seed=11)      # default lr/batch/adam
        started = time.time()
        _, history = train(config, train_config, split, vocab)
        elapsed = time.time() - started
        reached = max(r.train_accuracy for r in history)
        if reached >= 0.99:
            break
    ok = reached >= 0.99 and elapsed < 300
    verdict(5, ok, f"{arch}: train accuracy {reached:.3f} (>= 0.99) on the "
                   f"60-sample keyword corpus within 300 epochs at default "
                   f"hyperparameters, {elapsed:.0f}s (< 5 min)")


def test_criterion_6_end_to_end_determinism(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    rows = ["Operator,Summary"]
    operators = ["ACME Airlines", "Air Force", "Weekend Flyer"]
    keywords = ["alpha", "bravo", "charlie"]
    for i in range(6):
        for cls in range(3):
            rows.append(f"{operators[cls]},{keywords[cls]} filler{i} common token")
    data_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    mapping = tmp_path / "map.tsv"
    mapping.write_text("acme airlines\tCommercial\nair force\tMilitary\n"
                       "weekend flyer\tPrivate\n", encoding="utf-8")

    def pipeline(arch: str, tag: str) -> tuple[bytes, bytes, bytes]:
        prep = tmp_path / f"prep-{arch}-{tag}"
        run = tmp_path / f"run-{arch}-{tag}"
        ev = tmp_path / f"eval-{arch}-{tag}"
        assert cli_main(["prepare", "--input", str(data_csv), "--mapping",
                         str(mapping), "--out", str(prep), "--seed", "5",
                         "--max-len", "8"]) == 0
        assert cli_main(["train", "--data", str(prep), "--arch", arch,
                         "--epochs", "3", "--seed", "9", "--out", str(run),
                         "--embedding-dim", "8", "--hidden-units", "8",
                         "--head-units", "8", "--conv-filters", "8",
                         "--conv-kernel", "3"]) == 0
        assert cli_main(["evaluate", "--checkpoint", str(run / "checkpoint.atxc"),
                         "--data", str(prep), "--split", "test",
                         "--out", str(ev)]) == 0
        return tuple(path.read_bytes() for path in (
            run / "history.csv", run / "checkpoint.atxc", ev / "report.json"))

    differing = [arch for arch in models.ARCHITECTURES
                 if pipeline(arch, "a") != pipeline(arch, "b")]
    capsys.readouterr()  # drop pipeline stdout
    verdict(6, not differing, "two seeded prepare->train->evaluate runs per "
                              "architecture produced byte-identical history.csv, "
                              f"checkpoint.atxc and report.json (differing: {differing})")


class TestCriterion7PreprocessingContract:
    @given(st.lists(st.sampled_from(["engine", "fire", "pilot", "gear", "zulu"]),
                    min_size=0, max_size=40).map(" ".join),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_pad_and_head_truncation(self, text, max_len):
        vocab = fit_vocabulary(["engine fire pilot gear"], max_size=10)
        seq = encode_sequence(text, vocab, max_len=max_len)
        tokens = text.split()
        assert len(seq.ids) == max_len
        assert seq.true_length == min(len(tokens), max_len)
        assert all(i == 0 for i in seq.ids[seq.true_length:])  # trailing zeros
        assert seq.ids[:seq.true_length] == [vocab.token_to_id.get(t, OOV_ID)
                                             for t in tokens[:max_len]]  # head

    @given(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=5),
                    min_size=1, max_size=30).map(" ".join).map(lambda s: [s]),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_vocabulary_ids_start_at_two(self, corpus, max_size):
        vocab = fit_vocabulary(corpus, max_size=max_size)
        assert all(i >= 2 for i in vocab.token_to_id.values())
        assert len(vocab.token_to_id) <= max_size

    @given(st.integers(min_value=10, max_value=4000))
    @settings(max_examples=100, deadline=None)
    def test_floor_split_sizes(self, n):
        n_train, n_val, n_test = split_sizes(n)
        assert n_train == (8 * n) // 10
        assert n_val == n // 10
        assert n_train + n_val + n_test == n

    def test_reference_split_4863(self):
        records = [LabeledRecord(OperatorClass(i % 3), f"r{i}") for i in range(4863)]
        split = split_dataset(records, seed=1)
        sizes = (len(split.train), len(split.validation), len(split.test))
        verdict(7, sizes == (3890, 486, 487),
                f"padding/truncation/id floor properties hold; N=4863 splits "
                f"into {sizes[0]}/{sizes[1]}/{sizes[2]} (= 3890/486/487)")


@pytest.mark.skipif(
    not (os.environ.get("AEROTEXT_SOCRATA_CSV") and os.environ.get("AEROTEXT_SOCRATA_MAPPING")),
    reason="full-scale diagnostic needs AEROTEXT_SOCRATA_CSV and "
           "AEROTEXT_SOCRATA_MAPPING pointing at the real dataset and a "
           "complete operator mapping")
def test_criterion_8_full_scale_diagnostic(tmp_path):
    """Diagnostic, not a gate: published full-scale accuracies are not
    exactly reproducible (annotation mapping and hyperparameters are not
    public), so this reports reconciliation numbers and sanity relations
    and only fails on structural errors."""
    csv_path = os.environ["AEROTEXT_SOCRATA_CSV"]
    mapping_path = os.environ["AEROTEXT_SOCRATA_MAPPING"]

    records = ingest_records(csv_path)
    cleaned = clean_records(records)
    kept = len(cleaned.kept)
    print(f"\n[diagnostic] rows in: {len(records)}; after cleaning: {kept}; "
          f"dropped: {cleaned.dropped} (reconciliation target 4863 +- 5: "
          f"{'met' if abs(kept - 4863) <= 5 else 'DEVIATES'})")

    mapping = OperatorMapping.load(mapping_path)
    annotation = annotate_records(cleaned.kept, mapping)
    if annotation.unmapped:
        print(f"[diagnostic] {sum(annotation.unmapped.values())} rows unmapped "
              f"across {len(annotation.unmapped)} operators")
    stopwords = default_stopwords()
    labeled = [LabeledRecord(r.label, cleanse_text(r.summary, stopwords))
               for r in annotation.labeled]
    labeled = [r for r in labeled if r.summary]
    split = split_dataset(labeled, seed=0)
    vocab = fit_vocabulary([r.summary for r in split.train])

    majority = max(Counter(r.label for r in split.test).values()) / len(split.test)
    print(f"[diagnostic] majority-class test baseline: {majority:.3f}")

    from aerotext.metrics import evaluate_model
    accuracies = {}
    for arch in models.ARCHITECTURES:
        config = ModelConfig(arch=arch, vocab_size=vocab.size)
        ckpt, _ = train(config, TrainConfig(seed=0), split, vocab,
                        stopwords=stopwords)
        _, report = evaluate_model(ckpt, split.test)
        accuracies[arch] = report.accuracy
        beats = "beats" if report.accuracy > majority else "DOES NOT BEAT"
        print(f"[diagnostic] {arch}: test accuracy {report.accuracy:.3f} "
              f"({beats} the baseline)")

    recurrent_best = max(accuracies["lstm"], accuracies["blstm"])
    relation = "holds" if recurrent_best >= accuracies["cnn"] else "DEVIATES"
    print(f"[diagnostic] recurrent >= convolutional: {relation} "
          f"(lstm/blstm {recurrent_best:.3f} vs cnn {accuracies['cnn']:.3f})")
    print("CRITERION 8 PASS: diagnostic completed (values reported above)")
