import json

import numpy as np
import pytest

from aerotext import autodiff as ad
from aerotext import models, training
from aerotext.corpus import LabeledRecord, OperatorClass
from aerotext.errors import EmptyInput, EmptyMatrix, LengthMismatch
from aerotext.metrics import (
    Predictor,
    classification_report,
    confusion_matrix,
    evaluate_model,
    export_reports,
    report_json_dict,
)
from aerotext.models import ModelConfig
from aerotext.textprep import fit_vocabulary
from aerotext.training import EpochRecord, ModelCheckpoint

from conftest import synthetic_corpus
from oracles import report_from_lists

C, M, P = OperatorClass.COMMERCIAL, OperatorClass.MILITARY, OperatorClass.PRIVATE


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion_matrix([C, M, P], [C, M, P])
        np.testing.assert_array_equal(cm, np.eye(3, dtype=np.int64))

    def test_hand_tally(self):
        cm = confusion_matrix([C, M, M], [C, C, M])
        want = np.zeros((3, 3), dtype=np.int64)
        want[C, C] = 1
        want[C, M] = 1
        want[M, M] = 1
        np.testing.assert_array_equal(cm, want)

    def test_entry_sum_is_sample_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            preds = [OperatorClass(int(x)) for x in rng.integers(0, 3, n)]
            labels = [OperatorClass(int(x)) for x in rng.integers(0, 3, n)]
            assert confusion_matrix(preds, labels).sum() == n

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_matrix([C], [C, M])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            confusion_matrix([], [])


class TestClassificationReport:
    def test_diagonal_matrix_is_perfect(self):
        report = classification_report(np.diag([4, 2, 3]))
        assert report.accuracy == 1.0
        for m in report.per_class:
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert report.macro_f1 == 1.0 and report.weighted_f1 == 1.0

    def test_hand_worked_counts(self):
        counts = np.array([[5, 1, 0], [2, 3, 0], [0, 1, 2]])
        report = classification_report(counts)
        assert report.per_class[0].precision == pytest.approx(5 / 7)
        assert report.per_class[0].recall == pytest.approx(5 / 6)
        assert report.per_class[1].precision == pytest.approx(0.6)
        assert report.per_class[1].recall == pytest.approx(0.6)
        assert report.per_class[2].precision == 1.0
        assert report.per_class[2].recall == pytest.approx(2 / 3)
        assert report.accuracy == pytest.approx(10 / 14)
        assert report.macro_precision == pytest.approx((5 / 7 + 0.6 + 1.0) / 3)
        assert [m.support for m in report.per_class] == [6, 5, 3]

    def test_absent_class_rule_forces_zeros(self):
        # class never predicted and never actual: zero by the stated rule
        counts = np.array([[3, 1, 0], [1, 2, 0], [0, 0, 0]])
        report = classification_report(counts)
        private = report.per_class[2]
        assert (private.precision, private.recall, private.f1) == (0.0, 0.0, 0.0)

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            classification_report(np.zeros((3, 3), dtype=int))

    def test_supports_sum_to_total(self):
        counts = np.array([[5, 1, 0], [2, 3, 0], [0, 1, 2]])
        report = classification_report(counts)
        assert sum(m.support for m in report.per_class) == counts.sum()


class TestOracleEquivalence:
    def test_matches_brute_force_on_1000_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            preds = [int(x) for x in rng.integers(0, 3, n)]
            labels = [int(x) for x in rng.integers(0, 3, n)]
            report = classification_report(confusion_matrix(preds, labels))
            want = report_from_lists(preds, labels)
            for c in range(3):
                got = report.per_class[c]
                assert got.precision == want["per_class"][c]["precision"]
                assert got.recall == want["per_class"][c]["recall"]
                assert got.f1 == want["per_class"][c]["f1"]
                assert got.support == want["per_class"][c]["support"]
            assert report.accuracy == want["accuracy"]
            for metric in ("precision", "recall", "f1"):
                assert getattr(report, f"macro_{metric}") == want[f"macro_{metric}"]
                assert getattr(report, f"weighted_{metric}") == want[f"weighted_{metric}"]
            assert report.weighted_recall == report.accuracy

    def test_macro_f1_between_min_and_max(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            counts = rng.integers(0, 20, (3, 3))
            if counts.sum() == 0:
                continue
            report = classification_report(counts)
            f1s = [m.f1 for m in report.per_class]
            assert min(f1s) <= report.macro_f1 <= max(f1s)

    def test_accuracy_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 20, (3, 3))
        base = classification_report(counts).accuracy
        for perm in ([1, 2, 0], [2, 0, 1], [0, 2, 1]):
            permuted = counts[np.ix_(perm, perm)]
            assert classification_report(permuted).accuracy == base

    def test_report_order_free_over_record_shuffles(self):
        rng = np.random.default_rng(9)
        preds = [int(x) for x in rng.integers(0, 3, 40)]
        labels = [int(x) for x in rng.integers(0, 3, 40)]
        base = classification_report(confusion_matrix(preds, labels))
        order = rng.permutation(40)
        shuffled = classification_report(confusion_matrix(
            [preds[i] for i in order], [labels[i] for i in order]))
        assert base == shuffled


def overfit_checkpoint(seed=0):
    """Train a tiny sRNN until it memorizes six short records."""
    from aerotext.corpus import SplitDataset
    from aerotext.training import TrainConfig, train

    records = [LabeledRecord(OperatorClass(c), f"class{c} token{i}")
               for c in range(3) for i in range(2)]
    vocab = fit_vocabulary([r.summary for r in records], max_size=32)
    config = ModelConfig(arch="srnn", vocab_size=vocab.size, embedding_dim=8,
                         hidden_units=8, head_units=8, max_len=4)
    split = SplitDataset(records, records, records, seed)
    ckpt, history = train(config, TrainConfig(epochs=150, batch_size=6,
                                              learning_rate=0.02, seed=seed),
                          split, vocab, stopwords=frozenset())
    return ckpt, records, history


class TestEvaluateModel:
    def test_overfit_model_scores_perfectly_on_train(self):
        ckpt, records, _ = overfit_checkpoint()
        counts, report = evaluate_model(ckpt, records)
        assert report.accuracy == 1.0
        np.testing.assert_array_equal(counts, np.diag([2, 2, 2]))

    def test_single_record_single_entry(self):
        ckpt, records, _ = overfit_checkpoint()
        counts, _ = evaluate_model(ckpt, records[:1])
        assert counts.sum() == 1

    def test_order_invariance(self):
        ckpt, records, _ = overfit_checkpoint()
        _, a = evaluate_model(ckpt, records)
        _, b = evaluate_model(ckpt, list(reversed(records)))
        assert a == b

    def test_empty_input(self):
        ckpt, _, _ = overfit_checkpoint()
        with pytest.raises(EmptyInput):
            evaluate_model(ckpt, [])

    def test_predictor_applies_checkpoint_preprocessing(self):
        ckpt, records, _ = overfit_checkpoint()
        predictor = Predictor(ckpt)
        label, probs = predictor.predict("CLASS1, token0!!")
        assert label is OperatorClass.MILITARY
        assert abs(probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_scoring_pass_agrees_with_predictor_and_evaluate(arch):
    # the per-epoch scoring pass, Predictor and evaluate_model share one
    # scorer, so the history curves and the reports cannot drift apart
    split = synthetic_corpus(n_per_class=4, extra_per_class=2, seed=5)
    vocab = fit_vocabulary([r.summary for r in split.train], max_size=50)
    config = ModelConfig(arch=arch, vocab_size=vocab.size, embedding_dim=6,
                         hidden_units=6, head_units=6, max_len=10,
                         conv_filters=6, conv_kernel=2)
    ckpt, _ = training.train(config, training.TrainConfig(epochs=2, batch_size=4,
                                                          learning_rate=0.05, seed=3),
                             split, vocab)
    records = split.train + split.validation
    seqs = training._encode_all(records, vocab, config.max_len, ckpt.truncate)
    labels = [int(r.label) for r in records]
    loss, accuracy = training._dataset_metrics(ckpt.config, ckpt.tensors,
                                               seqs, labels)
    predictor = Predictor(ckpt)
    assert loss == sum(ad.cross_entropy(predictor.probs(r.summary), int(r.label))
                       for r in records) / len(records)
    assert accuracy == evaluate_model(ckpt, records)[1].accuracy


class TestExports:
    def test_files_round_trip(self, tmp_path):
        ckpt, records, history = overfit_checkpoint()
        counts, report = evaluate_model(ckpt, records)
        paths = export_reports(report, counts, history, tmp_path, model_name="srnn")

        parsed = json.loads(paths["report"].read_text(encoding="utf-8"))
        assert parsed["accuracy"] == report.accuracy
        assert parsed["confusion_matrix"] == [[int(v) for v in row] for row in counts]
        assert parsed["matrix_orientation"] == "rows=actual,columns=predicted"
        for name, m in zip(("Commercial", "Military", "Private"), report.per_class):
            assert parsed["per_class"][name]["precision"] == m.precision
            assert parsed["per_class"][name]["f1"] == m.f1

        history_lines = paths["history"].read_text(encoding="utf-8").splitlines()
        assert len(history_lines) == len(history) + 1
        restored = training.history_from_csv("\n".join(history_lines))
        assert restored == list(history)

        per_class = paths["per_class"].read_text(encoding="utf-8").splitlines()
        assert per_class[0] == "model,class,precision,recall,f1"
        assert len(per_class) == 4
        first = per_class[1].split(",")
        assert first[0] == "srnn" and first[1] == "Commercial"
        assert float(first[2]) == report.per_class[0].precision

        macro = paths["macro"].read_text(encoding="utf-8").splitlines()
        assert macro[0] == "model,macro_precision,macro_recall,macro_f1,accuracy"
        values = macro[1].split(",")
        assert float(values[1]) == report.macro_precision
        assert float(values[4]) == report.accuracy

    def test_report_json_key_set(self):
        counts = np.diag([1, 1, 1])
        report = classification_report(counts)
        body = report_json_dict(report, counts, "cnn")
        assert set(body) == {"schema_version", "matrix_orientation", "model",
                             "confusion_matrix", "per_class", "macro",
                             "weighted", "accuracy"}
        assert set(body["per_class"]) == {"Commercial", "Military", "Private"}
        assert set(body["macro"]) == {"precision", "recall", "f1"}

    def test_history_rows_match_epochs(self, tmp_path):
        counts = np.diag([1, 1, 1])
        report = classification_report(counts)
        history = [EpochRecord(i, 1.0, 0.5, 1.0, 0.5) for i in range(1, 6)]
        paths = export_reports(report, counts, history, tmp_path)
        assert len(paths["history"].read_text().splitlines()) == 6
