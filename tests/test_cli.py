import csv
import dataclasses
import functools
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aerotext
from aerotext import cli, jsonio, metrics, models
from aerotext.cli import main
from aerotext.errors import AerotextError, NonfiniteValue
from aerotext.textprep import fit_vocabulary
from aerotext.training import ModelCheckpoint, TrainConfig, load_checkpoint, save_checkpoint

from conftest import FIXTURE_CSV, METADATA_FAULTS, edit_checkpoint_metadata


def write_mapping(path):
    path.write_text(
        "# test mapping\n"
        "acme airlines\tCommercial\n"
        "air force\tMilitary\n"
        "weekend flyer\tPrivate\n",
        encoding="utf-8")
    return path


def write_keyword_csv(path, rows_per_class=5):
    """Trivially separable corpus: the class keyword is in every summary."""
    operators = ["ACME Airlines", "Air Force", "Weekend Flyer"]
    keywords = ["alpha", "bravo", "charlie"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Operator", "Summary"])
        for i in range(rows_per_class):
            for cls in range(3):
                writer.writerow([operators[cls],
                                 f"{keywords[cls]} filler{i} common token"])
    return path


NOT_UTF8 = "<a file that is not UTF-8>"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prepare_dir(tmp_path, capsys, **kwargs):
    data_csv = write_keyword_csv(tmp_path / "data.csv")
    mapping = write_mapping(tmp_path / "map.tsv")
    out = tmp_path / "prepared"
    argv = ["prepare", "--input", str(data_csv), "--mapping", str(mapping),
            "--out", str(out), "--seed", "5", "--max-len", "8"]
    for key, value in kwargs.items():
        argv += [f"--{key}", str(value)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    return out


def train_dir(tmp_path, capsys, prepared, arch="srnn", seed="7", epochs="60",
              out_name="run", lr="0.02"):
    # select by validation loss: with one or two validation records the
    # accuracy saturates immediately and its earliest-tie rule would pin
    # the checkpoint to an untrained epoch
    out = tmp_path / out_name
    code, stdout, err = run([
        "train", "--data", str(prepared), "--arch", arch, "--epochs", epochs,
        "--lr", lr, "--batch-size", "8", "--seed", seed, "--out", str(out),
        "--select-best-by", "validation_loss",
        "--embedding-dim", "8", "--hidden-units", "8", "--head-units", "8",
        "--conv-filters", "8", "--conv-kernel", "2"], capsys)
    assert code == 0, err
    return out, stdout


class TestPrepare:
    def test_happy_path_writes_artifacts(self, tmp_path, capsys, fixture_csv):
        mapping = tmp_path / "map.tsv"
        mapping.write_text(
            "\n".join(f"{pat}\t{cls}" for pat, cls in [
                ("u.s. air force", "Military"), ("u.s. navy", "Military"),
                ("u.s. army", "Military"), ("air national guard", "Military"),
                ("u.s. marine corps", "Military"), ("delta air lines", "Commercial"),
                ("american airlines", "Commercial"), ("united airlines", "Commercial"),
                ("southwest airlines", "Commercial"), ("fedex", "Commercial"),
                ("private", "Private"), ("individual", "Private"),
                ("personal", "Private"), ("flying club", "Private"),
            ]) + "\n", encoding="utf-8")
        out = tmp_path / "prepared"
        code, _, err = run(["prepare", "--input", str(fixture_csv), "--mapping",
                            str(mapping), "--out", str(out), "--seed", "3"], capsys)
        assert code == 0, err
        for name in ("train.csv", "validation.csv", "test.csv", "vocab.tsv",
                     "stats.json", "unmapped.csv", "stopwords.txt", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["counts"]["split_sizes"] == {"train": 12, "validation": 1,
                                                     "test": 2}
        vocab_lines = (out / "vocab.tsv").read_text().splitlines()
        assert vocab_lines[0].split("\t")[1] == "2"

    def test_unmapped_operator_exits_2_with_audit(self, tmp_path, capsys):
        data_csv = write_keyword_csv(tmp_path / "data.csv")
        with open(data_csv, "a", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerow(["Zeppelin Tours GmbH", "mystery trip"])
        mapping = write_mapping(tmp_path / "map.tsv")
        out = tmp_path / "prepared"
        code, _, err = run(["prepare", "--input", str(data_csv), "--mapping",
                            str(mapping), "--out", str(out), "--seed", "1"], capsys)
        assert code == 2
        assert "unmapped" in err
        audit = (out / "unmapped.csv").read_text().splitlines()
        assert audit[0] == "operator,count"
        assert audit[1] == "zeppelin tours gmbh,1"
        assert (out / "train.csv").exists()  # data still written

    def test_missing_input_exits_1(self, tmp_path, capsys):
        mapping = write_mapping(tmp_path / "map.tsv")
        code, _, err = run(["prepare", "--input", str(tmp_path / "nope.csv"),
                            "--mapping", str(mapping),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err.strip()

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AEROTEXT_SEED", "99")
        data_csv = write_keyword_csv(tmp_path / "data.csv")
        mapping = write_mapping(tmp_path / "map.tsv")
        out = tmp_path / "prepared"
        code, _, _ = run(["prepare", "--input", str(data_csv), "--mapping",
                          str(mapping), "--out", str(out)], capsys)
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 99

    def test_stats_json_schema(self, tmp_path, capsys):
        out = prepare_dir(tmp_path, capsys)
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats) == {"documents", "histogram", "mean", "median", "p95", "max"}
        assert stats["documents"] == 15


class TestTrain:
    def test_each_arch_smoke(self, tmp_path, capsys):
        prepared = prepare_dir(tmp_path, capsys)
        for arch in ("srnn", "lstm", "blstm", "cnn"):
            out, stdout = train_dir(tmp_path, capsys, prepared, arch=arch,
                                    epochs="2", out_name=f"run-{arch}")
            assert (out / "checkpoint.atxc").exists()
            assert (out / "history.csv").exists()
            assert (out / "manifest.json").exists()
            final = json.loads(stdout.strip().splitlines()[-1])
            assert set(final) == {"epoch", "train_loss", "train_acc",
                                  "val_loss", "val_acc"}
            assert final["epoch"] == 2

    def test_seed_makes_history_byte_identical(self, tmp_path, capsys):
        prepared = prepare_dir(tmp_path, capsys)
        out_a, _ = train_dir(tmp_path, capsys, prepared, arch="blstm", seed="7",
                             epochs="2", out_name="a")
        out_b, _ = train_dir(tmp_path, capsys, prepared, arch="blstm", seed="7",
                             epochs="2", out_name="b")
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "checkpoint.atxc").read_bytes() == \
            (out_b / "checkpoint.atxc").read_bytes()

    def test_unknown_arch_exits_1_with_usage(self, tmp_path, capsys):
        code, _, err = run(["train", "--data", "x", "--arch", "transformer",
                            "--out", "y"], capsys)
        assert code == 1
        assert "usage" in err

    def test_poisoned_final_step_aborts_without_checkpoint(self, tmp_path, capsys):
        # one batch per epoch: the per-batch loss check runs before the step,
        # so only the end-of-epoch scoring can see what a huge finite rate did
        # (a NaN rate, past the config check, is refused earlier by the manifest)
        prepared = prepare_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, stdout, err = run(["train", "--data", str(prepared), "--arch", "cnn",
                                 "--epochs", "2", "--lr", "1e308", "--batch-size", "64",
                                 "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error:") and "epoch 1" in err
        assert stdout == ""
        assert not (out / "checkpoint.atxc").exists()

    def test_overflowing_rate_prints_one_error_line_and_no_warnings(self, tmp_path, capsys):
        # a separate process, so numpy's RuntimeWarnings reach stderr as they
        # would in a shell instead of pytest's warning capture
        prepared = prepare_dir(tmp_path, capsys)
        src = Path(aerotext.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "run"
        result = subprocess.run(
            [sys.executable, "-m", "aerotext.cli", "train", "--data", str(prepared),
             "--arch", "lstm", "--lr", "1e308", "--embedding-dim", "4", "--hidden-units", "4",
             "--head-units", "4", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error:")
        assert not (out / "checkpoint.atxc").exists()

    def test_nonfinite_gradient_exits_1_without_checkpoint(self, tmp_path, capsys,
                                                           monkeypatch):
        prepared = prepare_dir(tmp_path, capsys)
        real = models.loss_and_grads

        def poisoned(*args):
            loss, table_grad, grad = real(*args)
            grad[-3] = np.nan   # head.b2, the last tensor
            return loss, table_grad, grad

        monkeypatch.setattr(models, "loss_and_grads", poisoned)
        out = tmp_path / "run"
        code, stdout, err = run(["train", "--data", str(prepared), "--arch", "cnn",
                                 "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert "head.b2" in err and "epoch 1, batch 0" in err
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]

    def test_one_blas_thread_reruns_are_identical_and_recorded(self, tmp_path, capsys):
        # separate processes: the thread count is read when OpenBLAS loads
        prepared = prepare_dir(tmp_path, capsys)
        src = Path(aerotext.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "run"
        runs = []
        for _ in range(2):
            subprocess.run([sys.executable, "-m", "aerotext.cli", "train", "--data",
                            str(prepared), "--arch", "lstm", "--epochs", "2", "--out", str(out)],
                           check=True, capture_output=True, env=env)
            runs.append({name: (out / name).read_bytes()
                         for name in ("checkpoint.atxc", "history.csv", "manifest.json")})
        assert runs[0] == runs[1]
        blas = json.loads(runs[0]["manifest.json"])["blas"]
        assert set(blas) == {"library", "config", "threads"}
        if cli._blas()["threads"] == "unknown":
            pytest.skip("this numpy's OpenBLAS does not export the scipy_openblas symbols")
        assert blas["threads"] == 1
        assert "OpenBLAS" in blas["config"]

    def test_blas_without_openblas_symbols_is_unknown(self, monkeypatch):
        def no_library(path):
            raise OSError(f"cannot open {path}")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
        blas = cli._blas()
        assert blas["config"] == blas["threads"] == "unknown"

    def test_nan_rate_past_the_config_check_is_refused_by_the_manifest(self, tmp_path, capsys,
                                                                       monkeypatch):
        prepared = prepare_dir(tmp_path, capsys)
        monkeypatch.setattr(TrainConfig, "__post_init__", lambda self: None)
        out = tmp_path / "run"
        code, stdout, err = run(["train", "--data", str(prepared), "--arch", "cnn",
                                 "--lr", "nan", "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, extra, env_seed", [
    ("train", ["--lr", "0"], None),
    ("train", ["--lr", "nan"], None),
    ("train", ["--dropout", "1.5"], None),
    ("train", ["--arch", "cnn", "--conv-kernel", "500"], None),
    ("train", ["--batch-size", "0"], None),
    ("train", ["--seed", "-1"], None),
    ("prepare", ["--vocab-size", "0"], None),
    ("prepare", ["--max-len", "0"], None),
    ("prepare", [], "abc"),
    ("prepare", ["--input", NOT_UTF8], None),
    ("prepare", ["--mapping", NOT_UTF8], None),
    ("prepare", ["--stopwords", NOT_UTF8], None),
], ids=["lr-0", "lr-nan", "dropout-1.5", "conv-kernel-500", "batch-size-0",
        "seed--1", "vocab-size-0", "max-len-0", "env-seed-abc", "input-not-utf8",
        "mapping-not-utf8", "stopwords-not-utf8"])
def test_config_error_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                  command, extra, env_seed):
    out = tmp_path / "out"
    bad = tmp_path / "not-utf8"
    if NOT_UTF8 in extra:
        # a well-formed file of its kind, with one byte that is not UTF-8
        good = tmp_path / "good"
        {"--input": write_keyword_csv, "--mapping": write_mapping,
         "--stopwords": lambda path: path.write_text("the\nand\n")}[extra[0]](good)
        bad.write_bytes(good.read_bytes().replace(b"a", b"\xff", 1))
        extra = [extra[0], str(bad)]
    if command == "train":
        argv = ["train", "--data", str(prepare_dir(tmp_path, capsys)),
                "--arch", "srnn", "--epochs", "1", "--out", str(out)]
    else:
        argv = ["prepare", "--input", str(write_keyword_csv(tmp_path / "data.csv")),
                "--mapping", str(write_mapping(tmp_path / "map.tsv")), "--out", str(out)]
    if env_seed is not None:
        monkeypatch.setenv("AEROTEXT_SEED", env_seed)
    code, stdout, err = run(argv + extra, capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert not out.exists()
    if bad.exists():
        assert f"{bad}:" in err and "not UTF-8" in err, err


@pytest.mark.parametrize("row", [b"Civil,engine fire on climb", b"Military",
                                 b"Military,engine \xff fire",
                                 b"Military," + b"x" * (csv.field_size_limit() + 1)],
                         ids=["unknown-label", "one-field", "not-utf8", "field-over-limit"])
def test_bad_split_row_exits_1_with_one_error_line(tmp_path, capsys, row):
    prepared = prepare_dir(tmp_path, capsys)
    run_dir, _ = train_dir(tmp_path, capsys, prepared, epochs="1")
    train_csv = prepared / "train.csv"
    lines = train_csv.read_bytes().splitlines()
    lines[2] = row
    train_csv.write_bytes(b"\n".join(lines) + b"\n")
    for out, argv in (
            (tmp_path / "retrain", ["train", "--data", str(prepared), "--arch", "srnn",
                                    "--epochs", "1"]),
            (tmp_path / "eval", ["evaluate", "--checkpoint", str(run_dir / "checkpoint.atxc"),
                                 "--data", str(prepared), "--split", "train"])):
        code, stdout, err = run(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert f"{train_csv}:3:" in err
        assert not out.exists()


def _repeat_id(text):
    lines = text.splitlines()
    lines[1] = lines[1].split("\t")[0] + "\t2"
    return "\n".join(lines) + "\n"


def _repeat_token(text):
    # the first token once more, before it, with the second line's id: the
    # ids kept by the last occurrence of each token are still unique and in range
    return text.split("\t", 1)[0] + "\t3\n" + text


def _drop_key(*path):
    def edit(text):
        manifest = json.loads(text)
        node = manifest
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return json.dumps(manifest)
    return edit


@pytest.mark.parametrize("name,edit", [
    ("vocab.tsv", _repeat_id),
    ("vocab.tsv", lambda text: text.replace("\t2\n", "\t2.5\n", 1)),
    ("manifest.json", lambda text: "{"),
    ("manifest.json", _drop_key("config")),
    ("manifest.json", _drop_key("config", "max_len")),
    ("manifest.json", _drop_key("config", "truncate")),
    ("manifest.json", lambda text: text.replace('"truncate":"head"', '"truncate":"middle"')),
    ("manifest.json", lambda text: text.replace('"max_len":', '"max_len":"x","_":')),
    ("manifest.json", lambda text: b"[" * 100_000),
    ("vocab.tsv", lambda text: b"\xff" + text.encode("utf-8")),
    ("stopwords.txt", lambda text: b"\xff" + text.encode("utf-8")),
    ("vocab.tsv", _repeat_token),
], ids=["repeated-id", "non-integer-id", "invalid-json", "no-config", "no-max-len",
        "no-truncate", "bad-truncate", "string-max-len", "deep-nesting", "vocab-not-utf8",
        "stopwords-not-utf8", "repeated-token"])
def test_bad_prepared_file_exits_1_with_one_error_line(tmp_path, capsys, name, edit):
    # an edit returns the new text, or the raw bytes of the file
    prepared = prepare_dir(tmp_path, capsys)
    path = prepared / name
    edited = edit(path.read_text(encoding="utf-8"))
    path.write_bytes(edited if isinstance(edited, bytes) else edited.encode("utf-8"))
    out = tmp_path / "run"
    code, stdout, err = run(["train", "--data", str(prepared), "--arch", "srnn",
                             "--epochs", "1", "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert str(path) in err
    assert not out.exists()


def test_huge_max_len_exits_1_with_one_error_line(tmp_path, capsys):
    # CPython refuses a padding list of 2**62 ids with a MemoryError before
    # allocating it: for a prepared directory and for a checkpoint
    prepared = prepare_dir(tmp_path, capsys)
    manifest_path = prepared / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["config"]["max_len"] = 2**62
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "run"
    code, stdout, err = run(["train", "--data", str(prepared), "--arch", "srnn",
                             "--epochs", "1", "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert not (out / "checkpoint.atxc").exists() and not (out / "history.csv").exists()

    checkpoint = tmp_path / "huge.atxc"
    checkpoint.write_bytes(edit_checkpoint_metadata(tiny_checkpoint_bytes("srnn"),
                                                    lambda meta: dict(meta, max_len=2**62)))
    code, stdout, err = run(["predict", "--checkpoint", str(checkpoint), "--text", FUZZ_TEXT],
                            capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


class TestEvaluate:
    def test_overfit_model_prints_accuracy_1(self, tmp_path, capsys):
        prepared = prepare_dir(tmp_path, capsys)
        run_dir, _ = train_dir(tmp_path, capsys, prepared)
        out = tmp_path / "eval"
        code, stdout, err = run(["evaluate", "--checkpoint",
                                 str(run_dir / "checkpoint.atxc"), "--data",
                                 str(prepared), "--split", "train",
                                 "--out", str(out)], capsys)
        assert code == 0, err
        assert float(stdout.strip()) == 1.0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"schema_version", "matrix_orientation", "model",
                               "confusion_matrix", "per_class", "macro",
                               "weighted", "accuracy"}
        assert report["model"] == "srnn"

    def test_corrupt_checkpoint_exits_1(self, tmp_path, capsys):
        prepared = prepare_dir(tmp_path, capsys)
        bad = tmp_path / "bad.atxc"
        bad.write_bytes(b"ATXC" + b"\x01\x00\x00\x00" + b"\xff" * 8)
        code, _, err = run(["evaluate", "--checkpoint", str(bad), "--data",
                            str(prepared), "--out", str(tmp_path / "e")], capsys)
        assert code == 1
        assert "error" in err

    def test_test_split_default(self, tmp_path, capsys):
        prepared = prepare_dir(tmp_path, capsys)
        run_dir, _ = train_dir(tmp_path, capsys, prepared, epochs="2")
        out = tmp_path / "eval2"
        code, stdout, _ = run(["evaluate", "--checkpoint",
                               str(run_dir / "checkpoint.atxc"), "--data",
                               str(prepared), "--out", str(out)], capsys)
        assert code == 0
        assert 0.0 <= float(stdout.strip()) <= 1.0

    def test_writes_no_history(self, tmp_path, capsys):
        prepared = prepare_dir(tmp_path, capsys)
        run_dir, _ = train_dir(tmp_path, capsys, prepared, epochs="1")
        out = tmp_path / "eval"
        code, _, err = run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.atxc"),
                            "--data", str(prepared), "--out", str(out)], capsys)
        assert code == 0, err
        assert sorted(path.name for path in out.iterdir()) == [
            "macro_summary.csv", "manifest.json", "per_class_metrics.csv", "report.json"]
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == ["macro", "per_class", "report"]
        assert not any(path.endswith("history.csv") for path in outputs.values())


def test_nan_in_a_report_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    prepared = prepare_dir(tmp_path, capsys)
    run_dir, _ = train_dir(tmp_path, capsys, prepared, epochs="1")
    real = metrics.classification_report
    monkeypatch.setattr(metrics, "classification_report",
                        lambda counts: dataclasses.replace(real(counts), macro_f1=math.nan))
    out = tmp_path / "eval"
    code, stdout, err = run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.atxc"),
                             "--data", str(prepared), "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_refuses_non_finite_values(value):
    with pytest.raises(NonfiniteValue):
        jsonio.dumps({"probs": [0.5, value]})


def test_metadata_length_past_the_end_exits_1_with_one_error_line(tmp_path, capsys):
    prepared = prepare_dir(tmp_path, capsys)
    run_dir, _ = train_dir(tmp_path, capsys, prepared, epochs="1")
    path = run_dir / "checkpoint.atxc"
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<Q", 2**40) + blob[16:])
    code, stdout, err = run(["predict", "--checkpoint", str(path), "--text", "alpha"], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("fault", METADATA_FAULTS)
def test_bad_checkpoint_metadata_exits_1_with_one_error_line(tmp_path, capsys, fault):
    prepared = prepare_dir(tmp_path, capsys)
    run_dir, _ = train_dir(tmp_path, capsys, prepared, epochs="1")
    path = run_dir / "checkpoint.atxc"
    path.write_bytes(edit_checkpoint_metadata(path.read_bytes(), METADATA_FAULTS[fault]))
    out = tmp_path / "eval"
    for argv in (["predict", "--checkpoint", str(path), "--text", "alpha common token"],
                 ["evaluate", "--checkpoint", str(path), "--data", str(prepared),
                  "--out", str(out)]):
        code, stdout, err = run(argv, capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert not out.exists()


class TestPredict:
    @pytest.fixture
    def checkpoint(self, tmp_path, capsys):
        prepared = prepare_dir(tmp_path, capsys)
        run_dir, _ = train_dir(tmp_path, capsys, prepared)
        return run_dir / "checkpoint.atxc"

    def test_probs_sum_to_one(self, checkpoint, capsys):
        code, stdout, _ = run(["predict", "--checkpoint", str(checkpoint),
                               "--text", "bravo filler1 common token"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert set(payload) == {"class", "probs"}
        assert payload["class"] in ("Commercial", "Military", "Private")
        assert abs(sum(payload["probs"]) - 1.0) < 1e-9

    def test_learned_keywords_drive_the_class(self, checkpoint, capsys):
        # probe with the same document shape the corpus was built from
        for keyword, want in (("alpha", "Commercial"), ("bravo", "Military"),
                              ("charlie", "Private")):
            _, stdout, _ = run(["predict", "--checkpoint", str(checkpoint),
                                "--text", f"{keyword} filler0 common token"], capsys)
            assert json.loads(stdout)["class"] == want

    def test_all_stopword_input_warns_but_predicts(self, checkpoint, capsys):
        code, stdout, err = run(["predict", "--checkpoint", str(checkpoint),
                                 "--text", "the and is"], capsys)
        assert code == 0
        assert "warning" in err
        payload = json.loads(stdout)
        assert abs(sum(payload["probs"]) - 1.0) < 1e-9

    def test_same_text_twice_identical(self, checkpoint, capsys):
        argv = ["predict", "--checkpoint", str(checkpoint), "--text",
                "charlie common filler2"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_stdin_input(self, checkpoint, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("alpha filler1 common token"))
        code, stdout, _ = run(["predict", "--checkpoint", str(checkpoint),
                               "--stdin"], capsys)
        assert code == 0
        assert json.loads(stdout)["class"] == "Commercial"


def test_console_script_version():
    exe = shutil.which("aerotext")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("aerotext ")


FUZZ_TEXT = "engine fire on approach, pilot error in the wind"


@functools.cache
def tiny_checkpoint_bytes(arch):
    config = models.ModelConfig(arch=arch, vocab_size=8, embedding_dim=3, hidden_units=3,
                                head_units=3, max_len=6, conv_filters=3, conv_kernel=2)
    vocab = fit_vocabulary(["engine fire on approach", "pilot error wind"], max_size=8)
    tensors = models.checkpoint_views(config, models.init_params(config, seed=1))
    buf = io.BytesIO()
    save_checkpoint(ModelCheckpoint(config, vocab, frozenset({"the"}), "head", tensors, 1), buf)
    return buf.getvalue()


@st.composite
def edited_checkpoints(draw):
    """A tiny checkpoint of some architecture with one bit flipped, one byte
    overwritten, the file cut at some offset, or bytes appended after its
    last tensor. Returns the bytes and whether the edit must be refused."""
    blob = bytearray(tiny_checkpoint_bytes(draw(st.sampled_from(models.ARCHITECTURES))))
    at = draw(st.integers(min_value=0, max_value=len(blob) - 1))
    edit = draw(st.sampled_from(["flip", "overwrite", "cut", "append"]))
    if edit == "flip":
        blob[at] ^= 1 << draw(st.integers(min_value=0, max_value=7))
    elif edit == "overwrite":
        blob[at] = draw(st.integers(min_value=0, max_value=255))
    elif edit == "cut":
        del blob[at:]
    else:
        blob += draw(st.binary(min_size=1, max_size=70))
    return bytes(blob), edit in ("cut", "append")


@given(edited=edited_checkpoints())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_edited_checkpoint_bytes_predict_or_fail_with_one_error_line(edited, tmp_path, capsys):
    # in process: finite probabilities that sum to 1, or the package's own error
    blob, refused = edited
    try:
        _, probs = metrics.Predictor(load_checkpoint(io.BytesIO(blob))).predict(FUZZ_TEXT)
    except AerotextError:
        pass
    else:
        assert not refused
        assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) < 1e-12, probs
    path = tmp_path / "edited.atxc"
    path.write_bytes(blob)
    code, stdout, err = run(["predict", "--checkpoint", str(path), "--text", FUZZ_TEXT], capsys)
    if code == 0:
        assert not refused
        assert len(json.loads(stdout)["probs"]) == 3
    else:
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1, err


@pytest.fixture(scope="module")
def prepared_files(tmp_path_factory):
    """The bytes of each file of a prepared directory."""
    tmp_path = tmp_path_factory.mktemp("prepared")
    data_csv = write_keyword_csv(tmp_path / "data.csv")
    out = tmp_path / "prepared"
    assert main(["prepare", "--input", str(data_csv), "--mapping",
                 str(write_mapping(tmp_path / "map.tsv")), "--out", str(out),
                 "--seed", "5", "--max-len", "8"]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5)


@st.composite
def edited_prepared_files(draw, files):
    """The prepared files with one byte of train.csv, vocab.tsv or
    stopwords.txt flipped, overwritten, inserted or cut at, or one value of
    manifest.json's prepare config replaced by a JSON value of a wrong type.
    Returns the files and whether the edit must be refused."""
    files = dict(files)
    name = draw(st.sampled_from(["train.csv", "vocab.tsv", "stopwords.txt", "manifest.json"]))
    if name == "manifest.json":
        manifest = json.loads(files[name])
        key = draw(st.sampled_from(["max_len", "truncate", None]))
        expected = {"max_len": int, "truncate": str, None: dict}[key]
        wrong = JSON_VALUES.filter(lambda value: type(value) is not expected)
        if key is None:
            manifest["config"] = draw(wrong)
        else:
            manifest["config"][key] = draw(wrong)
        files[name] = json.dumps(manifest).encode("utf-8")
        return files, True
    blob = bytearray(files[name])
    at = draw(st.integers(min_value=0, max_value=len(blob) - 1))
    edit = draw(st.sampled_from(["flip", "overwrite", "insert", "cut"]))
    byte = draw(st.integers(min_value=0, max_value=255))
    if edit == "flip":
        blob[at] ^= 1 << byte % 8
    elif edit == "overwrite":
        blob[at] = byte
    elif edit == "insert":
        blob.insert(at, byte)
    else:
        del blob[at:]
    files[name] = bytes(blob)
    return files, False


@given(data=st.data())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_edited_prepared_directory_trains_or_fails_with_one_error_line(
        data, prepared_files, tmp_path, capsys):
    # a byte edit that leaves a well-formed file trains as usual; any other
    # edit exits 1 with one error line, and no checkpoint or history is written
    files, refused = data.draw(edited_prepared_files(prepared_files))
    shutil.rmtree(tmp_path / "prepared", ignore_errors=True)
    shutil.rmtree(tmp_path / "run", ignore_errors=True)
    (tmp_path / "prepared").mkdir()
    for name, blob in files.items():
        (tmp_path / "prepared" / name).write_bytes(blob)
    arch = data.draw(st.sampled_from(["srnn", "cnn"]))
    code, stdout, err = run(["train", "--data", str(tmp_path / "prepared"), "--arch", arch,
                             "--epochs", "1", "--embedding-dim", "3", "--hidden-units", "3",
                             "--head-units", "3", "--conv-filters", "3", "--conv-kernel", "2",
                             "--out", str(tmp_path / "run")], capsys)
    written = [(tmp_path / "run" / name).exists() for name in ("checkpoint.atxc", "history.csv")]
    if code == 0 and not refused:
        assert written == [True, True]
    else:
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert written == [False, False]
