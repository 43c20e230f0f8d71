"""Command-line pipeline: prepare, train, evaluate, predict.

Exit codes are a stable scripting contract: 0 success, 1 failure,
2 success-with-audit (prepare found unmapped operators; outputs are
still written). Every command that produces an output directory writes
a manifest.json there describing inputs (with digests), the fully
resolved configuration, and the artifacts, so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, jsonio, metrics, training
from .corpus import (
    DEFAULT_OPERATOR_COLUMN,
    DEFAULT_SUMMARY_COLUMN,
    LabeledRecord,
    OperatorClass,
    OperatorMapping,
    annotate_records,
    clean_records,
    ingest_records,
    split_dataset,
)
from .errors import AerotextError, InvalidConfig, MalformedCsv, read_utf8
from .models import ARCHITECTURES, ModelConfig
from .textprep import (
    DEFAULT_MAX_LEN,
    DEFAULT_VOCAB_SIZE,
    TRUNCATE,
    Vocabulary,
    cleanse_text,
    default_stopwords,
    fit_vocabulary,
    load_stopwords,
    word_count_stats,
)
from .training import TrainConfig, load_checkpoint, train

SPLIT_FILES = {"train": "train.csv", "validation": "validation.csv", "test": "test.csv"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage().rstrip()}\n{self.prog}: error: {message}")


def _default_seed() -> int:
    value = os.environ.get("AEROTEXT_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise InvalidConfig(f"AEROTEXT_SEED must be an integer, got {value!r}") from None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, seed: int | None,
                    inputs: dict[str, Path | None], config: dict,
                    outputs: dict[str, str], extra: dict | None = None) -> None:
    manifest = {
        "tool": "aerotext",
        "tool_version": __version__,
        "command": command,
        "inputs": {name: {"path": str(path), "sha256": _sha256(path)}
                   for name, path in inputs.items() if path is not None},
        "config": config,
        "outputs": outputs,
    }
    if seed is not None:
        manifest["seed"] = seed
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(jsonio.dumps(manifest) + "\n", encoding="utf-8")


def _blas() -> dict[str, str | int]:
    """The BLAS behind numpy's matrix products: the library numpy names in
    its build configuration, and the configuration string and thread count
    that its bundled OpenBLAS reports; "unknown" for any it does not give.
    Training reruns are byte-identical only at a fixed thread count."""
    info: dict[str, str | int] = {"library": "unknown", "config": "unknown",
                                  "threads": "unknown"}
    try:
        info["library"] = str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        pass
    try:
        from numpy._core import _multiarray_umath
        # a handle on numpy's extension also resolves the symbols of the
        # libraries it links, the bundled OpenBLAS among them
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get_config = lib.scipy_openblas_get_config64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return info
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    info["config"] = (get_config() or b"unknown").decode("utf-8", "replace")
    info["threads"] = get_threads()
    return info


def _write_split_csv(path: Path, records: list[LabeledRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["label", "summary"])
        for record in records:
            writer.writerow([record.label.label, record.summary])


def _read_split_csv(path: Path) -> list[LabeledRecord]:
    records = []
    reader = csv.reader(io.StringIO(read_utf8(path, MalformedCsv), newline=""))
    next(reader, None)
    for row in reader:
        if not row:
            continue
        where = f"{path}:{reader.line_num}"
        if len(row) != 2:
            raise MalformedCsv(f"{where}: expected 2 fields (label, summary), got {len(row)}")
        try:
            label = OperatorClass.from_name(row[0])
        except ValueError as exc:
            raise MalformedCsv(f"{where}: {exc}") from None
        records.append(LabeledRecord(label, row[1]))
    return records


# --- prepare -----------------------------------------------------------------

def cmd_prepare(args) -> int:
    for option, value in (("--max-len", args.max_len), ("--vocab-size", args.vocab_size)):
        if value < 1:
            raise InvalidConfig(f"{option} must be >= 1, got {value}")
    stopwords = load_stopwords(args.stopwords) if args.stopwords else default_stopwords()

    records = ingest_records(args.input, args.operator_column, args.summary_column)
    cleaned = clean_records(records)
    mapping = OperatorMapping.load(args.mapping)
    annotation = annotate_records(cleaned.kept, mapping)

    labeled = []
    empty_after_cleanse = 0
    for record in annotation.labeled:
        text = cleanse_text(record.summary, stopwords)
        if text:
            labeled.append(LabeledRecord(record.label, text))
        else:
            empty_after_cleanse += 1

    split = split_dataset(labeled, args.seed, stratify=args.stratify)
    vocab = fit_vocabulary([r.summary for r in split.train], args.vocab_size)
    stats = word_count_stats([r.summary for r in labeled])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, filename in SPLIT_FILES.items():
        _write_split_csv(out_dir / filename, getattr(split, name))
    vocab.save(out_dir / "vocab.tsv")
    (out_dir / "stats.json").write_text(stats.to_json() + "\n", encoding="utf-8")
    (out_dir / "stopwords.txt").write_text(
        "\n".join(sorted(stopwords)) + "\n", encoding="utf-8")
    with open(out_dir / "unmapped.csv", "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["operator", "count"])
        for operator, count in sorted(annotation.unmapped.items()):
            writer.writerow([operator, count])

    _write_manifest(
        out_dir, "prepare", args.seed,
        inputs={"input_csv": Path(args.input), "mapping": Path(args.mapping),
                "stopwords": Path(args.stopwords) if args.stopwords else None},
        config={"operator_column": args.operator_column,
                "summary_column": args.summary_column,
                "max_len": args.max_len, "vocab_size": args.vocab_size,
                "truncate": args.truncate, "stratify": args.stratify},
        outputs={key: str(out_dir / name) for key, name in
                 dict(SPLIT_FILES, vocab="vocab.tsv", stats="stats.json",
                      unmapped="unmapped.csv", stopwords="stopwords.txt").items()},
        extra={"counts": {
            "ingested": len(records),
            "dropped": cleaned.dropped,
            "after_cleaning": len(cleaned.kept),
            "unmapped_operators": len(annotation.unmapped),
            "unmapped_rows": sum(annotation.unmapped.values()),
            "empty_after_cleansing": empty_after_cleanse,
            "labeled": len(labeled),
            "split_sizes": {"train": len(split.train),
                            "validation": len(split.validation),
                            "test": len(split.test)},
        }})

    if annotation.unmapped:
        print(f"{sum(annotation.unmapped.values())} rows with unmapped operators; "
              f"see {out_dir / 'unmapped.csv'}", file=sys.stderr)
        return 2
    return 0


# --- train ---------------------------------------------------------------------

def _load_prepared(data_dir: Path) -> dict:
    manifest_path = data_dir / "manifest.json"
    try:
        prep = json.loads(manifest_path.read_text(encoding="utf-8"))["config"]
        max_len, truncate = prep["max_len"], prep["truncate"]
    except (ValueError, RecursionError) as exc:
        raise InvalidConfig(f"{manifest_path}: not valid JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"{manifest_path}: no prepare config with max_len and "
                            f"truncate ({type(exc).__name__}: {exc})") from None
    if type(max_len) is not int or truncate not in TRUNCATE:
        raise InvalidConfig(f"{manifest_path}: expected an integer max_len and a truncate in "
                            f"{TRUNCATE}, got {max_len!r} and {truncate!r}")
    vocab_path = data_dir / "vocab.tsv"
    try:
        vocab = Vocabulary.load(vocab_path)
    except ValueError as exc:
        raise MalformedCsv(f"{vocab_path}: {exc}") from None
    return {
        "splits": {name: _read_split_csv(data_dir / filename)
                   for name, filename in SPLIT_FILES.items()},
        "vocab": vocab,
        "stopwords": load_stopwords(data_dir / "stopwords.txt"),
        "max_len": max_len,
        "truncate": truncate,
    }


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    prepared = _load_prepared(data_dir)
    splits = prepared["splits"]

    from .corpus import SplitDataset
    split = SplitDataset(splits["train"], splits["validation"], splits["test"], args.seed)
    vocab = prepared["vocab"]
    model_config = ModelConfig(
        arch=args.arch, vocab_size=max(vocab.size, 1),
        embedding_dim=args.embedding_dim, hidden_units=args.hidden_units,
        head_units=args.head_units, max_len=prepared["max_len"],
        conv_filters=args.conv_filters, conv_kernel=args.conv_kernel,
        dropout_rate=args.dropout)
    train_config = TrainConfig(
        learning_rate=args.lr, batch_size=args.batch_size, epochs=args.epochs,
        optimizer=args.optimizer, seed=args.seed, select_best_by=args.select_best_by)

    # manifest goes down before training starts so an interrupted run is
    # still reproducible from disk (the best epoch lives in the checkpoint)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.atxc"
    _write_manifest(
        out_dir, "train", args.seed,
        inputs={name: data_dir / filename for name, filename in SPLIT_FILES.items()},
        config={"model": model_config.to_json_dict(),
                "train": {"learning_rate": args.lr, "batch_size": args.batch_size,
                          "epochs": args.epochs, "optimizer": args.optimizer,
                          "select_best_by": args.select_best_by}},
        outputs={"checkpoint": str(ckpt_path), "history": str(out_dir / "history.csv")},
        extra={"blas": _blas()})

    checkpoint, history = train(model_config, train_config, split, vocab,
                                stopwords=prepared["stopwords"],
                                truncate=prepared["truncate"])

    training.save_checkpoint(checkpoint, ckpt_path)
    (out_dir / "history.csv").write_text(training.history_to_csv(history),
                                         encoding="utf-8")

    final = history[-1]
    print(jsonio.dumps({"epoch": final.epoch, "train_loss": final.train_loss,
                        "train_acc": final.train_accuracy,
                        "val_loss": final.validation_loss,
                        "val_acc": final.validation_accuracy}))
    return 0


# --- evaluate --------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    checkpoint = load_checkpoint(args.checkpoint)
    records = _read_split_csv(data_dir / SPLIT_FILES[args.split])

    counts, report = metrics.evaluate_model(checkpoint, records)
    paths = metrics.export_reports(report, counts, history=(), directory=out_dir,
                                   model_name=checkpoint.config.arch)
    _write_manifest(
        out_dir, "evaluate", None,
        inputs={"checkpoint": Path(args.checkpoint),
                "records": data_dir / SPLIT_FILES[args.split]},
        config={"split": args.split, "model": checkpoint.config.to_json_dict(),
                "checkpoint_epoch": checkpoint.epoch},
        outputs={key: str(path) for key, path in paths.items()})
    print(f"{report.accuracy:.4f}")
    return 0


# --- predict ---------------------------------------------------------------------

def cmd_predict(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    predictor = metrics.Predictor(checkpoint)
    text = sys.stdin.read() if args.stdin else args.text

    if not cleanse_text(text, checkpoint.stopwords):
        print("warning: input is empty after cleansing; "
              "predicting from an all-padding sequence", file=sys.stderr)
    label, probs = predictor.predict(text)
    print(jsonio.dumps({"class": label.label, "probs": [float(p) for p in probs]}))
    return 0


# --- wiring ------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="aerotext",
                     description="Classify aviation operator records from narrative text.")
    parser.add_argument("--version", action="version", version=f"aerotext {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest, annotate, cleanse, and split a CSV")
    p.add_argument("--input", required=True, help="source CSV (RFC-4180, header row)")
    p.add_argument("--mapping", required=True, help="operator mapping TSV")
    p.add_argument("--stopwords", help="stopword file (default: built-in list)")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.add_argument("--operator-column", default=DEFAULT_OPERATOR_COLUMN)
    p.add_argument("--summary-column", default=DEFAULT_SUMMARY_COLUMN)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
    p.add_argument("--vocab-size", type=int, default=DEFAULT_VOCAB_SIZE)
    p.add_argument("--truncate", choices=TRUNCATE, default="head")
    p.add_argument("--stratify", action="store_true")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train one architecture on prepared data")
    p.add_argument("--data", required=True, help="directory written by prepare")
    p.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--optimizer", choices=training.OPTIMIZERS, default=TrainConfig.optimizer)
    p.add_argument("--select-best-by", choices=training.BEST_BY,
                   default=TrainConfig.select_best_by)
    p.add_argument("--embedding-dim", type=int, default=ModelConfig.embedding_dim)
    p.add_argument("--hidden-units", type=int, default=ModelConfig.hidden_units)
    p.add_argument("--head-units", type=int, default=ModelConfig.head_units)
    p.add_argument("--conv-filters", type=int, default=ModelConfig.conv_filters)
    p.add_argument("--conv-kernel", type=int, default=ModelConfig.conv_kernel)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout_rate)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a prepared split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=tuple(SPLIT_FILES), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify one narrative")
    p.add_argument("--checkpoint", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text")
    group.add_argument("--stdin", action="store_true")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # overflow and NaN are reported by the package's own checks
        # (NonfiniteLoss, NonfiniteValue) as one error line, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except AerotextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
