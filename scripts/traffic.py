"""Line coverage of the traffic: which lines under `src/` does no real call run?

    python scripts/traffic.py

Runs, in this process and under `sys.settrace`, the calls the pipeline's
users make, on the first 400 rows of the `bench/gen.py` seed-3 corpus:

  - `prepare` twice at --max-len 24: once plain and without --seed (with
    AEROTEXT_SEED unset, so at seed 0), once with --stratify, --truncate
    tail and --seed 3;
  - `train` of every architecture for 2 epochs at small dims, once with
    Adam on the plain preparation and once with SGD, --dropout 0.3 and
    --select-best-by validation_loss on the other;
  - `evaluate` of every checkpoint on its own preparation, and `predict` of
    one sentence and of one text made only of stopwords;
  - the API calls of `bench/run.py`: `training.train` on a `SplitDataset`,
    checkpoint save and load, `Predictor.predict` and `probs`,
    `metrics.evaluate_model`, and `export_reports` with a history.

The package is imported under the trace too. The script then prints, file
by file, each line under `src/` that holds code and that none of this ran:
an error raise, a guard, a path that no such input takes, or code that only
the tests reach. Takes a few seconds; it is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "bench")]

import gen  # noqa: E402

ROWS = 400
DIMS = ["--embedding-dim", "8", "--hidden-units", "8", "--head-units", "8",
        "--conv-filters", "8", "--conv-kernel", "3"]
# The traffic, shared with scripts/parity.py: prepare options by directory
# (each at --max-len 24), the train setups, and the texts given to predict.
PREPARED = {"plain": [], "stratified": ["--seed", "3", "--stratify", "--truncate", "tail"]}
# setup -> (prepared directory, train options)
SETUPS = {"adam": ("plain", []),
          "sgd": ("stratified", ["--optimizer", "sgd", "--lr", "0.05", "--dropout", "0.3",
                                 "--select-best-by", "validation_loss"])}
TEXTS = {"sentence": "Engine caught fire during a routine training exercise over the base",
         "stopwords": "the and of"}


def code_lines(path: Path) -> set[int]:
    """The lines of the file that hold instructions."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
    return lines


def traced(calls) -> dict[str, set[int]]:
    """The lines under `src/` that `calls()` ran, by file."""
    ran: dict[str, set[int]] = {}
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        # a call has no line event for the function's first line
        ran.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return local

    sys.settrace(on_call)
    try:
        calls()
    finally:
        sys.settrace(None)
    return ran


def run_cli(*argv: str) -> None:
    from aerotext import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"exit {code}: aerotext {' '.join(argv)}")


def pipeline(work: Path) -> None:
    from aerotext.models import ARCHITECTURES
    os.environ.pop("AEROTEXT_SEED", None)
    corpus = gen.generate(3)
    rows = list(csv.reader(io.StringIO(corpus.csv_text, newline="")))[:ROWS + 1]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    records, mapping = gen.write(dataclasses.replace(corpus, csv_text=text.getvalue()),
                                 work / "corpus")
    for name, options in PREPARED.items():
        run_cli("prepare", "--input", str(records), "--mapping", str(mapping),
                "--max-len", "24", *options, "--out", str(work / name))
    for arch in ARCHITECTURES:
        for setup, (data, options) in SETUPS.items():
            run = work / f"{arch}-{setup}"
            run_cli("train", "--data", str(work / data), "--arch", arch, "--epochs", "2",
                    "--seed", "3", *DIMS, *options, "--out", str(run))
            checkpoint = str(run / "checkpoint.atxc")
            run_cli("evaluate", "--checkpoint", checkpoint, "--data", str(work / data),
                    "--out", str(run / "evaluate"))
            for text in TEXTS.values():
                run_cli("predict", "--checkpoint", checkpoint, "--text", text)
    api(work / "stratified", work / "api")


def api(data: Path, out: Path) -> None:
    """The calls `bench/run.py` makes on the package, outside the CLI."""
    from aerotext import autodiff, cli, metrics, training  # noqa: F401, as bench/run.py
    from aerotext.corpus import SplitDataset
    from aerotext.models import ModelConfig
    from aerotext.textprep import Vocabulary, load_stopwords

    parts = {name: cli._read_split_csv(data / f"{name}.csv")
             for name in ("train", "validation", "test")}
    vocab = Vocabulary.load(data / "vocab.tsv")
    split = SplitDataset(parts["train"], parts["validation"], parts["test"], 3)
    config = ModelConfig(arch="lstm", vocab_size=vocab.size, embedding_dim=8, hidden_units=8,
                         head_units=8, max_len=24)
    checkpoint, history = training.train(config, training.TrainConfig(seed=3, epochs=1),
                                         split, vocab, stopwords=load_stopwords(
                                             data / "stopwords.txt"), truncate="tail")
    out.mkdir()
    training.save_checkpoint(checkpoint, out / "checkpoint.atxc")
    loaded = training.load_checkpoint(out / "checkpoint.atxc")
    predictor = metrics.Predictor(loaded)
    predictor.predict(TEXTS["sentence"])
    predictor.probs(TEXTS["sentence"])
    counts, report = metrics.evaluate_model(loaded, parts["test"])
    metrics.export_reports(report, counts, history, out / "reports", model_name="lstm")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="aerotext-traffic-") as tmp:
        ran = traced(lambda: pipeline(Path(tmp)))
    total = 0
    for path in sorted((SRC / "aerotext").glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(code_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{total} lines that no call ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
