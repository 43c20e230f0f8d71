"""Artifact parity between the working tree and a git revision.

    python scripts/parity.py REF

Extracts REF with `git archive` into a temporary directory (no worktree, no
branch change) and runs the same CLI sequence on both trees under
OPENBLAS_NUM_THREADS=1, since reruns are byte-identical only at a fixed
BLAS thread count. It runs the traffic that `scripts/traffic.py` traces
(its PREPARED, SETUPS and TEXTS), at the default model dims:

  - `prepare` of the `bench/gen.py` seed-3 corpus at --max-len 24, once
    plain and without --seed (with AEROTEXT_SEED unset, so at seed 0) and
    once with --stratify, --truncate tail and --seed 3;
  - `train` for 2 epochs, every architecture, with Adam at the defaults on
    the plain preparation and with SGD at lr 0.05, dropout 0.3 and
    --select-best-by validation_loss on the stratified one;
  - `prepare` of the same corpus at the default --max-len and --seed 3, and
    one epoch of the LSTM on it: at --max-len 24 many records are cut to
    the same length, so few recurrent steps run with a few rows, and a
    change to the products of such steps could go unseen;
  - `evaluate --split test` of every checkpoint, and `predict --text` of a
    sentence and of a text made only of stopwords.

The working tree then also runs `evaluate` and `predict` on REF's
checkpoints, so a change that moves training's last bits can still show
that its scoring gives REF's outputs.

Every file the runs write, and the standard output of every command, is
compared byte for byte, except that a `manifest.json` is compared with its
path strings removed; so are the working tree's scoring outputs of REF's
checkpoints with REF's own. Exits 0 when all files match and 1 after
listing every file that differs or exists on one side only. Takes about
four minutes on two cores; it is not part of the test suite.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from traffic import PREPARED as TRAFFIC_PREPARED, ROOT, SETUPS, TEXTS

# importing traffic put the working tree's src/ and bench/ on sys.path
import gen
from aerotext.models import ARCHITECTURES


def extract(ref: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def write_corpus(into: Path) -> tuple[Path, Path]:
    return gen.write(gen.generate(3), into)


# prepared directory -> prepare options
PREPARED = {name: ["--max-len", "24", *options] for name, options in TRAFFIC_PREPARED.items()}
PREPARED["default"] = ["--seed", "3"]
# run name -> (prepared directory, train options)
RUNS = {f"{arch}-{setup}": (prepared, ["--arch", arch, "--epochs", "2", *options])
        for arch in ARCHITECTURES for setup, (prepared, options) in SETUPS.items()}
RUNS["lstm-default"] = ("default", ["--arch", "lstm", "--epochs", "1"])


def command_line(tree: Path, work: Path):
    """cli(stdout, *args): one CLI command of `tree`'s package, run in
    `work` with its standard output written to the file `stdout` there."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    env.pop("AEROTEXT_SEED", None)
    work.mkdir(parents=True)

    def cli(stdout: str, *args: str) -> None:
        with open(work / stdout, "w") as sink:
            subprocess.run([sys.executable, "-m", "aerotext.cli", *args], cwd=work, env=env,
                           check=True, stdout=sink)
    return cli


def score(cli, run: str, checkpoint: str, data: str) -> None:
    """`evaluate --split test` and `predict --text` of each text, of one checkpoint."""
    cli(f"{run}.evaluate.out", "evaluate", "--checkpoint", checkpoint,
        "--data", data, "--split", "test", "--out", f"{run}/evaluate")
    for name, text in TEXTS.items():
        cli(f"{run}.predict-{name}.out", "predict", "--checkpoint", checkpoint, "--text", text)


def run_tree(tree: Path, work: Path, csv: Path, mapping: Path) -> None:
    """The CLI sequence of the module docstring with `tree`'s package, every
    output under `work`, every path relative to it."""
    cli = command_line(tree, work)
    for prepared, options in PREPARED.items():
        cli(f"{prepared}.out", "prepare", "--input", str(csv), "--mapping", str(mapping),
            *options, "--out", prepared)
    for run, (prepared, options) in RUNS.items():
        print(f"{tree.name}: {run}", file=sys.stderr, flush=True)
        cli(f"{run}.train.out", "train", "--data", prepared, *options, "--seed", "3",
            "--out", run)
        score(cli, run, f"{run}/checkpoint.atxc", prepared)


def score_ref(tree: Path, work: Path, ref_work: Path) -> None:
    """`tree`'s scoring of the checkpoints and prepared data in `ref_work`,
    under the names `run_tree` gives its own."""
    cli = command_line(tree, work)
    for run, (prepared, _) in RUNS.items():
        print(f"{tree.name}: scoring the reference's {run}", file=sys.stderr, flush=True)
        score(cli, run, str(ref_work / run / "checkpoint.atxc"), str(ref_work / prepared))


def without_paths(value):
    """A parsed manifest with every string that names a path replaced."""
    if isinstance(value, dict):
        return {key: without_paths(item) for key, item in value.items()}
    if isinstance(value, list):
        return [without_paths(item) for item in value]
    if isinstance(value, str) and "/" in value:
        return "<path>"
    return value


def same(a: Path, b: Path) -> bool:
    if a.name == "manifest.json":
        return without_paths(json.loads(a.read_text())) == without_paths(
            json.loads(b.read_text()))
    return a.read_bytes() == b.read_bytes()


def files(root: Path) -> set[Path]:
    return {path.relative_to(root) for path in root.rglob("*") if path.is_file()}


def differing(ref: Path, change: Path, names: set[Path]) -> list[str]:
    return sorted(str(name) for name in names
                  if not ((ref / name).is_file() and (change / name).is_file()
                          and same(ref / name, change / name)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="aerotext-parity-") as tmp:
        tmp = Path(tmp)
        ref_tree = extract(argv[0], tmp / "ref")
        csv, mapping = write_corpus(tmp / "corpus")
        run_tree(ref_tree, tmp / "out-ref", csv, mapping)
        run_tree(ROOT, tmp / "out-change", csv, mapping)
        score_ref(ROOT, tmp / "out-scored", tmp / "out-ref")
        names = files(tmp / "out-ref") | files(tmp / "out-change")
        bad = differing(tmp / "out-ref", tmp / "out-change", names)
        scored = files(tmp / "out-scored")
        bad_scored = differing(tmp / "out-ref", tmp / "out-scored", scored)
    for name in bad:
        print(f"differs: {name}")
    for name in bad_scored:
        print(f"differs when the working tree scores {argv[0]}'s checkpoints: {name}")
    print(f"{len(names) - len(bad)} of {len(names)} files identical to {argv[0]}")
    print(f"{len(scored) - len(bad_scored)} of {len(scored)} scoring outputs of "
          f"{argv[0]}'s checkpoints identical to {argv[0]}'s own")
    return 1 if bad or bad_scored else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
