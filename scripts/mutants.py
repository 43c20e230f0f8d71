"""Mutation probe: which small deliberate bugs does the test suite miss?

    python scripts/mutants.py

Each mutant in MUTANTS replaces one exact snippet of a file under `src/`
with a wrong one. For each, the working tree is copied into a temporary
directory (without `.git` and caches), the mutant is applied there, and the
suite runs in the copy with the repository's test command plus `-x`, so the
first failure ends the run. A mutant is *killed* when the suite fails and
*survives* when it passes. Before the mutants, the unmutated copy must pass.

Some mutants cannot be told apart from the program by any test: they
change no behaviour. Those are marked equivalent, with the reason. The
script prints one line per mutant and exits 0 when every mutant not marked
equivalent is killed and every marked one survives, and 1 otherwise; 2 when
the unmutated suite fails. Not part of the test suite: each survivor costs a
whole suite run (about 15 s on two cores), and each kill up to as much.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SUITE = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIMEOUT_S = 900
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work")


class Mutant(NamedTuple):
    name: str
    file: str        # relative to the repository root
    old: str         # must occur exactly once in `file`
    new: str
    why: str         # the bug it stands for
    equivalent: str = ""  # if set: why no test can kill it


MUTANTS = [
    Mutant("adam-eps-inside-sqrt", "src/aerotext/training.py",
           "np.add(np.sqrt(np.divide(v, correct2, out=u), out=u), self.EPS, out=u)",
           "np.sqrt(np.add(np.divide(v, correct2, out=u), self.EPS, out=u), out=u)",
           "Adam's eps added under the square root, not after it"),
    Mutant("adam-lagging-bias-correction", "src/aerotext/training.py",
           "correct1 = 1.0 - self.BETA1 ** self.t",
           "correct1 = 1.0 - self.BETA1 ** max(self.t - 1, 1)",
           "the first moment's bias correction one step behind"),
    Mutant("best-by-loss-tie", "src/aerotext/training.py",
           "return candidate.validation_loss < best.validation_loss",
           "return candidate.validation_loss <= best.validation_loss",
           "a validation-loss tie picks the later epoch"),
    Mutant("best-by-accuracy-tie", "src/aerotext/training.py",
           "return candidate.validation_accuracy > best.validation_accuracy",
           "return candidate.validation_accuracy >= best.validation_accuracy",
           "a validation-accuracy tie picks the later epoch"),
    Mutant("best-epoch-not-copied", "src/aerotext/training.py",
           "best_flat = flat.copy()", "best_flat = flat",
           "the checkpoint holds the last epoch's weights under the best epoch's number"),
    Mutant("field-bound-one-byte-loose", "src/aerotext/training.py",
           "if n > len(buf) - at:", "if n > len(buf) - at + 1:",
           "a checkpoint field one byte short of its length passes the bounds check"),
    Mutant("trailing-bytes-accepted", "src/aerotext/training.py",
           "if at != len(buf):", "if False:",
           "a checkpoint with bytes after its last tensor loads"),
    Mutant("f1-epsilon", "src/aerotext/metrics.py",
           "f1 = 2 * precision * recall / (precision + recall) if",
           "f1 = 2 * precision * recall / (precision + recall + 1e-12) if",
           "an epsilon in F1's denominator"),
    Mutant("lstm-backward-drops-forget-gate", "src/aerotext/models.py",
           "dc[:n] = dc_t * f", "dc[:n] = dc_t",
           "the LSTM backward passes the cell gradient on without the forget gate"),
    Mutant("kernel-too-large-off-by-one", "src/aerotext/models.py",
           "if k > lengths.min(initial=k):", "if k > lengths.min(initial=k) + 1:",
           "a kernel one longer than a record is not refused as KernelTooLarge"),
    Mutant("conv-one-padding-window", "src/aerotext/models.py",
           "np.minimum(ends + kernel + 1, ids.shape[1])", "np.minimum(ends + kernel, ids.shape[1])",
           "the convolution keeps one padding window, so a product can be a one-row gemv"),
    Mutant("true-length-uncapped", "src/aerotext/models.py",
           "min(s.true_length, len(s.ids))", "s.true_length",
           "a true length past the padded length is not capped"),
    Mutant("score-chunk-7", "src/aerotext/models.py",
           "SCORE_CHUNK = 64", "SCORE_CHUNK = 7",
           "records scored 7 at a time",
           equivalent="every scored row is its record's batch-of-one row whatever the chunk; "
                      "the chunk size only bounds the memory of one chunk"),
    Mutant("true-length-from-kept", "src/aerotext/textprep.py",
           "TokenSequence(ids, min(len(tokens), max_len))", "TokenSequence(ids, len(kept))",
           "the true length taken from the kept tokens",
           equivalent="kept is tokens cut to max_len, so len(kept) == min(len(tokens), max_len)"),
]


def run_suite(tree: Path) -> tuple[bool, float]:
    """Whether the suite passes in `tree`, and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    try:
        passed = subprocess.run(SUITE, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        passed = False  # a mutant that hangs the suite is caught too
    return passed, time.perf_counter() - start


def fresh_copy(into: Path) -> Path:
    tree = into / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    return tree


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="aerotext-mutants-") as tmp:
        passed, seconds = run_suite(fresh_copy(Path(tmp)))
        print(f"{'baseline':9} {'passed' if passed else 'FAILED':36} {seconds:6.1f} s", flush=True)
        if not passed:
            return 2
        for mutant in MUTANTS:
            tree = fresh_copy(Path(tmp))
            apply(tree, mutant)
            survived, seconds = run_suite(tree)
            wrong = survived != bool(mutant.equivalent)
            bad += wrong
            verdict = "survived" if survived else "killed"
            note = f"equivalent: {mutant.equivalent}" if mutant.equivalent else mutant.why
            print(f"{verdict:9} {mutant.name:36} {seconds:6.1f} s  {note}"
                  f"{'  <-- not as marked' if wrong else ''}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not as marked")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
