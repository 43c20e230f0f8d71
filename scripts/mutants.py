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
whole suite run (about 40 s on two cores), and each kill up to as much.
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
    Mutant("checkpoint-truncate-not-required", "src/aerotext/training.py",
           "(\"epoch\", \"truncate\", \"stopwords\",", "(\"epoch\", \"stopwords\",",
           "a checkpoint without its truncate side is not refused as CorruptCheckpoint"),
    Mutant("trailing-bytes-accepted", "src/aerotext/training.py",
           "if at != len(buf):", "if False:",
           "a checkpoint with bytes after its last tensor loads"),
    Mutant("read-tensor-zero-copy", "src/aerotext/training.py",
           "values.astype(np.float64).reshape(shape)", "values.reshape(shape)",
           "loaded tensors left as views of the file's bytes, at offsets that are not "
           "multiples of 8, with which scoring moves in its last bits"),
    Mutant("adam-read-row-taken-as-new", "src/aerotext/training.py",
           "new = rows[self.slot[rows] < 0]", "new = rows[self.slot[rows] < 1]",
           "the table row read first gets a fresh moment slot each step, losing its momentum"),
    Mutant("adam-gradient-in-batch-order", "src/aerotext/training.py",
           "g[self.slot[rows]] = values", "g[:len(rows)] = values",
           "the table gradient written in the batch's row order, not the moments' read order"),
    Mutant("sgd-last-table-row-skipped", "src/aerotext/training.py",
           "self.table[rows] -= self.lr * values",
           "self.table[rows[:-1]] -= self.lr * values[:-1]",
           "SGD steps every read table row but the last"),
    Mutant("history-columns-out-of-order", "src/aerotext/training.py",
           "\"val_loss\", \"val_acc\")", "\"val_acc\", \"val_loss\")",
           "history.csv's header names the validation columns in the other order than "
           "its rows hold them"),
    Mutant("split-train-rounded", "src/aerotext/corpus.py",
           "n_train = (n * 8) // 10", "n_train = (n * 8 + 5) // 10",
           "the train part rounded, not floored"),
    Mutant("split-validation-ceiling", "src/aerotext/corpus.py",
           "n_val = n // 10", "n_val = (n + 9) // 10",
           "the validation part rounded up, not floored"),
    Mutant("csv-not-strict", "src/aerotext/corpus.py",
           "MalformedCsv), strict=True)", "MalformedCsv), strict=False)",
           "a quote left open is read to the end of the file as one field"),
    Mutant("mapping-lines-by-splitlines", "src/aerotext/corpus.py",
           "enumerate(read_utf8_lines(path, InvalidMapping), start=1)",
           "enumerate(\"\".join(read_utf8_lines(path, InvalidMapping)).splitlines(), start=1)",
           "the mapping's text split by str.splitlines, which also ends a line at U+2028, "
           "U+0085 and others"),
    Mutant("csv-blank-line-kept", "src/aerotext/corpus.py",
           "            if row:\n                yield",
           "            if True:\n                yield",
           "a blank line yields an empty row"),
    Mutant("split-row-extra-fields", "src/aerotext/cli.py",
           "if len(row) != 2:", "if len(row) < 2:",
           "a split row with more than two fields is read as its first two"),
    Mutant("split-header-unchecked", "src/aerotext/cli.py",
           "if header != SPLIT_HEADER:", "if False:",
           "a split CSV without its header loses its first record"),
    Mutant("seed-variable-read-by-parser", "src/aerotext/cli.py",
           "p.add_argument(\"--seed\", type=int, help=",
           "p.add_argument(\"--seed\", type=int, default=_env_seed(), help=",
           "AEROTEXT_SEED read when the parser is built, so a bad value fails every command"),
    Mutant("precision-zero-rule", "src/aerotext/metrics.py",
           "precision = tp / col if col > 0 else 0.0", "precision = tp / col if col > 0 else 1.0",
           "a class never predicted gets precision 1"),
    Mutant("recall-zero-rule", "src/aerotext/metrics.py",
           "recall = tp / row if row > 0 else 0.0", "recall = tp / row if row > 0 else 1.0",
           "a class never actual gets recall 1"),
    Mutant("f1-zero-rule", "src/aerotext/metrics.py",
           "if precision + recall > 0 else 0.0", "if precision + recall > 0 else 1.0",
           "a class with zero precision and recall gets F1 1"),
    Mutant("f1-epsilon", "src/aerotext/metrics.py",
           "f1 = 2 * precision * recall / (precision + recall) if",
           "f1 = 2 * precision * recall / (precision + recall + 1e-12) if",
           "an epsilon in F1's denominator"),
    Mutant("forget-bias-on-input-gate", "src/aerotext/models.py",
           'name == f"{self.name}_f"', 'name == f"{self.name}_i"',
           "the LSTM's +1 initial bias set on the input gate's part, not the forget gate's"),
    Mutant("fuse-copies-every-tensor", "src/aerotext/models.py",
           "        if spec.name in tensors:\n", "        if False:\n",
           "a loaded checkpoint's embedding table held twice, once by the Predictor"),
    Mutant("lstm-backward-drops-forget-gate", "src/aerotext/models.py",
           "\n                dc[:n] *= f", "",
           "the LSTM backward passes the cell gradient on without the forget gate"),
    Mutant("step-product-plain-gemm", "src/aerotext/models.py",
           "np.matmul(h_blocks[:blocks], w_h, out=product_blocks[:blocks])",
           "np.matmul(h[:n], w_h, out=product[:n])",
           "a step's running rows multiplied as one plain gemm, whose rows change in their "
           "last bits with the row count, so a record's scores depend on its batch"),
    Mutant("projection-plain-gemm", "src/aerotext/models.py",
           "[(blocks @ w).reshape(len(embedded), w.shape[1])[:len(rows)] for w in weights]",
           "[embedded[:len(rows)] @ w for w in weights]",
           "the input projection taken as one plain gemm over the distinct ids, whose rows "
           "change in their last bits with the id count, so a record's scores depend on its "
           "batch"),
    Mutant("head-one-gemm-in-training", "src/aerotext/models.py",
           "    logits, head_back = head_logits(features, params, masks)\n",
           "    logits, head_back = head_logits(features, params, masks)\n"
           "    hidden = np.maximum(features @ params[\"head.w1\"].T + params[\"head.b1\"], 0.0)\n"
           "    logits = (hidden if masks is None else hidden * masks) @ params[\"head.w2\"].T "
           "+ params[\"head.b2\"]\n",
           "training's head products taken as one gemm over the batch, whose rows change in "
           "their last bits with the row count, so training's forward is not the scorer's"),
    Mutant("gates-not-halved", "src/aerotext/models.py",
           "    sigmoid *= 0.5\n    np.tanh(a, out=a)\n", "    np.tanh(a, out=a)\n",
           "the sigmoid gates taken as 1/2 + tanh(z)/2, without halving z"),
    Mutant("cell-state-saved-after-forget", "src/aerotext/models.py",
           "            if train:\n                c_in[s:e] = c[:n]\n            c[:n] *= f\n",
           "            c[:n] *= f\n            if train:\n                c_in[s:e] = c[:n]\n",
           "the backward reads the cell state after the in-place forget product"),
    Mutant("sigmoid-derivative-drops-one-minus", "src/aerotext/models.py",
           "np.subtract(1.0, act[:, :3 * hidden], out=dz[:, :3 * hidden])",
           "dz[:, :3 * hidden] = 1.0",
           "the f, i, o block's s(1 - s) loses its (1 - s) factor"),
    Mutant("srnn-state-before-tanh", "src/aerotext/models.py",
           "h[:n] = np.tanh(a, out=a)", "h[:n] = a\n            np.tanh(a, out=a)",
           "the sRNN's next state copied from the activations before their tanh"),
    Mutant("packing-offsets-inclusive", "src/aerotext/models.py",
           "np.searchsorted(steps, np.arange(t_max + 1))",
           "np.searchsorted(steps, np.arange(t_max + 1), side=\"right\")",
           "each step's packed rows start one step late"),
    Mutant("blstm-reversed-within-longest", "src/aerotext/models.py",
           "starts[lengths[rows] - 1 - steps] + rows", "starts[lengths[0] - 1 - steps] + rows",
           "the reversed pass reverses every row within the batch's longest length, "
           "not its own"),
    Mutant("blstm-gradient-not-unreversed", "src/aerotext/models.py",
           "d_rows[-1][order] = dz", "d_rows[-1][...] = dz",
           "the reversed pass's gradient rows taken back in reversed order"),
    Mutant("kernel-too-large-off-by-one", "src/aerotext/models.py",
           "if k > lengths.min(initial=k):", "if k > lengths.min(initial=k) + 1:",
           "a kernel one longer than a record is not refused as KernelTooLarge"),
    Mutant("conv-no-padding-window", "src/aerotext/models.py",
           "np.minimum(ends + kernel, ids.shape[1])", "np.minimum(ends + kernel - 1, ids.shape[1])",
           "the convolution drops the window that reads only padding, which the full "
           "padded sequence pools"),
    Mutant("conv-offset-one-behind", "src/aerotext/models.py",
           "inverse[starts + j] * k + j,", "inverse[starts + j] * k + j - 1,",
           "a window reads the id at its start + j through filter offset j - 1"),
    Mutant("pool-gradient-to-last-maximum", "src/aerotext/models.py",
           "np.minimum.reduceat(np.where(top, window, len(act)), firsts, axis=0)",
           "np.maximum.reduceat(np.where(top, window, -1), firsts, axis=0)",
           "a pooled value's gradient goes to the last window at its maximum, not the first"),
    Mutant("true-length-uncapped", "src/aerotext/models.py",
           "min(s.true_length, len(s.ids))", "s.true_length",
           "a true length past the padded length is not capped"),
    Mutant("score-chunk-7", "src/aerotext/models.py",
           "SCORE_CHUNK = 64", "SCORE_CHUNK = 7",
           "records scored 7 at a time",
           equivalent="every scored row is its record's batch-of-one row whatever the chunk; "
                      "the chunk size only bounds the memory of one chunk"),
    Mutant("cleanse-no-regex-fallback", "src/aerotext/textprep.py",
           "if text.isascii():", "if True:",
           "non-ASCII text cleansed by the ASCII table alone, so its punctuation stays"),
    Mutant("cleanse-regex-always", "src/aerotext/textprep.py",
           "if text.isascii():", "if False:",
           "ASCII text cleansed by the regex, not the table",
           equivalent="the regex is the rule itself; the table only computes it faster"),
    Mutant("cleanse-underscore-kept", "src/aerotext/textprep.py",
           "c if c.isalnum() else", "c if c.isalnum() or c == \"_\" else",
           "an underscore left inside an ASCII token"),
    Mutant("vocabulary-ties-reversed", "src/aerotext/textprep.py",
           "sorted(counts.items(), key=lambda kv: -kv[1])",
           "sorted(reversed(counts.items()), key=lambda kv: -kv[1])",
           "a frequency tie goes to the token seen last"),
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
