#!/usr/bin/env python3
"""Paper-scale benchmark: prepare -> train -> evaluate -> predict.

    python3 bench/run.py --workload train-blstm --seed 1 --seconds 25 --trace 0

Generates a Socrata-shaped CSV from --seed (bench/gen.py), drives the
package through its public entry points (`cli.main` for prepare,
`training.train`, `metrics.evaluate_model` with `export_reports`, and
`metrics.Predictor`), and times those calls from outside. Every output is
checked against the generator's known counts, a brute-force recount and
the independent numpy forward in bench/reference.py; training must follow
the reference gradient on its first step and lower the loss.

After one untimed warm-up of every stage, the run repeats whole rounds of
prepare, train, evaluate and a batch of single predictions until --seconds
are used, and reports each stage's work over its summed time and latency
percentiles over all timed predictions. Interleaving the stages spreads
each one over the whole run, so the fast and slow spells of a shared
machine weigh on every metric alike instead of on one stage.

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, or with --trace 1 the per-layer metrics of one traced round run
after untraced ones. A run whose checks fail reports "correct": false and
exits 1; a run that cannot start exits 2 without a result.
"""

from __future__ import annotations

import os

# One BLAS thread for every numpy in this process and its children: the
# program's matrices are small, and a second thread only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_REPS = 5          # each set-up step is repeated and its median reported
MIN_ROUNDS = 3          # timed rounds per run, at least
MIN_PREDICTIONS = 200   # per run, so that ten or more lie beyond p95
MAX_TRAIN_OVERHEAD = 1.0  # share of the untraced training stage that tracing may add; the
                          # machine alone moved a traced round by up to a fifth either way


@dataclass(frozen=True)
class Workload:
    arch: str
    n_train: int          # one epoch on this subsample; validation and test get n_train // 8
    batch: int            # n_train // batch Adam steps per epoch
    eval_records: int     # held-out records per evaluate call; val_loss is taken over them
    predictions: int      # single predictions per round, each on its own raw text


WORKLOADS = {
    "train-blstm": Workload("blstm", n_train=32, batch=4, eval_records=64, predictions=70),
    "train-cnn": Workload("cnn", n_train=128, batch=8, eval_records=512, predictions=400),
    "infer-lstm": Workload("lstm", n_train=32, batch=4, eval_records=128, predictions=150),
}
# Eight or sixteen Adam steps a round at the default rate lower the loss on
# every seed tried; batch 32 would make one step that barely moves it, and
# rate 3e-3 at batch 8 raised it on some seeds.
LEARNING_RATE = 1e-3
LEARN_MARGIN = 0.01     # nats the trained train-subsample loss must fall below its initial loss
GRAD_SAMPLES = 2        # records in the one-batch trainings that recover the first gradient
SGD_RATES = (0.5, 1.0)  # two one-step SGD runs: after = init - lr * g gives g and init
FD_STEP = 1e-5          # central-difference step on the reference loss

# (module, attribute, layer, timed as a span). "Class.method" patches the
# method on the class. Each function is patched in the module that looks it
# up at call time, so a name bound by `from x import f` is patched there.
LAYERS = [
    ("cli", "ingest_records", "corpus.ingest", True),
    ("cli", "clean_records", "corpus.clean", True),
    ("cli", "annotate_records", "corpus.annotate", True),
    ("cli", "split_dataset", "corpus.split", True),
    ("cli", "cleanse_text", "textprep.cleanse", True),
    ("metrics", "cleanse_text", "textprep.cleanse", True),
    ("cli", "fit_vocabulary", "textprep.fit_vocabulary", True),
    ("training", "encode_sequence", "textprep.encode", True),
    ("metrics", "encode_sequence", "textprep.encode", True),
    ("models", "embedding_lookup", "models.embedding", True),
    ("models", "recurrent_forward", "models.encoder_forward", True),
    ("models", "blstm_forward", "models.encoder_forward", True),
    ("models", "cnn_forward", "models.encoder_forward", True),
    ("models", "head_logits", "models.head", True),
    ("models", "forward_probs", "models.forward_probs", False),
    ("training", "train", "training.train_loop", True),
    ("training", "_dataset_metrics", "training.scoring", True),
    ("autodiff", "softmax_cross_entropy", "autodiff.loss", True),
    ("autodiff", "backward", "autodiff.backward", True),
    ("training", "Adam.step", "training.optimizer_step", True),
    ("training", "Sgd.step", "training.optimizer_step", True),
    ("training", "save_checkpoint", "training.checkpoint_save", True),
    ("training", "load_checkpoint", "training.checkpoint_load", True),
    ("metrics", "Predictor.predict", "metrics.predict", True),
    ("metrics", "classification_report", "metrics.report", True),
    ("metrics", "export_reports", "metrics.export", True),
]
SELF_TIME_LAYERS = ["corpus.ingest", "corpus.clean", "corpus.annotate", "corpus.split",
                    "textprep.cleanse", "textprep.fit_vocabulary", "textprep.encode",
                    "models.embedding", "models.encoder_forward", "models.head",
                    "training.train_loop", "autodiff.loss", "autodiff.backward",
                    "training.optimizer_step", "training.checkpoint_save",
                    "training.checkpoint_load", "metrics.predict", "metrics.report",
                    "metrics.export"]


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= reference.TOLERANCE * max(1.0, abs(b))


def timed(op):
    start = perf_counter()
    result = op()
    return result, perf_counter() - start


def median_of(op, reps: int = SETUP_REPS):
    """(last result, median seconds) over reps calls of op."""
    runs = [timed(op) for _ in range(reps)]
    return runs[-1][0], statistics.median(t for _, t in runs)


def by_length(texts: list[str], n: int) -> list[int]:
    """Indices of n texts at evenly spaced ranks of word count, in input
    order: a small selection keeps the corpus's length mix on every seed,
    and recurrent cost follows length."""
    order = sorted(range(len(texts)), key=lambda i: (len(texts[i].split()), i))
    return sorted(order[(2 * k + 1) * len(order) // (2 * n)] for k in range(n))


def stratified(records: list, n: int) -> list:
    """n records with the class shares of `records` (largest remainder),
    spread by length within each class: on every seed a selection keeps the
    class mix, on which the loss depends most, and the length mix."""
    by_class: dict[int, list] = {}
    for r in records:
        by_class.setdefault(int(r.label), []).append(r)
    quota = {c: n * len(rs) // len(records) for c, rs in by_class.items()}
    short = n - sum(quota.values())
    for c in sorted(by_class, key=lambda c: (-(n * len(by_class[c]) % len(records)), c))[:short]:
        quota[c] += 1
    return [rs[i] for c, rs in sorted(by_class.items())
            for i in by_length([r.summary for r in rs], quota[c])]


def mean_loss(ckpt: reference.Checkpoint, records: list) -> float:
    return sum(reference.cross_entropy(reference.probs(ckpt, r.summary), int(r.label))
               for r in records) / len(records)


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * percentile // 100)) - 1]


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_import() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import aerotext.cli, aerotext.metrics"
    return median_of(lambda: subprocess.run([sys.executable, "-c", code], check=True,
                                            cwd=ROOT, timeout=120))[1]


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, traced: bool):
        from aerotext import autodiff, cli, metrics, models, training
        self.pkg = {"cli": cli, "metrics": metrics, "models": models,
                    "training": training, "autodiff": autodiff}
        self.w = WORKLOADS[name]
        self.name, self.seed, self.seconds, self.traced = name, seed, seconds, traced
        self.dir = WORK / f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.corpus = gen.generate(seed)
        self.csv_path, self.mapping_path = gen.write(self.corpus, self.dir)
        self.attempted = 0
        self.setup_s = 0.0
        self.tracer = None

    # --- stages: each returns (op, verify); op is warmed up and checked -------

    def prepare_stage(self):
        cli = self.pkg["cli"]
        self.prep_dir = self.dir / "prepared"
        argv = ["prepare", "--input", str(self.csv_path), "--mapping", str(self.mapping_path),
                "--seed", str(self.seed), "--out", str(self.prep_dir)]

        def op():
            return cli.main(argv)

        def verify(code):
            check(code == 0, f"prepare exited {code}")
            check(digest(self.prep_dir) == first, "prepare reruns are not byte-identical")

        check(op() == 0, "prepare failed")
        first = digest(self.prep_dir)
        manifest = json.loads((self.prep_dir / "manifest.json").read_text(encoding="utf-8"))
        check(manifest["counts"] == self.corpus.counts,
              f"prepare counts {manifest['counts']} != generated {self.corpus.counts}")
        n = self.corpus.counts["labeled"]
        sizes = manifest["counts"]["split_sizes"]
        check((sizes["train"], sizes["validation"]) == (n * 8 // 10, n // 10),
              f"split sizes {sizes} break the floor rule for {n} records")
        return op, verify

    def load_prepared(self):
        from aerotext.corpus import LabeledRecord, OperatorClass
        from aerotext.textprep import Vocabulary, load_stopwords

        def read(name):
            with open(self.prep_dir / f"{name}.csv", encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            return [LabeledRecord(OperatorClass.from_name(label), text) for label, text in rows]

        config = json.loads((self.prep_dir / "manifest.json").read_text(encoding="utf-8"))["config"]
        parts = {name: read(name) for name in ("train", "validation", "test")}
        return (config, parts, Vocabulary.load(self.prep_dir / "vocab.tsv"),
                load_stopwords(self.prep_dir / "stopwords.txt"))

    def train_stage(self, config, parts, vocab, stopwords):
        from aerotext import ModelConfig, TrainConfig
        from aerotext.corpus import SplitDataset
        training = self.pkg["training"]
        w = self.w
        self.split = SplitDataset(stratified(parts["train"], w.n_train),
                                  stratified(parts["validation"], w.n_train // 8),
                                  stratified(parts["test"], w.n_train // 8), self.seed)
        model_config = ModelConfig(arch=w.arch, vocab_size=vocab.size, max_len=config["max_len"])

        def run(split, **options):
            return training.train(model_config, TrainConfig(seed=self.seed, epochs=1, **options),
                                  split, vocab, stopwords=stopwords, truncate=config["truncate"])

        def op():
            return run(self.split, batch_size=w.batch, learning_rate=LEARNING_RATE)

        self.train_on = run

        self.ckpt, self.history = op()
        return op, lambda out: check(out[1] == self.history,
                                     "training reruns gave different histories")

    def setup_model(self):
        training, metrics = self.pkg["training"], self.pkg["metrics"]
        self.ckpt_path = self.dir / "checkpoint.atxc"

        def save():
            training.save_checkpoint(self.ckpt, self.ckpt_path)

        def load():
            loaded = training.load_checkpoint(self.ckpt_path)
            return loaded, metrics.Predictor(loaded)

        self.setup_s += median_of(save)[1]
        (self.loaded, self.predictor), load_s = median_of(load)
        self.setup_s += load_s
        self.attempted += 2 * SETUP_REPS
        if self.traced:
            self.traced_call("setup", lambda: (save(), load()))
        for name, array in self.ckpt.tensors.items():
            check(bool((self.loaded.tensors[name] == array).all()), f"{name} changed on save/load")
        self.ref = reference.read_checkpoint(self.ckpt_path)

    def check_training(self) -> None:
        ref = self.ref
        for name, array in ref.tensors.items():
            check(bool(np.isfinite(array).all()), f"checkpoint tensor {name} is not finite")
        epoch = self.history[ref.meta["epoch"] - 1]
        for records, logged, part in ((self.split.validation, epoch.validation_loss, "validation"),
                                      (self.split.train, epoch.train_loss, "train")):
            loss = mean_loss(ref, records)
            check(close(loss, logged), f"{part} loss {logged!r} != reference {loss!r}")
        init = reference.Checkpoint(ref.meta, ref.vocab, self.check_first_step())
        before = mean_loss(init, self.split.train)
        check(epoch.train_loss <= before - LEARN_MARGIN,
              f"training moved the train loss from {before:.4f} only to {epoch.train_loss:.4f}")
        print(f"train loss {before:.4f} -> {epoch.train_loss:.4f}", file=sys.stderr)

    def check_first_step(self) -> dict[str, np.ndarray]:
        """Check the first step of training from outside, and return the
        initial tensors.

        Two one-step SGD trainings on one small batch give after = init - lr * g
        for two rates, hence the batch gradient g and the initial tensors. g
        must match central differences of the reference loss, on each tensor's
        largest coordinate and a random one it touches, and a one-step Adam
        training must move each tensor by lr * g / (|g| + eps)."""
        batch = [self.split.train[i] for i in by_length([r.summary for r in self.split.train],
                                                         GRAD_SAMPLES)]
        split = type(self.split)(batch, self.split.validation[:1], self.split.test[:1], self.seed)
        lo, hi = SGD_RATES
        a, b = (self.train_on(split, batch_size=GRAD_SAMPLES, optimizer="sgd",
                              learning_rate=lr)[0].tensors for lr in SGD_RATES)
        grad = {name: (a[name] - b[name]) / (hi - lo) for name in a}
        init = {name: a[name] + lo * grad[name] for name in a}
        adam = self.train_on(split, batch_size=GRAD_SAMPLES, learning_rate=LEARNING_RATE)[0]
        for name, g in grad.items():
            step = LEARNING_RATE * g / (np.abs(g) + 1e-8)  # Adam's default eps
            check(bool(np.all(np.abs(init[name] - step - adam.tensors[name]) <= 1e-7 * LEARNING_RATE)),
                  f"first Adam step on {name} is not lr * g / (|g| + eps)")

        ref = self.ref
        used = sorted({i for r in batch for i in self.used_ids(r.summary)})
        rng = np.random.default_rng(self.seed)
        tensors = dict(init)

        def loss() -> float:
            return mean_loss(reference.Checkpoint(ref.meta, ref.vocab, tensors), batch)

        base = loss()
        for name, g in grad.items():
            check(bool(np.any(g)), f"the first batch gives {name} no gradient")
            if name == "embedding.table":
                pick = (used[rng.integers(len(used))], rng.integers(g.shape[1]))
            else:
                pick = tuple(int(rng.integers(n)) for n in g.shape)
            for index in (np.unravel_index(np.argmax(np.abs(g)), g.shape), pick):
                tensors[name] = init[name].copy()
                tensors[name][index] += FD_STEP
                up = (loss() - base) / FD_STEP
                tensors[name][index] -= 2 * FD_STEP
                down = (base - loss()) / FD_STEP
                tensors[name] = init[name]
                # A ReLU or max-pool kink inside the step: g is a one-sided slope.
                tol = 1e-7 + 1e-5 * max(abs(up), abs(down))
                check(abs(g[index] - (up + down) / 2) <= tol
                      or min(up, down) - tol <= g[index] <= max(up, down) + tol,
                      f"gradient of {name}{tuple(map(int, index))} is {float(g[index])!r}, "
                      f"central difference {(up + down) / 2!r}")
        return init

    def used_ids(self, text: str) -> list[int]:
        """Embedding rows the model reads for this text."""
        ids, length = reference.encode(text, self.ref)
        return ids if self.ref.meta["arch"] == "cnn" else ids[:length]

    def evaluate_stage(self, held_out):
        metrics = self.pkg["metrics"]
        records = stratified(held_out, self.w.eval_records)
        out_dir = self.dir / "evaluation"

        def op():
            counts, report = metrics.evaluate_model(self.loaded, records)
            metrics.export_reports(report, counts, self.history, out_dir, model_name=self.w.arch)
            return counts, report

        counts, report = op()
        recount = [[0, 0, 0] for _ in range(3)]
        losses = []
        for r in records:
            probs = reference.probs(self.ref, r.summary)
            recount[int(r.label)][int(np.argmax(probs))] += 1
            losses.append(reference.cross_entropy(probs, int(r.label)))
        self.val_loss = sum(losses) / len(losses)
        check(counts.tolist() == recount,
              f"confusion matrix {counts.tolist()} != reference recount {recount}")
        accuracy = sum(recount[c][c] for c in range(3)) / len(records)
        check(report.accuracy == accuracy, f"accuracy {report.accuracy} != recount {accuracy}")
        check(report.weighted_recall == report.accuracy, "weighted recall != accuracy")
        saved = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        check(saved["confusion_matrix"] == recount and saved["accuracy"] == accuracy,
              "report.json disagrees with the recount")
        self.eval_records = len(records)
        return op, lambda out: check(out[0].tolist() == recount,
                                     "evaluate reruns gave different confusion matrices")

    def predict_stage(self):
        """One op is a closed-loop stream of single raw-text predictions, one
        per selected text; it returns their latencies and outputs."""
        summaries = self.corpus.summaries
        texts = [summaries[i] for i in by_length(summaries, self.w.predictions)]
        predictor = self.predictor

        def op():
            latencies, outputs = [], []
            for text in texts:
                start = perf_counter()
                outputs.append(predictor.predict(text))
                latencies.append(perf_counter() - start)
            return latencies, outputs

        expected = [reference.probs(self.ref, text) for text in texts]

        def verify(out):
            for (label, probs), want in zip(out[1], expected):
                check(abs(float(np.sum(probs)) - 1.0) <= reference.TOLERANCE,
                      "probabilities do not sum to 1")
                check(int(label) == int(np.argmax(probs)), "predicted class is not the argmax")
                check(bool(np.all(np.abs(probs - want) <= reference.TOLERANCE)),
                      f"probabilities {probs} != reference {want}")
                check(int(label) == int(np.argmax(want)), "predicted class != reference argmax")

        verify(op())
        return op, verify

    # --- rounds -----------------------------------------------------------------

    def round(self, stages: dict) -> dict:
        seconds = {}
        for name, (op, verify) in stages.items():
            out, seconds[name] = timed(op)
            verify(out)
            if name == "predict":
                self.latencies_ms.extend(t * 1000.0 for t in out[0])
        self.attempted += len(stages) - 1 + self.w.predictions
        return seconds

    def rounds(self, stages: dict, budget_s: float) -> dict[str, list[float]]:
        """Whole rounds while another one fits in budget_s, and at least
        MIN_ROUNDS rounds and MIN_PREDICTIONS predictions."""
        self.latencies_ms: list[float] = []
        start = perf_counter()
        times: list[dict] = []
        while (len(times) < MIN_ROUNDS or len(self.latencies_ms) < MIN_PREDICTIONS
               or perf_counter() - start + sum(times[-1].values()) <= budget_s):
            times.append(self.round(stages))
        return {name: [t[name] for t in times] for name in stages}

    def traced_call(self, name: str, op):
        if self.tracer is None:
            self.tracer = Tracer()
        tracer = self.tracer
        for module, attr, layer, span in LAYERS:
            owner = self.pkg[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls, None)
                if owner is None:
                    tracer.absent.append(f"{module}.{cls}")
                    continue
            tracer.wrap(owner, attr, layer, span)
        # backward() sorts the tape with _topo_order; count the nodes of that
        # same order, inside the backward span, at the cost of one len().
        def count_nodes(topo_order):
            def counted(*args, **kwargs):
                order = topo_order(*args, **kwargs)
                tracer.calls["autodiff.tape_nodes"] += len(order)
                return order
            return counted
        if not tracer.patch(self.pkg["autodiff"], "_topo_order", count_nodes):
            tracer.absent.append("autodiff._topo_order")
        try:
            with tracer.span(f"stage.{name}"):
                return timed(op)
        finally:
            tracer.restore()

    # --- the run ------------------------------------------------------------------

    def run(self) -> dict:
        stages = {"prepare": self.prepare_stage()}
        (config, parts, vocab, stopwords), load_s = median_of(self.load_prepared)
        self.setup_s += load_s
        self.attempted += 1 + SETUP_REPS
        labeled = [r for name in ("train", "validation", "test") for r in parts[name]]
        found = {cls: sum(r.label.label == cls for r in labeled) for cls in self.corpus.class_counts}
        check(found == self.corpus.class_counts,
              f"class counts {found} != generated {self.corpus.class_counts}")
        stages["train"] = self.train_stage(config, parts, vocab, stopwords)
        self.setup_model()
        self.check_training()
        stages["evaluate"] = self.evaluate_stage(parts["validation"] + parts["test"])
        stages["predict"] = self.predict_stage()
        self.attempted += 5 + self.w.predictions

        times = self.rounds(stages, 0.0 if self.traced else self.seconds)
        if self.traced:
            return self.layer_metrics(stages, times)

        def rate(work: int, seconds: list[float]) -> float:
            return work * len(seconds) / sum(seconds)

        return {
            "setup_s": (self.setup_s, "s"),
            "prepare_rows_per_s": (rate(self.corpus.counts["ingested"], times["prepare"]), "rows/s"),
            "train_samples_per_s": (rate(self.w.n_train, times["train"]), "samples/s"),
            "val_loss": (self.val_loss, "nats"),
            "evaluate_records_per_s": (rate(self.eval_records, times["evaluate"]), "records/s"),
            "predict_p50_ms": (nearest_rank(self.latencies_ms, 50), "ms"),
            "predict_p95_ms": (nearest_rank(self.latencies_ms, 95), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    def layer_metrics(self, stages: dict, times: dict) -> dict:
        """Trace one more round, stage by stage, and compare it with the
        medians of the untraced rounds before it."""
        overhead = {}
        for name, (op, verify) in stages.items():
            out, traced_s = self.traced_call(name, op)
            verify(out)
            overhead[name] = traced_s - statistics.median(times[name])
        self.attempted += len(stages) - 1 + self.w.predictions
        tracer = self.tracer
        self_s = tracer.self_times()
        out = {f"{layer}_s": (self_s.get(layer, 0.0), "s") for layer in SELF_TIME_LAYERS}
        out["training.scoring_s"] = (tracer.total_time("training.scoring"), "s")
        out["textprep.cleanse_calls"] = (tracer.calls["textprep.cleanse"], "count")
        out["models.forward_probs_calls"] = (tracer.calls["models.forward_probs"], "count")
        out["autodiff.tape_nodes_per_sample"] = (
            tracer.calls["autodiff.tape_nodes"] / self.w.n_train, "nodes/sample")
        out["trace.overhead_s"] = (sum(overhead.values()), "s")
        out["trace.train_overhead_s"] = (overhead["train"], "s")
        roots = {span[0] for span in tracer.spans if span[0].startswith("stage.")}
        out["trace.unattributed_s"] = (sum(self_s[name] for name in roots), "s")
        out["trace.absent_layers"] = (len(set(tracer.absent)), "count")
        # The layer self times of the traced training stage sum to its wall
        # time, the untraced time plus the overhead; a tracer that more than
        # doubled the stage would leave them standing for another program.
        untraced = statistics.median(times["train"])
        check(overhead["train"] <= MAX_TRAIN_OVERHEAD * untraced,
              f"tracing changed the training stage by {overhead['train']:.3f} s "
              f"of {untraced:.3f} s untraced")
        if tracer.absent:
            print(f"absent layers: {', '.join(sorted(set(tracer.absent)))}", file=sys.stderr)
        return out

    def save(self, result: dict) -> None:
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{self.name}-seed{self.seed}-trace{int(self.traced)}"
        (results / f"{stem}.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
        if self.tracer is not None:
            spans = {"absent": sorted(set(self.tracer.absent)), "calls": dict(self.tracer.calls),
                     "spans": self.tracer.spans}
            (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
        shutil.rmtree(self.dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aerotext" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    import_s = measure_import()
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.setup_s += import_s
    correct = True
    try:
        values = bench.run()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, values = False, {}
    result = {"correct": correct, "attempted": bench.attempted, "failed": 0,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in values.items()}}
    bench.save(result)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
