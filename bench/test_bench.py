"""Fast self-tests of the benchmark's generator, reference forward and tracer."""

import types

import numpy as np
import pytest

import gen
import reference
from spans import Tracer

from aerotext import models
from aerotext.corpus import clean_records, ingest_records
from aerotext.metrics import Predictor
from aerotext.models import ModelConfig
from aerotext.textprep import Vocabulary
from aerotext.training import ModelCheckpoint, save_checkpoint


def test_generator_is_deterministic_and_knows_its_drop_counts(tmp_path):
    first, again, other = gen.generate(5), gen.generate(5), gen.generate(6)
    assert (first.csv_text, first.mapping_text) == (again.csv_text, again.mapping_text)
    assert first.csv_text != other.csv_text
    csv_path, _ = gen.write(first, tmp_path)
    cleaned = clean_records(ingest_records(csv_path))
    assert cleaned.dropped == first.counts["dropped"]
    assert [r.summary for r in cleaned.kept] == first.summaries
    assert sum(first.class_counts.values()) == len(cleaned.kept) == gen.UNIQUE_ROWS


@pytest.mark.parametrize("arch", ["lstm", "blstm", "cnn"])
def test_reference_forward_matches_the_package(arch, tmp_path):
    rng = np.random.default_rng(11)
    config = ModelConfig(arch=arch, vocab_size=20, embedding_dim=8, hidden_units=8,
                         head_units=8, max_len=10, conv_filters=6, conv_kernel=3)
    tensors = {name: rng.uniform(-1.0, 1.0, shape)
               for name, shape in models.expected_parameter_shapes(config).items()}
    words = [f"w{i}" for i in range(20)]
    vocab = Vocabulary({w: i + 2 for i, w in enumerate(words)}, 20)
    ckpt = ModelCheckpoint(config, vocab, frozenset({"the"}), "head", tensors, epoch=1)
    save_checkpoint(ckpt, tmp_path / "c.atxc")
    ref = reference.read_checkpoint(tmp_path / "c.atxc")
    predictor = Predictor(ckpt)
    texts = ["W3, the w7 w1!", "", "unknown w2 words", " ".join(words), "the the"]
    for text in texts:
        want = predictor.probs(text)
        got = reference.probs(ref, text)
        assert np.all(np.abs(got - want) <= reference.TOLERANCE), (text, got, want)


def test_tracer_self_times_add_up_and_absent_layers_are_reported():
    layers = types.ModuleType("layers")
    layers.inner = lambda: sum(range(1000))
    layers.outer = lambda: layers.inner() + layers.inner()
    original = layers.outer

    tracer = Tracer()
    tracer.wrap(layers, "inner", "inner")
    tracer.wrap(layers, "outer", "outer")
    tracer.wrap(layers, "missing", "missing")
    with tracer.span("root"):
        layers.outer()
    tracer.restore()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.absent == ["layers.missing"]
    assert layers.outer is original
    root_wall = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(tracer.self_times().values()) == pytest.approx(root_wall, abs=1e-9)
    assert tracer.total_time("inner") <= root_wall
