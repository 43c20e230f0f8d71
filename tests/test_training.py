import io
import math
import struct

import numpy as np
import pytest

from aerotext import models, training
from aerotext.corpus import LabeledRecord, OperatorClass, SplitDataset
from aerotext.errors import (
    CorruptCheckpoint,
    EmptySplit,
    InvalidConfig,
    NonfiniteGradient,
    NonfiniteLoss,
    ShapeMismatch,
    VersionUnsupported,
)
from aerotext.models import ModelConfig
from aerotext.textprep import TokenSequence, encode_sequence, fit_vocabulary
from aerotext.training import (
    Adam,
    EpochRecord,
    ModelCheckpoint,
    Sgd,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

from conftest import (
    METADATA_FAULTS,
    dense_loss_and_grads,
    edit_checkpoint_metadata,
    gradient_check,
    history_from_csv,
    initial_params,
    random_params,
    synthetic_corpus,
)


class TestCrossEntropy:
    def test_uniform_is_ln3(self):
        assert models.cross_entropy(np.array([[1 / 3, 1 / 3, 1 / 3]]), [1]) == pytest.approx(
            1.0986122886681098, abs=1e-15)

    def test_confident_correct_is_zero(self):
        assert models.cross_entropy(np.array([[0.0, 1.0, 0.0]]), [1]) == 0.0

    def test_zero_probability_clamps(self):
        assert models.cross_entropy(np.array([[1.0, 0.0, 0.0]]), [2]) == pytest.approx(
            27.631021115928547, abs=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [("batch_size", 2.5), ("epochs", 2.0),
                                              ("seed", 1.5)])
    def test_non_integer_count_is_refused(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            TrainConfig(**{field: value})


# a table no batch reads, for optimizer tests of the flat vector alone
NO_TABLE = np.zeros((0, 1))
NO_ROWS = (np.zeros(0, dtype=np.int64), np.zeros((0, 1)))


class TestOptimizers:
    def test_sgd_definition(self):
        p = np.array([1.0])
        Sgd(NO_TABLE, p, lr=0.1).step(NO_ROWS, np.array([0.5]))
        assert float(p[0]) == pytest.approx(0.95, abs=1e-15)

    def test_adam_first_step_magnitude_is_lr(self):
        for g in (0.3, -2.0, 1e4):
            p = np.array([0.0])
            Adam(NO_TABLE, p, lr=1e-3).step(NO_ROWS, np.array([g]))
            # bias-corrected m/sqrt(v) = sign(g); eps keeps it slightly under
            assert float(p[0]) == pytest.approx(-1e-3 * np.sign(g), rel=1e-4)

    def test_zero_gradient_changes_nothing(self):
        for opt_cls in (Sgd, Adam):
            table, p = np.array([[0.5], [3.0]]), np.array([1.0, -2.0])
            opt_cls(table, p, 0.1).step((np.array([1]), np.zeros((1, 1))), np.zeros(2))
            np.testing.assert_array_equal(p, [1.0, -2.0])
            np.testing.assert_array_equal(table, [[0.5], [3.0]])

    def test_sgd_monotone_on_convex_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])
        w = np.zeros(3)
        opt = Sgd(NO_TABLE, w, lr=0.1)
        losses = []
        for _ in range(30):
            d = w - target
            losses.append(float(d @ d))
            opt.step(NO_ROWS, 2.0 * d)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_adam_matches_reference_recurrence(self):
        rng = np.random.default_rng(0)
        grads = rng.uniform(-1, 1, 7)
        p = np.array([0.7])
        opt = Adam(NO_TABLE, p, lr=0.01)
        theta, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            opt.step(NO_ROWS, np.array([g]))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert float(p[0]) == pytest.approx(theta, abs=1e-15)


def dense_adam_step(p, m, v, g, t, lr):
    """The dense Adam step every row took before row-form gradients, with
    its operation order."""
    m *= Adam.BETA1
    m += (1.0 - Adam.BETA1) * g
    v *= Adam.BETA2
    v += (1.0 - Adam.BETA2) * g * g
    p -= lr * (m / (1.0 - Adam.BETA1 ** t)) / (np.sqrt(v / (1.0 - Adam.BETA2 ** t)) + Adam.EPS)


def table_order_moments(adam, name):
    """Adam's m and v of `name` by table row: the table's moments are packed
    in first-read order, and its rows never read have zero moments."""
    if name != "embedding.table":
        return adam.m, adam.v
    read = adam.read
    moments = []
    for packed in (adam.table_m, adam.table_v):
        assert not packed[len(read):].any()
        by_row = np.zeros_like(packed)
        by_row[read] = packed[:len(read)]
        moments.append(by_row)
    return moments


def row_batches(n_rows, steps, rng):
    """(ids, d_rows, share) for each step: the share of the table's rows read
    so far climbs from under 5% to 100% by step steps - 8 and stays there.
    Each batch reads its new rows, earlier ones, one id twice and one id
    twice with opposite gradient rows, which sum to exactly 0."""
    order = rng.permutation(n_rows)
    reached = 0
    for k in range(1, steps + 1):
        new = order[reached:max(3, n_rows * k // (steps - 8))]
        reached += len(new)
        old = order[rng.integers(0, reached, 3)]
        zero_sum = order[rng.integers(0, reached)]
        ids = np.concatenate([new, old, old[:1], [zero_sum, zero_sum]])
        d_rows = rng.uniform(-1.0, 1.0, (len(ids), 3))
        d_rows[-1] = -d_rows[-2]
        yield ids, d_rows, reached / n_rows


class TestRowFormSteps:
    """The optimizers step an embedding table from its row-form gradient
    exactly as they stepped it from the dense gradient."""

    N_ROWS, STEPS = 120, 48

    def run(self, optimizer, params, reference_step):
        """Step `params` (a table and a dense tensor) for STEPS steps with
        `optimizer` and a copy with `reference_step`; the parameters, and an
        Adam's moments, must agree after every step. Returns the share of the
        table read by each step."""
        rng = np.random.default_rng(12)
        want = {name: p.copy() for name, p in params.items()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in want.items()}
        shares = []
        for t, (ids, d_rows, share) in enumerate(row_batches(self.N_ROWS, self.STEPS, rng),
                                                 start=1):
            _, back = models.embedding_lookup(ids, params["embedding.table"])
            dense = np.zeros_like(want["embedding.table"])
            np.add.at(dense, ids, d_rows)   # the dense gradient of the earlier backward
            head_grad = rng.uniform(-1.0, 1.0, want["head.w"].shape)
            optimizer.step(back(d_rows), head_grad.ravel())
            for name, g in (("embedding.table", dense), ("head.w", head_grad)):
                m, v = moments[name]
                reference_step(want[name], m, v, g, t)
                np.testing.assert_array_equal(params[name], want[name], err_msg=f"{name} {t}")
                if isinstance(optimizer, Adam):
                    got_m, got_v = table_order_moments(optimizer, name)
                    np.testing.assert_array_equal(got_m.reshape(m.shape), m,
                                                  err_msg=f"m {name} {t}")
                    np.testing.assert_array_equal(got_v.reshape(v.shape), v,
                                                  err_msg=f"v {name} {t}")
            shares.append(share)
        return shares

    def params(self):
        rng = np.random.default_rng(5)
        table = rng.uniform(-0.05, 0.05, (self.N_ROWS, 3))
        table[0] = 0.0
        return {"embedding.table": table, "head.w": rng.uniform(-1.0, 1.0, (4, 3))}

    @staticmethod
    def optimizer_arrays(params):
        """The table and the flat view of the other tensor, as the optimizers take them."""
        return params["embedding.table"], params["head.w"].reshape(-1)

    def test_adam_matches_the_dense_step_from_few_rows_to_all(self):
        params = self.params()
        adam = Adam(*self.optimizer_arrays(params), 1e-2)
        shares = self.run(adam, params,
                          lambda p, m, v, g, t: dense_adam_step(p, m, v, g, t, 1e-2))
        # many steps with a small share of the table read, and many with all of it
        assert shares[0] < 0.05 and shares[-1] == 1.0
        assert sum(share < 0.5 for share in shares) >= 10
        assert sum(share == 1.0 for share in shares) >= 8
        assert sorted(adam.read) == list(range(self.N_ROWS))

    def test_sgd_matches_the_dense_step(self):
        params = self.params()

        def sgd_step(p, m, v, g, t):
            p -= 0.05 * g
        self.run(Sgd(*self.optimizer_arrays(params), 0.05), params, sgd_step)

    def test_zero_sum_row_is_stepped_like_a_zero_row(self):
        # a row read twice with opposite gradients has gradient +0 and zero
        # moments, so the step leaves it as it is
        table = np.array([[0.5, -0.25], [1.0, 2.0], [0.0, 3.0]])
        stepped = table.copy()
        _, back = models.embedding_lookup([1, 1], table)
        rows, values = back(np.array([[0.3, -0.7], [-0.3, 0.7]]))
        np.testing.assert_array_equal(values, [[0.0, 0.0]])
        Adam(stepped, np.zeros(0), 0.1).step((rows, values), np.zeros(0))
        assert stepped.tobytes() == table.tobytes()


class TestLossGradient:
    def batch(self):
        config = tiny_config("cnn")
        rng = np.random.default_rng(1)
        params = random_params(config, rng)
        seqs = [TokenSequence(rng.integers(0, 10, 8).tolist(), 8) for _ in range(4)]
        return config, params, seqs, [0, 2, 1, 1]

    def test_mean_batch_gradient_is_p_minus_onehot_over_batch(self):
        config, params, seqs, labels = self.batch()
        _, _, grad = models.loss_and_grads(config, params, seqs, labels)
        want = np.zeros(3)
        for seq, y in zip(seqs, labels):
            p = models.forward_probs(config, params, seq)
            p[y] -= 1.0
            want += p / 4
        # the batch forward may round differently from single records in BLAS
        np.testing.assert_allclose(grad[-3:], want, rtol=0, atol=1e-15)

    def test_against_finite_differences(self):
        config, params, seqs, labels = self.batch()
        assert gradient_check(
            lambda: dense_loss_and_grads(config, params, seqs[:3], labels[:3]), params) < 1e-6


def tiny_config(arch):
    return ModelConfig(arch=arch, vocab_size=8, embedding_dim=6, hidden_units=6,
                       head_units=6, max_len=8, conv_filters=6, conv_kernel=2)


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_single_batch_overfit(arch):
    rng = np.random.default_rng(3)
    config = tiny_config(arch)
    flat = models.init_params(config, seed=5)
    params = models.parameter_views(config, flat)
    table = params["embedding.table"]
    opt = Adam(table, flat[table.size:], lr=0.01)
    seqs = [TokenSequence([int(rng.integers(2, 10)) for _ in range(8)], 6) for _ in range(6)]
    labels = [c % 3 for c in range(6)]
    loss_value = None
    for _ in range(500):
        loss_value, table_grad, grad = models.loss_and_grads(config, params, seqs, labels)
        opt.step(table_grad, grad)
        if loss_value < 0.01:
            break
    assert loss_value < 0.01


class TestTrainLoop:
    def make_inputs(self, arch="srnn", epochs=3, seed=11):
        split = synthetic_corpus(n_per_class=4, extra_per_class=1, seed=2)
        vocab = fit_vocabulary([r.summary for r in split.train], max_size=50)
        model_config = ModelConfig(arch=arch, vocab_size=vocab.size, embedding_dim=6,
                                   hidden_units=6, head_units=6, max_len=10,
                                   conv_filters=6, conv_kernel=2)
        train_config = TrainConfig(epochs=epochs, batch_size=4, seed=seed)
        return model_config, train_config, split, vocab

    def test_history_shape_and_ranges(self):
        model_config, train_config, split, vocab = self.make_inputs()
        ckpt, history = train(model_config, train_config, split, vocab)
        assert [r.epoch for r in history] == [1, 2, 3]
        for r in history:
            assert 0.0 <= r.train_accuracy <= 1.0
            assert 0.0 <= r.validation_accuracy <= 1.0
            assert r.train_loss >= 0.0 and r.validation_loss >= 0.0
        assert 1 <= ckpt.epoch <= 3

    def test_deterministic_given_seed(self):
        a = train(*self.make_inputs(seed=7))
        b = train(*self.make_inputs(seed=7))
        assert a[1] == b[1]
        for name in a[0].tensors:
            np.testing.assert_array_equal(a[0].tensors[name], b[0].tensors[name])

    def test_different_seeds_differ(self):
        a = train(*self.make_inputs(seed=7))
        b = train(*self.make_inputs(seed=8))
        assert a[1] != b[1]

    def test_empty_split_rejected(self):
        model_config, train_config, split, vocab = self.make_inputs()
        empty = SplitDataset(split.train, [], split.test, 0)
        with pytest.raises(EmptySplit):
            train(model_config, train_config, empty, vocab)

    def test_nonfinite_loss_aborts_with_coordinates(self, monkeypatch):
        model_config, train_config, split, vocab = self.make_inputs()

        real_init = models.init_params

        def poisoned_init(config, seed):
            flat = real_init(config, seed)
            models.parameter_views(config, flat)["head.b2"][0] = np.nan
            return flat

        monkeypatch.setattr(models, "init_params", poisoned_init)
        with pytest.raises(NonfiniteLoss) as exc:
            train(model_config, train_config, split, vocab)
        assert "epoch 1" in str(exc.value) and "batch" in str(exc.value)

    @pytest.mark.parametrize("name", ["cnn.filters", "cnn.bias", "embedding.table"])
    def test_nan_cnn_parameter_aborts_with_nonfinite_loss(self, monkeypatch, name):
        # the max-pool of NaN windows and its backward run to the loss check
        model_config, train_config, split, vocab = self.make_inputs(arch="cnn")
        real_init = models.init_params

        def poisoned_init(config, seed):
            flat = real_init(config, seed)
            models.parameter_views(config, flat)[name][...] = np.nan
            return flat

        monkeypatch.setattr(models, "init_params", poisoned_init)
        with pytest.raises(NonfiniteLoss) as exc:
            train(model_config, train_config, split, vocab)
        assert "epoch 1, batch 0" in str(exc.value)

    @pytest.mark.parametrize("poison, named", [(("embedding.table",), "embedding.table"),
                                               (("head.b2", "lstm.b"), "lstm.b"),
                                               (("head.b2",), "head.b2")])
    def test_nonfinite_gradient_stops_before_its_step(self, monkeypatch, poison, named):
        # three batches of four: batch 2 is the third call, and the error
        # names the first poisoned tensor in table order; head.b2 is the
        # last slice of the flat gradient
        model_config, train_config, split, vocab = self.make_inputs(arch="lstm", epochs=1)
        real_init, real = models.init_params, models.loss_and_grads
        flats, calls = [], []

        def init(config, seed):
            flats.append(real_init(config, seed))
            return flats[-1]

        def poisoned(config, params, *args):
            loss, table_grad, grad = real(config, params, *args)
            calls.append(flats[0].copy())
            if len(calls) == 3:
                # each tensor's offsets in the flat parameter vector
                index = models.parameter_views(config, np.arange(flats[0].size))
                for name in poison:
                    if name == "embedding.table":
                        table_grad[1].flat[0] = np.inf
                    else:
                        grad[index[name].flat[0] - index["embedding.table"].size] = np.inf
            return loss, table_grad, grad

        monkeypatch.setattr(models, "init_params", init)
        monkeypatch.setattr(models, "loss_and_grads", poisoned)
        with pytest.raises(NonfiniteGradient) as exc:
            train(model_config, train_config, split, vocab)
        assert len(calls) == 3
        assert f"gradient of {named} " in str(exc.value)
        assert "epoch 1, batch 2" in str(exc.value)
        assert flats[0].tobytes() == calls[-1].tobytes()

    def test_rows_no_record_reads_keep_their_initial_bytes(self):
        model_config, train_config, split, vocab = self.make_inputs(arch="lstm")
        ckpt, _ = train(model_config, train_config, split, vocab)
        initial = initial_params(model_config, train_config.seed)["embedding.table"]
        read = set()
        for record in split.train:
            seq = encode_sequence(record.summary, vocab, model_config.max_len, "head")
            read.update(seq.ids[:seq.true_length])
        unread = sorted(set(range(len(initial))) - read)
        assert 0 in unread
        table = ckpt.tensors["embedding.table"]
        assert table[unread].tobytes() == initial[unread].tobytes()
        assert np.all(table[sorted(read)] != initial[sorted(read)])

    def test_test_part_is_never_read(self):
        class PoisonList(list):
            def __iter__(self):
                raise AssertionError("training touched the test part")

            def __getitem__(self, item):
                raise AssertionError("training touched the test part")

        model_config, train_config, split, vocab = self.make_inputs(epochs=1)
        poisoned = SplitDataset(split.train, split.validation,
                                PoisonList(split.test), 0)
        train(model_config, train_config, poisoned, vocab)  # must not raise

    @pytest.mark.parametrize("by", training.BEST_BY)
    def test_checkpoint_holds_the_best_epochs_weights(self, by):
        # the best epoch here is 1 of 4: the checkpoint must hold the weights
        # that epoch ended with, not the last epoch's under its number
        split = synthetic_corpus()
        vocab = fit_vocabulary([r.summary for r in split.train], max_size=50)
        model_config = ModelConfig(arch="srnn", vocab_size=vocab.size, embedding_dim=4,
                                   hidden_units=4, head_units=4, max_len=8)

        def run(epochs):
            return train(model_config, TrainConfig(learning_rate=0.5, batch_size=4, epochs=epochs,
                                                   optimizer="sgd", seed=0, select_best_by=by),
                         split, vocab)[0]
        ckpt = run(4)
        assert ckpt.epoch < 4
        stopped = run(ckpt.epoch)
        assert stopped.epoch == ckpt.epoch
        for name, tensor in stopped.tensors.items():
            assert ckpt.tensors[name].tobytes() == tensor.tobytes(), name

    def test_best_epoch_prefers_earliest_tie(self):
        rec = lambda e, acc, loss: EpochRecord(e, 0.5, 0.5, loss, acc)
        best = None
        for candidate in (rec(1, 0.5, 1.0), rec(2, 0.8, 0.9), rec(3, 0.8, 0.8)):
            if training._improved(candidate, best, "validation_accuracy"):
                best = candidate
        assert best.epoch == 2

    def test_best_by_validation_loss(self):
        rec = lambda e, loss: EpochRecord(e, 0.5, 0.5, loss, 0.5)
        best = None
        for candidate in (rec(1, 1.0), rec(2, 0.4), rec(3, 0.4)):
            if training._improved(candidate, best, "validation_loss"):
                best = candidate
        assert best.epoch == 2


class TestSerialization:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 4), (2, 3, 2)])
    def test_round_trip(self, shape, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal(shape)
        path = tmp_path / "t.bin"
        with open(path, "wb") as f:
            training.write_tensor(f, arr)
        back, end = training.read_tensor(path.read_bytes(), 0)
        assert end == path.stat().st_size
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_layout_is_rank_dims_then_le_floats(self):
        import io
        buf = io.BytesIO()
        training.write_tensor(buf, np.array([[1.0, 2.0]]))
        raw = buf.getvalue()
        assert raw[:8] == (2).to_bytes(8, "little")
        assert raw[8:16] == (1).to_bytes(8, "little")
        assert raw[16:24] == (2).to_bytes(8, "little")
        assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.0, 2.0]

    def test_truncated_stream_raises(self):
        import io
        buf = io.BytesIO()
        training.write_tensor(buf, np.ones(4))
        for cut in (8, 1):
            with pytest.raises(EOFError):
                training.read_tensor(buf.getvalue()[:-cut], 0)


GARBLED_LENGTHS = ["metadata-length", "tensor-rank", "tensor-count"]


class ReadSizes(io.BytesIO):
    """A stream that records the size asked of each read()."""

    def __init__(self, blob):
        super().__init__(blob)
        self.sizes = []

    @property
    def largest(self):
        return max(self.sizes, default=0)

    def read(self, n=-1):
        self.sizes.append(n)
        return super().read(n)


class Unseekable(ReadSizes):
    """A stream that can only be read forward, as a pipe is."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


class TestCheckpointIo:
    def make_checkpoint(self, arch="lstm"):
        config = tiny_config(arch)
        tensors = models.checkpoint_views(config, models.init_params(config, seed=9))
        vocab = fit_vocabulary(["engine fire", "pilot error wind"], max_size=8)
        return ModelCheckpoint(config, vocab, frozenset({"the", "and"}), "head",
                               tensors, epoch=4)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_round_trip_bit_exact(self, tmp_path, arch):
        ckpt = self.make_checkpoint(arch)
        path = tmp_path / "model.atxc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.epoch == 4
        assert loaded.stopwords == ckpt.stopwords
        assert loaded.truncate == "head"
        assert loaded.vocab.token_to_id == ckpt.vocab.token_to_id
        assert set(loaded.tensors) == set(ckpt.tensors)
        for name in ckpt.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], ckpt.tensors[name])

    def test_save_is_deterministic(self):
        ckpt = self.make_checkpoint()
        a, b = io.BytesIO(), io.BytesIO()
        save_checkpoint(ckpt, a)
        save_checkpoint(ckpt, b)
        assert a.getvalue() == b.getvalue()

    def test_truncated_file_is_corrupt(self, tmp_path):
        ckpt = self.make_checkpoint()
        buf = io.BytesIO()
        save_checkpoint(ckpt, buf)
        for cut in (2, 10, len(buf.getvalue()) - 3):
            with pytest.raises(CorruptCheckpoint):
                load_checkpoint(io.BytesIO(buf.getvalue()[:cut]))

    def garbled_length(self, field):
        ckpt = self.make_checkpoint()
        ckpt.tensors = {"a": np.zeros((2, 2))}  # the file ends in name, rank 2, dims, 4 values
        buf = io.BytesIO()
        save_checkpoint(ckpt, buf)
        blob = buf.getvalue()
        if field == "metadata-length":
            return blob[:8] + struct.pack("<Q", 2**40) + blob[16:]
        if field == "tensor-rank":
            return blob[:-56] + struct.pack("<Q", 2**40)
        return blob[:-48] + struct.pack("<2Q", 2**20, 2**20)

    @pytest.mark.parametrize("field", GARBLED_LENGTHS)
    def test_length_past_the_end_is_refused_before_it_is_read(self, field):
        blob = self.garbled_length(field)
        source = ReadSizes(blob)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(source)
        assert source.largest <= len(blob)
        assert len(source.sizes) == 2 and source.sizes[0] == 4  # the magic, then the rest

    @pytest.mark.parametrize("field", GARBLED_LENGTHS)
    def test_length_past_the_end_of_an_unseekable_stream_is_refused(self, field):
        blob = self.garbled_length(field)
        source = Unseekable(blob)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(source)
        assert source.largest <= len(blob)
        assert len(source.sizes) == 2 and source.sizes[0] == 4  # the magic, then the rest

    def test_bad_magic(self):
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(io.BytesIO(b"NOPE" + b"\x00" * 64))

    def test_bad_magic_is_refused_after_four_bytes(self):
        source = ReadSizes(b"NOPE" + b"\x00" * (1 << 20))
        with pytest.raises(CorruptCheckpoint, match="bad magic"):
            load_checkpoint(source)
        assert source.sizes == [4]

    def test_unsupported_version(self):
        ckpt = self.make_checkpoint()
        buf = io.BytesIO()
        save_checkpoint(ckpt, buf)
        raw = bytearray(buf.getvalue())
        raw[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(VersionUnsupported):
            load_checkpoint(io.BytesIO(bytes(raw)))

    @pytest.mark.parametrize("fault", ["shape", "missing", "extra", "duplicate-id",
                                       "padding-id", "id-past-table", "non-integer-id",
                                       "nan", *METADATA_FAULTS, "repeated-token"])
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_shape_mismatch_is_corrupt(self, arch, fault):
        ckpt = self.make_checkpoint(arch)
        ids = ckpt.vocab.token_to_id
        if fault == "shape":
            ckpt.tensors["head.b2"] = np.zeros(7)
        elif fault == "missing":
            del ckpt.tensors[list(ckpt.tensors)[1]]  # the first cell tensor
        elif fault == "extra":
            ckpt.tensors["head.b3"] = np.zeros(3)
        elif fault == "duplicate-id":
            ids["fire"] = ids["engine"]
        elif fault == "padding-id":
            ids["engine"] = 0
        elif fault == "id-past-table":
            ids["engine"] = ckpt.config.vocab_size + 2
        elif fault == "non-integer-id":
            ckpt.vocab.token_to_id = {"engine": "2.5"}
        elif fault == "nan":
            ckpt.tensors["head.b2"][0] = np.nan
        elif fault == "repeated-token":
            # the repeat's id is unique and in range: only the token repeats
            tsv = ckpt.vocab.to_tsv() + f"engine\t{max(ids.values()) + 1}\n"
            ckpt.vocab.to_tsv = lambda: tsv
        if fault in ("shape", "missing", "extra"):
            with pytest.raises(ShapeMismatch):
                models.check_parameter_shapes(ckpt.config, ckpt.tensors)
        buf = io.BytesIO()
        save_checkpoint(ckpt, buf)
        blob = buf.getvalue()
        if fault in METADATA_FAULTS:
            blob = edit_checkpoint_metadata(blob, METADATA_FAULTS[fault])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(io.BytesIO(blob))

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_params_round_trip_through_checkpoint(self, tmp_path, arch):
        ckpt = self.make_checkpoint(arch)
        path = tmp_path / "model.atxc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert sorted(loaded.tensors) == sorted(ckpt.tensors)
        seq = TokenSequence([2, 3, 4, 0, 0, 0, 0, 0], 3)
        probs = models.forward_probs(loaded.config,
                                     models.fuse_checkpoint(loaded.config, loaded.tensors), seq)
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(
            probs, models.forward_probs(ckpt.config, initial_params(ckpt.config, seed=9), seq))


class TestHistoryCsv:
    def test_round_trip(self):
        history = [EpochRecord(1, 1.0986, 0.3333333333333333, 1.1, 0.25),
                   EpochRecord(2, 0.5, 0.75, 0.6, 2 / 3)]
        text = training.history_to_csv(history)
        assert text.splitlines()[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert history_from_csv(text) == history
