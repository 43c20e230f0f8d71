import gc
import inspect
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aerotext import models
from aerotext.corpus import OperatorClass
from aerotext.errors import IdOutOfRange, KernelTooLarge, ShapeMismatch
from aerotext.models import (
    ModelConfig,
    blstm_forward,
    cnn_forward,
    embedding_lookup,
    encode_features,
    head_logits,
    init_params,
    predict_class,
    recurrent_forward,
)
from aerotext.metrics import Predictor
from aerotext.textprep import TokenSequence, fit_vocabulary
from aerotext.training import ModelCheckpoint, load_checkpoint, save_checkpoint

from conftest import (
    dense_loss_and_grads,
    dense_table,
    gradient_check,
    head_params,
    initial_params,
    random_params,
)
from oracles import cnn_full_length, forward_probs_per_record, lstm_unroll, srnn_unroll


def head_probs(features, head):
    return models.softmax(models.head_logits(np.asarray(features, dtype=np.float64)[None, :],
                                             head)[0][0])


def layer_check(forward, inputs, seed=0):
    """Central-difference check of a layer's backward: the loss is a fixed
    random weighting of the layer's output, and every array in `inputs` is
    differentiated. `forward(inputs)` returns (output, backward), and the
    backward returns a dict of gradients keyed like `inputs`."""
    out, _ = forward(inputs)
    weight = np.random.default_rng(seed).uniform(-1.0, 1.0, out.shape)

    def loss_and_grads():
        out, backward = forward(inputs)
        return float(np.sum(out * weight)), backward(weight)
    return gradient_check(loss_and_grads, inputs)


def mini_config(arch, vocab_size=6, d=3, h=4, head=5, max_len=6, k=2, filters=3):
    return ModelConfig(arch=arch, vocab_size=vocab_size, embedding_dim=d,
                       hidden_units=h, head_units=head, max_len=max_len,
                       conv_filters=filters, conv_kernel=k)


def srnn_params(w, b):
    return {"srnn.w": np.asarray(w, dtype=np.float64), "srnn.b": np.asarray(b, dtype=np.float64)}


def lstm_params(w, b, prefix="lstm"):
    """A fused cell whose every gate block is w and every gate bias b."""
    return {f"{prefix}.w": np.tile(np.array(w, dtype=np.float64), (4, 1)),
            f"{prefix}.b": np.tile(np.array(b, dtype=np.float64), 4)}


def random_lstm_params(rng, h, d, prefix="lstm"):
    return {f"{prefix}.w": rng.uniform(-1, 1, (4 * h, h + d)),
            f"{prefix}.b": rng.uniform(-1, 1, 4 * h)}


def lstm_as_arrays(p, prefix="lstm"):
    """The per-gate arrays of a fused cell, as the oracle takes them."""
    return {f"{kind}_{g}": block for kind in "wb"
            for g, block in zip("fiog", np.split(p[f"{prefix}.{kind}"], 4))}


def run(seq, length, params, prefix):
    """recurrent_forward over the first `length` rows of `seq` as a batch of one."""
    rows = np.asarray(seq, dtype=np.float64)[:length]
    return recurrent_forward(rows, np.array([length]), params, prefix)[0][0]


def run_blstm(seq, length, params):
    rows = np.asarray(seq, dtype=np.float64)[:length]
    return blstm_forward(rows, np.array([length]), params)[0][0]


class TestEmbedding:
    def test_gather_semantics(self):
        out, _ = embedding_lookup([2, 0], np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(out, [[6, 7, 8], [0, 1, 2]])

    def test_repeated_id_accumulates_gradient(self):
        # row form: only row 3 is read, so it is the only row named
        _, backward = embedding_lookup([3, 3], np.ones((4, 2)))
        rows, values = backward(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(rows, [3])
        np.testing.assert_array_equal(values, [[4.0, 6.0]])

    def test_id_out_of_range(self):
        table = np.zeros((4, 2))
        with pytest.raises(IdOutOfRange):
            embedding_lookup([4], table)
        with pytest.raises(IdOutOfRange):
            embedding_lookup([-1], table)


class TestSrnnStep:
    def test_zero_params_give_zero_state(self):
        h = run(np.ones((1, 3)), 1, srnn_params(np.zeros((2, 5)), np.zeros(2)), "srnn")
        np.testing.assert_array_equal(h, [0.0, 0.0])

    def test_scalar_hand_value(self):
        # H = d = 1, W = [0.5, 0.5], b = 0.1, from h = 0 with x = 0.6 -> tanh(0.4)
        h = run([[0.6]], 1, srnn_params([[0.5, 0.5]], [0.1]), "srnn")
        assert float(h[0]) == pytest.approx(0.3799489622552249, abs=1e-15)

    def test_zero_weights_constant_map(self):
        b = np.array([0.3, -0.7])
        p = srnn_params(np.zeros((2, 4)), b)
        h1 = run([[1.0, -1.0], [2.0, 0.5]], 2, p, "srnn")
        h2 = run([[-3.0, 1.0]], 1, p, "srnn")
        np.testing.assert_array_equal(h1, np.tanh(b))
        np.testing.assert_array_equal(h1, h2)


class TestLstmStep:
    def test_zero_params_halve_cell_state(self):
        # zero weights and gate biases except b_g: f = i = o = 1/2 and
        # g = tanh(b_g), so each step halves the cell state before adding g/2
        h, d, steps = 3, 2, 4
        p = lstm_params(np.zeros((h, h + d)), np.zeros(h))
        p["lstm.b"][3 * h:] = [0.4, -1.0, 2.0]
        g = np.tanh(p["lstm.b"][3 * h:])
        c = np.zeros(h)
        for _ in range(steps):
            c = 0.5 * c + 0.5 * g
        h_t = run(np.ones((steps, d)), steps, p, "lstm")
        np.testing.assert_allclose(h_t, 0.5 * np.tanh(c), atol=1e-15)

    def test_zero_everything_stays_zero(self):
        h_t = run([[0.0]], 1, lstm_params(np.zeros((1, 2)), np.zeros(1)), "lstm")
        assert float(h_t[0]) == 0.0

    def test_scalar_hand_values(self):
        # H = d = 1, every gate row [1, 1], biases 0, h = c = 0, x = 1:
        # f = i = o = sigmoid(1), g = tanh(1), c = sigmoid(1)*tanh(1)
        h_t = run([[1.0]], 1, lstm_params([[1.0, 1.0]], [0.0]), "lstm")
        assert float(h_t[0]) == pytest.approx(0.36960635293570576, abs=1e-15)


class TestRecurrentForward:
    def test_empty_sequence_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        p = srnn_params(rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, 3))
        np.testing.assert_array_equal(run(rng.uniform(-1, 1, (4, 2)), 0, p, "srnn"), np.zeros(3))

    def test_single_step_equals_cell_from_zero_state(self):
        rng = np.random.default_rng(1)
        w, b = rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, 3)
        seq = rng.uniform(-1, 1, (4, 2))
        out = run(seq, 1, srnn_params(w, b), "srnn")
        np.testing.assert_allclose(out, np.tanh(w @ np.concatenate([np.zeros(3), seq[0]]) + b),
                                   atol=1e-15, rtol=0)

    def test_scalar_triple_unroll(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(-1, 1, (1, 2))
        b = rng.uniform(-1, 1, 1)
        xs = rng.uniform(-1, 1, (3, 1))
        out = run(xs, 3, srnn_params(w, b), "srnn")
        np.testing.assert_allclose(out, srnn_unroll(w, b, xs), atol=1e-15)

    def test_matches_hand_unrolled_oracle_many_shapes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            length = int(rng.integers(0, 9))
            t_max = length + int(rng.integers(0, 3))
            w = rng.uniform(-2, 2, (h, h + d))
            b = rng.uniform(-2, 2, h)
            seq = rng.uniform(-2, 2, (max(t_max, 1), d))
            got = run(seq, length, srnn_params(w, b), "srnn")
            want = srnn_unroll(w, b, seq[:length])
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_lstm_matches_hand_unrolled_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            h = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            length = int(rng.integers(0, 8))
            p = random_lstm_params(rng, h, d)
            seq = rng.uniform(-2, 2, (max(length, 1), d))
            got = run(seq, length, p, "lstm")
            want = lstm_unroll(lstm_as_arrays(p), seq[:length])
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_padding_beyond_true_length_never_processed(self):
        # in a packed batch a row that stops early drops out of the later
        # steps: each row's final state equals its own run
        rng = np.random.default_rng(5)
        p = random_lstm_params(rng, 3, 2)
        rows = rng.uniform(-1, 1, (2, 4, 2))
        packed = np.concatenate([rows[:n, t] for t, n in enumerate([2, 2, 1, 1])])
        h, _ = recurrent_forward(packed, np.array([4, 2]), p, "lstm")
        np.testing.assert_allclose(h[0], run(rows[0], 4, p, "lstm"), atol=1e-15, rtol=0)
        np.testing.assert_allclose(h[1], run(rows[1], 2, p, "lstm"), atol=1e-15, rtol=0)


class TestBlstm:
    def test_backward_half_is_reversed_forward_run(self):
        rng = np.random.default_rng(6)
        p = random_lstm_params(rng, 3, 2, "blstm.fwd") | random_lstm_params(rng, 3, 2, "blstm.bwd")
        seq = rng.uniform(-1, 1, (5, 2))
        length = 4
        out = run_blstm(seq, length, p)
        np.testing.assert_array_equal(out[3:], run(seq[:length][::-1], length, p, "blstm.bwd"))
        np.testing.assert_array_equal(out[:3], run(seq, length, p, "blstm.fwd"))

    def test_single_step_both_halves(self):
        rng = np.random.default_rng(7)
        p = random_lstm_params(rng, 2, 3, "blstm.fwd") | random_lstm_params(rng, 2, 3, "blstm.bwd")
        seq = rng.uniform(-1, 1, (4, 3))
        out = run_blstm(seq, 1, p)
        want = np.concatenate([lstm_unroll(lstm_as_arrays(p, "blstm.fwd"), seq[:1]),
                               lstm_unroll(lstm_as_arrays(p, "blstm.bwd"), seq[:1])])
        np.testing.assert_allclose(out, want, atol=1e-15, rtol=0)

    def test_scalar_composed_oracle(self):
        rng = np.random.default_rng(8)
        p = random_lstm_params(rng, 1, 1, "blstm.fwd") | random_lstm_params(rng, 1, 1, "blstm.bwd")
        seq = rng.uniform(-1, 1, (3, 1))
        out = run_blstm(seq, 3, p)
        want = np.concatenate([lstm_unroll(lstm_as_arrays(p, "blstm.fwd"), seq),
                               lstm_unroll(lstm_as_arrays(p, "blstm.bwd"), seq[::-1])])
        np.testing.assert_allclose(out, want, atol=1e-12, rtol=0)

    def test_empty_sequence(self):
        rng = np.random.default_rng(9)
        p = random_lstm_params(rng, 2, 2, "blstm.fwd") | random_lstm_params(rng, 2, 2, "blstm.bwd")
        np.testing.assert_array_equal(run_blstm(rng.uniform(-1, 1, (3, 2)), 0, p), np.zeros(4))


class TestCnn:
    def test_zero_filters_zero_output(self):
        x = np.random.default_rng(0).uniform(-1, 1, (1, 5, 3))
        out, _ = cnn_forward(x.reshape(-1, 3), np.zeros((2, 3, 4)), np.zeros(4), np.full(1, 5))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_indicator_filter_is_channel_max(self):
        rng = np.random.default_rng(1)
        seq = rng.uniform(-1, 1, (6, 3))
        j = 2
        filters = np.zeros((1, 3, 1))
        filters[0, j, 0] = 1.0
        out, _ = cnn_forward(seq, filters, np.zeros(1), np.full(1, 6))
        assert float(out[0, 0]) == pytest.approx(np.max(np.maximum(seq[:, j], 0.0)), abs=0)

    def test_huge_negative_bias_clamps_to_zero(self):
        rng = np.random.default_rng(2)
        out, _ = cnn_forward(rng.uniform(-1, 1, (1, 5, 3)).reshape(-1, 3),
                             rng.uniform(-1, 1, (2, 3, 4)), np.full(4, -1e6), np.full(1, 5))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_kernel_too_large(self):
        with pytest.raises(KernelTooLarge):
            cnn_forward(np.zeros((1, 3, 2)).reshape(-1, 2), np.zeros((4, 2, 1)), np.zeros(1),
                        np.full(1, 3))

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(3)
        t, d, k, f = 7, 3, 3, 4
        batch = rng.uniform(-1, 1, (2, t, d))
        filters = rng.uniform(-1, 1, (k, d, f))
        bias = rng.uniform(-1, 1, f)
        out, _ = cnn_forward(batch.reshape(-1, d), filters, bias, np.full(2, t))
        for seq, got in zip(batch, out):
            naive = np.full(f, -np.inf)
            for pos in range(t - k + 1):
                window = seq[pos:pos + k]  # (k, d)
                conv = np.einsum("kd,kdf->f", window, filters) + bias
                naive = np.maximum(naive, np.maximum(conv, 0.0))
            np.testing.assert_allclose(got, naive, atol=1e-12, rtol=0)

    def test_nan_window_pools_to_nan_and_back_does_not_fail(self):
        # a NaN among a record's windows is its maximum, as np.max has it;
        # the other record's pooled values and gradients stay finite
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (2, 6, 3))
        x[0, 2, 1] = np.nan
        out, back = cnn_forward(x.reshape(-1, 3), rng.uniform(-1, 1, (2, 3, 4)),
                                rng.uniform(-1, 1, 4), np.full(2, 6))
        assert np.isnan(out[0]).all() and np.isfinite(out[1]).all()
        d_x, grads = back(np.ones((2, 4)))
        assert np.isfinite(d_x.reshape(x.shape)[1]).all()
        assert grads["cnn.filters"].shape == (2, 3, 4)


def full_length_encoder(params, seqs):
    """The CNN encoder over every window of the padded records
    (`oracles.cnn_full_length`); back(d_features) -> its gradients, the
    embedding table's dense."""
    ids = np.array([s.ids for s in seqs], dtype=np.int64)
    table = params["embedding.table"]
    features, conv_back = cnn_full_length(table[ids], params["cnn.filters"], params["cnn.bias"])

    def back(d_features):
        d_x, grads = conv_back(d_features)
        grads["embedding.table"] = np.zeros_like(table)
        np.add.at(grads["embedding.table"], ids, d_x)
        return grads
    return features, back


def cnn_records(max_len, lengths, rng, vocab_size=40):
    """Records of the given lengths with random ids, padding among them."""
    return [TokenSequence(rng.integers(0, vocab_size + 2, n).tolist() + [0] * (max_len - n), n)
            for n in lengths]


class TestCnnWindows:
    # the convolution reads each record only through its last non-padding
    # id and two windows more; at the default sizes every feature is the
    # full-length convolution's bit for bit, and every gradient within 1e-12
    CASES = {
        "mixed": (24, 5, [0, 3, 24, 11, 19, 1, 7, 24, 15]),
        "all-padding": (24, 5, [0, 0, 6]),
        "last-id-at-max-len": (24, 5, [24, 24, 2]),
        "kernel-is-max-len": (24, 24, [0, 24, 5, 13]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "batch"])
    def test_equals_the_full_length_convolution(self, case, alone):
        max_len, kernel, lengths = self.CASES[case]
        config = ModelConfig(arch="cnn", vocab_size=40, max_len=max_len, conv_kernel=kernel)
        params = initial_params(config, seed=3)
        rng = np.random.default_rng(3)
        seqs = cnn_records(max_len, lengths, rng)
        if case == "last-id-at-max-len":
            for seq in seqs:
                seq.ids[-1] = 7
        for batch in ([[seq] for seq in seqs] if alone else [seqs]):
            features, back = encode_features(config, params, batch)
            want, want_back = full_length_encoder(params, batch)
            assert features.tobytes() == want.tobytes()
            d_features = rng.uniform(-1, 1, features.shape)
            grads, wants = back(d_features), want_back(d_features)
            rows, values = grads.pop("embedding.table")
            assert rows.tolist() == np.unique([s.ids for s in batch]).tolist()
            grads["embedding.table"] = dense_table((rows, values), wants["embedding.table"].shape)
            for name, array in wants.items():
                scale = np.abs(array).max()
                assert np.abs(grads[name] - array).max() <= 1e-12 * scale, name

    def test_trailing_padding_changes_no_bit(self):
        # records that leave kernel + 1 padding ids at max_len T are read the
        # same at 4T: the same features, loss and gradients to the bit
        rng = np.random.default_rng(5)
        lengths = [0, 18, 4, 11, 18, 1, 9, 15]
        labels = rng.integers(0, 3, len(lengths)).tolist()
        outputs = []
        for max_len in (24, 96):
            config = ModelConfig(arch="cnn", vocab_size=40, max_len=max_len)
            params = initial_params(config, seed=4)
            seqs = cnn_records(max_len, lengths, np.random.default_rng(6))
            features, _ = encode_features(config, params, seqs)
            loss, (rows, values), grad = models.loss_and_grads(config, params, seqs, labels)
            outputs.append([features.tobytes(), loss, rows.tobytes(), values.tobytes(),
                            grad.tobytes(), models.score(config, params, seqs).tobytes()])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bad", [42, 99, -1])
    def test_out_of_range_id_in_the_last_position_is_refused(self, bad):
        # past the record's true length, but not padding: the convolution reads it
        config = ModelConfig(arch="cnn", vocab_size=40, max_len=24)
        params = initial_params(config, seed=0)
        seqs = [TokenSequence([2, 3] + [0] * 22, 2), TokenSequence([2, 3] + [0] * 21 + [bad], 2)]
        with pytest.raises(IdOutOfRange):
            encode_features(config, params, seqs)
        with pytest.raises(IdOutOfRange):
            models.score(config, params, seqs)


class TestHead:
    def test_zero_output_layer_gives_uniform(self):
        head = head_params(np.zeros((4, 3)), np.zeros(4), np.zeros((3, 4)), np.zeros(3))
        probs = head_probs([1.0, -2.0, 0.5], head)
        np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-15)

    def test_log_two_bias(self):
        head = head_params(np.zeros((4, 2)), np.zeros(4), np.zeros((3, 4)),
                           [0.0, math.log(2.0), 0.0])
        probs = head_probs([0.0, 0.0], head)
        np.testing.assert_allclose(probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_probabilities_normalized_and_positive(self):
        rng = np.random.default_rng(4)
        head = head_params(rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, 5),
                           rng.uniform(-2, 2, (3, 5)), rng.uniform(-2, 2, 3))
        for _ in range(50):
            probs = head_probs(rng.uniform(-5, 5, 3), head)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs > 0)

    def test_feature_shape_mismatch(self):
        head = head_params(np.zeros((4, 3)), np.zeros(4), np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ShapeMismatch):
            head_probs([1.0, 2.0], head)


class TestPrimitiveValues:
    def test_softmax_of_zeros_is_uniform(self):
        out = models.softmax(np.zeros(3))
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_pointwise_analytic_values(self):
        # the LSTM gates' sigmoid: exact at 0, saturated without overflow
        with np.errstate(over="raise", invalid="raise"):
            values = models._sigmoid(np.array([0.0, -1000.0, 1000.0]))
        np.testing.assert_array_equal(values, [0.5, 0.0, 1.0])

    def test_bias_add_broadcasts_over_rows(self):
        head = head_params(np.ones((2, 3)), np.zeros(2), np.zeros((3, 2)), [1.0, 2.0, 3.0])
        logits, _ = head_logits(np.arange(12.0).reshape(4, 3), head)
        np.testing.assert_array_equal(logits, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_shape_mismatch_messages_carry_both_shapes(self):
        head = head_params(np.zeros((4, 3)), np.zeros(4), np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ShapeMismatch) as exc:
            head_logits(np.ones((2, 5)), head)
        assert "(3,)" in str(exc.value) and "(5,)" in str(exc.value)
        config = ModelConfig(arch="srnn", vocab_size=4, embedding_dim=2, hidden_units=3,
                             head_units=2)
        arrays = {name: np.zeros(shape)
                  for name, shape in models.expected_parameter_shapes(config).items()}
        arrays["srnn.w"] = np.zeros((3, 4))
        with pytest.raises(ShapeMismatch) as exc:
            models.check_parameter_shapes(config, arrays)
        assert "(3, 5)" in str(exc.value) and "(3, 4)" in str(exc.value)

    def test_softmax_stability_and_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-1e3, 1e3, size=(4, 5))
            y = models.softmax(x)
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


class TestBackward:
    """Each layer's hand-derived backward against central differences, and
    the routing rules it must keep."""

    def test_embedding_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        ids = np.array([[3, 1, 3], [0, 2, 3]])
        inputs = {"table": rng.uniform(-1, 1, (5, 2))}

        def forward(p):
            rows, backward = embedding_lookup(ids, p["table"])
            return rows, lambda d: {"table": dense_table(backward(d), p["table"].shape)}
        assert layer_check(forward, inputs) < 1e-6

    def test_shared_weight_accumulates_across_uses(self):
        # one weight serves every step of every row: its gradient sums the
        # contributions of all of them, over unequal packed lengths
        rng = np.random.default_rng(1)
        lengths = np.array([4, 3, 2, 0])
        for arch in ("srnn", "lstm"):
            config = ModelConfig(arch=arch, vocab_size=4, embedding_dim=2, hidden_units=3)
            inputs = {name: array for name, array in random_params(config, rng).items()
                      if name.startswith(arch)}
            inputs["x"] = rng.uniform(-1, 1, (9, 2))  # packed rows of lengths 4, 3, 2, 0

            def forward(p, arch=arch):
                h, backward = models.recurrent_forward(p["x"], lengths, p, arch)

                def grads(d):
                    d_x, named = backward(d)
                    return dict(named, x=d_x)
                return h, grads
            assert layer_check(forward, inputs) < 1e-6, arch

    def test_blstm_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        config = ModelConfig(arch="blstm", vocab_size=4, embedding_dim=2, hidden_units=2)
        inputs = {name: array for name, array in random_params(config, rng).items()
                  if name.startswith("blstm")}
        inputs["x"] = rng.uniform(-1, 1, (8, 2))  # packed lengths 3, 3, 1, 1
        lengths = np.array([3, 3, 1, 1])

        def forward(p):
            h, backward = models.blstm_forward(p["x"], lengths, p)

            def grads(d):
                d_x, named = backward(d)
                return dict(named, x=d_x)
            return h, grads
        assert layer_check(forward, inputs) < 1e-6

    def test_cnn_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        inputs = {"x": rng.uniform(-1, 1, (3, 6, 2)).reshape(-1, 2),
                  "cnn.filters": rng.uniform(-1, 1, (3, 2, 4)), "cnn.bias": rng.uniform(-1, 1, 4)}

        def forward(p):
            out, backward = cnn_forward(p["x"], p["cnn.filters"], p["cnn.bias"], np.full(3, 6))

            def grads(d):
                d_x, named = backward(d)
                return dict(named, x=d_x)
            return out, grads
        assert layer_check(forward, inputs) < 1e-6

    def test_head_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        inputs = head_params(*(rng.uniform(-1, 1, shape) for shape in ((5, 3), 5, (3, 5), 3)))
        inputs["features"] = rng.uniform(-1, 1, (4, 3))
        masks = (rng.random((4, 5)) < 0.7) / 0.7

        def forward(p):
            logits, backward = head_logits(p["features"], p, masks)

            def grads(d):
                d_features, named = backward(d)
                return dict(named, features=d_features)
            return logits, grads
        assert layer_check(forward, inputs) < 1e-6

    def test_disconnected_leaf_keeps_zero_grad(self):
        # embedding rows no record reads, including ids past a recurrent
        # row's true length, get an exactly zero gradient
        config = ModelConfig(arch="lstm", vocab_size=6, embedding_dim=2, hidden_units=3,
                             head_units=2, max_len=4)
        params = random_params(config, np.random.default_rng(5))
        seqs = [TokenSequence([2, 3, 7, 7], 2), TokenSequence([3, 0, 0, 0], 1)]
        _, grads = dense_loss_and_grads(config, params, seqs, [0, 2])
        table = grads["embedding.table"]
        assert np.all(table[[2, 3]] != 0)
        np.testing.assert_array_equal(table[[0, 1, 4, 5, 6, 7]], np.zeros((6, 2)))

    def test_duplicating_a_subgraph_doubles_leaf_gradient(self):
        rng = np.random.default_rng(6)
        head = head_params(*(rng.uniform(-1, 1, shape) for shape in ((4, 3), 4, (3, 4), 3)))
        features = rng.uniform(-1, 1, (1, 3))
        d_logits = rng.uniform(-1, 1, (1, 3))
        _, backward = head_logits(features, head)
        d_single, single = backward(d_logits)
        _, backward = head_logits(np.repeat(features, 2, axis=0), head)
        d_double, double = backward(np.repeat(d_logits, 2, axis=0))
        # a batch of two may round differently from a batch of one in BLAS
        for name in single:
            np.testing.assert_allclose(double[name], 2.0 * single[name], rtol=1e-14, atol=0)
        np.testing.assert_allclose(d_double, np.repeat(d_single, 2, axis=0), rtol=1e-14, atol=0)

    def test_bias_add_gradient_is_column_sum(self):
        rng = np.random.default_rng(7)
        head = head_params(rng.uniform(-1, 1, (4, 3)), np.zeros(4), rng.uniform(-1, 1, (3, 4)),
                           np.zeros(3))
        features = rng.uniform(-1, 1, (5, 3))
        d_logits = rng.uniform(-1, 1, (5, 3))
        _, backward = head_logits(features, head)
        _, grads = backward(d_logits)
        np.testing.assert_array_equal(grads["head.b2"], d_logits.sum(axis=0))
        pre = features @ head["head.w1"].T
        np.testing.assert_array_equal(grads["head.b1"],
                                      ((d_logits @ head["head.w2"]) * (pre > 0)).sum(axis=0))

    def test_gather_with_repeats_accumulates_rows(self):
        rows, backward = embedding_lookup([1, 1, 0], np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(rows, [[2, 3], [2, 3], [0, 1]])
        read, values = backward(np.ones((3, 2)))
        np.testing.assert_array_equal(read, [0, 1])
        np.testing.assert_array_equal(values, [[1, 1], [2, 2]])

    def test_max_routes_gradient_to_first_maximum(self):
        x = np.array([[[1.0], [3.0], [3.0]]])
        out, backward = cnn_forward(x.reshape(-1, 1), np.ones((1, 1, 1)), np.zeros(1),
                                    np.full(1, 3))
        assert out.tolist() == [[3.0]]
        d_x, grads = backward(np.ones((1, 1)))
        np.testing.assert_array_equal(d_x.reshape(x.shape), [[[0.0], [1.0], [0.0]]])
        np.testing.assert_array_equal(grads["cnn.filters"], [[[3.0]]])

    def test_softmax_cross_entropy_gradient_is_p_minus_onehot(self):
        # for one record the output-bias gradient is the logit gradient itself
        seq = TokenSequence([2, 5, 3, 0], 3)
        for arch in models.ARCHITECTURES:
            config = ModelConfig(arch=arch, vocab_size=6, embedding_dim=2, hidden_units=3,
                                 head_units=3, max_len=4, conv_filters=2, conv_kernel=2)
            params = random_params(config, np.random.default_rng(8))
            _, grads = dense_loss_and_grads(config, params, [seq], [2])
            want = models.forward_probs(config, params, seq)
            want[2] -= 1.0
            np.testing.assert_array_equal(grads["head.b2"], want, err_msg=arch)

    def test_deep_unrolled_chain_does_not_recurse(self):
        # a 200-step BLSTM unroll runs forward and backward within a few
        # dozen frames of the caller's stack
        config = ModelConfig(arch="blstm", vocab_size=6, embedding_dim=2, hidden_units=3,
                             head_units=2, max_len=200)
        params = random_params(config, np.random.default_rng(9))
        seq = TokenSequence([2 + i % 6 for i in range(200)], 200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            loss, grads = dense_loss_and_grads(config, params, [seq], [1])
        finally:
            sys.setrecursionlimit(limit)
        assert np.isfinite(loss)
        assert all(np.isfinite(g).all() for g in grads.values())


class TestLossAndGrads:
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_batch_is_the_mean_of_its_records(self, arch):
        # unsorted lengths, with 0, 1, max_len and repeats: the packed batch
        # must give the mean of the one-record losses and gradients
        config = mini_config(arch)
        rng = np.random.default_rng(17)
        params = random_params(config, rng)
        lengths = [3, 0, 6, 1, 3, 6, 2]
        seqs = [TokenSequence(rng.integers(2, 8, n).tolist() + [0] * (6 - n), n) for n in lengths]
        labels = [0, 1, 2, 2, 1, 0, 1]
        masks = (rng.random((len(seqs), config.head_units)) < 0.7) / 0.7
        loss, grads = dense_loss_and_grads(config, params, seqs, labels, masks)
        singles = [dense_loss_and_grads(config, params, [s], [y], m[None])
                   for s, y, m in zip(seqs, labels, masks)]
        assert list(grads) == list(params)
        assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12, abs=0)
        for name, grad in grads.items():
            mean = sum(s[1][name] for s in singles) / len(singles)
            scale = np.max(np.abs(mean))
            assert scale > 0, name
            assert np.max(np.abs(grad - mean)) <= 1e-12 * scale, name

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_scorer_is_the_training_forward(self, arch):
        # at the default sizes (the second case) gemm and per-row gemv differ
        # in the last bits, so the scoring mode must still give the bits of
        # the training forward on a batch of one
        cases = [(mini_config(arch), TokenSequence([2, 3, 4, 0, 0, 0], 3)),
                 (ModelConfig(arch, vocab_size=40, max_len=24),
                  TokenSequence(list(range(2, 21)) + [0] * 5, 19))]
        for config, seq in cases:
            params = initial_params(config, seed=4)
            probs = models.forward_probs(config, params, seq)
            features, _ = encode_features(config, params, [seq])
            np.testing.assert_array_equal(
                probs, models.softmax(models.head_logits(features, params)[0][0]))
            assert probs.shape == (3,) and abs(probs.sum() - 1.0) < 1e-12


class TestPredictClass:
    def test_argmax(self):
        assert predict_class([0.2, 0.5, 0.3]) is OperatorClass.MILITARY

    def test_tie_breaks_low_index(self):
        assert predict_class([0.4, 0.4, 0.2]) is OperatorClass.COMMERCIAL

    def test_one_hot(self):
        assert predict_class([0.0, 0.0, 1.0]) is OperatorClass.PRIVATE

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.uniform(-4, 4, 3)
            shift = rng.uniform(-100, 100)
            a = predict_class(models.softmax(logits))
            b = predict_class(models.softmax(logits + shift))
            assert a is b


class TestInit:
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_same_seed_bitwise_identical(self, arch):
        config = mini_config(arch)
        assert init_params(config, seed=11).tobytes() == init_params(config, seed=11).tobytes()
        a = initial_params(mini_config(arch), seed=11)
        b = initial_params(mini_config(arch), seed=11)
        assert list(a) == list(b) == [spec.name for spec in models.parameter_table(mini_config(arch))]
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_biases_zero_except_forget(self):
        config = mini_config("lstm")
        tensors = models.checkpoint_views(config, init_params(config, seed=0))
        np.testing.assert_array_equal(tensors["lstm.b_f"], np.ones(4))
        for name in ("lstm.b_i", "lstm.b_o", "lstm.b_g", "head.b1", "head.b2"):
            np.testing.assert_array_equal(tensors[name], np.zeros_like(tensors[name]))

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_glorot_bounds(self, arch):
        config = mini_config(arch)
        params = initial_params(config, seed=3)
        h, d = config.hidden_units, config.embedding_dim
        bounds = {
            "embedding.table": 0.05,
            "head.w1": math.sqrt(6 / (config.feature_size + config.head_units)),
            "head.w2": math.sqrt(6 / (config.head_units + 3)),
            "cnn.filters": math.sqrt(6 / (config.conv_kernel * d + config.conv_filters)),
        }
        gate_bound = math.sqrt(6 / ((h + d) + h))
        for name, t in params.items():
            if name.endswith((".b", ".b_f", ".b_i", ".b_o", ".b_g", ".b1", ".b2", "bias")):
                continue
            bound = bounds.get(name, gate_bound)
            assert np.all(np.abs(t) <= bound), name

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_parameters_are_freed_without_the_cycle_collector(self, arch):
        # every training step builds backward closures over its parameters
        # and activations; a reference cycle would keep them alive until the
        # cyclic collector happens to run
        gc.disable()
        try:
            config = mini_config(arch)
            flat = init_params(config, seed=0)
            params = models.parameter_views(config, flat)
            _, table_grad, grad = models.loss_and_grads(
                config, params, [TokenSequence([2, 3, 4, 0, 0, 0], 3)], [1])
            # the embedding gradient is a (rows, values) pair of arrays
            refs = [weakref.ref(array) for array in (flat, *params.values(), *table_grad, grad)]
            del flat, params, table_grad, grad
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    @pytest.mark.parametrize("arch", ["lstm", "blstm"])
    def test_fused_cells_start_at_the_per_gate_init(self, arch):
        # the per-gate initialization that checkpoints name: one Glorot draw
        # per gate matrix in table order, the forget bias at +1
        config = ModelConfig(arch=arch, vocab_size=7, embedding_dim=3, hidden_units=4,
                             head_units=5)
        h, d, u, feat = 4, 3, 5, config.feature_size
        rng = np.random.default_rng(6)

        def glorot(shape, fan_in, fan_out):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, shape)

        want = {"embedding.table": rng.uniform(-0.05, 0.05, (9, d))}
        want["embedding.table"][0] = 0.0
        for prefix in ("lstm",) if arch == "lstm" else ("blstm.fwd", "blstm.bwd"):
            want |= {f"{prefix}.w_{g}": glorot((h, h + d), h + d, h) for g in "fiog"}
            want |= {f"{prefix}.b_{g}": np.full(h, float(g == "f")) for g in "fiog"}
        want |= {"head.w1": glorot((u, feat), feat, u), "head.b1": np.zeros(u),
                 "head.w2": glorot((3, u), u, 3), "head.b2": np.zeros(3)}
        got = models.checkpoint_views(config, init_params(config, seed=6))
        assert list(got) == list(want)
        for name, array in want.items():
            assert got[name].tobytes() == array.tobytes(), name

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_checkpoint_views_round_trip_without_a_copy(self, arch, tmp_path):
        # entry i of the flat vector holds i, so each view's values are its offsets
        config = mini_config(arch)
        flat = np.arange(float(init_params(config, seed=0).size))
        params = models.parameter_views(config, flat)
        tensors = models.checkpoint_views(config, flat)
        assert list(params) == [spec.name for spec in models.parameter_table(config)]
        assert list(tensors) == list(models.expected_parameter_shapes(config))
        for views in (params, tensors):
            start = 0
            for name, view in views.items():
                assert np.shares_memory(view, flat), name
                assert view.tobytes() == flat[start:start + view.size].tobytes(), name
                start += view.size
            assert start == flat.size
        for spec in models.parameter_table(config):
            for name in spec.stored:
                assert np.shares_memory(tensors[name], params[spec.name]), name
        again = models.fuse_checkpoint(config, tensors)
        assert list(again) == list(params)
        for name, array in params.items():
            assert again[name].tobytes() == array.tobytes(), name
        vocab = fit_vocabulary(["engine fire", "pilot error wind"], max_size=config.vocab_size)
        save_checkpoint(ModelCheckpoint(config, vocab, frozenset(), "head", tensors, 1),
                        tmp_path / "model.atxc")
        loaded = load_checkpoint(tmp_path / "model.atxc")
        for name, view in tensors.items():
            assert loaded.tensors[name].tobytes() == view.tobytes(), name
        predictor = Predictor(loaded)
        assert list(predictor.params) == list(params)
        for name, view in params.items():
            assert predictor.params[name].tobytes() == view.tobytes(), name

    def test_padding_row_starts_at_zero(self):
        params = initial_params(mini_config("cnn"), seed=2)
        np.testing.assert_array_equal(params["embedding.table"][0], np.zeros(3))
        assert np.any(params["embedding.table"][1] != 0)


class TestEncodeFeatures:
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_padding_ids_never_change_recurrent_features(self, arch):
        if arch == "cnn":
            pytest.skip("padding participates in the convolution by design")
        config = mini_config(arch)
        params = initial_params(config, seed=13)
        base, _ = encode_features(config, params, [TokenSequence([2, 3, 4, 0, 0, 0], 3)])
        tampered, _ = encode_features(config, params, [TokenSequence([2, 3, 4, 5, 5, 5], 3)])
        np.testing.assert_array_equal(base, tampered)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_feature_size_matches_config(self, arch):
        config = mini_config(arch)
        params = initial_params(config, seed=1)
        feats, _ = encode_features(config, params, [TokenSequence([2, 3, 0, 0, 0, 0], 2)] * 2)
        assert feats.shape == (2, config.feature_size)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_end_to_end_gradients(self, arch):
        config = mini_config(arch)
        rng = np.random.default_rng(21)
        params = random_params(config, rng)
        seq = TokenSequence([2, 5, 3, 2, 0, 0], 4)
        assert gradient_check(
            lambda: dense_loss_and_grads(config, params, [seq], [1]), params) < 1e-4


@st.composite
def scoring_batches(draw):
    """(config, params, seqs): a random model and a batch whose size is
    small or straddles one or two scoring chunks, with repeated records, a
    record of length 0 and records of the full max_len. Ids past a record's
    true length are random too: the recurrent encoders must ignore them."""
    arch = draw(st.sampled_from(models.ARCHITECTURES))
    max_len = draw(st.integers(min_value=3, max_value=9))
    chunk = models.SCORE_CHUNK
    size = draw(st.one_of(st.integers(min_value=1, max_value=6),
                          st.integers(min_value=chunk - 2, max_value=chunk + 2),
                          st.integers(min_value=2 * chunk - 1, max_value=2 * chunk + 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    config = ModelConfig(arch=arch, vocab_size=9, embedding_dim=4, hidden_units=5,
                         head_units=6, max_len=max_len, conv_filters=4,
                         conv_kernel=draw(st.integers(min_value=1, max_value=3)))
    params = {name: 0.5 * array for name, array in random_params(config, rng).items()}

    def record(length):
        return TokenSequence(rng.integers(0, 11, max_len).tolist(), length)

    distinct = [record(0), record(max_len)] + [
        record(int(rng.integers(0, max_len + 1))) for _ in range(max(1, size // 3))]
    seqs = [distinct[i] for i in rng.integers(0, len(distinct), size)]
    seqs[rng.integers(size)] = distinct[0]
    seqs[rng.integers(size)] = distinct[1]
    return config, params, seqs


def scoring_example(arch, seqs, seed=0, **dims):
    """One explicit case in the form `scoring_batches` draws: random
    parameters and `seqs`, at its layer sizes unless `dims` says otherwise."""
    config = ModelConfig(**dict(arch=arch, vocab_size=9, embedding_dim=4, hidden_units=5,
                                head_units=6, max_len=len(seqs[0].ids), conv_filters=4) | dims)
    return config, random_params(config, np.random.default_rng(seed)), seqs


# a hand-built true length past the padded length: read as the whole record
OVERLONG = [TokenSequence([2, 3, 0, 0], 9), TokenSequence([2, 3, 0, 0], 4)]


class TestScore:
    @given(scoring_batches())
    @settings(max_examples=80, deadline=None)
    def test_each_row_is_the_record_scored_alone(self, case):
        # the recurrent step and head products are one gemv per row, so no
        # row depends on its batch; gemm would break this in the last bits
        config, params, seqs = case
        probs = models.score(config, params, seqs)
        assert probs.shape == (len(seqs), 3)
        for row, seq in zip(probs, seqs):
            alone = models.score(config, params, [seq])
            assert np.array_equal(row, alone[0])
            assert np.array_equal(alone[0], models.forward_probs(config, params, seq))

    @given(scoring_batches())
    # an all-padding CNN record: at these sizes a one-window product is a gemv
    # whose bits differ from a gemm row, so `_conv_lengths` must keep two windows
    @example(scoring_example("cnn", [TokenSequence([0] * 6, 0)], seed=19, embedding_dim=2,
                             conv_kernel=1))
    @example(scoring_example("cnn", [TokenSequence([0] * 6, 0)], seed=19, embedding_dim=2,
                             conv_kernel=2))
    @example(scoring_example("srnn", OVERLONG))
    @example(scoring_example("lstm", OVERLONG))
    @example(scoring_example("blstm", OVERLONG))
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_the_per_record_reference(self, case):
        config, params, seqs = case
        probs = models.score(config, params, seqs)
        tensors = models.checkpoint_views(
            config, np.concatenate([p.ravel() for p in params.values()]))
        for row, seq in zip(probs, seqs):
            want = forward_probs_per_record(config.arch, tensors, seq.ids, seq.true_length)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_default_sizes_equal_the_per_record_reference(self, arch):
        # at the default layer sizes a row of a (B, K) @ (K, N) gemm differs
        # from the batch of one for small B
        config = ModelConfig(arch=arch, vocab_size=40, max_len=24)
        flat = init_params(config, seed=2)
        params = models.parameter_views(config, flat)
        rng = np.random.default_rng(2)
        seqs = [TokenSequence(rng.integers(0, 42, 24).tolist(), int(rng.integers(0, 25)))
                for _ in range(models.SCORE_CHUNK + 6)]
        probs = models.score(config, params, seqs)
        tensors = models.checkpoint_views(config, flat)
        for row, seq in zip(probs, seqs):
            want = forward_probs_per_record(arch, tensors, seq.ids, seq.true_length)
            assert np.array_equal(row, want)

    def test_no_records_give_no_rows(self):
        config = mini_config("lstm")
        assert models.score(config, initial_params(config, seed=0), []).shape == (0, 3)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_out_of_range_id_is_refused(self, arch):
        config = mini_config(arch)
        seqs = [TokenSequence([2, 3, 0, 0, 0, 0], 2), TokenSequence([2, 99, 0, 0, 0, 0], 2)]
        with pytest.raises(IdOutOfRange):
            models.score(config, initial_params(config, seed=0), seqs)


class TestGradientCheck:
    def test_linear_map(self):
        rng = np.random.default_rng(1)
        params = {"w": rng.uniform(-2, 2, 6)}
        x = rng.uniform(-2, 2, 6)
        err = gradient_check(lambda: (float(params["w"] @ x), {"w": x}), params)
        assert err < 1e-9

    def test_sigmoid_of_dense_layer(self):
        rng = np.random.default_rng(2)
        params = {"w": rng.uniform(-1, 1, (4, 4)), "b": rng.uniform(-1, 1, 4)}
        x = rng.uniform(-1, 1, 4)

        def fn():
            y = models._sigmoid(params["w"] @ x + params["b"])
            d = y * (1.0 - y)
            return float(y.sum()), {"w": np.outer(d, x), "b": d}

        assert gradient_check(fn, params) < 1e-6

    def test_constant_function_has_zero_error(self):
        params = {"p": np.array([1.0, 2.0])}
        assert gradient_check(lambda: (0.0 * float(params["p"].sum()),
                                       {"p": np.zeros(2)}), params) == 0.0

    def test_composite_primitives(self):
        rng = np.random.default_rng(3)
        params = {"a": rng.uniform(-2, 2, (2, 3)), "b": rng.uniform(-2, 2, (3, 2)),
                  "v": rng.uniform(-2, 2, 2)}

        def fn():
            a, b, v = params["a"], params["b"], params["v"]
            t = np.tanh(a @ b)
            h = t + v
            p = models.softmax(h[1])
            loss = float(np.sum(h * h)) + models.cross_entropy([p], [0])
            d_h = 2.0 * h
            d_h[1] += p - np.eye(2)[0]
            d_ab = d_h * (1.0 - t * t)
            return loss, {"a": d_ab @ b.T, "b": a.T @ d_ab, "v": d_h.sum(axis=0)}

        assert gradient_check(fn, params) < 1e-6

    def test_detects_a_wrong_gradient(self):
        params = {"w": np.array([0.5, -1.5])}
        halved = lambda: (float(np.sum(params["w"] ** 2)), {"w": params["w"]})
        assert gradient_check(halved, params) > 0.4


def _random_chain_error(seed: int) -> float:
    """A random small model of a random architecture, on a random batch with
    lengths from 0 to max_len and an optional dropout mask; returns the
    gradient-check error of loss_and_grads over every parameter."""
    rng = np.random.default_rng(seed)
    arch = models.ARCHITECTURES[seed % len(models.ARCHITECTURES)]
    max_len = int(rng.integers(2, 6))
    config = ModelConfig(arch=arch, vocab_size=int(rng.integers(2, 6)),
                         embedding_dim=int(rng.integers(1, 4)),
                         hidden_units=int(rng.integers(1, 4)), head_units=int(rng.integers(1, 4)),
                         max_len=max_len, conv_filters=int(rng.integers(1, 4)),
                         conv_kernel=int(rng.integers(1, max_len + 1)))
    params = random_params(config, rng)
    seqs = []
    for _ in range(int(rng.integers(1, 5))):
        length = int(rng.integers(0, max_len + 1))
        ids = rng.integers(0, config.vocab_size + 2, max_len).tolist()
        seqs.append(TokenSequence(ids[:length] + [0] * (max_len - length), length))
    labels = rng.integers(0, 3, len(seqs)).tolist()
    masks = None
    if rng.random() < 0.5:
        masks = (rng.random((len(seqs), config.head_units)) < 0.6) / 0.6
    return gradient_check(
        lambda: dense_loss_and_grads(config, params, seqs, labels, masks), params)


@pytest.mark.parametrize("seed", range(20))
def test_random_graphs_match_finite_differences(seed):
    assert _random_chain_error(seed) < 1e-4


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0),
       st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_relu_positive_homogeneity(c, xs):
    # with zero biases the ReLU head is positively homogeneous in its input
    x = np.asarray(xs)[None, :]
    rng = np.random.default_rng(len(xs))
    head = head_params(rng.uniform(-1, 1, (4, x.shape[1])), np.zeros(4),
                       rng.uniform(-1, 1, (3, 4)), np.zeros(3))
    left = head_logits(c * x, head)[0]
    right = c * head_logits(x, head)[0]
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)
