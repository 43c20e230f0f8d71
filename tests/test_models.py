import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotext import autodiff as ad
from aerotext import models
from aerotext.corpus import OperatorClass
from aerotext.errors import IdOutOfRange, KernelTooLarge, ShapeMismatch
from aerotext.models import (
    ModelConfig,
    blstm_forward,
    cnn_forward,
    embedding_lookup,
    encode_features,
    init_params,
    predict_class,
    recurrent_forward,
)
from aerotext.textprep import TokenSequence

from conftest import dense_grads, dense_loss_and_grads, head_params, random_params
from oracles import forward_probs_per_record, lstm_unroll, srnn_unroll


def head_probs(features, head):
    return ad.softmax(models.head_logits(np.asarray(features, dtype=np.float64)[None, :],
                                         head)[0][0])


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
        out, _ = cnn_forward(x, np.zeros((2, 3, 4)), np.zeros(4))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_indicator_filter_is_channel_max(self):
        rng = np.random.default_rng(1)
        seq = rng.uniform(-1, 1, (6, 3))
        j = 2
        filters = np.zeros((1, 3, 1))
        filters[0, j, 0] = 1.0
        out, _ = cnn_forward(seq[None], filters, np.zeros(1))
        assert float(out[0, 0]) == pytest.approx(np.max(np.maximum(seq[:, j], 0.0)), abs=0)

    def test_huge_negative_bias_clamps_to_zero(self):
        rng = np.random.default_rng(2)
        out, _ = cnn_forward(rng.uniform(-1, 1, (1, 5, 3)), rng.uniform(-1, 1, (2, 3, 4)),
                             np.full(4, -1e6))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_kernel_too_large(self):
        with pytest.raises(KernelTooLarge):
            cnn_forward(np.zeros((1, 3, 2)), np.zeros((4, 2, 1)), np.zeros(1))

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(3)
        t, d, k, f = 7, 3, 3, 4
        batch = rng.uniform(-1, 1, (2, t, d))
        filters = rng.uniform(-1, 1, (k, d, f))
        bias = rng.uniform(-1, 1, f)
        out, _ = cnn_forward(batch, filters, bias)
        for seq, got in zip(batch, out):
            naive = np.full(f, -np.inf)
            for pos in range(t - k + 1):
                window = seq[pos:pos + k]  # (k, d)
                conv = np.einsum("kd,kdf->f", window, filters) + bias
                naive = np.maximum(naive, np.maximum(conv, 0.0))
            np.testing.assert_allclose(got, naive, atol=1e-12, rtol=0)


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
        loss, grads = models.loss_and_grads(config, params, seqs, labels, masks)
        grads = dense_grads(grads, params)
        singles = [models.loss_and_grads(config, params, [s], [y], m[None])
                   for s, y, m in zip(seqs, labels, masks)]
        singles = [(value, dense_grads(named, params)) for value, named in singles]
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
            params = init_params(config, seed=4)
            probs = models.forward_probs(config, params, seq)
            features, _ = encode_features(config, params, [seq])
            np.testing.assert_array_equal(
                probs, ad.softmax(models.head_logits(features, params)[0][0]))
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
            a = predict_class(ad.softmax(logits))
            b = predict_class(ad.softmax(logits + shift))
            assert a is b


class TestInit:
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_same_seed_bitwise_identical(self, arch):
        a = init_params(mini_config(arch), seed=11)
        b = init_params(mini_config(arch), seed=11)
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
        params = init_params(config, seed=3)
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
            params = init_params(config, seed=0)
            _, grads = models.loss_and_grads(config, params,
                                             [TokenSequence([2, 3, 4, 0, 0, 0], 3)], [1])
            # the embedding gradient is a (rows, values) pair of arrays
            refs = [weakref.ref(array) for d in (params, grads) for value in d.values()
                    for array in (value if isinstance(value, tuple) else (value,))]
            del params, grads
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
    def test_checkpoint_views_round_trip_without_a_copy(self, arch):
        config = mini_config(arch)
        rng = np.random.default_rng(12)
        tensors = {name: rng.uniform(-1, 1, shape)
                   for name, shape in models.expected_parameter_shapes(config).items()}
        params = models.fuse_checkpoint(config, tensors)
        views = models.checkpoint_views(config, params)
        assert list(views) == list(tensors)
        for spec in models.parameter_table(config):
            for name in spec.stored:
                assert views[name].tobytes() == tensors[name].tobytes(), name
                assert np.shares_memory(views[name], params[spec.name]), name
        again = models.fuse_checkpoint(config, views)
        assert list(again) == list(params)
        for name, array in params.items():
            assert again[name].tobytes() == array.tobytes(), name

    def test_padding_row_starts_at_zero(self):
        params = init_params(mini_config("cnn"), seed=2)
        np.testing.assert_array_equal(params["embedding.table"][0], np.zeros(3))
        assert np.any(params["embedding.table"][1] != 0)


class TestEncodeFeatures:
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_padding_ids_never_change_recurrent_features(self, arch):
        if arch == "cnn":
            pytest.skip("padding participates in the convolution by design")
        config = mini_config(arch)
        params = init_params(config, seed=13)
        base, _ = encode_features(config, params, [TokenSequence([2, 3, 4, 0, 0, 0], 3)])
        tampered, _ = encode_features(config, params, [TokenSequence([2, 3, 4, 5, 5, 5], 3)])
        np.testing.assert_array_equal(base, tampered)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_feature_size_matches_config(self, arch):
        config = mini_config(arch)
        params = init_params(config, seed=1)
        feats, _ = encode_features(config, params, [TokenSequence([2, 3, 0, 0, 0, 0], 2)] * 2)
        assert feats.shape == (2, config.feature_size)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_end_to_end_gradients(self, arch):
        config = mini_config(arch)
        rng = np.random.default_rng(21)
        params = random_params(config, rng)
        seq = TokenSequence([2, 5, 3, 2, 0, 0], 4)
        assert ad.gradient_check(
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
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_the_per_record_reference(self, case):
        config, params, seqs = case
        probs = models.score(config, params, seqs)
        tensors = models.checkpoint_views(config, params)
        for row, seq in zip(probs, seqs):
            want = forward_probs_per_record(config.arch, tensors, seq.ids, seq.true_length)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_default_sizes_equal_the_per_record_reference(self, arch):
        # at the default layer sizes a row of a (B, K) @ (K, N) gemm differs
        # from the batch of one for small B
        config = ModelConfig(arch=arch, vocab_size=40, max_len=24)
        params = init_params(config, seed=2)
        rng = np.random.default_rng(2)
        seqs = [TokenSequence(rng.integers(0, 42, 24).tolist(), int(rng.integers(0, 25)))
                for _ in range(models.SCORE_CHUNK + 6)]
        probs = models.score(config, params, seqs)
        tensors = models.checkpoint_views(config, params)
        for row, seq in zip(probs, seqs):
            want = forward_probs_per_record(arch, tensors, seq.ids, seq.true_length)
            assert np.array_equal(row, want)

    def test_no_records_give_no_rows(self):
        config = mini_config("lstm")
        assert models.score(config, init_params(config, seed=0), []).shape == (0, 3)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_out_of_range_id_is_refused(self, arch):
        config = mini_config(arch)
        seqs = [TokenSequence([2, 3, 0, 0, 0, 0], 2), TokenSequence([2, 99, 0, 0, 0, 0], 2)]
        with pytest.raises(IdOutOfRange):
            models.score(config, init_params(config, seed=0), seqs)
