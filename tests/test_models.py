import gc
import math
import weakref

import numpy as np
import pytest

from aerotext import autodiff as ad
from aerotext import models
from aerotext.autodiff import Tensor
from aerotext.corpus import OperatorClass
from aerotext.errors import IdOutOfRange, KernelTooLarge, ShapeMismatch
from aerotext.models import (
    CnnParams,
    HeadParams,
    LstmParams,
    ModelConfig,
    SrnnParams,
    blstm_forward,
    cnn_forward,
    embedding_lookup,
    encode_features,
    init_params,
    lstm_step,
    named_parameters,
    predict_class,
    recurrent_forward,
    srnn_step,
)
from aerotext.textprep import TokenSequence

from oracles import lstm_unroll, srnn_unroll


def tensor(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def head_probs(features, head):
    return ad.softmax(models.head_logits(features, head).data)


def mini_config(arch, vocab_size=6, d=3, h=4, head=5, max_len=6, k=2, filters=3):
    return ModelConfig(arch=arch, vocab_size=vocab_size, embedding_dim=d,
                       hidden_units=h, head_units=head, max_len=max_len,
                       conv_filters=filters, conv_kernel=k)


def random_lstm_params(rng, h, d):
    return LstmParams(*(Tensor(rng.uniform(-1, 1, (h, h + d))) for _ in range(4)),
                      *(Tensor(rng.uniform(-1, 1, h)) for _ in range(4)))


def lstm_as_arrays(p):
    return {"w_f": p.w_f.data, "w_i": p.w_i.data, "w_o": p.w_o.data, "w_g": p.w_g.data,
            "b_f": p.b_f.data, "b_i": p.b_i.data, "b_o": p.b_o.data, "b_g": p.b_g.data}


class TestEmbedding:
    def test_gather_semantics(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup([2, 0], table)
        np.testing.assert_array_equal(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_repeated_id_accumulates_gradient(self):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        table.zero_grad()
        out = embedding_lookup([3, 3], table)
        ad.backward(ad.sum_all(ad.mul(out, tensor([[1.0, 2.0], [3.0, 4.0]]))))
        np.testing.assert_array_equal(table.grad[3], [4.0, 6.0])
        np.testing.assert_array_equal(table.grad[:3], np.zeros((3, 2)))

    def test_id_out_of_range(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(IdOutOfRange):
            embedding_lookup([4], table)
        with pytest.raises(IdOutOfRange):
            embedding_lookup([-1], table)


class TestSrnnStep:
    def test_zero_params_give_zero_state(self):
        p = SrnnParams(tensor(np.zeros((2, 5))), tensor(np.zeros(2)))
        h = srnn_step(tensor(np.ones(2)), tensor(np.ones(3)), p)
        np.testing.assert_array_equal(h.data, [0.0, 0.0])

    def test_scalar_hand_value(self):
        # H = d = 1, W = [0.5, 0.5], b = 0, h_prev = 0.2, x = 0.6 -> tanh(0.4)
        p = SrnnParams(tensor([[0.5, 0.5]]), tensor([0.0]))
        h = srnn_step(tensor([0.2]), tensor([0.6]), p)
        assert float(h.data[0]) == pytest.approx(0.3799489622552249, abs=1e-15)

    def test_zero_weights_constant_map(self):
        b = np.array([0.3, -0.7])
        p = SrnnParams(tensor(np.zeros((2, 4))), tensor(b))
        h1 = srnn_step(tensor([1.0, -1.0]), tensor([2.0, 0.5]), p)
        h2 = srnn_step(tensor([0.0, 9.0]), tensor([-3.0, 1.0]), p)
        np.testing.assert_array_equal(h1.data, np.tanh(b))
        np.testing.assert_array_equal(h1.data, h2.data)


class TestLstmStep:
    def test_zero_params_halve_cell_state(self):
        h, d = 3, 2
        p = LstmParams(*(tensor(np.zeros((h, h + d))) for _ in range(4)),
                       *(tensor(np.zeros(h)) for _ in range(4)))
        c_prev = np.array([0.4, -1.0, 2.0])
        h_t, c_t = lstm_step(tensor(np.zeros(h)), tensor(c_prev), tensor(np.zeros(d)), p)
        np.testing.assert_allclose(c_t.data, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h_t.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_zero_everything_stays_zero(self):
        p = LstmParams(*(tensor(np.zeros((1, 2))) for _ in range(4)),
                       *(tensor(np.zeros(1)) for _ in range(4)))
        h_t, c_t = lstm_step(tensor([0.0]), tensor([0.0]), tensor([0.0]), p)
        assert float(h_t.data[0]) == 0.0 and float(c_t.data[0]) == 0.0

    def test_scalar_hand_values(self):
        # H = d = 1, every gate row [1, 1], biases 0, h = c = 0, x = 1:
        # f = i = o = sigmoid(1), g = tanh(1), c = sigmoid(1)*tanh(1)
        p = LstmParams(*(tensor([[1.0, 1.0]]) for _ in range(4)),
                       *(tensor([0.0]) for _ in range(4)))
        h_t, c_t = lstm_step(tensor([0.0]), tensor([0.0]), tensor([1.0]), p)
        assert float(c_t.data[0]) == pytest.approx(0.5567699411459397, abs=1e-15)
        assert float(h_t.data[0]) == pytest.approx(0.36960635293570576, abs=1e-15)


class TestRecurrentForward:
    def test_empty_sequence_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        p = SrnnParams(tensor(rng.uniform(-1, 1, (3, 5))), tensor(rng.uniform(-1, 1, 3)))
        out = recurrent_forward(tensor(rng.uniform(-1, 1, (4, 2))), 0, p)
        np.testing.assert_array_equal(out.data, np.zeros(3))

    def test_single_step_equals_cell_from_zero_state(self):
        rng = np.random.default_rng(1)
        p = SrnnParams(tensor(rng.uniform(-1, 1, (3, 5))), tensor(rng.uniform(-1, 1, 3)))
        seq = rng.uniform(-1, 1, (4, 2))
        out = recurrent_forward(tensor(seq), 1, p)
        step = srnn_step(tensor(np.zeros(3)), tensor(seq[0]), p)
        np.testing.assert_array_equal(out.data, step.data)

    def test_scalar_triple_unroll(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(-1, 1, (1, 2))
        b = rng.uniform(-1, 1, 1)
        xs = rng.uniform(-1, 1, (3, 1))
        out = recurrent_forward(tensor(xs), 3, SrnnParams(tensor(w), tensor(b)))
        np.testing.assert_allclose(out.data, srnn_unroll(w, b, xs), atol=1e-15)

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
            got = recurrent_forward(tensor(seq), length, SrnnParams(tensor(w), tensor(b)))
            want = srnn_unroll(w, b, seq[:length])
            np.testing.assert_allclose(got.data, want, atol=1e-12, rtol=0)

    def test_lstm_matches_hand_unrolled_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            h = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            length = int(rng.integers(0, 8))
            p = random_lstm_params(rng, h, d)
            seq = rng.uniform(-2, 2, (max(length, 1), d))
            got = recurrent_forward(tensor(seq), length, p)
            want = lstm_unroll(lstm_as_arrays(p), seq[:length])
            np.testing.assert_allclose(got.data, want, atol=1e-12, rtol=0)

    def test_padding_beyond_true_length_never_processed(self):
        rng = np.random.default_rng(5)
        p = random_lstm_params(rng, 3, 2)
        seq = rng.uniform(-1, 1, (6, 2))
        base = recurrent_forward(tensor(seq), 4, p).data
        tampered = seq.copy()
        tampered[4:] = 99.0
        np.testing.assert_array_equal(
            recurrent_forward(tensor(tampered), 4, p).data, base)


class TestBlstm:
    def test_backward_half_is_reversed_forward_run(self):
        rng = np.random.default_rng(6)
        fwd = random_lstm_params(rng, 3, 2)
        bwd = random_lstm_params(rng, 3, 2)
        seq = rng.uniform(-1, 1, (5, 2))
        length = 4
        out = blstm_forward(tensor(seq), length, fwd, bwd)
        rev = recurrent_forward(tensor(seq[:length][::-1].copy()), length, bwd)
        np.testing.assert_array_equal(out.data[3:], rev.data)
        fwd_run = recurrent_forward(tensor(seq), length, fwd)
        np.testing.assert_array_equal(out.data[:3], fwd_run.data)

    def test_single_step_both_halves(self):
        rng = np.random.default_rng(7)
        fwd = random_lstm_params(rng, 2, 3)
        bwd = random_lstm_params(rng, 2, 3)
        seq = rng.uniform(-1, 1, (4, 3))
        out = blstm_forward(tensor(seq), 1, fwd, bwd)
        zero = tensor(np.zeros(2))
        hf, _ = lstm_step(zero, tensor(np.zeros(2)), tensor(seq[0]), fwd)
        hb, _ = lstm_step(tensor(np.zeros(2)), tensor(np.zeros(2)), tensor(seq[0]), bwd)
        np.testing.assert_array_equal(out.data, np.concatenate([hf.data, hb.data]))

    def test_scalar_composed_oracle(self):
        rng = np.random.default_rng(8)
        fwd = random_lstm_params(rng, 1, 1)
        bwd = random_lstm_params(rng, 1, 1)
        seq = rng.uniform(-1, 1, (3, 1))
        out = blstm_forward(tensor(seq), 3, fwd, bwd)
        want = np.concatenate([lstm_unroll(lstm_as_arrays(fwd), seq),
                               lstm_unroll(lstm_as_arrays(bwd), seq[::-1])])
        np.testing.assert_allclose(out.data, want, atol=1e-12, rtol=0)

    def test_empty_sequence(self):
        rng = np.random.default_rng(9)
        fwd = random_lstm_params(rng, 2, 2)
        bwd = random_lstm_params(rng, 2, 2)
        out = blstm_forward(tensor(rng.uniform(-1, 1, (3, 2))), 0, fwd, bwd)
        np.testing.assert_array_equal(out.data, np.zeros(4))


class TestCnn:
    def test_zero_filters_zero_output(self):
        p = CnnParams(tensor(np.zeros((2, 3, 4))), tensor(np.zeros(4)))
        out = cnn_forward(tensor(np.random.default_rng(0).uniform(-1, 1, (5, 3))), 5, p)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_indicator_filter_is_channel_max(self):
        rng = np.random.default_rng(1)
        seq = rng.uniform(-1, 1, (6, 3))
        j = 2
        filters = np.zeros((1, 3, 1))
        filters[0, j, 0] = 1.0
        p = CnnParams(tensor(filters), tensor(np.zeros(1)))
        out = cnn_forward(tensor(seq), 6, p)
        assert float(out.data[0]) == pytest.approx(np.max(np.maximum(seq[:, j], 0.0)),
                                                   abs=0)

    def test_huge_negative_bias_clamps_to_zero(self):
        rng = np.random.default_rng(2)
        p = CnnParams(tensor(rng.uniform(-1, 1, (2, 3, 4))),
                      tensor(np.full(4, -1e6)))
        out = cnn_forward(tensor(rng.uniform(-1, 1, (5, 3))), 5, p)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_kernel_too_large(self):
        p = CnnParams(tensor(np.zeros((4, 2, 1))), tensor(np.zeros(1)))
        with pytest.raises(KernelTooLarge):
            cnn_forward(tensor(np.zeros((3, 2))), 3, p)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(3)
        t, d, k, f = 7, 3, 3, 4
        seq = rng.uniform(-1, 1, (t, d))
        filters = rng.uniform(-1, 1, (k, d, f))
        bias = rng.uniform(-1, 1, f)
        naive = np.full(f, -np.inf)
        for pos in range(t - k + 1):
            window = seq[pos:pos + k]  # (k, d)
            conv = np.einsum("kd,kdf->f", window, filters) + bias
            naive = np.maximum(naive, np.maximum(conv, 0.0))
        out = cnn_forward(tensor(seq), t, CnnParams(tensor(filters), tensor(bias)))
        np.testing.assert_allclose(out.data, naive, atol=1e-12, rtol=0)


class TestHead:
    def test_zero_output_layer_gives_uniform(self):
        head = HeadParams(tensor(np.zeros((4, 3))), tensor(np.zeros(4)),
                          tensor(np.zeros((3, 4))), tensor(np.zeros(3)))
        probs = head_probs(tensor([1.0, -2.0, 0.5]), head)
        np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-15)

    def test_log_two_bias(self):
        head = HeadParams(tensor(np.zeros((4, 2))), tensor(np.zeros(4)),
                          tensor(np.zeros((3, 4))),
                          tensor([0.0, math.log(2.0), 0.0]))
        probs = head_probs(tensor([0.0, 0.0]), head)
        np.testing.assert_allclose(probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_probabilities_normalized_and_positive(self):
        rng = np.random.default_rng(4)
        head = HeadParams(tensor(rng.uniform(-2, 2, (5, 3))), tensor(rng.uniform(-2, 2, 5)),
                          tensor(rng.uniform(-2, 2, (3, 5))), tensor(rng.uniform(-2, 2, 3)))
        for _ in range(50):
            probs = head_probs(tensor(rng.uniform(-5, 5, 3)), head)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs > 0)

    def test_feature_shape_mismatch(self):
        head = HeadParams(tensor(np.zeros((4, 3))), tensor(np.zeros(4)),
                          tensor(np.zeros((3, 4))), tensor(np.zeros(3)))
        with pytest.raises(ShapeMismatch):
            head_probs(tensor([1.0, 2.0]), head)


class TestForwardProbs:
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_records_no_tape_on_trainable_parameters(self, arch, monkeypatch):
        params = init_params(mini_config(arch), seed=4)
        made = []
        real_node = ad._node

        def spy(*args):
            made.append(real_node(*args))
            return made[-1]

        monkeypatch.setattr(ad, "_node", spy)
        probs = models.forward_probs(params, TokenSequence([2, 3, 4, 0, 0, 0], 3))
        assert probs.shape == (3,)
        assert made and not any(t.requires_grad for t in made)


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
        for (name_a, ta), (name_b, tb) in zip(named_parameters(a), named_parameters(b)):
            assert name_a == name_b
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_biases_zero_except_forget(self):
        params = init_params(mini_config("lstm"), seed=0)
        cell = params.cell
        np.testing.assert_array_equal(cell.b_f.data, np.ones(4))
        for t in (cell.b_i, cell.b_o, cell.b_g, params.head.b1, params.head.b2):
            np.testing.assert_array_equal(t.data, np.zeros_like(t.data))

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
        for name, t in named_parameters(params):
            if name.endswith((".b", ".b_f", ".b_i", ".b_o", ".b_g", ".b1", ".b2", "bias")):
                continue
            bound = bounds.get(name, gate_bound)
            assert np.all(np.abs(t.data) <= bound), name

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_parameters_are_freed_without_the_cycle_collector(self, arch):
        # every training run and checkpoint load builds a full parameter set;
        # a reference cycle would keep its tensors and gradients alive until
        # the cyclic collector happens to run
        gc.disable()
        try:
            params = init_params(mini_config(arch), seed=0)
            rebuilt = models.build_params(
                params.config, {name: t.data for name, t in named_parameters(params)})
            refs = [weakref.ref(t.data)
                    for p in (params, rebuilt) for _, t in named_parameters(p)]
            del params, rebuilt
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_padding_row_starts_at_zero(self):
        params = init_params(mini_config("cnn"), seed=2)
        np.testing.assert_array_equal(params.embedding.table.data[0],
                                      np.zeros(3))
        assert np.any(params.embedding.table.data[1] != 0)


class TestEncodeFeatures:
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_padding_ids_never_change_recurrent_features(self, arch):
        if arch == "cnn":
            pytest.skip("padding participates in the convolution by design")
        config = mini_config(arch)
        params = init_params(config, seed=13)
        ids = [2, 3, 4, 0, 0, 0]
        base = encode_features(params, TokenSequence(ids, 3)).data
        tampered = encode_features(params, TokenSequence([2, 3, 4, 5, 5, 5], 3)).data
        np.testing.assert_array_equal(base, tampered)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_feature_size_matches_config(self, arch):
        config = mini_config(arch)
        params = init_params(config, seed=1)
        feats = encode_features(params, TokenSequence([2, 3, 0, 0, 0, 0], 2))
        assert feats.shape == (config.feature_size,)

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_end_to_end_gradients(self, arch):
        # random O(1) parameter point: the Glorot/embedding init scales
        # leave some true gradients below the reach of central differences
        config = mini_config(arch)
        rng = np.random.default_rng(21)
        arrays = {name: rng.uniform(-1.0, 1.0, shape)
                  for name, shape in models.expected_parameter_shapes(config).items()}
        params = models.build_params(config, arrays)
        seq = TokenSequence([2, 5, 3, 2, 0, 0], 4)
        tensors = [t for _, t in named_parameters(params)]

        def fn():
            logits = models.head_logits(encode_features(params, seq), params.head)
            return ad.softmax_cross_entropy(logits, 1)

        assert ad.gradient_check(fn, tensors) < 1e-4
