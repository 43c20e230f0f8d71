"""Gradient checks of the hand-derived backward passes and the shared
softmax."""

import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotext import autodiff as ad
from aerotext import models
from aerotext.errors import ShapeMismatch
from aerotext.models import ModelConfig, cnn_forward, embedding_lookup, head_logits
from aerotext.textprep import TokenSequence

from conftest import (
    dense_loss_and_grads,
    dense_table,
    gradient_check,
    head_params,
    random_params,
)


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


class TestPrimitiveValues:
    def test_softmax_of_zeros_is_uniform(self):
        out = ad.softmax(np.zeros(3))
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
            y = ad.softmax(x)
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
            p = ad.softmax(h[1])
            loss = float(np.sum(h * h)) + ad.cross_entropy(p, 0)
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
