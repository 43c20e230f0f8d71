import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerotext import autodiff as ad
from aerotext.autodiff import Tensor
from aerotext.errors import DisconnectedLoss, NotScalarLoss, ShapeMismatch


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestPrimitiveValues:
    def test_softmax_of_zeros_is_uniform(self):
        out = ad.softmax(np.zeros(3))
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_matmul_identity(self):
        a = np.arange(8.0).reshape(2, 4)
        out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_pointwise_analytic_values(self):
        assert float(ad.sigmoid(Tensor(0.0)).data) == 0.5
        assert float(ad.tanh(Tensor(0.0)).data) == 0.0
        assert float(ad.relu(Tensor(-1.0)).data) == 0.0

    def test_matmul_vector_cases(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = np.array([5.0, 6.0])
        np.testing.assert_array_equal(ad.matmul(Tensor(m), Tensor(v)).data, m @ v)
        np.testing.assert_array_equal(ad.matmul(Tensor(v), Tensor(m)).data, v @ m)
        assert float(ad.matmul(Tensor(v), Tensor(v)).data) == v @ v

    def test_bias_add_broadcasts_over_rows(self):
        m = np.ones((3, 2))
        b = np.array([1.0, 2.0])
        np.testing.assert_array_equal(ad.add(Tensor(m), Tensor(b)).data, m + b)
        np.testing.assert_array_equal(ad.add(Tensor(b), Tensor(m)).data, m + b)

    def test_shape_mismatch_messages_carry_both_shapes(self):
        with pytest.raises(ShapeMismatch) as exc:
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1))))
        assert "(2, 3)" in str(exc.value) and "(2, 1)" in str(exc.value)
        with pytest.raises(ShapeMismatch):
            ad.mul(Tensor(np.ones(3)), Tensor(np.ones(4)))
        with pytest.raises(ShapeMismatch):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_softmax_stability_and_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-1e3, 1e3, size=(4, 5))
            y = ad.softmax(x)
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_concat_and_take(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0])
        np.testing.assert_array_equal(ad.concat_last_axis(a, b).data, [1, 2, 3])
        t = Tensor(np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(ad.take(t, 1).data, [3, 4, 5])
        np.testing.assert_array_equal(ad.take(t, slice(1, 3)).data,
                                      np.arange(12.0).reshape(4, 3)[1:3])
        np.testing.assert_array_equal(ad.take(t, [2, 2, 0]).data,
                                      np.arange(12.0).reshape(4, 3)[[2, 2, 0]])


class TestBackward:
    def test_square_at_three(self):
        x = leaf(3.0)
        ad.backward(ad.mul(x, x))
        assert float(x.grad) == 6.0

    def test_shared_weight_accumulates_across_uses(self):
        w = leaf([1.0, 2.0])
        x1, x2 = Tensor([3.0, 4.0]), Tensor([5.0, 6.0])
        loss = ad.add(ad.matmul(w, x1), ad.matmul(w, x2))
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [8.0, 10.0])

    def test_disconnected_leaf_keeps_zero_grad(self):
        w = leaf([1.0, 1.0])
        w.zero_grad()
        x = leaf(2.0)
        ad.backward(ad.mul(x, x))
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])

    def test_not_scalar_loss(self):
        with pytest.raises(NotScalarLoss):
            ad.backward(ad.relu(leaf([1.0, 2.0])))

    def test_loss_without_parameters_is_disconnected(self):
        with pytest.raises(DisconnectedLoss):
            ad.backward(ad.sum_all(Tensor([1.0, 2.0])))

    def test_duplicating_a_subgraph_doubles_leaf_gradient(self):
        w = leaf(np.array([0.5, -1.5, 2.0]))
        x = Tensor([1.0, 2.0, 3.0])

        def branch():
            return ad.sum_all(ad.tanh(ad.mul(w, x)))

        ad.backward(branch())
        single = w.grad.copy()
        w.zero_grad()
        ad.backward(ad.add(branch(), branch()))
        np.testing.assert_array_equal(w.grad, 2.0 * single)

    def test_bias_add_gradient_is_column_sum(self):
        m = leaf(np.ones((3, 2)))
        b = leaf(np.zeros(2))
        ad.backward(ad.sum_all(ad.add(m, b)))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])
        np.testing.assert_array_equal(m.grad, np.ones((3, 2)))

    def test_gather_with_repeats_accumulates_rows(self):
        t = leaf(np.arange(6.0).reshape(3, 2))
        ad.backward(ad.sum_all(ad.take(t, [1, 1, 0])))
        np.testing.assert_array_equal(t.grad, [[1, 1], [2, 2], [0, 0]])

    def test_max_routes_gradient_to_first_maximum(self):
        t = leaf(np.array([1.0, 3.0, 3.0]))
        ad.backward(ad.max_over_axis(t, axis=0))
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])

    def test_softmax_cross_entropy_gradient_is_p_minus_onehot(self):
        logits = leaf(np.array([0.2, -1.0, 0.7]))
        ad.backward(ad.softmax_cross_entropy(logits, 2))
        e = np.exp(logits.data - logits.data.max())
        p = e / e.sum()
        p[2] -= 1.0
        np.testing.assert_array_equal(logits.grad, p)

    def test_deep_unrolled_chain_does_not_recurse(self):
        # 5000 sequential nodes would blow the interpreter stack if the
        # topological sort were recursive.
        x = leaf(0.1)
        y = x
        for _ in range(5000):
            y = ad.add(y, x)
        ad.backward(y)
        assert float(x.grad) == 5001.0


class TestNoGrad:
    def test_records_nothing_inside_the_block(self):
        w = leaf([1.0, 2.0])
        with ad.no_grad():
            out = ad.sum_all(ad.mul(w, w))
        assert not out.requires_grad and out._parents == ()
        assert ad.sum_all(ad.mul(w, w)).requires_grad

    def test_recording_resumes_after_an_exception(self):
        w = leaf([1.0, 2.0])
        with pytest.raises(ShapeMismatch):
            with ad.no_grad():
                ad.mul(w, leaf([1.0]))
        assert ad.mul(w, w).requires_grad


class TestGradientCheck:
    def test_linear_map(self):
        rng = np.random.default_rng(1)
        w = leaf(rng.uniform(-2, 2, 6))
        x = Tensor(rng.uniform(-2, 2, 6))
        err = ad.gradient_check(lambda: ad.matmul(w, x), [w])
        assert err < 1e-9

    def test_sigmoid_of_dense_layer(self):
        rng = np.random.default_rng(2)
        w = leaf(rng.uniform(-1, 1, (4, 4)))
        b = leaf(rng.uniform(-1, 1, 4))
        x = Tensor(rng.uniform(-1, 1, 4))

        def fn():
            return ad.sum_all(ad.sigmoid(ad.add(ad.matmul(w, x), b)))

        assert ad.gradient_check(fn, [w, b]) < 1e-6

    def test_constant_function_has_zero_error(self):
        p = leaf([1.0, 2.0])
        zero = Tensor([0.0, 0.0])
        assert ad.gradient_check(lambda: ad.sum_all(ad.mul(p, zero)), [p]) == 0.0

    def test_composite_primitives(self):
        rng = np.random.default_rng(3)
        a = leaf(rng.uniform(-2, 2, (2, 3)))
        b = leaf(rng.uniform(-2, 2, (3, 2)))
        v = leaf(rng.uniform(-2, 2, 2))

        def fn():
            h = ad.tanh(ad.matmul(a, b))
            h = ad.add(h, v)
            return ad.add(ad.sum_all(ad.mul(h, h)),
                          ad.softmax_cross_entropy(ad.take(h, 1), 0))

        assert ad.gradient_check(fn, [a, b, v]) < 1e-6


def _random_graph_error(seed: int) -> float:
    """Build a random composite of primitives (depth <= 6) and return the
    gradient-check error over all leaves. Leaf magnitudes stay in
    [0.25, 2] to keep finite differences away from relu/max kinks."""
    rng = np.random.default_rng(seed)
    shape = (2, 3)
    leaves = []

    def new_leaf():
        signs = rng.choice([-1.0, 1.0], size=shape)
        t = leaf(signs * rng.uniform(0.25, 2.0, shape))
        leaves.append(t)
        return t

    root = new_leaf()
    # pre-draw the plan (op kind + partner leaf) so build() is deterministic
    plan = []
    for _ in range(int(rng.integers(2, 7))):
        kind = int(rng.integers(6))
        plan.append((kind, new_leaf() if kind in (3, 4) else None))
    # a final elementwise weight, so the loss is not a plain sum of the last op
    weight = new_leaf()

    def build():
        x = root
        for kind, partner in plan:
            if kind == 0:
                x = ad.tanh(x)
            elif kind == 1:
                x = ad.sigmoid(x)
            elif kind == 2:
                x = ad.take(x, [1, 0])  # row-reversing gather, as the BLSTM uses
            elif kind == 3:
                x = ad.mul(x, partner)
            elif kind == 4:
                x = ad.add(x, partner)
            else:
                x = ad.relu(x)
        return ad.sum_all(ad.mul(x, weight))

    return ad.gradient_check(build, leaves)


@pytest.mark.parametrize("seed", range(20))
def test_random_graphs_match_finite_differences(seed):
    assert _random_graph_error(seed) < 1e-4


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0),
       st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_relu_positive_homogeneity(c, xs):
    x = np.asarray(xs)
    left = ad.relu(Tensor(c * x)).data
    right = c * ad.relu(Tensor(x)).data
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 4), (2, 3, 2)])
    def test_round_trip(self, shape, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal(shape)
        path = tmp_path / "t.bin"
        with open(path, "wb") as f:
            ad.write_tensor(f, arr)
        with open(path, "rb") as f:
            back = ad.read_tensor(f)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_layout_is_rank_dims_then_le_floats(self):
        import io
        buf = io.BytesIO()
        ad.write_tensor(buf, np.array([[1.0, 2.0]]))
        raw = buf.getvalue()
        assert raw[:8] == (2).to_bytes(8, "little")
        assert raw[8:16] == (1).to_bytes(8, "little")
        assert raw[16:24] == (2).to_bytes(8, "little")
        assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.0, 2.0]

    def test_truncated_stream_raises(self):
        import io
        buf = io.BytesIO()
        ad.write_tensor(buf, np.ones(4))
        with pytest.raises(EOFError):
            ad.read_tensor(io.BytesIO(buf.getvalue()[:-8]))
