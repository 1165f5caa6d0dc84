"""Unit tests for the neural-network layers, including numeric gradient checks."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.ml import layers
from repro.ml.layers import (
    BatchNorm1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    MaxPool2d,
    ReLU,
    Sequential,
    Softmax,
)
from repro.ml.models import SimpleCNN, clear_evaluation_memo
from repro.ml.optim import SGD


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = f()
        x[idx] = original - eps
        minus = f()
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_rejects_bad_input_dim(self):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 6)))

    def test_rejects_non_2d_input(self):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 4, 1)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_gradient_matches_numeric_weight(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        numeric = numeric_gradient(loss, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-4)

    def test_gradient_matches_numeric_bias(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        numeric = numeric_gradient(loss, layer.bias)
        assert np.allclose(layer.grad_bias, numeric, atol=1e-4)

    def test_gradient_matches_numeric_input(self):
        rng = np.random.default_rng(3)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        grad_input = layer.backward(2 * out)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad_input, numeric, atol=1e-4)

    def test_set_parameters_shape_mismatch(self):
        layer = Dense(3, 2)
        with pytest.raises(ValueError):
            layer.set_parameters([np.zeros((2, 3)), np.zeros(2)])

    def test_set_parameters_replaces_values(self):
        layer = Dense(2, 2)
        new_w = np.full((2, 2), 7.0)
        new_b = np.full(2, -1.0)
        layer.set_parameters([new_w, new_b])
        assert np.allclose(layer.weight, 7.0)
        assert np.allclose(layer.bias, -1.0)


class TestReLU:
    def test_forward_clips_negatives(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0, 0.0]]))
        assert np.allclose(out, [[0.0, 2.0, 0.0]])

    def test_backward_masks_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.allclose(grad, [[0.0, 5.0]])

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 2)))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        layer = Softmax()
        out = layer.forward(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_stable_for_large_logits(self):
        layer = Softmax()
        out = layer.forward(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_backward_matches_numeric(self):
        rng = np.random.default_rng(4)
        layer = Softmax()
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))

        def loss():
            return float((layer.forward(x) * target).sum())

        layer.forward(x)
        grad = layer.backward(target)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad, numeric, atol=1e-5)


class TestFlattenDropout:
    def test_flatten_round_trip(self):
        layer = Flatten()
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert back.shape == x.shape

    def test_dropout_eval_is_identity(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        layer.eval()
        x = np.ones((4, 4))
        assert np.allclose(layer.forward(x), x)

    def test_dropout_training_zeroes_some(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((20, 20)))
        assert (out == 0).any()
        assert not np.allclose(out, 0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_dropout_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(1))
        x = np.ones((10, 10))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(x))
        assert np.allclose((out == 0), (grad == 0))


class TestBatchNorm:
    def test_normalises_batch(self):
        layer = BatchNorm1d(3)
        x = np.random.default_rng(0).normal(loc=5.0, scale=2.0, size=(64, 3))
        out = layer.forward(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm1d(2, momentum=0.5)
        x = np.random.default_rng(1).normal(size=(32, 2))
        layer.forward(x)
        layer.eval()
        out_eval = layer.forward(x[:4])
        assert out_eval.shape == (4, 2)

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            BatchNorm1d(2).forward(np.ones((2, 2, 2)))

    def test_backward_matches_numeric_gamma(self):
        rng = np.random.default_rng(5)
        layer = BatchNorm1d(3)
        x = rng.normal(size=(8, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        numeric = numeric_gradient(loss, layer.gamma)
        assert np.allclose(layer.grad_gamma, numeric, atol=1e-4)


class TestConv2d:
    def test_output_shape_with_padding(self):
        layer = Conv2d(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((2, 3, 8, 8)))
        assert out.shape == (2, 4, 8, 8)

    def test_output_shape_with_stride(self):
        layer = Conv2d(1, 2, kernel_size=3, stride=2, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((1, 1, 7, 7)))
        assert out.shape == (1, 2, 3, 3)

    def test_rejects_wrong_channels(self):
        layer = Conv2d(3, 4, kernel_size=3)
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 2, 8, 8)))

    def test_matches_manual_convolution(self):
        layer = Conv2d(1, 1, kernel_size=2, rng=np.random.default_rng(0))
        layer.weight[...] = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        layer.bias[...] = 0.0
        x = np.arange(9.0).reshape(1, 1, 3, 3)
        out = layer.forward(x)
        expected = np.array([[[[0 + 4, 1 + 5], [3 + 7, 4 + 8]]]], dtype=float)
        assert np.allclose(out, expected)

    def test_gradient_matches_numeric_weight(self):
        rng = np.random.default_rng(6)
        layer = Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 5, 5))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        numeric = numeric_gradient(loss, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-3)

    def test_gradient_matches_numeric_input(self):
        rng = np.random.default_rng(7)
        layer = Conv2d(1, 2, kernel_size=3, rng=rng)
        x = rng.normal(size=(1, 1, 5, 5))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        grad_input = layer.backward(2 * out)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad_input, numeric, atol=1e-3)


class TestMaxPool:
    def test_output_values(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert np.allclose(layer.forward(x), [[[[4.0]]]])

    def test_output_shape(self):
        layer = MaxPool2d(2)
        out = layer.forward(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 3, 4, 4)

    def test_backward_routes_gradient_to_max(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x)
        grad = layer.backward(np.array([[[[10.0]]]]))
        expected = np.array([[[[0.0, 0.0], [0.0, 10.0]]]])
        assert np.allclose(grad, expected)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(8)
        layer = MaxPool2d(2)
        x = rng.normal(size=(1, 2, 4, 4))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        grad = layer.backward(2 * out)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad, numeric, atol=1e-4)


class TestSequential:
    def test_parameter_round_trip(self):
        net = Sequential([Dense(4, 8, rng=np.random.default_rng(0)), ReLU(), Dense(8, 2, rng=np.random.default_rng(1))])
        params = [np.array(p, copy=True) for p in net.parameters()]
        net.set_parameters([np.zeros_like(p) for p in params])
        assert all(np.allclose(p, 0.0) for p in net.parameters())
        net.set_parameters(params)
        assert all(np.allclose(a, b) for a, b in zip(net.parameters(), params))

    def test_set_parameters_wrong_count(self):
        net = Sequential([Dense(2, 2)])
        with pytest.raises(ValueError):
            net.set_parameters([np.zeros((2, 2))])

    def test_empty_sequential_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_train_eval_propagates(self):
        drop = Dropout(0.5)
        net = Sequential([Dense(2, 2), drop])
        net.eval()
        assert drop.training is False
        net.train()
        assert drop.training is True

    def test_forward_backward_chain(self):
        rng = np.random.default_rng(9)
        net = Sequential([Dense(3, 5, rng=rng), ReLU(), Dense(5, 2, rng=rng)])
        x = rng.normal(size=(4, 3))
        out = net.forward(x)
        grad = net.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert len(net.gradients()) == len(net.parameters()) == 4


def reference_im2col(x: np.ndarray, kernel: int, stride: int, padding: int):
    """The original k x k slice-loop im2col, kept as the layout oracle."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for i in range(kernel):
        i_max = i + stride * out_h
        for j in range(kernel):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    return cols, out_h, out_w


def assert_same_layout(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.flags.c_contiguous == expected.flags.c_contiguous
    assert actual.flags.f_contiguous == expected.flags.f_contiguous
    assert np.array_equal(actual, expected)


#: the (C, H, W) inputs of SimpleCNN's two convolutions at the experiments'
#: 8x8 images with the default (6, 16) channels.
SIMPLE_CNN_CONV_INPUTS = ((3, 8, 8), (6, 4, 4))


class TestIm2colOracle:
    @pytest.mark.parametrize("n", [1, 2, 7, 32, 256])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("chw", SIMPLE_CNN_CONV_INPUTS)
    def test_matches_reference_values_and_layout(self, n, stride, padding, chw):
        x = np.random.default_rng(n).normal(size=(n, *chw))
        cols, out_h, out_w = layers._im2col(x, 3, stride, padding)
        ref_cols, ref_h, ref_w = reference_im2col(x, 3, stride, padding)
        assert (out_h, out_w) == (ref_h, ref_w)
        assert_same_layout(cols, ref_cols)

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 256])
    def test_matches_reference_for_pooling_windows(self, n):
        # MaxPool2d runs im2col over (N*C, 1, H, W) with a 2x2, stride-2 window.
        x = np.random.default_rng(n).normal(size=(n, 1, 8, 8))
        assert_same_layout(layers._im2col(x, 2, 2, 0)[0], reference_im2col(x, 2, 2, 0)[0])

    def test_conv_forward_and_backward_bitwise_at_batch_one(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 3, 8, 8))
        grad = rng.normal(size=(1, 6, 8, 8))

        def run():
            layer = Conv2d(3, 6, kernel_size=3, padding=1, rng=np.random.default_rng(0))
            out = layer.forward(x)
            return out, layer.backward(grad), layer.grad_weight, layer.grad_bias

        fast = run()
        monkeypatch.setattr(layers, "_im2col", reference_im2col)
        reference = run()
        for actual, expected in zip(fast, reference):
            assert actual.shape == expected.shape
            assert (actual == expected).all()


def _spatial_layers(model):
    return [layer for layer in model.network.layers if isinstance(layer, (Conv2d, MaxPool2d))]


class TestCacheLifetime:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        clear_evaluation_memo()
        yield
        clear_evaluation_memo()

    def test_evaluate_and_predict_leave_no_cache(self, tiny_image_dataset, small_cnn):
        train, test = tiny_image_dataset
        small_cnn.train_batch(train.x[:8], train.y[:8], SGD(learning_rate=0.01))
        small_cnn.evaluate(test.x, test.y)
        assert all(layer._cache is None for layer in _spatial_layers(small_cnn))
        small_cnn.predict(test.x)
        assert all(layer._cache is None for layer in _spatial_layers(small_cnn))

    def test_train_batch_releases_caches(self, tiny_image_dataset, small_cnn):
        train, _ = tiny_image_dataset
        small_cnn.train_batch(train.x[:8], train.y[:8], SGD(learning_rate=0.01))
        assert all(layer._cache is None for layer in _spatial_layers(small_cnn))

    @pytest.mark.parametrize(
        "layer",
        [Conv2d(2, 3, kernel_size=3, padding=1), MaxPool2d(2)],
        ids=["conv", "pool"],
    )
    def test_backward_after_eval_forward_raises(self, layer):
        x = np.random.default_rng(0).normal(size=(2, 2, 4, 4))
        layer.train()
        layer.forward(x)  # a stale training cache must not survive an eval forward
        layer.eval()
        out = layer.forward(x)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(out))

    def test_retained_memory_does_not_grow_with_models_evaluated(self, tiny_image_dataset):
        _, test = tiny_image_dataset
        models = [SimpleCNN(image_size=8, seed=seed) for seed in range(32)]
        tracemalloc.start()
        try:
            for model in models[:4]:  # warm up numpy's and hashlib's own caches
                model.evaluate(test.x, test.y)
            warm, _ = tracemalloc.get_traced_memory()
            for model in models[4:]:
                model.evaluate(test.x, test.y)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Keeping the eval-mode im2col matrices would retain ~1.1 MB per
        # model here; what is left is a memo key of a few hundred bytes.
        assert (after - warm) / len(models[4:]) < 8 * 1024
