"""Tests for model containers, the registry and evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import models
from repro.ml.layers import BatchNorm1d, Dense, ReLU, Sequential
from repro.ml.losses import CrossEntropyLoss
from repro.ml.metrics import accuracy_score, evaluate_model, top_k_accuracy
from repro.ml.models import (
    MLP,
    MiniVGG,
    Model,
    SimpleCNN,
    available_models,
    build_model,
    clear_evaluation_memo,
    count_parameters,
)
from repro.ml.optim import SGD


class TestMLP:
    def test_training_reduces_loss(self, tabular_dataset):
        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        losses = model.fit(
            tabular_dataset.x,
            tabular_dataset.y,
            epochs=5,
            batch_size=32,
            optimizer=SGD(learning_rate=0.05),
            rng=np.random.default_rng(0),
        )
        assert losses[-1] < losses[0]

    def test_learns_separable_data(self, tabular_dataset):
        model = MLP(input_dim=10, hidden_dims=(32,), num_classes=3, seed=1)
        model.fit(
            tabular_dataset.x,
            tabular_dataset.y,
            epochs=20,
            batch_size=32,
            optimizer=SGD(learning_rate=0.1),
            rng=np.random.default_rng(1),
        )
        _, accuracy = model.evaluate(tabular_dataset.x, tabular_dataset.y)
        assert accuracy > 0.8

    def test_clone_copies_weights(self):
        model = MLP(input_dim=4, num_classes=2, seed=0)
        clone = model.clone()
        for a, b in zip(model.get_weights(), clone.get_weights()):
            assert np.allclose(a, b)

    def test_clone_is_independent(self):
        model = MLP(input_dim=4, num_classes=2, seed=0)
        clone = model.clone()
        clone.set_weights([np.zeros_like(w) for w in clone.get_weights()])
        assert not all(np.allclose(a, 0) for a in model.get_weights())

    def test_fit_rejects_mismatched_xy(self):
        model = MLP(input_dim=4, num_classes=2, seed=0)
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 4)), np.zeros(2, dtype=int))

    def test_evaluate_empty_raises(self):
        model = MLP(input_dim=4, num_classes=2, seed=0)
        with pytest.raises(ValueError):
            model.evaluate(np.zeros((0, 4)), np.zeros(0, dtype=int))


class TestCNNModels:
    def test_simple_cnn_forward_shape(self, small_cnn, tiny_image_dataset):
        train, _ = tiny_image_dataset
        logits = small_cnn.predict(train.x[:4])
        assert logits.shape == (4, 10)

    def test_simple_cnn_weight_round_trip(self, small_cnn):
        weights = small_cnn.get_weights()
        small_cnn.set_weights([np.zeros_like(w) for w in weights])
        small_cnn.set_weights(weights)
        for a, b in zip(small_cnn.get_weights(), weights):
            assert np.allclose(a, b)

    def test_set_weights_shape_mismatch(self, small_cnn):
        weights = small_cnn.get_weights()
        weights[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            small_cnn.set_weights(weights)

    def test_simple_cnn_learns(self, tiny_image_dataset):
        train, test = tiny_image_dataset
        model = SimpleCNN(image_size=8, num_classes=10, conv_channels=(6, 12), hidden_dim=32, seed=0)
        model.fit(train.x, train.y, epochs=6, batch_size=16, optimizer=SGD(0.05, momentum=0.9), rng=np.random.default_rng(0))
        _, accuracy = model.evaluate(test.x, test.y)
        assert accuracy > 0.5

    def test_mini_vgg_shapes_and_params(self):
        model = MiniVGG(image_size=16, num_classes=20, base_channels=4, hidden_dim=32, seed=0)
        assert model.num_parameters() > 1000
        out = model.predict(np.random.default_rng(0).normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 20)

    def test_mini_vgg_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            MiniVGG(image_size=2, num_classes=10)

    def test_simple_cnn_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            SimpleCNN(image_size=2, num_classes=10)

    def test_predict_classes_matches_argmax(self, small_cnn, tiny_image_dataset):
        train, _ = tiny_image_dataset
        logits = small_cnn.predict(train.x[:6])
        assert np.array_equal(small_cnn.predict_classes(train.x[:6]), logits.argmax(axis=1))


def count_forwards(model: Model) -> list:
    """Record every batch the model's network runs forward (one entry each)."""
    calls: list = []
    forward = model.network.forward

    def counting(x):
        calls.append(len(x))
        return forward(x)

    model.network.forward = counting
    return calls


class _OtherCrossEntropy(CrossEntropyLoss):
    """Same arithmetic as its parent; only its type differs."""


class _OtherMLP(MLP):
    """Same network and config as MLP; only its class differs."""


class _NormMLP(Model):
    """A configured model whose evaluation reads BatchNorm running statistics."""

    def __init__(self):
        self._config = dict(width=6)
        rng = np.random.default_rng(0)
        network = Sequential([Dense(10, 6, rng=rng), BatchNorm1d(6), ReLU(), Dense(6, 3, rng=rng)])
        super().__init__(network, 3, (10,))


class TestEvaluationMemo:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        clear_evaluation_memo()
        yield
        clear_evaluation_memo()

    @pytest.fixture()
    def data(self, tabular_dataset):
        return tabular_dataset.x[:64], tabular_dataset.y[:64]

    def test_hit_returns_the_uncached_result(self, data):
        x, y = data
        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        first = model.evaluate(x, y)
        calls = count_forwards(model)
        assert model.evaluate(x, y) == first
        assert calls == []
        clear_evaluation_memo()
        assert model.evaluate(x, y) == first
        assert calls == [64]

    @pytest.mark.parametrize(
        "change",
        ["weights", "x", "y", "batch_size", "loss", "model_class"],
    )
    def test_each_key_part_causes_a_miss(self, data, change):
        x, y = data
        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        model.evaluate(x, y)
        batch_size, loss_fn = 256, None
        if change == "weights":
            weights = model.get_weights()
            weights[0][0, 0] += 1e-3
            model.set_weights(weights)
        elif change == "x":
            x = x.copy()
            x[0, 0] += 1e-3
        elif change == "y":
            y = (y + 1) % 3
        elif change == "batch_size":
            batch_size = 32
        elif change == "loss":
            loss_fn = _OtherCrossEntropy()
        else:
            other = _OtherMLP(input_dim=10, hidden_dims=(16,), num_classes=3)
            other.set_weights(model.get_weights())
            model = other
        calls = count_forwards(model)
        result = model.evaluate(x, y, batch_size=batch_size, loss_fn=loss_fn)
        assert calls, f"changing {change} must miss the memo"
        clear_evaluation_memo()
        assert model.evaluate(x, y, batch_size=batch_size, loss_fn=loss_fn) == result

    def test_dtype_is_part_of_the_key(self, data):
        x, y = data
        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        model.evaluate(x, y)
        calls = count_forwards(model)
        model.evaluate(x, y.astype(np.int32))
        assert calls

    def test_capacity_is_bounded_lru(self, data, monkeypatch):
        monkeypatch.setattr(models, "_EVAL_MEMO_CAPACITY", 3)
        x, y = data
        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        for batch_size in (8, 16, 32, 64):
            model.evaluate(x, y, batch_size=batch_size)
        assert len(models._eval_memo) == 3
        calls = count_forwards(model)
        model.evaluate(x, y, batch_size=64)  # newest: still cached
        assert calls == []
        model.evaluate(x, y, batch_size=8)  # oldest: evicted
        assert calls == [8] * 8

    def test_batchnorm_network_bypasses_the_memo(self, data):
        x, y = data
        model = _NormMLP()
        first = model.evaluate(x, y)
        assert len(models._eval_memo) == 0
        model.network.layers[1].running_mean += 0.5
        calls = count_forwards(model)
        second = model.evaluate(x, y)
        assert calls == [64]
        assert second != first

    def test_model_without_config_bypasses_the_memo(self, data):
        x, y = data
        model = Model(Sequential([Dense(10, 3, rng=np.random.default_rng(0))]), 3, (10,))
        model.evaluate(x, y)
        assert len(models._eval_memo) == 0


class TestRegistry:
    def test_available_models_listed(self):
        names = available_models()
        assert "simple_cnn" in names and "mini_vgg" in names and "mlp" in names

    def test_build_model_by_name(self):
        model = build_model("simple_cnn", image_size=8, num_classes=10, seed=0)
        assert isinstance(model, SimpleCNN)

    def test_build_model_alias(self):
        model = build_model("vgg", image_size=16, num_classes=5, seed=0)
        assert isinstance(model, MiniVGG)

    def test_build_model_unknown(self):
        with pytest.raises(ValueError):
            build_model("resnet50")

    def test_count_parameters(self):
        model = MLP(input_dim=4, hidden_dims=(8,), num_classes=2, seed=0)
        expected = 4 * 8 + 8 + 8 * 2 + 2
        assert count_parameters(model) == expected


class TestMetrics:
    def test_accuracy_score(self):
        assert accuracy_score(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_score_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([]), np.array([]))

    def test_accuracy_score_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([1]), np.array([1, 2]))

    def test_top_k_accuracy_includes_lower_ranked(self):
        logits = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
        y = np.array([2, 2])
        assert top_k_accuracy(y, logits, k=1) == 0.0
        assert top_k_accuracy(y, logits, k=2) == 1.0

    def test_top_k_accuracy_k_clipped(self):
        logits = np.array([[0.1, 0.9]])
        assert top_k_accuracy(np.array([0]), logits, k=10) == 1.0

    def test_top_k_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.array([0]), np.array([[1.0, 2.0]]), k=0)

    def test_evaluate_model_keys(self, small_cnn, tiny_image_dataset):
        _, test = tiny_image_dataset
        report = evaluate_model(small_cnn, test.x, test.y)
        assert set(report) == {"loss", "accuracy", "top5_accuracy"}
        assert report["top5_accuracy"] >= report["accuracy"]
