"""Model definitions used in the UnifyFL evaluation.

The paper trains two workloads (Table 4):

* a lightweight CNN with roughly 62K parameters on CIFAR-10 for the edge
  cluster, and
* VGG16 (138M parameters) on Tiny ImageNet for the GPU cluster.

Training a 138M-parameter network is neither feasible nor necessary for
reproducing the federated *dynamics* the paper measures, so :class:`MiniVGG`
keeps the VGG block structure (stacked 3x3 convolutions with max-pooling and a
fully connected head) at a width that trains in seconds on a CPU.  The
substitution is recorded in DESIGN.md.

:meth:`Model.evaluate` is memoized by content.  Aggregators evaluate an
unchanged global model round after round and every scorer evaluates the
same peer models on its own test set, so a bounded LRU returns the
``(loss, accuracy)`` computed the first time.  Its key is the model class
and config, :func:`~repro.ml.serialization.weights_fingerprint` of the
parameters and of ``x`` and ``y`` (plus their dtypes), the batch size and
the loss type.  A forward pass is a pure function of that key, so the memo
cannot change a result.  Networks that read other state at evaluation time
(``BatchNorm1d`` running statistics), models without a config and losses
carrying their own settings bypass it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.ml.layers import (
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.ml.losses import CrossEntropyLoss, Loss
from repro.ml.optim import Optimizer, SGD
from repro.ml.serialization import weights_fingerprint

#: evaluation key -> (loss, accuracy); bounded so a long run keeps only the
#: recent models' results.
_EVAL_MEMO_CAPACITY = 256
_eval_memo: "OrderedDict[Hashable, Tuple[float, float]]" = OrderedDict()


def clear_evaluation_memo() -> None:
    """Drop every memoized evaluation (test isolation hook)."""
    _eval_memo.clear()


class Model:
    """A trainable classifier wrapping a :class:`Sequential` network.

    The model exposes the weight-list interface used throughout the
    federated-learning stack: :meth:`get_weights` returns copies of every
    parameter tensor and :meth:`set_weights` installs a compatible list.
    """

    def __init__(self, network: Sequential, num_classes: int, input_shape: Tuple[int, ...]):
        self.network = network
        self.num_classes = num_classes
        self.input_shape = tuple(input_shape)

    # -- parameter exchange -------------------------------------------------
    def get_weights(self) -> List[np.ndarray]:
        """Copies of every trainable parameter tensor, in layer order."""
        return [np.array(p, copy=True) for p in self.network.parameters()]

    def set_weights(self, weights: List[np.ndarray]) -> None:
        """Install a weight list previously produced by :meth:`get_weights`."""
        self.network.set_parameters(weights)

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(int(np.prod(p.shape)) for p in self.network.parameters()))

    # -- training / inference ----------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return raw logits for a batch of inputs (evaluation mode)."""
        self.network.eval()
        logits = self.network.forward(x)
        self.network.train()
        return logits

    def predict_classes(self, x: np.ndarray) -> np.ndarray:
        """Return the argmax class label for each input."""
        return self.predict(x).argmax(axis=1)

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optimizer,
        loss_fn: Optional[Loss] = None,
    ) -> float:
        """Run a single optimisation step on one minibatch and return its loss."""
        loss_fn = loss_fn or CrossEntropyLoss()
        self.network.train()
        logits = self.network.forward(x)
        loss, grad = loss_fn.forward(logits, y)
        self.network.backward(grad)
        optimizer.step(self.network.parameters(), self.network.gradients())
        return loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        optimizer: Optional[Optimizer] = None,
        loss_fn: Optional[Loss] = None,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
    ) -> List[float]:
        """Train for ``epochs`` passes over (x, y); returns mean loss per epoch."""
        if len(x) != len(y):
            raise ValueError("x and y must have the same number of samples")
        if len(x) == 0:
            return []
        optimizer = optimizer or SGD(learning_rate=0.01)
        loss_fn = loss_fn or CrossEntropyLoss()
        rng = rng or np.random.default_rng(0)
        epoch_losses: List[float] = []
        n = len(x)
        for _ in range(epochs):
            order = rng.permutation(n) if shuffle else np.arange(n)
            losses: List[float] = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                losses.append(self.train_batch(x[idx], y[idx], optimizer, loss_fn))
            epoch_losses.append(float(np.mean(losses)))
        return epoch_losses

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256, loss_fn: Optional[Loss] = None
    ) -> Tuple[float, float]:
        """Return (loss, accuracy) over a labelled evaluation set."""
        if len(x) != len(y):
            raise ValueError("x and y must have the same number of samples")
        if len(x) == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        loss_fn = loss_fn or CrossEntropyLoss()
        key = self._evaluation_key(x, y, batch_size, loss_fn)
        cached = _eval_memo.get(key) if key is not None else None
        if cached is not None:
            _eval_memo.move_to_end(key)
            return cached
        self.network.eval()
        total_loss = 0.0
        correct = 0
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.network.forward(xb)
            loss, _ = loss_fn.forward(logits, yb)
            total_loss += loss * len(xb)
            correct += int((logits.argmax(axis=1) == yb).sum())
        self.network.train()
        result = (total_loss / len(x), correct / len(x))
        if key is not None:
            _eval_memo[key] = result
            if len(_eval_memo) > _EVAL_MEMO_CAPACITY:
                _eval_memo.popitem(last=False)
        return result

    def _evaluation_key(
        self, x: np.ndarray, y: np.ndarray, batch_size: int, loss_fn: Loss
    ) -> Optional[Hashable]:
        """The memo key of one :meth:`evaluate` call, or None to bypass the memo."""
        config = getattr(self, "_config", None)
        if config is None or self.network.has_eval_state() or vars(loss_fn):
            return None
        return (
            type(self),
            tuple(sorted(config.items())),
            weights_fingerprint(self.network.parameters()),
            # The fingerprint hashes a float64 copy of exotic dtypes.
            x.dtype,
            y.dtype,
            weights_fingerprint([x, y]),
            batch_size,
            type(loss_fn),
        )

    def clone(self, rng: Optional[np.random.Generator] = None) -> "Model":
        """Create a structurally identical model carrying a copy of the weights."""
        raise NotImplementedError("clone is provided by concrete model classes")


class MLP(Model):
    """Multi-layer perceptron over flattened inputs; used in unit tests."""

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Tuple[int, ...] = (32,),
        num_classes: int = 2,
        seed: Optional[int] = None,
    ):
        self._config = dict(input_dim=input_dim, hidden_dims=tuple(hidden_dims), num_classes=num_classes)
        rng = np.random.default_rng(seed)
        layers: List[Layer] = []
        prev = input_dim
        for hidden in hidden_dims:
            layers.append(Dense(prev, hidden, rng=rng))
            layers.append(ReLU())
            prev = hidden
        layers.append(Dense(prev, num_classes, rng=rng))
        super().__init__(Sequential(layers), num_classes, (input_dim,))

    def clone(self, rng: Optional[np.random.Generator] = None) -> "MLP":
        copy = MLP(**self._config)
        copy.set_weights(self.get_weights())
        return copy


class SimpleCNN(Model):
    """The lightweight CNN of the paper's CIFAR-10 edge workload (~62K params).

    Structure: two convolution + pooling blocks followed by two dense layers,
    matching the classic Flower/McMahan CIFAR example the paper bases its
    62K-parameter count on.
    """

    def __init__(
        self,
        in_channels: int = 3,
        image_size: int = 16,
        num_classes: int = 10,
        conv_channels: Tuple[int, int] = (6, 16),
        hidden_dim: int = 64,
        seed: Optional[int] = None,
    ):
        self._config = dict(
            in_channels=in_channels,
            image_size=image_size,
            num_classes=num_classes,
            conv_channels=tuple(conv_channels),
            hidden_dim=hidden_dim,
        )
        rng = np.random.default_rng(seed)
        c1, c2 = conv_channels
        after_pool1 = image_size // 2
        after_pool2 = after_pool1 // 2
        flat = c2 * after_pool2 * after_pool2
        if flat <= 0:
            raise ValueError("image_size too small for two pooling stages")
        layers: List[Layer] = [
            Conv2d(in_channels, c1, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(c1, c2, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(flat, hidden_dim, rng=rng),
            ReLU(),
            Dense(hidden_dim, num_classes, rng=rng),
        ]
        super().__init__(Sequential(layers), num_classes, (in_channels, image_size, image_size))

    def clone(self, rng: Optional[np.random.Generator] = None) -> "SimpleCNN":
        copy = SimpleCNN(**self._config)
        copy.set_weights(self.get_weights())
        return copy


class MiniVGG(Model):
    """A scaled-down VGG used in place of the paper's 138M-parameter VGG16.

    Keeps the VGG idiom — stacked 3x3 convolutions, doubling channel widths,
    2x2 max pooling between blocks, and a dense classifier head with dropout —
    at a size that trains quickly on synthetic Tiny-ImageNet-like data.
    """

    def __init__(
        self,
        in_channels: int = 3,
        image_size: int = 16,
        num_classes: int = 200,
        base_channels: int = 8,
        hidden_dim: int = 128,
        dropout: float = 0.0,
        seed: Optional[int] = None,
    ):
        self._config = dict(
            in_channels=in_channels,
            image_size=image_size,
            num_classes=num_classes,
            base_channels=base_channels,
            hidden_dim=hidden_dim,
            dropout=dropout,
        )
        rng = np.random.default_rng(seed)
        c1, c2 = base_channels, base_channels * 2
        after_block1 = image_size // 2
        after_block2 = after_block1 // 2
        flat = c2 * after_block2 * after_block2
        if flat <= 0:
            raise ValueError("image_size too small for the MiniVGG pooling stages")
        layers: List[Layer] = [
            Conv2d(in_channels, c1, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2d(c1, c1, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(c1, c2, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2d(c2, c2, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(flat, hidden_dim, rng=rng),
            ReLU(),
        ]
        if dropout > 0:
            layers.append(Dropout(dropout, rng=rng))
        layers.append(Dense(hidden_dim, num_classes, rng=rng))
        super().__init__(Sequential(layers), num_classes, (in_channels, image_size, image_size))

    def clone(self, rng: Optional[np.random.Generator] = None) -> "MiniVGG":
        copy = MiniVGG(**self._config)
        copy.set_weights(self.get_weights())
        return copy


_MODEL_REGISTRY: Dict[str, Callable[..., Model]] = {
    "mlp": MLP,
    "simple_cnn": SimpleCNN,
    "cnn": SimpleCNN,
    "mini_vgg": MiniVGG,
    "vgg": MiniVGG,
}


def available_models() -> List[str]:
    """Names accepted by :func:`build_model`."""
    return sorted(_MODEL_REGISTRY)


def build_model(name: str, **kwargs) -> Model:
    """Construct a model from the registry by name."""
    key = name.lower()
    if key not in _MODEL_REGISTRY:
        raise ValueError(f"unknown model '{name}'; available: {available_models()}")
    return _MODEL_REGISTRY[key](**kwargs)


def count_parameters(model: Model) -> int:
    """Convenience alias for :meth:`Model.num_parameters`."""
    return model.num_parameters()
