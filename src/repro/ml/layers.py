"""Neural-network layers with explicit forward and backward passes.

Every layer stores what it needs from the forward pass to compute gradients
in ``backward``: in training mode only, and only until that ``backward``
runs.  An evaluation-mode forward leaves no cache behind, so evaluating many
models does not keep their activations (or im2col matrices) alive.
Parameters and their gradients are exposed through ``parameters()`` /
``gradients()`` so the optimizers in :mod:`repro.ml.optim` and the weight
exchange in :mod:`repro.fl` can treat all layers uniformly.

The convolution and pooling layers use an im2col formulation, which keeps the
implementation vectorised enough that the federated experiments (hundreds of
rounds over small synthetic images) complete quickly on a CPU.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Layers that
    hold parameters override :meth:`parameters` and :meth:`gradients` to
    return aligned lists of arrays.
    """

    #: whether the layer is in training mode (affects Dropout / BatchNorm).
    training: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[np.ndarray]:
        """Trainable parameter tensors (may be empty)."""
        return []

    def gradients(self) -> List[np.ndarray]:
        """Gradients aligned with :meth:`parameters` (may be empty)."""
        return []

    def has_eval_state(self) -> bool:
        """Whether evaluation reads state outside :meth:`parameters`."""
        return False

    def set_parameters(self, params: List[np.ndarray]) -> None:
        """Replace the layer's parameters with copies of ``params``."""
        own = self.parameters()
        if len(params) != len(own):
            raise ValueError(
                f"{type(self).__name__} expected {len(own)} parameter tensors, got {len(params)}"
            )
        for target, source in zip(own, params):
            if target.shape != source.shape:
                raise ValueError(
                    f"{type(self).__name__} parameter shape mismatch: "
                    f"{target.shape} vs {source.shape}"
                )
            target[...] = source

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weight = rng.uniform(-limit, limit, size=(in_features, out_features)).astype(np.float64)
        self.bias = np.zeros(out_features, dtype=np.float64)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects a 2-D input, got shape {x.shape}")
        if x.shape[1] != self.weight.shape[0]:
            raise ValueError(
                f"Dense expects input dim {self.weight.shape[0]}, got {x.shape[1]}"
            )
        self._input = x if self.training else None
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.grad_weight = self._input.T @ grad_output
        self.grad_bias = grad_output.sum(axis=0)
        self._input = None
        return grad_output @ self.weight.T

    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self.training else None
        return np.where(mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        mask, self._mask = self._mask, None
        return grad_output * mask


class Softmax(Layer):
    """Numerically stable softmax over the last axis.

    Normally the fused :class:`repro.ml.losses.CrossEntropyLoss` is used for
    training and this layer only appears at inference time.
    """

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._output = exp / exp.sum(axis=-1, keepdims=True)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        s = self._output
        dot = (grad_output * s).sum(axis=-1, keepdims=True)
        return s * (grad_output - dot)


class Flatten(Layer):
    """Collapse all dimensions except the batch dimension."""

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class BatchNorm1d(Layer):
    """Batch normalisation over a 2-D (batch, features) input."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.gamma = np.ones(num_features, dtype=np.float64)
        self.beta = np.zeros(num_features, dtype=np.float64)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self.momentum = momentum
        self.eps = eps
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError("BatchNorm1d expects a 2-D input")
        if self.training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        x_hat = (x - mean) / np.sqrt(var + self.eps)
        self._cache = (x_hat, var, x - mean)
        return self.gamma * x_hat + self.beta

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, var, centered = self._cache
        n = grad_output.shape[0]
        self.grad_gamma = (grad_output * x_hat).sum(axis=0)
        self.grad_beta = grad_output.sum(axis=0)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        dx_hat = grad_output * self.gamma
        dvar = (dx_hat * centered * -0.5 * inv_std**3).sum(axis=0)
        dmean = (-dx_hat * inv_std).sum(axis=0) + dvar * (-2.0 * centered.mean(axis=0))
        return dx_hat * inv_std + dvar * 2.0 * centered / n + dmean / n

    def parameters(self) -> List[np.ndarray]:
        return [self.gamma, self.beta]

    def has_eval_state(self) -> bool:
        return True  # the running statistics

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_gamma, self.grad_beta]


def _im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Rearrange (N, C, H, W) image patches into columns for convolution.

    The padded input is one zero buffer; every ``kernel x kernel`` window is
    a strided view of it, so the patches cost a single gather copy.  The
    layout of the result is part of its contract: a C-ordered copy for
    ``N > 1``, and for ``N == 1`` a view with column-major strides over a
    ``(N, C, k, k, H', W')`` buffer.  OpenBLAS picks its GEMM kernel by
    layout, so a C-ordered ``N == 1`` matrix changes ``cols @ w.T`` in the
    last bit, and with it seeded results.
    """
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    # (N, C, H', W', k, k): one window per output position, no copy yet.
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    if n == 1:
        cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
        cols[...] = windows.transpose(0, 1, 4, 5, 2, 3)
        cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    else:
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        cols = cols.reshape(n * out_h * out_w, -1)
    return cols, out_h, out_w


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`_im2col`, accumulating overlapping patches."""
    n, c, h, w = input_shape
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel):
        i_max = i + stride * out_h
        for j in range(kernel):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class Conv2d(Layer):
    """2-D convolution over (N, C, H, W) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("Conv2d dimensions must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        fan_out = out_channels * kernel_size * kernel_size
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self.weight = rng.uniform(
            -limit, limit, size=(out_channels, in_channels, kernel_size, kernel_size)
        ).astype(np.float64)
        self.bias = np.zeros(out_channels, dtype=np.float64)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int], int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects a 4-D input, got shape {x.shape}")
        if x.shape[1] != self.weight.shape[1]:
            raise ValueError(
                f"Conv2d expects {self.weight.shape[1]} input channels, got {x.shape[1]}"
            )
        cols, out_h, out_w = _im2col(x, self.kernel_size, self.stride, self.padding)
        w_col = self.weight.reshape(self.weight.shape[0], -1)
        out = cols @ w_col.T + self.bias
        n = x.shape[0]
        self._cache = (cols, x.shape, out_h, out_w) if self.training else None
        return out.reshape(n, out_h, out_w, -1).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, input_shape, out_h, out_w = self._cache
        self._cache = None
        n = input_shape[0]
        grad_cols = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, -1)
        w_col = self.weight.reshape(self.weight.shape[0], -1)
        self.grad_weight = (grad_cols.T @ cols).reshape(self.weight.shape)
        self.grad_bias = grad_cols.sum(axis=0)
        grad_input_cols = grad_cols @ w_col
        return _col2im(
            grad_input_cols,
            input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
            out_h,
            out_w,
        )

    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class MaxPool2d(Layer):
    """Max pooling over non-overlapping or strided windows of a 4-D input."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self._cache: Optional[Tuple[np.ndarray, np.dtype, Tuple[int, ...], int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError("MaxPool2d expects a 4-D input")
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        # Treat each channel independently through im2col on a (N*C, 1, H, W) view.
        reshaped = x.reshape(n * c, 1, h, w)
        cols, _, _ = _im2col(reshaped, k, s, 0)
        cols = cols.reshape(n * c * out_h * out_w, k * k)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        # Backward only needs where each maximum sat, not the patches.
        self._cache = (argmax, cols.dtype, x.shape, out_h, out_w) if self.training else None
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        argmax, dtype, input_shape, out_h, out_w = self._cache
        self._cache = None
        n, c, h, w = input_shape
        k, s = self.kernel_size, self.stride
        grad_cols = np.zeros((argmax.shape[0], k * k), dtype=dtype)
        grad_cols[np.arange(grad_cols.shape[0]), argmax] = grad_output.reshape(-1)
        grad_input = _col2im(grad_cols, (n * c, 1, h, w), k, s, 0, out_h, out_w)
        return grad_input.reshape(n, c, h, w)


class Sequential(Layer):
    """Chain of layers applied in order."""

    def __init__(self, layers: List[Layer]):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> List[np.ndarray]:
        grads: List[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def has_eval_state(self) -> bool:
        return any(layer.has_eval_state() for layer in self.layers)

    def set_parameters(self, params: List[np.ndarray]) -> None:
        offset = 0
        for layer in self.layers:
            count = len(layer.parameters())
            layer.set_parameters(params[offset : offset + count])
            offset += count
        if offset != len(params):
            raise ValueError(
                f"Sequential expected {offset} parameter tensors, got {len(params)}"
            )

    def train(self) -> None:
        self.training = True
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        self.training = False
        for layer in self.layers:
            layer.eval()
