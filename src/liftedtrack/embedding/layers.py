"""Neural network layers with hand-written forward and backward passes.

Every layer follows the same functional contract: `forward(x, train)`
returns `(out, cache)`, `backward(dout, cache)` returns `(dx, grads)` where
`grads` has the same keys as `params`. `Conv2D.param_grads(dout, cache)`
returns `grads` alone, for the first layer, whose input gradient nothing
uses. All arithmetic is float64; inputs to conv/pool layers are batches
shaped (N, C, H, W), dense inputs are (N, D).

Convolutions are im2col matmuls (see `Conv2D`): each pass is one BLAS call
on column matrices copied from a cached window view of the padded input,
with no einsum path planning and no `np.pad`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Cache = tuple
Grads = Dict[str, np.ndarray]


class Layer:
    """Base layer; parameter-free unless `params` is populated."""

    params: Dict[str, np.ndarray]

    def __init__(self):
        self.params = {}

    def forward(self, x: np.ndarray, train: bool = False) -> Tuple[np.ndarray, Cache]:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, cache: Cache) -> Tuple[np.ndarray, Grads]:
        raise NotImplementedError


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    """Uniform draw with variance 2 / (fan_in + fan_out)."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Conv2D(Layer):
    """Same-padded stride-1 convolution (cross-correlation), square kernel.

    Each pass is one matmul over im2col column matrices (Chellapilla, Puri
    & Simard, 2006). The padded input's k x k windows form a view shaped
    (N, C, H, W, k, k) that the forward pass caches; the column matrices
    are copies made from it when needed and not kept:

    * forward: ``W (O, C*k*k) @ cols (C*k*k, N*H*W)``, cols laid out
      (c, i, j, n, h, w); the (O, N, H, W) product is returned as an NCHW
      view and the bias added in place.
    * dW: ``dout (O, N*H*W) @ rows (N*H*W, C*k*k)``, rows laid out
      (n, h, w, c, i, j) and copied contiguous.
    * dx: the rotated kernels ``(C, O*k*k) @ dcols (O*k*k, N*H*W)``, dcols
      built from the padded `dout` as cols is from the padded input.

    The operand order and layouts are the ones `np.einsum(..., optimize=True)`
    hands to the same BLAS call for these contractions, so the results are
    bit-identical to the einsum layer (`tests/conv_reference.py`); the other
    order (`cols.T @ W.T`) or a transposed view in place of the contiguous
    `rows` copy changes the last bits.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator):
        super().__init__()
        if kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd for same padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        k = kernel_size
        fan_in = in_channels * k * k
        fan_out = out_channels * k * k
        self.params = {
            "W": xavier_uniform(rng, (out_channels, in_channels, k, k), fan_in, fan_out),
            "b": np.zeros(out_channels),
        }

    def _windows(self, x):
        """k x k windows of `x` zero-padded by k // 2, shaped (N, C, H, W, k, k)."""
        n, c, h, w = x.shape
        k = self.kernel_size
        p = k // 2
        xp = np.zeros((n, c, h + 2 * p, w + 2 * p))
        xp[:, :, p:p + h, p:p + w] = x
        return sliding_window_view(xp, (k, k), axis=(2, 3))

    @staticmethod
    def _matmul_cols(a, windows):
        """`a @ cols` over the windows' columns, returned as an NCHW view."""
        n, c, h, w, k, _ = windows.shape
        cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * h * w)
        return (a @ cols).reshape(a.shape[0], n, h, w).transpose(1, 0, 2, 3)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"conv expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        windows = self._windows(x)
        W = self.params["W"]
        out = self._matmul_cols(W.reshape(W.shape[0], -1), windows)
        out += self.params["b"][None, :, None, None]
        return out, (windows,)

    def param_grads(self, dout, cache):
        """Gradients of W and b alone, for a layer whose input needs none."""
        (windows,) = cache
        n, c, h, w, k, _ = windows.shape
        o = dout.shape[1]
        rows = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * h * w, c * k * k)
        dW = dout.transpose(1, 0, 2, 3).reshape(o, n * h * w) @ rows
        return {"W": dW.reshape(o, c, k, k), "b": dout.sum(axis=(0, 2, 3))}

    def backward(self, dout, cache):
        # dx is the full correlation of dout with the 180-degree-rotated
        # kernels; for odd k its padding k - 1 - k // 2 is the forward's k // 2.
        w_rot = self.params["W"][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = self._matmul_cols(w_rot.reshape(w_rot.shape[0], -1), self._windows(dout))
        return dx, self.param_grads(dout, cache)


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2; first maximum wins on ties."""

    def forward(self, x, train=False):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        tiles = x.reshape(n, c, h // 2, 2, w // 2, 2).swapaxes(3, 4)
        flat = tiles.reshape(n, c, h // 2, w // 2, 4)
        idx = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        return out, (idx, x.shape)

    def backward(self, dout, cache):
        idx, x_shape = cache
        n, c, h, w = x_shape
        flat = np.zeros((n, c, h // 2, w // 2, 4))
        np.put_along_axis(flat, idx[..., None], dout[..., None], axis=-1)
        dx = flat.reshape(n, c, h // 2, w // 2, 2, 2).swapaxes(3, 4)
        return dx.reshape(n, c, h, w), {}


class Upsample2x(Layer):
    """Nearest-neighbor 2x upsampling."""

    def forward(self, x, train=False):
        out = x.repeat(2, axis=2).repeat(2, axis=3)
        return out, (x.shape,)

    def backward(self, dout, cache):
        (x_shape,) = cache
        n, c, h, w = x_shape
        dx = dout.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        return dx, {}


class ReLU(Layer):
    def forward(self, x, train=False):
        mask = x > 0
        return x * mask, (mask,)

    def backward(self, dout, cache):
        (mask,) = cache
        return dout * mask, {}


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.params = {
            "W": xavier_uniform(rng, (in_dim, out_dim), in_dim, out_dim),
            "b": np.zeros(out_dim),
        }

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"dense expects (N, {self.in_dim}), got {x.shape}")
        return x @ self.params["W"] + self.params["b"], (x,)

    def backward(self, dout, cache):
        (x,) = cache
        dW = x.T @ dout
        db = dout.sum(axis=0)
        dx = dout @ self.params["W"].T
        return dx, {"W": dW, "b": db}


class Flatten(Layer):
    def forward(self, x, train=False):
        return x.reshape(x.shape[0], -1), (x.shape,)

    def backward(self, dout, cache):
        (x_shape,) = cache
        return dout.reshape(x_shape), {}


class Reshape(Layer):
    """(N, prod(shape)) -> (N, *shape)."""

    def __init__(self, shape):
        super().__init__()
        self.shape = tuple(shape)

    def forward(self, x, train=False):
        return x.reshape(x.shape[0], *self.shape), (x.shape,)

    def backward(self, dout, cache):
        (x_shape,) = cache
        return dout.reshape(x_shape), {}


class BatchNorm(Layer):
    """Batch normalization over (N,) or (N, H, W) per feature/channel.

    Training mode normalizes with batch statistics and updates running
    estimates; inference mode uses the running estimates.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.params = {
            "gamma": np.ones(num_features),
            "beta": np.zeros(num_features),
        }
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def _axes_and_shape(self, x):
        if x.ndim == 2:
            return (0,), (1, self.num_features)
        if x.ndim == 4:
            return (0, 2, 3), (1, self.num_features, 1, 1)
        raise ValueError(f"batchnorm expects 2D or 4D input, got {x.ndim}D")

    def forward(self, x, train=False):
        axes, shape = self._axes_and_shape(x)
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"batchnorm expects {self.num_features} features, got {x.shape[1]}"
            )
        gamma = self.params["gamma"].reshape(shape)
        beta = self.params["beta"].reshape(shape)
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var.reshape(shape) + self.eps)
        xhat = (x - mean.reshape(shape)) * inv_std
        out = gamma * xhat + beta
        return out, (xhat, inv_std, gamma, train, axes, shape, x.shape)

    def backward(self, dout, cache):
        xhat, inv_std, gamma, train, axes, shape, x_shape = cache
        dgamma = (dout * xhat).sum(axis=axes)
        dbeta = dout.sum(axis=axes)
        dxhat = dout * gamma
        if not train:
            dx = dxhat * inv_std
            return dx, {"gamma": dgamma, "beta": dbeta}
        m = np.prod([x_shape[a] for a in axes])
        sum_dxhat = dxhat.sum(axis=axes, keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes, keepdims=True)
        dx = (inv_std / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
        return dx, {"gamma": dgamma, "beta": dbeta}
