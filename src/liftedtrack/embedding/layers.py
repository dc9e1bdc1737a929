"""Neural network layers with hand-written forward and backward passes.

Every layer follows the same functional contract: `forward(x, train)`
returns `(out, cache)`, `backward(dout, cache)` returns `(dx, grads)` where
`grads` has the same keys as `params`. `Conv2D.param_grads(dout, cache)`
returns `grads` alone, for the first layer, whose input gradient nothing
uses. All arithmetic is float64; inputs to conv/pool layers are batches
shaped (N, C, H, W), dense inputs are (N, D).

Convolutions are im2col matmuls (see `Conv2D`): each pass is one BLAS call
on a column matrix filled by k*k slice copies of the unpadded input, with
no einsum path planning, no padded copy and no window view. Max pooling
works on the four strided quadrant views of its input (see `MaxPool2x2`),
with no tile copy and no argmax, and the upsampling gradient adds the four
strided views of its output gradient (see `Upsample2x`). Each layer hands
BLAS and the float additions the same values in the same order and layout
as the reference layers in `tests/conv_reference.py`, so training results
are bit-identical to theirs.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

Cache = tuple
Grads = Dict[str, np.ndarray]

# BatchNorm keeps BN_MOMENTUM of its running statistics per training batch,
# and adds BN_EPS to the variance before the square root
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


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

    Each pass is one matmul over an im2col column matrix (Chellapilla, Puri
    & Simard, 2006). `_columns` fills it directly: a zeroed
    (C*k*k, N*H*W) array laid out (c, i, j, n, h, w) takes k*k slice
    copies of the unpadded input, one per kernel offset (i, j), and the
    entries that would read the zero padding stay zero. There is no padded
    copy and no window view.

    * forward: ``W (O, C*k*k) @ cols (C*k*k, N*H*W)``; the (O, N, H, W)
      product is returned as an NCHW view and the bias added in place.
      A training forward caches `cols`, an inference forward only `x`.
    * dW: ``dout (O, N*H*W) @ rows (N*H*W, C*k*k)``, rows the transpose of
      cols, copied contiguous.
    * dx: the rotated kernels ``(C, O*k*k) @ dcols (O*k*k, N*H*W)``, dcols
      filled from `dout` as cols is from the input.

    The operand order, values and memory layouts are the ones
    `np.einsum(..., optimize=True)` hands to the same BLAS call for these
    contractions, so the results are bit-identical to the einsum layer
    (`tests/conv_reference.py`). The other order (`cols.T @ W.T`) or a
    transposed view in place of the contiguous `rows` copy changes the last
    bits; only for a 1x1 kernel on one image is `rows` that transposed
    view, as the einsum's reshape of its window view is there too.
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

    def _columns(self, x):
        """Column matrix of `x` zero-padded by k // 2, (C*k*k, N*H*W)."""
        n, c, h, w = x.shape
        k = self.kernel_size
        p = k // 2
        cols = np.zeros((c, k, k, n, h, w))
        x = x.transpose(1, 0, 2, 3)
        for i in range(k):
            # output row r reads input row r + i - p
            r0, r1 = max(p - i, 0), min(h + p - i, h)
            for j in range(k):
                s0, s1 = max(p - j, 0), min(w + p - j, w)
                cols[:, i, j, :, r0:r1, s0:s1] = (
                    x[:, :, r0 + i - p:r1 + i - p, s0 + j - p:s1 + j - p])
        return cols.reshape(c * k * k, n * h * w)

    @staticmethod
    def _matmul_cols(a, cols, shape):
        """`a @ cols` as an NCHW view over the (N, *, H, W) `shape`."""
        n, _, h, w = shape
        return (a @ cols).reshape(a.shape[0], n, h, w).transpose(1, 0, 2, 3)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"conv expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        cols = self._columns(x)
        W = self.params["W"]
        out = self._matmul_cols(W.reshape(W.shape[0], -1), cols, x.shape)
        out += self.params["b"][None, :, None, None]
        return out, (x, cols if train else None)

    def param_grads(self, dout, cache):
        """Gradients of W and b alone, for a layer whose input needs none."""
        x, cols = cache
        if cols is None:
            cols = self._columns(x)
        n, o, h, w = dout.shape
        k = self.kernel_size
        # a 1x1 kernel on one image: the einsum's rows are this same view
        rows = cols.T if k == 1 and n == 1 else np.ascontiguousarray(cols.T)
        dW = dout.transpose(1, 0, 2, 3).reshape(o, n * h * w) @ rows
        return {"W": dW.reshape(o, -1, k, k), "b": dout.sum(axis=(0, 2, 3))}

    def backward(self, dout, cache):
        # dx is the full correlation of dout with the 180-degree-rotated
        # kernels; for odd k its padding k - 1 - k // 2 is the forward's k // 2.
        w_rot = self.params["W"][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = self._matmul_cols(w_rot.reshape(w_rot.shape[0], -1),
                               self._columns(dout), dout.shape)
        return dx, self.param_grads(dout, cache)


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2; first maximum wins on ties.

    The forward pass takes `np.maximum` over the four stride-2 quadrant
    views of the input, in tile order (0, 0), (0, 1), (1, 0), (1, 1).
    `np.maximum(p, q)` returns `q` when p == q, so the pairs are taken in
    reverse, ``maximum(maximum(d, c), maximum(b, a))``, and a tie returns
    the first of the tied elements, down to the sign of a zero. The
    backward pass routes each output gradient to the first quadrant whose
    value equals the output. Both agree bit for bit with an argmax over
    each tile (`tests/conv_reference.py`) on every finite input. A tile
    holding NaN pools to NaN, but its gradient goes nowhere, where the
    argmax routed it to the first NaN; training never reaches that
    backward pass, since it stops on a non-finite loss first.
    """

    _QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, train=False):
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        a, b, c, d = (x[:, :, i::2, j::2] for i, j in self._QUADRANTS)
        out = np.maximum(np.maximum(d, c), np.maximum(b, a))
        return out, (x, out)

    def backward(self, dout, cache):
        x, out = cache
        dx = np.zeros(x.shape)
        free = np.ones(out.shape, dtype=bool)
        for i, j in self._QUADRANTS:
            hit = free & (x[:, :, i::2, j::2] == out)
            np.copyto(dx[:, :, i::2, j::2], dout, where=hit)
            free ^= hit
        return dx, {}


class Upsample2x(Layer):
    """Nearest-neighbor 2x upsampling.

    Each input pixel feeds a 2x2 tile of the output, so its gradient sums
    the four stride-2 views of `dout` as ``(q00 + q01) + (q10 + q11)``.
    That is the pairing `dout.reshape(N, C, H, 2, W, 2).sum(axis=(3, 5))`
    uses, so the two agree bit for bit (`tests/conv_reference.py`);
    ``((q00 + q01) + q10) + q11`` differs in the last bits.
    """

    def forward(self, x, train=False):
        out = x.repeat(2, axis=2).repeat(2, axis=3)
        return out, ()

    def backward(self, dout, cache):
        q00, q01 = dout[:, :, 0::2, 0::2], dout[:, :, 0::2, 1::2]
        q10, q11 = dout[:, :, 1::2, 0::2], dout[:, :, 1::2, 1::2]
        return (q00 + q01) + (q10 + q11), {}


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

    def __init__(self, num_features: int):
        super().__init__()
        self.num_features = num_features
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
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var.reshape(shape) + BN_EPS)
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
