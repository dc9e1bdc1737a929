"""Frozen copies of the convolution, max-pooling and upsampling layers, kept
as references.

Test-only differential references: `tests/test_embedding.py` runs them
next to `liftedtrack.embedding.layers`. Against `Conv2D`, the im2col
layer, it requires `==` forward outputs, parameter gradients and input
gradients, and `==` per-epoch training losses with this class patched into
a model; every pass here pads with `np.pad` and contracts the window view
with `np.einsum(..., optimize=True)`. Against `MaxPool2x2`, the
four-quadrant layer, it requires bitwise-equal outputs and input
gradients, and `==` training with this class patched in; here each 2x2
tile is copied out, pooled by `argmax` and `take_along_axis`, and the
gradient is scattered back with `put_along_axis`. Against `Upsample2x`,
whose gradient adds the four stride-2 views of `dout`, it requires `==`
outputs, input gradients and training; here the gradient is one
`reshape(...).sum(axis=(3, 5))`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from liftedtrack.embedding.layers import Layer, xavier_uniform


class Conv2D(Layer):
    """Same-padded stride-1 convolution (cross-correlation), square kernel."""

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

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"conv expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        k = self.kernel_size
        p = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        windows = sliding_window_view(xp, (k, k), axis=(2, 3))
        out = np.einsum("nchwij,ocij->nohw", windows, self.params["W"],
                        optimize=True)
        out += self.params["b"][None, :, None, None]
        return out, (windows, x.shape)

    def backward(self, dout, cache):
        windows, x_shape = cache
        k = self.kernel_size
        p = k // 2
        db = dout.sum(axis=(0, 2, 3))
        dW = np.einsum("nchwij,nohw->ocij", windows, dout, optimize=True)
        # dx is the full correlation of dout with the 180-degree-rotated kernels.
        dp = np.pad(dout, ((0, 0), (0, 0), (k - 1 - p, k - 1 - p),
                           (k - 1 - p, k - 1 - p)))
        dwin = sliding_window_view(dp, (k, k), axis=(2, 3))
        w_rot = self.params["W"][:, :, ::-1, ::-1]
        dx = np.einsum("nohwij,ocij->nchw", dwin, w_rot, optimize=True)
        assert dx.shape == x_shape
        return dx, {"W": dW, "b": db}

    def param_grads(self, dout, cache):
        """Parameter gradients only, the entry point the model calls on its
        first layer: here the full backward with its dx discarded."""
        return self.backward(dout, cache)[1]


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
