"""Frozen einsum copy of the convolution layer, kept as its reference.

Test-only differential reference: `tests/test_embedding.py` runs it next
to `liftedtrack.embedding.layers.Conv2D`, the im2col layer, and requires
`==` forward outputs, parameter gradients and input gradients, and `==`
per-epoch training losses with this class patched into a model. Every
pass pads with `np.pad` and contracts the window view with
`np.einsum(..., optimize=True)`.
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
