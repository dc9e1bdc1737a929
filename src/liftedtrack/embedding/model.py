"""Convolutional autoencoder assembly, checkpointing, and forward queries."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

from .layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2x2,
    ReLU,
    Reshape,
    Upsample2x,
)

# Images per `encode_batch` call in `AutoEncoder.encode_all`; bounds the
# memory of the stacked batch and of every layer's activations.
LATENT_CHUNK = 64

# Side of every convolution's square kernel
KERNEL_SIZE = 3

# Checkpoint entries beside the tensors: the codes of the images a model
# was saved with, and the `codes_key` of the model and those images.
CODES = "__codes__"
CODES_KEY = "__codes_key__"


def is_integer(value) -> bool:
    """An int or a numpy integer; bool is an int subclass, but no count or id."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_seed(seed) -> int:
    """`seed` as an int; a negative or non-integer seed is named."""
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class ArchConfig:
    """Autoencoder shape: conv+pool stages mirrored by upsample+conv stages.

    Spatial size halves per encoder stage, so input H and W must be
    divisible by 2**len(conv_channels). The defaults are the network that
    `pipeline.train_embedding` trains on 16x16 patches.
    """

    input_shape: Tuple[int, int, int] = (3, 16, 16)
    conv_channels: Tuple[int, ...] = (8, 16)
    latent_dim: int = 16
    batchnorm: bool = False

    def __post_init__(self):
        c, h, w = self.input_shape
        if c < 1 or h < 1 or w < 1:
            raise ValueError(f"bad input shape {self.input_shape}")
        if not self.conv_channels:
            raise ValueError("need at least one conv stage")
        factor = 2 ** len(self.conv_channels)
        if h % factor or w % factor:
            raise ValueError(
                f"input {h}x{w} not divisible by pooling factor {factor}"
            )
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")

    @property
    def bottleneck_shape(self) -> Tuple[int, int, int]:
        c, h, w = self.input_shape
        factor = 2 ** len(self.conv_channels)
        return (self.conv_channels[-1], h // factor, w // factor)

    @classmethod
    def full_scale(cls, batchnorm: bool = True) -> "ArchConfig":
        """Five stages on 64x64 input, filters doubling per stage."""
        return cls(
            input_shape=(3, 64, 64),
            conv_channels=(32, 64, 128, 256, 512),
            latent_dim=32,
            batchnorm=batchnorm,
        )


class AutoEncoder:
    """Encoder conv stack to a dense latent code, mirrored decoder.

    Layers are built deterministically from (config, seed); all parameters
    live in `layer.params` dictionaries so the trainer and the checkpoint
    code can enumerate them uniformly.
    """

    def __init__(self, config: ArchConfig, seed: int):
        self.config = config
        self.seed = checked_seed(seed)
        self.epoch = 0
        # (codes_key, codes) of the last `codes` call or the checkpoint; see `codes`
        self.stored_codes = None
        rng = np.random.default_rng(self.seed)
        c_in, _, _ = config.input_shape
        bc, bh, bw = config.bottleneck_shape
        bottleneck = bc * bh * bw

        enc: List[Layer] = []
        prev = c_in
        for ch in config.conv_channels:
            enc.append(Conv2D(prev, ch, KERNEL_SIZE, rng, bias=not config.batchnorm))
            if config.batchnorm:
                enc.append(BatchNorm(ch))
            enc.append(ReLU())
            enc.append(MaxPool2x2())
            prev = ch
        enc.append(Flatten())
        enc.append(Dense(bottleneck, config.latent_dim, rng))

        dec: List[Layer] = [Dense(config.latent_dim, bottleneck, rng), ReLU(),
                            Reshape((bc, bh, bw))]
        channels_out = list(config.conv_channels[:-1][::-1]) + [c_in]
        prev = config.conv_channels[-1]
        for i, ch in enumerate(channels_out):
            last = i == len(channels_out) - 1
            dec.append(Upsample2x())
            dec.append(Conv2D(prev, ch, KERNEL_SIZE, rng,
                              bias=last or not config.batchnorm))
            if not last:
                if config.batchnorm:
                    dec.append(BatchNorm(ch))
                dec.append(ReLU())
            prev = ch
        self.encoder_layers = enc
        self.decoder_layers = dec

    # -- forward ------------------------------------------------------------

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != self.config.input_shape:
            raise ValueError(
                f"expected batch of shape (N, {', '.join(map(str, self.config.input_shape))}),"
                f" got {x.shape}"
            )
        return x

    def encode_batch(self, x: np.ndarray, train: bool = False):
        x = self._check_batch(x)
        caches = []
        for layer in self.encoder_layers:
            x, cache = layer.forward(x, train)
            caches.append(cache)
        return x, caches

    def decode_batch(self, z: np.ndarray, train: bool = False):
        caches = []
        for layer in self.decoder_layers:
            z, cache = layer.forward(z, train)
            caches.append(cache)
        return z, caches

    def forward_batch(self, x: np.ndarray, train: bool = False):
        """Returns (reconstruction, latent, caches) for backpropagation."""
        z, enc_caches = self.encode_batch(x, train)
        recon, dec_caches = self.decode_batch(z, train)
        return recon, z, (enc_caches, dec_caches)

    def backward_batch(self, d_recon, d_latent, caches):
        """Backpropagate gradients from reconstruction and latent outputs.

        `d_latent` is added at the encoder/decoder junction (the clustering
        term attaches there). Returns {(stack, index): grads}; the input
        gradient is never formed, because the first encoder layer, always a
        `Conv2D`, computes its parameter gradients alone.
        """
        enc_caches, dec_caches = caches
        grads: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}
        d = d_recon
        for i in reversed(range(len(self.decoder_layers))):
            d, g = self.decoder_layers[i].backward(d, dec_caches[i])
            if g:
                grads[("dec", i)] = g
        d = d + d_latent
        for i in reversed(range(1, len(self.encoder_layers))):
            d, g = self.encoder_layers[i].backward(d, enc_caches[i])
            if g:
                grads[("enc", i)] = g
        grads[("enc", 0)] = self.encoder_layers[0].param_grads(d, enc_caches[0])
        return grads

    def encode_all(self, images) -> np.ndarray:
        """Latent codes (N, latent_dim) of an image sequence, inference mode.

        The images go through `encode_batch` LATENT_CHUNK at a time; the
        codes are the same as from one batch of all of them. No images give
        a (0, latent_dim) array. Training calls this directly; `codes` is
        the call that reuses codes while nothing changed.
        """
        return np.concatenate([np.empty((0, self.config.latent_dim))] + [
            self.encode_batch(images[i:i + LATENT_CHUNK])[0]
            for i in range(0, len(images), LATENT_CHUNK)
        ])

    # -- parameter plumbing ---------------------------------------------------

    def layer_items(self):
        """Yields ((stack, index), layer) over all layers."""
        for i, layer in enumerate(self.encoder_layers):
            yield ("enc", i), layer
        for i, layer in enumerate(self.decoder_layers):
            yield ("dec", i), layer

    def parameter_items(self):
        """Yields ((stack, index), name, array) over all parameters."""
        for key, layer in self.layer_items():
            for name, arr in layer.params.items():
                yield key, name, arr

    def layer_by_key(self, key) -> Layer:
        stack, i = key
        return (self.encoder_layers if stack == "enc" else self.decoder_layers)[i]

    # -- checkpointing --------------------------------------------------------

    def _tensors(self):
        """Yields (name, array) over every tensor `save` writes and `load`
        restores: the parameters, then each BatchNorm's running statistics."""
        for (stack, i), name, arr in self.parameter_items():
            yield f"{stack}.{i}.{name}", arr
        for (stack, i), layer in self.layer_items():
            if isinstance(layer, BatchNorm):
                yield f"{stack}.{i}.running_mean", layer.running_mean
                yield f"{stack}.{i}.running_var", layer.running_var

    def codes_key(self, images) -> bytes:
        """SHA-256 over this model's tensors and an image sequence.

        Each tensor enters by name, shape and float64 bytes, then the image
        count, then each image by shape and float64 bytes, in order. A
        changed weight, running statistic or pixel, or a reordering of the
        images, gives another key.
        """
        digest = hashlib.sha256()
        for name, arr in self._tensors():
            _digest_array(digest, name, arr)
        digest.update(f"images {len(images)}\n".encode())
        for image in images:
            _digest_array(digest, "image", image)
        return digest.digest()

    def codes(self, images) -> np.ndarray:
        """A copy of the (N, latent_dim) codes of `images`, encoded once per key.

        `stored_codes` holds the codes of the last `codes` call or of the
        checkpoint this model was loaded from, with their `codes_key`. They
        are returned when they are float64 of shape (N, latent_dim) and
        their key equals `codes_key(images)` now; any change to the
        tensors or to the images since means a fresh `encode_all`, which
        replaces them.
        """
        key = self.codes_key(images)
        if self.stored_codes is not None:
            stored_key, codes = self.stored_codes
            if (stored_key == key and codes.dtype == np.float64
                    and codes.shape == (len(images), self.config.latent_dim)):
                return codes.copy()
        self.stored_codes = (key, self.encode_all(images))
        return self.stored_codes[1].copy()

    def save(self, path, images=None) -> None:
        """Single-file npz checkpoint: config json + every tensor by name.

        With `images`, it also holds the `stored_codes` that `codes(images)`
        leaves: their codes and the `codes_key` of this model and those
        images, which `codes` checks after `load`.
        """
        arrays = dict(self._tensors())
        if images is not None:
            self.codes(images)
            key, arrays[CODES] = self.stored_codes
            arrays[CODES_KEY] = np.frombuffer(key, dtype=np.uint8)
        meta = dict(asdict(self.config), seed=self.seed, epoch=self.epoch)
        np.savez(path, __meta__=np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "AutoEncoder":
        """Rebuild a checkpoint written by `save`.

        A file holding a tensor the network does not have is rejected with
        a ValueError that names it. That includes a batchnorm network saved
        with a bias on each conv before a BatchNorm: the normalisation
        cancels such a bias in training, but inference subtracts running
        means that include it, so dropping it silently would change codes.
        Stored codes and their key, when the file has both, become
        `stored_codes`; a file without them loads as before. A `kernel_size`
        in the config, which files saved before it became KERNEL_SIZE hold,
        is not read.
        """
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        codes, key = arrays.pop(CODES, None), arrays.pop(CODES_KEY, None)
        config = ArchConfig(
            input_shape=tuple(meta["input_shape"]),
            conv_channels=tuple(meta["conv_channels"]),
            latent_dim=meta["latent_dim"],
            batchnorm=meta["batchnorm"],
        )
        model = cls(config, seed=meta["seed"])
        model.epoch = meta["epoch"]
        for (stack, i), name, arr in model.parameter_items():
            arr[...] = arrays.pop(f"{stack}.{i}.{name}")
        for (stack, i), layer in model.layer_items():
            if isinstance(layer, BatchNorm):
                layer.running_mean = arrays.pop(f"{stack}.{i}.running_mean").copy()
                layer.running_var = arrays.pop(f"{stack}.{i}.running_var").copy()
        if codes is not None and key is not None:
            model.stored_codes = (key.tobytes(), codes)
        if arrays:
            raise ValueError(f"{path}: checkpoint holds {', '.join(sorted(arrays))}, "
                             "which this network does not have")
        return model


def _digest_array(digest, name, arr) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    digest.update(f"{name} {arr.shape}\n".encode())
    digest.update(arr)
