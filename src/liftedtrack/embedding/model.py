"""Convolutional autoencoder assembly, checkpointing, and forward queries."""

from __future__ import annotations

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
    kernel_size: int = 3
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

    def __init__(self, config: ArchConfig, seed: int = 0):
        self.config = config
        self.seed = int(seed)
        self.epoch = 0
        rng = np.random.default_rng(self.seed)
        k = config.kernel_size
        c_in, _, _ = config.input_shape
        bc, bh, bw = config.bottleneck_shape
        bottleneck = bc * bh * bw

        enc: List[Layer] = []
        prev = c_in
        for ch in config.conv_channels:
            enc.append(Conv2D(prev, ch, k, rng, bias=not config.batchnorm))
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
            dec.append(Conv2D(prev, ch, k, rng, bias=last or not config.batchnorm))
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
        codes are the same as from one batch of all of them.
        """
        return np.concatenate([
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

    def save(self, path) -> None:
        """Single-file npz checkpoint: config json + every tensor by name."""
        arrays = {}
        for (stack, i), name, arr in self.parameter_items():
            arrays[f"{stack}.{i}.{name}"] = arr
        for key, layer in self.layer_items():
            if isinstance(layer, BatchNorm):
                stack, i = key
                arrays[f"{stack}.{i}.running_mean"] = layer.running_mean
                arrays[f"{stack}.{i}.running_var"] = layer.running_var
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
        """
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        config = ArchConfig(
            input_shape=tuple(meta["input_shape"]),
            conv_channels=tuple(meta["conv_channels"]),
            latent_dim=meta["latent_dim"],
            kernel_size=meta["kernel_size"],
            batchnorm=meta["batchnorm"],
        )
        model = cls(config, seed=meta["seed"])
        model.epoch = meta["epoch"]
        for (stack, i), name, arr in model.parameter_items():
            arr[...] = arrays.pop(f"{stack}.{i}.{name}")
        for key, layer in model.layer_items():
            if isinstance(layer, BatchNorm):
                stack, i = key
                layer.running_mean = arrays.pop(f"{stack}.{i}.running_mean").copy()
                layer.running_var = arrays.pop(f"{stack}.{i}.running_var").copy()
        if arrays:
            raise ValueError(f"{path}: checkpoint holds {', '.join(sorted(arrays))}, "
                             "which this network does not have")
        return model
