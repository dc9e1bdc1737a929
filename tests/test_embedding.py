"""Embedding tests: layer math, model assembly, training behavior, checkpoints.

Forward passes are verified against independent implementations
(scipy.signal correlation, plain loops); gradients against central finite
differences.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from scipy import signal

from liftedtrack.embedding import (
    LATENT_CHUNK,
    ArchConfig,
    AutoEncoder,
    BatchNorm,
    Conv2D,
    Dense,
    MaxPool2x2,
    ReLU,
    TrainingConfig,
    TrainingDiverged,
    Upsample2x,
    combined_loss,
    compute_centroids,
    gradient_check,
    train,
    xavier_uniform,
)
from liftedtrack.affinity import (
    LIFTED_FEATURES,
    NEARBY_FEATURES,
    AffinityModel,
    iou_match_table,
    latent_codes,
)
from liftedtrack.embedding.layers import BN_EPS
from liftedtrack.graph import BBox, Detection
from liftedtrack.pipeline import (
    PipelineConfig,
    pregroup,
    run_tracking,
    track_latents,
    tracklet_labels,
)
from liftedtrack.synth import benchmark_spec, synth_sequence

import conv_reference
import training_reference
from helpers import smooth_embedding_fixture

SMALL = ArchConfig(input_shape=(3, 8, 8), conv_channels=(4, 6), latent_dim=5)
SMALL_BN = ArchConfig(
    input_shape=(3, 8, 8), conv_channels=(4, 6), latent_dim=5, batchnorm=True
)


def arrays(dets):
    """The (images, frames) that `train` takes for these detections."""
    return np.stack([det.image for det in dets]), np.array([det.frame for det in dets])


def small_batch(rng, n=4, shape=(3, 8, 8)):
    return rng.uniform(0.05, 0.95, size=(n, *shape))


def fd_layer_grad(layer, x, dout, train=True, step=1e-6):
    """Central-difference input gradient of sum(out * dout)."""
    num = np.zeros_like(x)
    flat = x.reshape(-1)
    nflat = num.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = float(np.sum(layer.forward(x, train)[0] * dout))
        flat[i] = orig - step
        down = float(np.sum(layer.forward(x, train)[0] * dout))
        flat[i] = orig
        nflat[i] = (up - down) / (2 * step)
    return num


class TestConv2D:
    def test_forward_matches_scipy(self):
        rng = np.random.default_rng(0)
        conv = Conv2D(3, 5, 3, rng)
        x = rng.normal(size=(2, 3, 6, 7))
        out, _ = conv.forward(x)
        for n in range(2):
            for o in range(5):
                ref = sum(
                    signal.correlate2d(x[n, c], conv.params["W"][o, c], mode="same")
                    for c in range(3)
                ) + conv.params["b"][o]
                assert np.allclose(out[n, o], ref, atol=1e-12)

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        conv = Conv2D(2, 3, 3, rng)
        x = rng.normal(size=(2, 2, 5, 4))
        dout = rng.normal(size=(2, 3, 5, 4))
        out, cache = conv.forward(x)
        dx, _ = conv.backward(dout, cache)
        assert np.allclose(dx, fd_layer_grad(conv, x, dout), atol=1e-7)

    def test_param_gradients_match_fd(self):
        rng = np.random.default_rng(2)
        conv = Conv2D(2, 2, 3, rng)
        x = rng.normal(size=(1, 2, 4, 4))
        dout = rng.normal(size=(1, 2, 4, 4))
        _, cache = conv.forward(x)
        _, grads = conv.backward(dout, cache)
        for name in ("W", "b"):
            arr = conv.params[name]
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-6
                up = float(np.sum(conv.forward(x)[0] * dout))
                flat[i] = orig - 1e-6
                down = float(np.sum(conv.forward(x)[0] * dout))
                flat[i] = orig
                assert abs(grads[name].reshape(-1)[i] - (up - down) / 2e-6) < 1e-6

    def test_rejects_wrong_channels(self):
        conv = Conv2D(3, 4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 2, 4, 4)))


# (in, out, spatial size) of the four convolutions of the default ArchConfig()
DEFAULT_ARCH_CONVS = ((3, 8, 16), (8, 16, 8), (16, 8, 8), (8, 3, 16))


def _root_arrays(cache):
    """The distinct arrays that own the memory of the cache's arrays."""
    roots = {}
    for item in cache:
        if isinstance(item, np.ndarray):
            while getattr(item, "base", None) is not None:
                item = item.base
            roots[id(item)] = item
    return list(roots.values())


class TestConvMatchesReference:
    """The im2col layer against the frozen einsum layer, compared with ==."""

    @pytest.mark.parametrize("kernel", (1, 3, 5))
    @pytest.mark.parametrize("shape", DEFAULT_ARCH_CONVS)
    def test_passes_bit_identical(self, shape, kernel):
        c_in, c_out, size = shape
        for n in range(1, 13):
            conv = Conv2D(c_in, c_out, kernel, np.random.default_rng(n))
            ref = conv_reference.Conv2D(c_in, c_out, kernel, np.random.default_rng(n))
            rng = np.random.default_rng(100 * n + kernel)
            x = rng.normal(size=(n, c_in, size, size))
            dout = rng.normal(size=(n, c_out, size, size))
            out, cache = conv.forward(x, True)
            ref_out, ref_cache = ref.forward(x, True)
            dx, grads = conv.backward(dout, cache)
            only_grads = conv.param_grads(dout, cache)
            ref_dx, ref_grads = ref.backward(dout, ref_cache)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(dx, ref_dx)
            for name in ("W", "b"):
                assert np.array_equal(grads[name], ref_grads[name])
                assert np.array_equal(only_grads[name], ref_grads[name])

    def test_training_trace_bit_identical(self):
        # frames of one, three and five patches; the clustering term on from epoch 1
        arch = ArchConfig(input_shape=(3, 16, 16), conv_channels=(8, 16), latent_dim=16)
        rng = np.random.default_rng(40)
        dets = [
            Detection(frame=f, box=BBox(0, 0, 4, 4),
                      image=rng.uniform(0.1, 0.9, size=(3, 16, 16)))
            for f, count in enumerate((1, 3, 5), start=1)
            for _ in range(count)
        ]
        labels = [i % 3 for i in range(len(dets))]
        config = TrainingConfig(epochs=3, learning_rate=1e-3,
                                lambda_schedule=((0, 0.0), (1, 0.9)), seed=4)
        model = AutoEncoder(arch, seed=3)
        ref = AutoEncoder(arch, seed=3)
        for _, layer in ref.layer_items():
            if isinstance(layer, Conv2D):
                layer.__class__ = conv_reference.Conv2D
        _, trace = train(model, *arrays(dets), labels, config)
        _, ref_trace = train(ref, *arrays(dets), labels, config)
        assert trace == ref_trace
        for (_, _, a), (_, _, b) in zip(model.parameter_items(), ref.parameter_items()):
            assert np.array_equal(a, b)


class TestConvCache:
    @pytest.mark.parametrize("kernel", (1, 3, 5))
    def test_owns_no_more_than_the_padded_input(self, kernel):
        # a cached column matrix is k*k times the input; the model keeps
        # every layer's cache of a whole-dataset encode alive at once
        p = kernel // 2
        for c_in, c_out, size in DEFAULT_ARCH_CONVS:
            conv = Conv2D(c_in, c_out, kernel, np.random.default_rng(0))
            x = np.random.default_rng(1).normal(size=(7, c_in, size, size))
            _, cache = conv.forward(x)
            roots = _root_arrays(cache)
            assert roots
            padded = x.itemsize * 7 * c_in * (size + 2 * p) ** 2
            assert sum(r.nbytes for r in roots) <= padded


class TestMaxPool:
    def test_forward_matches_blockwise_loop(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 4))
        pool = MaxPool2x2()
        out, _ = pool.forward(x)
        for n in range(2):
            for c in range(3):
                for i in range(3):
                    for j in range(2):
                        block = x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        assert out[n, c, i, j] == block.max()

    def test_backward_routes_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool = MaxPool2x2()
        _, cache = pool.forward(x)
        dx, _ = pool.backward(np.array([[[[7.0]]]]), cache)
        assert dx.tolist() == [[[[0.0, 0.0], [0.0, 7.0]]]]

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 4, 4))
        dout = rng.normal(size=(2, 2, 2, 2))
        pool = MaxPool2x2()
        _, cache = pool.forward(x)
        dx, _ = pool.backward(dout, cache)
        assert np.allclose(dx, fd_layer_grad(pool, x, dout), atol=1e-7)

    def test_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            MaxPool2x2().forward(np.zeros((1, 1, 3, 4)))


def _bitwise_equal(a, b):
    """Equal values, NaN included, and equal signs, zeros included."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestMaxPoolMatchesReference:
    """The four-quadrant layer against the frozen argmax layer, bit for bit."""

    SHAPES = ((1, 1, 2, 2), (3, 2, 4, 6), (5, 8, 16, 16), (7, 16, 8, 8))

    @staticmethod
    def _draws(rng, shape):
        # {-0.0, 0.0, 1.0} fills tiles with ties, mixed-sign zeros among them
        yield rng.choice([-0.0, 0.0, 1.0], size=shape)
        yield np.maximum(rng.normal(size=shape), 0.0)
        yield rng.normal(size=shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_and_backward_bit_identical(self, shape):
        rng = np.random.default_rng(sum(shape))
        pool, ref = MaxPool2x2(), conv_reference.MaxPool2x2()
        for _ in range(20):
            for x in self._draws(rng, shape):
                out, cache = pool.forward(x, True)
                ref_out, ref_cache = ref.forward(x, True)
                assert _bitwise_equal(out, ref_out)
                for dout in self._draws(rng, out.shape):
                    dx, _ = pool.backward(dout, cache)
                    ref_dx, _ = ref.backward(dout, ref_cache)
                    assert _bitwise_equal(dx, ref_dx)

    def test_nan_tile_pools_to_nan(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 1, 0] = np.nan
        out, _ = MaxPool2x2().forward(x)
        assert np.isnan(out[0, 0, 0, 0])
        assert not np.isnan(out[0, 0, [0, 1, 1], [1, 0, 1]]).any()

    def test_training_bit_identical(self):
        _assert_training_matches_reference(MaxPool2x2, conv_reference.MaxPool2x2)


def _assert_training_matches_reference(cls, ref_cls):
    """Training with `ref_cls` patched over every `cls` layer changes nothing.

    benchmark_spec(40) trained 2 epochs, the clustering term on from epoch 1:
    per-epoch stats, parameters and latent codes are ==.
    """
    result = synth_sequence(benchmark_spec(num_frames=40), seed=0)
    dets = list(result.detections)
    tracklets = pregroup(dets, result.table)
    labels = tracklet_labels(tracklets, len(dets))
    config = TrainingConfig(epochs=2, learning_rate=1e-3,
                            lambda_schedule=((0, 0.0), (1, 0.95)), seed=0)
    arch = ArchConfig(input_shape=dets[0].image.shape)
    model, ref = AutoEncoder(arch, seed=0), AutoEncoder(arch, seed=0)
    for _, layer in ref.layer_items():
        if isinstance(layer, cls):
            layer.__class__ = ref_cls
    _, trace = train(model, *arrays(dets), labels, config)
    _, ref_trace = train(ref, *arrays(dets), labels, config)
    assert trace == ref_trace
    for (_, _, a), (_, _, b) in zip(model.parameter_items(), ref.parameter_items()):
        assert np.array_equal(a, b)
    assert np.array_equal(latent_codes(model, dets), latent_codes(ref, dets))


class TestUpsample:
    def test_forward_matches_kron(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 3, 2))
        out, _ = Upsample2x().forward(x)
        for n in range(2):
            for c in range(3):
                assert np.array_equal(out[n, c], np.kron(x[n, c], np.ones((2, 2))))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 3, 3))
        dout = rng.normal(size=(1, 2, 6, 6))
        up = Upsample2x()
        _, cache = up.forward(x)
        dx, _ = up.backward(dout, cache)
        assert np.allclose(dx, fd_layer_grad(up, x, dout), atol=1e-7)


class TestUpsampleMatchesReference:
    """The four-view gradient against the frozen reshape-sum layer, with ==."""

    # (C, H, W) of the two upsample inputs of the default ArchConfig()
    SHAPES = ((16, 4, 4), (8, 8, 8))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_and_backward_bit_identical(self, shape):
        up, ref = Upsample2x(), conv_reference.Upsample2x()
        for n in range(1, 16):
            rng = np.random.default_rng(n)
            x = rng.normal(size=(n, *shape))
            out, cache = up.forward(x, True)
            ref_out, ref_cache = ref.forward(x, True)
            assert np.array_equal(out, ref_out)
            dout = rng.normal(size=out.shape)
            dx, _ = up.backward(dout, cache)
            ref_dx, _ = ref.backward(dout, ref_cache)
            assert np.array_equal(dx, ref_dx)

    def test_training_bit_identical(self):
        _assert_training_matches_reference(Upsample2x, conv_reference.Upsample2x)


class TestDenseRelu:
    def test_dense_forward_and_gradients(self):
        rng = np.random.default_rng(7)
        dense = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        out, cache = dense.forward(x)
        assert np.allclose(out, x @ dense.params["W"] + dense.params["b"])
        dout = rng.normal(size=(5, 3))
        dx, grads = dense.backward(dout, cache)
        assert np.allclose(dx, fd_layer_grad(dense, x, dout), atol=1e-7)
        assert np.allclose(grads["W"], x.T @ dout)
        assert np.allclose(grads["b"], dout.sum(axis=0))

    def test_relu(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        out, cache = relu.forward(x)
        assert out.tolist() == [[0.0, 0.0, 2.0]]
        dx, _ = relu.backward(np.array([[5.0, 5.0, 5.0]]), cache)
        assert dx.tolist() == [[0.0, 0.0, 5.0]]


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm(3)
        x = rng.normal(loc=5.0, scale=2.0, size=(16, 3, 4, 4))
        out, _ = bn.forward(x, train=True)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_drive_inference(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm(2)
        x = rng.normal(loc=3.0, size=(8, 2))
        for _ in range(200):
            bn.forward(x, train=True)
        out, _ = bn.forward(x, train=False)
        ref = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + BN_EPS)
        assert np.allclose(out, ref, atol=1e-2)

    def test_train_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        bn = BatchNorm(3)
        bn.params["gamma"] = rng.uniform(0.5, 1.5, 3)
        bn.params["beta"] = rng.normal(size=3)
        x = rng.normal(size=(4, 3, 2, 2))
        dout = rng.normal(size=(4, 3, 2, 2))
        mean0, var0 = bn.running_mean.copy(), bn.running_var.copy()
        _, cache = bn.forward(x, train=True)
        bn.running_mean, bn.running_var = mean0, var0
        dx, _ = bn.backward(dout, cache)

        def fd_loss(xv):
            bn.running_mean, bn.running_var = mean0.copy(), var0.copy()
            return float(np.sum(bn.forward(xv, train=True)[0] * dout))

        num = np.zeros_like(x)
        flat, nflat = x.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-6
            up = fd_loss(x)
            flat[i] = orig - 1e-6
            down = fd_loss(x)
            flat[i] = orig
            nflat[i] = (up - down) / 2e-6
        assert np.allclose(dx, num, atol=1e-6)


def test_xavier_variance_matches_target():
    for fan_in, fan_out, shape in ((48, 64, (8, 6, 3, 3)), (100, 20, (100, 20))):
        target = 2.0 / (fan_in + fan_out)
        draws = [
            xavier_uniform(np.random.default_rng(seed), shape, fan_in, fan_out).var()
            for seed in range(10)
        ]
        assert abs(np.mean(draws) - target) < 0.2 * target


class TestArchConfig:
    def test_rejects_indivisible_input(self):
        with pytest.raises(ValueError):
            ArchConfig(input_shape=(3, 20, 20), conv_channels=(8, 16, 32))

    def test_rejects_empty_stages(self):
        with pytest.raises(ValueError):
            ArchConfig(conv_channels=())

    def test_bottleneck_shape(self):
        assert SMALL.bottleneck_shape == (6, 2, 2)

    def test_full_scale_shape(self):
        cfg = ArchConfig.full_scale()
        assert cfg.input_shape == (3, 64, 64)
        assert len(cfg.conv_channels) == 5
        assert cfg.bottleneck_shape == (512, 2, 2)
        assert cfg.batchnorm


class TestAutoEncoder:
    def test_encode_all_equals_one_batch(self):
        # compute_centroids and latent_codes encode in chunks; their codes
        # must equal those of one batch of every image
        model = AutoEncoder(ArchConfig(), seed=0)
        x = np.random.default_rng(12).uniform(0.05, 0.95,
                                              size=(2 * LATENT_CHUNK + 5, 3, 16, 16))
        z, _ = model.encode_batch(x)
        assert np.array_equal(model.encode_all(x), z)
        assert np.array_equal(model.encode_all(list(x)), z)

    def test_shapes_roundtrip(self):
        model = AutoEncoder(SMALL, seed=0)
        rng = np.random.default_rng(11)
        x = small_batch(rng)
        recon, z, _ = model.forward_batch(x)
        assert z.shape == (4, 5)
        assert recon.shape == x.shape

    def test_encode_single_image(self):
        model = AutoEncoder(SMALL, seed=0)
        img = np.random.default_rng(12).uniform(size=(3, 8, 8))
        z = model.encode_batch(img[None])[0][0]
        assert z.shape == (5,)
        assert model.decode_batch(z[None])[0][0].shape == (3, 8, 8)

    def test_encode_deterministic(self):
        img = np.random.default_rng(13).uniform(size=(3, 8, 8))
        a = AutoEncoder(SMALL, seed=3).encode_batch(img[None])[0][0]
        b = AutoEncoder(SMALL, seed=3).encode_batch(img[None])[0][0]
        assert np.array_equal(a, b)

    def test_rejects_wrong_shape(self):
        model = AutoEncoder(SMALL, seed=0)
        with pytest.raises(ValueError):
            model.encode_batch(np.zeros((1, 3, 8, 4)))

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_a_bad_seed(self, seed):
        # numpy's message ("expected non-negative integer") named no value
        message = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AutoEncoder(SMALL, seed=seed)

    def test_small_model_under_gradient_check_budget(self):
        model = AutoEncoder(SMALL, seed=0)
        assert sum(arr.size for _, _, arr in model.parameter_items()) <= 5000

    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        model = AutoEncoder(SMALL_BN, seed=7)
        rng = np.random.default_rng(14)
        for _, _, arr in model.parameter_items():
            arr += rng.normal(size=arr.shape) * 0.01
        model.epoch = 3
        path = tmp_path / "model.npz"
        model.save(path)
        back = AutoEncoder.load(path)
        assert back.config == model.config
        assert back.seed == model.seed
        assert back.epoch == 3
        for (key, name, arr), (key2, name2, arr2) in zip(
            model.parameter_items(), back.parameter_items()
        ):
            assert (key, name) == (key2, name2)
            assert np.array_equal(arr, arr2)
        img = rng.uniform(size=(3, 8, 8))
        assert np.array_equal(model.encode_batch(img[None])[0],
                              back.encode_batch(img[None])[0])

    @pytest.mark.parametrize("arch", [SMALL, SMALL_BN], ids=["plain", "batchnorm"])
    def test_conv_has_bias_unless_batchnorm_follows(self, arch):
        model = AutoEncoder(arch, seed=0)
        for layers in (model.encoder_layers, model.decoder_layers):
            for layer, after in zip(layers, layers[1:] + [None]):
                if isinstance(layer, Conv2D):
                    assert ("b" in layer.params) != isinstance(after, BatchNorm)
        detail = gradient_check(model, small_batch(np.random.default_rng(3), n=2),
                                detail=True)
        assert (("enc", 0, "b") in detail) != arch.batchnorm

    def test_load_rejects_conv_bias_before_batchnorm(self, tmp_path):
        path = tmp_path / "model.npz"
        AutoEncoder(SMALL_BN, seed=7).save(path)
        with np.load(path) as data:
            arrays = dict(data)
        np.savez(path, **arrays, **{"enc.0.b": np.zeros(SMALL_BN.conv_channels[0])})
        with pytest.raises(ValueError, match=r"model\.npz: checkpoint holds enc\.0\.b,"):
            AutoEncoder.load(path)


def _bump(arr, index):
    """Move one entry of an array to the next float up, in place."""
    arr[index] = np.nextafter(arr[index], np.inf)


def _bump_weight(model, dets):
    _bump(model.encoder_layers[0].params["W"], (0, 0, 0, 0))


def _bump_pixel(model, dets):
    _bump(dets[LATENT_CHUNK + 2].image, (1, 4, 5))


def _swap_patches(model, dets):
    dets[0], dets[1] = dets[1], dets[0]


def _bump_running_mean(model, dets):
    bn = next(layer for layer in model.encoder_layers if isinstance(layer, BatchNorm))
    _bump(bn.running_mean, 2)


def _coded_detections():
    """More detections than one encode chunk, one per frame."""
    rng = np.random.default_rng(40)
    return [Detection(1 + i, BBox(0.0, 0.0, 8.0, 8.0),
                      image=rng.uniform(0.05, 0.95, size=(3, 8, 8)))
            for i in range(LATENT_CHUNK + 5)]


def _trained_looking_model():
    # perturbed tensors, so every one of them reaches the codes
    model = AutoEncoder(SMALL_BN, seed=7)
    rng = np.random.default_rng(41)
    for _, arr in model._tensors():
        arr += rng.normal(size=arr.shape) * 0.01
    return model


def _fresh_codes(model, dets):
    """The detections' codes from `encode_batch`, bypassing `encode_all`."""
    return np.concatenate([model.encode_batch(np.stack(
        [det.image for det in dets[i:i + LATENT_CHUNK]]))[0]
        for i in range(0, len(dets), LATENT_CHUNK)])


class TestStoredCodes:
    """A checkpoint saved with images serves their codes while nothing changed."""

    def _detections(self):
        return _coded_detections()

    def _saved(self, tmp_path, **save):
        model = _trained_looking_model()
        path = tmp_path / "model.npz"
        model.save(path, **save)
        return model, path

    def _fresh(self, model, dets):
        return _fresh_codes(model, dets)

    def test_hit_equals_encode_all_bitwise(self, tmp_path, encodes):
        dets = self._detections()
        model, path = self._saved(tmp_path, images=[det.image for det in dets])
        back = AutoEncoder.load(path)
        del encodes[:]
        codes = latent_codes(back, dets)
        assert encodes == []
        want = model.encode_all([det.image for det in dets])
        assert np.array_equal(codes.view(np.int64), want.view(np.int64))
        codes[0, 0] = np.nan
        again = latent_codes(back, dets)
        assert np.array_equal(again.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("change", [
        _bump_weight, _bump_pixel, _swap_patches, _bump_running_mean,
    ], ids=["weight", "pixel", "swapped", "running-mean"])
    def test_change_after_load_encodes_afresh(self, tmp_path, encodes, change):
        dets = self._detections()
        _, path = self._saved(tmp_path, images=[det.image for det in dets])
        back = AutoEncoder.load(path)
        stored = back.stored_codes[1].copy()
        change(back, dets)
        del encodes[:]
        codes = latent_codes(back, dets)
        assert encodes == [len(dets)]
        fresh = self._fresh(back, dets)
        assert np.array_equal(codes.view(np.int64), fresh.view(np.int64))
        assert not np.array_equal(codes, stored)

    @pytest.mark.parametrize("malformed", [
        lambda codes: codes[:-1],
        lambda codes: codes.astype(np.float32),
        lambda codes: codes.T.copy(),
    ], ids=["short", "float32", "transposed"])
    def test_malformed_codes_entry_encodes_afresh(self, tmp_path, encodes, malformed):
        dets = self._detections()
        _, path = self._saved(tmp_path, images=[det.image for det in dets])
        with np.load(path) as data:
            arrays = dict(data)
        arrays["__codes__"] = malformed(arrays["__codes__"])
        np.savez(path, **arrays)
        back = AutoEncoder.load(path)
        del encodes[:]
        codes = latent_codes(back, dets)
        assert encodes == [len(dets)]
        assert np.array_equal(codes, self._fresh(back, dets))

    def test_checkpoint_without_codes_loads_and_encodes(self, tmp_path, encodes):
        dets = self._detections()
        model, path = self._saved(tmp_path)
        with np.load(path) as data:
            assert not {"__codes__", "__codes_key__"} & set(data.files)
        back = AutoEncoder.load(path)
        assert back.stored_codes is None
        del encodes[:]
        codes = latent_codes(back, dets)
        assert encodes == [len(dets)]
        assert np.array_equal(codes, model.encode_all([det.image for det in dets]))

    def test_checkpoint_with_kernel_size_loads(self, tmp_path, encodes):
        # files saved while the kernel side was an ArchConfig field carry
        # it in their config, and must load to the same model and codes
        dets = self._detections()
        model, path = self._saved(tmp_path, images=[det.image for det in dets])
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        assert "kernel_size" not in meta
        meta["kernel_size"] = 3
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        back = AutoEncoder.load(path)
        assert back.config == model.config
        assert (back.seed, back.epoch) == (model.seed, model.epoch)
        for (_, _, arr), (_, _, arr2) in zip(model.parameter_items(),
                                             back.parameter_items()):
            assert np.array_equal(arr, arr2)
        assert back.stored_codes[0] == model.stored_codes[0]
        assert np.array_equal(back.stored_codes[1], model.stored_codes[1])
        del encodes[:]
        codes = latent_codes(back, dets)
        assert encodes == []
        assert np.array_equal(codes, model.stored_codes[1])

    def test_load_names_unknown_tensor_beside_codes(self, tmp_path):
        dets = self._detections()
        _, path = self._saved(tmp_path, images=[det.image for det in dets])
        with np.load(path) as data:
            arrays = dict(data)
        np.savez(path, **arrays, **{"dec.0.bogus": np.zeros(3)})
        with pytest.raises(ValueError,
                           match=r"model\.npz: checkpoint holds dec\.0\.bogus, which"):
            AutoEncoder.load(path)

    def test_every_checkpoint_tensor_reaches_the_key(self, tmp_path, encodes):
        dets = self._detections()
        images = [det.image for det in dets]
        _, path = self._saved(tmp_path, images=images)
        del encodes[:]
        AutoEncoder.load(path).codes(images)
        assert encodes == []
        with np.load(path) as data:
            arrays = dict(data)
        tensors = [name for name in arrays if not name.startswith("__")]
        assert any(name.endswith("running_mean") for name in tensors)
        for name in tensors:
            changed = dict(arrays, **{name: arrays[name].copy()})
            _bump(changed[name], (0,) * changed[name].ndim)
            np.savez(tmp_path / "changed.npz", **changed)
            back = AutoEncoder.load(tmp_path / "changed.npz")
            del encodes[:]
            back.codes(images)
            assert encodes == [len(images)], name

    def test_no_images_save_and_load_empty_codes(self, tmp_path, encodes):
        model, path = self._saved(tmp_path, images=[])
        back = AutoEncoder.load(path)
        assert back.stored_codes[1].shape == (0, SMALL_BN.latent_dim)
        del encodes[:]
        codes = back.codes([])
        assert encodes == []
        assert codes.shape == (0, SMALL_BN.latent_dim) and codes.dtype == np.float64


class TestCodesInMemory:
    """A model built in memory encodes a patch set once until it or the patches change."""

    def test_second_call_reuses_codes_in_a_fresh_array(self, encodes):
        model, dets = _trained_looking_model(), _coded_detections()
        first = latent_codes(model, dets)
        assert encodes == [len(dets)]
        want = _fresh_codes(model, dets)
        assert np.array_equal(first.view(np.int64), want.view(np.int64))
        first[0, 0] = np.nan
        again = latent_codes(model, dets)
        assert encodes == [len(dets)]
        assert np.array_equal(again.view(np.int64), want.view(np.int64))
        again[1, 1] = np.nan
        third = latent_codes(model, dets)
        assert np.array_equal(third.view(np.int64), want.view(np.int64))
        assert encodes == [len(dets)]

    @pytest.mark.parametrize("change", [
        _bump_weight, _bump_pixel, _swap_patches, _bump_running_mean,
    ], ids=["weight", "pixel", "swapped", "running-mean"])
    def test_change_after_first_call_encodes_afresh_once(self, encodes, change):
        model, dets = _trained_looking_model(), _coded_detections()
        first = latent_codes(model, dets)
        change(model, dets)
        del encodes[:]
        codes = latent_codes(model, dets)
        assert encodes == [len(dets)]
        fresh = _fresh_codes(model, dets)
        assert np.array_equal(codes.view(np.int64), fresh.view(np.int64))
        assert not np.array_equal(codes, first)
        again = latent_codes(model, dets)
        assert np.array_equal(again.view(np.int64), fresh.view(np.int64))
        assert encodes == [len(dets)]

    def test_train_run_makes_no_key_and_encodes_afresh(self, encodes, keys):
        model, dets = _trained_looking_model(), _coded_detections()
        first = latent_codes(model, dets)
        images = np.stack([det.image for det in dets])
        frames = np.arange(len(dets)) // 4
        labels = np.arange(len(dets)) // 8
        config = TrainingConfig(epochs=2, learning_rate=1e-3,
                                lambda_schedule=((0, 0.5),), seed=3)
        del encodes[:], keys[:]
        train(model, images, frames, labels, config)
        # `compute_centroids` encodes once per epoch, outside the cache
        assert keys == []
        assert encodes == [len(dets)] * 2
        del encodes[:]
        codes = latent_codes(model, dets)
        assert encodes == [len(dets)]
        fresh = _fresh_codes(model, dets)
        assert np.array_equal(codes.view(np.int64), fresh.view(np.int64))
        assert not np.array_equal(codes, first)

    def test_latent_codes_then_run_tracking_encode_once(self, encodes):
        model, dets = _trained_looking_model(), _coded_detections()
        models = (AffinityModel(NEARBY_FEATURES, (-2.0, 6.0, -0.5, 0.0)),
                  AffinityModel(LIFTED_FEATURES, (1.0, -0.5)))
        config = dataclasses.replace(PipelineConfig(), min_cluster_size=1)
        table = iou_match_table(dets)
        latents = latent_codes(model, dets)
        tracks = run_tracking(dets, table, model, models, config)
        assert encodes == [len(dets)]
        assert tracks == track_latents(dets, table, latents, models, config)

    def test_save_after_latent_codes_adds_no_encode(self, tmp_path, encodes):
        model, dets = _trained_looking_model(), _coded_detections()
        codes = latent_codes(model, dets)
        model.save(tmp_path / "model.npz", images=[det.image for det in dets])
        assert encodes == [len(dets)]
        again = latent_codes(AutoEncoder.load(tmp_path / "model.npz"), dets)
        assert np.array_equal(again.view(np.int64), codes.view(np.int64))
        assert encodes == [len(dets)]

    def test_no_images_give_empty_codes(self, encodes):
        model = _trained_looking_model()
        for codes in (model.encode_all([]), model.codes([]),
                      model.encode_all(np.zeros((0, 3, 8, 8)))):
            assert codes.shape == (0, SMALL_BN.latent_dim)
            assert codes.dtype == np.float64


class TestLosses:
    def test_reconstruction_matches_handrolled_forward(self):
        # Independent forward: scipy correlation + plain numpy, no model code.
        model = AutoEncoder(ArchConfig((3, 4, 4), (4,), latent_dim=3), seed=1)
        rng = np.random.default_rng(15)
        x = small_batch(rng, n=2, shape=(3, 4, 4))

        def conv(v, layer):
            w, b = layer.params["W"], layer.params["b"]
            out = np.empty((w.shape[0], v.shape[1], v.shape[2]))
            for o in range(w.shape[0]):
                out[o] = sum(
                    signal.correlate2d(v[c], w[o, c], mode="same")
                    for c in range(v.shape[0])
                ) + b[o]
            return out

        enc = model.encoder_layers
        dec = model.decoder_layers
        total = 0.0
        for sample in x:
            # blockwise max by loops to stay independent of any clever reshape
            w = np.empty((4, 2, 2))
            u = np.maximum(conv(sample, enc[0]), 0)
            for c in range(4):
                for i in range(2):
                    for j in range(2):
                        w[c, i, j] = u[c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
            z = w.reshape(-1) @ enc[-1].params["W"] + enc[-1].params["b"]
            h = z @ dec[0].params["W"] + dec[0].params["b"]
            h = np.maximum(h, 0).reshape(4, 2, 2)
            h = np.kron(h, np.ones((2, 2))).reshape(4, 4, 4)
            recon = conv(h, dec[-1])
            total += float(np.sum((recon - sample) ** 2))
        assert combined_loss(model, x, None, 0.0) == pytest.approx(total / 2, rel=1e-12)

    def test_perfect_reconstruction_zero_loss(self):
        class _Stub:
            def __init__(self, mode):
                self.mode = mode

            def forward_batch(self, x, train=False):
                recon = x.copy() if self.mode == "identity" else np.zeros_like(x)
                return recon, np.zeros((len(x), 5)), None

        rng = np.random.default_rng(16)
        x = small_batch(rng, n=3)
        assert combined_loss(_Stub("identity"), x, None, 0.0) == 0.0
        unit = x / np.sqrt(np.sum(x**2, axis=(1, 2, 3), keepdims=True))
        assert combined_loss(_Stub("zero"), unit, None, 0.0) == pytest.approx(1.0)

    def test_combined_loss_lambda_zero_equals_reconstruction(self):
        model = AutoEncoder(SMALL, seed=0)
        rng = np.random.default_rng(17)
        x = small_batch(rng)
        recon, _, _ = model.forward_batch(x)
        assert combined_loss(model, x, None, 0.0) == float(
            np.sum((recon - x) ** 2) / len(x)
        )

    def test_combined_loss_lambda_one_exact_centroids(self):
        model = AutoEncoder(SMALL, seed=0)
        rng = np.random.default_rng(18)
        x = small_batch(rng)
        z, _ = model.encode_batch(x)
        assert combined_loss(model, x, z, 1.0) == pytest.approx(
            0.0, abs=1e-18
        )

    def test_combined_loss_convex_combination(self):
        model = AutoEncoder(SMALL, seed=0)
        rng = np.random.default_rng(19)
        x = small_batch(rng)
        targets = np.zeros((4, 5))
        lo = combined_loss(model, x, targets, 0.0)
        hi = combined_loss(model, x, targets, 1.0)
        mid = combined_loss(model, x, targets, 0.5)
        assert mid == pytest.approx(0.5 * lo + 0.5 * hi, rel=1e-12)

    def test_missing_centroid_raises(self):
        model = AutoEncoder(SMALL, seed=0)
        x = small_batch(np.random.default_rng(20))
        with pytest.raises(ValueError, match=r"targets of shape \(3, 5\)"):
            combined_loss(model, x, np.zeros((3, 5)), 0.5)


class TestCentroids:
    def test_single_member_equals_latent(self):
        model = AutoEncoder(SMALL, seed=0)
        x = small_batch(np.random.default_rng(21), n=1)
        targets = compute_centroids(model, x, [5])
        assert np.allclose(targets[0], model.encode_batch(x[:1])[0][0])

    def test_mean_of_three_members(self):
        model = AutoEncoder(SMALL, seed=0)
        x = small_batch(np.random.default_rng(22), n=3)
        z, _ = model.encode_batch(x)
        targets = compute_centroids(model, x, [1, 1, 1])
        manual = np.array(
            [sum(z[i][d] for i in range(3)) / 3 for d in range(5)]
        )
        for row in targets:
            assert np.allclose(row, manual, atol=1e-12)

    def test_permutation_invariant(self):
        model = AutoEncoder(SMALL, seed=0)
        x = small_batch(np.random.default_rng(23), n=6)
        labels = [0, 1, 0, 1, 0, 1]
        t1 = compute_centroids(model, x, labels)
        perm = [3, 1, 4, 0, 5, 2]
        t2 = compute_centroids(model, x[perm], [labels[i] for i in perm])
        assert np.allclose(t1[perm], t2, atol=1e-12)

    def test_empty_dataset_raises(self):
        model = AutoEncoder(SMALL, seed=0)
        with pytest.raises(ValueError):
            compute_centroids(model, np.zeros((0, 3, 8, 8)), [])


def _toy_dataset(rng, frames=4, per_frame=1, shape=(3, 8, 8)):
    dets = []
    for f in range(1, frames + 1):
        for _ in range(per_frame):
            dets.append(
                Detection(
                    frame=f,
                    box=BBox(0, 0, 4, 4),
                    image=rng.uniform(0.1, 0.9, size=shape),
                )
            )
    return dets


class TestTrain:
    def test_reconstruction_descends(self):
        rng = np.random.default_rng(26)
        dets = _toy_dataset(rng, frames=4)
        model = AutoEncoder(SMALL, seed=1)
        config = TrainingConfig(epochs=200, learning_rate=1e-3,
                                lambda_schedule=((0, 0.0),), seed=2)
        _, trace = train(model, *arrays(dets), [0, 1, 2, 3], config)
        assert trace[-1].reconstruction < trace[0].reconstruction
        assert len(trace) == 200
        assert model.epoch == 200

    def test_lambda_switch_reduces_centroid_distance(self):
        rng = np.random.default_rng(27)
        dets = _toy_dataset(rng, frames=6, per_frame=2)
        labels = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        model = AutoEncoder(SMALL, seed=3)
        config = TrainingConfig(
            epochs=120,
            learning_rate=1e-3,
            lambda_schedule=((0, 0.0), (60, 0.95)),
            seed=4,
        )
        _, trace = train(model, *arrays(dets), labels, config)
        assert trace[59].clustering == 0.0
        assert trace[-1].clustering < trace[60].clustering

    def test_fixed_seed_reproduces_trace(self):
        rng = np.random.default_rng(28)
        dets = _toy_dataset(rng, frames=3)
        config = TrainingConfig(epochs=5, learning_rate=1e-3,
                                lambda_schedule=((0, 0.0),), seed=9)
        _, t1 = train(AutoEncoder(SMALL, seed=5), *arrays(dets), [0, 1, 2], config)
        _, t2 = train(AutoEncoder(SMALL, seed=5), *arrays(dets), [0, 1, 2], config)
        assert t1 == t2

    def test_divergence_detected(self):
        rng = np.random.default_rng(29)
        dets = _toy_dataset(rng, frames=2)
        model = AutoEncoder(SMALL, seed=6)
        config = TrainingConfig(epochs=50, learning_rate=1e6,
                                lambda_schedule=((0, 0.0),), seed=7)
        # the absurd learning rate overflows by design
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
            train(model, *arrays(dets), [0, 1], config)

    def test_non_finite_parameter_detected(self):
        # one single-patch frame: the loss is finite, the first update is not
        rng = np.random.default_rng(30)
        dets = _toy_dataset(rng, frames=1)
        model = AutoEncoder(SMALL, seed=6)
        config = TrainingConfig(epochs=1, learning_rate=1e308,
                                lambda_schedule=((0, 0.0),), seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDiverged,
            match=r"non-finite parameter W in \('enc', 0\) after epoch 0",
        ):
            train(model, *arrays(dets), [0], config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0, learning_rate=1e-3, lambda_schedule=((0, 0.0),),
                           seed=0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=1, learning_rate=0.0, lambda_schedule=((0, 0.0),),
                           seed=0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=1, learning_rate=1e-3, lambda_schedule=((0, 1.5),),
                           seed=0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=1, learning_rate=1e-3,
                           lambda_schedule=((3, 0.5), (1, 0.9)), seed=0)
        cfg = TrainingConfig(epochs=10, learning_rate=1e-3,
                             lambda_schedule=((2, 0.5),), seed=0)
        assert cfg.lambda_at(0) == 0.0
        assert cfg.lambda_at(2) == 0.5
        assert cfg.learning_rate_at(10) == pytest.approx(1e-4)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(epochs=1.5), "epochs must be an integer, got 1.5"),
        (dict(epochs=2.0), "epochs must be an integer, got 2.0"),
        (dict(epochs=True), "epochs must be an integer, got True"),
        (dict(epochs=1, seed=-1), "seed must be a non-negative integer, got -1"),
        (dict(epochs=1, seed=1.5), "seed must be a non-negative integer, got 1.5"),
        (dict(epochs=1, seed=False), "seed must be a non-negative integer, got False"),
        (dict(epochs=1, lambda_schedule=((0.5, 0.1),)),
         "lambda_schedule epochs must be integers, got 0.5"),
        (dict(epochs=1, lambda_schedule=((0, 0.0), (True, 0.5))),
         "lambda_schedule epochs must be integers, got True"),
    ])
    def test_config_names_a_bad_epoch_count_or_seed(self, kwargs, message):
        # these used to construct, and `train` failed later in numpy or range
        kwargs = dict(dict(learning_rate=1e-3, lambda_schedule=((0, 0.0),), seed=0),
                      **kwargs)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainingConfig(**kwargs)

    def test_config_takes_numpy_integers(self):
        cfg = TrainingConfig(epochs=np.int64(2), learning_rate=1e-3,
                             lambda_schedule=((np.int64(0), 0.0),), seed=np.int32(3))
        model = AutoEncoder(SMALL, seed=np.int64(3))
        assert model.seed == 3 and type(model.seed) is int
        train(model, *arrays(_toy_dataset(np.random.default_rng(0), frames=1)), [0], cfg)
        assert model.epoch == 2


def _scrambled_dataset():
    """30 detections in shuffled order over frames 1, 2, 5, 6, 11 and 40
    (gaps, two frames of one, one frame of 17); five labels, negative,
    large and non-contiguous, each shared by items of several frames."""
    rng = np.random.default_rng(7)
    frames = rng.permutation(np.repeat([1, 2, 5, 6, 11, 40], [1, 17, 1, 3, 6, 2]))
    dets = [Detection(frame=int(f), box=BBox(0, 0, 4, 4),
                      image=rng.uniform(0.1, 0.9, size=(3, 8, 8)))
            for f in frames]
    labels = rng.choice([-7, -1, 4, 10**6, 2**40], size=len(dets)).tolist()
    return SMALL, dets, labels


def _scene_dataset():
    """benchmark_spec(40), data seed 1, without frames 10-12 and 25, with one
    detection left in each of frames 30-33, in shuffled order; tracklet
    labels mapped to negative (odd) and large (even) values."""
    result = synth_sequence(benchmark_spec(num_frames=40), seed=1)
    dets = list(result.detections)
    labels = tracklet_labels(pregroup(dets, result.table), len(dets))
    labels = np.where(labels % 2, -1000 * labels - 1, labels * 10**9)
    keep, single = [], set()
    for i, det in enumerate(dets):
        if det.frame in (10, 11, 12, 25) or det.frame in single:
            continue
        if 30 <= det.frame <= 33:
            single.add(det.frame)
        keep.append(i)
    order = np.random.default_rng(2).permutation(keep)
    return (ArchConfig(input_shape=dets[0].image.shape), [dets[i] for i in order],
            labels[order])


class TestTrainingMatchesReference:
    """`train` and `compute_centroids` against the frozen dict-based loop."""

    @pytest.mark.parametrize("make", [_scrambled_dataset, _scene_dataset],
                             ids=["scrambled", "scene"])
    def test_training_and_centroids_equal(self, make):
        arch, dets, labels = make()
        config = TrainingConfig(epochs=3, learning_rate=1e-3,
                                lambda_schedule=((0, 0.0), (1, 0.9)), seed=3)
        model, ref = AutoEncoder(arch, seed=1), AutoEncoder(arch, seed=1)
        _, trace = train(model, *arrays(dets), labels, config)
        _, ref_trace = training_reference.reference_train(ref, dets, labels, config)
        assert trace == ref_trace
        for (_, _, a), (_, _, b) in zip(model.parameter_items(), ref.parameter_items()):
            assert np.array_equal(a, b)
        assert np.array_equal(latent_codes(model, dets), latent_codes(ref, dets))
        images = np.stack([det.image for det in dets])
        targets = compute_centroids(model, images, labels)
        table = training_reference.reference_compute_centroids(model, images, labels)
        assert targets.shape == (len(dets), arch.latent_dim)
        for row, label in zip(targets, labels):
            assert np.array_equal(row, table[label])


class TestGradientCheck:
    def test_linear_autoencoder_tight(self):
        # Two dense layers, no nonlinearity: gradients are exact to FD noise.
        rng = np.random.default_rng(30)
        enc = Dense(6, 3, rng)
        dec = Dense(3, 6, rng)
        x = rng.normal(size=(4, 6))

        def loss():
            z, _ = enc.forward(x)
            recon, _ = dec.forward(z)
            return float(np.sum((recon - x) ** 2) / 4)

        z, ce = enc.forward(x)
        recon, cd = dec.forward(z)
        d = 2.0 * (recon - x) / 4
        dz, gdec = dec.backward(d, cd)
        _, genc = enc.backward(dz, ce)
        worst = 0.0
        for layer, grads in ((enc, genc), (dec, gdec)):
            for name, g in grads.items():
                flat = layer.params[name].reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + 1e-3
                    up = loss()
                    flat[i] = orig - 1e-3
                    down = loss()
                    flat[i] = orig
                    num = (up - down) / 2e-3
                    a = g.reshape(-1)[i]
                    worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-6))
        assert worst < 1e-6

    def test_full_model_lambda_zero(self):
        # Smooth fixture: the pinned 1e-3 step cannot cross ReLU kinks or
        # flip maxpool winners, so FD measures the true derivative.
        model, x = smooth_embedding_fixture(SMALL, seed=8)
        assert gradient_check(model, x, lam=0.0) < 1e-4

    def test_full_model_with_clustering_term(self):
        model, x = smooth_embedding_fixture(SMALL, seed=9)
        labels = [0, 0, 1, 1]
        targets = compute_centroids(model, x, labels)
        assert gradient_check(model, x, targets, lam=0.95) < 1e-4

    def test_batchnorm_model(self):
        # Single stage keeps the composed 1/sigma curvature of batchnorm
        # shallow enough for the pinned step; deeper stacks inflate the
        # third-order truncation term past the tolerance.
        cfg = ArchConfig(
            input_shape=(3, 4, 4), conv_channels=(6,), latent_dim=4, batchnorm=True
        )
        model, x = smooth_embedding_fixture(cfg, seed=1, batch=8)
        labels = [0, 0, 1, 1, 0, 1, 0, 1]
        targets = compute_centroids(model, x, labels)
        err = gradient_check(model, x, targets, lam=0.5)
        assert err < 1e-4
        # the check must not leave batchnorm running stats disturbed
        for layer in model.encoder_layers:
            if isinstance(layer, BatchNorm):
                assert np.array_equal(layer.running_mean, np.zeros(layer.num_features))

    def test_detail_covers_every_parameter_tensor(self):
        model = AutoEncoder(SMALL, seed=11)
        x = small_batch(np.random.default_rng(34), n=2)
        detail = gradient_check(model, x, lam=0.0, detail=True)
        tensors = {(k[0], k[1], name) for k, name, _ in model.parameter_items()}
        assert set(detail) == tensors
