"""Fixtures shared across test modules.

Training six autoencoders dominates the suite's runtime, so the three
benchmark sequences and their reconstruction-only / clustering-loss
embeddings are built once per session and reused by every ablation cell.
`encodes` and `keys` count the calls a test makes to `AutoEncoder.encode_all`
and `AutoEncoder.codes_key`.
"""

import pytest

from liftedtrack.embedding import AutoEncoder
from liftedtrack.pipeline import (
    PipelineConfig,
    ablation_cell,
    ablation_embeddings,
    pregroup,
)
from liftedtrack.synth import benchmark_spec, synth_sequence


@pytest.fixture
def encodes(monkeypatch):
    """The image count of each `AutoEncoder.encode_all` call, in call order."""
    calls = []
    encode_all = AutoEncoder.encode_all

    def counted(model, images):
        calls.append(len(images))
        return encode_all(model, images)

    monkeypatch.setattr(AutoEncoder, "encode_all", counted)
    return calls


@pytest.fixture
def keys(monkeypatch):
    """The image count of each `AutoEncoder.codes_key` call, in call order."""
    calls = []
    codes_key = AutoEncoder.codes_key

    def counted(model, images):
        calls.append(len(images))
        return codes_key(model, images)

    monkeypatch.setattr(AutoEncoder, "codes_key", counted)
    return calls


@pytest.fixture(scope="session")
def benchmark_runs():
    """Benchmark sequences for data seeds 0/1/2 with trained embeddings.

    Each run is a (synth result, latent codes per embedding) pair, the codes
    as `pipeline.ablation_embeddings` returns them. The training seed stays at
    the config default for every run; only the sequence seed varies, so
    embedding quality differences between runs come from the data, not from
    initialization luck.
    """
    config = PipelineConfig()
    runs = {}
    for seed in (0, 1, 2):
        result = synth_sequence(benchmark_spec(100), seed=seed)
        tracklets = pregroup(result.detections, result.table,
                             threshold=config.pregroup_threshold,
                             max_gap=config.pregroup_max_gap)
        runs[seed] = (result,
                      ablation_embeddings(result.detections, tracklets, config))
    return runs


@pytest.fixture(scope="session")
def cell_scores(benchmark_runs):
    """Memoized `pipeline.ablation_cell` scores per (seed, embedding, features, gaps)."""
    cache = {}

    def score(seed, embedding, features, max_frame_gap=3, lifted_gaps=()):
        key = (seed, embedding, tuple(features), max_frame_gap,
               tuple(lifted_gaps))
        if key not in cache:
            result, embeddings = benchmark_runs[seed]
            cache[key] = ablation_cell(
                result.detections, result.table, result.gt,
                embeddings[embedding], features, max_frame_gap, lifted_gaps,
                PipelineConfig())
        return cache[key]

    return score
