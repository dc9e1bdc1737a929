"""Shared generators for randomized solver and embedding tests, the
union-find and pair ordering that the frozen solver references use, and
the outcome comparison of the pair-row differential tests."""

import numpy as np

from liftedtrack.embedding import AutoEncoder, BatchNorm
from liftedtrack.graph import EdgeLabeling, MulticutInstance, Partition


def canonical_edge(u, v):
    """Unordered node pair stored with the smaller id first."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def random_instance(rng, max_nodes=10, edge_prob=0.7, lifted_frac=0.2):
    """Random instance: normal costs, ~20% of sampled pairs lifted."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = []
    lifted = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= edge_prob:
                continue
            cost = float(rng.normal())
            if rng.random() < lifted_frac:
                lifted.append((u, v, cost))
            else:
                edges.append((u, v, cost))
    return MulticutInstance(n, tuple(edges), tuple(lifted))


def planted_instance(rng, max_nodes=10, edge_prob=0.7, lifted_frac=0.2, mu=1.5):
    """Random instance with costs = noisy logits over a hidden clustering.

    Mirrors what the affinity stage produces: mostly-confident signed costs
    whose signs sometimes flip. Harder pure-noise instances come from
    random_instance.
    """
    n = int(rng.integers(2, max_nodes + 1))
    truth = rng.integers(0, max(1, n // 3) + 1, n)
    edges = []
    lifted = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= edge_prob:
                continue
            sign = 1.0 if truth[u] == truth[v] else -1.0
            cost = float(sign * mu + rng.normal())
            if rng.random() < lifted_frac:
                lifted.append((u, v, cost))
            else:
                edges.append((u, v, cost))
    return MulticutInstance(n, tuple(edges), tuple(lifted))


def smooth_embedding_fixture(config, seed, beta=5.0, noise=0.05, batch=4):
    """Model + batch tuned so finite differences at step 1e-3 stay clean.

    ReLU kinks and maxpool ties make the loss piecewise under a fixed FD
    step, so the fixture removes them: weights forced positive (keeps every
    ReLU input positive given positive activations), BN beta shifted well
    above zero for the same reason, and inputs given a steep spatial ramp so
    every 2x2 pool window has a structural gap far larger than any
    perturbation-induced shift.
    """
    model = AutoEncoder(config, seed=seed)
    for _, layer in model.layer_items():
        if isinstance(layer, BatchNorm):
            layer.params["beta"] = np.full(layer.num_features, float(beta))
        elif "W" in layer.params:
            layer.params["W"] = np.abs(layer.params["W"])
    rng = np.random.default_rng(seed + 1000)
    c, h, w = config.input_shape
    ramp = (np.arange(h)[:, None] * w + np.arange(w)[None, :]) / (h * w)
    x = 0.1 + 0.7 * ramp[None, None] + rng.uniform(0, noise, size=(batch, c, h, w))
    return model, x


def random_partition(rng, num_nodes):
    return Partition.from_labels([int(x) for x in rng.integers(0, num_nodes, num_nodes)])


def random_labeling(rng, instance):
    """Random 0/1 labels over E then F."""
    return EdgeLabeling(rng.integers(0, 2, instance.num_edges + instance.num_lifted))



def pair_rows_outcome(build, *args):
    """What `build(*args)` gives: its stored arrays as (dtype, rows,
    writeable) triples, or the ValueError's type, message and `rows`."""
    try:
        stored = build(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "rows", None)
    return [(a.dtype, a.tolist(), a.flags.writeable) for a in stored]


def shaped_rows(rng, rows, dtype):
    """`rows` as a list, a tuple of tuples or a `dtype` array, or rarely as
    a 2-D float array, which both pair-row validators reject."""
    form = rng.choice(["list", "tuple", "array", "2-D"], p=[0.3, 0.3, 0.35, 0.05])
    if form == "list":
        return list(rows)
    if form == "tuple":
        return tuple(rows)
    if form == "array":
        return np.array(rows, dtype=dtype)
    return np.zeros((len(rows) + 1, 3))
