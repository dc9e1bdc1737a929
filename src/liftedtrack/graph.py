"""Detection graph domain types: boxes, detections, multicut instances, labelings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

Edge = Tuple[int, int]
# One row per edge: canonical endpoints u < v and the real cost c.
EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("c", np.float64)])


def canonical_edge(u: int, v: int) -> Edge:
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


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixels: top-left corner plus positive size."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        for name in ("left", "top", "width", "height"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"BBox.{name} must be finite, got {value!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"BBox requires positive size, got {self.width} x {self.height}"
            )

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when they are disjoint."""
    ix = min(a.right, b.right) - max(a.left, b.left)
    iy = min(a.bottom, b.bottom) - max(a.top, b.top)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True, eq=False)
class Detection:
    """One detector box in one frame.

    `image` is an optional appearance patch (channels x H x W, values in
    [0, 1]) consumed by the embedding stage; geometry-only workflows leave
    it as None.
    """

    frame: int
    box: BBox
    score: float = 1.0
    image: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"Detection.frame must be >= 1, got {self.frame}")
        if not math.isfinite(self.score):
            raise ValueError("Detection.score must be finite")


@dataclass(frozen=True, eq=False)
class MulticutInstance:
    """Graph G=(V, E) with an extra lifted edge set F and real edge costs.

    `edges` hold the connectivity-defining pairs, `lifted_edges` contribute
    cost without connectivity. Both are read-only EDGE_DTYPE arrays; any
    sequence of (u, v, c) triples is converted. Pairs are canonical
    (u < v), unique within and across the two sets.
    """

    num_nodes: int
    edges: np.ndarray
    lifted_edges: np.ndarray = ()

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        for name in ("edges", "lifted_edges"):
            edges = getattr(self, name)
            # numpy reads a tuple of tuples as one record, a list as rows
            edges = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                             dtype=EDGE_DTYPE)
            if edges.ndim != 1:
                raise ValueError(f"{name} must be (u, v, c) triples, got {edges.shape}")
            edges.flags.writeable = False
            object.__setattr__(self, name, edges)
        both = np.concatenate([self.edges, self.lifted_edges])
        u, v, c, n = both["u"], both["v"], both["c"], self.num_nodes
        repeat = np.ones(len(both), dtype=bool)
        repeat[np.unique(both[["u", "v"]], return_index=True)[1]] = False
        checks = (
            (u == v, "self-loop {name} ({u}, {v})"),
            ((u < 0) | (u >= n) | (v < 0) | (v >= n),
             "{name} ({u}, {v}) outside node range"),
            (u > v, "{name} ({u}, {v}) not canonical (need u < v)"),
            (~np.isfinite(c), "{name} ({u}, {v}) has non-finite cost {c!r}"),
            (repeat, "duplicate pair ({u}, {v}) across E and F"),
        )
        bad = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
        if bad.size:
            i = bad[0]
            message = next(text for mask, text in checks if mask[i])
            name = "edge" if i < self.num_edges else "lifted edge"
            raise ValueError(message.format(name=name, u=int(u[i]), v=int(v[i]),
                                            c=float(c[i])))

    def __eq__(self, other):
        if not isinstance(other, MulticutInstance):
            return NotImplemented
        return (self.num_nodes == other.num_nodes
                and np.array_equal(self.edges, other.edges)
                and np.array_equal(self.lifted_edges, other.lifted_edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_lifted(self) -> int:
        return len(self.lifted_edges)


@dataclass(frozen=True, eq=False)
class EdgeLabeling:
    """One label per edge of E, then of F, in instance order: 1 cut, 0 joined."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels)
        if labels.ndim != 1:
            raise ValueError(f"labels must be one-dimensional, got {labels.shape}")
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise ValueError(
                f"label {bad[0]} must be 0 or 1, got {labels[bad[0]].item()!r}"
            )
        labels = labels.astype(np.int8)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other):
        if not isinstance(other, EdgeLabeling):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def validate_for(self, instance: MulticutInstance) -> None:
        """Raise unless there is one label per edge of E and then of F."""
        if len(self.labels) != instance.num_edges + instance.num_lifted:
            raise ValueError(
                f"labeling has {len(self.labels)} labels, instance has "
                f"{instance.num_edges} regular and {instance.num_lifted} lifted edges"
            )


@dataclass(frozen=True)
class Partition:
    """Node-to-component assignment with contiguous component ids 0..k-1."""

    component_of: Tuple[int, ...]

    def __post_init__(self):
        if self.component_of:
            ids = set(self.component_of)
            k = max(ids) + 1
            if ids != set(range(k)):
                raise ValueError("component ids must be contiguous 0..k-1")

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Relabel arbitrary component labels to canonical first-occurrence order."""
        remap: Dict[int, int] = {}
        out = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            out.append(remap[lab])
        return cls(tuple(out))

    @property
    def num_nodes(self) -> int:
        return len(self.component_of)

    @property
    def num_components(self) -> int:
        return max(self.component_of) + 1 if self.component_of else 0

    def canonical(self) -> "Partition":
        return Partition.from_labels(self.component_of)

    def blocks(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.num_components)]
        for node, comp in enumerate(self.component_of):
            out[comp].append(node)
        return out

    def same_as(self, other: "Partition") -> bool:
        """Equality up to component relabeling."""
        return self.canonical() == other.canonical()


def frame_pairs(frames: Sequence[int], gaps: Iterable[int]) -> np.ndarray:
    """Canonical pairs (u < v) whose frames lie exactly one of `gaps` (>= 0) apart.

    Detections are bucketed by frame with one stable sort, and each gap's
    partners are found by `searchsorted`: O(n log n) plus the pairs
    returned. Rows are sorted by (u, v), as a double loop over u < v emits
    them. Returns an (m, 2) int64 array.
    """
    frames = np.asarray(frames, dtype=np.int64)
    order = np.argsort(frames, kind="stable")
    sorted_frames = frames[order]
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for gap in np.unique(np.fromiter(gaps, dtype=np.int64)):
        lo, hi = (np.searchsorted(sorted_frames, frames + gap, side=side)
                  for side in ("left", "right"))
        counts = hi - lo
        first = np.repeat(np.arange(len(frames)), counts)
        offset = np.repeat(lo - np.cumsum(counts) + counts, counts)
        second = order[np.arange(counts.sum()) + offset]
        pair = np.sort(np.column_stack([first, second]), axis=1)
        pairs.append(pair[first < second] if gap == 0 else pair)
    pairs = np.concatenate(pairs)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def build_graph(
    detections: Sequence[Detection],
    max_frame_gap: int,
    lifted_gaps: Iterable[int] = (),
) -> MulticutInstance:
    """Connect detections into a multicut instance with zero costs.

    Regular edges join every pair at frame distance 0..max_frame_gap (same
    frame pairs are included; downstream costing gives them a strong cut
    prior). Lifted edges join pairs at exactly the given gaps, which must
    all exceed max_frame_gap so that F and E stay disjoint. Node ids follow
    input order; both edge sets are sorted by (u, v).
    """
    if max_frame_gap < 1:
        raise ValueError(f"max_frame_gap must be >= 1, got {max_frame_gap}")
    gaps = sorted(set(int(g) for g in lifted_gaps))
    for g in gaps:
        if g <= max_frame_gap:
            raise ValueError(
                f"lifted gap {g} must exceed max_frame_gap {max_frame_gap}"
            )
    frames = [det.frame for det in detections]
    edge_sets = []
    for group in (range(max_frame_gap + 1), gaps):
        pairs = frame_pairs(frames, group)
        edge_sets.append(np.zeros(len(pairs), dtype=EDGE_DTYPE))
        edge_sets[-1]["u"], edge_sets[-1]["v"] = pairs.T
    return MulticutInstance(len(detections), *edge_sets)


def component_labels(instance: MulticutInstance, joined) -> np.ndarray:
    """Component id per node of the regular edges that the mask `joined` selects.

    `joined` is a boolean mask over E; lifted edges never connect nodes.
    Two nodes share an id exactly when a path of selected edges links them.
    """
    n = instance.num_nodes
    edges = instance.edges[np.asarray(joined, dtype=bool)]
    graph = coo_matrix((np.ones(len(edges)), (edges["u"], edges["v"])), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def labeling_to_partition(
    instance: MulticutInstance, labeling: EdgeLabeling
) -> Partition:
    """Connected components of G under the join (label 0) regular edges.

    Lifted edges never merge components.
    """
    labeling.validate_for(instance)
    joined = labeling.labels[:instance.num_edges] == 0
    return Partition.from_labels(component_labels(instance, joined).tolist())
