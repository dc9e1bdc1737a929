"""Detection graph domain types: boxes, detections, multicut instances, labelings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]


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

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


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


@dataclass(frozen=True)
class MulticutInstance:
    """Graph G=(V, E) with an extra lifted edge set F and real edge costs.

    `edges` hold the connectivity-defining pairs, `lifted_edges` contribute
    cost without connectivity. Pairs are canonical (u < v), unique within
    and across the two sets.
    """

    num_nodes: int
    edges: Tuple[Tuple[int, int, float], ...]
    lifted_edges: Tuple[Tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        seen: set = set()
        for group, name in ((self.edges, "edge"), (self.lifted_edges, "lifted edge")):
            for u, v, c in group:
                if u == v:
                    raise ValueError(f"self-loop {name} ({u}, {v})")
                if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                    raise ValueError(f"{name} ({u}, {v}) outside node range")
                if u > v:
                    raise ValueError(f"{name} ({u}, {v}) not canonical (need u < v)")
                if not math.isfinite(c):
                    raise ValueError(f"{name} ({u}, {v}) has non-finite cost {c!r}")
                pair = (u, v)
                if pair in seen:
                    raise ValueError(f"duplicate pair {pair} across E and F")
                seen.add(pair)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_lifted(self) -> int:
        return len(self.lifted_edges)

    def all_pairs(self) -> List[Edge]:
        """Canonical pairs of E followed by F."""
        return [(u, v) for u, v, _ in self.edges] + [
            (u, v) for u, v, _ in self.lifted_edges
        ]


@dataclass(frozen=True)
class EdgeLabeling:
    """0/1 labels over E and F; 1 marks a cut edge, 0 a joined one."""

    labels: Mapping[Edge, int]

    def __post_init__(self):
        for pair, value in self.labels.items():
            if value not in (0, 1):
                raise ValueError(f"label for {pair} must be 0 or 1, got {value!r}")
            if pair != canonical_edge(*pair):
                raise ValueError(f"labeling key {pair} is not canonical")

    def validate_for(self, instance: MulticutInstance) -> None:
        """Raise unless the labeling covers exactly the instance's E union F."""
        expected = set(instance.all_pairs())
        got = set(self.labels)
        if expected != got:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            raise ValueError(
                f"labeling does not match instance edges "
                f"(missing {missing}, extra {extra})"
            )

    def __getitem__(self, pair: Edge) -> int:
        return self.labels[canonical_edge(*pair)]


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
    nodes = list(range(len(detections)))  # edges share these ints: less memory
    edges, lifted = (
        tuple((nodes[u], nodes[v], 0.0)
              for u, v in zip(*frame_pairs(frames, group).T.tolist()))
        for group in (range(max_frame_gap + 1), gaps)
    )
    return MulticutInstance(len(detections), edges, lifted)


def labeling_to_partition(
    instance: MulticutInstance, labeling: EdgeLabeling
) -> Partition:
    """Connected components of G under the join (label 0) regular edges.

    Lifted edges never merge components.
    """
    labeling.validate_for(instance)
    uf = UnionFind(instance.num_nodes)
    for u, v, _ in instance.edges:
        if labeling.labels[(u, v)] == 0:
            uf.union(u, v)
    return Partition.from_labels([uf.find(i) for i in range(instance.num_nodes)])
