"""Detection graph domain types: boxes, detections, multicut instances, labelings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

Edge = Tuple[int, int]
# One row per edge: canonical endpoints u < v and the real cost c.
EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("c", np.float64)])


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


def box_iou(first, second) -> np.ndarray:
    """IoU of broadcastable (..., 4) float arrays of left, top, width, height.

    Each entry is computed by the float operations of `iou`, so it equals
    that function's result on the two boxes; disjoint pairs read 0.0.
    """
    left, top, width, height = np.moveaxis(first, -1, 0)
    b_left, b_top, b_width, b_height = np.moveaxis(second, -1, 0)
    ix = np.minimum(left + width, b_left + b_width) - np.maximum(left, b_left)
    iy = np.minimum(top + height, b_top + b_height) - np.maximum(top, b_top)
    overlap = (ix > 0) & (iy > 0)
    inter = ix * iy
    return np.divide(inter, width * height + b_width * b_height - inter,
                     out=np.zeros(overlap.shape), where=overlap)


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


def pair_rows(rows, dtype: np.dtype, what: str) -> np.ndarray:
    """Read-only 1-D `dtype` array of pair rows: an array, or any sequence of
    triples. Any other shape is rejected as "`what`, got shape"."""
    # numpy reads a tuple of tuples as one record, a list as rows
    rows = np.array(rows if isinstance(rows, np.ndarray) else list(rows), dtype=dtype)
    if rows.ndim != 1:
        raise ValueError(f"{what}, got {rows.shape}")
    rows.flags.writeable = False
    return rows


class RowError(ValueError):
    """A bad input row; `rows` are the input positions at fault."""

    def __init__(self, message: str, rows: Tuple[int, ...]):
        super().__init__(message)
        self.rows = rows


def first_flagged(checks) -> Optional[Tuple[int, str]]:
    """The first row that any of the (mask, template) `checks` flags, and the
    template of the first check that flags it; None if no row is flagged."""
    bad = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
    if not bad.size:
        return None
    i = int(bad[0])
    return i, next(text for mask, text in checks if mask[i])


def repeated_pairs(u, v) -> Tuple[np.ndarray, np.ndarray]:
    """The stable (u, v) sort order of the rows, and a mask in input order
    flagging each row whose (u, v) an earlier row already holds.

    Signed integer pairs are ordered by one stable sort of the key
    (u - min u) * (max v - min v + 1) + (v - min v), which orders as the
    pair does; any ids give such a key as long as it stays below 2**63.
    Other pairs (floats, or ids spread wider than that) are ordered by a
    two-key `np.lexsort`, which gives the same order. The sort is stable,
    so equal pairs sit together in input order and a row repeats exactly
    when the row before it in the order holds its pair.
    """
    u, v = np.asarray(u), np.asarray(v)
    order = None
    if len(u) and u.dtype.kind == v.dtype.kind == "i":
        low_u, low_v = int(u.min()), int(v.min())
        span = int(v.max()) - low_v + 1
        if (int(u.max()) - low_u + 1) * span < 2**63:
            order = np.argsort((u - low_u) * span + (v - low_v), kind="stable")
    if order is None:
        order = np.lexsort((v, u))
    u, v = u[order], v[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    return order, repeat


class PairColumns(NamedTuple):
    """The pairs of E and then F as contiguous read-only columns: endpoints
    `u` < `v` (int64) and costs `c` (float64); the first `num_edges` rows
    are E."""

    u: np.ndarray
    v: np.ndarray
    c: np.ndarray
    num_edges: int


_NON_FINITE = "{name} ({u}, {v}) has non-finite cost {c!r}"


@dataclass(frozen=True, eq=False)
class MulticutInstance:
    """Graph G=(V, E) with an extra lifted edge set F and real edge costs.

    `edges` hold the connectivity-defining pairs, `lifted_edges` contribute
    cost without connectivity. Both are read-only EDGE_DTYPE arrays, stored
    in input order; any sequence of (u, v, c) triples is converted by
    `pair_rows`. Pairs are canonical (u < v) node ids with finite costs,
    unique within and across the two sets; the first bad row, in E then F
    order, is named by the first check it fails, and raised as a RowError
    whose `rows` hold its position in E then F (a repeated pair: the later
    row). `keep_lifted` and `with_costs` derive instances on pairs that
    were already checked, and check only what they change.

    `columns` holds the same pairs once more as contiguous E-then-F
    columns. Outside this class the library reads pairs only through them,
    so no reader concatenates E and F again or knows the two-array layout.
    The constructor, and so `dataclasses.replace`, builds them from the two
    arrays; `keep_lifted` selects the source's rows, and `with_costs` takes
    views of the source's endpoint columns and a new cost column. Every
    instance holds its own column objects.

    Only this class reads `edges` and `lifted_edges`: the constructor,
    `columns`, `keep_lifted`, `with_costs`, `==` and the two counts. They
    stay the stored fields because the benchmark harness derives instances
    with `dataclasses.replace(instance, edges=...)` and reads `edges` as
    triples.
    """

    num_nodes: int
    edges: np.ndarray
    lifted_edges: np.ndarray = ()

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        for name in ("edges", "lifted_edges"):
            object.__setattr__(self, name, pair_rows(
                getattr(self, name), EDGE_DTYPE, f"{name} must be (u, v, c) triples"))
        u, v, c, _ = self.columns
        n = self.num_nodes
        self._raise_first((
            (u == v, "self-loop {name} ({u}, {v})"),
            ((u < 0) | (u >= n) | (v < 0) | (v >= n),
             "{name} ({u}, {v}) outside node range"),
            (u > v, "{name} ({u}, {v}) not canonical (need u < v)"),
            (~np.isfinite(c), _NON_FINITE),
            (repeated_pairs(u, v)[1], "duplicate pair ({u}, {v}) across E and F"),
        ))

    @cached_property
    def columns(self) -> PairColumns:
        """The pairs of E then F as contiguous read-only columns."""
        columns = [np.concatenate([self.edges[name], self.lifted_edges[name]])
                   for name in ("u", "v", "c")]
        for column in columns:
            column.flags.writeable = False
        return PairColumns(*columns, self.num_edges)

    def _raise_first(self, checks) -> None:
        """Raise a RowError for the first row of E then F that one of the
        (mask, template) `checks` over `columns` flags."""
        flagged = first_flagged(checks)
        if flagged:
            i, text = flagged
            u, v, c, m = self.columns
            name = "edge" if i < m else "lifted edge"
            raise RowError(text.format(name=name, u=int(u[i]), v=int(v[i]),
                                       c=float(c[i])), (i,))

    @classmethod
    def _derived(cls, num_nodes, edges, lifted_edges, u, v, c) -> "MulticutInstance":
        """An instance on read-only rows of pairs that an instance checked,
        built without the constructor's checks, whose `columns` are the
        contiguous E-then-F columns `u`, `v` and `c` of those rows."""
        instance = object.__new__(cls)
        for name, value in (("num_nodes", num_nodes), ("edges", edges),
                            ("lifted_edges", lifted_edges)):
            object.__setattr__(instance, name, value)
        for column in (u, v, c):
            column.flags.writeable = False
        # filled as the cached property would fill it on first use
        instance.__dict__["columns"] = PairColumns(u, v, c, len(edges))
        return instance

    def keep_lifted(self, mask) -> "MulticutInstance":
        """The instance with only the lifted edges that the boolean `mask`,
        one entry per lifted edge, selects."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_lifted,):
            raise ValueError(f"mask of shape {mask.shape} for {self.num_lifted} lifted edges")
        kept = np.flatnonzero(mask)
        lifted = self.lifted_edges[kept]
        lifted.flags.writeable = False
        m = self.num_edges
        kept += m
        return self._derived(self.num_nodes, self.edges, lifted, *(
            np.concatenate([column[:m], column[kept]]) for column in self.columns[:3]))

    def with_costs(self, edge_costs, lifted_costs) -> "MulticutInstance":
        """The same pairs, in the same order, with new costs for E and for F:
        one per edge of each set.

        A non-finite cost is named as the constructor names it.
        """
        u, v, _, m = self.columns
        c = np.empty(len(u))
        groups = []
        for group, costs, part in ((self.edges, edge_costs, c[:m]),
                                   (self.lifted_edges, lifted_costs, c[m:])):
            if np.shape(costs) != group.shape:
                raise ValueError(f"costs of shape {np.shape(costs)} for {len(group)} pairs")
            part[:] = costs
            groups.append(group.copy())
            groups[-1]["c"] = part
            groups[-1].flags.writeable = False
        instance = self._derived(self.num_nodes, *groups, u.view(), v.view(), c)
        instance._raise_first(((~np.isfinite(c), _NON_FINITE),))
        return instance

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


@dataclass(frozen=True, eq=False)
class Partition:
    """Node-to-component assignment: one read-only int64 label array.

    Ids are 0..k-1 in first-occurrence order, so partitions into the same
    blocks are `==`; `from_labels` renumbers arbitrary labels that way.
    """

    component_of: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.component_of)
        if labels.ndim != 1:
            raise ValueError(f"component ids must be one-dimensional, got {labels.shape}")
        if labels.size and labels.dtype.kind not in "iu":
            raise ValueError(f"component ids must be integers, got {labels.dtype}")
        labels = labels.astype(np.int64)
        # first-occurrence order: each id is at most one above all ids before it
        before = np.maximum.accumulate(np.concatenate([[-1], labels]))[:-1]
        if not np.all((labels >= 0) & (labels <= before + 1)):
            raise ValueError("component ids must be 0..k-1 in first-occurrence order")
        labels.flags.writeable = False
        object.__setattr__(self, "component_of", labels)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.component_of, other.component_of)

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Relabel arbitrary component labels to canonical first-occurrence order."""
        _, first, inverse = np.unique(np.asarray(labels), return_index=True,
                                      return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        return cls(rank[inverse])

    @property
    def num_nodes(self) -> int:
        return len(self.component_of)

    @property
    def num_components(self) -> int:
        return int(self.component_of.max()) + 1 if self.num_nodes else 0

    def blocks(self) -> List[List[int]]:
        """Member nodes of each component, ascending, in component id order."""
        order = np.argsort(self.component_of, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.component_of)).tolist()
        return [order[lo:hi] for lo, hi in zip([0] + ends, ends)]


def frame_pairs(frames: Sequence[int], gaps: Iterable[int]) -> np.ndarray:
    """Canonical pairs (u < v) whose frames lie exactly one of `gaps` (>= 0) apart.

    Detections are bucketed by frame with one stable sort, and each gap's
    partners are found by `searchsorted`: O(n log n) plus the pairs
    returned. Rows are sorted by (u, v), as a double loop over u < v emits
    them, by one sort of the key u * n + v (ids are below n, so the key
    orders as the pair does). Returns an (m, 2) int64 array.
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
        pair = np.column_stack([np.minimum(first, second), np.maximum(first, second)])
        pairs.append(pair[first < second] if gap == 0 else pair)
    pairs = np.concatenate(pairs)
    return pairs[np.argsort(pairs[:, 0] * len(frames) + pairs[:, 1], kind="stable")]


def checked_frame_gaps(max_frame_gap: int, lifted_gaps: Iterable[int]) -> List[int]:
    """The distinct lifted gaps in ascending order, after checking that
    max_frame_gap is at least 1 and that every lifted gap exceeds it."""
    if max_frame_gap < 1:
        raise ValueError(f"max_frame_gap must be >= 1, got {max_frame_gap}")
    gaps = sorted(set(int(g) for g in lifted_gaps))
    for g in gaps:
        if g <= max_frame_gap:
            raise ValueError(
                f"lifted gap {g} must exceed max_frame_gap {max_frame_gap}"
            )
    return gaps


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
    gaps = checked_frame_gaps(max_frame_gap, lifted_gaps)
    frames = [det.frame for det in detections]
    edge_sets = []
    for group in (range(max_frame_gap + 1), gaps):
        pairs = frame_pairs(frames, group)
        edge_sets.append(np.zeros(len(pairs), dtype=EDGE_DTYPE))
        edge_sets[-1]["u"], edge_sets[-1]["v"] = pairs.T
    return MulticutInstance(len(detections), *edge_sets)


def pair_components(num_nodes: int, u, v) -> np.ndarray:
    """Component id per node of the undirected graph with edges (u[i], v[i])."""
    graph = coo_matrix((np.ones(len(u)), (u, v)), shape=(num_nodes, num_nodes))
    return connected_components(graph, directed=False)[1]


def labeling_to_partition(
    instance: MulticutInstance, labeling: EdgeLabeling
) -> Partition:
    """Connected components of G under the join (label 0) regular edges.

    Lifted edges never merge components.
    """
    labeling.validate_for(instance)
    u, v, _, m = instance.columns
    joined = np.flatnonzero(labeling.labels[:m] == 0)
    return Partition.from_labels(pair_components(instance.num_nodes, u[joined], v[joined]))
