"""Minimum cost (lifted) multicut: feasibility, exact oracle, and heuristics.

Sign convention used across the project: an edge cost is the logit of the
same-identity probability, so positive costs penalize cutting (the endpoints
attract) and negative costs reward it. The objective sums the costs of cut
edges and is minimized.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import depth_first_order

from .graph import (
    Edge,
    EdgeLabeling,
    MulticutInstance,
    Partition,
    RowError,
    component_labels,
    pair_components,
)
from .motio import parse_lines

BRUTEFORCE_MAX_NODES = 12

# Accepting moves on float noise would loop forever; improvements smaller
# than this are treated as zero.
_IMPROVEMENT_EPS = 1e-11


@dataclass(frozen=True)
class Violation:
    """One edge whose label disagrees with join-subgraph connectivity."""

    edge: Edge
    lifted: bool
    label: int
    reason: str


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: Tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.feasible


def objective(instance: MulticutInstance, labeling: EdgeLabeling) -> float:
    """Total cost of the cut edges over E union F.

    It is the dot product of the instance's contiguous cost column with the
    int8 labels; the same product over a strided view of the `c` field can
    differ in the last bit, and the solvers' objectives (`_block_objective`)
    take exactly this one.
    """
    labeling.validate_for(instance)
    return float(instance.columns.c @ labeling.labels)


def _block_objective(instance: MulticutInstance, labels: np.ndarray) -> float:
    """`objective` of the labeling that cuts every pair of E and F whose
    endpoints have different `labels`: the block test. For blocks that are
    connected in G it is the labeling `partition_to_labeling` gives, so the
    two objectives are bit-equal there, without a components pass."""
    u, v, c, _ = instance.columns
    return float(c @ (labels[u] != labels[v]).view(np.int8))


def is_feasible(
    instance: MulticutInstance, labeling: EdgeLabeling
) -> FeasibilityReport:
    """Check that the labeling is induced by some node partition.

    An edge label is consistent exactly when it is 0 for endpoints joined in
    the label-0 subgraph of G and 1 otherwise. This single connectivity
    check subsumes the cycle, path, and cut inequality systems.
    """
    labeling.validate_for(instance)
    m = instance.num_edges
    comp = component_labels(instance, labeling.labels[:m] == 0)
    violations: List[Violation] = []
    for group, labels, lifted in ((instance.edges, labeling.labels[:m], False),
                                  (instance.lifted_edges, labeling.labels[m:], True)):
        connected = comp[group["u"]] == comp[group["v"]]
        kind = "lifted " if lifted else ""
        for i in np.flatnonzero(connected == (labels == 1)).tolist():
            u, v, label = int(group["u"][i]), int(group["v"][i]), int(labels[i])
            reason = ("is cut although its endpoints stay connected through join edges"
                      if label else
                      "is joined although no join path connects its endpoints")
            violations.append(
                Violation((u, v), lifted, label, f"{kind}edge ({u}, {v}) {reason}"))
    return FeasibilityReport(not violations, tuple(violations))


def partition_to_labeling(
    instance: MulticutInstance, partition: Partition
) -> EdgeLabeling:
    """Labeling induced by a partition; always feasible.

    Regular edges are cut when their endpoints sit in different blocks.
    Lifted edges are cut when no path of joined regular edges connects
    their endpoints, which for blocks that are connected in G coincides
    with the block test.
    """
    if partition.num_nodes != instance.num_nodes:
        raise ValueError(
            f"partition covers {partition.num_nodes} nodes, "
            f"instance has {instance.num_nodes}"
        )
    block = partition.component_of
    cut = block[instance.edges["u"]] != block[instance.edges["v"]]
    comp = component_labels(instance, ~cut)
    lifted_cut = comp[instance.lifted_edges["u"]] != comp[instance.lifted_edges["v"]]
    return EdgeLabeling(np.concatenate([cut, lifted_cut]))


def _columns(edges: np.ndarray) -> Tuple[list, list, list]:
    """Endpoints and costs as Python lists, for the per-edge solver loops."""
    return edges["u"].tolist(), edges["v"].tolist(), edges["c"].tolist()


def _incidence(num_nodes: int, u: np.ndarray, v: np.ndarray) -> List[np.ndarray]:
    """Per node, the rows of the pairs (u[i], v[i]) that touch it: the rows
    where it is u, then those where it is v, each in row order."""
    ends = np.concatenate([u, v])
    rows = np.argsort(ends, kind="stable")
    rows[rows >= len(u)] -= len(u)
    bounds = np.cumsum(np.bincount(ends, minlength=num_nodes)).tolist()
    return [rows[lo:hi] for lo, hi in zip([0] + bounds, bounds)]


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, rounded as a running `total += c` loop rounds."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


# ---------------------------------------------------------------------------
# Exact oracle: vectorized enumeration of all set partitions.
# ---------------------------------------------------------------------------

_PARTITION_TABLES: Dict[int, np.ndarray] = {}


def _partition_table(n: int) -> np.ndarray:
    """All canonical assignment vectors for n nodes, lexicographically ordered.

    Row r is a restricted growth string: component ids are contiguous and
    numbered by first occurrence. Cached per n (Bell(12) ~ 4.2M rows).
    """
    cached = _PARTITION_TABLES.get(n)
    if cached is not None:
        return cached
    rows = np.zeros((1, 1), dtype=np.int8)
    maxv = np.zeros(1, dtype=np.int8)
    for _ in range(n - 1):
        counts = maxv.astype(np.int64) + 2
        total = int(counts.sum())
        rep = np.repeat(rows, counts, axis=0)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        newcol = (np.arange(total) - starts).astype(np.int8)
        rows = np.concatenate([rep, newcol[:, None]], axis=1)
        maxv = np.maximum(np.repeat(maxv, counts), newcol)
    _PARTITION_TABLES[n] = rows
    return rows


def _join_components(table: np.ndarray, edges) -> np.ndarray:
    """Per row, connected-component labels of the within-block regular subgraph.

    Min-label propagation along regular edges restricted to same-block
    endpoints; component labels end up as the smallest member node id, so
    they are unique per component across blocks too.
    """
    n_rows, n = table.shape
    comp = np.tile(np.arange(n, dtype=np.int8), (n_rows, 1))
    eu, ev, _ = _columns(edges)
    masks = [(u, v, table[:, u] == table[:, v]) for u, v in zip(eu, ev)]
    changed = True
    while changed:
        changed = False
        for u, v, same in masks:
            cu = comp[:, u]
            cv = comp[:, v]
            m = np.minimum(cu, cv)
            new_u = np.where(same, m, cu)
            new_v = np.where(same, m, cv)
            if (new_u != cu).any():
                comp[:, u] = new_u
                changed = True
            if (new_v != cv).any():
                comp[:, v] = new_v
                changed = True
    return comp


def solve_bruteforce(instance: MulticutInstance) -> Tuple[Partition, float]:
    """Globally optimal partition by enumerating every set partition.

    Lifted edges are charged through join-subgraph connectivity, so blocks
    that are not connected in G pay for the lifted pairs they fail to link.
    Among optimal partitions, returns the one that corresponds to a feasible
    labeling with the lexicographically smallest assignment vector.
    """
    n = instance.num_nodes
    if n > BRUTEFORCE_MAX_NODES:
        raise ValueError(
            f"brute force limited to {BRUTEFORCE_MAX_NODES} nodes, got {n}"
        )
    if n == 0:
        return Partition(()), 0.0
    table = _partition_table(n)
    obj = np.zeros(len(table))
    comp = _join_components(table, instance.edges)
    # one vector update per edge, in E then F order, over every partition
    for labels, edges in ((table, instance.edges), (comp, instance.lifted_edges)):
        eu, ev, ec = _columns(edges)
        for k, c in enumerate(ec):
            obj += c * (labels[:, eu[k]] != labels[:, ev[k]])
    # Rows whose blocks are G-connected are exactly those a labeling can
    # induce; the optimum is always attained on one of them.
    stable = np.ones(len(table), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            stable &= ~((table[:, u] == table[:, v]) & (comp[:, u] != comp[:, v]))
    best = float(np.min(np.where(stable, obj, np.inf)))
    idx = int(np.argmax(stable & (obj == best)))
    return Partition(table[idx]), best


# ---------------------------------------------------------------------------
# Greedy additive edge contraction.
# ---------------------------------------------------------------------------


def solve_gaec(
    instance: MulticutInstance, trace: Optional[List[float]] = None
) -> Tuple[Partition, float]:
    """Greedy additive edge contraction.

    Starts from singletons (everything cut) and repeatedly merges the
    cluster pair with the largest aggregated inter-cluster cost, as long as
    that total is positive, i.e. merging strictly lowers the objective.
    Only pairs adjacent through regular edges are contraction candidates;
    lifted costs between adjacent clusters are folded into their totals.
    Ties pick the smallest ordered pair (lower first) of cluster min nodes.
    Pass `trace` to record the objective after every contraction. The
    returned objective is the block test's (`_block_objective`) on the
    final clusters, which are connected in G, so it equals `objective` of
    `partition_to_labeling` bit for bit.

    Cluster ids are node ids, and they are stable. Every live pair of
    adjacent clusters owns one row of a slot table: the xor of its two
    cluster ids, its regular and lifted cost sums, and whether a regular
    edge is among them. The table starts as the instance's E-then-F
    `columns`, one row per pair. Both clusters hold the row's slot id in
    their slot arrays, which one stable sort of all pair ends groups by
    node, so a neighbour sees a contraction without being touched.
    Contracting b into a, the side with more live slots, looks b's
    neighbours up in a's: a row both sides share takes the sum of the two
    (a's first, as a running `+=` adds) and b's duplicate dies; any other
    row of b is relabelled to a. So a contraction costs O(deg a + deg b)
    array work, where deg counts a slot array's entries, dead ones
    included. Summed over all contractions, that was 5.4-6.8 (|E|+|F|) on
    the 100-frame and the dense scenes of the benchmark and 12.6 (|E|+|F|)
    on `benchmark_spec(300)`: a long track grows by one detection at a
    time, and each step touches its whole neighbourhood. Each contraction
    points b at a; a live row's endpoints are the clusters that its edge's
    two nodes now lie in, so one is found along those pointers (halved on
    the way) and the other is the row's xor with it.

    Each cluster's smallest node is kept apart from its id, so the tie
    rule does not depend on which side survives. A heap entry is a total
    and a row, and it stays valid while the row lives and its total is
    unchanged: a relabelled row keeps its entry, since its endpoints are
    read only when it is popped. So a contraction pushes only the shared
    rows, which took a sum, when they are regular and their total is
    positive. Totals that tie are resolved when popped: every valid entry
    of the largest total is taken off the heap, the one with the smallest
    current pair of cluster min nodes is contracted, and the others go
    back. Each merged cost is the sum of the two sides' costs, and float
    addition is commutative, so partitions, traces and objectives equal
    those of a contraction that always keeps the side with the smaller min
    node (`tests/gaec_reference.py`). A sum that one side lacks is 0.0
    there, which can change only the sign of a zero sum, and no comparison
    or trace value depends on that sign.
    """
    n = instance.num_nodes
    u, v, c, m = instance.columns
    # E and F are disjoint, so each singleton pair's row is one edge.
    regular = np.arange(len(c)) < m
    # a row's endpoints: the cluster of its edge's u, and `ends` xor that
    ends = u ^ v
    reg = np.where(regular, c, 0.0)
    lif = np.where(regular, 0.0, c)
    live = np.ones(len(c), dtype=bool)
    slots = _incidence(n, u, v)
    pos = np.full(n, -1)
    min_node = list(range(n))
    into = list(range(n))  # contracted cluster -> the one it went into
    obj = _sequential_sum(c)
    if trace is not None:
        trace.append(obj)

    def valid(negt, row):
        return live.item(row) and reg.item(row) + lif.item(row) == -negt

    def cluster(node):
        while into[node] != node:
            into[node] = node = into[into[node]]
        return node

    def pair_key(row):
        a = cluster(u.item(row))
        ma, mb = min_node[a], min_node[ends.item(row) ^ a]
        return (ma, mb) if ma < mb else (mb, ma)

    attract = np.flatnonzero(c[:m] > 0.0)
    heap = list(zip((-c[attract]).tolist(), attract.tolist()))
    heapq.heapify(heap)

    while heap:
        negt, s = heapq.heappop(heap)
        if not valid(negt, s):
            continue  # stale entry; a fresh one was pushed on update
        tied = [s]
        while heap and heap[0][0] == negt:
            row = heapq.heappop(heap)[1]
            if row not in tied and valid(negt, row):
                tied.append(row)
        if len(tied) > 1:
            s = min(tied, key=pair_key)
            for row in tied:
                if row != s:
                    heapq.heappush(heap, (negt, row))
        live[s] = False
        a = cluster(u.item(s))
        b = ends.item(s) ^ a
        # slot arrays keep the rows that other contractions killed
        sa, sb = slots[a], slots[b]
        sa, sb = sa[live[sa]], sb[live[sb]]
        # Contract b into a, the side with more neighbours.
        if len(sa) < len(sb):
            a, b, sa, sb = b, a, sb, sa
        into[b] = a
        min_node[a] = min(min_node[a], min_node[b])
        obj += negt
        if trace is not None:
            trace.append(obj)
        theirs = ends[sa] ^ a
        pos[theirs] = sa
        hit = pos[ends[sb] ^ b]
        pos[theirs] = -1
        shared = hit >= 0
        hit, dup, moved = hit[shared], sb[shared], sb[~shared]
        reg[hit] += reg[dup]
        lif[hit] += lif[dup]
        regular[hit] |= regular[dup]
        live[dup] = False
        ends[moved] ^= a ^ b
        slots[a] = np.concatenate([sa, moved])
        slots[b] = None
        hit = hit[regular[hit]]
        total = reg[hit] + lif[hit]
        up = total > 0.0
        for item in zip((-total[up]).tolist(), hit[up].tolist()):
            heapq.heappush(heap, item)

    partition = Partition.from_labels([cluster(node) for node in range(n)])
    # contractions follow regular edges, so every cluster is connected in G
    return partition, _block_objective(instance, partition.component_of)


# ---------------------------------------------------------------------------
# Steepest-descent local search: node moves, splits and cluster merges.
# ---------------------------------------------------------------------------


def _articulation_points(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ascending nodes whose removal disconnects the graph on nodes 0..size-1
    with edges (u[i], v[i]); it must be connected, with no edge repeated.

    Hopcroft & Tarjan's low values over one depth-first tree from node 0:
    a node's low is the smallest preorder position that a back edge from
    its subtree reaches. A parent is a cut node when a child's low does not
    reach above the parent, and the root when it has two children.
    """
    # Both directions of every edge, rows grouped by tail: a directed search
    # of this graph skips the transpose that `directed=False` builds.
    ends, other = np.concatenate([u, v]), np.concatenate([v, u])
    by_end = np.argsort(ends)
    bounds = np.searchsorted(ends[by_end], np.arange(size + 1))
    graph = csr_array((np.ones(len(ends)), other[by_end], bounds), shape=(size, size))
    order, parent = depth_first_order(graph, 0)
    pre = np.empty(size, dtype=np.int64)
    pre[order] = np.arange(size)
    # in a depth-first tree every edge but a node's tree edge is a back edge
    back = (parent[ends] != other) & (parent[other] != ends)
    low = pre.copy()
    np.minimum.at(low, ends[back], pre[other[back]])
    child = order[1:]
    up = parent[child]
    # reverse preorder reaches every child before its parent
    low = low.tolist()
    for x, p in zip(child[::-1].tolist(), up[::-1].tolist()):
        if low[x] < low[p]:
            low[p] = low[x]
    cut = np.array(low)[child] >= pre[up]
    # the root (node 0, preorder 0) needs two such children, any other node one
    return np.flatnonzero(np.bincount(up[cut], minlength=size) > (np.arange(size) == 0))


def _cluster_labels(instance: MulticutInstance, assign: np.ndarray) -> np.ndarray:
    """Blocks of `assign` split into their regular-edge components, each
    labelled by its smallest node, so labels compare as representatives."""
    u, v, _, m = instance.columns
    u, v = u[:m], v[:m]
    joined = assign[u] == assign[v]
    comp = pair_components(instance.num_nodes, u[joined], v[joined])
    _, first, inverse = np.unique(comp, return_index=True, return_inverse=True)
    return first[inverse]


def _articulation_sums(
    instance: MulticutInstance, members: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Articulation nodes of a cluster and the lifted costs each one cuts.

    Removing an articulation node splits the cluster; its sum (in F order)
    covers the cluster's internal lifted edges whose endpoints land in
    different parts. Every other node cuts nothing by leaving.
    """
    size = len(members)
    local = np.full(instance.num_nodes, -1)
    local[members] = np.arange(size)
    u, v, c, m = instance.columns
    u, v = local[u], local[v]
    inside = (u >= 0) & (v >= 0)
    # `members` ascend, so `local` keeps each induced pair canonical, unique
    # and in range: the checks `MulticutInstance` ran on the instance hold.
    reg = np.flatnonzero(inside[:m])
    lif = m + np.flatnonzero(inside[m:])
    ru, rv = u[reg], v[reg]
    fu, fv, fc = u[lif], v[lif], c[lif]
    points = _articulation_points(size, ru, rv)
    sums = []
    for x in points.tolist():
        kept = (ru != x) & (rv != x)
        part = pair_components(size, ru[kept], rv[kept])
        cut = (fu != x) & (fv != x) & (part[fu] != part[fv])
        sums.append(_sequential_sum(fc[cut]))
    return members[points], np.array(sums)


def _pair_sums(first, second, shape, costs, regular, limit):
    """Summed costs, in input order, per distinct (first, second) pair of
    ids below `shape`: both ids, the sum, and whether a regular edge is
    among them, ascending by pair.

    The pairs are grouped by `np.bincount` over all rows * cols keys when
    that is at most `limit`, and by an `np.unique` sort otherwise. Either
    way each pair's costs are added in input order.
    """
    rows, cols = shape
    keys = first * cols + second
    if rows * cols <= limit:
        sums = np.bincount(keys, weights=costs, minlength=rows * cols)
        linked = np.bincount(keys[regular], minlength=rows * cols) > 0
        keys = np.flatnonzero(np.bincount(keys, minlength=rows * cols))
        sums, linked = sums[keys], linked[keys]
    else:
        keys, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=costs, minlength=len(keys))
        linked = np.bincount(inverse, weights=regular, minlength=len(keys)) > 0
    return *np.divmod(keys, cols), sums, linked


def solve_kl(
    instance: MulticutInstance,
    initial: Partition,
    trace: Optional[List[float]] = None,
) -> Tuple[Partition, float]:
    """Steepest descent over single-node moves, splits and cluster merges.

    This is not the KLj solver of Keuper et al. (ICCV 2015): there are no
    two-cluster move sequences and no rollback. Each sweep evaluates every
    move and applies the best strictly improving one, until none exists.
    Move ties are broken by a fixed lexicographic move encoding: node moves
    (ordered by node, then target cluster representative), then splits,
    then merges (ordered by representative pair). The returned objective is
    never above the initial partition's. It is the block test's
    (`_block_objective`) on the final clusters, which are connected in G,
    so it equals `objective` of `partition_to_labeling` bit for bit.

    The partition is one label array of regular-edge-connected clusters,
    each labelled by its smallest node. Every pair of the instance's
    E-then-F `columns` is read from both ends, its two directions adjacent.
    A sweep costs every candidate with one `np.bincount` pass over E and F
    per key kind: (node, neighbour's cluster) and (cluster, cluster), with
    the k clusters ranked by representative, over n * k and k * k bins.
    Only where n * k exceeds 4 bins per directed edge (k near n, as from
    singletons) does `np.unique` group the keys instead; both add each
    key's costs in input order, so the sums do not depend on the grouping.
    The lifted pairs a node's removal disconnects are cached per cluster
    member set and recomputed, by one depth-first pass for the
    articulation nodes and one component labelling per articulation node,
    only for the clusters the previous move changed.
    """
    if initial.num_nodes != instance.num_nodes:
        raise ValueError("initial partition does not cover the instance nodes")
    n = instance.num_nodes
    u, v, c, m = instance.columns
    # Each edge from both endpoints, its two directions adjacent, so every
    # per-key sum adds a node's costs in E-then-F order.
    tail, head = np.empty(2 * len(c), dtype=np.int64), np.empty(2 * len(c), dtype=np.int64)
    tail[0::2] = head[1::2] = u
    tail[1::2] = head[0::2] = v
    cost = np.empty(2 * len(c))
    cost[0::2] = cost[1::2] = c
    regular = np.zeros(2 * len(c), dtype=bool)
    regular[:2 * m] = True

    # Split any block that is not connected in G; the true objective is
    # unchanged because such lifted pairs were already charged as cut.
    labels = _cluster_labels(instance, initial.component_of)
    obj = _sequential_sum(c[labels[u] != labels[v]])
    if trace is not None:
        trace.append(obj)
    cache: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}

    while True:
        # Per node, the cost of leaving its cluster: first the lifted pairs
        # its removal disconnects, then its edges into the cluster.
        leaving = np.zeros(n)
        kept = {}
        lifted_label = labels[u[m:]]
        inside = lifted_label == labels[v[m:]]
        clusters = np.bincount(lifted_label[inside], minlength=n)
        for cluster in np.flatnonzero(clusters).tolist():
            members = np.flatnonzero(labels == cluster)
            key = members.tobytes()
            kept[key] = cache.get(key) or _articulation_sums(instance, members)
            points, cut = kept[key]
            leaving[points] = cut
        cache = kept

        # Clusters ranked by representative, so (node, rank) and (rank, rank)
        # keys sort as (node, representative) pairs do.
        reps = np.flatnonzero(labels == np.arange(n))
        rank = np.empty(n, dtype=np.int64)
        rank[reps] = np.arange(len(reps))
        tail_rank, head_rank = rank[labels[tail]], rank[labels[head]]
        # n * k bins cost less than a sort unless k is near n; beyond 4 bins
        # per directed edge (an all-singleton start has n * n), sort instead
        k, limit = len(reps), 4 * len(tail)
        node, target, sums, linked = _pair_sums(tail, head_rank, (n, k), cost,
                                                regular, limit)
        target = reps[target]
        own = target == labels[node]
        leaving[node[own]] += sums[own]
        move = linked & ~own
        split = np.flatnonzero(np.bincount(labels, minlength=n)[labels] > 1)
        across = tail_rank < head_rank
        into, absorbed, between, merge = _pair_sums(
            tail_rank[across], head_rank[across], (k, k), cost[across],
            regular[across], limit)
        into, absorbed = reps[into], reps[absorbed]

        # A move leaves and joins the target, a split only leaves, a merge
        # joins every pair between the two clusters.
        delta = np.concatenate([leaving[node[move]] - sums[move], leaving[split],
                                -between[merge]])
        kind = np.repeat([0, 1, 2], [move.sum(), len(split), merge.sum()])
        first = np.concatenate([node[move], split, into[merge]])
        second = np.concatenate([target[move], split, absorbed[merge]])
        if delta.min(initial=0.0) >= -_IMPROVEMENT_EPS:
            break
        best = np.lexsort((second, first, kind, delta))[0]

        assign = labels.copy()
        if kind[best] == 2:
            assign[labels == second[best]] = first[best]
        else:
            assign[first[best]] = second[best] if kind[best] == 0 else -1
        labels = _cluster_labels(instance, assign)
        obj += float(delta[best])
        if trace is not None:
            trace.append(obj)

    # `_cluster_labels` splits blocks into their components in G
    return Partition.from_labels(labels), _block_objective(instance, labels)


# ---------------------------------------------------------------------------
# Instance text format: "n m k" header, then m regular and k lifted cost lines.
# ---------------------------------------------------------------------------


def write_instance(instance: MulticutInstance, path) -> None:
    lines = [f"{instance.num_nodes} {instance.num_edges} {instance.num_lifted}"]
    for edges in (instance.edges, instance.lifted_edges):
        # Python floats, so that {!r} prints the shortest round-trip repr
        lines += map("{} {} {!r}".format, *_columns(edges))
    Path(path).write_text("\n".join(lines) + "\n")


def _instance_header(parts) -> Tuple[int, int, int]:
    n, m, k = int(parts[0]), int(parts[1]), int(parts[2])
    if min(n, m, k) < 0:
        raise ValueError(f"negative count in header {n} {m} {k}")
    return n, m, k


def _instance_edge(parts) -> Tuple[int, int, float]:
    u, v, c = int(parts[0]), int(parts[1]), float(parts[2])
    if u == v:
        raise ValueError(f"self-loop ({u}, {v})")
    return (u, v, c) if u < v else (v, u, c)


def read_instance(path) -> MulticutInstance:
    """Parse the "n m k" header, then m edge and k lifted edge lines "u v cost".

    A row that `MulticutInstance` rejects is named as path:lineno.
    """
    # the first non-blank line is the header, every later one an edge
    parsers = itertools.chain([_instance_header], itertools.repeat(_instance_edge))
    linenos, rows = parse_lines(path, lambda parts: next(parsers)(parts), 3)
    if not rows:
        raise ValueError(f"{path}: empty instance file")
    (n, m, k), edges = rows[0], rows[1:]
    if len(edges) != m + k:
        raise ValueError(f"{path}: expected {m} + {k} edge lines, found {len(edges)}")
    try:
        return MulticutInstance(n, edges[:m], edges[m:])
    except RowError as exc:
        raise ValueError(f"{path}:{linenos[1 + exc.rows[0]]}: {exc}") from exc
