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
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

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
    """Total cost of the cut edges over E union F."""
    labeling.validate_for(instance)
    costs = np.concatenate([instance.edges["c"], instance.lifted_edges["c"]])
    return float(costs @ labeling.labels)


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


def _incidence(num_nodes: int, edges: np.ndarray) -> Tuple[list, list, list]:
    """Each edge seen from both endpoints, grouped by node in edge order: the
    other endpoints, their costs, and per node its slice bounds into both."""
    ends = np.column_stack([edges["u"], edges["v"]]).ravel()
    order = np.argsort(ends, kind="stable")
    others = np.column_stack([edges["v"], edges["u"]]).ravel()[order].tolist()
    costs = np.repeat(edges["c"], 2)[order].tolist()
    bounds = np.searchsorted(ends[order], np.arange(num_nodes + 1)).tolist()
    return others, costs, bounds


def _adjacency(num_nodes: int, edges: np.ndarray) -> List[List[Tuple[int, float]]]:
    """Per node, (neighbour, cost) of each incident edge, in edge order."""
    others, costs, bounds = _incidence(num_nodes, edges)
    incident = list(zip(others, costs))
    return [incident[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


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
    Pass `trace` to record the objective after every contraction.

    Cluster ids are node ids, and they are stable: of a contracted pair,
    the cluster with more regular plus lifted neighbours survives and takes
    over the other's neighbour costs (small-to-large merging), so a
    contraction costs the smaller side's adjacency. Each contraction
    records its pair of cluster ids, and the nodes are labelled at the end
    by the connected components of those pairs. Each cluster's smallest
    node is kept apart from its id and keys the heap, so the tie rule does
    not depend on which side survives. A heap entry is acted on only while
    both clusters live, stay adjacent, and its total and key are current.
    After a contraction only the survivor's pairs whose total can have
    changed are pushed again: those with the absorbed cluster's regular and
    lifted neighbours that are now regular neighbours of the survivor. All
    of its pairs are pushed only when its smallest node dropped, since that
    changes their keys. Each merged cost is the sum of the two sides'
    costs, and float addition is commutative, so partitions, traces and
    objectives equal those of a contraction that always keeps the side with
    the smaller min node (`tests/gaec_reference.py`).
    """
    n = instance.num_nodes

    def neighbour_costs(edges):
        others, costs, bounds = _incidence(n, edges)
        return [dict(zip(others[lo:hi], costs[lo:hi]))
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    reg, lif = neighbour_costs(instance.edges), neighbour_costs(instance.lifted_edges)
    min_node = list(range(n))
    alive = [True] * n
    contracted = []
    obj = _sequential_sum(np.concatenate([instance.edges["c"],
                                          instance.lifted_edges["c"]]))
    if trace is not None:
        trace.append(obj)

    # E and F are disjoint, so each singleton pair's total is its edge cost.
    attract = instance.edges[instance.edges["c"] > 0.0]
    heap = [(-c, (u, v), u, v) for u, v, c in zip(*_columns(attract))]
    heapq.heapify(heap)

    while heap:
        negt, key, a, b = heapq.heappop(heap)
        if not (alive[a] and alive[b] and b in reg[a]):
            continue
        t = reg[a][b] + lif[a].get(b, 0.0)
        ma, mb = min_node[a], min_node[b]
        if -negt != t or key != ((ma, mb) if ma < mb else (mb, ma)):
            continue  # stale entry; a fresh one was pushed on update
        # Contract b into a, the side with more neighbours.
        if len(reg[a]) + len(lif[a]) < len(reg[b]) + len(lif[b]):
            a, b = b, a
        alive[b] = False
        contracted.append((a, b))
        dropped = min_node[b] < min_node[a]
        if dropped:
            min_node[a] = min_node[b]
        obj -= t
        if trace is not None:
            trace.append(obj)
        del reg[a][b], reg[b][a]
        lif[a].pop(b, None)
        lif[b].pop(a, None)
        for adj in (reg, lif):
            into = adj[a]
            for nbr, c in adj[b].items():
                into[nbr] = into.get(nbr, 0.0) + c
                theirs = adj[nbr]
                del theirs[b]
                theirs[a] = into[nbr]
        reg_a, lif_a, ma = reg[a], lif[a], min_node[a]
        if dropped:
            changed = reg_a.keys()
        else:
            changed = (reg[b].keys() | lif[b].keys()) & reg_a.keys()
        reg[b] = lif[b] = None
        for nbr in changed:
            total = reg_a[nbr] + lif_a.get(nbr, 0.0)
            if total > 0.0:
                mn = min_node[nbr]
                heapq.heappush(heap, (-total, (ma, mn) if ma < mn else (mn, ma), a, nbr))

    u, v = np.array(contracted, dtype=np.int64).reshape(-1, 2).T
    partition = Partition.from_labels(pair_components(n, u, v))
    final = objective(instance, partition_to_labeling(instance, partition))
    return partition, final


# ---------------------------------------------------------------------------
# Steepest-descent local search: node moves, splits and cluster merges.
# ---------------------------------------------------------------------------


def _articulation_points(
    cluster: Set[int], reg_adj: Sequence[Sequence[Tuple[int, float]]]
) -> Set[int]:
    """Nodes whose removal disconnects the regular-edge subgraph of `cluster`.

    One iterative Tarjan low-link pass from the smallest node; `cluster`
    must be connected through regular edges.
    """
    root = min(cluster)
    disc = {root: 0}
    low = {root: 0}
    points: Set[int] = set()
    root_children = 0
    stack = [(root, -1, iter(reg_adj[root]))]
    while stack:
        x, parent, nbrs = stack[-1]
        for y, _ in nbrs:
            if y not in cluster:
                continue
            if y not in disc:
                disc[y] = low[y] = len(disc)
                stack.append((y, x, iter(reg_adj[y])))
                break
            if y != parent and disc[y] < low[x]:
                low[x] = disc[y]
        else:
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent >= 0:
                if low[x] < low[parent]:
                    low[parent] = low[x]
                if low[x] >= disc[parent]:
                    points.add(parent)
    if root_children > 1:
        points.add(root)
    return points


def _cluster_labels(instance: MulticutInstance, assign: np.ndarray) -> np.ndarray:
    """Blocks of `assign` split into their regular-edge components, each
    labelled by its smallest node, so labels compare as representatives."""
    eu, ev = instance.edges["u"], instance.edges["v"]
    comp = component_labels(instance, assign[eu] == assign[ev])
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
    reg, lif = (edges[(local[edges["u"]] >= 0) & (local[edges["v"]] >= 0)]
                for edges in (instance.edges, instance.lifted_edges))
    # `members` ascend, so `local` keeps each induced pair canonical, unique
    # and in range: the checks `MulticutInstance` ran on the instance hold.
    for edges in (reg, lif):
        edges["u"], edges["v"] = local[edges["u"]], local[edges["v"]]
    points = sorted(_articulation_points(set(range(size)), _adjacency(size, reg)))
    sums = []
    for x in points:
        kept = reg[(reg["u"] != x) & (reg["v"] != x)]
        part = pair_components(size, kept["u"], kept["v"])
        cut = (lif["u"] != x) & (lif["v"] != x) & (part[lif["u"]] != part[lif["v"]])
        sums.append(_sequential_sum(lif["c"][cut]))
    return members[points], np.array(sums)


def _pair_sums(first, second, n, costs, regular):
    """Summed costs, in input order, per distinct (first, second) pair of ids
    below n: both ids, the sum, and whether a regular edge is among them."""
    keys, inverse = np.unique(first * n + second, return_inverse=True)
    sums = np.bincount(inverse, weights=costs, minlength=len(keys))
    linked = np.bincount(inverse, weights=regular, minlength=len(keys)) > 0
    return *np.divmod(keys, n), sums, linked


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
    never above the initial partition's.

    The partition is one label array of regular-edge-connected clusters,
    each labelled by its smallest node. A sweep costs every candidate with
    one `np.unique` and `np.bincount` pass over E and F per key kind:
    (node, neighbour's cluster) and (cluster, cluster). The lifted pairs a
    node's removal disconnects are cached per cluster member set and
    recomputed, by Tarjan's pass and one component labelling per
    articulation node, only for the clusters the previous move changed.
    """
    if initial.num_nodes != instance.num_nodes:
        raise ValueError("initial partition does not cover the instance nodes")
    n = instance.num_nodes
    both = np.concatenate([instance.edges, instance.lifted_edges])
    # Each edge from both endpoints, its two directions adjacent, so every
    # per-key sum adds a node's costs in E-then-F order.
    tail = np.column_stack([both["u"], both["v"]]).ravel()
    head = np.column_stack([both["v"], both["u"]]).ravel()
    cost = np.repeat(both["c"], 2)
    regular = np.repeat(np.arange(len(both)) < instance.num_edges, 2)

    # Split any block that is not connected in G; the true objective is
    # unchanged because such lifted pairs were already charged as cut.
    labels = _cluster_labels(instance, initial.component_of)
    obj = _sequential_sum(both["c"][labels[both["u"]] != labels[both["v"]]])
    if trace is not None:
        trace.append(obj)
    cache: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}

    while True:
        # Per node, the cost of leaving its cluster: first the lifted pairs
        # its removal disconnects, then its edges into the cluster.
        leaving = np.zeros(n)
        kept = {}
        lifted_label = labels[instance.lifted_edges["u"]]
        inside = lifted_label == labels[instance.lifted_edges["v"]]
        for cluster in np.unique(lifted_label[inside]).tolist():
            members = np.flatnonzero(labels == cluster)
            key = members.tobytes()
            kept[key] = cache.get(key) or _articulation_sums(instance, members)
            points, cut = kept[key]
            leaving[points] = cut
        cache = kept

        tail_label, head_label = labels[tail], labels[head]
        node, target, sums, linked = _pair_sums(tail, head_label, n, cost, regular)
        own = target == labels[node]
        leaving[node[own]] += sums[own]
        move = linked & ~own
        split = np.flatnonzero(np.bincount(labels, minlength=n)[labels] > 1)
        across = tail_label < head_label
        into, absorbed, between, merge = _pair_sums(
            tail_label[across], head_label[across], n, cost[across], regular[across])

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

    partition = Partition.from_labels(labels)
    final = objective(instance, partition_to_labeling(instance, partition))
    return partition, final


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
