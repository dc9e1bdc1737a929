"""Minimum cost (lifted) multicut: feasibility, exact oracle, and heuristics.

Sign convention used across the project: an edge cost is the logit of the
same-identity probability, so positive costs penalize cutting (the endpoints
attract) and negative costs reward it. The objective sums the costs of cut
edges and is minimized.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .graph import (
    Edge,
    EdgeLabeling,
    MulticutInstance,
    Partition,
    UnionFind,
    canonical_edge,
    component_labels,
)

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
    block = np.array(partition.component_of, dtype=np.int64)
    cut = block[instance.edges["u"]] != block[instance.edges["v"]]
    comp = component_labels(instance, ~cut)
    lifted_cut = comp[instance.lifted_edges["u"]] != comp[instance.lifted_edges["v"]]
    return EdgeLabeling(np.concatenate([cut, lifted_cut]))


def _columns(edges: np.ndarray) -> Tuple[list, list, list]:
    """Endpoints and costs as Python lists, for the per-edge solver loops."""
    return edges["u"].tolist(), edges["v"].tolist(), edges["c"].tolist()


def _adjacency(num_nodes: int, edges: np.ndarray) -> List[List[Tuple[int, float]]]:
    """Per node, (neighbour, cost) of each incident edge, in edge order."""
    ends = np.column_stack([edges["u"], edges["v"]]).ravel()
    order = np.argsort(ends, kind="stable")
    others = np.column_stack([edges["v"], edges["u"]]).ravel()[order].tolist()
    costs = np.repeat(edges["c"], 2)[order].tolist()
    bounds = np.searchsorted(ends[order], np.arange(num_nodes + 1)).tolist()
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
    return Partition(tuple(int(x) for x in table[idx])), best


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
    Ties pick the smallest canonical pair of cluster representatives. Pass
    `trace` to record the objective after every contraction.
    """
    n = instance.num_nodes
    uf = UnionFind(n)
    min_node = list(range(n))
    reg = [dict(incident) for incident in _adjacency(n, instance.edges)]
    lif = [dict(incident) for incident in _adjacency(n, instance.lifted_edges)]
    obj = _sequential_sum(np.concatenate([instance.edges["c"],
                                          instance.lifted_edges["c"]]))
    if trace is not None:
        trace.append(obj)

    def pair_total(a: int, b: int) -> float:
        return reg[a][b] + lif[a].get(b, 0.0)

    heap: List[Tuple[float, Tuple[int, int], int, int]] = []

    def push(a: int, b: int) -> None:
        t = pair_total(a, b)
        if t > 0.0:
            key = canonical_edge(min_node[a], min_node[b])
            heapq.heappush(heap, (-t, key, a, b))

    for u, v in zip(instance.edges["u"].tolist(), instance.edges["v"].tolist()):
        push(u, v)

    while heap:
        negt, key, a, b = heapq.heappop(heap)
        if uf.find(a) != a or uf.find(b) != b or b not in reg[a]:
            continue
        t = pair_total(a, b)
        if -negt != t or key != canonical_edge(min_node[a], min_node[b]):
            continue  # stale entry; a fresh one was pushed on update
        if t <= 0.0:
            continue
        # Contract b into a; keep the root with the smaller representative.
        if min_node[b] < min_node[a]:
            a, b = b, a
        uf.parent[b] = a
        uf.size[a] += uf.size[b]
        min_node[a] = min(min_node[a], min_node[b])
        obj -= t
        if trace is not None:
            trace.append(obj)
        reg[a].pop(b, None)
        reg[b].pop(a, None)
        lif[a].pop(b, None)
        lif[b].pop(a, None)
        for nbr, c in reg[b].items():
            reg[a][nbr] = reg[a].get(nbr, 0.0) + c
            del reg[nbr][b]
            reg[nbr][a] = reg[a][nbr]
        for nbr, c in lif[b].items():
            lif[a][nbr] = lif[a].get(nbr, 0.0) + c
            del lif[nbr][b]
            lif[nbr][a] = lif[a][nbr]
        reg[b].clear()
        lif[b].clear()
        for nbr in reg[a]:
            push(a, nbr)

    partition = Partition.from_labels([uf.find(i) for i in range(n)])
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


class _KLState:
    """Mutable partition state with join-connected clusters.

    Maintains the invariant that every cluster is connected through regular
    edges, so a lifted edge is cut exactly when its endpoints sit in
    different clusters and objective deltas stay local.
    """

    def __init__(self, instance: MulticutInstance, initial: Partition):
        self.instance = instance
        n = instance.num_nodes
        self.reg_adj = _adjacency(n, instance.edges)
        # Per node, its regular incident edges followed by its lifted ones:
        # the cost terms of the move and merge deltas, in summation order.
        self.cost_adj = [reg + lif for reg, lif in
                         zip(self.reg_adj, _adjacency(n, instance.lifted_edges))]

        # Split any block that is not connected in G; the true objective is
        # unchanged because such lifted pairs were already charged as cut.
        block = np.array(initial.component_of, dtype=np.int64)
        joined = block[instance.edges["u"]] == block[instance.edges["v"]]
        blocks = Partition.from_labels(component_labels(instance, joined).tolist())
        self.comp: List[int] = list(blocks.component_of)
        self.members: Dict[int, Set[int]] = {}
        for node, cid in enumerate(self.comp):
            self.members.setdefault(cid, set()).add(node)
        self.next_cid = len(self.members)
        self.obj = self._full_objective()
        # Lifted edges as (u, v, cost) columns; their ids listed at the
        # smaller endpoint.
        self.lifted = _columns(instance.lifted_edges)
        self.lif_out: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(zip(*self.lifted[:2])):
            self.lif_out[u].append((i, v))
        # Per cluster id: articulation node -> costs of the internal lifted
        # edges its removal disconnects, in F order. Dropped when the
        # cluster changes.
        self._disconnection: Dict[int, Dict[int, List[float]]] = {}

    def _full_objective(self) -> float:
        comp = np.array(self.comp)
        cut = [group["c"][comp[group["u"]] != comp[group["v"]]]
               for group in (self.instance.edges, self.instance.lifted_edges)]
        return _sequential_sum(np.concatenate(cut))

    def cluster_key(self, cid: int) -> int:
        return min(self.members[cid])

    def _remainder_components(self, cluster: Set[int], removed: int) -> List[Set[int]]:
        """Regular-edge components of cluster minus one node."""
        rest = cluster - {removed}
        comps: List[Set[int]] = []
        unseen = set(rest)
        while unseen:
            start = min(unseen)
            stack = [start]
            seen = {start}
            while stack:
                x = stack.pop()
                for nbr, _ in self.reg_adj[x]:
                    if nbr in rest and nbr not in seen:
                        seen.add(nbr)
                        stack.append(nbr)
            comps.append(seen)
            unseen -= seen
        return comps

    def _disconnection_costs(self, cid: int) -> Dict[int, List[float]]:
        """Lifted costs cut by removing each articulation node of a cluster.

        A node whose removal leaves the cluster connected cuts no lifted
        pair, so only articulation nodes appear, and only when the cluster
        holds internal lifted edges at all.
        """
        cached = self._disconnection.get(cid)
        if cached is not None:
            return cached
        cached = {}
        cluster = self.members[cid]
        ids = sorted(
            i for x in cluster for i, y in self.lif_out[x] if self.comp[y] == cid
        )
        if ids:
            fu, fv, fc = self.lifted
            for node in _articulation_points(cluster, self.reg_adj):
                where = {}
                for k, part in enumerate(self._remainder_components(cluster, node)):
                    for x in part:
                        where[x] = k
                cached[node] = [
                    fc[i]
                    for i in ids
                    if node not in (fu[i], fv[i]) and where[fu[i]] != where[fv[i]]
                ]
        self._disconnection[cid] = cached
        return cached

    def move_delta(self, node: int, target: Optional[int]) -> float:
        """Objective change for moving `node` to cluster `target` (None = new)."""
        src = self.comp[node]
        delta = 0.0
        for nbr, c in self.cost_adj[node]:
            if self.comp[nbr] == src:
                delta += c  # becomes cut
            elif target is not None and self.comp[nbr] == target:
                delta -= c  # becomes joined
        # Removing the node may disconnect its old cluster, cutting lifted
        # pairs that used to be linked through it. Added one by one so the
        # sum rounds the same way for every target.
        for c in self._disconnection_costs(src).get(node, ()):
            delta += c
        return delta

    def apply_move(self, node: int, target: Optional[int], delta: float) -> None:
        src = self.comp[node]
        cluster = self.members[src]
        cluster.discard(node)
        if target is None:
            target = self.next_cid
            self.next_cid += 1
            self.members[target] = set()
        self.members[target].add(node)
        self.comp[node] = target
        self._disconnection.pop(src, None)
        self._disconnection.pop(target, None)
        if not cluster:
            del self.members[src]
        elif len(cluster) > 1:
            comps = self._remainder_components(cluster | {node}, node)
            if len(comps) > 1:
                # Keep the original id on the component holding the smallest
                # node; fresh ids for the rest, ordered by smallest member.
                comps.sort(key=min)
                self.members[src] = comps[0]
                for part in comps[1:]:
                    cid = self.next_cid
                    self.next_cid += 1
                    self.members[cid] = part
                    for x in part:
                        self.comp[x] = cid
        self.obj += delta

    def merge_delta(self, ca: int, cb: int) -> float:
        a_members = self.members[ca]
        delta = 0.0
        for node in a_members:
            for nbr, c in self.cost_adj[node]:
                if self.comp[nbr] == cb:
                    delta -= c
        return delta

    def apply_merge(self, ca: int, cb: int, delta: float) -> None:
        self._disconnection.pop(ca, None)
        self._disconnection.pop(cb, None)
        for node in self.members[cb]:
            self.comp[node] = ca
        self.members[ca] |= self.members[cb]
        del self.members[cb]
        self.obj += delta

    def partition(self) -> Partition:
        return Partition.from_labels(self.comp)


def _improves_on(delta: float, key: Tuple, best: Optional[Tuple]) -> bool:
    """Strictly improving, and ahead of the best move so far by (delta, key)."""
    return delta < -_IMPROVEMENT_EPS and (best is None or (delta, key) < best[:2])


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

    Lifted pairs a node's removal would disconnect are cached per cluster
    and recomputed only for clusters the previous move changed. With a
    bounded number of clusters next to any node, a sweep costs
    O(|E| + |F|) plus one BFS per articulation node of those clusters.
    """
    if initial.num_nodes != instance.num_nodes:
        raise ValueError("initial partition does not cover the instance nodes")
    state = _KLState(instance, initial)
    if trace is not None:
        trace.append(state.obj)

    while True:
        best: Optional[Tuple[float, Tuple, str, object]] = None

        for node in range(instance.num_nodes):
            src = state.comp[node]
            targets = sorted(
                {
                    state.comp[nbr]
                    for nbr, _ in state.reg_adj[node]
                    if state.comp[nbr] != src
                },
                key=state.cluster_key,
            )
            for target in targets:
                delta = state.move_delta(node, target)
                key = (0, node, state.cluster_key(target))
                if _improves_on(delta, key, best):
                    best = (delta, key, "move", (node, target))
            if len(state.members[src]) > 1:
                delta = state.move_delta(node, None)
                key = (1, node, node)
                if _improves_on(delta, key, best):
                    best = (delta, key, "split", (node, None))

        comp = np.array(state.comp)
        cu, cv = comp[instance.edges["u"]], comp[instance.edges["v"]]
        across = cu != cv
        adjacent_pairs = set(zip(np.minimum(cu, cv)[across].tolist(),
                                 np.maximum(cu, cv)[across].tolist()))
        for ca, cb in sorted(
            adjacent_pairs, key=lambda p: (state.cluster_key(p[0]), state.cluster_key(p[1]))
        ):
            delta = state.merge_delta(ca, cb)
            key = (2, state.cluster_key(ca), state.cluster_key(cb))
            if _improves_on(delta, key, best):
                best = (delta, key, "merge", (ca, cb))

        if best is None:
            break
        delta, _, kind, payload = best
        if kind == "merge":
            ca, cb = payload
            state.apply_merge(ca, cb, delta)
        else:
            node, target = payload
            state.apply_move(node, target, delta)
        if trace is not None:
            trace.append(state.obj)

    partition = state.partition()
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


def read_instance(path) -> MulticutInstance:
    text = Path(path).read_text().split("\n")
    rows = [line.split() for line in text if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty instance file")
    try:
        n, m, k = (int(x) for x in rows[0])
    except ValueError as exc:
        raise ValueError(f"{path}: bad header {rows[0]!r}") from exc
    if len(rows) != 1 + m + k:
        raise ValueError(
            f"{path}: expected {m} + {k} edge lines, found {len(rows) - 1}"
        )

    def parse(row, lineno):
        try:
            u, v, c = int(row[0]), int(row[1]), float(row[2])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: bad edge line {lineno}: {row!r}") from exc
        return canonical_edge(u, v) + (c,)

    edges = tuple(parse(rows[i], i + 1) for i in range(1, 1 + m))
    lifted = tuple(parse(rows[i], i + 1) for i in range(1 + m, 1 + m + k))
    return MulticutInstance(n, edges, lifted)
