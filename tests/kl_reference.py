"""Frozen per-node Python copy of the local search, kept as its reference.

Test-only differential reference: `tests/test_solver.py` runs it next to
`liftedtrack.solver.solve_kl`, the array sweep, and requires identical
partitions, move counts and returned objectives, and traces within 1e-12
relative (the sweep sums each delta in another order). Every candidate
move here is costed one at a time: it rescans all lifted edges and runs a
BFS over the source cluster.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from helpers import UnionFind
from liftedtrack.graph import MulticutInstance, Partition
from liftedtrack.solver import objective, partition_to_labeling

_IMPROVEMENT_EPS = 1e-11


class _KLState:
    """Mutable partition state with join-connected clusters.

    Maintains the invariant that every cluster is connected through regular
    edges, so a lifted edge is cut exactly when its endpoints sit in
    different clusters and objective deltas stay local.
    """

    def __init__(self, instance: MulticutInstance, initial: Partition):
        self.instance = instance
        n = instance.num_nodes
        self.reg_adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self.lif_adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, c in instance.edges:
            self.reg_adj[u].append((v, c))
            self.reg_adj[v].append((u, c))
        for u, v, c in instance.lifted_edges:
            self.lif_adj[u].append((v, c))
            self.lif_adj[v].append((u, c))

        # Split any block that is not connected in G; the true objective is
        # unchanged because such lifted pairs were already charged as cut.
        uf = UnionFind(n)
        comp_in = initial.component_of
        for u, v, _ in instance.edges:
            if comp_in[u] == comp_in[v]:
                uf.union(u, v)
        self.comp: List[int] = [0] * n
        self.members: Dict[int, Set[int]] = {}
        roots: Dict[int, int] = {}
        for node in range(n):
            root = uf.find(node)
            if root not in roots:
                roots[root] = len(roots)
            cid = roots[root]
            self.comp[node] = cid
            self.members.setdefault(cid, set()).add(node)
        self.next_cid = len(roots)
        self.obj = self._full_objective()

    def _full_objective(self) -> float:
        total = 0.0
        for u, v, c in self.instance.edges:
            if self.comp[u] != self.comp[v]:
                total += c
        for u, v, c in self.instance.lifted_edges:
            if self.comp[u] != self.comp[v]:
                total += c
        return total

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

    def move_delta(self, node: int, target: Optional[int]) -> float:
        """Objective change for moving `node` to cluster `target` (None = new)."""
        src = self.comp[node]
        delta = 0.0
        for nbr, c in self.reg_adj[node]:
            if self.comp[nbr] == src:
                delta += c  # becomes cut
            elif target is not None and self.comp[nbr] == target:
                delta -= c  # becomes joined
        for nbr, c in self.lif_adj[node]:
            if self.comp[nbr] == src:
                delta += c
            elif target is not None and self.comp[nbr] == target:
                delta -= c
        cluster = self.members[src]
        if len(cluster) > 2:
            # Removing the node may disconnect its old cluster, cutting
            # lifted pairs that used to be linked through it.
            internal_lifted = [
                (u, v, c)
                for u, v, c in self.instance.lifted_edges
                if u != node
                and v != node
                and self.comp[u] == src
                and self.comp[v] == src
            ]
            if internal_lifted:
                comps = self._remainder_components(cluster, node)
                if len(comps) > 1:
                    where = {}
                    for k, part in enumerate(comps):
                        for x in part:
                            where[x] = k
                    for u, v, c in internal_lifted:
                        if where[u] != where[v]:
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
            for nbr, c in self.reg_adj[node]:
                if self.comp[nbr] == cb:
                    delta -= c
            for nbr, c in self.lif_adj[node]:
                if self.comp[nbr] == cb:
                    delta -= c
        return delta

    def apply_merge(self, ca: int, cb: int, delta: float) -> None:
        for node in self.members[cb]:
            self.comp[node] = ca
        self.members[ca] |= self.members[cb]
        del self.members[cb]
        self.obj += delta

    def partition(self) -> Partition:
        return Partition.from_labels(self.comp)


def reference_solve_kl(
    instance: MulticutInstance,
    initial: Partition,
    trace: Optional[List[float]] = None,
) -> Tuple[Partition, float]:
    """Local search over node moves, cluster merges, and single-node splits.

    Repeatedly applies the best strictly improving move until none exists.
    Move ties are broken by a fixed lexicographic move encoding: node moves
    (ordered by node, then target cluster representative), then splits,
    then merges (ordered by representative pair). The returned objective is
    never above the initial partition's.
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
                cand = (delta, (0, node, state.cluster_key(target)), "move",
                        (node, target))
                if delta < -_IMPROVEMENT_EPS and (best is None or cand[:2] < best[:2]):
                    best = cand
            if len(state.members[src]) > 1:
                delta = state.move_delta(node, None)
                cand = (delta, (1, node, node), "split", (node, None))
                if delta < -_IMPROVEMENT_EPS and (best is None or cand[:2] < best[:2]):
                    best = cand

        adjacent_pairs = set()
        for u, v, _ in instance.edges:
            cu, cv = state.comp[u], state.comp[v]
            if cu != cv:
                adjacent_pairs.add((min(cu, cv), max(cu, cv)))
        for ca, cb in sorted(
            adjacent_pairs, key=lambda p: (state.cluster_key(p[0]), state.cluster_key(p[1]))
        ):
            delta = state.merge_delta(ca, cb)
            cand = (
                delta,
                (2, state.cluster_key(ca), state.cluster_key(cb)),
                "merge",
                (ca, cb),
            )
            if delta < -_IMPROVEMENT_EPS and (best is None or cand[:2] < best[:2]):
                best = cand

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
