"""Frozen union-find copy of greedy additive edge contraction, kept as its reference.

Test-only differential reference: `tests/test_solver.py` runs it next to
`liftedtrack.solver.solve_gaec`, the indexed-cluster contraction, and
requires `==` partitions, traces and returned objectives. Here the
surviving cluster is always the one with the smaller min node, ids are
union-find roots, and after every contraction each of the survivor's
regular neighbours is pushed again.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from helpers import UnionFind, canonical_edge
from liftedtrack.graph import MulticutInstance, Partition
from liftedtrack.solver import _sequential_sum, objective, partition_to_labeling


def _incident_costs(n: int, edges: np.ndarray) -> List[Dict[int, float]]:
    """Per node, neighbour -> cost of each incident edge, in edge order."""
    incident: List[Dict[int, float]] = [{} for _ in range(n)]
    for u, v, c in zip(edges["u"].tolist(), edges["v"].tolist(), edges["c"].tolist()):
        incident[u][v] = c
        incident[v][u] = c
    return incident


def reference_solve_gaec(
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
    reg = _incident_costs(n, instance.edges)
    lif = _incident_costs(n, instance.lifted_edges)
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
