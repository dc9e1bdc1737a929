"""Frozen two-group versions of the instance readers, kept as their references.

Test-only differential references: `tests/test_solver.py` runs them next to
`liftedtrack.solver.is_feasible`, `partition_to_labeling`,
`solve_bruteforce` and `write_instance` and
`liftedtrack.graph.labeling_to_partition`, which read the instance's
contiguous E-then-F `columns`, and requires `==` reports (violations in
the same order, with the same messages), `==` labelings and partitions,
bit-equal brute-force objectives and identical instance bytes. These
versions read the `edges` and `lifted_edges` arrays as two groups, field
by field.
"""

from pathlib import Path
from typing import List, Tuple

import numpy as np

from liftedtrack.graph import EdgeLabeling, MulticutInstance, Partition, pair_components
from liftedtrack.solver import (
    BRUTEFORCE_MAX_NODES,
    FeasibilityReport,
    Violation,
    _partition_table,
)


def _columns(edges: np.ndarray) -> Tuple[list, list, list]:
    """Endpoints and costs as Python lists, for the per-edge loops."""
    return edges["u"].tolist(), edges["v"].tolist(), edges["c"].tolist()


def reference_component_labels(instance: MulticutInstance, joined) -> np.ndarray:
    """Component id per node of the regular edges that the mask `joined` selects."""
    edges = instance.edges[np.asarray(joined, dtype=bool)]
    return pair_components(instance.num_nodes, edges["u"], edges["v"])


def reference_labeling_to_partition(instance: MulticutInstance,
                                    labeling: EdgeLabeling) -> Partition:
    labeling.validate_for(instance)
    joined = labeling.labels[:instance.num_edges] == 0
    return Partition.from_labels(reference_component_labels(instance, joined))


def reference_is_feasible(instance: MulticutInstance,
                          labeling: EdgeLabeling) -> FeasibilityReport:
    labeling.validate_for(instance)
    m = instance.num_edges
    comp = reference_component_labels(instance, labeling.labels[:m] == 0)
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


def reference_partition_to_labeling(instance: MulticutInstance,
                                    partition: Partition) -> EdgeLabeling:
    if partition.num_nodes != instance.num_nodes:
        raise ValueError(
            f"partition covers {partition.num_nodes} nodes, "
            f"instance has {instance.num_nodes}"
        )
    block = partition.component_of
    cut = block[instance.edges["u"]] != block[instance.edges["v"]]
    comp = reference_component_labels(instance, ~cut)
    lifted_cut = comp[instance.lifted_edges["u"]] != comp[instance.lifted_edges["v"]]
    return EdgeLabeling(np.concatenate([cut, lifted_cut]))


def _join_components(table: np.ndarray, edges) -> np.ndarray:
    """Per row, connected-component labels of the within-block regular subgraph."""
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


def reference_solve_bruteforce(instance: MulticutInstance) -> Tuple[Partition, float]:
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
    stable = np.ones(len(table), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            stable &= ~((table[:, u] == table[:, v]) & (comp[:, u] != comp[:, v]))
    best = float(np.min(np.where(stable, obj, np.inf)))
    idx = int(np.argmax(stable & (obj == best)))
    return Partition(table[idx]), best


def reference_write_instance(instance: MulticutInstance, path) -> None:
    lines = [f"{instance.num_nodes} {instance.num_edges} {instance.num_lifted}"]
    for edges in (instance.edges, instance.lifted_edges):
        lines += map("{} {} {!r}".format, *_columns(edges))
    Path(path).write_text("\n".join(lines) + "\n")
