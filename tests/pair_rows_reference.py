"""Frozen pair-row validators of `MulticutInstance` and `MatchTable`, kept as references.

Test-only differential references: `tests/test_graph.py` and
`tests/test_affinity.py` require the two constructors, which share
`liftedtrack.graph.pair_rows`, `first_flagged` and `repeated_pairs`, to
accept and reject the same inputs as these copies of their own former
bodies, with the same exception type, message and `RowError.rows`,
and to store `==` arrays. Here the instance finds repeated pairs with a
structured `np.unique`, and each validator converts its rows and builds
its own check table. Since `MulticutInstance` reports the row at fault,
this copy raises its rejection as a `RowError` with that row's position,
where it used to raise a plain ValueError; the check itself is unchanged.
"""

import numpy as np

from liftedtrack.affinity import MATCH_DTYPE
from liftedtrack.graph import EDGE_DTYPE, RowError


def reference_instance_rows(num_nodes, edges, lifted_edges=()):
    """The stored (edges, lifted_edges) of `MulticutInstance(num_nodes, edges,
    lifted_edges)`, or the ValueError it raises."""
    if num_nodes < 0:
        raise ValueError("num_nodes must be >= 0")
    stored = []
    for name, rows in (("edges", edges), ("lifted_edges", lifted_edges)):
        # numpy reads a tuple of tuples as one record, a list as rows
        rows = np.array(rows if isinstance(rows, np.ndarray) else list(rows),
                        dtype=EDGE_DTYPE)
        if rows.ndim != 1:
            raise ValueError(f"{name} must be (u, v, c) triples, got {rows.shape}")
        rows.flags.writeable = False
        stored.append(rows)
    num_edges = len(stored[0])
    both = np.concatenate(stored)
    u, v, c, n = both["u"], both["v"], both["c"], num_nodes
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
        name = "edge" if i < num_edges else "lifted edge"
        raise RowError(message.format(name=name, u=int(u[i]), v=int(v[i]),
                                      c=float(c[i])), (int(i),))
    return tuple(stored)


def reference_match_rows(rows):
    """The stored rows of `MatchTable(rows)`, or the error it raises."""
    # numpy reads a tuple of tuples as one record, a list as rows
    rows = np.array(rows if isinstance(rows, np.ndarray) else list(rows),
                    dtype=MATCH_DTYPE)
    if rows.ndim != 1:
        raise ValueError(f"match table rows must be (u, v, value), got {rows.shape}")
    rows["u"], rows["v"] = np.sort([rows["u"], rows["v"]], axis=0)
    u, v, value = rows["u"], rows["v"], rows["value"]
    checks = (
        (u == v, "self-loop ({u}, {v}) is not a valid pair"),
        (u < 0, "negative detection id in pair ({u}, {v})"),
        (~((value >= 0.0) & (value <= 1.0)),
         "overlap for pair ({u}, {v}) outside [0,1]: {value!r}"),
    )
    bad = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
    if bad.size:
        i = bad[0]
        message = next(text for mask, text in checks if mask[i])
        raise RowError(message.format(u=int(u[i]), v=int(v[i]),
                                             value=float(value[i])), (int(i),))
    order = np.lexsort((v, u))
    rows = rows[order]
    u, v, value = rows["u"], rows["v"], rows["value"]
    repeat = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    conflict = np.flatnonzero(repeat & (value[1:] != value[:-1]))
    if conflict.size:
        i = conflict[0]
        raise RowError(
            f"conflicting overlap values for pair ({int(u[i])}, {int(v[i])}): "
            f"{float(value[i])!r} and {float(value[i + 1])!r}",
            (int(order[i]), int(order[i + 1])),
        )
    first = np.ones(len(rows), dtype=bool)
    first[1:] = ~repeat
    rows = rows[first]
    rows.flags.writeable = False
    return rows
