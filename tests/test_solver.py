"""Solver tests: feasibility, exact oracle, GAEC, KL local search, instance IO.

The local search is also run against `kl_reference`, a frozen copy of its
uncached version, and must reproduce its traces exactly.

The reference oracle here enumerates set partitions recursively in pure
Python and charges lifted edges through BFS connectivity, independently of
the vectorized implementation under test.
"""

import numpy as np
import pytest

from helpers import random_instance, random_labeling, random_partition
from kl_reference import reference_solve_kl
from liftedtrack.graph import (
    EdgeLabeling,
    MulticutInstance,
    Partition,
    labeling_to_partition,
)
from liftedtrack.solver import (
    BRUTEFORCE_MAX_NODES,
    _articulation_points,
    _KLState,
    _partition_table,
    is_feasible,
    objective,
    partition_to_labeling,
    read_instance,
    solve_bruteforce,
    solve_gaec,
    solve_kl,
    write_instance,
)

TRIANGLE = MulticutInstance(3, ((0, 1, -1.0), (1, 2, -1.0), (0, 2, 5.0)))


# ---------------------------------------------------------------------------
# Reference oracle, implemented independently of liftedtrack.solver.
# ---------------------------------------------------------------------------


def _all_assignments(n):
    """Every canonical set-partition assignment vector, lexicographic."""
    out = []

    def rec(prefix, maxid):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for cid in range(maxid + 2):
            prefix.append(cid)
            rec(prefix, max(maxid, cid))
            prefix.pop()

    rec([], -1)
    return out


def _bfs_components(n, assign, edges):
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        if assign[u] == assign[v]:
            adj[u].append(v)
            adj[v].append(u)
    comp = [-1] * n
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = start
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if comp[y] == -1:
                    comp[y] = start
                    queue.append(y)
    return comp


def reference_optimum(instance):
    """(assignment, objective) minimizing cut cost, lifted edges charged by
    join connectivity; only assignments whose blocks are connected in G are
    admissible (those are exactly the partitions labelings can induce)."""
    n = instance.num_nodes
    best = None
    best_assign = None
    for assign in _all_assignments(n):
        comp = _bfs_components(n, assign, instance.edges)
        stable = all(
            not (assign[u] == assign[v] and comp[u] != comp[v])
            for u in range(n)
            for v in range(u + 1, n)
        )
        if not stable:
            continue
        total = 0.0
        for u, v, c in instance.edges:
            if assign[u] != assign[v]:
                total += c
        for u, v, c in instance.lifted_edges:
            if comp[u] != comp[v]:
                total += c
        if best is None or total < best:
            best = total
            best_assign = assign
    return best_assign, best


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


class TestObjective:
    def test_all_join_is_zero(self):
        lab = EdgeLabeling({(0, 1): 0, (1, 2): 0, (0, 2): 0})
        assert objective(TRIANGLE, lab) == 0.0

    def test_single_cut_edge(self):
        inst = MulticutInstance(2, ((0, 1, -1.0),))
        assert objective(inst, EdgeLabeling({(0, 1): 1})) == -1.0

    def test_triangle_optimal_labeling(self):
        lab = EdgeLabeling({(0, 1): 1, (1, 2): 1, (0, 2): 0})
        assert objective(TRIANGLE, lab) == -2.0

    def test_rejects_incomplete_labeling(self):
        with pytest.raises(ValueError):
            objective(TRIANGLE, EdgeLabeling({(0, 1): 1}))


# ---------------------------------------------------------------------------
# is_feasible
# ---------------------------------------------------------------------------


class TestIsFeasible:
    def test_one_cut_edge_in_triangle_infeasible(self):
        lab = EdgeLabeling({(0, 1): 1, (1, 2): 0, (0, 2): 0})
        report = is_feasible(TRIANGLE, lab)
        assert not report.feasible
        assert [v.edge for v in report.violations] == [(0, 1)]

    def test_lifted_cut_with_join_path_infeasible(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)), ((0, 2, 1.0),))
        lab = EdgeLabeling({(0, 1): 0, (1, 2): 0, (0, 2): 1})
        report = is_feasible(inst, lab)
        assert not report.feasible
        assert report.violations[0].edge == (0, 2)
        assert report.violations[0].lifted

    def test_lifted_join_without_path_infeasible(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)), ((0, 2, 1.0),))
        lab = EdgeLabeling({(0, 1): 1, (1, 2): 0, (0, 2): 0})
        report = is_feasible(inst, lab)
        assert not report.feasible
        assert (0, 2) in [v.edge for v in report.violations]

    def test_partition_induced_labelings_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            inst = random_instance(rng, max_nodes=8)
            part = random_partition(rng, inst.num_nodes)
            lab = partition_to_labeling(inst, part)
            assert is_feasible(inst, lab).feasible

    def test_agrees_with_reference_on_random_labelings(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            inst = random_instance(rng, max_nodes=7)
            lab = random_labeling(rng, inst)
            comp = _bfs_components(
                inst.num_nodes,
                [0] * inst.num_nodes,
                [
                    (u, v, c)
                    for u, v, c in inst.edges
                    if lab.labels[(u, v)] == 0
                ],
            )
            expected = all(
                (lab.labels[(u, v)] == 1) == (comp[u] != comp[v])
                for u, v, _ in list(inst.edges) + list(inst.lifted_edges)
            )
            assert is_feasible(inst, lab).feasible == expected


# ---------------------------------------------------------------------------
# partition <-> labeling
# ---------------------------------------------------------------------------


class TestPartitionLabelingRoundtrip:
    def test_disconnected_block_cuts_lifted_edge(self):
        # Block {0, 2} has no regular path, so the lifted pair stays cut.
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)), ((0, 2, 1.0),))
        lab = partition_to_labeling(inst, Partition((0, 1, 0)))
        assert lab.labels == {(0, 1): 1, (1, 2): 1, (0, 2): 1}

    def test_roundtrip_from_connected_partitions(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            inst = random_instance(rng, max_nodes=8)
            part0 = random_partition(rng, inst.num_nodes)
            lab0 = partition_to_labeling(inst, part0)
            part1 = labeling_to_partition(inst, lab0)
            # part1's blocks are G-connected, so from here the maps invert
            # each other exactly.
            lab1 = partition_to_labeling(inst, part1)
            assert lab1.labels == lab0.labels
            assert labeling_to_partition(inst, lab1).same_as(part1)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            partition_to_labeling(TRIANGLE, Partition((0, 1)))


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


class TestBruteForce:
    def test_partition_table_bell_counts(self):
        for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)):
            assert len(_partition_table(n)) == bell

    def test_partition_table_lex_order(self):
        table = [tuple(row) for row in _partition_table(3)]
        assert table == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_triangle_optimum(self):
        part, value = solve_bruteforce(TRIANGLE)
        assert value == -2.0
        assert part.component_of == (0, 1, 0)

    def test_lifted_attraction_forces_bridge(self):
        # Without the connectivity charge, splitting {0,2} from {1} would
        # look like -2; the only way to join the lifted pair is via node 1.
        inst = MulticutInstance(3, ((0, 1, -1.0), (1, 2, -1.0)), ((0, 2, 5.0),))
        part, value = solve_bruteforce(inst)
        assert value == 0.0
        assert part.component_of == (0, 0, 0)

    def test_lifted_repulsion_tie_break(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)), ((0, 2, -10.0),))
        part, value = solve_bruteforce(inst)
        assert value == -9.0
        assert part.component_of == (0, 0, 1)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            inst = random_instance(rng, max_nodes=6)
            got_part, got_value = solve_bruteforce(inst)
            ref_assign, ref_value = reference_optimum(inst)
            assert got_value == ref_value
            assert got_part.component_of == ref_assign

    def test_not_above_random_feasible_labelings(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, max_nodes=8)
        _, best = solve_bruteforce(inst)
        for _ in range(1000):
            part = random_partition(rng, inst.num_nodes)
            lab = partition_to_labeling(inst, part)
            assert best <= objective(inst, lab) + 1e-12

    def test_rejects_large_instances(self):
        inst = MulticutInstance(BRUTEFORCE_MAX_NODES + 1, ())
        with pytest.raises(ValueError):
            solve_bruteforce(inst)

    def test_empty_instance(self):
        part, value = solve_bruteforce(MulticutInstance(0, ()))
        assert value == 0.0
        assert part.num_nodes == 0


# ---------------------------------------------------------------------------
# GAEC
# ---------------------------------------------------------------------------


class TestGaec:
    def test_planted_two_clusters(self):
        inst = MulticutInstance(4, ((0, 1, 3.0), (2, 3, 4.0), (1, 2, -5.0)))
        part, value = solve_gaec(inst)
        assert part.same_as(Partition((0, 0, 1, 1)))
        assert value == -5.0

    def test_aggregate_costs_stop_contraction(self):
        # After contracting (0,1), cluster pair {0,1},{2} totals -3+2 = -1.
        inst = MulticutInstance(3, ((0, 1, 2.0), (0, 2, -3.0), (1, 2, 2.0)))
        part, value = solve_gaec(inst)
        assert part.same_as(Partition((0, 0, 1)))
        assert value == -1.0

    def test_all_repulsive_keeps_singletons(self):
        inst = MulticutInstance(3, ((0, 1, -1.0), (1, 2, -2.0)))
        part, value = solve_gaec(inst)
        assert part.num_components == 3
        assert value == -3.0

    def test_lifted_costs_steer_contraction(self):
        # The regular edge alone attracts, but the lifted pair repels more.
        inst = MulticutInstance(2, ((0, 1, 1.0),), ())
        part, _ = solve_gaec(inst)
        assert part.num_components == 1
        inst2 = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 0.5)), ((0, 2, -9.0),))
        part2, _ = solve_gaec(inst2)
        assert part2.num_components >= 2

    def test_trace_monotone_and_feasible_output(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            inst = random_instance(rng, max_nodes=10)
            trace = []
            part, value = solve_gaec(inst, trace=trace)
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
            lab = partition_to_labeling(inst, part)
            assert is_feasible(inst, lab).feasible
            assert value == pytest.approx(objective(inst, lab))
            assert value == pytest.approx(trace[-1])

    def test_never_below_optimum(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            inst = random_instance(rng, max_nodes=7)
            _, got = solve_gaec(inst)
            _, best = solve_bruteforce(inst)
            assert got >= best - 1e-9


# ---------------------------------------------------------------------------
# KL local search
# ---------------------------------------------------------------------------


class TestKl:
    def test_optimum_is_fixed_point(self):
        part0, best = solve_bruteforce(TRIANGLE)
        part, value = solve_kl(TRIANGLE, part0)
        assert value == best
        assert part.same_as(part0)

    def test_singletons_reach_planted_partition(self):
        inst = MulticutInstance(4, ((0, 1, 3.0), (2, 3, 4.0), (1, 2, -5.0)))
        singletons = Partition((0, 1, 2, 3))
        part, value = solve_kl(inst, singletons)
        assert part.same_as(Partition((0, 0, 1, 1)))
        assert value == -5.0

    def test_split_move_extracts_repelled_node(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, -4.0)))
        part, value = solve_kl(inst, Partition((0, 0, 0)))
        assert part.same_as(Partition((0, 0, 1)))
        assert value == -4.0

    def test_never_worse_than_initial(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            inst = random_instance(rng, max_nodes=9)
            init = random_partition(rng, inst.num_nodes)
            init_obj = objective(inst, partition_to_labeling(inst, init))
            part, value = solve_kl(inst, init)
            assert value <= init_obj + 1e-9
            lab = partition_to_labeling(inst, part)
            assert is_feasible(inst, lab).feasible
            assert value == pytest.approx(objective(inst, lab))

    def test_trace_monotone(self):
        rng = np.random.default_rng(43)
        inst = random_instance(rng, max_nodes=9)
        trace = []
        solve_kl(inst, random_partition(rng, inst.num_nodes), trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_never_below_optimum_after_gaec(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            inst = random_instance(rng, max_nodes=7)
            start, _ = solve_gaec(inst)
            _, value = solve_kl(inst, start)
            _, best = solve_bruteforce(inst)
            assert value >= best - 1e-9

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            solve_kl(TRIANGLE, Partition((0, 0)))


def _from_pairs(n, pairs, lifted):
    """Instance from {(u, v): cost} maps; lifted pairs keep insertion order."""
    return MulticutInstance(
        n,
        tuple((u, v, c) for (u, v), c in sorted(pairs.items())),
        tuple((u, v, c) for (u, v), c in lifted.items()),
    )


def _chain_instance(rng, n):
    """A path 0-1-...-(n-1) with sparse chords and lifted pairs along it.

    Most path nodes are articulation points of the one-block start, so
    node moves there cut lifted pairs that span them.
    """
    pairs = {(i, i + 1): float(rng.normal(1.0, 1.0)) for i in range(n - 1)}
    for _ in range(n // 4):
        u = int(rng.integers(0, n - 2))
        pairs.setdefault((u, u + 2), float(rng.normal()))
    lifted = {}
    for _ in range(n):
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        if (u, v) not in pairs:
            lifted[(u, v)] = float(rng.normal(0.0, 2.0))
    return _from_pairs(n, pairs, lifted)


def _bridge_instance(rng, n):
    """Two dense halves joined by one bridge edge, lifted pairs across it."""
    half = n // 2
    pairs = {}
    for lo, hi in ((0, half), (half, n)):
        for u in range(lo, hi):
            for v in range(u + 1, hi):
                if v == u + 1 or rng.random() < 0.5:
                    pairs[(u, v)] = float(rng.normal(0.5, 1.0))
    pairs[(half - 1, half)] = float(rng.normal(0.5, 1.0))
    lifted = {}
    for _ in range(n):
        u = int(rng.integers(0, half))
        v = int(rng.integers(half, n))
        if (u, v) not in pairs:
            lifted[(u, v)] = float(rng.normal(0.0, 2.0))
    return _from_pairs(n, pairs, lifted)


class _ExpectedTrace(list):
    """A trace that fails on the first objective the reference did not record.

    A search that diverges may cycle forever; this stops it at once.
    """

    def __init__(self, expected):
        super().__init__()
        self.expected = expected

    def append(self, value):
        step = len(self)
        assert step < len(self.expected), f"extra step {step}: {value!r}"
        assert value == self.expected[step], (
            f"step {step}: {value!r} != {self.expected[step]!r}"
        )
        super().append(value)


class TestKlMatchesReference:
    """The cached local search against a frozen copy of the uncached one."""

    @staticmethod
    def _assert_same(inst, init):
        ref_trace = []
        ref_part, ref_value = reference_solve_kl(inst, init, trace=ref_trace)
        got_trace = _ExpectedTrace(ref_trace)
        got_part, got_value = solve_kl(inst, init, trace=got_trace)
        assert got_trace == ref_trace
        assert got_part.component_of == ref_part.component_of
        assert got_value == ref_value
        return len(got_trace) - 1

    def test_random_instances(self):
        rng = np.random.default_rng(61)
        moves = 0
        for _ in range(300):
            inst = random_instance(
                rng,
                max_nodes=14,
                edge_prob=float(rng.uniform(0.15, 0.7)),
                lifted_frac=0.4,
            )
            moves += self._assert_same(inst, random_partition(rng, inst.num_nodes))
        assert moves > 300

    def test_chain_and_bridge_clusters(self):
        rng = np.random.default_rng(67)
        moves = 0
        charged = 0
        for k in range(80):
            make = _chain_instance if k % 2 == 0 else _bridge_instance
            inst = make(rng, int(rng.integers(6, 25)))
            starts = [Partition((0,) * inst.num_nodes), solve_gaec(inst)[0]]
            for init in starts:
                state = _KLState(inst, init)
                charged += sum(
                    1
                    for cid in state.members
                    for costs in state._disconnection_costs(cid).values()
                    if costs
                )
                moves += self._assert_same(inst, init)
        # Articulation nodes did carry lifted pairs, and the searches moved.
        assert charged > 100
        assert moves > 80


# ---------------------------------------------------------------------------
# articulation points
# ---------------------------------------------------------------------------


def _connected_subset(rng, state, size):
    """Grow a node set from a random start along regular edges."""
    start = int(rng.integers(0, len(state.reg_adj)))
    nodes = {start}
    frontier = [y for y, _ in state.reg_adj[start]]
    while frontier and len(nodes) < size:
        y = frontier.pop(int(rng.integers(0, len(frontier))))
        if y not in nodes:
            nodes.add(y)
            frontier.extend(z for z, _ in state.reg_adj[y] if z not in nodes)
    return nodes


class TestArticulationPoints:
    @staticmethod
    def _by_removal(state, nodes):
        return {
            x for x in nodes if len(state._remainder_components(nodes, x)) > 1
        }

    def test_random_connected_sets(self):
        rng = np.random.default_rng(71)
        cut_vertices = 0
        for _ in range(200):
            inst = random_instance(
                rng, max_nodes=16, edge_prob=float(rng.uniform(0.1, 0.5))
            )
            state = _KLState(inst, Partition((0,) * inst.num_nodes))
            nodes = _connected_subset(rng, state, int(rng.integers(1, 17)))
            expected = self._by_removal(state, nodes)
            assert _articulation_points(nodes, state.reg_adj) == expected
            cut_vertices += len(expected)
        assert cut_vertices > 50

    def test_path_like_sets(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            inst = _chain_instance(rng, int(rng.integers(2, 30)))
            state = _KLState(inst, Partition((0,) * inst.num_nodes))
            lo = int(rng.integers(0, inst.num_nodes))
            hi = int(rng.integers(lo, inst.num_nodes)) + 1
            nodes = set(range(lo, hi))
            assert _articulation_points(nodes, state.reg_adj) == self._by_removal(
                state, nodes
            )

    def test_cycle_has_none_and_path_interior_all(self):
        ring = MulticutInstance(5, tuple((i, (i + 1) % 5, 1.0) for i in range(4))
                                + ((0, 4, 1.0),))
        state = _KLState(ring, Partition((0,) * 5))
        assert _articulation_points(set(range(5)), state.reg_adj) == set()
        path = MulticutInstance(5, tuple((i, i + 1, 1.0) for i in range(4)))
        state = _KLState(path, Partition((0,) * 5))
        assert _articulation_points(set(range(5)), state.reg_adj) == {1, 2, 3}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_lifted_cost_flip_preserves_feasibility():
    rng = np.random.default_rng(53)
    for _ in range(50):
        inst = random_instance(rng, max_nodes=7)
        flipped = MulticutInstance(
            inst.num_nodes,
            inst.edges,
            tuple((u, v, -c) for u, v, c in inst.lifted_edges),
        )
        for _ in range(10):
            lab = random_labeling(rng, inst)
            assert (
                is_feasible(inst, lab).feasible
                == is_feasible(flipped, lab).feasible
            )


# ---------------------------------------------------------------------------
# instance file format
# ---------------------------------------------------------------------------


class TestInstanceIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(59)
        inst = random_instance(rng, max_nodes=9)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        back = read_instance(path)
        assert back == inst

    def test_header_counts(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(TRIANGLE, path)
        first = path.read_text().splitlines()[0]
        assert first == "3 3 0"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 x 0\n")
        with pytest.raises(ValueError):
            read_instance(path)

    def test_rejects_wrong_edge_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 0\n0 1 1.0\n")
        with pytest.raises(ValueError):
            read_instance(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            read_instance(path)
