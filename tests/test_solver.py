"""Solver tests: feasibility, exact oracle, GAEC, KL local search, instance IO.

The local search is also run against `kl_reference`, a frozen per-node
Python version of it. The array sweep must reproduce its partitions and
move counts exactly and its traces within 1e-12 relative, because it sums
each delta in another order. Its result is also checked for local
optimality by re-scoring every neighbouring partition with `objective`.

The reference oracle here enumerates set partitions recursively in pure
Python and charges lifted edges through BFS connectivity, independently of
the vectorized implementation under test.
"""

import itertools
import re

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from helpers import (UnionFind, planted_instance, random_instance, random_labeling,
                     random_partition)
from gaec_reference import reference_solve_gaec
from kl_reference import reference_solve_kl
from labeling_reference import (
    reference_is_feasible,
    reference_labeling_to_partition,
    reference_partition_to_labeling,
    reference_solve_bruteforce,
    reference_write_instance,
)
from liftedtrack.graph import (
    BBox,
    Detection,
    EdgeLabeling,
    MulticutInstance,
    Partition,
    build_graph,
    labeling_to_partition,
)
from liftedtrack import solver
from liftedtrack.solver import (
    BRUTEFORCE_MAX_NODES,
    FeasibilityReport,
    Violation,
    _articulation_points,
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
# Labeling layer reference: the per-edge versions over dict labelings keyed
# by (u, v), as they were before labelings became arrays.
# ---------------------------------------------------------------------------


def _dict_join_forest(instance, labels):
    uf = UnionFind(instance.num_nodes)
    for u, v, _ in instance.edges.tolist():
        if labels[(u, v)] == 0:
            uf.union(u, v)
    return uf


def dict_objective(instance, labels):
    total = 0.0
    for u, v, c in instance.edges.tolist():
        total += c * labels[(u, v)]
    for u, v, c in instance.lifted_edges.tolist():
        total += c * labels[(u, v)]
    return total


def dict_is_feasible(instance, labels):
    uf = _dict_join_forest(instance, labels)
    violations = []
    for group, lifted in ((instance.edges, False), (instance.lifted_edges, True)):
        kind = "lifted " if lifted else ""
        for u, v, _ in group.tolist():
            label = labels[(u, v)]
            connected = uf.find(u) == uf.find(v)
            if label == 1 and connected:
                reason = "is cut although its endpoints stay connected through join edges"
            elif label == 0 and not connected:
                reason = "is joined although no join path connects its endpoints"
            else:
                continue
            violations.append(
                Violation((u, v), lifted, label, f"{kind}edge ({u}, {v}) {reason}"))
    return FeasibilityReport(not violations, tuple(violations))


def dict_partition_to_labeling(instance, partition):
    comp = partition.component_of
    labels = {}
    uf = UnionFind(instance.num_nodes)
    for u, v, _ in instance.edges.tolist():
        cut = 0 if comp[u] == comp[v] else 1
        labels[(u, v)] = cut
        if not cut:
            uf.union(u, v)
    for u, v, _ in instance.lifted_edges.tolist():
        labels[(u, v)] = 0 if uf.find(u) == uf.find(v) else 1
    return labels


def dict_labeling_to_partition(instance, labels):
    uf = _dict_join_forest(instance, labels)
    return Partition.from_labels([uf.find(i) for i in range(instance.num_nodes)])


def _as_dict(instance, labeling):
    pairs = [(u, v) for u, v, _ in instance.edges.tolist() + instance.lifted_edges.tolist()]
    return dict(zip(pairs, labeling.labels.tolist()))


class TestLabelingLayerMatchesDictReference:
    def test_random_instances_with_lifted_edges_and_disconnected_blocks(self):
        rng = np.random.default_rng(71)
        saw_disconnected_block = saw_violation = saw_feasible = False
        checked = 0
        while checked < 300:
            inst = random_instance(rng, max_nodes=12, edge_prob=0.4, lifted_frac=0.3)
            if not inst.num_lifted:
                continue
            checked += 1
            part = random_partition(rng, inst.num_nodes)
            want = dict_partition_to_labeling(inst, part)
            lab = partition_to_labeling(inst, part)
            assert _as_dict(inst, lab) == want
            joined = dict_labeling_to_partition(inst, want)
            saw_disconnected_block |= joined.num_components > part.num_components
            for labeling in (lab, random_labeling(rng, inst)):
                labels = _as_dict(inst, labeling)
                assert labeling_to_partition(inst, labeling) == \
                    dict_labeling_to_partition(inst, labels)
                report = is_feasible(inst, labeling)
                assert report == dict_is_feasible(inst, labels)
                saw_violation |= bool(report.violations)
                saw_feasible |= report.feasible
                got, ref = objective(inst, labeling), dict_objective(inst, labels)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        assert saw_disconnected_block and saw_violation and saw_feasible


@pytest.fixture(scope="module")
def reader_cases():
    """Random instances on 0-12 nodes, E and F each empty in some, pairs in
    shuffled order and some costs -0.0, each with a random labeling, the
    labeling of a random partition and that labeling with a few flips."""
    rng = np.random.default_rng(28)
    cases = []
    for _ in range(300):
        n = int(rng.integers(0, 13))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.1, 0.6)]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        costs = np.where(rng.random(len(pairs)) < 0.1, -0.0, rng.normal(size=len(pairs)))
        lifted = rng.random(len(pairs)) < rng.choice([0.0, 0.3, 1.0])
        rows = [(u, v, c) for (u, v), c in zip(pairs, costs.tolist())]
        inst = MulticutInstance(n, [r for r, f in zip(rows, lifted) if not f],
                                [r for r, f in zip(rows, lifted) if f])
        part = random_partition(rng, n) if n else Partition(())
        induced = partition_to_labeling(inst, part)
        flipped = induced.labels ^ (rng.random(len(induced.labels)) < 0.1)
        cases.append((inst, part,
                      (random_labeling(rng, inst), induced, EdgeLabeling(flipped))))
    return cases


class TestReadersMatchTwoGroupReference:
    """The readers of the E-then-F `columns` give what the frozen two-group
    versions in `labeling_reference` give, on every case of `reader_cases`."""

    def test_feasibility_labelings_and_partitions(self, reader_cases):
        saw = dict.fromkeys(("no nodes", "12 nodes", "no E", "no F", "block split in G",
                             "E violation", "F violation", "E and F violations"), False)
        for inst, part, labelings in reader_cases:
            induced = partition_to_labeling(inst, part)
            assert induced == reference_partition_to_labeling(inst, part)
            for labeling in labelings:
                report = is_feasible(inst, labeling)
                assert report == reference_is_feasible(inst, labeling)
                assert labeling_to_partition(inst, labeling) == \
                    reference_labeling_to_partition(inst, labeling)
                lifted = {violation.lifted for violation in report.violations}
                saw["E violation"] |= False in lifted
                saw["F violation"] |= True in lifted
                saw["E and F violations"] |= len(lifted) == 2
            saw["no nodes"] |= inst.num_nodes == 0
            saw["12 nodes"] |= inst.num_nodes == 12
            saw["no E"] |= inst.num_edges == 0 < inst.num_lifted
            saw["no F"] |= inst.num_lifted == 0 < inst.num_edges
            saw["block split in G"] |= (
                labeling_to_partition(inst, induced).num_components > part.num_components)
        assert all(saw.values()), saw

    def test_bruteforce(self, reader_cases):
        solved = 0
        for inst, _, _ in reader_cases:
            # Bell(9) = 21147 partitions; larger ones cost too much time here
            if inst.num_nodes > 8:
                continue
            part, value = solve_bruteforce(inst)
            want, want_value = reference_solve_bruteforce(inst)
            assert part == want
            assert value.hex() == want_value.hex()
            solved += 1
        assert solved > 100

    def test_write_instance(self, tmp_path, reader_cases):
        for inst, _, _ in reader_cases:
            write_instance(inst, tmp_path / "ours.txt")
            reference_write_instance(inst, tmp_path / "reference.txt")
            assert (tmp_path / "ours.txt").read_bytes() == \
                (tmp_path / "reference.txt").read_bytes()


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


class TestObjective:
    def test_all_join_is_zero(self):
        lab = EdgeLabeling([0, 0, 0])
        assert objective(TRIANGLE, lab) == 0.0

    def test_single_cut_edge(self):
        inst = MulticutInstance(2, ((0, 1, -1.0),))
        assert objective(inst, EdgeLabeling([1])) == -1.0

    def test_triangle_optimal_labeling(self):
        lab = EdgeLabeling([1, 1, 0])
        assert objective(TRIANGLE, lab) == -2.0

    def test_rejects_incomplete_labeling(self):
        with pytest.raises(ValueError):
            objective(TRIANGLE, EdgeLabeling([1]))


# ---------------------------------------------------------------------------
# is_feasible
# ---------------------------------------------------------------------------


class TestIsFeasible:
    def test_one_cut_edge_in_triangle_infeasible(self):
        lab = EdgeLabeling([1, 0, 0])
        report = is_feasible(TRIANGLE, lab)
        assert not report.feasible
        assert [v.edge for v in report.violations] == [(0, 1)]

    def test_lifted_cut_with_join_path_infeasible(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)), ((0, 2, 1.0),))
        lab = EdgeLabeling([0, 0, 1])
        report = is_feasible(inst, lab)
        assert not report.feasible
        assert report.violations[0].edge == (0, 2)
        assert report.violations[0].lifted

    def test_lifted_join_without_path_infeasible(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)), ((0, 2, 1.0),))
        lab = EdgeLabeling([1, 0, 0])
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
                    for (u, v, c), label in zip(inst.edges, lab.labels)
                    if label == 0
                ],
            )
            expected = all(
                (label == 1) == (comp[u] != comp[v])
                for (u, v, _), label in zip(
                    list(inst.edges) + list(inst.lifted_edges), lab.labels)
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
        assert lab.labels.tolist() == [1, 1, 1]

    def test_block_not_connected_in_g_cuts_its_lifted_pair(self):
        # One block {0, 1, 2}, but no regular edge reaches node 2: the lifted
        # pair (0, 2) is cut although the block test would join it.
        inst = MulticutInstance(3, ((0, 1, 1.0),), ((0, 2, 5.0),))
        lab = partition_to_labeling(inst, Partition((0, 0, 0)))
        assert lab.labels.tolist() == [0, 1]
        assert objective(inst, lab) == 5.0

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
            assert lab1 == lab0
            assert labeling_to_partition(inst, lab1) == part1

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            partition_to_labeling(TRIANGLE, Partition((0, 1)))


class TestReturnedObjectives:
    """Both solvers return `objective` of `partition_to_labeling` of their
    partition bit for bit, although they compute it from their own labels."""

    @staticmethod
    def _bits(value):
        return np.float64(value).view(np.int64)

    def test_bit_equal_to_the_labeling_objective(self):
        rng = np.random.default_rng(84)
        inside = between = 0
        for case in range(120):
            # normal costs over hundreds of pairs, so sums round differently
            # when they are added in another order
            inst = planted_instance(rng, max_nodes=60,
                                    edge_prob=float(rng.uniform(0.1, 0.5)),
                                    lifted_frac=0.4, mu=float(rng.uniform(0.0, 2.0)))
            gaec, gaec_value = solve_gaec(inst)
            start = gaec if case % 2 else random_partition(rng, inst.num_nodes)
            kl, kl_value = solve_kl(inst, start)
            for part, value in ((gaec, gaec_value), (kl, kl_value)):
                want = objective(inst, partition_to_labeling(inst, part))
                assert self._bits(value) == self._bits(want), case
                block = part.component_of
                same = block[inst.lifted_edges["u"]] == block[inst.lifted_edges["v"]]
                inside += int(same.sum())
                between += int((~same).sum())
        assert inside > 1000 and between > 1000


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
        assert part.component_of.tolist() == [0, 1, 0]

    def test_lifted_attraction_forces_bridge(self):
        # Without the connectivity charge, splitting {0,2} from {1} would
        # look like -2; the only way to join the lifted pair is via node 1.
        inst = MulticutInstance(3, ((0, 1, -1.0), (1, 2, -1.0)), ((0, 2, 5.0),))
        part, value = solve_bruteforce(inst)
        assert value == 0.0
        assert part.component_of.tolist() == [0, 0, 0]

    def test_lifted_repulsion_tie_break(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)), ((0, 2, -10.0),))
        part, value = solve_bruteforce(inst)
        assert value == -9.0
        assert part.component_of.tolist() == [0, 0, 1]

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            inst = random_instance(rng, max_nodes=6)
            got_part, got_value = solve_bruteforce(inst)
            ref_assign, ref_value = reference_optimum(inst)
            assert got_value == ref_value
            assert tuple(got_part.component_of.tolist()) == ref_assign

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
        assert part == Partition((0, 0, 1, 1))
        assert value == -5.0

    def test_aggregate_costs_stop_contraction(self):
        # After contracting (0,1), cluster pair {0,1},{2} totals -3+2 = -1.
        inst = MulticutInstance(3, ((0, 1, 2.0), (0, 2, -3.0), (1, 2, 2.0)))
        part, value = solve_gaec(inst)
        assert part == Partition((0, 0, 1))
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


def _integer_instance(rng, max_nodes=14):
    """Random instance with small integer costs, so totals tie exactly."""
    n = int(rng.integers(2, max_nodes + 1))
    edge_prob = float(rng.uniform(0.2, 0.8))
    edges, lifted = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                cost = float(rng.integers(-3, 4))
                (lifted if rng.random() < 0.4 else edges).append((u, v, cost))
    return MulticutInstance(n, tuple(edges), tuple(lifted))


def _hub_instance(rng):
    """Node n-1 joined to every other node by the largest costs.

    The other pairs lie in a band (|u - v| <= 2) with smaller costs, so
    every other node has at most 5 neighbours and the hub, with n - 1 >= 6,
    has more. The first contraction is therefore a hub pair that keeps the
    hub and absorbs a node smaller than the hub, lowering its min node.
    """
    n = int(rng.integers(7, 21))
    hub = n - 1
    edges = [(u, hub, float(rng.integers(3, 7))) for u in range(hub)]
    lifted = []
    for u in range(hub):
        for v in range(u + 1, min(u + 3, hub)):
            if rng.random() < 0.8:
                cost = float(rng.integers(-3, 3))
                (lifted if rng.random() < 0.5 else edges).append((u, v, cost))
    return MulticutInstance(n, tuple(edges), tuple(lifted))


def _scene_instance(rng, planted):
    """`build_graph` over 30 frames of 8-16 detections each, costed at random.

    Regular edges span frame gaps 0-2 and lifted edges gaps 4 and 7, so
    there are 300-480 nodes of mean regular degree above 40. Costs are
    small integers, so totals tie, and each zero gets a random sign. With
    `planted`, each frame's detection k belongs to identity k, and a pair
    of one identity gets 3 added to its cost.
    """
    counts = rng.integers(8, 17, size=30)
    frames = np.repeat(np.arange(1, 31), counts)
    identity = np.concatenate([np.arange(c) for c in counts])
    graph = build_graph([Detection(int(f), BBox(0, 0, 1, 1)) for f in frames],
                        max_frame_gap=2, lifted_gaps=(4, 7))
    costed = []
    for edges in (graph.edges, graph.lifted_edges):
        costs = rng.integers(-4, 3, size=len(edges)).astype(float)
        if planted:
            costs += 3.0 * (identity[edges["u"]] == identity[edges["v"]])
        zero = costs == 0.0
        costs[zero] *= rng.choice([1.0, -1.0], size=int(zero.sum()))
        costed.append(edges.copy())
        costed[-1]["c"] = costs
    return MulticutInstance(graph.num_nodes, *costed)


def _planted_track_instance(rng):
    """k chains of one detection per frame, over frame gaps 1..g.

    A pair of one chain has a strong cost (4 to 9), a pair of two chains
    a weak or negative one (-4 to 1), and same-frame pairs are repelled
    (-5). Pairs up to three frames beyond g are lifted with probability
    one half, at costs of the same two kinds. Costs are small integers, so
    totals tie, and each zero gets a random sign. Node ids are shuffled,
    so a chain's ids are not in frame order.
    """
    k, frames, g = (int(x) for x in rng.integers((1, 3, 1), (6, 16, 4)))
    node = rng.permutation(k * frames).reshape(frames, k)
    edges, lifted = [], []
    for f1, f2 in itertools.combinations(range(frames), 2):
        gap = f2 - f1
        if gap > g + 3:
            continue
        for t1, t2 in itertools.product(range(k), repeat=2):
            same = t1 == t2
            cost = float(rng.integers(4, 10) if same else rng.integers(-4, 2))
            if cost == 0.0 and rng.random() < 0.5:
                cost = -0.0
            pair = (*sorted((int(node[f1, t1]), int(node[f2, t2]))), cost)
            if gap <= g:
                edges.append(pair)
            elif rng.random() < 0.5:
                lifted.append(pair)
    for f in range(frames):
        for t1, t2 in itertools.combinations(range(k), 2):
            edges.append((*sorted((int(node[f, t1]), int(node[f, t2]))), -5.0))
    return MulticutInstance(k * frames, tuple(edges), tuple(lifted))


def _chain(first, nodes, costs):
    """Regular edges joining consecutive `nodes` at `costs`, in one list with
    the node ids offset by `first`."""
    return [(first + a, first + b, float(c)) for a, b, c in zip(nodes, nodes[1:], costs)]


def _gaec_cases():
    """Normal, integer-cost and hub instances with lifted edges, a few large."""
    rng = np.random.default_rng(71)
    for _ in range(150):
        yield random_instance(rng, max_nodes=16, edge_prob=float(rng.uniform(0.15, 0.8)),
                              lifted_frac=0.4)
    for _ in range(150):
        yield _integer_instance(rng)
    for _ in range(60):
        yield _hub_instance(rng)
    for _ in range(4):
        yield random_instance(rng, max_nodes=80, edge_prob=0.1, lifted_frac=0.3)


class TestGaecMatchesReference:
    """Indexed-cluster GAEC against the frozen union-find contraction."""

    def test_partitions_traces_and_objectives_equal(self):
        contractions = 0
        for inst in _gaec_cases():
            ref_trace, got_trace = [], []
            ref_part, ref_value = reference_solve_gaec(inst, trace=ref_trace)
            got_part, got_value = solve_gaec(inst, trace=got_trace)
            assert got_part == ref_part
            assert got_trace == ref_trace
            assert got_value == ref_value
            contractions += len(got_trace) - 1
        assert contractions > 1500

    @pytest.mark.parametrize("seed, planted", [(73, False), (74, True), (75, True)])
    def test_dense_scenes(self, seed, planted):
        # High degree: a contraction merges rows of tens of shared neighbours.
        # Each instance also contracts at tied totals, merges signed zeros,
        # makes lifted-only pairs regular, and lowers survivors' min nodes.
        inst = _scene_instance(np.random.default_rng(seed), planted)
        assert inst.num_nodes >= 300 and 2 * inst.num_edges >= 40 * inst.num_nodes
        costs = np.concatenate([inst.edges["c"], inst.lifted_edges["c"]])
        assert set(np.signbit(costs[costs == 0.0]).tolist()) == {False, True}
        ref_trace, got_trace = [], []
        ref_part, ref_value = reference_solve_gaec(inst, trace=ref_trace)
        got_part, got_value = solve_gaec(inst, trace=got_trace)
        assert got_part == ref_part
        assert got_trace == ref_trace
        assert got_value == ref_value
        assert len(got_trace) > 300
        # a lifted pair lies inside a cluster only if a merge made it regular
        block = got_part.component_of
        assert (block[inst.lifted_edges["u"]] == block[inst.lifted_edges["v"]]).any()


    # Two rows tie at total 2 behind a contraction of total 10 that lowers
    # one tied row's cluster min node from 5 to 0. At push time the other
    # row's pair of min nodes is smaller; when the tie is popped it is not.
    # Which row goes first decides the partition: the second one then
    # totals 2 - 10 < 0.
    @pytest.mark.parametrize("edges, survivor, expected", [
        # 5 has more neighbours, so it survives and its min node drops
        (((0, 5, 10.0), (1, 3, 2.0), (3, 5, 2.0), (1, 5, -10.0), (2, 5, -1.0)),
         5, (0, 1, 2, 0, 3, 0, 4)),
        # 0 has more neighbours, so 5's rows are relabelled to 0; the tied
        # row (5, 7) is then read from the cluster its u went into
        (((0, 5, 10.0), (1, 7, 2.0), (5, 7, 2.0), (1, 5, -10.0), (0, 2, -1.0),
          (0, 3, -1.0), (0, 4, -1.0)), 0, (0, 1, 2, 3, 4, 0, 5, 0)),
    ])
    def test_tie_after_a_min_node_drops(self, edges, survivor, expected):
        inst = MulticutInstance(len(expected), edges)
        slots = np.bincount(np.concatenate([inst.edges["u"], inst.edges["v"]]))
        assert slots[survivor] > slots[5 - survivor]
        ref_trace, got_trace = [], []
        ref_part, ref_value = reference_solve_gaec(inst, trace=ref_trace)
        got_part, got_value = solve_gaec(inst, trace=got_trace)
        assert got_part == ref_part == Partition(expected)
        assert got_trace == ref_trace
        assert np.diff(got_trace).tolist() == [-10.0, -2.0]
        assert got_value == ref_value


    @staticmethod
    def _assert_matches_reference(inst):
        ref_trace, got_trace = [], []
        ref_part, ref_value = reference_solve_gaec(inst, trace=ref_trace)
        got_part, got_value = solve_gaec(inst, trace=got_trace)
        assert got_part == ref_part
        assert got_trace == ref_trace
        assert got_value == ref_value
        return got_part, got_trace

    def test_planted_tracks(self):
        # GAEC grows one chain at a time, so the cluster it indexes is a
        # side of most contractions, and it indexes another one when a
        # chain is complete or two chains are joined
        rng = np.random.default_rng(76)
        contractions = 0
        for _ in range(150):
            _, trace = self._assert_matches_reference(_planted_track_instance(rng))
            contractions += len(trace) - 1
        assert contractions > 2000

    @pytest.mark.parametrize("length", [3, 4, 9])
    def test_two_tracks_grown_in_turn(self, length):
        # Chains A (nodes 0..length-1) and B (the next length nodes) take
        # contractions in turn, at totals 100, 99, 98, ...: the indexed
        # cluster switches at every contraction. A and B are repelled
        # frame by frame (-3), so their rows merge as both grow, and an
        # attracting lifted pair joins A's head with B's tail.
        steps = np.arange(100, 100 - 2 * (length - 1), -1)
        nodes = list(range(length))
        edges = (_chain(0, nodes, steps[0::2]) + _chain(length, nodes, steps[1::2])
                 + [(i, length + i, -3.0) for i in range(length)])
        lifted = [(0, 2 * length - 1, 1.0)]
        _, trace = self._assert_matches_reference(
            MulticutInstance(2 * length, tuple(edges), tuple(lifted)))
        assert np.diff(trace).tolist() == [-float(t) for t in steps]

    @pytest.mark.parametrize("long_first", [True, False])
    def test_indexed_side_absorbs_a_longer_one(self, long_first):
        # Chain A of 8 nodes grows first (totals 50-44), then chain B of
        # 2 nodes (40), which is indexed from then on. The bridge (30)
        # joins B with A: B, the indexed and smaller side, survives and
        # takes A's rows, among them its row to node x, which every node
        # of A repels (-1 each). Node y then joins through B (20) and
        # brings its row to x (10): it must merge with the moved row, so
        # x is taken in at 10 - 8 = 2.
        a, b = (list(range(8)), [8, 9]) if long_first else (list(range(2, 10)), [0, 1])
        x, y = 10, 11
        edges = (_chain(0, a, range(50, 43, -1)) + _chain(0, b, [40])
                 + [(a[-1], b[0], 30.0), (b[1], y, 20.0), (x, y, 10.0)]
                 + [(i, x, -1.0) for i in a])
        edges = [(min(p, q), max(p, q), c) for p, q, c in edges]
        part, trace = self._assert_matches_reference(MulticutInstance(12, tuple(edges)))
        assert np.diff(trace).tolist() == [-50.0, -49.0, -48.0, -47.0, -46.0, -45.0,
                                           -44.0, -40.0, -30.0, -20.0, -2.0]
        assert part.num_components == 1


# ---------------------------------------------------------------------------
# KL local search
# ---------------------------------------------------------------------------


class TestKl:
    def test_optimum_is_fixed_point(self):
        part0, best = solve_bruteforce(TRIANGLE)
        part, value = solve_kl(TRIANGLE, part0)
        assert value == best
        assert part == part0

    def test_singletons_reach_planted_partition(self):
        inst = MulticutInstance(4, ((0, 1, 3.0), (2, 3, 4.0), (1, 2, -5.0)))
        singletons = Partition((0, 1, 2, 3))
        part, value = solve_kl(inst, singletons)
        assert part == Partition((0, 0, 1, 1))
        assert value == -5.0

    def test_split_move_extracts_repelled_node(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, -4.0)))
        part, value = solve_kl(inst, Partition((0, 0, 0)))
        assert part == Partition((0, 0, 1))
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


def _random_cases():
    """Seeded random instances, each with a random initial partition."""
    rng = np.random.default_rng(61)
    for _ in range(300):
        inst = random_instance(
            rng,
            max_nodes=14,
            edge_prob=float(rng.uniform(0.15, 0.7)),
            lifted_frac=0.4,
        )
        yield inst, random_partition(rng, inst.num_nodes)


def _chain_and_bridge_cases():
    """Chain and bridge instances, each from one block and from GAEC."""
    rng = np.random.default_rng(67)
    for k in range(80):
        make = _chain_instance if k % 2 == 0 else _bridge_instance
        inst = make(rng, int(rng.integers(6, 25)))
        yield inst, Partition((0,) * inst.num_nodes)
        yield inst, solve_gaec(inst)[0]


# Deltas are summed in another order than in the reference, so trace
# entries may differ in the last bits of a float64.
TRACE_RTOL = 1e-12


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
        want = self.expected[step]
        assert abs(value - want) <= TRACE_RTOL * abs(want), (
            f"step {step}: {value!r} != {want!r}"
        )
        super().append(value)


class TestKlMatchesReference:
    """The array sweep against a frozen per-node Python local search."""

    @staticmethod
    def _assert_same(inst, init):
        ref_trace = []
        ref_part, ref_value = reference_solve_kl(inst, init, trace=ref_trace)
        got_trace = _ExpectedTrace(ref_trace)
        got_part, got_value = solve_kl(inst, init, trace=got_trace)
        assert len(got_trace) == len(ref_trace)
        assert got_part == ref_part
        assert got_value == ref_value
        return len(got_trace) - 1

    def test_random_instances(self):
        moves = sum(self._assert_same(*case) for case in _random_cases())
        assert moves > 300

    def test_chain_and_bridge_clusters(self):
        moves = 0
        charged = 0
        for inst, init in _chain_and_bridge_cases():
            blocks = labeling_to_partition(inst, partition_to_labeling(inst, init))
            charged += sum(_disconnects_lifted_pair(inst, set(block), x)
                           for block in blocks.blocks() for x in block)
            moves += self._assert_same(inst, init)
        # Articulation nodes did carry lifted pairs, and the searches moved.
        assert charged > 100
        assert moves > 80


class TestKlPairSums:
    """Both groupings of the sweep sums: bins, and the `np.unique` sort."""

    @pytest.mark.parametrize("seed", range(5))
    def test_each_grouping_adds_in_input_order(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        size = int(rng.integers(0, 400))
        first, second = rng.integers(0, rows, size), rng.integers(0, cols, size)
        costs = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size)
        regular = rng.random(size) < 0.3
        expected = {}
        for key in zip(first.tolist(), second.tolist(), costs.tolist(), regular.tolist()):
            total, linked = expected.get(key[:2], (0.0, False))
            expected[key[:2]] = (total + key[2], linked or key[3])
        pairs = sorted(expected)
        for limit in (rows * cols, rows * cols - 1):
            got_first, got_second, sums, linked = solver._pair_sums(
                first, second, (rows, cols), costs, regular, limit)
            assert list(zip(got_first.tolist(), got_second.tolist())) == pairs
            want = np.array([expected[pair][0] for pair in pairs])
            assert np.array_equal(sums.view(np.int64), want.view(np.int64))
            assert linked.tolist() == [expected[pair][1] for pair in pairs]

    def test_both_groupings_match_the_reference(self, monkeypatch):
        # the cases of TestKlMatchesReference.test_random_instances
        binned = []
        pair_sums = solver._pair_sums

        def spy(first, second, shape, costs, regular, limit):
            binned.append(shape[0] * shape[1] <= limit)
            return pair_sums(first, second, shape, costs, regular, limit)

        monkeypatch.setattr(solver, "_pair_sums", spy)
        # A sparse instance with many clusters needs more than 4 bins per
        # directed edge; merges then bring k down, and bins take over.
        moves, mixed = {True: 0, False: 0}, 0
        for inst, init in _random_cases():
            del binned[:]
            applied = TestKlMatchesReference._assert_same(inst, init)
            moves[binned[0]] += applied
            mixed += len(set(binned)) == 2
        assert moves[True] > 300 and moves[False] > 50
        assert mixed > 10


def _neighbour_assignments(partition, inst):
    """Every single-node move to a regular-adjacent cluster, split and merge."""
    labels = np.array(partition.component_of)
    u, v = inst.edges["u"], inst.edges["v"]
    across = labels[u] != labels[v]
    ends = np.concatenate([u[across], v[across]])
    others = np.concatenate([v[across], u[across]])
    sizes = np.bincount(labels)
    for node, target in sorted(set(zip(ends.tolist(), labels[others].tolist()))):
        moved = labels.copy()
        moved[node] = target
        yield moved
    for node in np.flatnonzero(sizes[labels] > 1).tolist():
        split = labels.copy()
        split[node] = len(sizes)
        yield split
    for a, b in sorted(set(zip(np.minimum(labels[u], labels[v])[across].tolist(),
                               np.maximum(labels[u], labels[v])[across].tolist()))):
        yield np.where(labels == b, a, labels)


class TestKlLocalOptimum:
    """No move, split or merge re-scored by `objective` beats the result."""

    @staticmethod
    def _assert_local_optimum(inst, init):
        trace = []
        part, value = solve_kl(inst, init, trace=trace)
        obj = objective(inst, partition_to_labeling(inst, part))
        tol = 1e-9 * max(1.0, abs(obj))
        assert abs(value - obj) <= tol
        assert abs(trace[-1] - obj) <= tol
        count = 0
        for labels in _neighbour_assignments(part, inst):
            other = Partition.from_labels(labels.tolist())
            assert objective(inst, partition_to_labeling(inst, other)) >= obj - tol
            count += 1
        return count

    def test_random_instances(self):
        assert sum(self._assert_local_optimum(*case) for case in _random_cases()) > 1000

    def test_chain_and_bridge_clusters(self):
        assert sum(self._assert_local_optimum(*case)
                   for case in _chain_and_bridge_cases()) > 1000


class TestKlEdgeCases:
    @staticmethod
    def _solve(inst, init):
        trace = []
        part, value = solve_kl(inst, init, trace=trace)
        assert value == pytest.approx(trace[-1], rel=1e-12, abs=1e-12)
        assert value == objective(inst, partition_to_labeling(inst, part))
        if inst.num_nodes <= BRUTEFORCE_MAX_NODES:
            assert value >= solve_bruteforce(inst)[1] - 1e-9
        return part, value, trace

    def test_no_nodes(self):
        part, value, trace = self._solve(MulticutInstance(0, ()), Partition(()))
        assert part.num_nodes == 0
        assert value == 0.0
        assert trace == [0.0]

    def test_one_node(self):
        part, value, trace = self._solve(MulticutInstance(1, ()), Partition((0,)))
        assert part.component_of.tolist() == [0]
        assert (value, trace) == (0.0, [0.0])

    def test_lifted_edges_without_regular_edges(self):
        # No regular edge links anything: every node is its own cluster,
        # every lifted pair stays cut, and no move is possible.
        inst = MulticutInstance(3, (), ((0, 1, 5.0), (1, 2, -1.0), (0, 2, 2.0)))
        part, value, trace = self._solve(inst, Partition((0, 0, 0)))
        assert part.component_of.tolist() == [0, 1, 2]
        assert value == solve_bruteforce(inst)[1] == 6.0
        assert trace == [6.0]

    def test_regular_edges_without_lifted_edges(self):
        rng = np.random.default_rng(79)
        for _ in range(40):
            inst = random_instance(rng, max_nodes=9, lifted_frac=0.0)
            self._solve(inst, random_partition(rng, inst.num_nodes))
        inst = MulticutInstance(4, ((0, 1, 3.0), (2, 3, 4.0), (1, 2, -5.0)))
        part, value, _ = self._solve(inst, Partition((0, 0, 0, 0)))
        assert part.component_of.tolist() == [0, 0, 1, 1]
        assert value == -5.0

    def test_initial_block_not_connected_in_g(self):
        # Block {0, 3} has no regular path, so the search starts from
        # {0}, {1, 2}, {3} and charges the lifted pair (0, 3) as cut.
        inst = MulticutInstance(4, ((0, 1, 2.0), (1, 2, -1.0), (2, 3, 2.0)),
                                ((0, 3, 3.0),))
        part, value, trace = self._solve(inst, Partition((0, 1, 1, 0)))
        assert trace[0] == 7.0
        assert part.component_of.tolist() == [0, 0, 0, 0]
        assert value == solve_bruteforce(inst)[1] == 0.0

    def test_rounding_noise_is_no_improvement(self):
        # Moving node 0 to {2, 3}, or merging the two clusters, changes the
        # objective by 0.3 - (0.1 + 0.2) = -5.6e-17 in floats, 0 exactly.
        inst = MulticutInstance(4, ((0, 1, 0.3), (0, 2, 0.1), (0, 3, 0.2),
                                    (1, 2, -0.3), (2, 3, 1.0)))
        part, _, trace = self._solve(inst, Partition((0, 0, 1, 1)))
        assert part.component_of.tolist() == [0, 0, 1, 1]
        assert len(trace) == 1


# ---------------------------------------------------------------------------
# articulation points
# ---------------------------------------------------------------------------


def _induced_components(inst, nodes):
    """Component label per node of the regular subgraph induced by `nodes`.

    Nodes outside `nodes` come out as singletons.
    """
    n = inst.num_nodes
    inside = np.zeros(n, dtype=bool)
    inside[sorted(nodes)] = True
    u, v = inst.edges["u"], inst.edges["v"]
    keep = inside[u] & inside[v]
    graph = coo_matrix((np.ones(keep.sum()), (u[keep], v[keep])), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _splits_when_removed(inst, nodes, x):
    labels = _induced_components(inst, nodes - {x})
    return len(set(labels[sorted(nodes - {x})].tolist())) > 1


def _disconnects_lifted_pair(inst, block, x):
    """Removing x from the block separates the endpoints of a lifted pair in it."""
    rest = block - {x}
    labels = _induced_components(inst, rest)
    return any(a in rest and b in rest and labels[a] != labels[b]
               for a, b in zip(inst.lifted_edges["u"].tolist(),
                               inst.lifted_edges["v"].tolist()))


def _connected_subset(rng, inst, size):
    """Grow a node set from a random start along regular edges."""
    adj = [[] for _ in range(inst.num_nodes)]
    for u, v in zip(inst.edges["u"].tolist(), inst.edges["v"].tolist()):
        adj[u].append(v)
        adj[v].append(u)
    start = int(rng.integers(0, len(adj)))
    nodes = {start}
    frontier = list(adj[start])
    while frontier and len(nodes) < size:
        y = frontier.pop(int(rng.integers(0, len(frontier))))
        if y not in nodes:
            nodes.add(y)
            frontier.extend(z for z in adj[y] if z not in nodes)
    return nodes


def _induced_articulation_points(inst, nodes):
    """`_articulation_points` of the regular subgraph induced by `nodes`,
    numbered locally in ascending order and mapped back to node ids."""
    members = np.array(sorted(nodes))
    local = np.full(inst.num_nodes, -1)
    local[members] = np.arange(len(members))
    u, v = local[inst.edges["u"]], local[inst.edges["v"]]
    keep = (u >= 0) & (v >= 0)
    return set(members[_articulation_points(len(members), u[keep], v[keep])].tolist())


class TestArticulationPoints:
    @staticmethod
    def _by_removal(inst, nodes):
        return {x for x in nodes if _splits_when_removed(inst, nodes, x)}

    @staticmethod
    def _points(size, pairs):
        u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        points = _articulation_points(size, u, v)
        assert np.all(np.diff(points) > 0)
        return points.tolist()

    def test_random_connected_sets(self):
        rng = np.random.default_rng(71)
        cut_vertices = 0
        for _ in range(200):
            inst = random_instance(
                rng, max_nodes=16, edge_prob=float(rng.uniform(0.1, 0.5))
            )
            nodes = _connected_subset(rng, inst, int(rng.integers(1, 17)))
            expected = self._by_removal(inst, nodes)
            assert _induced_articulation_points(inst, nodes) == expected
            cut_vertices += len(expected)
        assert cut_vertices > 50

    def test_path_like_sets(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            inst = _chain_instance(rng, int(rng.integers(2, 30)))
            lo = int(rng.integers(0, inst.num_nodes))
            hi = int(rng.integers(lo, inst.num_nodes)) + 1
            nodes = set(range(lo, hi))
            assert _induced_articulation_points(inst, nodes) == self._by_removal(inst, nodes)

    def test_cycle_has_none_and_path_interior_all(self):
        assert self._points(5, [(i, (i + 1) % 5) for i in range(5)]) == []
        assert self._points(5, [(i, i + 1) for i in range(4)]) == [1, 2, 3]

    @pytest.mark.parametrize("size, pairs, expected", [
        (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)], [0]),
        (4, [(0, 1), (0, 2), (0, 3)], [0]),
        (5, [(0, 2), (1, 2), (2, 3), (2, 4)], [2]),
        (2, [(0, 1)], []),
    ], ids=["triangles-sharing-root", "star-at-root", "star-off-root", "single-edge"])
    def test_root_rule(self, size, pairs, expected):
        # the depth-first root is node 0: a cut node only with two children
        assert self._points(size, pairs) == expected


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

    @pytest.mark.parametrize("text, lineno, message", [
        ("3 1 1\n0 1 1.0\n2 2 1.0\n", 3, r"self-loop \(2, 2\)"),
        ("3 2 1\n0 1 1.0\n1 1 1.0\n0 2 1.0\n", 3, r"self-loop \(1, 1\)"),
        ("3 2 0\n\n0 1 1.0\n\n1 x 2.0\n", 5, r"invalid literal for int\(\) .*'x'"),
        ("3 1 0\n0 1 1.0 extra\n", 2, "expected 3 fields, got 4"),
        ("2 -1 1\n", 1, "negative count in header 2 -1 1"),
        ("3 x 0\n0 1 1.0\n", 1, r"invalid literal for int\(\) .*'x'"),
        ("3 1 1\n\n0 1 1.0\n1 7 1.0\n", 4, r"lifted edge \(1, 7\) outside node range"),
        ("3 2 0\n0 1 1.0\n0 2 inf\n", 3, r"edge \(0, 2\) has non-finite cost inf"),
        ("3 2 1\n0 1 1.0\n1 2 1.0\n\n1 0 2.0\n", 5,
         r"duplicate pair \(0, 1\) across E and F"),
    ], ids=["self-loop-in-e", "self-loop-in-f", "blank-lines-counted", "extra-field",
            "negative-header-count", "bad-header", "bad-node", "non-finite-cost",
            "duplicate-pair-names-later-line"])
    def test_bad_line_names_its_line(self, tmp_path, text, lineno, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        where = f"^{re.escape(str(path))}:{lineno}: "
        with pytest.raises(ValueError, match=f"{where}{message}$"):
            read_instance(path)

    @pytest.mark.parametrize("lines, message", [
        (["0 1 inf", "0 2 1.0"], r"edge \(0, 1\) has non-finite cost inf"),
        (["0 1 1.0", "0 2 nan"], r"lifted edge \(0, 2\) has non-finite cost nan"),
        (["0 1 1.0", "0 3 1.0"], r"edge \(0, 3\) outside node range"),
        (["0 1 1.0", "1 0 2.0"], r"duplicate pair \(0, 1\)"),
        (["2 0 1.0", "0 2 2.0"], r"duplicate pair \(0, 2\)"),
    ])
    def test_bad_edges_name_the_file(self, tmp_path, lines, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"3 {len(lines) - 1} 1\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:\\d: .*{message}"):
            read_instance(path)

    def test_accepts_either_endpoint_order(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("3 2 1\n1 0 1.5\n2 1 -0.5\n2 0 0.25\n")
        assert read_instance(path) == MulticutInstance(
            3, ((0, 1, 1.5), (1, 2, -0.5)), ((0, 2, 0.25),))
