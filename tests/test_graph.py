"""Domain type and graph construction tests."""

import dataclasses

import numpy as np
import pytest

from helpers import (UnionFind, canonical_edge, pair_rows_outcome, random_instance,
                     shaped_rows)
from pair_rows_reference import reference_instance_rows
from partition_reference import reference_blocks, reference_from_labels
from liftedtrack.graph import (
    EDGE_DTYPE,
    BBox,
    Detection,
    EdgeLabeling,
    MulticutInstance,
    Partition,
    box_iou,
    build_graph,
    frame_pairs,
    iou,
    labeling_to_partition,
    pair_components,
    repeated_pairs,
)


def test_canonical_edge_orders_pair():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)


def test_canonical_edge_rejects_self_loop():
    with pytest.raises(ValueError):
        canonical_edge(2, 2)


def test_union_find_basics():
    uf = UnionFind(5)
    assert uf.find(0) != uf.find(1)
    assert uf.union(0, 1)
    assert not uf.union(0, 1)
    uf.union(1, 2)
    assert uf.find(0) == uf.find(2)
    assert uf.find(0) != uf.find(3)
    assert uf.find(4) == 4


class TestBBox:
    def test_derived_properties(self):
        b = BBox(2.0, 3.0, 4.0, 5.0)
        assert b.right == 6.0
        assert b.bottom == 8.0
        assert b.area == 20.0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            BBox(0, 0, 1.0, -2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BBox(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            BBox(0, float("inf"), 1, 1)


class TestIoU:
    def test_identical_boxes(self):
        b = BBox(1, 1, 3, 2)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0

    def test_known_overlap(self):
        # intersection 1x2 = 2, union 4 + 4 - 2 = 6
        assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)) == pytest.approx(1 / 3)

    def test_symmetric_and_bounded_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            vals = rng.uniform(-10, 10, size=4)
            sizes = rng.uniform(0.1, 10, size=4)
            a = BBox(vals[0], vals[1], sizes[0], sizes[1])
            b = BBox(vals[2], vals[3], sizes[2], sizes[3])
            ab = iou(a, b)
            assert ab == iou(b, a)
            assert 0.0 <= ab <= 1.0


def grid_boxes(rng, count):
    """(count, 4) left, top, width, height boxes on a coarse grid, so pairs
    touch, nest and miss; the first two are repeated at the end."""
    boxes = np.column_stack([rng.integers(0, 8, size=(count, 2)) * 2.5,
                             rng.integers(1, 6, size=(count, 2)) * 2.5])
    boxes[:, 2] += rng.choice([0.0, 0.1], size=count)
    return np.concatenate([boxes, boxes[:2]])


class TestBoxIou:
    """`box_iou` is bitwise `iou`, in both broadcast shapes the package uses."""

    @staticmethod
    def expected(first, second):
        return np.array([iou(BBox(*a), BBox(*b)) for a, b in zip(first, second)])

    @pytest.mark.parametrize("seed", range(4))
    def test_pairwise_rows_bitwise_equal_iou(self, seed):
        rng = np.random.default_rng(seed)
        grid = grid_boxes(rng, 60)
        random = np.column_stack([rng.uniform(-10, 10, size=(60, 2)),
                                  rng.uniform(0.1, 10, size=(60, 2))])
        for boxes in (grid, random):
            u, v = rng.integers(0, len(boxes), size=(2, 400))
            got = box_iou(boxes[u], boxes[v])
            want = self.expected(boxes[u], boxes[v])
            assert got.dtype == np.float64 and got.shape == (400,)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_outer_product_bitwise_equal_iou(self, seed):
        rng = np.random.default_rng(seed)
        first, second = grid_boxes(rng, 30), grid_boxes(rng, 20)
        got = box_iou(first[:, None], second[None])
        assert got.shape == (len(first), len(second))
        for row, a in zip(got, first):
            assert row.tobytes() == self.expected([a] * len(second), second).tobytes()
        assert (got == 0).any() and (got > 0).any() and (got < 1).any()

    def test_touching_contained_and_identical_boxes(self):
        boxes = np.array([
            [0.0, 0.0, 4.0, 2.0],
            [4.0, 0.0, 3.0, 2.0],    # touches the right side
            [0.0, 2.0, 4.0, 1.0],    # touches the bottom
            [4.0, 2.0, 1.0, 1.0],    # touches a corner
            [1.0, 0.5, 2.0, 1.0],    # contained
            [-1.0, -1.0, 6.0, 4.0],  # contains it
            [0.0, 0.0, 4.0, 2.0],    # identical
            [0.1, 0.3, 4.0, 2.0],    # shifted
        ])
        outer = box_iou(boxes[:, None], boxes[None])
        for row, a in zip(outer, boxes):
            assert row.tobytes() == self.expected([a] * len(boxes), boxes).tobytes()
        assert box_iou(boxes[0], boxes).tobytes() == outer[0].tobytes()
        assert outer[0, 1:4].tolist() == [0.0, 0.0, 0.0]
        assert outer[0, 4] == 0.25 and outer[0, 6] == 1.0

    def test_empty_side_gives_empty_matrix(self):
        assert box_iou(np.zeros((40, 1, 4)), np.zeros((1, 0, 4))).shape == (40, 0)


class TestDetection:
    def test_rejects_frame_below_one(self):
        with pytest.raises(ValueError):
            Detection(frame=0, box=BBox(0, 0, 1, 1))

    def test_rejects_nonfinite_score(self):
        with pytest.raises(ValueError):
            Detection(frame=1, box=BBox(0, 0, 1, 1), score=float("nan"))

    def test_holds_image(self):
        img = np.zeros((3, 4, 4))
        d = Detection(frame=2, box=BBox(0, 0, 1, 1), score=0.5, image=img)
        assert d.image is img


class TestMulticutInstance:
    def test_rejects_noncanonical_pair(self):
        with pytest.raises(ValueError):
            MulticutInstance(3, ((1, 0, 1.0),))

    def test_rejects_duplicate_across_sets(self):
        with pytest.raises(ValueError):
            MulticutInstance(3, ((0, 1, 1.0),), ((0, 1, 2.0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MulticutInstance(2, ((0, 2, 1.0),))

    def test_rejects_nonfinite_cost(self):
        with pytest.raises(ValueError):
            MulticutInstance(2, ((0, 1, float("inf")),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"self-loop edge \(1, 1\)"):
            MulticutInstance(3, ((0, 1, 1.0), (1, 1, 1.0)))
        with pytest.raises(ValueError, match=r"self-loop lifted edge \(2, 2\)"):
            MulticutInstance(3, ((0, 1, 1.0),), ((2, 2, 1.0),))

    def test_rejects_duplicate_within_one_set(self):
        with pytest.raises(ValueError, match=r"duplicate pair \(0, 1\)"):
            MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0)))
        with pytest.raises(ValueError, match=r"duplicate pair \(0, 2\)"):
            MulticutInstance(3, (), ((0, 2, 1.0), (0, 2, 1.0)))

    def test_rejects_negative_num_nodes(self):
        with pytest.raises(ValueError):
            MulticutInstance(-1, ())

    def test_edge_arrays_are_read_only(self):
        inst = MulticutInstance(3, ((0, 1, 1.0),), ((0, 2, 1.0),))
        for edges in (inst.edges, inst.lifted_edges):
            with pytest.raises(ValueError):
                edges["c"][0] = 5.0
        assert inst.edges.dtype == EDGE_DTYPE

    def test_names_the_first_bad_pair(self):
        edges = ((0, 1, 1.0), (2, 1, 1.0), (1, 1, 1.0), (0, 5, float("nan")))
        with pytest.raises(ValueError, match=r"^edge \(2, 1\) not canonical"):
            MulticutInstance(4, edges)
        with pytest.raises(ValueError,
                           match=r"^lifted edge \(0, 3\) has non-finite cost nan"):
            MulticutInstance(4, ((0, 1, 1.0),), ((0, 3, float("nan")), (0, 1, 1.0)))

    def test_does_not_alias_the_input_array(self):
        edges = np.array([(0, 1, 1.0)], dtype=EDGE_DTYPE)
        inst = MulticutInstance(2, edges)
        edges["c"][0] = 9.0
        assert inst.edges["c"][0] == 1.0

    def test_equality_compares_arrays(self):
        a = MulticutInstance(3, ((0, 1, 1.0), (1, 2, -0.5)), ((0, 2, 2.0),))
        assert a == MulticutInstance(3, np.array(a.edges), list(a.lifted_edges))
        assert a != MulticutInstance(3, ((0, 1, 1.0), (1, 2, -0.25)), ((0, 2, 2.0),))
        assert a != MulticutInstance(4, a.edges, a.lifted_edges)
        assert a != MulticutInstance(3, a.edges, ((0, 2, 2.5),))
        assert a != MulticutInstance(3, a.edges)


class TestDerivedInstances:
    """`keep_lifted` and `with_costs` give what the constructor gives on the
    same rows, without checking the pairs again."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(16)
        for _ in range(300):
            inst = random_instance(rng, max_nodes=12, edge_prob=float(rng.uniform(0, 1)),
                                   lifted_frac=0.4)
            mask = rng.random(inst.num_lifted) < 0.5
            costs = [rng.normal(size=inst.num_edges), rng.normal(size=inst.num_lifted)]
            for group in costs:
                bad = rng.random(len(group)) < rng.choice([0.0, 0.1])
                group[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
            yield inst, mask, costs

    @staticmethod
    def _rows(build):
        """`pair_rows_outcome` of an instance builder, with num_nodes."""
        def stored():
            instance = build()
            return [np.array([instance.num_nodes]), instance.edges, instance.lifted_edges]
        return pair_rows_outcome(stored)

    def test_keep_lifted(self):
        for inst, mask, _ in self._cases():
            before = self._rows(lambda: inst)
            want = self._rows(lambda: MulticutInstance(
                inst.num_nodes, inst.edges, inst.lifted_edges[mask]))
            assert self._rows(lambda: inst.keep_lifted(mask)) == want
            assert self._rows(lambda: inst) == before

    def test_with_costs(self):
        failures = 0
        for inst, _, (edge_costs, lifted_costs) in self._cases():
            before = self._rows(lambda: inst)

            def rebuilt():
                groups = [inst.edges.copy(), inst.lifted_edges.copy()]
                groups[0]["c"], groups[1]["c"] = edge_costs, lifted_costs
                return MulticutInstance(inst.num_nodes, *groups)

            want = self._rows(rebuilt)
            assert self._rows(lambda: inst.with_costs(edge_costs, lifted_costs)) == want
            assert self._rows(lambda: inst) == before
            failures += isinstance(want, tuple)
        assert 50 < failures < 250

    def test_with_costs_rejects_costs_of_the_wrong_length(self):
        inst = MulticutInstance(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
                                ((0, 3, 1.0),))
        for edge_costs, lifted_costs, message in (
                ([5.0], [7.0], r"\(1,\) for 3 pairs"),
                (2.5, 7.0, r"\(\) for 3 pairs"),
                ([1.0, 2.0, 3.0, 4.0], [7.0], r"\(4,\) for 3 pairs"),
                ([[1.0, 2.0, 3.0]], [7.0], r"\(1, 3\) for 3 pairs"),
                ([1.0, 2.0, 3.0], 7.0, r"\(\) for 1 pairs"),
                ([1.0, 2.0, 3.0], [], r"\(0,\) for 1 pairs")):
            with pytest.raises(ValueError, match=f"^costs of shape {message}$"):
                inst.with_costs(edge_costs, lifted_costs)
        costed = inst.with_costs((1.0, 2.0, 3.0), [7.0])
        assert costed.columns.c.tolist() == [1.0, 2.0, 3.0, 7.0]

    def test_keep_lifted_rejects_a_mask_of_the_wrong_length(self):
        inst = MulticutInstance(4, ((0, 1, 1.0),), ((0, 2, 1.0), (0, 3, 1.0)))
        for mask in ([True], [True, False, True], True, [[True, False]]):
            with pytest.raises(ValueError, match=r"^mask of shape .* for 2 lifted edges$"):
                inst.keep_lifted(mask)
        assert inst.keep_lifted([False, True]).columns.u.tolist() == [0, 0]

    def test_with_costs_does_not_alias_the_costs(self):
        inst = MulticutInstance(3, ((0, 1, 1.0),), ((0, 2, 1.0),))
        costs = np.array([2.0])
        costed = inst.with_costs(costs, [3.0])
        costs[0] = 9.0
        assert costed.edges["c"].tolist() == [2.0]
        assert costed.lifted_edges["c"].tolist() == [3.0]


class TestColumns:
    """`columns`: E then F as contiguous read-only arrays, one set per instance."""

    @staticmethod
    def _assert_columns(instance):
        u, v, c, num_edges = instance.columns
        both = np.concatenate([instance.edges, instance.lifted_edges])
        assert num_edges == instance.num_edges
        for column, name in ((u, "u"), (v, "v"), (c, "c")):
            assert column.dtype == EDGE_DTYPE[name]
            assert column.flags.c_contiguous and not column.flags.writeable
            # bit for bit, so a -0.0 cost stays -0.0
            assert column.view(np.int64).tolist() == both[name].view(np.int64).tolist()
        assert instance.columns is instance.columns

    def test_equal_the_concatenation(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            inst = random_instance(rng, max_nodes=12, edge_prob=float(rng.uniform(0, 1)),
                                   lifted_frac=float(rng.uniform(0, 1)))
            self._assert_columns(inst)
        self._assert_columns(MulticutInstance(0, ()))
        self._assert_columns(MulticutInstance(2, (), ((0, 1, -0.0),)))

    def test_read_only(self):
        inst = MulticutInstance(3, ((0, 1, 1.0),), ((0, 2, 2.0),))
        for column in inst.columns[:3]:
            with pytest.raises(ValueError):
                column[0] = 0

    def test_new_for_every_derived_instance(self):
        inst = MulticutInstance(4, ((0, 1, 1.0), (1, 2, -1.0), (2, 3, 0.5)),
                                ((0, 2, 2.0), (0, 3, -2.0), (1, 3, 3.0)))
        before = [column.tolist() for column in inst.columns[:3]]
        derived = [
            inst.keep_lifted([True, False, True]),
            inst.with_costs([4.0, 5.0, 6.0], [7.0, 8.0, 9.0]),
            dataclasses.replace(inst, edges=((0, 1, 1.0), (2, 3, 2.5))),
            dataclasses.replace(inst, lifted_edges=()),
        ]
        for other in derived:
            self._assert_columns(other)
            assert all(mine is not theirs
                       for mine, theirs in zip(other.columns, inst.columns[:3]))
        assert derived[0].columns.u.tolist() == [0, 1, 2, 0, 1]
        assert derived[1].columns.c.tolist() == [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        assert derived[2].columns.u.tolist() == [0, 2, 0, 0, 1]
        assert [column.tolist() for column in inst.columns[:3]] == before


class TestRepeatedPairs:
    """One key sort gives `np.lexsort`'s order and repeats on every input."""

    @staticmethod
    def _reference(u, v):
        order = np.lexsort((v, u))
        seen, repeat = set(), []
        for pair in zip(np.asarray(u).tolist(), np.asarray(v).tolist()):
            repeat.append(pair in seen)
            seen.add(pair)
        return order.tolist(), repeat

    def test_matches_lexsort(self):
        rng = np.random.default_rng(18)
        # ids near 0, near one of +-2**62 (a key with a large offset), near
        # both (a key past int64, sorted by lexsort) and spread over int64
        centres = ([0], [2**62], [-2**62], [2**62, -2**62], [0, 2**62])
        for trial in range(600):
            size = int(rng.integers(0, 40))
            centre = centres[trial % len(centres)]
            u, v = (rng.choice(centre, size=size) + rng.integers(-3, 4, size=size)
                    for _ in range(2))
            if trial % 7 == 6:
                u = rng.integers(-2**63, 2**63 - 1, size=size, dtype=np.int64)
            if trial % 11 == 10:
                u, v = u.astype(np.int32), v.astype(np.float64)
            order, repeat = repeated_pairs(u, v)
            want = self._reference(u, v)
            assert (order.tolist(), repeat.tolist()) == want, (u, v)

    def test_ids_near_2_62_in_an_instance(self):
        # out-of-range ids are sorted with the rest, and named as today
        big = 2**62
        for rows, lifted in (
            ([(0, 1, 1.0), (big, big + 1, 1.0)], [(0, 1, 2.0)]),
            ([(-big, 1, 1.0), (0, 1, 1.0)], [(-big, 1, 2.0), (big, big + 3, 1.0)]),
            ([(0, 2, 1.0), (1, 2, 1.0)], [(0, 2, 2.0), (-big, -big + 1, 1.0)]),
        ):
            want = pair_rows_outcome(reference_instance_rows, 3, rows, lifted)
            assert pair_rows_outcome(stored_instance_rows, 3, rows, lifted) == want


def fuzzed_instance_input(rng):
    """(num_nodes, edges, lifted_edges) with planted self-loops, negative,
    out-of-range and non-canonical ids, non-finite costs, and pairs repeated
    within and across E and F; one case in ten has up to 300 rows."""
    big = rng.random() < 0.1
    n = int(rng.integers(2, 40) if big else rng.integers(0, 9))
    count = int(rng.integers(0, 300) if big else rng.integers(0, 12))
    if n > 1 and rng.random() < 0.5:
        # distinct canonical pairs, so that faults come from planting alone
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = rng.permutation(len(pairs))[:count]
        rows = [[*pairs[k], float(rng.normal())] for k in picked]
    else:
        rows = [[*sorted(rng.integers(0, max(n, 1), size=2).tolist()),
                 float(rng.normal())] for _ in range(count)]
    rate = rng.choice([0.0, 0.05, 0.3])
    for i, row in enumerate(rows):
        if rng.random() >= rate:
            continue
        kind = int(rng.integers(7))
        if kind == 0:
            row[1] = row[0]
        elif kind == 1:
            row[int(rng.integers(2))] = -int(rng.integers(1, 3))
        elif kind == 2:
            row[int(rng.integers(2))] = n + int(rng.integers(0, 2))
        elif kind == 3:
            row[0], row[1] = row[1], row[0]
        elif kind == 4:
            row[2] = float(rng.choice([np.nan, np.inf, -np.inf]))
        elif i:
            row[:2] = rows[int(rng.integers(i))][:2]
    split = int(rng.integers(0, count + 1))
    return (n, shaped_rows(rng, [tuple(r) for r in rows[:split]], EDGE_DTYPE),
            shaped_rows(rng, [tuple(r) for r in rows[split:]], EDGE_DTYPE))


def stored_instance_rows(num_nodes, edges, lifted_edges):
    instance = MulticutInstance(num_nodes, edges, lifted_edges)
    return instance.edges, instance.lifted_edges


class TestInstanceMatchesReference:
    """`MulticutInstance` validates and stores as the frozen validator did."""

    # one per error template; each message contains only its own kind
    KINDS = ("self-loop edge", "self-loop lifted edge", "outside node range",
             "not canonical", "has non-finite cost", "duplicate pair",
             "lifted_edges must be", "edges must be")

    def test_fuzzed_rows(self):
        rng = np.random.default_rng(14)
        kinds = set()
        for _ in range(1500):
            args = fuzzed_instance_input(rng)
            want = pair_rows_outcome(reference_instance_rows, *args)
            assert pair_rows_outcome(stored_instance_rows, *args) == want, args
            kinds.add("accepted" if isinstance(want, list) else
                      next(k for k in self.KINDS if k in want[1]))
        assert kinds == {"accepted", *self.KINDS}


class TestBenchmarkContract:
    """The instance operations the benchmark's checks and self-test rely on."""

    INSTANCE = MulticutInstance(4, ((0, 1, 1.5), (1, 2, -2.0), (2, 3, 0.25)),
                                ((0, 3, -1.0),))

    def test_records_unpack_into_triples(self):
        u, v, c = self.INSTANCE.edges[1]
        assert (u, v, c) == (1, 2, -2.0)

    def test_len_and_slicing(self):
        assert len(self.INSTANCE.edges) == 3
        assert [tuple(r) for r in self.INSTANCE.edges[1:]] == [(1, 2, -2.0), (2, 3, 0.25)]
        assert len(self.INSTANCE.lifted_edges[1:]) == 0

    def test_zip_star_gives_three_columns(self):
        u, v, c = zip(*self.INSTANCE.edges)
        assert np.array(u, np.int64).tolist() == [0, 1, 2]
        assert np.array(v, np.int64).tolist() == [1, 2, 3]
        assert np.array(c, float).tolist() == [1.5, -2.0, 0.25]

    def test_replace_with_records_and_one_tuple_revalidates(self):
        bumped = list(self.INSTANCE.edges)
        u, v, c = bumped[0]
        bumped[0] = (u, v, c + 1e-3)
        replaced = dataclasses.replace(self.INSTANCE, edges=tuple(bumped))
        assert replaced.edges["c"].tolist() == [1.5 + 1e-3, -2.0, 0.25]
        assert np.array_equal(replaced.lifted_edges, self.INSTANCE.lifted_edges)
        bumped[0] = (u, v, float("inf"))
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(self.INSTANCE, edges=tuple(bumped))

    def test_partition_labels_copy_and_from_label_list(self):
        part = Partition.from_labels([4, 4, 9])
        labels = np.array(part.component_of)
        labels[2] = 0
        assert type(part).from_labels(labels.tolist()) == Partition((0, 0, 0))
        assert part.component_of.tolist() == [0, 0, 1]


class TestEdgeLabeling:
    def test_rejects_bad_value(self):
        with pytest.raises(ValueError):
            EdgeLabeling([0, 2])

    def test_validate_for_reports_mismatch(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(ValueError):
            EdgeLabeling([0]).validate_for(inst)
        with pytest.raises(ValueError):
            EdgeLabeling([0, 0, 0]).validate_for(inst)
        EdgeLabeling([0, 1]).validate_for(inst)

    def test_labels_are_read_only(self):
        lab = EdgeLabeling([0, 1])
        with pytest.raises(ValueError):
            lab.labels[0] = 1


class TestPartition:
    def test_rejects_noncontiguous_ids(self):
        with pytest.raises(ValueError):
            Partition((0, 2))

    def test_from_labels_canonicalizes(self):
        p = Partition.from_labels([7, 7, 3, 7])
        assert p.component_of.tolist() == [0, 0, 1, 0]

    def test_blocks_and_counts(self):
        p = Partition((0, 1, 0))
        assert p.num_nodes == 3
        assert p.num_components == 2
        assert p.blocks() == [[0, 2], [1]]

    def test_equality_ignores_relabeling(self):
        assert Partition((0, 1, 0)) == Partition.from_labels([5, 2, 5])
        assert Partition((0, 1, 0)) != Partition((0, 0, 1))

    def test_rejects_ids_out_of_first_occurrence_order(self):
        for ids in ((1, 0), (0, 2, 1), (-1,), (0, -1)):
            with pytest.raises(ValueError, match="first-occurrence"):
                Partition(ids)

    def test_rejects_non_integer_or_nested_ids(self):
        with pytest.raises(ValueError, match="integers"):
            Partition((0.0, 1.0))
        with pytest.raises(ValueError, match="one-dimensional"):
            Partition([[0, 1]])

    def test_holds_a_read_only_int64_copy(self):
        ids = np.array([0, 1, 0], dtype=np.int8)
        p = Partition(ids)
        ids[0] = 1
        assert p.component_of.dtype == np.int64
        assert p.component_of.tolist() == [0, 1, 0]
        with pytest.raises(ValueError):
            p.component_of[0] = 1

    def test_empty(self):
        p = Partition(())
        assert (p.num_nodes, p.num_components, p.blocks()) == (0, 0, [])
        assert Partition.from_labels([]) == p

    def test_matches_dict_loop_reference(self):
        rng = np.random.default_rng(23)
        for trial in range(300):
            n = int(rng.integers(0, 3)) if trial < 30 else int(rng.integers(0, 60))
            pool = rng.integers(-2**62, 2**62, size=int(rng.integers(1, 8)))
            labels = rng.choice(pool, size=n).tolist()
            want = reference_from_labels(labels)
            got = Partition.from_labels(labels)
            assert got == Partition(want)
            assert got.component_of.tolist() == list(want)
            assert got.blocks() == reference_blocks(want)
            assert got.num_components == len(reference_blocks(want))


def _one_per_frame(num_frames):
    return [Detection(frame=f, box=BBox(0, 0, 1, 1)) for f in range(1, num_frames + 1)]


class TestBuildGraph:
    def test_three_frames_gap_two(self):
        inst = build_graph(_one_per_frame(3), max_frame_gap=2)
        assert {(u, v) for u, v, _ in inst.edges} == {(0, 1), (1, 2), (0, 2)}
        assert inst.num_lifted == 0

    def test_twelve_frames_with_lifted_gap_ten(self):
        inst = build_graph(_one_per_frame(12), max_frame_gap=1, lifted_gaps=[10])
        assert inst.num_edges == 11
        assert {(u, v) for u, v, _ in inst.lifted_edges} == {(0, 10), (1, 11)}

    def test_empty_detections(self):
        inst = build_graph([], max_frame_gap=1)
        assert inst.num_nodes == 0
        assert inst.num_edges == 0

    def test_same_frame_pairs_get_regular_edges(self):
        dets = [
            Detection(frame=1, box=BBox(0, 0, 1, 1)),
            Detection(frame=1, box=BBox(5, 0, 1, 1)),
        ]
        inst = build_graph(dets, max_frame_gap=1)
        assert {(u, v) for u, v, _ in inst.edges} == {(0, 1)}

    def test_rejects_bad_gaps(self):
        with pytest.raises(ValueError):
            build_graph(_one_per_frame(3), max_frame_gap=0)
        with pytest.raises(ValueError):
            build_graph(_one_per_frame(3), max_frame_gap=2, lifted_gaps=[2])

    def test_no_pair_in_both_sets_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            frames = rng.integers(1, 15, size=12)
            dets = [Detection(frame=int(f), box=BBox(0, 0, 1, 1)) for f in frames]
            inst = build_graph(dets, max_frame_gap=2, lifted_gaps=[5, 8])
            reg = {(u, v) for u, v, _ in inst.edges}
            lif = {(u, v) for u, v, _ in inst.lifted_edges}
            assert not reg & lif
            for u, v in reg | lif:
                assert u < v

    def test_matches_double_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            frames = rng.integers(1, 40, size=int(rng.integers(0, 40))).tolist()
            dets = [Detection(frame=f, box=BBox(0, 0, 1, 1)) for f in frames]
            max_gap = int(rng.integers(1, 4))
            lifted = [int(g) for g in rng.choice(np.arange(max_gap + 1, 30), 3)]
            inst = build_graph(dets, max_frame_gap=max_gap, lifted_gaps=lifted)
            edges, lifted_edges = double_loop_graph(frames, max_gap, lifted)
            assert inst.edges.tolist() == list(edges)
            assert inst.lifted_edges.tolist() == list(lifted_edges)


def double_loop_graph(frames, max_frame_gap, lifted_gaps):
    """The O(n^2) construction frame bucketing replaced, kept as a reference."""
    edges, lifted = [], []
    for i in range(len(frames)):
        for j in range(i + 1, len(frames)):
            dist = abs(frames[j] - frames[i])
            if dist <= max_frame_gap:
                edges.append((i, j, 0.0))
            elif dist in set(lifted_gaps):
                lifted.append((i, j, 0.0))
    return tuple(edges), tuple(lifted)


class TestFramePairs:
    def test_matches_double_loop_on_unsorted_repeated_frames(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            frames = rng.integers(1, 12, size=int(rng.integers(0, 30))).tolist()
            gaps = rng.choice(np.arange(0, 8), size=int(rng.integers(0, 4))).tolist()
            expected = [
                [i, j]
                for i in range(len(frames))
                for j in range(i + 1, len(frames))
                if abs(frames[j] - frames[i]) in gaps
            ]
            pairs = frame_pairs(frames, gaps)
            assert pairs.shape == (len(expected), 2)
            assert pairs.tolist() == expected

    def test_fuzz_with_gap_zero_against_double_loop(self):
        # every draw asks for gap 0, so same-frame pairs, whose two ends come
        # out of the bucket in either order, are canonicalised in each one
        rng = np.random.default_rng(14)
        for _ in range(150):
            frames = rng.integers(1, 9, size=int(rng.integers(0, 45)))
            gaps = [0, *rng.integers(1, 9, size=int(rng.integers(0, 4))).tolist()]
            expected = [
                [i, j]
                for i in range(len(frames))
                for j in range(i + 1, len(frames))
                if abs(int(frames[j]) - int(frames[i])) in gaps
            ]
            pairs = frame_pairs(frames, gaps)
            assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
            assert pairs.tolist() == expected

    def test_gap_zero_pairs_each_frame_bucket(self):
        assert frame_pairs([2, 1, 2, 2], [0]).tolist() == [[0, 2], [0, 3], [2, 3]]

    def test_empty_inputs(self):
        assert frame_pairs([], [0, 1]).shape == (0, 2)
        assert frame_pairs([1, 2, 3], []).shape == (0, 2)


class TestLabelingToPartition:
    def test_all_join_gives_graph_components(self):
        inst = MulticutInstance(4, ((0, 1, 1.0), (2, 3, 1.0)))
        lab = EdgeLabeling([0, 0])
        assert labeling_to_partition(inst, lab).component_of.tolist() == [0, 0, 1, 1]

    def test_all_cut_gives_singletons(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)))
        lab = EdgeLabeling([1, 1])
        assert labeling_to_partition(inst, lab).component_of.tolist() == [0, 1, 2]

    def test_path_with_one_cut(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)))
        lab = EdgeLabeling([0, 1])
        assert labeling_to_partition(inst, lab).component_of.tolist() == [0, 0, 1]

    def test_lifted_edges_never_merge(self):
        inst = MulticutInstance(3, ((0, 1, 1.0),), ((0, 2, 1.0),))
        lab = EdgeLabeling([0, 0])
        assert labeling_to_partition(inst, lab).component_of.tolist() == [0, 0, 1]


class TestComponentLabels:
    """`pair_components` on the regular edges of `columns` that a mask selects."""

    @staticmethod
    def _joined_components(inst, joined):
        u, v, _, m = inst.columns
        joined = np.asarray(joined, dtype=bool)
        return pair_components(inst.num_nodes, u[:m][joined], v[:m][joined])

    def test_only_selected_regular_edges_connect(self):
        inst = MulticutInstance(5, ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)),
                                ((0, 4, 1.0),))
        comp = self._joined_components(inst, [True, False, True])
        assert comp[0] == comp[1]
        assert len({comp[0], comp[2], comp[3]}) == 3
        assert comp[3] == comp[4]

    def test_matches_union_find_on_random_masks(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(0, 15))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3]
            inst = MulticutInstance(n, tuple((u, v, 1.0) for u, v in pairs))
            joined = rng.random(len(pairs)) < 0.5
            uf = UnionFind(n)
            for (u, v), join in zip(pairs, joined):
                if join:
                    uf.union(u, v)
            want = Partition.from_labels([uf.find(x) for x in range(n)])
            comp = self._joined_components(inst, joined)
            assert Partition.from_labels(comp.tolist()) == want
            assert labeling_to_partition(inst, EdgeLabeling(~joined)) == want
