"""Domain type and graph construction tests."""

import dataclasses

import numpy as np
import pytest

from liftedtrack.graph import (
    EDGE_DTYPE,
    BBox,
    Detection,
    EdgeLabeling,
    MulticutInstance,
    Partition,
    UnionFind,
    build_graph,
    canonical_edge,
    component_labels,
    frame_pairs,
    iou,
    labeling_to_partition,
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
        assert p.component_of == (0, 0, 1, 0)

    def test_blocks_and_counts(self):
        p = Partition((0, 1, 0))
        assert p.num_nodes == 3
        assert p.num_components == 2
        assert p.blocks() == [[0, 2], [1]]

    def test_same_as_ignores_relabeling(self):
        assert Partition((0, 1, 0)).same_as(Partition.from_labels([5, 2, 5]))
        assert not Partition((0, 1, 0)).same_as(Partition((0, 0, 1)))


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

    def test_gap_zero_pairs_each_frame_bucket(self):
        assert frame_pairs([2, 1, 2, 2], [0]).tolist() == [[0, 2], [0, 3], [2, 3]]

    def test_empty_inputs(self):
        assert frame_pairs([], [0, 1]).shape == (0, 2)
        assert frame_pairs([1, 2, 3], []).shape == (0, 2)


class TestLabelingToPartition:
    def test_all_join_gives_graph_components(self):
        inst = MulticutInstance(4, ((0, 1, 1.0), (2, 3, 1.0)))
        lab = EdgeLabeling([0, 0])
        assert labeling_to_partition(inst, lab).component_of == (0, 0, 1, 1)

    def test_all_cut_gives_singletons(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)))
        lab = EdgeLabeling([1, 1])
        assert labeling_to_partition(inst, lab).component_of == (0, 1, 2)

    def test_path_with_one_cut(self):
        inst = MulticutInstance(3, ((0, 1, 1.0), (1, 2, 1.0)))
        lab = EdgeLabeling([0, 1])
        assert labeling_to_partition(inst, lab).component_of == (0, 0, 1)

    def test_lifted_edges_never_merge(self):
        inst = MulticutInstance(3, ((0, 1, 1.0),), ((0, 2, 1.0),))
        lab = EdgeLabeling([0, 0])
        assert labeling_to_partition(inst, lab).component_of == (0, 0, 1)


class TestComponentLabels:
    def test_only_selected_regular_edges_connect(self):
        inst = MulticutInstance(5, ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)),
                                ((0, 4, 1.0),))
        comp = component_labels(inst, [True, False, True])
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
            comp = component_labels(inst, joined)
            assert Partition.from_labels(comp.tolist()) == Partition.from_labels(
                [uf.find(x) for x in range(n)])
