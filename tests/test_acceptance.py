"""Acceptance gate: one test per release criterion.

Each criterion is a single test function, so `pytest -v` prints exactly
one pass/fail line per criterion. Tolerances and budgets are asserted
inside the tests. Criteria 4-6 share the session-scoped benchmark runs
from conftest (three 100-frame sequences, five identities each, with
occluded crossings; one reconstruction-only and one clustering-loss
embedding trained per sequence).
"""

import time

import numpy as np
from scipy.special import expit

from helpers import (
    planted_instance,
    random_instance,
    random_labeling,
    random_partition,
    smooth_embedding_fixture,
)

from liftedtrack.affinity import NEARBY_FEATURES, edge_cost
from liftedtrack.cli import main as cli_main
from liftedtrack.embedding import (
    ArchConfig,
    compute_centroids,
    gradient_check,
)
from liftedtrack.metrics import evaluate_clear_mot
from liftedtrack.motio import MotRecord
from liftedtrack.solver import (
    is_feasible,
    objective,
    partition_to_labeling,
    solve_bruteforce,
    solve_gaec,
    solve_kl,
)
from liftedtrack.synth import IdentitySpec, SequenceSpec, synth_sequence

IOU_ONLY = ("bias", "iou_dm")
DAE_ONLY = ("bias", "d_ae")


def test_criterion_1_oracle_equivalence():
    # 200 seeded instances, n <= 10, mixed-sign costs, ~20% lifted edges:
    # heuristic output feasible on all, optimal on >= 90%, never better
    # than brute force, under 60 s total.
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    matched = 0
    saw_positive = saw_negative = False
    for _ in range(200):
        instance = planted_instance(rng)
        costs = [c for _, _, c in list(instance.edges) + list(instance.lifted_edges)]
        saw_positive |= any(c > 0 for c in costs)
        saw_negative |= any(c < 0 for c in costs)
        _, optimum = solve_bruteforce(instance)
        partition, _ = solve_gaec(instance)
        partition, _ = solve_kl(instance, partition)
        labeling = partition_to_labeling(instance, partition)
        assert is_feasible(instance, labeling).feasible
        value = objective(instance, labeling)
        assert value >= optimum - 1e-9, \
            f"heuristic {value} beat brute force {optimum}"
        matched += abs(value - optimum) <= 1e-9
    # the same universal guarantees on pure-noise costs, not scored
    for _ in range(100):
        instance = random_instance(rng)
        _, optimum = solve_bruteforce(instance)
        partition, _ = solve_gaec(instance)
        partition, _ = solve_kl(instance, partition)
        labeling = partition_to_labeling(instance, partition)
        assert is_feasible(instance, labeling).feasible
        assert objective(instance, labeling) >= optimum - 1e-9
    elapsed = time.perf_counter() - start
    assert saw_positive and saw_negative
    assert matched >= 180, f"only {matched}/200 instances solved to optimum"
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f} s"


def _components(instance, labeling):
    """Connected components of the label-0 regular-edge subgraph, by BFS."""
    adjacency = [[] for _ in range(instance.num_nodes)]
    for (u, v, _), label in zip(instance.edges, labeling.labels):
        if label == 0:
            adjacency[u].append(v)
            adjacency[v].append(u)
    component = [-1] * instance.num_nodes
    for root in range(instance.num_nodes):
        if component[root] >= 0:
            continue
        component[root] = root
        queue = [root]
        while queue:
            node = queue.pop()
            for peer in adjacency[node]:
                if component[peer] < 0:
                    component[peer] = root
                    queue.append(peer)
    return component


def _violated_edges(instance, labeling, component):
    bad = []
    edges = list(instance.edges) + list(instance.lifted_edges)
    for (u, v, _), label in zip(edges, labeling.labels):
        connected = component[u] == component[v]
        if label != (0 if connected else 1):
            bad.append((u, v))
    return bad


def test_criterion_2_feasibility_soundness():
    # is_feasible must agree with an independently recomputed
    # connected-components consistency check on 1000 random labelings per
    # fixture, and every infeasible verdict must cite a violated edge.
    rng = np.random.default_rng(1)
    fixtures = [random_instance(rng, max_nodes=8, edge_prob=0.9)
                for _ in range(5)]
    saw_infeasible = saw_feasible = False
    for instance in fixtures:
        for trial in range(1000):
            if trial % 5 == 0:
                # partition-induced labelings keep the feasible branch hot
                labeling = partition_to_labeling(
                    instance, random_partition(rng, instance.num_nodes))
            else:
                labeling = random_labeling(rng, instance)
            component = _components(instance, labeling)
            bad = _violated_edges(instance, labeling, component)
            report = is_feasible(instance, labeling)
            assert report.feasible == (not bad)
            if report.feasible:
                saw_feasible = True
            else:
                saw_infeasible = True
                assert report.violations
                for violation in report.violations:
                    assert violation.edge in bad, \
                        f"cited edge {violation.edge} is not violated"
    assert saw_feasible and saw_infeasible


def test_criterion_3_gradient_correctness():
    # analytic vs central finite-difference gradients agree to < 1e-4 for
    # every parameterized layer type, lambda in {0, 0.5, 0.95}, batchnorm
    # off and on, in under 120 s.
    plain = ArchConfig(input_shape=(3, 8, 8), conv_channels=(4, 6),
                       latent_dim=5)
    normed = ArchConfig(input_shape=(3, 4, 4), conv_channels=(6,),
                        latent_dim=4, batchnorm=True)
    start = time.perf_counter()
    layer_types = set()
    for arch, batch, seed in ((plain, 4, 8), (normed, 8, 1)):
        model, x = smooth_embedding_fixture(arch, seed=seed, batch=batch)
        layer_types |= {type(layer).__name__
                        for _, layer in model.layer_items() if layer.params}
        labels = [i % 2 for i in range(batch)]
        centroids = compute_centroids(model, x, labels)
        for lam in (0.0, 0.5, 0.95):
            error = gradient_check(model, x, centroids, lam=lam)
            assert error < 1e-4, \
                f"gradient error {error:.2e} (batchnorm={arch.batchnorm}, " \
                f"lambda={lam})"
    elapsed = time.perf_counter() - start
    assert {"Conv2D", "Dense", "BatchNorm"} <= layer_types
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f} s"


def test_criterion_4_clustering_loss_effect(cell_scores):
    # with latent distance as the only learned affinity feature, the
    # clustering-loss embedding must beat the reconstruction-only one:
    # strictly higher MOTA and strictly fewer id switches over 3 seeds.
    recon = [cell_scores(seed, "recon", DAE_ONLY) for seed in (0, 1, 2)]
    clust = [cell_scores(seed, "clust", DAE_ONLY) for seed in (0, 1, 2)]
    detail = "; ".join(
        f"seed {seed}: recon {r.mota:.3f}/{r.ids} clust {c.mota:.3f}/{c.ids}"
        for seed, r, c in zip((0, 1, 2), recon, clust))
    assert sum(c.mota for c in clust) > sum(r.mota for r in recon), detail
    assert sum(c.ids for c in clust) < sum(r.ids for r in recon), detail


def test_criterion_5_feature_combination_effect(cell_scores):
    # combining spatio-temporal overlap, latent distance, and their product
    # must score at least as well as either single-feature affinity, on
    # every seed.
    for seed in (0, 1, 2):
        combined = cell_scores(seed, "clust", NEARBY_FEATURES)
        for features in (IOU_ONLY, DAE_ONLY):
            single = cell_scores(seed, "clust", features)
            assert combined.mota >= single.mota, \
                f"seed {seed}: combined {combined.mota:.3f} < " \
                f"{'+'.join(features)} {single.mota:.3f}"


def test_criterion_6_lifted_edge_effect(cell_scores):
    # long-range lifted edges at gaps 10/20/30 must strictly reduce total
    # id switches over 3 seeds and never cost any seed more than 0.5 MOTA
    # points (0.005 on the unit scale).
    plain = [cell_scores(seed, "clust", NEARBY_FEATURES, max_frame_gap=5)
             for seed in (0, 1, 2)]
    lifted = [cell_scores(seed, "clust", NEARBY_FEATURES, max_frame_gap=5,
                          lifted_gaps=(10, 20, 30)) for seed in (0, 1, 2)]
    detail = "; ".join(
        f"seed {seed}: plain {p.mota:.3f}/{p.ids} lifted {l.mota:.3f}/{l.ids}"
        for seed, p, l in zip((0, 1, 2), plain, lifted))
    assert sum(l.ids for l in lifted) < sum(p.ids for p in plain), detail
    for seed, p, l in zip((0, 1, 2), plain, lifted):
        assert l.mota >= p.mota - 0.005, \
            f"seed {seed}: lifted MOTA {l.mota:.3f} dropped more than " \
            f"0.005 below {p.mota:.3f}"


def _track(track_id, frames, left=0.0):
    return [MotRecord(f, track_id, left, 0.0, 10.0, 10.0, 1.0)
            for f in frames]


def test_criterion_7_metric_correctness():
    gt = _track(1, range(1, 11))

    # worked example 1: hypothesis identical to ground truth
    report = evaluate_clear_mot(gt, list(gt))
    assert (report.mota, report.ids, report.fp, report.fn) == (1.0, 0, 0, 0)

    # worked example 2: empty hypothesis, MOTA 0.0 via FN = total GT
    report = evaluate_clear_mot(gt, [])
    assert (report.mota, report.fn, report.fp) == (0.0, 10, 0)

    # worked example 3: single 10-frame track, id switch at frame 6
    switched = _track(7, range(1, 6)) + _track(8, range(6, 11))
    report = evaluate_clear_mot(gt, switched)
    assert (report.ids, report.mota) == (1, 1.0 - 1.0 / 10.0)

    # ground truth as hypothesis scores perfectly on a clean sequence
    spec = SequenceSpec(
        identities=(
            IdentitySpec(1, (5.0, 5.0), (2.0, 0.0), appearance=0.2),
            IdentitySpec(2, (5.0, 60.0), (2.0, 1.0), appearance=0.8),
        ),
        num_frames=12,
    )
    result = synth_sequence(spec, seed=0)
    report = evaluate_clear_mot(result.gt, list(result.gt))
    assert (report.mota, report.motp, report.idf1) == (1.0, 1.0, 1.0)
    assert (report.ids, report.fp, report.fn, report.ml) == (0, 0, 0, 0)
    assert report.mt == 2


def test_criterion_8_determinism(tmp_path):
    # the track subcommand, run twice with the same config and seed on the
    # same inputs, must produce bytewise-identical output files.
    config = tmp_path / "cfg.txt"
    config.write_text("epochs = 2\nseed = 0\n")
    argv = ["--dir", str(tmp_path), "--config", str(config)]
    for step in ("synth", "pregroup", "train-embedding", "fit-affinity"):
        extra = ["--frames", "40"] if step == "synth" else []
        assert cli_main([step, *argv, *extra]) == 0
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    assert cli_main(["track", *argv, "--out", str(first)]) == 0
    assert cli_main(["track", *argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.stat().st_size > 0


def test_criterion_9_logit_identities():
    grid = np.concatenate([
        np.linspace(1e-6, 1.0 - 1e-6, 4001),
        np.logspace(-6, -1, 60),
        1.0 - np.logspace(-6, -1, 60),
    ])
    for p in grid:
        assert abs(expit(edge_cost(p)) - p) < 1e-12
    assert edge_cost(0.5) == 0.0
