"""Tests for pair features, self-labeling, logistic fitting, and edge costs.

Fitted coefficients are checked against an independently minimized copy of
the regularized loss (scipy BFGS) rather than against the implementation's
own optimizer.
"""

import logging
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from helpers import pair_rows_outcome, shaped_rows
from pair_rows_reference import reference_match_rows
from liftedtrack import affinity
from liftedtrack.affinity import (
    L2_WEIGHT,
    LIFTED_FEATURES,
    MATCH_DTYPE,
    NEARBY_FEATURES,
    PROB_EPS,
    AffinityConfig,
    AffinityModel,
    MatchTable,
    assemble_costs,
    edge_cost,
    feature_matrix,
    fit_affinity_model,
    fit_logistic,
    generate_labels,
    iou_match_table,
    latent_codes,
    latent_distances,
    predict_p_same,
    read_match_table,
    write_match_table,
)
from liftedtrack.embedding import LATENT_CHUNK, ArchConfig, AutoEncoder
from liftedtrack.graph import BBox, Detection, build_graph, iou
from liftedtrack.solver import solve_bruteforce


def reference_beta(features, labels, l2=1e-4):
    """Minimize mean log loss + 0.5*l2*|b|^2 with an off-the-shelf optimizer."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)

    def fun(beta):
        m = features @ beta
        losses = np.logaddexp(0.0, np.where(labels == 1, -m, m))
        return np.mean(losses) + 0.5 * l2 * beta @ beta

    def jac(beta):
        p = expit(features @ beta)
        return features.T @ (p - labels) / len(labels) + l2 * beta

    res = minimize(fun, np.zeros(features.shape[1]), jac=jac, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 5000})
    return res.x


def det(frame, left=0.0, top=0.0, size=10.0):
    return Detection(frame=frame, box=BBox(left, top, size, size), score=1.0)


class TestMatchTable:
    def test_symmetric_lookup_and_default(self):
        table = MatchTable([(3, 1, 0.6)])
        assert table.values_at(1, 3) == 0.6
        assert table.values_at(3, 1) == 0.6
        assert table.values_at(0, 9) == 0.0
        assert table.values_at([1, 3, 0], [3, 1, 9]).tolist() == [0.6, 0.6, 0.0]
        assert MatchTable([]).values_at([0, 1], [1, 2]).tolist() == [0.0, 0.0]

    def test_rows_canonical_and_sorted(self):
        table = MatchTable([(5, 2, 0.25), (0, 7, 0.5), (4, 1, 0.125), (0, 3, 1.0)])
        assert table.rows.tolist() == [(0, 3, 1.0), (0, 7, 0.5), (1, 4, 0.125),
                                       (2, 5, 0.25)]
        assert dict(table.entries) == {(0, 3): 1.0, (0, 7): 0.5, (1, 4): 0.125,
                                       (2, 5): 0.25}
        with pytest.raises(ValueError):
            table.rows["value"][0] = 0.0
        with pytest.raises(TypeError):
            table.entries[(0, 3)] = 0.0

    def test_values_at_matches_mapping_lookup(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            triples = [(int(a), int(b), float(rng.random()))
                       for a, b in rng.integers(0, n, size=(int(rng.integers(0, 60)), 2))
                       if a != b]
            mapping = {}
            for a, b, value in triples:
                mapping.setdefault((min(a, b), max(a, b)), value)
            table = MatchTable([(a, b, mapping[(min(a, b), max(a, b))])
                                for a, b, _ in triples])
            u, v = rng.integers(0, n + 5, size=(2, 80))
            want = [mapping.get((min(a, b), max(a, b)), 0.0)
                    for a, b in zip(u.tolist(), v.tolist())]
            assert table.values_at(u, v).tolist() == want

    def test_equal_repeats_collapse(self):
        table = MatchTable([(0, 1, 0.5), (1, 0, 0.5), (0, 1, 0.5)])
        assert table.rows.tolist() == [(0, 1, 0.5)]
        assert table == MatchTable([(0, 1, 0.5)])

    def test_rejects_out_of_range(self):
        for value in (1.5, -0.25, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="outside"):
                MatchTable([(0, 1, 0.5), (1, 2, value)])

    def test_rejects_self_pair_and_negative_id(self):
        with pytest.raises(ValueError, match=r"self-loop \(2, 2\)"):
            MatchTable([(0, 1, 0.5), (2, 2, 0.5)])
        with pytest.raises(ValueError, match=r"negative detection id in pair \(-1, 3\)"):
            MatchTable([(3, -1, 0.5)])

    def test_rejects_conflicting_duplicates(self):
        with pytest.raises(ValueError, match="conflicting"):
            MatchTable([(0, 1, 0.5), (1, 0, 0.6)])

    def test_iou_table_window(self):
        # frames 1..8, identical boxes: only distances 1..5 stored
        dets = [det(f) for f in range(1, 9)]
        table = iou_match_table(dets, max_frame_gap=5)
        assert table.values_at(0, 1) == 1.0
        assert table.values_at(0, 5) == 1.0
        assert table.values_at(0, 6) == 0.0
        assert (0, 6) not in table.entries

    def test_iou_table_excludes_same_frame(self):
        dets = [det(1), det(1), det(2)]
        table = iou_match_table(dets)
        assert (0, 1) not in table.entries
        assert table.values_at(0, 2) == 1.0

    def test_iou_table_matches_double_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            dets = [
                det(int(f), left=float(x), top=float(y), size=float(s))
                for f, x, y, s in zip(rng.integers(1, 10, 25), rng.uniform(0, 30, 25),
                                      rng.uniform(0, 30, 25), rng.uniform(5, 15, 25))
            ]
            gap = int(rng.integers(1, 6))
            expected = []
            for a, da in enumerate(dets):
                for b in range(a + 1, len(dets)):
                    if 1 <= abs(dets[b].frame - da.frame) <= gap:
                        value = iou(da.box, dets[b].box)
                        if value > 0.0:
                            expected.append((a, b, value))
            table = iou_match_table(dets, max_frame_gap=gap)
            assert table.rows.tolist() == expected

    def test_text_roundtrip(self, tmp_path):
        dets = [det(1), det(1, left=20.0), det(2), det(3)]
        table = MatchTable([(0, 2, 0.8125), (2, 1, 0.25), (2, 3, 0.125)])
        path = tmp_path / "matches.txt"
        write_match_table(path, table, dets)
        assert path.read_text() == "1 0 2 0 0.8125\n1 1 2 0 0.25\n2 0 3 0 0.125\n"
        back = read_match_table(path, dets)
        assert back == table

    def test_read_reports_line_numbers(self, tmp_path):
        dets = [det(1), det(2)]
        path = tmp_path / "bad.txt"
        path.write_text("1 0 2 0 0.5\n1 0 2 0\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_match_table(path, dets)

    @pytest.mark.parametrize("lines, where, message", [
        ("1 0 2 0 0.5\n2 0 2 0 0.9\n", ":2:", r"self-loop \(1, 1\)"),
        ("1 0 2 0 0.5\n\n1 0 3 0 1.5\n", ":3:", r"outside \[0,1\]: 1.5"),
        ("1 0 2 0 nan\n", ":1:", r"outside \[0,1\]: nan"),
        ("1 0 2 0 0.9\n2 0 1 0 0.2\n", ":1,2:", r"conflicting .* 0.9 and 0.2"),
    ], ids=["self-pair", "out-of-range", "nan", "conflicting-lines"])
    def test_read_names_line_of_bad_row(self, tmp_path, lines, where, message):
        dets = [det(1), det(2), det(3)]
        path = tmp_path / "bad.txt"
        path.write_text(lines)
        with pytest.raises(ValueError, match=f"bad.txt{where} .*{message}"):
            read_match_table(path, dets)

    def test_read_collapses_equal_repeated_lines(self, tmp_path):
        dets = [det(1), det(2)]
        path = tmp_path / "matches.txt"
        path.write_text("1 0 2 0 0.5\n2 0 1 0 0.5\n")
        assert read_match_table(path, dets).rows.tolist() == [(0, 1, 0.5)]

    def test_read_rejects_unknown_detection(self, tmp_path):
        dets = [det(1), det(2)]
        path = tmp_path / "bad.txt"
        path.write_text("1 0 7 0 0.5\n")
        with pytest.raises(ValueError, match="no detection"):
            read_match_table(path, dets)


def fuzzed_match_rows(rng):
    """(u, v, value) rows in either endpoint order with planted self-loops,
    negative ids, values outside [0, 1] or non-finite, and equal and
    conflicting repeats; one case in ten has up to 300 rows."""
    big = rng.random() < 0.1
    n = int(rng.integers(2, 40) if big else rng.integers(2, 9))
    count = int(rng.integers(0, 300) if big else rng.integers(0, 12))
    # values tied to the pair, on a quarter grid, or uniform
    mode = rng.choice(["pair", "grid", "uniform"])
    by_pair = {}
    rows = []
    for _ in range(count):
        u, v = rng.choice(n, size=2, replace=False).tolist()
        if mode == "pair":
            value = by_pair.setdefault((min(u, v), max(u, v)), float(rng.random()))
        else:
            value = float(rng.integers(0, 5)) / 4 if mode == "grid" else float(rng.random())
        rows.append([u, v, value])
    rate = rng.choice([0.0, 0.05, 0.3])
    for i, row in enumerate(rows):
        if rng.random() >= rate:
            continue
        kind = int(rng.integers(5))
        earlier = rows[int(rng.integers(i))] if i else row
        if kind == 0:
            row[1] = row[0]
        elif kind == 1:
            row[int(rng.integers(2))] = -int(rng.integers(1, 3))
        elif kind == 2:
            row[2] = float(rng.choice([1.5, -0.25, 1.0 + 1e-12, np.nan, np.inf, -np.inf]))
        elif kind == 3:
            row[:] = [earlier[1], earlier[0], earlier[2]] if rng.random() < 0.5 else earlier
        else:
            row[:] = earlier[:2] + [float(rng.random())]
    return shaped_rows(rng, [tuple(r) for r in rows], MATCH_DTYPE)


class TestMatchTableMatchesReference:
    """`MatchTable` validates, sorts and collapses as the frozen validator did."""

    KINDS = ("self-loop", "negative detection id", "overlap for pair",
             "conflicting overlap values", "match table rows must be")

    def test_fuzzed_rows(self):
        rng = np.random.default_rng(14)
        kinds = set()
        for _ in range(1500):
            rows = fuzzed_match_rows(rng)
            want = pair_rows_outcome(lambda: (reference_match_rows(rows),))
            assert pair_rows_outcome(lambda: (MatchTable(rows).rows,)) == want, rows
            if isinstance(want, list):
                kinds.add("collapsed" if len(want[0][1]) < len(rows) else "accepted")
            else:
                kinds.add(next(k for k in self.KINDS if want[1].startswith(k)))
        assert kinds == {"accepted", "collapsed", *self.KINDS}


class TestGenerateLabels:
    def test_threshold_examples(self):
        table = MatchTable([(0, 1, 0.9), (0, 2, 0.05), (1, 2, 0.4)])
        rows, labels = generate_labels(table)
        assert rows.tolist() == [(0, 1, 0.9), (0, 2, 0.05)]
        assert labels.tolist() == [1, 0]

    def test_boundaries_belong_to_dead_zone(self):
        table = MatchTable([(0, 1, 0.7), (0, 2, 0.1)])
        rows, labels = generate_labels(table)
        assert len(rows) == len(labels) == 0

    def test_never_labels_dead_zone(self):
        cfg = AffinityConfig()
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            triples = []
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.5:
                        triples.append((a, b, float(rng.random())))
            table = MatchTable(triples)
            rows, labels = generate_labels(table, cfg)
            want = [(a, b, value) for a, b, value in triples
                    if value > cfg.t_high or value < cfg.t_low]
            assert rows.tolist() == want
            for (_, _, value), label in zip(want, labels.tolist()):
                assert label == (1 if value > cfg.t_high else 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AffinityConfig(t_low=0.7, t_high=0.1)
        with pytest.raises(ValueError):
            AffinityConfig(t_low=-0.1, t_high=0.7)


class TestFeatureVector:
    """Each row of `feature_matrix` is one pair's feature vector."""

    def test_full_config_layout(self):
        rows = feature_matrix([0.5, 0.25], [2.0, 4.0], NEARBY_FEATURES)
        assert np.array_equal(rows, [[1.0, 0.5, 2.0, 1.0], [1.0, 0.25, 4.0, 1.0]])

    def test_lifted_config_ignores_overlap(self):
        rows = feature_matrix([0.9, 0.0], [2.0, 2.0], LIFTED_FEATURES)
        assert np.array_equal(rows, [[1.0, 2.0], [1.0, 2.0]])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown feature"):
            feature_matrix([0.5], [1.0], ("bias", "velocity"))

    @pytest.mark.parametrize("config, message", [
        ((), "at least one feature"),
        (("bias", "d_ae", "bias"), "duplicate feature names"),
    ], ids=["empty", "repeated"])
    def test_bad_subset_rejected_before_fitting(self, config, message):
        with pytest.raises(ValueError, match=message):
            feature_matrix([0.5], [1.0], config)
        with pytest.raises(ValueError, match=message):
            fit_affinity_model([(0.5, 1.0), (0.1, 3.0)], [1.0, 0.0], config)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite.*row 1"):
            feature_matrix([0.5, 0.5], [1.0, math.inf], NEARBY_FEATURES)


class TestLatentDistances:
    """Blocked distances equal the one-shot `np.linalg.norm`, bit for bit."""

    def test_matches_one_shot_norm(self):
        rng = np.random.default_rng(31)
        block = affinity._DISTANCE_BLOCK
        # empty, one pair, the last pair of a block, the first of the next,
        # and several blocks
        for size in (0, 1, block, block + 1, 3 * block + 17):
            for dim in (1, 16, 32):
                latents = rng.normal(size=(50, dim)) * 10.0 ** rng.integers(-3, 4)
                u, v = rng.integers(0, 50, size=(2, size))
                got = latent_distances(latents, u, v)
                expected = np.linalg.norm(latents[u] - latents[v], axis=1)
                assert got.shape == expected.shape == (size,)
                assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestFitLogistic:
    def test_matches_reference_optimizer(self):
        rng = np.random.default_rng(11)
        features = np.column_stack(
            [np.ones(80), rng.normal(size=80), rng.uniform(0, 3, size=80)]
        )
        truth = np.array([0.3, 1.2, -0.8])
        labels = (rng.random(80) < expit(features @ truth)).astype(int)
        beta = fit_logistic(features, labels).beta
        expected = reference_beta(features, labels)
        assert np.max(np.abs(beta - expected)) < 1e-5

    def test_converges_on_pipeline_shaped_fit(self):
        # intercept, overlap in [0, 1] and a latent distance spread over
        # tens, as the pipeline fits: the Hessian is ill-conditioned, so
        # 2000 steepest-descent steps leave a gradient norm near 4e-3
        rng = np.random.default_rng(21)
        n = 3000
        features = np.column_stack(
            [np.ones(n), rng.uniform(0, 1, size=n), rng.uniform(0, 40, size=n)]
        )
        labels = (rng.random(n) < expit(features @ [1.0, 4.0, -0.3])).astype(int)
        fit = fit_logistic(features, labels)
        assert fit.converged
        assert fit.iterations < 50
        grad = (features.T @ (expit(features @ fit.beta) - labels) / n
                + L2_WEIGHT * fit.beta)
        assert np.linalg.norm(grad) < 1e-9
        assert fit.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-6, abs=1e-15)
        expected = reference_beta(features, labels)
        assert np.max(np.abs(fit.beta - expected)) < 1e-6
        assert np.array_equal(fit_logistic(features, labels).beta, fit.beta)

    def test_iteration_cap_reported(self, caplog, monkeypatch):
        rng = np.random.default_rng(23)
        raw = np.column_stack([rng.uniform(0, 1, size=100), rng.uniform(0, 20, size=100)])
        labels = (raw[:, 0] > 0.5).astype(int)
        with caplog.at_level(logging.WARNING, logger="liftedtrack.affinity"):
            fit_affinity_model(raw, labels, NEARBY_FEATURES)
        assert not caplog.records

        features = feature_matrix(raw[:, 0], raw[:, 1], NEARBY_FEATURES)
        monkeypatch.setattr(affinity, "FIT_MAX_ITERS", 1)
        capped = fit_logistic(features, labels)
        assert (capped.iterations, capped.converged) == (1, False)
        assert capped.grad_norm > 1e-9

        with caplog.at_level(logging.WARNING, logger="liftedtrack.affinity"):
            model = fit_affinity_model(raw, labels, NEARBY_FEATURES)
        assert model.beta == tuple(capped.beta)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert "bias+iou_dm+d_ae+product" in message
        assert "after 1 iterations" in message
        assert f"{capped.grad_norm:.3g}" in message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match=r"non-finite.*row 1"):
            fit_logistic([[1.0, 2.0], [bad, 1.0], [1.0, 0.5]], [0, 1, 1])

    def test_separable_slope_and_accuracy(self):
        # one feature: +2 for label 1, -2 for label 0
        features = np.array([[2.0]] * 6 + [[-2.0]] * 6)
        labels = np.array([1] * 6 + [0] * 6)
        beta = fit_logistic(features, labels).beta
        assert beta[0] > 0
        preds = (expit(features @ beta) > 0.5).astype(int)
        assert np.array_equal(preds, labels)

    def test_uninformative_features_predict_near_prior(self):
        rng = np.random.default_rng(12)
        features = np.column_stack([np.ones(40), rng.normal(size=40)])
        labels = np.array([0, 1] * 20)
        beta = fit_logistic(features, rng.permutation(labels)).beta
        probs = expit(features @ beta)
        assert np.all(probs > 0.35) and np.all(probs < 0.65)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(13)
        features = np.column_stack([np.ones(30), rng.normal(size=30)])
        labels = (rng.random(30) < 0.5).astype(int)
        beta_once = fit_logistic(features, labels).beta
        beta_twice = fit_logistic(np.vstack([features, features]),
                                  np.concatenate([labels, labels])).beta
        assert np.max(np.abs(beta_once - beta_twice)) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        features = np.column_stack([np.ones(50), rng.normal(size=50)])
        labels = (rng.random(50) < 0.5).astype(int)
        base = fit_logistic(features, labels).beta
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(50)
            shuffled = fit_logistic(features[order], labels[order]).beta
            assert np.max(np.abs(base - shuffled)) < 1e-6

    def test_single_class_rejected(self):
        features = np.ones((5, 1))
        with pytest.raises(ValueError, match="each label"):
            fit_logistic(features, np.ones(5, dtype=int))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            fit_logistic(np.ones((5, 2)), np.array([0, 1]))

    def test_monotone_in_overlap(self):
        # labels induced by the thresholds force a positive overlap slope
        rng = np.random.default_rng(15)
        table = MatchTable([(0, i + 1, float(v)) for i, v in enumerate(rng.random(60))])
        rows, labels = generate_labels(table)
        raw = [(value, 0.0) for value in rows["value"]]
        model = fit_affinity_model(raw, labels, ("bias", "iou_dm"))
        grid = predict_p_same(model, feature_matrix(np.linspace(0, 1, 11), 0.0,
                                                     model.feature_config))
        assert np.all(np.diff(grid) > 0)


class TestAffinityModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown feature"):
            AffinityModel(("bias", "speed"), (0.0, 1.0))
        with pytest.raises(ValueError, match="coefficients for"):
            AffinityModel(("bias", "d_ae"), (0.0,))
        with pytest.raises(ValueError, match="duplicate"):
            AffinityModel(("bias", "bias"), (0.0, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            AffinityModel(("bias",), (math.nan,))

    def test_json_roundtrip(self, tmp_path):
        model = AffinityModel(NEARBY_FEATURES, (0.25, -1.5, 3.0, 0.0))
        path = tmp_path / "model.json"
        model.save(path)
        assert AffinityModel.load(path) == model

    def test_predict_dimension_mismatch(self):
        model = AffinityModel(("bias", "d_ae"), (0.0, 1.0))
        with pytest.raises(ValueError, match="dimension"):
            predict_p_same(model, np.ones(3))

    def test_zero_score_gives_half(self):
        model = AffinityModel(("bias", "d_ae"), (0.0, 0.0))
        rows = feature_matrix(0.3, 5.0, model.feature_config)
        assert predict_p_same(model, rows) == 0.5

    def test_probability_strictly_inside_unit_interval(self):
        model = AffinityModel(("bias", "d_ae"), (30.0, -50.0))
        p = predict_p_same(model, feature_matrix(0.0, [0.0, 1.0, 100.0],
                                                 model.feature_config))
        assert np.all((0.0 < p) & (p < 1.0))

    def test_sigmoid_monotone_in_score(self):
        model = AffinityModel(("bias", "d_ae"), (0.0, 1.0))
        probs = predict_p_same(model, feature_matrix(0.0, np.linspace(-5, 5, 21),
                                                     model.feature_config))
        assert np.all(np.diff(probs) > 0)


class TestEdgeCost:
    def test_half_maps_to_exact_zero(self):
        assert edge_cost(0.5) == 0.0

    def test_frozen_high_confidence_value(self):
        # logit(0.9) = ln 9
        assert edge_cost(0.9) == pytest.approx(2.1972245773362196, abs=1e-12)

    def test_antisymmetry(self):
        for p in (0.01, 0.2, 0.4, 0.6, 0.9, 0.999):
            assert edge_cost(p) == pytest.approx(-edge_cost(1.0 - p), abs=1e-12)

    def test_clamped_and_finite_everywhere(self):
        assert math.isfinite(edge_cost(0.0))
        assert math.isfinite(edge_cost(1.0))
        assert edge_cost(0.0) == pytest.approx(math.log(1e-6 / (1 - 1e-6)), rel=1e-12)
        assert edge_cost(-3.0) == edge_cost(0.0)
        assert edge_cost(7.0) == edge_cost(1.0)

    def test_roundtrip_through_sigmoid(self):
        for p in (0.1, 0.5, 0.9):
            assert expit(edge_cost(p)) == pytest.approx(p, abs=1e-12)

    def test_elementwise_matches_scalar_calls(self):
        probs = [-1.0, 0.0, 1e-7, 0.3, 0.5, 0.9, 1.0, 2.0]
        assert edge_cost(np.array(probs)).tolist() == [edge_cost(p) for p in probs]


class TestAssembleCosts:
    def _models(self):
        # confidently separated training pairs: close-and-overlapping vs far
        rng = np.random.default_rng(20)
        raw, labels = [], []
        for _ in range(40):
            raw.append((float(rng.uniform(0.75, 1.0)), float(rng.uniform(0.0, 0.5))))
            labels.append(1)
            raw.append((float(rng.uniform(0.0, 0.05)), float(rng.uniform(2.0, 4.0))))
            labels.append(0)
        nearby = fit_affinity_model(raw, labels, NEARBY_FEATURES)
        lifted = fit_affinity_model(raw, labels, LIFTED_FEATURES)
        return nearby, lifted

    def test_same_frame_edges_fixed_strong_cut(self):
        nearby, lifted = self._models()
        dets = [det(1), det(1, left=40.0), det(2)]
        instance = build_graph(dets, max_frame_gap=1)
        table = iou_match_table(dets)
        latents = np.zeros((3, 4))
        costed = assemble_costs(instance, dets, table, latents, nearby, lifted)
        by_pair = {(u, v): c for u, v, c in costed.edges}
        assert by_pair[(0, 1)] == edge_cost(0.0)

    def test_lifted_cost_ignores_overlap_perturbation(self):
        nearby, lifted = self._models()
        dets = [det(f) for f in range(1, 6)]
        instance = build_graph(dets, max_frame_gap=1, lifted_gaps=(4,))
        latents = np.arange(20, dtype=float).reshape(5, 4) * 0.05
        high = MatchTable([(0, 1, 0.9), (0, 4, 0.9)])
        low = MatchTable([])
        costed_high = assemble_costs(instance, dets, high, latents, nearby, lifted)
        costed_low = assemble_costs(instance, dets, low, latents, nearby, lifted)
        assert np.array_equal(costed_high.lifted_edges, costed_low.lifted_edges)
        assert not np.array_equal(costed_high.edges, costed_low.edges)

    def test_all_high_overlap_sequence_merges_to_one_cluster(self):
        nearby, lifted = self._models()
        dets = [det(f, left=0.5 * f) for f in range(1, 6)]
        instance = build_graph(dets, max_frame_gap=2)
        table = iou_match_table(dets)
        latents = np.zeros((5, 4))
        costed = assemble_costs(instance, dets, table, latents, nearby, lifted)
        assert all(c > 0 for _, _, c in costed.edges)
        partition, _ = solve_bruteforce(costed)
        assert len(partition.blocks()) == 1

    def test_matches_per_pair_scalar_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            dets = [det(int(f), left=float(x)) for f, x in
                    zip(rng.integers(1, 16, n), rng.uniform(0, 20, n))]
            instance = build_graph(dets, max_frame_gap=2, lifted_gaps=(5, 9))
            # about half the regular pairs are missing from the table
            table = MatchTable([
                (u, v, float(rng.random()))
                for u, v, _ in instance.edges if rng.random() < 0.5
            ])
            latents = rng.normal(size=(n, 6))
            nearby = AffinityModel(NEARBY_FEATURES, tuple(rng.normal(size=4)))
            lifted = AffinityModel(LIFTED_FEATURES, tuple(rng.normal(size=2)))
            costed = assemble_costs(instance, dets, table, latents, nearby, lifted)
            for got, model in ((costed.edges, nearby), (costed.lifted_edges, lifted)):
                want = scalar_costs(dets, table, latents, model, got)
                assert [(u, v) for u, v, _ in got] == [(u, v) for u, v, _ in want]
                for (u, v, c), (_, _, w) in zip(got, want):
                    if dets[u].frame == dets[v].frame:
                        assert c == w
                    assert abs(c - w) <= 1e-12 * max(1.0, abs(w))

    def test_missing_latents_rejected(self):
        nearby, lifted = self._models()
        dets = [det(1), det(2), det(3)]
        instance = build_graph(dets, max_frame_gap=1)
        with pytest.raises(ValueError, match="latents"):
            assemble_costs(instance, dets, MatchTable([]), np.zeros((2, 4)),
                           nearby, lifted)


def scalar_costs(dets, table, latents, model, edges):
    """Per-pair reference: 1-D norm, scalar dot, logit; logit(eps) in-frame."""
    out = []
    for u, v, _ in edges:
        if dets[u].frame == dets[v].frame:
            p = PROB_EPS
        else:
            overlap = table.entries.get((u, v), 0.0)
            d_ae = float(np.linalg.norm(latents[u] - latents[v]))
            values = {"bias": 1.0, "iou_dm": overlap, "d_ae": d_ae,
                      "product": overlap * d_ae}
            x = np.array([values[name] for name in model.feature_config])
            p = min(max(float(expit(x @ np.array(model.beta))), PROB_EPS), 1 - PROB_EPS)
        out.append((u, v, math.log(p) - math.log1p(-p)))
    return out


class TestLatentCodes:
    SMALL = ArchConfig(input_shape=(3, 8, 8), conv_channels=(4, 6), latent_dim=5)

    def _detections(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return [
            Detection(1 + i, BBox(0.0, 0.0, 8.0, 8.0),
                      image=rng.uniform(0.05, 0.95, size=(3, 8, 8)))
            for i in range(n)
        ]

    def test_matches_per_image_encode_across_chunks(self):
        model = AutoEncoder(self.SMALL, seed=0)
        dets = self._detections(LATENT_CHUNK + 6)
        codes = latent_codes(model, dets)
        single = np.array([model.encode_batch(d.image[None])[0][0] for d in dets])
        assert codes.shape == (len(dets), 5)
        np.testing.assert_allclose(codes, single, rtol=1e-12, atol=1e-12)

    def test_missing_image_named(self):
        model = AutoEncoder(self.SMALL, seed=0)
        dets = self._detections(3)
        dets[1] = Detection(2, BBox(0.0, 0.0, 8.0, 8.0))
        with pytest.raises(ValueError, match="detection 1 has no image"):
            latent_codes(model, dets)

    def test_empty(self):
        model = AutoEncoder(self.SMALL, seed=0)
        assert latent_codes(model, []).shape == (0, self.SMALL.latent_dim)

    def test_non_finite_code_named(self):
        model = AutoEncoder(self.SMALL, seed=0)
        dets = self._detections(LATENT_CHUNK + 3)
        dets[LATENT_CHUNK + 1].image[0, 2, 5] = np.nan
        with pytest.raises(ValueError,
                           match=f"detection {LATENT_CHUNK + 1} has a non-finite"):
            latent_codes(model, dets)
