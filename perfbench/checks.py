"""Output checks for one tracked sequence, computed apart from liftedtrack.

Every check recomputes a property of the program's output from its inputs
with plain numpy and scipy, and raises CheckFailed naming itself when the
output disagrees. Nothing here calls liftedtrack code except the one
reference the latent check is defined against (`encode_batch`).
"""

from collections import defaultdict

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# Probabilities are clamped into [EPS, 1 - EPS] before the logit.
PROB_EPS = 1e-6
# Weight of the 0.5 * ||beta||^2 term of the affinity log-loss.
L2_WEIGHT = 1e-4

OBJECTIVE_RTOL = 1e-9
COST_TOL = 1e-9
LATENT_TOL = 1e-9


class CheckFailed(Exception):
    def __init__(self, check, message):
        super().__init__(f"{check}: {message}")
        self.check = check


def _require(condition, check, message):
    if not condition:
        raise CheckFailed(check, message)


class Graph:
    """Endpoints and costs of an instance's regular (E) and lifted (F) edges."""

    def __init__(self, num_nodes, edges, lifted):
        self.n = int(num_nodes)
        self.eu, self.ev, self.ec = _columns(edges)
        self.fu, self.fv, self.fc = _columns(lifted)

    @classmethod
    def of(cls, instance):
        return cls(instance.num_nodes, instance.edges, instance.lifted_edges)


def _columns(triples):
    if len(triples) == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    u, v, c = zip(*triples)
    return np.array(u, np.int64), np.array(v, np.int64), np.array(c, float)


def _join_components(graph, labels):
    """Components of the subgraph of regular edges inside one cluster."""
    inside = labels[graph.eu] == labels[graph.ev]
    ones = np.ones(int(inside.sum()))
    join = coo_matrix((ones, (graph.eu[inside], graph.ev[inside])),
                      shape=(graph.n, graph.n))
    count, comp = connected_components(join, directed=False)
    return count, comp, inside


def objective(graph, labels):
    """Cut regular edges plus lifted edges whose ends no join path links."""
    labels = np.asarray(labels)
    _, comp, inside = _join_components(graph, labels)
    lifted_cut = comp[graph.fu] != comp[graph.fv]
    return float(graph.ec[~inside].sum() + graph.fc[lifted_cut].sum())


def check_objective(check, graph, labels, returned):
    value = objective(graph, labels)
    _require(abs(value - returned) <= OBJECTIVE_RTOL * max(1.0, abs(returned)),
             check, f"recomputed {value!r}, solver returned {returned!r}")


def check_solver_order(graph, gaec_value, kl_value):
    """KL never above GAEC, GAEC never above cutting every edge."""
    all_cut = float(graph.ec.sum() + graph.fc.sum())
    slack = OBJECTIVE_RTOL * max(1.0, abs(all_cut))
    _require(kl_value <= gaec_value + slack, "solver_order",
             f"KL objective {kl_value!r} above GAEC {gaec_value!r}")
    _require(gaec_value <= all_cut + slack, "solver_order",
             f"GAEC objective {gaec_value!r} above all-cut {all_cut!r}")


def check_clusters_connected(graph, labels):
    labels = np.asarray(labels)
    count, comp, _ = _join_components(graph, labels)
    clusters = len(np.unique(labels))
    if count != clusters:
        pieces = defaultdict(set)
        for node, label in enumerate(labels):
            pieces[label].add(comp[node])
        broken = min(label for label, parts in pieces.items() if len(parts) > 1)
        raise CheckFailed("clusters_connected",
                          f"cluster {broken} falls apart into "
                          f"{len(pieces[broken])} pieces over regular edges")


def _pairs_at_gap(hist, gap):
    return int((hist[:-gap] * hist[gap:]).sum()) if gap < len(hist) else 0


def check_edge_counts(frames, max_gap, lifted_gaps, graph):
    """|E| and the pre-gating |F| from the per-frame detection histogram."""
    frames = np.asarray(frames)
    hist = np.bincount(frames - frames.min()).astype(np.int64)
    regular = int((hist * (hist - 1) // 2).sum())
    regular += sum(_pairs_at_gap(hist, d) for d in range(1, max_gap + 1))
    lifted = sum(_pairs_at_gap(hist, g) for g in set(lifted_gaps))
    _require(len(graph.eu) == regular, "edge_counts",
             f"|E| = {len(graph.eu)}, histogram gives {regular}")
    _require(len(graph.fu) == lifted, "edge_counts",
             f"|F| = {len(graph.fu)} before gating, histogram gives {lifted}")


def lifted_pairs(frames, lifted_gaps):
    """Every detection pair whose frames lie exactly a lifted gap apart."""
    frames = np.asarray(frames)
    by_frame = defaultdict(list)
    for node, frame in enumerate(frames):
        by_frame[int(frame)].append(node)
    us, vs = [], []
    for gap in sorted(set(lifted_gaps)):
        for frame, nodes in by_frame.items():
            later = by_frame.get(frame + gap)
            if later:
                a, b = np.meshgrid(nodes, later, indexing="ij")
                us.append(np.minimum(a, b).ravel())
                vs.append(np.maximum(a, b).ravel())
    if not us:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate(us), np.concatenate(vs)


def check_lifted_gating(frames, lifted_gaps, latents, percentile, graph):
    """Kept |F| = lifted pairs with latent distance below the percentile."""
    u, v = lifted_pairs(frames, lifted_gaps)
    expected = 0
    if len(u):
        dist = np.linalg.norm(latents[u] - latents[v], axis=1)
        expected = int((dist < np.percentile(dist, percentile)).sum())
    _require(len(graph.fu) == expected, "lifted_gating",
             f"kept |F| = {len(graph.fu)}, percentile gate gives {expected}")


def _sigmoid(margin):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-margin))


def features(names, overlap, distance):
    columns = {
        "bias": np.ones_like(distance),
        "iou_dm": overlap,
        "d_ae": distance,
        "product": overlap * distance,
    }
    return np.column_stack([columns[name] for name in names])


def expected_costs(u, v, frames, overlap_of, latents, feature_names, beta):
    """logit(clip(sigmoid(x . beta))); logit(EPS) for same-frame pairs."""
    overlap = np.array([overlap_of.get((a, b), 0.0) for a, b in zip(u.tolist(), v.tolist())])
    distance = np.linalg.norm(latents[u] - latents[v], axis=1)
    margin = features(feature_names, overlap, distance) @ np.asarray(beta, float)
    p = np.clip(_sigmoid(margin), PROB_EPS, 1.0 - PROB_EPS)
    p = np.where(frames[u] == frames[v], PROB_EPS, p)
    return np.log(p) - np.log1p(-p)


def check_costs(graph, frames, overlap_of, latents, nearby, lifted):
    """`nearby`/`lifted` are (feature names, beta) of the two affinity models."""
    frames = np.asarray(frames)
    for kind, u, v, got, (names, beta) in (
        ("regular", graph.eu, graph.ev, graph.ec, nearby),
        ("lifted", graph.fu, graph.fv, graph.fc, lifted),
    ):
        if not len(u):
            continue
        want = expected_costs(u, v, frames, overlap_of, latents, names, beta)
        bad = np.abs(got - want) > COST_TOL * np.maximum(1.0, np.abs(want))
        if bad.any():
            i = int(np.argmax(bad))
            raise CheckFailed("costs", f"{kind} edge ({u[i]}, {v[i]}) costs "
                              f"{got[i]!r}, recomputed {want[i]!r}")


def check_latents(latents, reference):
    latents = np.asarray(latents)
    _require(np.isfinite(latents).all(), "latents", "non-finite latent code")
    _require(latents.shape == reference.shape, "latents",
             f"shape {latents.shape}, encode_batch gives {reference.shape}")
    err = float(np.max(np.abs(latents - reference), initial=0.0))
    _require(err <= LATENT_TOL, "latents",
             f"latent codes differ from encode_batch by {err:.3g}")


def check_clear_mot(report, num_gt, num_hyp):
    mota = 1.0 - (report.fn + report.fp + report.ids) / num_gt
    _require(abs(report.mota - mota) <= 1e-12, "clear_mot",
             f"MOTA {report.mota!r} but 1 - (FN + FP + IDs) / |gt| = {mota!r}")
    _require(num_hyp == num_gt - report.fn + report.fp, "clear_mot",
             f"|hyp| = {num_hyp} but |gt| - FN + FP = "
             f"{num_gt - report.fn + report.fp}")


def check_tracks(records):
    """Each track id covers a contiguous frame range, one box per frame."""
    frames = defaultdict(list)
    for rec in records:
        frames[rec.track_id].append(rec.frame)
    for track_id, seen in frames.items():
        seen.sort()
        _require(len(set(seen)) == len(seen), "tracks",
                 f"track id {track_id} used twice in one frame")
        _require(seen == list(range(seen[0], seen[-1] + 1)), "tracks",
                 f"track {track_id} skips frames between {seen[0]} and {seen[-1]}")


def logloss_grad_norm(x, y, beta, l2=L2_WEIGHT):
    """Norm of the gradient of mean log-loss + l2/2 ||beta||^2 at beta."""
    beta = np.asarray(beta, float)
    p = _sigmoid(x @ beta)
    grad = x.T @ (p - y) / len(y) + l2 * beta
    return float(np.linalg.norm(grad))


# -- one operation's captured calls ---------------------------------------------


def _records(source):
    return source.to_mot_records() if hasattr(source, "to_mot_records") else list(source)


def reference_latents(model, detections, chunk=64):
    """`encode_batch` on the stacked patches, a chunk at a time to bound memory."""
    images = np.stack([det.image for det in detections])
    return np.concatenate([model.encode_batch(images[i:i + chunk])[0]
                           for i in range(0, len(images), chunk)])


def _single(calls, name):
    found = calls.get(name, [])
    if len(found) != 1:
        raise CheckFailed("calls", f"expected one {name} call, saw {len(found)}")
    return found[0]


def fit_facts(arguments, models):
    """Labeled pair count and gradient norms of both fitted affinity models."""
    config = arguments["config"]
    entries = arguments["table"].entries
    pairs = np.array(list(entries.keys()), np.int64).reshape(-1, 2)
    overlap = np.array(list(entries.values()), float)
    keep = (overlap > config.t_high) | (overlap < config.t_low)
    pairs, overlap = pairs[keep], overlap[keep]
    labels = (overlap > config.t_high).astype(float)
    latents = np.asarray(arguments["latents"], float)
    distance = np.linalg.norm(latents[pairs[:, 0]] - latents[pairs[:, 1]], axis=1)
    facts = {"affinity.labeled_pairs": len(labels)}
    for kind, model in zip(("nearby", "lifted"), models):
        x = features(model.feature_config, overlap, distance)
        facts[f"affinity.{kind}_grad_norm"] = logloss_grad_norm(x, labels, model.beta)
    return facts


def verify_operation(calls):
    """Run every check on one tracked sequence; return the facts it measured.

    `calls` maps span names to the (arguments, result) pairs captured while
    the sequence was tracked.
    """
    facts = {}
    for arguments, latents in calls.get("affinity.latent_codes", []):
        check_latents(latents, reference_latents(arguments["model"],
                                                 arguments["detections"]))

    track_args, _ = _single(calls, "pipeline.run_tracking")
    build_args, built = _single(calls, "graph.build_graph")
    cost_args, costed = _single(calls, "affinity.assemble_costs")
    gaec_args, (gaec_partition, gaec_value) = _single(calls, "solver.gaec")
    kl_args, (kl_partition, kl_value) = _single(calls, "solver.kl")
    _, tracks = _single(calls, "pipeline.clusters_to_tracks")
    eval_args, report = _single(calls, "metrics.evaluate")

    frames = np.array([det.frame for det in cost_args["detections"]])
    gaps = build_args["lifted_gaps"]
    latents = np.asarray(cost_args["latents"], float)
    check_edge_counts(frames, build_args["max_frame_gap"], gaps, Graph.of(built))
    graph = Graph.of(costed)
    check_lifted_gating(frames, gaps, latents, track_args["config"].lifted_percentile,
                        graph)
    nearby, lifted = cost_args["model_nearby"], cost_args["model_lifted"]
    check_costs(graph, frames, cost_args["table"].entries, latents,
                (nearby.feature_config, nearby.beta), (lifted.feature_config, lifted.beta))
    gaec_labels = np.array(gaec_partition.component_of)
    kl_labels = np.array(kl_partition.component_of)
    check_objective("objective.gaec", graph, gaec_labels, gaec_value)
    check_objective("objective.kl", graph, kl_labels, kl_value)
    check_solver_order(graph, gaec_value, kl_value)
    check_clusters_connected(graph, gaec_labels)
    check_clusters_connected(graph, kl_labels)
    gt, hyp = _records(eval_args["gt"]), _records(eval_args["hyp"])
    check_tracks(hyp)
    check_clear_mot(report, len(gt), len(hyp))

    facts.update({
        "graph.edges": len(built.edges),
        "graph.lifted_built": len(built.lifted_edges),
        "graph.lifted_kept": len(costed.lifted_edges),
        "affinity.pairs_costed": len(costed.edges) + len(costed.lifted_edges),
        "solver.gaec_contractions": len(gaec_args["trace"]) - 1,
        "solver.gaec_objective": gaec_value,
        "solver.kl_moves": len(kl_args["trace"]) - 1,
        "solver.kl_objective": kl_value,
        "pipeline.clusters_dropped": len(np.unique(kl_labels)) - len(tracks.tracks),
        "metrics.mota": report.mota,
        "metrics.id_switches": report.ids,
        "idf1": report.idf1,
    })
    return facts


def setup_facts(calls):
    """Facts of the layers that may run in set-up: pregroup, training, fit."""
    facts = {}
    for arguments, models in calls.get("affinity.fit", []):
        facts.update(fit_facts(arguments, models))
    for _, tracklets in calls.get("pipeline.pregroup", []):
        facts["pipeline.tracklets"] = len(tracklets)
    for _, (_, epochs) in calls.get("embedding.train", []):
        facts["embedding.epochs"] = len(epochs)
        facts["embedding.final_loss"] = epochs[-1].loss
    return facts
