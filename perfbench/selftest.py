"""Self-test of the output checks: each must reject one corrupted result.

    python3 perfbench/selftest.py

Tracks a short benchmark scene with lifted edges, confirms every check
accepts the program's real output, then feeds each check a copy with one
fault planted and confirms that check rejects it. Exits 1 if a clean
result is rejected or a corrupted one gets through.
"""

import copy
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from liftedtrack.pipeline import PipelineConfig  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import InMemory  # noqa: E402

FRAMES = 36
CONFIG = dataclasses.replace(PipelineConfig(), epochs=1, lifted_gaps=(10, 20))


def tracked_calls():
    """Captured calls of one real tracked sequence."""
    workload = InMemory(FRAMES, CONFIG)
    recorder = Recorder(traced=False)
    recorder.install()
    try:
        workload.operation(workload.setup(seed=0, workdir=None))
    finally:
        recorder.uninstall()
    return recorder.take_calls()


def _replace_result(calls, name, result):
    out = copy.copy(calls)
    (arguments, _), = calls[name]
    out[name] = [(arguments, result)]
    return out


def cases(calls):
    """(what is corrupted, check expected to reject it, thunk running the check)."""
    (cost_args, costed), = calls["affinity.assemble_costs"]
    (build_args, built), = calls["graph.build_graph"]
    (_, (gaec_partition, gaec_value)), = calls["solver.gaec"]
    (_, (kl_partition, kl_value)), = calls["solver.kl"]
    (eval_args, report), = calls["metrics.evaluate"]
    (latent_args, latents), = calls["affinity.latent_codes"][:1]
    graph = checks.Graph.of(costed)
    frames = np.array([det.frame for det in cost_args["detections"]])
    labels = np.array(kl_partition.component_of)

    # A cluster of the first and the last detection: no regular edge spans
    # more than max_frame_gap frames, so it cannot be connected.
    first, last = int(np.argmin(frames)), int(np.argmax(frames))
    split = labels.copy()
    split[[first, last]] = labels.max() + 1

    bumped = list(costed.edges)
    u, v, c = bumped[0]
    bumped[0] = (u, v, c + 1e-3)
    bumped_costs = dataclasses.replace(costed, edges=tuple(bumped))

    dropped = checks.Graph(built.num_nodes, built.edges[1:], built.lifted_edges)
    fewer_lifted = checks.Graph(costed.num_nodes, costed.edges, costed.lifted_edges[1:])

    nudged = np.array(latents, dtype=float)
    nudged[0, 0] += 1e-6
    reference = checks.reference_latents(latent_args["model"], latent_args["detections"])

    gt = eval_args["gt"]
    hyp = eval_args["hyp"].to_mot_records()
    gap = [r for r in hyp if not (r.track_id == hyp[0].track_id
                                   and r.frame == hyp[0].frame + 1)]
    wrong_count = dataclasses.replace(report, fp=report.fp + 1)

    nearby, lifted = cost_args["model_nearby"], cost_args["model_lifted"]
    models = ((nearby.feature_config, nearby.beta), (lifted.feature_config, lifted.beta))

    return [
        ("disconnected cluster", "clusters_connected",
         lambda: checks.check_clusters_connected(graph, split)),
        ("perturbed cost", "costs",
         lambda: checks.check_costs(checks.Graph.of(bumped_costs), frames,
                                    cost_args["table"].entries, cost_args["latents"],
                                    *models)),
        ("wrong objective", "objective.kl",
         lambda: checks.check_objective("objective.kl", graph, labels,
                                        kl_value * (1 + 1e-8) - 1e-8)),
        ("dropped edge", "edge_counts",
         lambda: checks.check_edge_counts(frames, build_args["max_frame_gap"],
                                          build_args["lifted_gaps"], dropped)),
        ("dropped lifted edge after gating", "lifted_gating",
         lambda: checks.check_lifted_gating(frames, build_args["lifted_gaps"],
                                            np.asarray(cost_args["latents"]),
                                            CONFIG.lifted_percentile, fewer_lifted)),
        ("KL above GAEC", "solver_order",
         lambda: checks.check_solver_order(graph, gaec_value, gaec_value + 1.0)),
        ("perturbed latent code", "latents",
         lambda: checks.check_latents(nudged, reference)),
        ("false positive count off by one", "clear_mot",
         lambda: checks.check_clear_mot(wrong_count, len(gt), len(hyp))),
        ("track skipping a frame", "tracks",
         lambda: checks.check_tracks(gap)),
        ("solver result with a wrong objective", "objective.kl",
         lambda: checks.verify_operation(_replace_result(
             calls, "solver.kl", (kl_partition, kl_value + 1.0)))),
        ("costed instance with a perturbed cost", "costs",
         lambda: checks.verify_operation(_replace_result(
             calls, "affinity.assemble_costs", bumped_costs))),
        ("GAEC partition with a disconnected cluster", "clusters_connected",
         lambda: checks.verify_operation(_replace_result(
             calls, "solver.gaec",
             (type(gaec_partition).from_labels(split.tolist()),
              checks.objective(graph, split))))),
    ]


def main():
    calls = tracked_calls()
    failures = 0
    try:
        facts = checks.verify_operation(calls)
        print(f"clean result accepted: KL moves {facts['solver.kl_moves']}, "
              f"|F| kept {facts['graph.lifted_kept']}, IDF1 {facts['idf1']:.4f}")
    except checks.CheckFailed as exc:
        print(f"FAIL clean result rejected: {exc}")
        failures += 1
    for what, expected, run in cases(calls):
        try:
            run()
        except checks.CheckFailed as exc:
            if exc.check == expected:
                print(f"ok   {what}: rejected by {exc.check}")
                continue
            print(f"FAIL {what}: rejected by {exc.check}, expected {expected}")
        else:
            print(f"FAIL {what}: accepted, expected {expected} to reject it")
        failures += 1
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
