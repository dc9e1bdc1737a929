"""Time every pipeline stage on longer and longer scenes and print how each grows.

Usage: python3 tools/scaling.py   (run from the repository root)

It runs the in-memory pipeline (synth, pregroup, train, encode, fit,
then `run_tracking`, then eval) on `benchmark_spec(N)` for N = 100, 200,
400 and 800 frames, on data seed 0 with 4 training epochs and the
default config otherwise. Each stage is timed by wrapping its name in
`liftedtrack.pipeline` for the run, as `solver_parity.py` captures
`solve_gaec`. Synth and eval run outside the pipeline and are timed at
the call.

Each scene is set up once (synth, pregroup, train, encode, fit, each
timed once), and then tracked and scored on the same inputs at least 3
times, and until those runs have taken at least 0.2 s together, so a
small scene's stages are not timed over one slow stretch of a shared
machine. Every stage of those runs (graph, gate, costs, gaec, kl,
tracks, eval, and the encode that `run_tracking` asks for again, a key
check that finds the set-up's codes) is the fastest of its times.
Encode shows the set-up's time plus that fastest check.

It prints one column per N: the graph that GAEC solves (|V|, |E|+|F|
after the lifted gate), KL's improving moves, the tracking runs timed,
each stage's seconds, and GAEC's microseconds per pair of E and F. The
last column is each stage's log-log slope between the two largest
scenes against |V|+|E|+|F|: about 1 for a stage linear in the graph,
above 1 for a superlinear one. The set-up stages come from one run, so
one that takes well under a second can read twice its time from one run
to the next; a slope there is a hint to measure again, not a verdict.
The last line is the probe's wall time: about 13 s (2 CPUs, Python
3.11, numpy 2.4), most of it training.
"""

import dataclasses
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from liftedtrack import metrics, pipeline  # noqa: E402
from liftedtrack.pipeline import PipelineConfig  # noqa: E402
from liftedtrack.synth import benchmark_spec, synth_sequence  # noqa: E402

FRAMES = (100, 200, 400, 800)
DATA_SEED = 0
EPOCHS = 4
# tracking runs per scene: at least this many, taking at least this long
MIN_RUNS = 3
MIN_RUN_SECONDS = 0.2
# stage -> the name in `liftedtrack.pipeline` that runs it
WRAPPED = {
    "pregroup": "pregroup",
    "train": "train",
    "encode": "latent_codes",
    "fit": "fit_affinity_models",
    "graph": "build_graph",
    "gate": "_gate_lifted",
    "costs": "assemble_costs",
    "gaec": "solve_gaec",
    "kl": "solve_kl",
    "tracks": "clusters_to_tracks",
}
STAGES = ("synth", *WRAPPED, "eval")


def _timed(seconds: dict, stage: str, func):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start
    return wrapper


def run_scene(num_frames: int, config: PipelineConfig) -> dict:
    """Stage seconds and graph counts of one in-memory set-up on
    `num_frames` and the fastest of its tracking runs."""
    seconds, counts = {}, {}
    kl = pipeline.solve_kl

    def solve_kl(instance, initial):
        trace = []
        counts.update(nodes=instance.num_nodes,
                      pairs=instance.num_edges + instance.num_lifted)
        result = kl(instance, initial, trace=trace)
        counts["kl moves"] = len(trace) - 1
        return result

    originals = {name: getattr(pipeline, name) for name in WRAPPED.values()}
    for stage, name in WRAPPED.items():
        func = solve_kl if name == "solve_kl" else originals[name]
        setattr(pipeline, name, _timed(seconds, stage, func))
    try:
        result = _timed(seconds, "synth", synth_sequence)(benchmark_spec(num_frames),
                                                          seed=DATA_SEED)
        detections, table = result.detections, result.table
        tracklets = pipeline.pregroup(detections, table,
                                      threshold=config.pregroup_threshold,
                                      max_gap=config.pregroup_max_gap)
        model, _ = pipeline.train_embedding(detections, tracklets, config)
        latents = pipeline.latent_codes(model, detections)
        models = pipeline.fit_affinity_models(detections, table, latents, config)
        setup = dict(seconds)
        runs = []
        start = time.perf_counter()
        while len(runs) < MIN_RUNS or time.perf_counter() - start < MIN_RUN_SECONDS:
            seconds.clear()
            tracks = pipeline.run_tracking(detections, table, model, models, config)
            _timed(seconds, "eval", metrics.evaluate_clear_mot)(result.gt, tracks)
            runs.append(dict(seconds))
    finally:
        for name, func in originals.items():
            setattr(pipeline, name, func)
    fastest = {stage: min(run[stage] for run in runs) for stage in runs[0]}
    total = {stage: setup.get(stage, 0.0) + fastest.get(stage, 0.0) for stage in STAGES}
    return dict(seconds=total, runs=len(runs), **counts)


def slope(small: float, large: float, size_small: int, size_large: int) -> float:
    """log-log slope of a time against the graph size between two scenes."""
    return math.log(large / small) / math.log(size_large / size_small)


def main() -> int:
    start = time.perf_counter()
    config = dataclasses.replace(PipelineConfig(), epochs=EPOCHS)
    runs = [run_scene(n, config) for n in FRAMES]
    sizes = [run["nodes"] + run["pairs"] for run in runs]
    width = 13
    print(f"{'N (frames)':<12}" + "".join(f"{n:>{width}}" for n in FRAMES)
          + f"{'slope':>{width}}")
    for key, label in (("nodes", "|V|"), ("pairs", "|E|+|F|"), ("kl moves", "KL moves"),
                       ("runs", "runs")):
        print(f"{label:<12}" + "".join(f"{run[key]:>{width}}" for run in runs))
    for stage in STAGES:
        times = [run["seconds"][stage] for run in runs]
        growth = slope(times[-2], times[-1], sizes[-2], sizes[-1])
        print(f"{stage + ' s':<12}" + "".join(f"{t:>{width}.4f}" for t in times)
              + f"{growth:>{width}.2f}")
    per_pair = [run["seconds"]["gaec"] / run["pairs"] * 1e6 for run in runs]
    print(f"{'gaec us/pair':<12}" + "".join(f"{t:>{width}.3f}" for t in per_pair))
    print(f"wall {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
