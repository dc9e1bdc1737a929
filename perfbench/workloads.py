"""The three tracked scenes and what one operation does on each.

Every scene is rendered from a pinned data seed (DATA_SEED, or
LIFTED_DATA_SEED for lifted-long). The run's --seed moves the whole scene
to a later frame number instead: frame numbers enter the pipeline only
through differences and order, so each seed gives new input files that
must be tracked to the same result with the same work. Data seeds
themselves change the work too much for runs to be compared: on
benchmark_spec(100), seeds 0-5 make KL apply 0-8 moves (1-16 s) and give
IDF1 0.72-1.00.
"""

import contextlib
import dataclasses
import io
import re

from liftedtrack import cli, metrics, motio, pipeline, synth
from liftedtrack.affinity import write_match_table
from liftedtrack.pipeline import PipelineConfig, write_config
from liftedtrack.synth import IdentitySpec, SequenceSpec, benchmark_spec

DATA_SEED = 0
# benchmark_spec(100) with 4 epochs on data seed 5: KL applies 3 improving
# moves and takes about 90% of tracking.
LIFTED_DATA_SEED = 5
DENSE_IDENTITIES = 15
DENSE_FRAMES = 60


class OperationFailed(RuntimeError):
    """A CLI step exited non-zero; `stage` is the stage it reported."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.cause = message


def render(spec, seed, data_seed=DATA_SEED):
    """Render `spec` from a pinned data seed, shifted by the run's seed."""
    scene = synth.synth_sequence(spec, seed=data_seed)
    offset = 100 * (seed % 10_000)
    return dataclasses.replace(
        scene,
        gt=tuple(dataclasses.replace(r, frame=r.frame + offset) for r in scene.gt),
        detections=tuple(dataclasses.replace(d, frame=d.frame + offset)
                         for d in scene.detections),
    )


def dense_spec():
    """15 identities 40 px apart; each pair (2j, 2j+1) drifts together."""
    identities = tuple(
        IdentitySpec(
            track_id=k + 1,
            start=(10.0 + 3 * k, 10.0 + 40 * k),
            velocity=(1.0, 0.3 if k % 2 == 0 else -0.3),
            occlusions=((20 + 2 * k, 22 + 2 * k),),
        )
        for k in range(DENSE_IDENTITIES)
    )
    return SequenceSpec(identities, DENSE_FRAMES, box_noise=0.4,
                        score_noise=0.05, pixel_noise=0.02)


class InMemory:
    """Detections to tracks in one process: pregroup, train, fit, solve, score."""

    def __init__(self, num_frames, config, data_seed=DATA_SEED):
        self.num_frames = num_frames
        self.config = config
        self.data_seed = data_seed

    def setup(self, seed, workdir):
        return render(benchmark_spec(self.num_frames), seed, self.data_seed)

    def operation(self, scene):
        config = self.config
        detections, table = scene.detections, scene.table
        tracklets = pipeline.pregroup(detections, table,
                                      threshold=config.pregroup_threshold,
                                      max_gap=config.pregroup_max_gap)
        model, _ = pipeline.train_embedding(detections, tracklets, config)
        latents = pipeline.latent_codes(model, detections)
        models = pipeline.fit_affinity_models(detections, table, latents, config)
        tracks = pipeline.run_tracking(detections, table, model, models, config)
        return metrics.evaluate_clear_mot(scene.gt, tracks)


class Resolve(InMemory):
    """Set-up pregroups, trains and fits once; each operation tracks and scores."""

    def setup(self, seed, workdir):
        scene = super().setup(seed, workdir)
        config = self.config
        tracklets = pipeline.pregroup(scene.detections, scene.table,
                                      threshold=config.pregroup_threshold,
                                      max_gap=config.pregroup_max_gap)
        model, _ = pipeline.train_embedding(scene.detections, tracklets, config)
        latents = pipeline.latent_codes(model, scene.detections)
        models = pipeline.fit_affinity_models(scene.detections, scene.table,
                                              latents, config)
        return scene, model, models

    def operation(self, state):
        scene, model, models = state
        tracks = pipeline.run_tracking(scene.detections, scene.table, model, models,
                                       self.config)
        return metrics.evaluate_clear_mot(scene.gt, tracks)


class Retrack:
    """Set-up trains once on files; each operation refits and retracks via the CLI."""

    config = dataclasses.replace(PipelineConfig(), epochs=4, lifted_gaps=())

    def setup(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        scene = render(dense_spec(), seed)
        write_config(workdir / "config.txt", self.config)
        motio.write_mot(scene.gt, workdir / cli.GROUND_TRUTH)
        motio.write_mot(
            [motio.MotRecord(d.frame, -1, d.box.left, d.box.top, d.box.width,
                             d.box.height, d.score) for d in scene.detections],
            workdir / cli.DETECTIONS,
        )
        motio.save_patches(workdir / cli.PATCHES, scene.images)
        write_match_table(workdir / cli.MATCHES, scene.table, scene.detections)
        _run_cli("pregroup", workdir)
        _run_cli("train-embedding", workdir)
        return workdir, scene.gt

    def operation(self, state):
        workdir, gt = state
        _run_cli("fit-affinity", workdir)
        _run_cli("track", workdir)
        return metrics.evaluate_clear_mot(gt, motio.read_mot(workdir / cli.TRACKS))


_ERROR_LINE = re.compile(r"error \[([^\]]+)\]: (.*)")


def _run_cli(command, workdir):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--dir", str(workdir),
                         "--config", str(workdir / "config.txt")])
    if code:
        found = _ERROR_LINE.search(err.getvalue())
        stage, message = found.groups() if found else (command, err.getvalue())
        raise OperationFailed(stage, message.strip())


WORKLOADS = {
    "paper-100": InMemory(100, PipelineConfig()),
    "lifted-long": Resolve(100, dataclasses.replace(PipelineConfig(), epochs=4),
                           LIFTED_DATA_SEED),
    "dense-retrack": Retrack(),
}
