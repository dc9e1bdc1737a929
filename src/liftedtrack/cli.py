"""Command line interface for the tracking pipeline.

Subcommands cover the full workflow on a working directory of plain
files: `synth` renders a fixture, `pregroup` extracts high-confidence
tracklets, `train-embedding` fits the autoencoder and saves it with its
patches' latent codes, `fit-affinity` regresses edge affinities, `track`
solves and writes MOT rows, `eval` scores hypotheses, `oracle`
brute-force solves a small instance file, and `ablate` reruns tracking
over the feature/distance grid.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .affinity import (
    AffinityModel,
    detection_patches,
    latent_codes,
    read_match_table,
    write_match_table,
)
from .embedding import AutoEncoder
from .graph import RowError
from .metrics import evaluate_clear_mot
from .motio import (
    MotRecord,
    load_patches,
    numbered_lines,
    read_mot,
    records_to_detections,
    save_patches,
    write_mot,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    ablation_cell,
    ablation_embeddings,
    fit_affinity_models,
    pregroup,
    read_config,
    run_tracking,
    train_embedding,
)
from .solver import read_instance, solve_bruteforce
from .synth import benchmark_spec, synth_sequence

DETECTIONS = "det.txt"
GROUND_TRUTH = "gt.txt"
PATCHES = "patches.npz"
MATCHES = "matches.txt"
TRACKLETS = "tracklets.txt"
MODEL = "model.npz"
NEARBY = "nearby.json"
LIFTED = "lifted.json"
TRACKS = "tracks.txt"


def _load_config(args) -> PipelineConfig:
    config = read_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _load_detections(workdir: Path):
    records = read_mot(workdir / DETECTIONS)
    images = load_patches(workdir / PATCHES)
    return records_to_detections(records, images=images)


def _write_tracklets(path, tracklets):
    with open(path, "w", encoding="ascii") as fh:
        for tracklet in tracklets:
            fh.write(" ".join(str(m) for m in tracklet) + "\n")


def _read_tracklets(path):
    """One tracklet per line as sorted detection ids, so its position is its
    line order; an empty or non-integer line is named as path:lineno."""
    tracklets = []
    for lineno, line in numbered_lines(path):
        try:
            members = sorted(int(tok) for tok in line.split())
            if not members:
                raise ValueError("tracklet must have at least one member")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        tracklets.append(members)
    return tracklets


def _cmd_synth(args) -> int:
    config = _load_config(args)
    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    spec = benchmark_spec(num_frames=args.frames)
    result = synth_sequence(spec, seed=config.seed)
    write_mot(result.gt, workdir / GROUND_TRUTH)
    write_mot(_detection_records(result.detections), workdir / DETECTIONS)
    save_patches(workdir / PATCHES, result.images)
    write_match_table(workdir / MATCHES, result.table, result.detections)
    print(f"wrote {len(result.detections)} detections over {args.frames} frames "
          f"to {workdir}")
    return 0


def _detection_records(detections):
    return [
        MotRecord(det.frame, -1, det.box.left, det.box.top, det.box.width,
                  det.box.height, det.score)
        for det in detections
    ]


def _cmd_pregroup(args) -> int:
    config = _load_config(args)
    workdir = Path(args.dir)
    detections = _load_detections(workdir)
    table = read_match_table(workdir / MATCHES, detections)
    tracklets = pregroup(detections, table, threshold=config.pregroup_threshold,
                         max_gap=config.pregroup_max_gap)
    _write_tracklets(workdir / TRACKLETS, tracklets)
    print(f"{len(tracklets)} tracklets over {len(detections)} detections")
    return 0


def _cmd_train_embedding(args) -> int:
    config = _load_config(args)
    workdir = Path(args.dir)
    detections = _load_detections(workdir)
    tracklets = _read_tracklets(workdir / TRACKLETS)
    model, trace = train_embedding(detections, tracklets, config)
    model.save(workdir / MODEL, images=detection_patches(detections))
    print(f"trained {len(trace)} epochs, final loss {trace[-1].loss:.4f}")
    return 0


def _cmd_fit_affinity(args) -> int:
    config = _load_config(args)
    workdir = Path(args.dir)
    detections = _load_detections(workdir)
    table = read_match_table(workdir / MATCHES, detections)
    model = AutoEncoder.load(workdir / MODEL)
    latents = latent_codes(model, detections)
    nearby, lifted = fit_affinity_models(detections, table, latents, config)
    nearby.save(workdir / NEARBY)
    lifted.save(workdir / LIFTED)
    print(f"fit affinities on {len(table.rows)} scored pairs")
    return 0


def _cmd_track(args) -> int:
    config = _load_config(args)
    workdir = Path(args.dir)
    detections = _load_detections(workdir)
    table = read_match_table(workdir / MATCHES, detections)
    model = AutoEncoder.load(workdir / MODEL)
    models = (AffinityModel.load(workdir / NEARBY), AffinityModel.load(workdir / LIFTED))
    tracks = run_tracking(detections, table, model, models, config)
    out = Path(args.out) if args.out else workdir / TRACKS
    write_mot(tracks, out)
    print(f"{tracks.num_tracks} tracks -> {out}")
    return 0


def _record_lines(path):
    """The number of each non-blank line of a file that `read_mot` has read,
    that is, of each of its records."""
    return [lineno for lineno, line in numbered_lines(path) if line.strip()]


def _cmd_eval(args) -> int:
    gt = read_mot(args.gt)
    hyp = read_mot(args.hyp)
    try:
        report = evaluate_clear_mot(gt, hyp, iou_threshold=args.iou_threshold)
    except RowError as exc:
        # the rows count the ground-truth records, then the hypothesis records
        where = [(path, lineno) for path in (args.gt, args.hyp)
                 for lineno in _record_lines(path)]
        lines = ",".join(str(where[i][1]) for i in exc.rows)
        raise ValueError(f"{where[exc.rows[0]][0]}:{lines}: {exc}") from exc
    for line in report.lines():
        print(line)
    return 0


def _cmd_oracle(args) -> int:
    instance = read_instance(args.instance)
    partition, value = solve_bruteforce(instance)
    blocks = " | ".join(
        "{" + ",".join(str(n) for n in block) + "}" for block in partition.blocks()
    )
    print(f"partition {blocks}")
    print(f"objective {value:g}")
    return 0


_ABLATE_GRID = (
    ("iou_dm", ("bias", "iou_dm"), "recon"),
    ("d_ae", ("bias", "d_ae"), "recon"),
    ("d_ae+c", ("bias", "d_ae"), "clust"),
    ("iou_dm+d_ae+iou_dm*d_ae", ("bias", "iou_dm", "d_ae", "product"), "recon"),
    ("iou_dm+d_ae+c+iou_dm*d_ae+c", ("bias", "iou_dm", "d_ae", "product"), "clust"),
)


def _cmd_ablate(args) -> int:
    config = _load_config(args)
    workdir = Path(args.dir)
    detections = _load_detections(workdir)
    gt = read_mot(workdir / GROUND_TRUTH)
    table = read_match_table(workdir / MATCHES, detections)
    tracklets = pregroup(detections, table, threshold=config.pregroup_threshold,
                         max_gap=config.pregroup_max_gap)
    embeddings = ablation_embeddings(detections, tracklets, config)

    rows = [(label, features, embedding, (), gap)
            for gap in (3, 5) for label, features, embedding in _ABLATE_GRID]
    label, features, embedding = _ABLATE_GRID[-1]
    rows.append((label + " lift", features, embedding, config.lifted_gaps, 5))
    header = ("features", "distance", "MOTA", "MOTP", "IDs", "MT", "ML", "FP", "FN")
    print("\t".join(header))
    for label, features, embedding, lifted_gaps, gap in rows:
        report = ablation_cell(detections, table, gt, embeddings[embedding],
                               features, gap, lifted_gaps, config)
        print("\t".join((
            label, f"1-{gap}", f"{report.mota:.3f}", f"{report.motp:.3f}",
            str(report.ids), str(report.mt), str(report.ml), str(report.fp),
            str(report.fn),
        )))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftedtrack",
        description="Self-supervised multi-object tracking with lifted multicuts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workdir=True):
        p.add_argument("--config", help="pipeline config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if workdir:
            p.add_argument("--dir", required=True, help="working directory")

    p = sub.add_parser("synth", help="render a synthetic benchmark sequence")
    common(p)
    p.add_argument("--frames", type=int, default=100)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pregroup", help="extract high-overlap tracklets")
    common(p)
    p.set_defaults(func=_cmd_pregroup)

    p = sub.add_parser("train-embedding", help="train the autoencoder")
    common(p)
    p.set_defaults(func=_cmd_train_embedding)

    p = sub.add_parser("fit-affinity", help="fit edge affinity models")
    common(p)
    p.set_defaults(func=_cmd_fit_affinity)

    p = sub.add_parser("track", help="solve the lifted multicut and emit tracks")
    common(p)
    p.add_argument("--out", help="output path (default <dir>/tracks.txt)")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="score a hypothesis file against ground truth")
    common(p, workdir=False)
    p.add_argument("--gt", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--iou-threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="brute-force solve an instance file")
    common(p, workdir=False)
    p.add_argument("instance")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ablate", help="run the feature/distance grid")
    common(p)
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
