"""End-to-end tests for the command line interface."""

import re
import shutil

import numpy as np
import pytest

from liftedtrack.affinity import iou_match_table, read_match_table
from liftedtrack.cli import _read_tracklets, main
from liftedtrack.embedding import AutoEncoder
from liftedtrack.motio import (
    load_patches,
    read_mot,
    records_to_detections,
    save_patches,
)
from liftedtrack.pipeline import (
    ablation_cell,
    ablation_embeddings,
    pregroup,
    read_config,
)

ALL_FEATURES = ("bias", "iou_dm", "d_ae", "product")
# ablate row label -> (nearby features, embedding)
ABLATE_ROWS = {
    "iou_dm": (("bias", "iou_dm"), "recon"),
    "d_ae": (("bias", "d_ae"), "recon"),
    "d_ae+c": (("bias", "d_ae"), "clust"),
    "iou_dm+d_ae+iou_dm*d_ae": (ALL_FEATURES, "recon"),
    "iou_dm+d_ae+c+iou_dm*d_ae+c": (ALL_FEATURES, "clust"),
}


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """A 40-frame fixture taken through the full subcommand chain once."""
    path = tmp_path_factory.mktemp("clirun")
    config = path / "cfg.txt"
    config.write_text("epochs = 2\nlambda_schedule = 0:0.0,1:0.95\n")
    argv_common = ["--dir", str(path), "--config", str(config)]
    assert main(["synth", *argv_common, "--frames", "40", "--seed", "0"]) == 0
    assert main(["pregroup", *argv_common]) == 0
    assert main(["train-embedding", *argv_common]) == 0
    assert main(["fit-affinity", *argv_common]) == 0
    assert main(["track", *argv_common]) == 0
    return path


class TestChain:
    def test_synth_outputs(self, workdir):
        for name in ("det.txt", "gt.txt", "patches.npz", "matches.txt"):
            assert (workdir / name).exists()
        detections = read_mot(workdir / "det.txt")
        assert all(rec.track_id == -1 for rec in detections)

    def test_tracklets_cover_detections(self, workdir):
        members = []
        for line in (workdir / "tracklets.txt").read_text().splitlines():
            members.extend(int(tok) for tok in line.split())
        assert sorted(members) == list(range(len(read_mot(workdir / "det.txt"))))

    def test_track_output_is_valid_mot(self, workdir):
        records = read_mot(workdir / "tracks.txt")
        assert records
        assert all(rec.track_id >= 1 for rec in records)

    def test_track_rerun_is_bytewise_identical(self, workdir):
        first = (workdir / "tracks.txt").read_bytes()
        out = workdir / "tracks_again.txt"
        code = main(["track", "--dir", str(workdir), "--config",
                     str(workdir / "cfg.txt"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == first

    def test_stored_codes_give_the_same_files(self, workdir, tmp_path, encodes):
        # train-embedding stored the patches' codes in model.npz: fit-affinity
        # and track read them instead of encoding, and write the bytes that a
        # model saved without them gives
        for name in ("det.txt", "patches.npz", "matches.txt", "cfg.txt", "model.npz"):
            shutil.copy(workdir / name, tmp_path / name)
        argv_common = ["--dir", str(tmp_path), "--config", str(tmp_path / "cfg.txt")]
        outputs = ("nearby.json", "lifted.json", "tracks.txt")
        detections = len(read_mot(workdir / "det.txt"))

        assert AutoEncoder.load(tmp_path / "model.npz").stored_codes is not None
        for without_codes in (False, True):
            if without_codes:
                AutoEncoder.load(tmp_path / "model.npz").save(tmp_path / "model.npz")
                assert AutoEncoder.load(tmp_path / "model.npz").stored_codes is None
            del encodes[:]
            assert main(["fit-affinity", *argv_common]) == 0
            assert main(["track", *argv_common]) == 0
            assert encodes == ([detections] * 2 if without_codes else [])
            for name in outputs:
                assert (tmp_path / name).read_bytes() == (workdir / name).read_bytes()

    def test_eval_reports_scores(self, workdir, capsys):
        code = main(["eval", "--gt", str(workdir / "gt.txt"),
                     "--hyp", str(workdir / "tracks.txt")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("MOTA ")
        assert {line.split()[0] for line in out} == {
            "MOTA", "MOTP", "IDF1", "IDs", "MT", "ML", "FP", "FN"}

    def test_eval_gt_against_itself_is_perfect(self, workdir, capsys):
        code = main(["eval", "--gt", str(workdir / "gt.txt"),
                     "--hyp", str(workdir / "gt.txt")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "MOTA 1.000"

    def test_ablate_emits_feature_grid(self, workdir, capsys):
        code = main(["ablate", "--dir", str(workdir), "--config",
                     str(workdir / "cfg.txt")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split("\t")
        assert header == ["features", "distance", "MOTA", "MOTP", "IDs",
                          "MT", "ML", "FP", "FN"]
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 11
        assert all(len(row) == len(header) for row in rows)
        assert {row[1] for row in rows} == {"1-3", "1-5"}
        assert rows[-1][0].endswith("lift")

    def test_ablate_rows_are_cells_on_the_match_file(self, workdir, tmp_path, capsys):
        # matches.txt holds 1 - IoU instead of box IoU: every row, the 1-3
        # rows included, must be the pipeline's ablation cell on the file.
        for name in ("det.txt", "gt.txt", "patches.npz", "cfg.txt"):
            shutil.copy(workdir / name, tmp_path / name)
        lines = []
        for line in (workdir / "matches.txt").read_text().splitlines():
            *keys, value = line.split()
            lines.append(" ".join([*keys, repr(1.0 - float(value))]))
        (tmp_path / "matches.txt").write_text("\n".join(lines) + "\n")
        config = read_config(tmp_path / "cfg.txt")
        assert main(["ablate", "--dir", str(tmp_path), "--config",
                     str(tmp_path / "cfg.txt")]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]

        detections = records_to_detections(
            read_mot(tmp_path / "det.txt"), images=load_patches(tmp_path / "patches.npz"))
        table = read_match_table(tmp_path / "matches.txt", detections)
        gt = read_mot(tmp_path / "gt.txt")
        tracklets = pregroup(detections, table, threshold=config.pregroup_threshold,
                             max_gap=config.pregroup_max_gap)
        embeddings = ablation_embeddings(detections, tracklets, config)
        box_iou = iou_match_table(detections, max_frame_gap=3)
        file_differs = []
        assert len(rows) == 11
        for label, distance, *scores in rows:
            name = label.removesuffix(" lift")
            features, embedding = ABLATE_ROWS[name]
            gap = int(distance.split("-")[1])
            lifted_gaps = config.lifted_gaps if name != label else ()
            cell = ablation_cell(detections, table, gt, embeddings[embedding],
                                 features, gap, lifted_gaps, config)
            assert scores == [f"{cell.mota:.3f}", f"{cell.motp:.3f}", str(cell.ids),
                              str(cell.mt), str(cell.ml), str(cell.fp),
                              str(cell.fn)], label
            if gap == 3:
                ignoring_file = ablation_cell(detections, box_iou, gt,
                                              embeddings[embedding], features, gap,
                                              (), config)
                file_differs.append(ignoring_file != cell)
        assert any(file_differs)


class TestOracle:
    def test_triangle_instance(self, tmp_path, capsys):
        instance = tmp_path / "tri.txt"
        instance.write_text("3 3 0\n0 1 -1.0\n1 2 -1.0\n0 2 5.0\n")
        assert main(["oracle", str(instance)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "partition {0,2} | {1}"
        assert out[1] == "objective -2"

    def test_missing_file_fails_with_stage(self, capsys):
        assert main(["oracle", "/nonexistent/instance.txt"]) == 1
        assert "error [oracle]" in capsys.readouterr().err


def test_tracklet_read_sorts_members(tmp_path):
    # a tracklet's label is its line's position, so sorting keeps it
    path = tmp_path / "tracklets.txt"
    path.write_text("3 1 2\n0\n")
    assert _read_tracklets(path) == [[1, 2, 3], [0]]


class TestErrors:
    def test_track_without_detections_names_the_file(self, tmp_path, capsys):
        assert main(["track", "--dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (f"error [track]: [Errno 2] No such file or "
                                           f"directory: '{tmp_path / 'det.txt'}'\n")

    def test_eval_non_ascii_byte_names_file_line(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_bytes("1,1,0,0,5,5,1,-1,-1,-1\n1,2,0,0,5,5,1,-1,-1,-1 é\n".encode())
        assert main(["eval", "--gt", str(gt), "--hyp", str(gt)]) == 1
        assert capsys.readouterr().err == (
            f"error [eval]: {gt}:2: 'ascii' codec can't decode byte 0xc3 in "
            f"position 23: ordinal not in range(128)\n")

    def test_eval_missing_file(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,5,5,1,-1,-1,-1\n")
        assert main(["eval", "--gt", str(gt), "--hyp",
                     str(tmp_path / "missing.txt")]) == 1
        assert "error [eval]" in capsys.readouterr().err

    @pytest.mark.parametrize("gt_lines, hyp_lines, where", [
        (["1,1,0,0,5,5,1,-1,-1,-1", "1,1,9,0,5,5,1,-1,-1,-1"], ["1,7,0,0,5,5,1,-1,-1,-1"],
         "gt.txt:1,2: ground-truth records 0 and 1 both give id 1 in frame 1"),
        (["1,1,0,0,5,5,1,-1,-1,-1"],
         ["", "1,7,0,0,5,5,1,-1,-1,-1", "", "1,7,9,0,5,5,1,-1,-1,-1"],
         "hyp.txt:2,4: hypothesis records 0 and 1 both give id 7 in frame 1"),
    ], ids=["gt", "hyp-blank-lines-counted"])
    def test_eval_repeated_id_names_file_lines(self, tmp_path, capsys, gt_lines,
                                                hyp_lines, where):
        gt, hyp = tmp_path / "gt.txt", tmp_path / "hyp.txt"
        gt.write_text("\n".join(gt_lines) + "\n")
        hyp.write_text("\n".join(hyp_lines) + "\n")
        assert main(["eval", "--gt", str(gt), "--hyp", str(hyp)]) == 1
        assert capsys.readouterr().err == f"error [eval]: {tmp_path}/{where}\n"

    def test_eval_non_positive_gt_id_names_file_line(self, tmp_path, capsys):
        gt, hyp = tmp_path / "gt.txt", tmp_path / "hyp.txt"
        gt.write_text("1,0,0,0,5,5,1,-1,-1,-1\n1,1,9,0,5,5,1,-1,-1,-1\n")
        hyp.write_text("1,7,0,0,5,5,1,-1,-1,-1\n")
        assert main(["eval", "--gt", str(gt), "--hyp", str(hyp)]) == 1
        assert capsys.readouterr().err == (f"error [eval]: {tmp_path}/gt.txt:1: "
                                           f"ground-truth ids must be positive\n")

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan", "1.5"])
    def test_eval_threshold_outside_unit_interval_fails(self, tmp_path, capsys,
                                                        threshold):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,5,5,1,-1,-1,-1\n")
        assert main(["eval", "--gt", str(gt), "--hyp", str(gt),
                     "--iou-threshold", threshold]) == 1
        assert capsys.readouterr().err == (f"error [eval]: iou_threshold must be in "
                                           f"(0, 1], got {float(threshold)}\n")

    def test_track_before_training_fails(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("epochs = 1\n")
        assert main(["synth", "--dir", str(tmp_path), "--frames", "5",
                     "--config", str(config)]) == 0
        assert main(["track", "--dir", str(tmp_path), "--config",
                     str(config)]) == 1
        assert "error [track]" in capsys.readouterr().err

    def test_train_on_non_finite_patch_fails_at_train(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("epochs = 1\n")
        argv_common = ["--dir", str(tmp_path), "--config", str(config)]
        assert main(["synth", *argv_common, "--frames", "5"]) == 0
        assert main(["pregroup", *argv_common]) == 0
        patches = load_patches(tmp_path / "patches.npz")
        patches[1, 0, 2, 2] = np.nan
        save_patches(tmp_path / "patches.npz", patches)
        capsys.readouterr()
        assert main(["train-embedding", *argv_common]) == 1
        assert capsys.readouterr().err.startswith("error [train]: non-finite loss")

    @pytest.mark.parametrize("line, message", [
        ("0 1 2 -1", r"error \[train\]: tracklet \d+: detection -1 outside 0\.\.\d+"),
        ("100000", r"error \[train\]: tracklet \d+: detection 100000 outside"),
        ("3", r"error \[train\]: tracklet \d+: detection 3 listed twice"),
        ("", r"error \[train-embedding\]: .*tracklets\.txt:(\d+): tracklet must have "
             r"at least one member"),
        ("4 x", r"error \[train-embedding\]: .*tracklets\.txt:(\d+): invalid literal"),
    ], ids=["negative", "out-of-range", "repeated", "blank", "non-integer"])
    def test_bad_tracklet_line_fails_before_training(self, tmp_path, capsys, line,
                                                      message):
        config = tmp_path / "cfg.txt"
        config.write_text("epochs = 1\n")
        argv_common = ["--dir", str(tmp_path), "--config", str(config)]
        assert main(["synth", *argv_common, "--frames", "5"]) == 0
        assert main(["pregroup", *argv_common]) == 0
        tracklets = tmp_path / "tracklets.txt"
        lines = tracklets.read_text().splitlines()
        tracklets.write_text("\n".join(lines + [line]) + "\n")
        capsys.readouterr()
        assert main(["train-embedding", *argv_common]) == 1
        err = capsys.readouterr().err
        match = re.match(message, err)
        assert match, err
        assert match.groups() in ((), (str(len(lines) + 1),))
        assert not (tmp_path / "model.npz").exists()

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_negative_seed_fails_before_any_work(self, tmp_path, capsys):
        workdir = tmp_path / "run"
        assert main(["synth", "--dir", str(workdir), "--frames", "8",
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error [synth]: bad seed -1\n"
        assert not workdir.exists()

    def test_seed_override_changes_synth(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for sub, seed in ((a, "0"), (b, "3")):
            assert main(["synth", "--dir", str(sub), "--frames", "8",
                         "--seed", seed]) == 0
        assert (a / "det.txt").read_bytes() != (b / "det.txt").read_bytes()
