"""Tests for MOT CSV parsing, byte-exact roundtrips, and patch storage."""

import zipfile

import numpy as np
import pytest

from liftedtrack.graph import BBox
from liftedtrack.motio import (
    MotRecord,
    load_patches,
    read_mot,
    records_to_detections,
    save_patches,
    write_mot,
)


class TestMotRecord:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        records = read_mot(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.frame == 1
        assert rec.track_id == -1
        assert rec.box == BBox(10.0, 20.0, 30.0, 40.0)
        assert rec.conf == 0.9
        assert rec.world == (-1.0, -1.0, -1.0)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            MotRecord(frame=1, track_id=1, left=0, top=0, width=0, height=5, conf=1)

    def test_zero_height_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            MotRecord(frame=1, track_id=1, left=0, top=0, width=5, height=0, conf=1)

    def test_frame_below_one_rejected(self):
        with pytest.raises(ValueError, match="frame"):
            MotRecord(frame=0, track_id=1, left=0, top=0, width=5, height=5, conf=1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MotRecord(frame=1, track_id=1, left=np.nan, top=0, width=5, height=5,
                      conf=1)


class TestReadWrite:
    def test_byte_roundtrip(self, tmp_path):
        canonical = (
            "1,-1,10,20,30,40,0.9,-1,-1,-1\n"
            "1,-1,15.5,22.25,30,40,0.87,-1,-1,-1\n"
            "2,3,10,20,30,40,1,-1,-1,-1\n"
        )
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text(canonical)
        write_mot(read_mot(src), dst)
        assert dst.read_text() == canonical

    def test_roundtrip_preserves_noisy_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            MotRecord(frame=i + 1, track_id=-1, left=float(rng.normal()),
                      top=float(rng.normal()), width=float(rng.uniform(1, 9)),
                      height=float(rng.uniform(1, 9)), conf=float(rng.uniform()))
            for i in range(20)
        ]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_mot(records, first)
        write_mot(read_mot(first), second)
        assert first.read_bytes() == second.read_bytes()
        parsed = read_mot(first)
        for rec, orig in zip(parsed, records):
            assert rec == orig

    def test_wrong_field_count_cites_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n1,2,3\n")
        with pytest.raises(ValueError, match=r":2"):
            read_mot(path)

    def test_bad_number_cites_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,-1,10,20,x,40,0.9,-1,-1,-1\n")
        with pytest.raises(ValueError, match=r":1"):
            read_mot(path)

    def test_zero_width_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,-1,10,20,0,40,0.9,-1,-1,-1\n")
        with pytest.raises(ValueError, match=r":1.*positive"):
            read_mot(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("\n1,-1,10,20,30,40,0.9,-1,-1,-1\n\n")
        assert len(read_mot(path)) == 1


class TestDetectionsAndPatches:
    def test_records_to_detections(self):
        records = [
            MotRecord(frame=2, track_id=-1, left=1, top=2, width=3, height=4,
                      conf=0.5),
        ]
        dets = records_to_detections(records)
        assert dets[0].frame == 2
        assert dets[0].box == BBox(1.0, 2.0, 3.0, 4.0)
        assert dets[0].score == 0.5
        assert dets[0].image is None

    def test_images_attached_in_order(self):
        records = [
            MotRecord(frame=1, track_id=-1, left=0, top=0, width=3, height=4,
                      conf=1.0),
            MotRecord(frame=2, track_id=-1, left=0, top=0, width=3, height=4,
                      conf=1.0),
        ]
        images = np.arange(2 * 3 * 4 * 4, dtype=float).reshape(2, 3, 4, 4)
        dets = records_to_detections(records, images=images)
        assert np.array_equal(dets[1].image, images[1])

    def test_image_count_mismatch_rejected(self):
        records = [
            MotRecord(frame=1, track_id=-1, left=0, top=0, width=3, height=4,
                      conf=1.0),
        ]
        with pytest.raises(ValueError, match="images"):
            records_to_detections(records, images=np.zeros((2, 3, 4, 4)))

    def test_patch_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(11)
        patches = rng.uniform(0, 1, size=(7, 3, 16, 16))
        path = tmp_path / "patches.npz"
        save_patches(path, patches)
        assert np.array_equal(load_patches(path), patches)

    def test_patches_stored_uncompressed(self, tmp_path):
        path = tmp_path / "patches.npz"
        save_patches(path, np.zeros((2, 3, 4, 4)))
        with zipfile.ZipFile(path) as archive:
            kinds = [info.compress_type for info in archive.infolist()]
        assert kinds == [zipfile.ZIP_STORED]

    def test_compressed_patch_file_still_loads(self, tmp_path):
        # the form earlier versions of save_patches wrote
        rng = np.random.default_rng(12)
        patches = rng.uniform(0, 1, size=(5, 3, 16, 16))
        path = tmp_path / "patches.npz"
        np.savez_compressed(path, patches=patches)
        assert np.array_equal(load_patches(path), patches)

    def test_patch_rank_checked(self, tmp_path):
        with pytest.raises(ValueError, match="patches"):
            save_patches(tmp_path / "p.npz", np.zeros((3, 16, 16)))

    def test_missing_patch_key_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(ValueError, match="patches"):
            load_patches(path)
