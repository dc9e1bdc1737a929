"""Tests for MOT CSV parsing, byte-exact roundtrips, and patch storage."""

import re
import zipfile

import numpy as np
import pytest

from liftedtrack.graph import BBox
from liftedtrack.motio import (
    _MOT_DTYPE,
    MotRecord,
    _records_from_rows,
    _unchecked,
    _valid_mot_rows,
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


# Values for the row-check fuzz: edges of each check and non-finite floats
ROW_INTS = (0, 1, 2, -1, 2**62, 2**63 - 1, -2**63)
ROW_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.5, -2.5, 1e308, float("nan"),
              float("inf"), -float("inf"))


def fuzzed_rows(rng, n):
    """`n` MOT rows, each int and float field drawn from the edge values."""
    rows = np.zeros(n, dtype=_MOT_DTYPE)
    rows["frame"] = rng.choice(np.array(ROW_INTS), n)
    rows["track_id"] = rng.choice(np.array(ROW_INTS), n)
    fields = rng.choice(np.array(ROW_FLOATS), (n, 8))
    # most fields ordinary, so that most rows pass and each check is hit alone
    ordinary = rng.random((n, 8)) < 0.8
    fields[ordinary] = rng.uniform(1, 9, ordinary.sum())
    rows["fields"] = fields
    return rows


def checked_record(frame, track_id, fields):
    """("ok", MotRecord(...)) of a row's values, or ("error", None)."""
    try:
        return "ok", MotRecord(frame, track_id, *fields[:5], world=tuple(fields[5:]))
    except ValueError:
        return "error", None


class TestRowChecks:
    """The array check of `read_mot` accepts the rows `MotRecord` accepts, and
    the records it builds from them are those `MotRecord(...)` builds."""

    def test_fuzzed_rows(self):
        rng = np.random.default_rng(61)
        rows = fuzzed_rows(rng, 3000)
        accepted = 0
        for row, (frame, track_id, fields) in zip(rows, rows.tolist()):
            kind, want = checked_record(frame, track_id, fields.tolist())
            assert _valid_mot_rows(row[None]) == (kind == "ok"), row
            if kind == "error":
                continue
            accepted += 1
            got, = _records_from_rows(row[None])
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            for name in ("frame", "track_id", "left", "top", "width", "height", "conf"):
                assert type(getattr(got, name)) is type(getattr(want, name))
            assert type(got.world) is tuple and len(got.world) == 3
            assert all(type(value) is float for value in got.world)
        assert 500 < accepted < 2500

    def test_every_field_rejects_non_finite(self):
        for k in range(8):
            for bad in (float("nan"), float("inf"), -float("inf")):
                rows = np.zeros(2, dtype=_MOT_DTYPE)
                rows["frame"], rows["fields"] = 1, 1.0
                rows["fields"][1, k] = bad
                assert _valid_mot_rows(rows[:1]) and not _valid_mot_rows(rows)
                assert checked_record(1, 0, rows["fields"][1].tolist())[0] == "error"

    def test_table_accepted_when_every_row_is(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            rows = fuzzed_rows(rng, int(rng.integers(1, 6)))
            want = all(checked_record(*row[:2], row[2].tolist())[0] == "ok"
                       for row in rows.tolist())
            assert _valid_mot_rows(rows) == want
            if want:
                assert _records_from_rows(rows) == [
                    checked_record(*row[:2], row[2].tolist())[1] for row in rows.tolist()]


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

    @pytest.mark.parametrize("fault, message", [
        ({"frame": 0}, "Detection.frame must be >= 1, got 0"),
        ({"conf": np.inf}, "Detection.score must be finite"),
        ({"top": np.nan}, "BBox.top must be finite, got nan"),
        ({"height": -0.0}, "BBox requires positive size, got 3.0 x -0.0"),
    ])
    def test_column_check_raises_the_record_error(self, fault, message):
        # records built past MotRecord's checks, as only an array check may
        fields = dict(frame=1, track_id=-1, left=0.0, top=0.0, width=3.0,
                      height=4.0, conf=1.0, world=(-1.0, -1.0, -1.0))
        records = _unchecked(MotRecord, [fields, {**fields, **fault}])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            records_to_detections(records)

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
