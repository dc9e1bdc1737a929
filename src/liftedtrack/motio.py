"""MOTChallenge-format record IO and lossless patch storage.

Records follow the standard CSV layout "frame,id,left,top,width,height,
conf,x,y,z". Values are written back with the shortest exact decimal form
so that canonical files survive a read/write roundtrip byte for byte.
`parse_lines` is the one line reader of the working directory's tables:
MOT files, match tables and multicut instances.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .graph import BBox, Detection

_FIELDS = 10


@dataclass(frozen=True)
class MotRecord:
    """One CSV row; id is -1 for raw detections, positive for track boxes."""

    frame: int
    track_id: int
    left: float
    top: float
    width: float
    height: float
    conf: float
    world: Tuple[float, float, float] = (-1.0, -1.0, -1.0)

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        if not (self.width > 0 and self.height > 0):
            raise ValueError(
                f"box dimensions must be positive, got {self.width} x {self.height}"
            )
        values = (self.left, self.top, self.width, self.height, self.conf, *self.world)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite fields in record {values}")
        object.__setattr__(self, "world", tuple(float(w) for w in self.world))

    @property
    def box(self) -> BBox:
        return BBox(self.left, self.top, self.width, self.height)


def _fmt(value: float) -> str:
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def parse_lines(path, parse, fields: int, sep=None) -> Tuple[List[int], list]:
    """The line numbers and `parse(parts)` values of a text file's non-blank lines.

    Each line is stripped and split on `sep` (whitespace by default). A
    line without exactly `fields` parts, or whose `parse` raises
    ValueError, fails as "path:lineno: message", lineno counting every
    line of the file. The line numbers let a check over many lines name
    the lines at fault.
    """
    linenos, values = [], []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            try:
                if len(parts) != fields:
                    raise ValueError(f"expected {fields} fields, got {len(parts)}")
                values.append(parse(parts))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            linenos.append(lineno)
    return linenos, values


def _mot_record(parts) -> MotRecord:
    return MotRecord(
        frame=int(parts[0]),
        track_id=int(parts[1]),
        left=float(parts[2]),
        top=float(parts[3]),
        width=float(parts[4]),
        height=float(parts[5]),
        conf=float(parts[6]),
        world=(float(parts[7]), float(parts[8]), float(parts[9])),
    )


def read_mot(path) -> List[MotRecord]:
    """Parse a MOT CSV file; malformed lines report their line number."""
    return parse_lines(path, _mot_record, _FIELDS, sep=",")[1]


def as_records(source) -> List[MotRecord]:
    """Records from a record sequence or from anything exposing to_mot_records."""
    if hasattr(source, "to_mot_records"):
        return source.to_mot_records()
    return list(source)


def write_mot(source, path):
    """Write records (or anything exposing to_mot_records) as MOT CSV."""
    with open(path, "w", encoding="ascii") as fh:
        for rec in as_records(source):
            fields = [
                str(rec.frame),
                str(rec.track_id),
                _fmt(rec.left),
                _fmt(rec.top),
                _fmt(rec.width),
                _fmt(rec.height),
                _fmt(rec.conf),
                _fmt(rec.world[0]),
                _fmt(rec.world[1]),
                _fmt(rec.world[2]),
            ]
            fh.write(",".join(fields) + "\n")


def records_to_detections(records: Sequence[MotRecord], images=None) -> List[Detection]:
    """Detections from records, optionally attaching one image per record."""
    if images is not None and len(images) != len(records):
        raise ValueError(f"{len(images)} images for {len(records)} records")
    return [
        Detection(
            frame=rec.frame,
            box=rec.box,
            score=rec.conf,
            image=None if images is None else np.asarray(images[i], dtype=float),
        )
        for i, rec in enumerate(records)
    ]


def save_patches(path, images):
    """Store rendered patches losslessly as one uncompressed float array.

    Compression saves about 5% of the file on float patches but makes each
    load several times slower; `load_patches` reads either form.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 4:
        raise ValueError(f"expected (n, channels, h, w) patches, got {images.shape}")
    np.savez(path, patches=images)


def load_patches(path) -> np.ndarray:
    with np.load(path) as blob:
        if "patches" not in blob:
            raise ValueError(f"{path}: missing 'patches' array")
        return blob["patches"]
