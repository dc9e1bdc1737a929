"""MOTChallenge-format record IO and lossless patch storage.

Records follow the standard CSV layout "frame,id,left,top,width,height,
conf,x,y,z". Values are written back with the shortest exact decimal form
so that canonical files survive a read/write roundtrip byte for byte.
Records are checked once as columns: `read_mot` builds its records from
the rows its array check accepted, `records_to_detections` checks the
records' columns before it builds detections, and `write_mot` formats
columns (`mot_columns`), each distinct value once.
The working directory's tables (MOT files, match tables and multicut
instances) have two readers. `read_table` parses a whole file of plain
numbers in one `np.loadtxt` pass; `parse_lines`, the line reader, is the
reference for every accepted value and every "path:lineno" message, and
a table reader falls back to it whenever the array pass refuses a file.
"""

import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .graph import BBox, Detection

_FIELDS = 10
# A MOT line as `read_table` reads it: frame, id, then the eight float fields
_MOT_DTYPE = np.dtype([("frame", np.int64), ("track_id", np.int64),
                       ("fields", np.float64, (_FIELDS - 2,))])
# A number spelled in these bytes np.loadtxt reads as int() and float() do, or
# refuses where they accept it, as "1_000". Other bytes it may accept where
# they refuse: it skips \x1c-\x1f around a number. A carriage return ends a
# line only for `parse_lines`.
_NUMBER_BYTES = b"0123456789+-.eE \t\n"
# What `records_to_detections` reads of a record
_DETECTION_FIELDS = operator.attrgetter("frame", "left", "top", "width", "height", "conf")


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
        if not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite fields in record {values}")
        object.__setattr__(self, "world", tuple(map(float, self.world)))

    @property
    def box(self) -> BBox:
        return BBox(self.left, self.top, self.width, self.height)


def _fmt(value: float) -> str:
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _format_column(values: np.ndarray) -> List[str]:
    """`_fmt` of each value of a 1-D float64 array, each distinct value
    formatted once. `np.unique` merges only values `_fmt` spells alike:
    -0.0 with 0.0, and NaNs."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array(list(map(_fmt, distinct.tolist())), dtype=object)[inverse].tolist()


def _unchecked(cls, fields: List[dict]) -> list:
    """One `cls` instance holding each dict of `fields` as its attributes,
    built without running its checks: only for values that an array check
    has already accepted."""
    objects = list(map(object.__new__, repeat(cls, len(fields))))
    deque(map(object.__setattr__, objects, repeat("__dict__"), fields), maxlen=0)
    return objects


def numbered_lines(path) -> Iterator[Tuple[int, str]]:
    """(lineno, line) for every line of an ASCII text file, lineno from 1.

    A line ends at a line feed, a carriage return or both. A line holding a
    non-ASCII byte fails as "path:lineno: message".
    """
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode("ascii", "surrogateescape").decode("ascii")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield lineno, line


def parse_lines(path, parse, fields: int, sep=None) -> Tuple[List[int], list]:
    """The line numbers and `parse(parts)` values of a text file's non-blank lines.

    Each line is stripped and split on `sep` (whitespace by default). A
    line without exactly `fields` parts, or whose `parse` raises
    ValueError, fails as "path:lineno: message", lineno counting every
    line of the file. The line numbers let a check over many lines name
    the lines at fault.
    """
    linenos, values = [], []
    for lineno, line in numbered_lines(path):
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


def read_table(path, dtype: np.dtype, sep=None) -> Optional[np.ndarray]:
    """A text table's non-blank lines as one 1-D `dtype` array, split on `sep`
    (whitespace by default), or None where `parse_lines` must read it.

    The array pass refuses a file without rows, a byte outside plain
    numbers and `sep`, and any line np.loadtxt rejects, such as a wrong
    field count or a number out of the dtype's range. What it accepts,
    `parse_lines` with int() and float() accepts with `==` values.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    allowed = _NUMBER_BYTES + (sep.encode("ascii") if sep else b"")
    if not data.strip() or data.translate(None, allowed):
        return None
    try:
        return np.loadtxt(data.decode("ascii").splitlines(), dtype=dtype,
                          delimiter=sep, comments=None, ndmin=1)
    except ValueError:
        return None


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
    """Parse a MOT CSV file; malformed lines report their line number.

    The rows are read and checked as arrays; a file that fails the array
    pass or a record check is read again line by line for its message.
    """
    rows = read_table(path, _MOT_DTYPE, sep=",")
    if rows is None or not _valid_mot_rows(rows):
        return parse_lines(path, _mot_record, _FIELDS, sep=",")[1]
    return _records_from_rows(rows)


def _valid_mot_rows(rows: np.ndarray) -> bool:
    """Whether every row passes MotRecord's checks."""
    fields = rows["fields"]
    return bool((rows["frame"] >= 1).all() and (fields[:, 2:4] > 0).all()
                and np.isfinite(fields).all())


def _records_from_rows(rows: np.ndarray) -> List[MotRecord]:
    """The records of rows that `_valid_mot_rows` accepted, `==` to
    `MotRecord(...)` of their values, without running its checks again."""
    return _unchecked(MotRecord, [
        {"frame": frame, "track_id": track_id, "left": left, "top": top,
         "width": width, "height": height, "conf": conf, "world": (x, y, z)}
        for frame, track_id, (left, top, width, height, conf, x, y, z)
        in zip(rows["frame"].tolist(), rows["track_id"].tolist(),
               rows["fields"].tolist())
    ])


def as_records(source) -> List[MotRecord]:
    """Records from a record sequence or from anything exposing to_mot_records."""
    if hasattr(source, "to_mot_records"):
        return source.to_mot_records()
    return list(source)


def mot_columns(source) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (frames, ids, (n, 8) float64 fields) of a source, in record order.

    The fields are left, top, width, height, conf and the three world
    values. Anything exposing `mot_columns` gives its own columns; records
    (or anything `as_records` takes) are read one record at a time, and
    their frames and ids keep numpy's inferred dtype.
    """
    if hasattr(source, "mot_columns"):
        return source.mot_columns()
    records = as_records(source)
    frames = np.array([rec.frame for rec in records])
    ids = np.array([rec.track_id for rec in records])
    fields = np.array([(rec.left, rec.top, rec.width, rec.height, rec.conf, *rec.world)
                       for rec in records], dtype=np.float64)
    return frames, ids, fields.reshape(-1, _FIELDS - 2)


def write_mot(source, path):
    """Write records (or anything `mot_columns` takes) as MOT CSV."""
    frames, ids, fields = mot_columns(source)
    columns = [map(str, frames.tolist()), map(str, ids.tolist())]
    columns += [_format_column(column) for column in fields.T]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines([",".join(row) + "\n" for row in zip(*columns)])


def records_to_detections(records: Sequence[MotRecord], images=None) -> List[Detection]:
    """Detections from records, optionally attaching one image per record.

    The `Detection` and `BBox` checks run once over the records' columns;
    if a record fails them, the checked constructors raise its error.
    """
    if images is not None and len(images) != len(records):
        raise ValueError(f"{len(images)} images for {len(records)} records")
    images = ([None] * len(records) if images is None
              else [np.asarray(image, dtype=float) for image in images])
    rows = list(map(_DETECTION_FIELDS, records))
    columns = np.array(rows, dtype=np.float64).reshape(-1, 6)
    if not ((columns[:, 0] >= 1).all() and np.isfinite(columns[:, 1:]).all()
            and (columns[:, 3:5] > 0).all()):
        return [Detection(rec.frame, rec.box, rec.conf, image)
                for rec, image in zip(records, images)]
    boxes = _unchecked(BBox, [{"left": left, "top": top, "width": width, "height": height}
                              for _, left, top, width, height, _ in rows])
    return _unchecked(Detection, [
        {"frame": row[0], "box": box, "score": row[5], "image": image}
        for row, box, image in zip(rows, boxes, images)
    ])


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
