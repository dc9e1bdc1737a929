"""Frozen text readers and writers and config codec, kept as references.

Test-only differential references: `tests/test_text_formats.py` requires the
readers of `det.txt`, `matches.txt` and instance files (the first two try
one `np.loadtxt` pass before `liftedtrack.motio.parse_lines`), the
`matches.txt` writer and the config codec of `liftedtrack.pipeline` to give
`==` values, the same written bytes and the same error messages as these
copies of their former bodies. Here each reader runs its own line loop,
detections are indexed within their frame by a dict loop, and the config
has one parser per key and a formatter that branches on the key. The
instance reader is the one whose messages changed: this copy numbers only
non-blank lines, accepts extra fields on an edge line and reads a header
with a negative count as a lifted edge, and the new reader does none of
these.
"""

import dataclasses
from pathlib import Path

from liftedtrack.affinity import MatchTable
from liftedtrack.graph import MulticutInstance, RowError
from liftedtrack.motio import MotRecord
from liftedtrack.pipeline import PipelineConfig

_FIELDS = 10


def reference_read_mot(path):
    records = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != _FIELDS:
                raise ValueError(
                    f"{path}:{lineno}: expected {_FIELDS} fields, got {len(parts)}"
                )
            try:
                record = MotRecord(
                    frame=int(parts[0]),
                    track_id=int(parts[1]),
                    left=float(parts[2]),
                    top=float(parts[3]),
                    width=float(parts[4]),
                    height=float(parts[5]),
                    conf=float(parts[6]),
                    world=(float(parts[7]), float(parts[8]), float(parts[9])),
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            records.append(record)
    return records


def _frame_local_indices(detections):
    counters = {}
    locals_ = []
    for det in detections:
        idx = counters.get(det.frame, 0)
        counters[det.frame] = idx + 1
        locals_.append((det.frame, idx))
    return locals_


def reference_write_match_table(path, table, detections):
    locals_ = _frame_local_indices(detections)
    with open(path, "w", encoding="ascii") as fh:
        for a, b, value in table.rows.tolist():
            fa, ia = locals_[a]
            fb, ib = locals_[b]
            fh.write(f"{fa} {ia} {fb} {ib} {value!r}\n")


def reference_read_match_table(path, detections):
    lookup = {key: i for i, key in enumerate(_frame_local_indices(detections))}
    triples, linenos = [], []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            try:
                fa, ia, fb, ib = (int(p) for p in parts[:4])
                value = float(parts[4])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            try:
                triples.append((lookup[(fa, ia)], lookup[(fb, ib)], value))
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{lineno}: no detection at (frame, idx) {exc.args[0]}"
                ) from exc
            linenos.append(lineno)
    try:
        return MatchTable(triples)
    except RowError as exc:
        where = ",".join(str(linenos[i]) for i in exc.rows)
        raise ValueError(f"{path}:{where}: {exc}") from exc


def reference_read_instance(path):
    text = Path(path).read_text().split("\n")
    rows = [line.split() for line in text if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty instance file")
    try:
        n, m, k = (int(x) for x in rows[0])
    except ValueError as exc:
        raise ValueError(f"{path}: bad header {rows[0]!r}") from exc
    if len(rows) != 1 + m + k:
        raise ValueError(
            f"{path}: expected {m} + {k} edge lines, found {len(rows) - 1}"
        )

    def parse(row, lineno):
        try:
            u, v, c = int(row[0]), int(row[1]), float(row[2])
            if u == v:
                raise ValueError(f"self-loop ({u}, {v})")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: bad edge line {lineno}: {row!r}") from exc
        return (u, v, c) if u < v else (v, u, c)

    edges = tuple(parse(rows[i], i + 1) for i in range(1, 1 + m))
    lifted = tuple(parse(rows[i], i + 1) for i in range(1 + m, 1 + m + k))
    try:
        return MulticutInstance(n, edges, lifted)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def reference_fmt_value(key, value):
    if key in ("lifted_gaps", "nearby_features"):
        return ",".join(str(v) for v in value)
    if key == "lambda_schedule":
        return ",".join(f"{e}:{lam!r}" for e, lam in value)
    return str(value)


REFERENCE_PARSERS = {
    "max_frame_gap": int,
    "lifted_gaps": lambda s: tuple(int(p) for p in s.split(",") if p),
    "lifted_percentile": float,
    "pregroup_threshold": float,
    "pregroup_max_gap": int,
    "min_cluster_size": int,
    "t_low": float,
    "t_high": float,
    "lambda_schedule": lambda s: tuple(
        (int(p.split(":")[0]), float(p.split(":")[1])) for p in s.split(",") if p
    ),
    "learning_rate": float,
    "epochs": int,
    "seed": int,
    "nearby_features": lambda s: tuple(p for p in s.split(",") if p),
}


def reference_write_config(path, config: PipelineConfig):
    with open(path, "w", encoding="ascii") as fh:
        for f in dataclasses.fields(config):
            value = reference_fmt_value(f.name, getattr(config, f.name))
            fh.write(f"{f.name} = {value}\n")


def reference_read_config(path) -> PipelineConfig:
    overrides, linenos = {}, {}
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in REFERENCE_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in linenos:
                raise ValueError(f"{path}:{linenos[key]},{lineno}: "
                                 f"key {key!r} given twice")
            linenos[key] = lineno
            try:
                overrides[key] = REFERENCE_PARSERS[key](raw.strip())
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return PipelineConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
