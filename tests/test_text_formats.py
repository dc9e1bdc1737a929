"""The working-directory readers and the config codec against frozen copies.

`read_mot` and `read_match_table` read a file in one `np.loadtxt` pass and
fall back to the line reader, `liftedtrack.motio.parse_lines`, when that
pass refuses it; `read_instance` reads through `parse_lines` alone, and
`read_config` / `write_config` through one codec per kind of config value.
Fuzzed files, valid and corrupted, must give what the former code in
`tests/reader_reference.py` gave: `==` values, the same written bytes and
the same error messages. That includes spellings on which np.loadtxt and
int() or float() disagree. The instance reader is the exception: it now
names physical lines, so there only the decision to accept and the
accepted instance must agree.
"""

import dataclasses
import random
import warnings
from typing import Tuple

import pytest

from liftedtrack import affinity, motio
from liftedtrack.affinity import (
    FEATURE_NAMES,
    MatchTable,
    read_match_table,
    write_match_table,
)
from liftedtrack.cli import _read_tracklets
from liftedtrack.graph import BBox, Detection
from liftedtrack.motio import MotRecord, read_mot, write_mot
from liftedtrack.pipeline import PipelineConfig, read_config, write_config
from liftedtrack.solver import read_instance, write_instance
from reader_reference import (
    reference_read_config,
    reference_read_instance,
    reference_read_match_table,
    reference_read_mot,
    reference_write_config,
    reference_write_match_table,
)


def outcome(call):
    """("ok", value) or ("error", exception type, message) of `call()`."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", type(exc), str(exc)


def kind_of(result):
    """"ok", or the first word of an error message after its path:lines."""
    return result[0] if result[0] == "ok" else result[2].split(": ", 1)[1].split(" ")[0]


def with_blanks(rnd, lines):
    """`lines` joined as a file, with blank lines planted between them."""
    out = []
    for line in lines:
        if rnd.random() < 0.15:
            out.append(rnd.choice(["", " ", "\t", "  \t "]))
        out.append(line)
    return "".join(line + "\n" for line in out)


def real(rnd):
    """A float in one of the spellings a file may hold."""
    value = rnd.choice([rnd.gauss(0, 50), float(rnd.randint(0, 60)), rnd.random()])
    return rnd.choice([repr(value), f"{value:g}", f"{value:.3e}", f" {value!r} "])


# Field corruptions shared by the fuzzers: each fails int() or float(), or
# reads as a non-finite float
BAD_FIELDS = ("x", "", "1.5.2", "nan", "inf", "-inf", "1e999", "0x10", "--1")


def corrupt_line(rnd, parts, sep):
    """A line with one field dropped, added or replaced by a bad one."""
    parts = list(parts)
    kind = rnd.randrange(3)
    if kind == 0:
        parts.pop(rnd.randrange(len(parts)))
    elif kind == 1:
        parts.insert(rnd.randrange(len(parts) + 1), real(rnd).strip())
    else:
        parts[rnd.randrange(len(parts))] = rnd.choice(BAD_FIELDS)
    return sep.join(parts)


# Field spellings on which np.loadtxt and int() or float() disagree about
# what to accept, each a format of the field it replaces
DISPUTED = ("+{}", "0{}", " {} ", "\t{}", "1_0{}", "{}_0", "{}.", ".5", "1.",
            "Infinity", "-Infinity", "1e-400", "1e999", "\x1c{}", "{}\x1f",
            "\x0b{}", "{}\x0c")
# Files without a row
BLANK_FILES = ("", "\n", "\n\n\n", " \n\t\n", "   ", "\r\n\r", "\t\r")


def respelled(rnd, text, sep):
    """`text` with some fields respelled in DISPUTED ways, a trailing comma on
    some lines, and every line ending made "\n", "\r" or "\r\n"."""
    rate = rnd.choice([0.0, 0.002, 0.01, 0.05])
    lines = []
    for line in text.split("\n")[:-1]:
        parts = line.split(sep)
        if line.strip():
            parts = [rnd.choice(DISPUTED).format(part.strip())
                     if rnd.random() < rate else part for part in parts]
            if rnd.random() < rate:
                parts[-1] += ","
        lines.append((sep or " ").join(parts))
    end = rnd.choice(["\n", "\n", "\r", "\r\n"])
    return "".join(line + end for line in lines)


def fuzzed_mot_file(rnd):
    """MOT lines with spelled-out ints and floats, and planted frames below
    1, non-positive boxes and corrupted fields."""
    lines = []
    for _ in range(rnd.randrange(25)):
        parts = [str(rnd.choice([1, 2, 3, 7, 0, -1]) if rnd.random() < 0.05
                     else rnd.randint(1, 9)),
                 rnd.choice(["-1", "+3", " 2", "4 ", str(rnd.randint(-2, 9))]),
                 real(rnd), real(rnd)]
        parts += [rnd.choice(["0", "-3", "0.0"]) if rnd.random() < 0.02
                  else repr(rnd.uniform(0.5, 80)) for _ in range(2)]
        parts += [real(rnd)] + [rnd.choice(["-1", real(rnd)]) for _ in range(3)]
        lines.append(corrupt_line(rnd, parts, ",") if rnd.random() < 0.02
                     else ",".join(parts))
    return with_blanks(rnd, lines)


class TestMotMatchesReference:
    @staticmethod
    def agree(tmp_path, text):
        """The kind of outcome of reading `text` as a MOT file, which read_mot
        and the frozen reader must share, with the same written bytes."""
        path, ours, theirs = (tmp_path / name for name in ("det.txt", "a.txt", "b.txt"))
        path.write_bytes(text.encode("ascii"))
        want = outcome(lambda: reference_read_mot(path))
        got = outcome(lambda: read_mot(path))
        assert got == want, text
        if want[0] == "ok":
            write_mot(got[1], ours)
            write_mot(want[1], theirs)
            assert ours.read_bytes() == theirs.read_bytes()
        return kind_of(want)

    def test_fuzzed_files(self, tmp_path):
        rnd = random.Random(31)
        kinds = {self.agree(tmp_path, fuzzed_mot_file(rnd)) for _ in range(600)}
        assert kinds == {"ok", "expected", "frame", "box", "invalid", "could",
                         "non-finite"}

    def test_written_records_read_back(self, tmp_path):
        rnd = random.Random(32)
        records = [MotRecord(rnd.randint(1, 9), rnd.randint(-1, 9), rnd.gauss(0, 1),
                             rnd.gauss(0, 100), rnd.uniform(1, 50), rnd.uniform(1, 50),
                             rnd.random(), tuple(rnd.choice([-1.0, 0.5]) for _ in "xyz"))
                   for _ in range(200)]
        path = tmp_path / "det.txt"
        write_mot(records, path)
        assert read_mot(path) == reference_read_mot(path) == records

    def test_disputed_spellings(self, tmp_path):
        rnd = random.Random(37)
        texts = BLANK_FILES + tuple(respelled(rnd, fuzzed_mot_file(rnd), ",")
                                    for _ in range(600))
        kinds = {self.agree(tmp_path, text) for text in texts}
        assert kinds == {"ok", "expected", "frame", "box", "invalid", "could",
                         "non-finite"}


def fuzzed_match_file(rnd):
    """Detections, and lines "fa ia fb ib value" on them with planted unknown
    detections, self-pairs, values outside [0, 1], repeats and corrupted
    fields."""
    frames = sorted(rnd.randint(1, 5) for _ in range(rnd.randint(1, 12)))
    detections = [Detection(frame=f, box=BBox(0.0, 0.0, 1.0, 1.0)) for f in frames]
    keys = [(f, frames[:i].count(f)) for i, f in enumerate(frames)]
    lines, by_pair = [], {}
    for _ in range(rnd.randrange(20)):
        (fa, ia), (fb, ib) = rnd.sample(keys, 2) if len(keys) > 1 else keys * 2
        if rnd.random() < 0.01:
            fb, ib = rnd.choice([(fa, ia), (rnd.randint(0, 7), rnd.randint(0, 3))])
        fresh = rnd.choice([rnd.random(), rnd.randint(0, 4) / 4])
        value = (rnd.choice([1.5, -0.25, float("nan")]) if rnd.random() < 0.01
                 else fresh if rnd.random() < 0.02
                 else by_pair.setdefault(frozenset([(fa, ia), (fb, ib)]), fresh))
        parts = [str(fa), str(ia), str(fb), str(ib), repr(value)]
        lines.append(corrupt_line(rnd, parts, " ") if rnd.random() < 0.01
                     else rnd.choice([" ", "  ", "\t"]).join(parts))
    return detections, with_blanks(rnd, lines)


class TestMatchTableMatchesReference:
    @staticmethod
    def agree(tmp_path, detections, text):
        """The kind of outcome of reading `text` as a match table, which
        read_match_table and the frozen reader must share, with the same
        bytes from the writer and the frozen writer."""
        path, ours, theirs = (tmp_path / n for n in ("matches.txt", "a.txt", "b.txt"))
        path.write_bytes(text.encode("ascii"))
        want = outcome(lambda: reference_read_match_table(path, detections))
        got = outcome(lambda: read_match_table(path, detections))
        if want[0] == "error":
            assert got == want, text
        else:
            assert got[1].rows.dtype == want[1].rows.dtype
            assert got[1].rows.tolist() == want[1].rows.tolist()
            write_match_table(ours, got[1], detections)
            reference_write_match_table(theirs, want[1], detections)
            assert ours.read_bytes() == theirs.read_bytes()
        return kind_of(want)

    def test_fuzzed_files(self, tmp_path):
        rnd = random.Random(33)
        kinds = {self.agree(tmp_path, *fuzzed_match_file(rnd)) for _ in range(600)}
        assert kinds == {"ok", "expected", "no", "self-loop", "overlap", "conflicting",
                         "invalid", "could"}

    def test_disputed_spellings(self, tmp_path):
        rnd = random.Random(38)
        cases = [fuzzed_match_file(rnd) for _ in range(600)]
        cases = ([(d, text) for (d, _), text in zip(cases, BLANK_FILES)]
                 + [(d, respelled(rnd, text, None)) for d, text in cases])
        kinds = {self.agree(tmp_path, d, text) for d, text in cases}
        assert kinds == {"ok", "expected", "no", "self-loop", "overlap", "conflicting",
                         "invalid", "could"}


def fuzzed_instance_file(rnd):
    """An "n m k" header and edge lines, with planted self-loops, nodes out
    of range, repeated pairs, wrong edge counts and corrupted fields; never
    an extra field on an edge line or a negative header count, which the
    former reader accepted or misread."""
    n = rnd.randint(0, 7)
    rows = []
    for _ in range(rnd.randrange(10) if n > 1 else 0):
        u, v = rnd.sample(range(n + (rnd.random() < 0.05)), 2)
        if rnd.random() < 0.05:
            v = u
        rows.append(f"{u} {v} {real(rnd).strip()}")
    k = rnd.randint(0, len(rows))
    m = len(rows) - k + (rnd.random() < 0.05)
    lines = [f"{n} {m} {k}"] + rows
    if rnd.random() < 0.1:
        i = rnd.randrange(len(lines))
        parts = lines[i].split()
        parts[rnd.randrange(3)] = rnd.choice(BAD_FIELDS[:4])
        lines[i] = " ".join(parts)
    return with_blanks(rnd, lines)


class TestInstanceMatchesReference:
    def test_fuzzed_files(self, tmp_path):
        rnd = random.Random(34)
        path, ours = tmp_path / "inst.txt", tmp_path / "back.txt"
        kinds = set()
        for _ in range(600):
            path.write_text(fuzzed_instance_file(rnd))
            want = outcome(lambda: reference_read_instance(path))
            got = outcome(lambda: read_instance(path))
            assert got[0] == want[0], (path.read_text(), got, want)
            kinds.add(kind_of(want))
            if want[0] == "ok":
                assert got[1] == want[1]
                write_instance(got[1], ours)
                assert read_instance(ours) == want[1]
            else:
                assert got[2].startswith(f"{path}:")
        assert kinds == {"ok", "bad", "expected", "edge", "lifted", "duplicate"}


def fuzzed_config(rnd):
    epochs = sorted(rnd.sample(range(12), rnd.randint(1, 3)))
    return PipelineConfig(
        max_frame_gap=rnd.randint(1, 5),
        lifted_gaps=tuple(sorted(rnd.sample(range(6, 60), rnd.randint(0, 3)))),
        lifted_percentile=rnd.uniform(0, 100),
        pregroup_threshold=rnd.uniform(0.01, 0.99),
        pregroup_max_gap=rnd.randint(1, 4),
        min_cluster_size=rnd.randint(1, 8),
        t_low=rnd.uniform(0, 0.4),
        t_high=rnd.uniform(0.5, 1),
        lambda_schedule=tuple((e, rnd.choice([0.0, rnd.random(), 1.0])) for e in epochs),
        learning_rate=rnd.uniform(1e-5, 1e-2),
        epochs=rnd.randint(1, 29),
        seed=rnd.randint(0, 2**31),
        nearby_features=tuple(rnd.sample(FEATURE_NAMES, rnd.randint(1, 4))),
    )


# Value tokens per kind of config value: mostly valid ones, some of another
# kind, and a few that no kind accepts
TOKENS = {
    int: ["3", " 7", "12", "+2", "0", "-2"],
    float: ["0.5", "1e-3", " 0.25 ", "60", "nan", "inf", "1.5"],
    str: list(FEATURE_NAMES) + [" d_ae", "foo"],
    "pair": ["0:0.0", "4:0.5", "8: 0.95", " 9 :1", "2:b", "1.5:0.2", "3:2"],
}
KINDS = {int: int, float: float, Tuple[int, ...]: int, Tuple[str, ...]: str,
         Tuple[Tuple[int, float], ...]: "pair"}


def fuzzed_config_file(rnd):
    """`key = value` lines joining tokens with commas. Every lambda_schedule
    item has exactly one colon, since items with more or fewer are rejected
    now and were misread before."""
    fields = dataclasses.fields(PipelineConfig)
    lines = []
    for _ in range(rnd.randint(1, 5)):
        field = rnd.choice(fields)
        kind = KINDS[field.type]
        scalar = field.type in (int, float)
        count = 1 + (rnd.random() < 0.05) if scalar else rnd.randint(0, 3)
        tokens = [rnd.choice(TOKENS[kind] if rnd.random() < 0.97
                             else TOKENS[rnd.choice(list(TOKENS))])
                  for _ in range(count)]
        if kind != "pair" or all(t.count(":") == 1 for t in tokens):
            lines.append(f"{field.name} = {','.join(tokens)}")
        if rnd.random() < 0.05:
            lines.append(rnd.choice(["# comment", "seed 1", "bogus = 1", ""]))
    return with_blanks(rnd, lines)


class TestConfigMatchesReference:
    def test_written_configs(self, tmp_path):
        rnd = random.Random(35)
        ours, theirs = tmp_path / "a.cfg", tmp_path / "b.cfg"
        for config in [PipelineConfig()] + [fuzzed_config(rnd) for _ in range(300)]:
            write_config(ours, config)
            reference_write_config(theirs, config)
            assert ours.read_bytes() == theirs.read_bytes()
            assert read_config(ours) == reference_read_config(ours) == config

    def test_fuzzed_files(self, tmp_path):
        rnd = random.Random(36)
        path = tmp_path / "run.cfg"
        kinds = set()
        for _ in range(1500):
            path.write_text(fuzzed_config_file(rnd))
            want = outcome(lambda: reference_read_config(path))
            assert outcome(lambda: read_config(path)) == want, path.read_text()
            # accepted, rejected naming a line, or rejected as a whole
            kinds.add(want[0] if want[0] == "ok" else want[2][len(str(path))])
        assert kinds == {"ok", ":"}


def refuse(*args, **kwargs):
    raise AssertionError("the line reader ran")


class TestArrayPass:
    """Canonical files are read by the array pass alone. Without these, an
    array pass that always fell back would pass every test above."""

    def test_canonical_mot_file(self, tmp_path, monkeypatch):
        rnd = random.Random(39)
        path = tmp_path / "det.txt"
        read = 0
        for _ in range(20):
            path.write_text(fuzzed_mot_file(rnd))
            want = outcome(lambda: reference_read_mot(path))
            if want[0] == "ok" and want[1]:
                write_mot(want[1], path)
                with monkeypatch.context() as patch:
                    patch.setattr(motio, "parse_lines", refuse)
                    assert read_mot(path) == want[1]
                read += 1
        assert read >= 10

    def test_canonical_match_file(self, tmp_path, monkeypatch):
        rnd = random.Random(40)
        path = tmp_path / "matches.txt"
        read = 0
        for _ in range(20):
            detections, text = fuzzed_match_file(rnd)
            path.write_text(text)
            want = outcome(lambda: reference_read_match_table(path, detections))
            if want[0] == "ok" and len(want[1].rows):
                write_match_table(path, want[1], detections)
                with monkeypatch.context() as patch:
                    patch.setattr(affinity, "parse_lines", refuse)
                    assert read_match_table(path, detections) == want[1]
                read += 1
        assert read >= 10

    @pytest.mark.parametrize("text", BLANK_FILES)
    def test_blank_file_reads_empty_without_warnings(self, tmp_path, text):
        path = tmp_path / "blank.txt"
        path.write_bytes(text.encode("ascii"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_mot(path) == []
            assert read_match_table(path, []) == MatchTable([])


def one_detection_per_frame(path):
    return read_match_table(path, [Detection(f, BBox(0.0, 0.0, 1.0, 1.0))
                                   for f in (1, 2)])


# reader -> a valid first line of its file
ASCII_READERS = {
    "read_mot": (read_mot, "1,-1,10,20,30,40,0.9,-1,-1,-1"),
    "read_match_table": (one_detection_per_frame, "1 0 2 0 0.5"),
    "read_instance": (read_instance, "2 1 0"),
    "_read_tracklets": (_read_tracklets, "0 1"),
    "read_config": (read_config, "epochs = 2"),
}


@pytest.mark.parametrize("name", ASCII_READERS)
def test_non_ascii_byte_names_file_and_line(tmp_path, name):
    reader, first = ASCII_READERS[name]
    path = tmp_path / "table.txt"
    path.write_bytes(f"{first}\ncafé 1\n".encode("utf-8"))
    with pytest.raises(ValueError) as exc:
        reader(path)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (f"{path}:2: 'ascii' codec can't decode byte 0xc3 in "
                              f"position 3: ordinal not in range(128)")
