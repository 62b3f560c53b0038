"""The chunked phasor reader against the original record-based reader.

``oracle_read_phasor_csv`` and ``oracle_bus_load`` are the row-by-row reader
and bus-power loop that the chunked ``read_phasor_csv`` replaced, kept here
verbatim (apart from names) as the reference: on every valid file the two
must give bit-identical bus power, whatever the chunk size and however the
records are split into files, and on every defective file they must fail in
the same family.
"""

import io
import math
import re
from contextlib import redirect_stderr
from dataclasses import dataclass
from typing import Mapping, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsynth import ingest
from loadsynth.cli import main
from loadsynth.errors import InsufficientData
from loadsynth.ingest import PHASOR_HEADER, read_phasor_csv

_NOMINAL_STEP = 1.0 / 30.0


@dataclass(frozen=True)
class LinePhasor:
    v_mag: float
    v_ang: float
    i_mag: float
    i_ang: float


@dataclass(frozen=True)
class PhasorRecord:
    timestamp_s: float
    lines: Mapping[str, LinePhasor]


def oracle_bus_load(records: Sequence[PhasorRecord]) -> np.ndarray:
    if not records:
        return np.zeros(0)
    line_ids = sorted(records[0].lines.keys())
    out = np.empty(len(records))
    for k, rec in enumerate(records):
        p = 0.0
        for lid in line_ids:
            ph = rec.lines.get(lid)
            if ph is None:
                raise InsufficientData(
                    f"record at t={rec.timestamp_s} lacks phasors for line {lid!r}"
                )
            p += ph.v_mag * ph.i_mag * math.cos(ph.v_ang - ph.i_ang)
        out[k] = p
    return out


def oracle_read_phasor_csv(path) -> list[PhasorRecord]:
    records: list[PhasorRecord] = []
    current_t = None
    current_lines: dict[str, LinePhasor] = {}

    def flush():
        if current_t is not None:
            records.append(PhasorRecord(current_t, dict(current_lines)))

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != PHASOR_HEADER:
            raise ValueError(f"unexpected phasor CSV header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"line {line_no}: expected 6 fields")
            t = float(parts[0])
            if current_t is None or t != current_t:
                if current_t is not None:
                    step = t - current_t
                    if not (0.9 * _NOMINAL_STEP <= step <= 1.1 * _NOMINAL_STEP):
                        raise ValueError(
                            f"line {line_no}: timestamp step {step:.6f}s breaks the "
                            "30 Hz +-10% spacing"
                        )
                flush()
                current_t = t
                current_lines = {}
            current_lines[parts[1]] = LinePhasor(
                float(parts[2]), float(parts[3]), float(parts[4]), float(parts[5])
            )
    flush()
    return records


def oracle_outcome(path):
    try:
        return oracle_bus_load(oracle_read_phasor_csv(path))
    except InsufficientData:
        return "missing channel"
    except ValueError:
        return "malformed"


def chunked_outcome(path):
    try:
        return read_phasor_csv(path)
    except InsufficientData as exc:
        return "missing channel" if "lacks phasors for line" in str(exc) else "malformed"


# ----------------------------------------------------------------------
# random phasor files
# ----------------------------------------------------------------------

# chunks of a few rows put records, duplicates and blank lines across
# chunk boundaries
chunk_rows = st.integers(1, 7)

# '#' would start a comment in a default np.loadtxt call; ids longer than 32
# characters would be cut by a fixed-width string field
line_ids = st.text(alphabet="ab_-#. Zé0", min_size=1, max_size=3) | st.text(
    alphabet="xy#", min_size=33, max_size=40
)
numbers = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
angles = st.floats(-10.0, 10.0, allow_nan=False).map(repr)
blank_lines = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def phasor_records(draw, min_records=0):
    """(timestamp, [[line_id, v_mag, v_ang, i_mag, i_ang], ...]) per record."""
    ids = draw(st.lists(line_ids, min_size=1, max_size=4, unique=True))
    extra = draw(st.lists(line_ids.filter(lambda s: s not in ids), max_size=2, unique=True))
    t = draw(st.floats(0.0, 1e6, allow_nan=False))
    records = []
    for k in range(draw(st.integers(min_records, 8))):
        if k:
            t += draw(st.floats(0.92, 1.08)) * _NOMINAL_STEP
        lines = list(ids) + draw(st.lists(st.sampled_from(ids), max_size=2))  # duplicates
        if k and extra:
            lines += draw(st.lists(st.sampled_from(extra), max_size=2))
        lines = draw(st.permutations(lines))
        rows = [[lid, draw(numbers), draw(angles), draw(numbers), draw(angles)] for lid in lines]
        records.append((t, rows))
    return records


def render(records, draw) -> str:
    lines = [",".join([repr(t), *row]) for t, rows in records for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blank_lines))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([PHASOR_HEADER, *lines])
    return text + newline if draw(st.booleans()) else text


@st.composite
def phasor_files(draw):
    return render(draw(phasor_records()), draw)


@st.composite
def split_phasor_files(draw):
    """One input as (the whole file, the same records split into 1-3 files)."""
    records = draw(phasor_records())
    cuts = draw(st.lists(st.integers(1, max(len(records) - 1, 1)), max_size=2, unique=True))
    bounds = [0, *sorted(c for c in cuts if c < len(records)), len(records)]
    parts = [render(records[a:b], draw) for a, b in zip(bounds, bounds[1:])]
    return render(records, draw), parts


@st.composite
def defective_phasor_files(draw, defect):
    records = draw(phasor_records(min_records=2))
    k = draw(st.integers(1, len(records) - 1))
    t, rows = records[k]
    j = draw(st.integers(0, len(rows) - 1))
    if defect == "fields":
        rows[j] = rows[j][:-1] if draw(st.booleans()) else rows[j] + ["1.0"]
    elif defect == "number":
        rows[j][draw(st.integers(1, 4))] = draw(st.sampled_from(["abc", "", "1.2.3", "--1"]))
    elif defect == "spacing":
        shift = draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0])) * _NOMINAL_STEP
        records[k:] = [(t + shift, rows) for t, rows in records[k:]]
    elif defect == "missing channel":
        first_ids = {row[0] for row in records[0][1]}
        gone = draw(st.sampled_from(sorted(first_ids)))
        records[k] = (t, [row for row in rows if row[0] != gone])
    text = render(records, draw)
    if defect == "header":
        text = text.replace("line_id", "line", 1)
    return text


def _write(tmp_path_factory, text: str, name: str = "phasors.csv"):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(text.encode("utf-8"))
    return path


@settings(max_examples=200, deadline=None)
@given(files=split_phasor_files(), rows=chunk_rows)
def test_columnar_reader_matches_record_reader(tmp_path_factory, files, rows):
    whole, parts = files
    want = oracle_bus_load(oracle_read_phasor_csv(_write(tmp_path_factory, whole)))
    paths = [_write(tmp_path_factory, text, f"part{i}.csv") for i, text in enumerate(parts)]
    with mock.patch.object(ingest, "PHASOR_CHUNK_ROWS", rows):
        np.testing.assert_array_equal(read_phasor_csv(paths), want)


@pytest.mark.parametrize("defect", ["header", "fields", "number", "spacing", "missing channel"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_defects_fail_in_the_same_family(tmp_path_factory, defect, data):
    path = _write(tmp_path_factory, data.draw(defective_phasor_files(defect)))
    with mock.patch.object(ingest, "PHASOR_CHUNK_ROWS", data.draw(chunk_rows)):
        want, got = oracle_outcome(path), chunked_outcome(path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:  # a shift can merge two records into one valid record
        np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gap_or_overlap_between_files_exits_3(tmp_path_factory, data):
    records = data.draw(phasor_records(min_records=2))
    k = data.draw(st.integers(1, len(records) - 1))
    # the second file starts off the 30 Hz grid: a gap, a repeat or a step back
    shift = data.draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 30.0])) * _NOMINAL_STEP
    later = [(t + shift, rows) for t, rows in records[k:]]
    texts = [render(part, data.draw) for part in (records[:k], later)]
    paths = [_write(tmp_path_factory, text, f"part{i}.csv") for i, text in enumerate(texts)]
    # the second file's first row, after any blank lines under its header
    line_no = next(no for no, line in enumerate(texts[1].splitlines()[1:], start=2) if line.strip())
    out, err = tmp_path_factory.getbasetemp() / "out", io.StringIO()
    with mock.patch.object(ingest, "PHASOR_CHUNK_ROWS", data.draw(chunk_rows)), redirect_stderr(err):
        code = main(
            ["ingest", "--phasors", *map(str, paths), "--load-class", "residential",
             "--output-dir", str(out)]
        )
    assert code == 3
    # both timestamps, both files and the line are named
    assert re.match(rf"error: {re.escape(str(paths[1]))} line {line_no}: the row at t=\S+ follows t=\S+ in "
                    rf"{re.escape(str(paths[0]))}, a step of", err.getvalue()), err.getvalue()
    assert not out.exists()


def test_no_parse_call_exceeds_the_chunk(tmp_path, monkeypatch):
    """Every np.loadtxt call of the reader is given at most PHASOR_CHUNK_ROWS lines."""
    lines = [f"{k / 30.0!r},line{j},1,0,{k},0" for k in range(50) for j in range(3)]
    path = tmp_path / "pmu.csv"
    path.write_text("\n".join([PHASOR_HEADER, *lines]) + "\n")
    loadtxt, given_rows = np.loadtxt, []

    def counting_loadtxt(source, *args, **kwargs):
        rows = list(source)
        given_rows.append(len(rows))
        return loadtxt(rows, *args, **kwargs)

    monkeypatch.setattr(ingest, "PHASOR_CHUNK_ROWS", 16)
    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    power = read_phasor_csv(path)
    np.testing.assert_array_equal(power, 3.0 * np.arange(50))
    assert sum(given_rows) == len(lines)
    assert max(given_rows) == 16


@st.composite
def misparsed_phasor_files(draw, defect):
    """(file text, the file line number of its one unparsable row)."""
    records = draw(phasor_records(min_records=1))
    k = draw(st.integers(0, len(records) - 1))
    t, rows = records[k]
    j = draw(st.integers(0, len(rows) - 1))
    if defect == "fields":
        rows[j] = rows[j][:-1] if draw(st.booleans()) else rows[j] + ["1.0"]
    else:
        rows[j][draw(st.integers(1, 4))] = draw(st.sampled_from(["abc", "", "1.2.3", "--1", "1_0"]))
    # every other row is valid: the defective row's text is on one line only
    text = render(records, draw)
    newline = "\r\n" if "\r\n" in text else "\n"
    lines = text.split(newline)
    return text, lines.index(",".join([repr(t), *rows[j]])) + 1


@pytest.mark.parametrize("defect", ["fields", "number"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_error_names_the_file_line(tmp_path_factory, defect, data):
    """Across chunk boundaries, blank lines and \r\n line ends, a row without
    6 fields or with an unparsable number is reported with its file line."""
    text, line_no = data.draw(misparsed_phasor_files(defect))
    path = _write(tmp_path_factory, text)
    with mock.patch.object(ingest, "PHASOR_CHUNK_ROWS", data.draw(chunk_rows)):
        with pytest.raises(InsufficientData) as info:
            read_phasor_csv(path)
    assert str(info.value).startswith(f"{path} line {line_no}: expected the 6 fields ")
