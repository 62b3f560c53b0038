"""The block writer of series CSVs against the original row writer.

``oracle_write_series_csv`` is the row-by-row writer (one ``datetime`` and
one f-string per row) that the block writer ``write_series_csv`` replaced,
kept here verbatim (apart from its name) as the reference: for every input
the two must write the same bytes.
"""

from datetime import timedelta
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsynth import cli
from loadsynth.cli import EPOCH_START, write_series_csv


def _format_timestamp(offset_s: float) -> str:
    stamp = EPOCH_START + timedelta(seconds=float(offset_s))
    return stamp.isoformat()


def oracle_write_series_csv(path, times_s: np.ndarray, series: np.ndarray) -> None:
    n_loads = series.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp" + "".join(f",load_{i+1}" for i in range(n_loads)) + "\n")
        for k in range(series.shape[1]):
            cells = ",".join(f"{series[i, k]:.6g}" for i in range(n_loads))
            fh.write(f"{_format_timestamp(times_s[k])},{cells}\n")


def assert_same_bytes(tmp_path_factory, times_s, series):
    base = tmp_path_factory.getbasetemp()
    want, got = base / "oracle.csv", base / "blocks.csv"
    oracle_write_series_csv(want, times_s, series)
    write_series_csv(got, times_s, series)
    assert got.read_bytes() == want.read_bytes()


# ----------------------------------------------------------------------
# random series
# ----------------------------------------------------------------------

# 30/s, 1/s, 1/30 s, 1/10 min, 1/h and 1/wk, as `synthesize` lays them out
GRID_PERIODS = [1.0 / 30.0, 1.0, 30.0, 600.0, 3600.0, 604_800.0]
MAX_OFFSET_S = 3e9


@st.composite
def grid_times(draw, n_rows):
    period = draw(st.sampled_from(GRID_PERIODS))
    first = draw(st.integers(0, int(MAX_OFFSET_S / period) - n_rows))
    index = np.arange(first, first + n_rows)
    if period < 1.0 and draw(st.booleans()):
        return index / 30.0  # as `simulate` lays out 30 Hz samples
    return index * period


def _tie(draw):
    # j/128 s with odd j is an exact half-microsecond (7812.5 us per 1/128 s)
    return draw(st.integers(0, 2**31)) + draw(st.integers(0, 63)) * 2 / 128 + 1 / 128


def _just_below_second(draw):
    # rounds up to the next whole second, the carry crossing into the seconds
    # (and, from a midnight, into the date)
    whole = draw(st.integers(1, 34_000)) * draw(st.sampled_from([1, 60, 86_400]))
    return whole - draw(st.floats(1e-9, 4.9e-7))


offset_kinds = st.sampled_from(["any", "tie", "below"])


@st.composite
def scattered_times(draw, n_rows):
    out = []
    for _ in range(n_rows):
        kind = draw(offset_kinds)
        if kind == "tie":
            out.append(_tie(draw))
        elif kind == "below":
            out.append(_just_below_second(draw))
        else:
            out.append(draw(st.floats(0.0, MAX_OFFSET_S)))
    return np.array(out, dtype=np.float64)


values = st.floats() | st.sampled_from([1e-300, 5e-324, -2.5e-7, 1e300, -1e300, 0.0, -0.0])


@st.composite
def series_csv_inputs(draw):
    n_loads, n_rows = draw(st.integers(0, 3)), draw(st.integers(0, 40))
    times = draw(grid_times(n_rows) | scattered_times(n_rows))
    cells = draw(st.lists(values, min_size=n_loads * n_rows, max_size=n_loads * n_rows))
    return times, np.array(cells, dtype=np.float64).reshape(n_loads, n_rows)


@settings(max_examples=300, deadline=None)
@given(data=series_csv_inputs(), block_rows=st.integers(1, 50))
def test_block_writer_matches_row_writer(tmp_path_factory, data, block_rows):
    times, series = data
    with mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
        assert_same_bytes(tmp_path_factory, times, series)


def test_rows_across_a_block_boundary(tmp_path_factory):
    n_rows = cli.CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    series = rng.gamma(2.0, 20.0, size=(2, n_rows))
    assert_same_bytes(tmp_path_factory, np.arange(n_rows) * (1.0 / 30.0), series)


def test_timestamp_rule(tmp_path):
    # rounded half to even to whole microseconds; .ffffff only when non-zero
    times = np.array([0.0, 1 / 128, 3 / 128, 86_399.9999996, 90_061.25])
    path = tmp_path / "stamps.csv"
    write_series_csv(path, times, np.ones((1, times.size)))
    stamps = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert stamps == [
        "2021-01-01T00:00:00",
        "2021-01-01T00:00:00.007812",
        "2021-01-01T00:00:00.023438",
        "2021-01-02T00:00:00",
        "2021-01-02T01:01:01.250000",
    ]
