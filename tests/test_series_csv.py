"""The block writer of series CSVs against the original row writer.

``oracle_write_series_csv`` is the row-by-row writer (one ``datetime`` and
one f-string per row) that the block writer ``write_series_csv`` replaced,
kept here verbatim (apart from its name) as the reference: for every input
the two must write the same bytes.
"""

import tracemalloc
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsynth import ingest
from loadsynth.ingest import EPOCH_START, write_series_csv


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


def _either_side(edge):
    return [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]


# the edges of the writer's fixed-notation path: each 10**k, and
# 9.999995 * 10**k, whose sixth digit rounds up into the next decade
DECADE_EDGES = [
    float(v)
    for k in range(-5, 7)
    for edge in (float(f"1e{k}"), float(f"9.999995e{k}"))
    for v in _either_side(edge)
]

# a sixth significant digit followed by an exact half (123456.5) or a half
# scaled to another decade (inexact in binary: a near tie)
sixth_digit_ties = st.builds(
    lambda digits, k: (digits + 0.5) * 10.0**k,
    st.integers(100_000, 999_999),
    st.integers(-10, 2),
) | st.sampled_from([10.0**k + 0.5 for k in range(7)])

magnitudes = (
    st.floats(-4, 6, exclude_max=True).map(lambda p: 10.0**p)  # log-uniform, fixed notation
    | sixth_digit_ties
    | st.sampled_from(DECADE_EDGES)
)
values = (
    st.floats()
    | st.sampled_from([1e-300, 5e-324, -2.5e-7, 1e300, -1e300, 0.0, -0.0])
    | magnitudes
    | magnitudes.map(lambda v: -v)
)


def row_bytes(n_loads: int) -> int:
    """A row's width in the writer's buffer: the timestamp, then a sign, a
    16-byte field and a separator per load (the newline alone for none)."""
    return 27 + max(18 * n_loads, 1)


@st.composite
def series_csv_inputs(draw):
    n_loads, n_rows = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    times = draw(grid_times(n_rows) | scattered_times(n_rows))
    # up to 1,600 cells: each is drawn from a pool of drawn values, as a
    # seeded generator picks, to stay within one example's draw budget
    pool = np.array(draw(st.lists(values, min_size=1, max_size=60)), dtype=np.float64)
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(pool.size, size=(n_loads, n_rows))
    # from below one row (a block is one row at least) to 50 rows a block
    budget = draw(st.integers(0, 50)) * row_bytes(n_loads) + draw(st.integers(1, row_bytes(n_loads)))
    return times, pool[picks], budget


@settings(max_examples=300, deadline=None)
@given(data=series_csv_inputs())
def test_block_writer_matches_row_writer(tmp_path_factory, data):
    times, series, budget = data
    with mock.patch.object(ingest, "CSV_BLOCK_BYTES", budget):
        assert_same_bytes(tmp_path_factory, times, series)


class Blocks:
    """A series as its consecutive blocks of rows, with the series' shape."""

    def __init__(self, series, cuts):
        self.shape = series.shape
        self._blocks = np.split(series, cuts, axis=1)

    def __iter__(self):
        return iter(self._blocks)


@settings(max_examples=100, deadline=None)
@given(data=series_csv_inputs(), seed=st.integers(0, 2**32 - 1))
def test_streamed_blocks_match_row_writer(tmp_path_factory, data, seed):
    # input blocks of any width, empty ones too, across the writer's blocks
    times, series, budget = data
    cuts = np.sort(np.random.default_rng(seed).integers(0, series.shape[1] + 1, 4))
    base = tmp_path_factory.getbasetemp()
    oracle_write_series_csv(base / "oracle.csv", times, series)
    with mock.patch.object(ingest, "CSV_BLOCK_BYTES", budget):
        write_series_csv(base / "stream.csv", times, Blocks(series, cuts))
    assert (base / "stream.csv").read_bytes() == (base / "oracle.csv").read_bytes()


def test_a_stream_short_of_its_rows_writes_nothing(tmp_path):
    series = np.ones((2, 10))
    path = tmp_path / "short.csv"
    stream = Blocks(series, [4])
    stream.shape = (2, 11)
    with pytest.raises(ValueError, match="the blocks held 10 rows of the series' 11"):
        write_series_csv(path, np.arange(11.0), stream)
    assert list(tmp_path.iterdir()) == []
    path.write_text("kept\n")
    with pytest.raises(ValueError):
        write_series_csv(path, np.arange(11.0), stream)
    assert list(tmp_path.iterdir()) == [path] and path.read_text() == "kept\n"


def test_rows_across_a_block_boundary(tmp_path_factory):
    n_rows = ingest.CSV_BLOCK_BYTES // row_bytes(2) + 3
    rng = np.random.default_rng(5)
    series = rng.gamma(2.0, 20.0, size=(2, n_rows))
    assert_same_bytes(tmp_path_factory, np.arange(n_rows) * (1.0 / 30.0), series)


def test_a_column_of_fallback_values_beside_fixed_ones(tmp_path_factory):
    # one load's every value is printed by `%` (NaN, an exponent, a subnormal),
    # the other two take the fixed-notation path, across a block boundary
    n_rows = ingest.CSV_BLOCK_BYTES // row_bytes(3) + 3
    rng = np.random.default_rng(8)
    series = rng.uniform(0.5, 900.0, size=(3, n_rows))
    series[1] = np.resize([np.nan, 1e300, 5e-324], n_rows)
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


def test_writer_memory_is_one_block_whatever_the_load_count(tmp_path):
    # 500 loads x 2,000 rows is 8 MB of values and 36 MB of fixed-width rows;
    # the writer holds one block of CSV_BLOCK_BYTES and its per-value arrays
    series = np.random.default_rng(3).gamma(2.0, 20.0, size=(500, 2_000))
    times = np.arange(2_000) * 3600.0
    tracemalloc.start()
    try:
        write_series_csv(tmp_path / "wide.csv", times, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20
