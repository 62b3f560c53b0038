"""From raw phasor streams to the four normalized training datasets; the
owner of the phasor, series and dataset CSV formats.

Pipeline: phasor CSV rows read in record-aligned chunks of (record x line)
arrays -> net active power at the bus (30 Hz), one vectorised pass per chunk
-> block means -> profiles:

* level 1: consecutive 900-sample windows at 30 Hz, mean-one normalized;
* level 2: 30-second means reshaped into 120-sample hours, divided by the
  hour's mean, then detrended with a degree-4 polynomial fitted over the
  surrounding five hours (hours without the full +-2 h context are
  dropped, not fitted with a truncated window);
* level 3: hourly means in 168-sample weeks, mean-one, tagged with the
  season of their calendar week;
* level 4: weekly means in 52-sample years, mean-one.

Each level's profiles are one ProfileSet.  Extraction windows are aligned
to the start of the input series; ``start_time_s`` says where that start
sits relative to January 1st and only drives the season-of-week tagging.
A level-1, -3 or -4 window that holds a negative value (a bus that exports
power) or a non-finite one, and a level-2 hour whose five-hour detrending
window holds a non-finite value, is left out and counted in
``LevelDatasets.skipped``; one whose mean is degenerate is left out
uncounted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import stat
import sys
import tempfile
import warnings
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (
    LEVEL_SPECS,
    Level,
    LoadClass,
    Metric,
    ProfileRowError,
    ProfileSet,
    Resolution,
    Season,
    downsample,
    season_of_week,
    truncate_to_multiple,
)
from .errors import InsufficientData

DETREND_WINDOW = 5 * LEVEL_SPECS[Level.L2].profile_length  # five hours of 30-second means
DETREND_CENTER = slice(2 * DETREND_WINDOW // 5, 3 * DETREND_WINDOW // 5)  # the middle hour
DETREND_DEGREE = 4


def compute_bus_load(
    v_mag: np.ndarray, v_ang: np.ndarray, i_mag: np.ndarray, i_ang: np.ndarray
) -> np.ndarray:
    """Net active power injection per record: P = sum_lines Re(V * conj(I)).

    The arguments are (n_records, n_lines) phasor arrays, magnitudes in
    kV/kA and angles in radians.  Positive means consumption; with kV and kA
    the result is in MW.  Starting from zeros, the lines are added in column
    order, one ``v_mag * i_mag * cos(v_ang - i_ang)`` each.
    """
    out = np.zeros(v_mag.shape[0])
    for j in range(v_mag.shape[1]):
        out += v_mag[:, j] * i_mag[:, j] * np.cos(v_ang[:, j] - i_ang[:, j])
    return out


def _detrend_basis() -> np.ndarray:
    # centred abscissa scaled to [-1, 1]: raw indices up to 600 would push
    # the degree-4 normal equations past condition 1e12
    n = DETREND_WINDOW
    u = (np.arange(n) - (n - 1) / 2.0) / ((n - 1) / 2.0)
    return np.vander(u, DETREND_DEGREE + 1, increasing=True)


_BASIS = _detrend_basis()
_BASIS_PINV = np.linalg.pinv(_BASIS)


def detrend_hour(window: Sequence[float]) -> tuple[np.ndarray, tuple[float, ...]]:
    """Remove a windowed degree-4 trend from the centre hour.

    ``window`` is five hours of 30-second means (600 values); the centre
    hour is samples 240..359.  A degree-4 polynomial is least-squares
    fitted over all 600 points (abscissa scaled to [-1, 1]) and subtracted
    from the centre hour; the residual mean is then removed so the output
    is exactly zero-mean.  Returns (120 detrended values, 5 coefficients
    of the removed polynomial, lowest order first).
    """
    arr = np.asarray(window, dtype=np.float64)
    if arr.shape != (DETREND_WINDOW,):
        raise ValueError(f"detrend window must be {DETREND_WINDOW} samples, got shape {arr.shape}")
    coeffs = _BASIS_PINV @ arr
    resid = arr[DETREND_CENTER] - _BASIS[DETREND_CENTER] @ coeffs
    resid = resid - resid.mean()
    return resid, tuple(float(c) for c in coeffs)


def _no_profiles(level: Level):
    return dataclasses.field(default_factory=lambda: ProfileSet(level, ()))


@dataclass
class LevelDatasets:
    """The four training datasets extracted from one or more load series.

    ``issues`` maps a level to the InsufficientData explanation when the
    input did not cover a single profile at that level; ``skipped`` counts
    the windows of a level left out for a negative or non-finite value (a
    bus that exports power, or a bad reading).
    """

    l1: ProfileSet = _no_profiles(Level.L1)
    l2: ProfileSet = _no_profiles(Level.L2)
    l3: ProfileSet = _no_profiles(Level.L3)
    l4: ProfileSet = _no_profiles(Level.L4)
    issues: dict[Level, str] = dataclasses.field(default_factory=dict)
    skipped: dict[Level, int] = dataclasses.field(default_factory=dict)

    def of(self, level: Level) -> ProfileSet:
        return getattr(self, level.value)

    @classmethod
    def concatenate(cls, parts: Sequence["LevelDatasets"]) -> "LevelDatasets":
        """The profiles of one or more datasets, level by level in order; a
        level with none keeps the last issue given for it, and skip counts add."""
        out = cls(*(ProfileSet.concatenate([p.of(level) for p in parts]) for level in Level))
        for part in parts:
            out.issues.update((level, text) for level, text in part.issues.items() if not out.of(level))
            for level, count in part.skipped.items():
                out.skipped[level] = out.skipped.get(level, 0) + count
        return out


def add_mean_one_rows(out: LevelDatasets, level: Level, windows, load_class, seasons=None, picks=None):
    """Set ``out``'s profiles at ``level`` to the mean-one profiles of the
    rows ``picks`` (default: all) of the raw ``windows``.

    Each kept row is divided by its mean, then by the mean of the result,
    which pins it to 1; the first mean is its ``source_mean``.  Rows holding
    a negative or non-finite value are left out and counted in
    ``out.skipped``; a row whose mean is at or below 1e-9 of its maximum is
    degenerate and left out.  ``seasons``, if given, holds the season of
    each row.
    """
    means = windows.mean(axis=1)
    usable = (windows.min(axis=1) >= 0) & np.isfinite(means)  # a NaN fails both
    fine = usable & (means > 1e-9 * windows.max(axis=1, initial=0.0))
    picks = np.arange(len(windows)) if picks is None else picks
    rows = picks[fine[picks]]
    if rows.size == len(windows):
        scaled = windows / means[:, None]
    else:
        scaled = windows[rows]
        scaled /= means[rows, None]
    scaled /= scaled.mean(axis=1, keepdims=True)
    labels = None if seasons is None else [seasons[r] for r in rows.tolist()]
    setattr(out, level.value, ProfileSet(level, scaled, (load_class,) * rows.size, labels, means[rows]))
    skipped = int(np.count_nonzero(~usable[picks]))
    if skipped:
        out.skipped[level] = skipped


def _evenly_spaced(indices: np.ndarray, max_count: Optional[int]) -> np.ndarray:
    if max_count is None or indices.size <= max_count:
        return indices
    pick = np.linspace(0, indices.size - 1, max_count).round().astype(int)
    return indices[np.unique(pick)]


def extract_l2_profiles(
    halfmin_means: np.ndarray, load_class: LoadClass, max_profiles: Optional[int]
) -> tuple[ProfileSet, int]:
    """Detrended hour-long profiles from a series of 30-second means, and the
    number of hours left out for a non-finite value in their detrending window.

    Only hours with a full +-2 h context are used; when ``max_profiles``
    is not None the eligible hours are thinned evenly across the span.
    """
    hour = LEVEL_SPECS[Level.L2].profile_length
    n_hours = halfmin_means.size // hour
    eligible = np.arange(2, n_hours - 2) if n_hours >= 5 else np.arange(0)
    eligible = _evenly_spaced(eligible, max_profiles)
    rows, coeffs, means, skipped = [], [], [], 0
    for k in eligible:
        start = k * hour - DETREND_CENTER.start
        window = halfmin_means[start : start + DETREND_WINDOW]
        if not np.isfinite(window).all():
            skipped += 1
            continue
        hour_mean = float(window[DETREND_CENTER].mean())
        if hour_mean <= 1e-9 * float(np.max(window, initial=0.0)):
            continue
        detrended, trend = detrend_hour(window / hour_mean)
        rows.append(detrended)
        coeffs.append(trend)
        means.append(hour_mean)
    trend = np.array(coeffs).reshape(-1, 5)
    return ProfileSet(Level.L2, np.array(rows), (load_class,) * len(rows), None, means, trend), skipped


def extract_levels_from_block_means(
    halfmin_means: np.ndarray,
    load_class: LoadClass,
    start_time_s: float,
    max_l2_profiles: Optional[int],
) -> LevelDatasets:
    """Levels 2-4 from 30-second means (level 1 needs the full 30 Hz data)."""
    ds = LevelDatasets()
    m30 = np.asarray(halfmin_means, dtype=np.float64)
    hour, week, year = (LEVEL_SPECS[lvl].profile_length for lvl in (Level.L2, Level.L3, Level.L4))

    ds.l2, skipped = extract_l2_profiles(m30, load_class, max_l2_profiles)
    if skipped:
        ds.skipped[Level.L2] = skipped
    n_hours = m30.size // hour
    if n_hours < 5:
        ds.issues[Level.L2] = (
            "level 2 needs at least 5 full hours of data for the +-2 h "
            f"detrending context; got {m30.size} half-minute samples"
        )
    elif max_l2_profiles == 0:
        ds.issues[Level.L2] = (
            "level 2 needs at least 5 full hours of data and a cap above 0; the cap "
            f"of 0 kept none of the {n_hours - 4} hours with the +-2 h context"
        )

    hourly = truncate_to_multiple(m30, hour)
    hourly = downsample(hourly, hour, Metric.MEAN) if hourly.size else np.zeros(0)
    start_week = int(start_time_s // LEVEL_SPECS[Level.L4].sampling_period_s)

    n_weeks = hourly.size // week
    if n_weeks == 0:
        ds.issues[Level.L3] = (
            f"level 3 needs at least one full week; got {hourly.size} hours"
        )
    weeks = hourly[: n_weeks * week].reshape(n_weeks, week)
    seasons = [season_of_week(start_week + w) for w in range(n_weeks)]
    add_mean_one_rows(ds, Level.L3, weeks, load_class, seasons)

    weekly = downsample(weeks.ravel(), week, Metric.MEAN) if n_weeks else np.zeros(0)
    n_years = weekly.size // year
    if n_years == 0:
        ds.issues[Level.L4] = (
            f"level 4 needs at least one full 52-week year; got {weekly.size} weeks"
        )
    years = weekly[: n_years * year].reshape(n_years, year)
    add_mean_one_rows(ds, Level.L4, years, load_class)
    return ds


def extract_level_datasets(
    load_series: Sequence[float],
    start_time_s: float,
    load_class: LoadClass,
    max_l1_profiles: Optional[int],
    max_l2_profiles: Optional[int],
) -> LevelDatasets:
    """All four datasets from a contiguous 30 Hz load series.

    Levels lacking enough input are reported in ``issues`` instead of
    failing the call.
    """
    series = np.asarray(load_series, dtype=np.float64)
    length = LEVEL_SPECS[Level.L1].profile_length  # 30 Hz ticks per 30 s
    trimmed = truncate_to_multiple(series, length)
    m30 = downsample(trimmed, length, Metric.MEAN) if trimmed.size else np.zeros(0)
    out = extract_levels_from_block_means(
        m30, load_class, start_time_s, max_l2_profiles
    )

    n_windows = series.size // length
    windows = series[: n_windows * length].reshape(n_windows, length)
    picks = _evenly_spaced(np.arange(n_windows), max_l1_profiles)
    add_mean_one_rows(out, Level.L1, windows, load_class, picks=picks)
    if max_l1_profiles == 0 and n_windows:
        out.issues[Level.L1] = (
            "level 1 needs at least 900 samples at 30 Hz and a cap above 0; the cap "
            f"of 0 kept none of the {n_windows} windows"
        )
    elif n_windows == 0:
        out.issues[Level.L1] = (
            f"level 1 needs at least 900 samples at 30 Hz; got {series.size}"
        )
    return out


# ----------------------------------------------------------------------
# File formats
# ----------------------------------------------------------------------

# data rows parsed per np.loadtxt call, in every input CSV: bounds a
# reader's memory whatever the length of its input
PHASOR_CHUNK_ROWS = 16_384


def _parse_rows(lines, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an exhausted input is an empty chunk
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _line_error(path, k: int, reason: str, dtype=None) -> InsufficientData:
    """The error naming data line ``k`` of ``path`` (0 is the first under the
    header; blank lines do not count), found by reading the file again; given
    ``dtype``, the first from the k-th on that does not parse as a row of it."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # the header
        numbered = ((no, line) for no, line in enumerate(fh, start=2) if not line.isspace())
        for no, line in itertools.islice(numbered, k, None):
            if dtype is None:
                return InsufficientData(f"{path} line {no}: {reason}")
            try:
                _parse_rows([line], dtype)
            except ValueError:
                return InsufficientData(f"{path} line {no}: {reason}, got {line.strip()!r}")
    return InsufficientData(f"{path}: {reason}")  # the file changed since it was parsed


def read_csv_chunks(path, row_dtype):
    """The data rows of a CSV file in arrays of PHASOR_CHUNK_ROWS rows, the
    last one shorter, maybe empty; each is parsed in C by np.loadtxt, which
    pulls the lines from the file, once the one before it is consumed.

    ``row_dtype(header)`` is the dtype of the rows under the stripped header
    line, or None for a wrong header.  Blank lines are skipped.  An unreadable
    or non-UTF-8 file, a wrong header and a line that does not parse raise
    InsufficientData naming the file and line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            dtype = row_dtype(header)
            if dtype is None:
                raise InsufficientData(f"{path} line 1: unexpected header {header!r}")
            lines = itertools.filterfalse(str.isspace, fh)  # loadtxt rejects blank lines
            parsed = 0  # data lines in the chunks before
            while True:
                try:
                    rows = _parse_rows(itertools.islice(lines, PHASOR_CHUNK_ROWS), dtype)
                except UnicodeDecodeError:
                    raise
                except ValueError as exc:  # a wrong field count or an unparsable field
                    raise _line_error(path, parsed, f"expected the {len(dtype)} fields {header}", dtype) from exc
                yield rows
                if rows.size < PHASOR_CHUNK_ROWS:
                    return
                parsed += rows.size
    except UnicodeDecodeError as exc:
        raise InsufficientData(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise InsufficientData(f"cannot read {exc.filename or path}: {exc.strerror or exc}") from exc


def _off_30hz_grid(step_s: np.ndarray) -> np.ndarray:
    """Indices of the timestamp steps (s) outside 1/30 s +-10%, the 30 Hz spacing."""
    step = LEVEL_SPECS[Level.L1].sampling_period_s
    return np.flatnonzero(~((step_s >= 0.9 * step) & (step_s <= 1.1 * step)))


def _off_grid_error(path, k: int, now: str, before: str, step_s: float) -> InsufficientData:
    """The error naming data line ``k``, whose row at ``now`` is ``step_s`` after ``before``."""
    return _line_error(path, k, f"the row at {now} follows {before}, a step of {step_s:.6f}s that breaks the 30 Hz +-10% spacing")


PHASOR_HEADER = "timestamp,line_id,v_mag,v_ang,i_mag,i_ang"
_PHASOR_FIELDS = ("v_mag", "v_ang", "i_mag", "i_ang")
# line_id is an object field: a fixed-width string would truncate long ids
_PHASOR_ROW = np.dtype([("t", "f8"), ("line_id", object)] + [(f, "f8") for f in _PHASOR_FIELDS])


@dataclass
class _RecordCarry:
    """What checking a record needs from the records before it."""

    line_ids: Optional[tuple[str, ...]] = None  # the first record's, sorted
    last_t: Optional[float] = None
    last_path: object = None


def _records_bus_load(rows: np.ndarray, path, start: int, carry: _RecordCarry) -> np.ndarray:
    """Bus power of the whole records ``rows``, from data line ``start`` of ``path`` on, checked against ``carry``."""
    t, ids = rows["t"], rows["line_id"]
    starts = np.ones(t.size, dtype=bool)
    starts[1:] = t[1:] != t[:-1]
    first = np.flatnonzero(starts)  # first row of each record
    record = np.cumsum(starts) - 1  # record index of each row
    lead = carry.last_t is not None  # step 0 comes from the record before
    stamps = np.concatenate(([carry.last_t], t[first])) if lead else t[first]
    step = np.diff(stamps)
    off_grid = _off_30hz_grid(step)
    if off_grid.size:
        k = off_grid[0]
        before = f"t={stamps[k]}" + (f" in {carry.last_path}" if k == 0 and lead and carry.last_path != path else "")
        raise _off_grid_error(path, start + first[k + 1 - lead], f"t={stamps[k + 1]}", before, step[k])
    if carry.line_ids is None:
        carry.line_ids = tuple(sorted(set(ids[record == 0])))
    grid = np.full((first.size, len(carry.line_ids)), -1)  # (record, line) -> row
    for j, lid in enumerate(carry.line_ids):
        at = np.flatnonzero(ids == lid)
        rec = record[at]
        last = np.ones(at.size, dtype=bool)  # of duplicates, the last row wins
        last[:-1] = rec[1:] != rec[:-1]
        grid[rec[last], j] = at[last]
    missing = np.argwhere(grid < 0)
    if missing.size:
        k, j = missing[0]
        raise InsufficientData(f"{path}: record at t={t[first[k]]} lacks phasors for line {carry.line_ids[j]!r}")
    carry.last_t, carry.last_path = t[first[-1]], path
    return compute_bus_load(*(rows[name][grid] for name in _PHASOR_FIELDS))


def read_phasor_csv(paths) -> np.ndarray:
    """Bus power per record (``compute_bus_load``) of one or more phasor CSVs.

    Each file holds `timestamp,line_id,v_mag,v_ang,i_mag,i_ang` rows under
    that header, and several files are read as one input in the order given.
    Consecutive rows with the same timestamp form one record, and record
    timestamps must step at nominally 30 Hz (each step within +-10%), also
    from the last record of one file to the first of the next.  The first
    record fixes the line set: extra lines in later records are ignored, a
    record lacking one of its lines raises InsufficientData naming it, and
    within a record the last row of a line wins.  Any other defect raises
    InsufficientData naming the file and line.

    The whole records of each chunk of read_csv_chunks are reduced to bus
    power before the next is parsed, the rows of its last timestamp held back.
    The first chunk holding a defect reports it: a parse error, then a spacing
    error, then a missing line.
    """
    paths = [paths] if isinstance(paths, (str, os.PathLike)) else paths
    carry, power = _RecordCarry(), []
    for path in paths:
        start, rows = 0, np.zeros(0, dtype=_PHASOR_ROW)  # held back: the last record, from data line start
        for chunk in read_csv_chunks(path, {PHASOR_HEADER: _PHASOR_ROW}.get):
            rows = np.concatenate((rows, chunk)) if rows.size else chunk
            ends = np.flatnonzero(rows["t"][1:] != rows["t"][:-1])  # the last row of each record but the last
            if ends.size and chunk.size == PHASOR_CHUNK_ROWS:  # the last chunk is summed whole below
                power.append(_records_bus_load(rows[: ends[-1] + 1], path, start, carry))
                start += ends[-1] + 1
                rows = rows[ends[-1] + 1 :]
        if rows.size:
            power.append(_records_bus_load(rows, path, start, carry))
        rows = chunk = None  # not held while the next file is read or the power is joined
    return np.concatenate(power) if power else np.zeros(0)


def _series_row(header: str, stamp=object) -> Optional[np.dtype]:
    """A series CSV row under ``header``: a timestamp, then a float per load;
    None for a header with no load column (no comma)."""
    if "," not in header:
        return None
    return np.dtype([("t", stamp)] + [(f"load_{i + 1}", "f8") for i in range(header.count(","))])


def read_series_csv(path) -> tuple[list[str], np.ndarray]:
    """Timestamps and (n_loads, n_rows) values of a series CSV, by ``read_csv_chunks``."""
    rows = np.concatenate(list(read_csv_chunks(path, _series_row)))
    loads = rows.dtype.names[1:]
    return rows["t"].tolist(), np.array([rows[name] for name in loads]).reshape(len(loads), rows.size)


def read_30hz_series(path) -> np.ndarray:
    """The first load of a series CSV (``read_series_csv``) stepping at 30 Hz.

    A timestamp that is not ISO 8601, or a step outside 1/30 s +-10%, raises
    InsufficientData naming the first such row's line."""
    stamps, values = read_series_csv(path)
    try:
        us = np.array(stamps, dtype="datetime64[us]").astype(np.int64)
    except ValueError:
        raise _line_error(path, 0, "expected an ISO 8601 timestamp first", _series_row("," * len(values), "M8[us]")) from None
    step = np.diff(us) / 1e6
    off_grid = _off_30hz_grid(step)
    if off_grid.size:
        k = off_grid[0]
        raise _off_grid_error(path, k + 1, stamps[k + 1], stamps[k], step[k])
    return values[0]


# the nominal start of a written series: a non-leap year whose January 1st
# anchors the winter start of auto-yearly generation
EPOCH_START = datetime(2021, 1, 1, 0, 0, 0)

# file-size estimate constants (documented): one ISO timestamp plus its
# delimiter, its `.ffffff` when the offset has a fraction of a second, and
# one numeric cell (6 significant digits) plus delimiter
TIMESTAMP_BYTES = 20
FRACTION_BYTES = 7
NUMERIC_BYTES = 10


def estimate_file_size(rows: int, n_loads: int, resolution: Resolution) -> int:
    """Estimated size in bytes of the series CSV of `rows` rows of n =
    `n_loads` loads at `resolution`, within +-15% of actual.

    With the effective period a/b s in lowest terms, all but one timestamp
    in b has a fraction of a second.  The header names load_1..load_n; with d
    the digits of n, each number has d digits less one per power 10**k
    (0 < k < d) above it, (n + 1) * d - (10**d - 1) // 9 digits in all."""
    b = resolution.samples_per_period // math.gcd(resolution.samples_per_period, int(resolution.period_s))
    d = len(str(n_loads))
    header = len("timestamp\n") + n_loads * len(",load_") + (n_loads + 1) * d - (10**d - 1) // 9
    return rows * (TIMESTAMP_BYTES + n_loads * NUMERIC_BYTES) + rows * FRACTION_BYTES * (b - 1) // b + header


# bytes formatted per write: bounds the writer's memory whatever the
# duration and the load count
CSV_BLOCK_BYTES = 1 << 20

# A series CSV row as fixed-width byte fields (see `write_series_csv`): the
# timestamp, then per load a sign column, a 16-byte value field of 6
# integer digits, a point and 9 fraction digits, and a separator.
_STAMP = b"0000-00-00T00:00:00.000000,"
_VALUE = b"-000000.000000000"
_FIELD = len(_VALUE) + 1  # each value ends in ',' or '\n'
_DIGITS2 = np.array([b"%02d" % i for i in range(100)], dtype="S2")
_DIGITS3 = np.array([b"%03d" % i for i in range(1000)], dtype="S3")
_TRAILING_ZEROS3 = np.array([3] + [len(s) - len(s.rstrip(b"0")) for s in _DIGITS3[1:].tolist()])
# `%.6g` prints |x| in [1e-4, 1e6) in fixed notation.  Its decade e (10**e <=
# |x| < 10**(e+1)) is `searchsorted(_DECADE_EDGES, |x|, "right") - 5`: each
# edge is a power of ten or the float just above it, so the search is exact.
# The per-decade tables are indexed by the search; 0 and 11 are outside.
_DECADE_EDGES = 10.0 ** np.arange(-4, 7)
_DECADE = np.arange(-5, 7)
_FIXED_DECADE = (_DECADE >= -4) & (_DECADE <= 5)
_TO_SIX_DIGITS = np.where(_FIXED_DECADE, 10.0 ** (5 - _DECADE), 1.0)  # exact powers
_TO_BILLIONTHS = np.where(_FIXED_DECADE, 10 ** np.clip(_DECADE + 4, 0, 9), 0)


def _keep_field_table() -> np.ndarray:
    """Which of a value field's 16 columns are printed, as `V16` rows.

    Row 6 * (e + 4) + t: a fixed-notation value of decade e whose six
    digits end in t zeros, from its leading digit (or the 0 of `0.`)
    through its last non-zero fraction digit, the point only before one.
    Row 60 + n: the first n columns, a `%.6g` fallback of n bytes."""
    table = np.zeros((60 + 17, 16), dtype=bool)
    for e in range(-4, 6):
        for t in range(6):
            stop = 12 - e - t if e + t < 5 else 6
            table[6 * (e + 4) + t, 5 - max(e, 0) : stop] = True
    for n in range(17):
        table[60 + n, :n] = True
    return table.view("V16")[:, 0]


_KEEP_FIELD = _keep_field_table()


def _offset_us(times_s: np.ndarray) -> np.ndarray:
    """Offsets in whole microseconds, rounded half to even as `timedelta` does."""
    frac, whole = np.modf(times_s)
    return whole.astype(np.int64) * 1_000_000 + np.rint(frac * 1e6).astype(np.int64)


def _day_labels(days: np.ndarray) -> np.ndarray:
    """The ISO date of each day after EPOCH_START as `S10`, each distinct day formatted once.

    Days that form a run (every generated series) skip the sort of
    `np.unique`: each day from the first to the last is labelled."""
    first = int(days.min())
    span = int(days.max()) - first + 1
    if span <= days.size:
        distinct, index = np.arange(first, first + span), days - first
    else:
        distinct, index = np.unique(days, return_inverse=True)
    return np.datetime_as_string(np.datetime64(EPOCH_START.date()) + distinct).astype("S10").take(index)


def _put(buf: np.ndarray, col: int, text: np.ndarray) -> None:
    """Write the fixed-width byte strings `text` at column `col` of `buf`'s last axis."""
    buf[..., col : col + text.itemsize].view(text.dtype)[..., 0] = text


def _fill_stamps(buf, keep, times_s) -> None:
    """The `_STAMP` bytes of each time; `.ffffff` is kept only when non-zero."""
    days, us = np.divmod(_offset_us(times_s), 86_400 * 1_000_000)
    _put(buf, 0, _day_labels(days))
    seconds, micro = np.divmod(us, 1_000_000)
    hours, seconds = np.divmod(seconds, 3600)
    minutes, seconds = np.divmod(seconds, 60)
    _put(buf, 11, _DIGITS2.take(hours))
    _put(buf, 14, _DIGITS2.take(minutes))
    _put(buf, 17, _DIGITS2.take(seconds))
    high, low = np.divmod(micro, 1000)
    _put(buf, 20, _DIGITS3.take(high))
    _put(buf, 23, _DIGITS3.take(low))
    keep[:, 19:26] = (micro != 0)[:, None]


def _fill_values(buf, keep, x: np.ndarray) -> None:
    """`%.6g` of each value of `x` (rows, loads) into its `_FIELD` bytes of
    `buf` (rows, loads, _FIELD): the sign in column 0, the field after it."""
    magnitude = np.abs(x)
    decade = np.searchsorted(_DECADE_EDGES, magnitude, "right")
    with np.errstate(invalid="ignore"):  # inf - inf, NaN
        scaled = magnitude * _TO_SIX_DIGITS.take(decade)
        digits = np.rint(scaled)
        fixed = (digits >= 1e5) & (digits < 1e6) & (np.abs(scaled - digits) < 0.5 - 1e-6)
    digits[~fixed] = 1e5  # in range for the digit arithmetic; the fallback rewrites these
    digits = digits.astype(np.int64)
    high, low = np.divmod(digits, 1000)
    zeros = _TRAILING_ZEROS3.take(low)
    zeros += (low == 0) * _TRAILING_ZEROS3.take(high)
    whole, frac = np.divmod(digits * _TO_BILLIONTHS.take(decade), 1_000_000_000)
    _put(buf, 1, _DIGITS3.take(whole // 1000))
    _put(buf, 4, _DIGITS3.take(whole % 1000))
    buf[..., 7] = ord(".")  # a fallback of an earlier block may cover it
    frac_high, frac = np.divmod(frac, 1_000_000)
    _put(buf, 8, _DIGITS3.take(frac_high))
    _put(buf, 11, _DIGITS3.take(frac // 1000))
    _put(buf, 14, _DIGITS3.take(frac % 1000))
    keep_row = 6 * (decade - 1) + zeros
    other = np.nonzero(~fixed)
    if other[0].size:  # `%.6g` is 13 bytes at most
        text = np.frombuffer((b"%-16.6g" * other[0].size) % tuple(x[other].tolist()), dtype="S16")
        buf[..., 1:17].view("S16")[..., 0][other] = text
        padded = text.view(np.uint8).reshape(-1, 16)
        keep_row[other] = 60 + np.count_nonzero(padded != ord(" "), axis=1)
    keep[..., 0] = fixed & (x < 0)
    keep[..., 1:17].view("V16")[..., 0] = _KEEP_FIELD.take(keep_row)


@contextlib.contextmanager
def _replacing(path):
    """A binary file whose content becomes `path`'s once it is written whole.

    An exception before the end leaves `path` as it was, or absent if it
    was.  A path that is new, or that is not a regular file (such as
    /dev/null), is written in place; a new one is removed on failure.  A
    regular file already at `path` is replaced, once the new content is
    whole, by a file written beside it; opening the old file to append
    first refuses, as writing it would, a file that may not be written.
    """
    target = os.path.realpath(path)
    if not os.path.isfile(target):
        created = not os.path.exists(target)
        with open(path, "wb") as fh:
            try:
                yield fh
            except BaseException:
                if created:
                    with contextlib.suppress(OSError):
                        os.unlink(target)
                raise
        return
    with open(path, "ab"):
        pass
    fd, part = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", suffix=".part", dir=os.path.dirname(target))
    try:
        with os.fdopen(fd, "wb") as fh:
            os.chmod(part, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(part)
        raise


def write_series_csv(path, times_s, series) -> None:
    """CSV of `series` (n_loads, n_rows) with ISO timestamps at `times_s`.

    `series` is an array, or an object with that `shape` whose iteration
    yields its consecutive (n_loads, k) blocks of rows, as
    `compose.synthesize` returns it; each block is written as it comes.
    `times_s` is an array or any sequence whose slices are float arrays,
    such as `compose.RowTimes`.  The file replaces `path` only once it is
    whole: a failure part-way, in the writer or in the blocks it is
    handed, leaves no partial file (see `_replacing`).

    A timestamp is EPOCH_START (a midnight) plus its offset rounded half to
    even to whole microseconds, as `timedelta(seconds=t)` rounds it;
    `.ffffff` is printed only when non-zero, as `datetime.isoformat` does.
    A value is printed as `%.6g` prints it.

    Each block of the input is cut into blocks of rows, as many as fit in
    CSV_BLOCK_BYTES (one at least); each is one `(rows, width)` byte buffer
    of fixed-width fields and a mask of the bytes to keep, written with one
    `fh.write`. A timestamp is
    `YYYY-MM-DDTHH:MM:SS.ffffff`: the date is formatted once per distinct
    day, the other digits are taken from 2- and 3-digit tables, and the
    fraction is kept only when non-zero. A value takes a sign column, kept
    for a negative value, a 16-byte field and a separator; every value of a
    block is formatted at once, in a `(rows, loads, 18)` view of its buffer.

    Fast path: a finite |x| in [1e-4, 1e6), which `%.6g` prints in fixed
    notation. Its decade e is exact (see `_DECADE_EDGES`), so
    s = |x| * 10**(5 - e) lies in [1e5, 1e6] with a rounding error below
    1e-10 (every multiplier 10**0..10**9 is exact). When q = rint(s) < 1e6
    and s is more than 1e-6 from a half, the exact |x| * 10**(5 - e) rounds
    to the same q, so q is the six significant digits `%.6g` prints. The
    field holds q * 10**(e - 5) as 6 integer digits, a point and 9 fraction
    digits, and keeps one column range: from the leading digit (or the 0 of
    `0.`) through the last non-zero fraction digit, without the point when
    there is none; integer zeros are kept.

    Fallback: every other value (near a tie, rounding into the next decade,
    zero, NaN, infinite, or printed with an exponent) is formatted by one
    `%` over those values alone, as `%-16.6g` (`%.6g` padded to the field),
    and its field is kept up to the padding.
    """
    if isinstance(series, np.ndarray) or not hasattr(series, "shape"):
        series = np.asarray(series, dtype=np.float64)
        blocks = [series]
    else:
        blocks = series
    n_loads, n_rows = series.shape
    row = np.frombuffer(_STAMP + b",".join([_VALUE] * n_loads) + b"\n", dtype=np.uint8)
    block_rows = max(1, CSV_BLOCK_BYTES // row.size)
    buf = np.tile(row, (min(block_rows, n_rows), 1))
    keep = np.ones(buf.shape, dtype=bool)
    values = slice(len(_STAMP), len(_STAMP) + n_loads * _FIELD)
    fields, fields_keep = (a[:, values].reshape(len(a), n_loads, _FIELD) for a in (buf, keep))
    with _replacing(path) as fh:
        fh.write(("timestamp" + ",load_%d" * n_loads % tuple(range(1, n_loads + 1)) + "\n").encode())
        done = 0  # rows written
        for block in blocks:
            block = np.asarray(block, dtype=np.float64)
            for start in range(0, block.shape[1], block_rows):
                n = min(block_rows, block.shape[1] - start)
                times = np.asarray(times_s[done + start : done + start + n], dtype=np.float64)
                _fill_stamps(buf[:n], keep[:n], times)
                _fill_values(fields[:n], fields_keep[:n], np.ascontiguousarray(block[:, start : start + n].T))
                fh.write(buf[:n][keep[:n]])
            done += block.shape[1]
        if done != n_rows:
            raise ValueError(f"the blocks held {done} rows of the series' {n_rows}")


_LEVEL_FILES = {level: f"level{level.value[-1]}.csv" for level in Level}
_META_FILE = "level_meta.json"
DATASET_HEADER = "profile_id,load_class,season,sample_index,value"
_DATASET_ROW = np.dtype([(f, object) for f in ("profile_id", "load_class", "season")] + [("sample_index", "i8"), ("value", "f8")])


def write_level_datasets(datasets: LevelDatasets, directory) -> None:
    """One CSV per level plus a JSON sidecar with the source means and the
    trend coefficients that are known.

    Values are written with full float precision so a reread dataset
    trains bit-identical models.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta: dict[str, dict] = {}
    for level in Level:
        profiles = datasets.of(level)
        tails = ["", *(f"{j},%r\n" for j in range(LEVEL_SPECS[level].profile_length))]
        with open(directory / _LEVEL_FILES[level], "w", encoding="utf-8") as fh:
            fh.write(DATASET_HEADER + "\n")
            labels = zip(profiles.samples, profiles.load_class, profiles.season, profiles.source_mean.tolist())
            for i, (row, cls, season, mean) in enumerate(labels):
                pid = f"{level.value}_{i:06d}"
                head = f"{pid},{cls.value if cls else ''},{season.value if season else ''},"
                # one `%` per profile: the row `{pid},{cls},{season},{j},{repr(value)}` of each sample
                fh.write(head.join(tails) % tuple(row.tolist()))
                entry: dict = {}
                if not math.isnan(mean):
                    entry["source_mean"] = mean
                if profiles.trend_coeffs is not None and not np.isnan(profiles.trend_coeffs[i]).any():
                    entry["trend_coeffs"] = profiles.trend_coeffs[i].tolist()
                if entry:
                    meta[pid] = entry
    with open(directory / _META_FILE, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=0)


def _finite_number(value) -> bool:
    """A JSON number that converts to a finite float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _meta_entry(entry, level: Level) -> tuple[float, list]:
    """(source mean, trend coefficients) of one level_meta.json entry, NaN
    where it has none; a ValueError says what is wrong with it."""
    if not isinstance(entry, dict) or not set(entry) <= {"source_mean", "trend_coeffs"}:
        raise ValueError(f"expected an object of source_mean and trend_coeffs, got {json.dumps(entry)}")
    mean, coeffs = entry.get("source_mean", math.nan), entry.get("trend_coeffs", [math.nan] * 5)
    if "source_mean" in entry and not _finite_number(mean):
        raise ValueError(f"source_mean must be a finite number, got {json.dumps(mean)}")
    if "trend_coeffs" in entry:
        if level is not Level.L2:
            raise ValueError("only level 2 profiles have trend_coeffs")
        if not (isinstance(coeffs, list) and len(coeffs) == 5 and all(map(_finite_number, coeffs))):
            raise ValueError(f"trend_coeffs must be a list of 5 finite numbers, got {json.dumps(coeffs)}")
    return float(mean), coeffs


def read_level_datasets(directory) -> LevelDatasets:
    """The datasets that write_level_datasets wrote to ``directory``, each
    level CSV read by read_csv_chunks, profiles in first-appearance order.
    A defect raises InsufficientData naming the file and line or profile."""
    meta_path = Path(directory) / _META_FILE
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else {}
    except OSError as exc:
        raise InsufficientData(f"cannot read {meta_path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSON syntax or UTF-8
        raise InsufficientData(f"{meta_path} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise InsufficientData(f"{meta_path} must hold a JSON object")
    out = LevelDatasets()
    for level in Level:
        path, length = Path(directory) / _LEVEL_FILES[level], LEVEL_SPECS[level].profile_length
        ids: dict[str, int] = {}  # profile id -> row
        texts, labels = [], []  # per row: the label texts of its first line, and their enums
        values, filled, counts = np.zeros((0, length)), np.zeros((0, length), dtype=bool), np.zeros(0, dtype=int)
        parsed = 0  # data lines in the chunks before
        for rows in read_csv_chunks(path, {DATASET_HEADER: _DATASET_ROW}.get):
            pid, cls, season = rows["profile_id"], rows["load_class"], rows["season"]
            starts = np.append(0, np.flatnonzero(pid[1:] != pid[:-1]) + 1)[: pid.size]  # of runs of one profile
            names, first, of_run = np.unique(pid[starts], return_index=True, return_inverse=True)
            for j in np.argsort(first):  # profiles new to the file, in line order
                if names[j] not in ids:
                    at = starts[first[j]]
                    try:
                        labels.append((LoadClass(cls[at]) if cls[at] else None, Season(season[at]) if season[at] else None))
                    except ValueError as exc:
                        raise _line_error(path, parsed + at, f"profile {names[j]!r}: {exc}") from None
                    ids[names[j]] = len(texts)
                    texts.append((cls[at], season[at]))
            row = np.array([ids[name] for name in names.tolist()], dtype=int)[of_run]
            row = np.repeat(row, np.diff(np.append(starts, pid.size)))
            want = np.array(texts, dtype=object).reshape(-1, 2)[row]
            differs = (cls != want[:, 0]) | (season != want[:, 1])
            if differs.any():
                at = int(np.argmax(differs))
                labelled = f"labelled {cls[at]!r}, {season[at]!r} here and {want[at, 0]!r}, {want[at, 1]!r}"
                raise _line_error(path, parsed + at, f"profile {pid[at]!r} is {labelled} on its first line")
            if len(texts) > len(counts):  # room for the new profiles, doubling in place (no view of them is held)
                for a in (values, filled, counts):
                    a.resize((max(len(texts), 2 * len(a)), *a.shape[1:]), refcheck=False)
            counts += np.bincount(row, minlength=counts.size)
            index = rows["sample_index"]
            fits = (index >= 0) & (index < length)
            values[row[fits], index[fits]] = rows["value"][fits]
            filled[row[fits], index[fits]] = True
            parsed += rows.size
        n = len(texts)
        means, coeffs = np.full(n, np.nan), np.full((n, 5), np.nan)
        for i, pid in enumerate(ids):
            if counts[i] != length or not filled[i].all():
                raise InsufficientData(
                    f"profile {pid!r} in {path} has {counts[i]} samples; level "
                    f"{level.value!r} profiles have one at each index 0..{length - 1}"
                )
            try:
                means[i], coeffs[i] = _meta_entry(meta.get(pid, {}), level)
            except ValueError as exc:
                raise InsufficientData(f"{meta_path}: profile {pid!r}: {exc}") from exc
        classes, seasons = zip(*labels) if labels else ((), ())
        try:
            profiles = ProfileSet(level, values[:n], classes, seasons, means, coeffs if level is Level.L2 else None)
        except ProfileRowError as exc:  # values off the level's normalization, say
            raise InsufficientData(f"profile {list(ids)[exc.row]!r} in {path}: {exc.reason}") from exc
        setattr(out, level.value, profiles)
        if not profiles:
            out.issues[level] = f"dataset file {path} holds no profiles"
    return out
