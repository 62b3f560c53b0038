"""From raw phasor streams to the four normalized training datasets.

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

Extraction windows are aligned to the start of the input series;
``start_time_s`` says where that start sits relative to January 1st and
only drives the season-of-week tagging.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (
    LEVEL_SPECS,
    Level,
    LoadClass,
    LoadProfile,
    Metric,
    Normalization,
    Season,
    downsample,
    normalize_mean,
    season_of_week,
    truncate_to_multiple,
)
from .errors import DegenerateProfile, InsufficientData, MissingChannel, WindowTooShort

DETREND_WINDOW = 600  # five hours of 30-second means
DETREND_CENTER = slice(240, 360)
DETREND_DEGREE = 4

SAMPLES_PER_30S = 900
HOURS_PER_WEEK = 168
WEEKS_PER_YEAR = 52
HALFMIN_PER_HOUR = 120


@dataclass(frozen=True, eq=False)
class PhasorTable:
    """Phasor records as columns: the first record's sorted ``line_ids`` and
    (n_records, n_lines) phasor arrays, magnitudes in kV/kA, angles in radians."""

    timestamps_s: np.ndarray
    line_ids: tuple[str, ...]
    v_mag: np.ndarray
    v_ang: np.ndarray
    i_mag: np.ndarray
    i_ang: np.ndarray


def compute_bus_load(table: PhasorTable) -> np.ndarray:
    """Net active power injection per record: P = sum_lines Re(V * conj(I)).

    Positive means consumption; with kV and kA the result is in MW.  Lines
    are added in sorted order, one ``v_mag * i_mag * cos(v_ang - i_ang)`` each.
    """
    out = np.zeros(table.timestamps_s.size)
    for j in range(len(table.line_ids)):
        out += table.v_mag[:, j] * table.i_mag[:, j] * np.cos(table.v_ang[:, j] - table.i_ang[:, j])
    return out


def _detrend_basis(n: int = DETREND_WINDOW) -> np.ndarray:
    # centred abscissa scaled to [-1, 1]: raw indices up to 600 would push
    # the degree-4 normal equations past condition 1e12
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
    if arr.ndim != 1 or arr.size < DETREND_WINDOW:
        raise WindowTooShort(
            f"detrend window needs {DETREND_WINDOW} samples, got {arr.size}"
        )
    if arr.size != DETREND_WINDOW:
        raise ValueError(f"detrend window must be exactly {DETREND_WINDOW} samples")
    coeffs = _BASIS_PINV @ arr
    resid = arr[DETREND_CENTER] - _BASIS[DETREND_CENTER] @ coeffs
    resid = resid - resid.mean()
    return resid, tuple(float(c) for c in coeffs)


@dataclass
class LevelDatasets:
    """The four training datasets extracted from one or more load series.

    ``issues`` maps a level to the InsufficientData explanation when the
    input did not cover a single profile at that level.
    """

    l1: list[LoadProfile] = dataclasses.field(default_factory=list)
    l2: list[LoadProfile] = dataclasses.field(default_factory=list)
    l3: list[LoadProfile] = dataclasses.field(default_factory=list)
    l4: list[LoadProfile] = dataclasses.field(default_factory=list)
    issues: dict[Level, str] = dataclasses.field(default_factory=dict)

    def of(self, level: Level) -> list[LoadProfile]:
        return {Level.L1: self.l1, Level.L2: self.l2, Level.L3: self.l3, Level.L4: self.l4}[level]

    def extend(self, other: "LevelDatasets") -> None:
        for level in Level:
            self.of(level).extend(other.of(level))
            if not self.of(level) and level in other.issues:
                self.issues[level] = other.issues[level]
            elif self.of(level):
                self.issues.pop(level, None)


def mean_one_profile(samples, period, load_class, season=None) -> LoadProfile:
    """Mean-one LoadProfile from a raw window, keeping the removed mean."""
    prof = LoadProfile(samples=samples, sampling_period_s=period, load_class=load_class)
    normalized, mean = normalize_mean(prof)
    return dataclasses.replace(normalized, season=season, source_mean=mean)


def _evenly_spaced(indices: np.ndarray, max_count: Optional[int]) -> np.ndarray:
    if max_count is None or indices.size <= max_count:
        return indices
    pick = np.linspace(0, indices.size - 1, max_count).round().astype(int)
    return indices[np.unique(pick)]


def extract_l2_profiles(
    halfmin_means: np.ndarray,
    load_class: LoadClass,
    max_profiles: Optional[int] = None,
) -> list[LoadProfile]:
    """Detrended hour-long profiles from a series of 30-second means.

    Only hours with a full +-2 h context are used; when ``max_profiles``
    is given the eligible hours are thinned evenly across the span.
    """
    n_hours = halfmin_means.size // HALFMIN_PER_HOUR
    eligible = np.arange(2, n_hours - 2) if n_hours >= 5 else np.arange(0)
    eligible = _evenly_spaced(eligible, max_profiles)
    profiles: list[LoadProfile] = []
    for k in eligible:
        start = k * HALFMIN_PER_HOUR - 240
        window = halfmin_means[start : start + DETREND_WINDOW]
        hour_mean = float(window[DETREND_CENTER].mean())
        if hour_mean <= 1e-9 * float(np.max(window, initial=0.0)):
            continue
        detrended, coeffs = detrend_hour(window / hour_mean)
        profiles.append(
            LoadProfile(
                samples=detrended,
                sampling_period_s=30.0,
                load_class=load_class,
                normalization=Normalization.ZERO_MEAN_DETRENDED,
                trend_coeffs=coeffs,
                source_mean=hour_mean,
            )
        )
    return profiles


def extract_levels_from_block_means(
    halfmin_means: np.ndarray,
    load_class: LoadClass,
    start_time_s: float = 0.0,
    max_l2_profiles: Optional[int] = None,
) -> LevelDatasets:
    """Levels 2-4 from 30-second means (level 1 needs the full 30 Hz data)."""
    out = LevelDatasets()
    ds = out  # alias for brevity
    m30 = np.asarray(halfmin_means, dtype=np.float64)

    ds.l2 = extract_l2_profiles(m30, load_class, max_l2_profiles)
    if not ds.l2:
        ds.issues[Level.L2] = (
            "level 2 needs at least 5 full hours of data for the +-2 h "
            f"detrending context; got {m30.size} half-minute samples"
        )

    hourly, _ = truncate_to_multiple(m30, HALFMIN_PER_HOUR)
    hourly = downsample(hourly, HALFMIN_PER_HOUR, Metric.MEAN) if hourly.size else np.zeros(0)
    start_week = int(start_time_s // LEVEL_SPECS[Level.L4].sampling_period_s)

    n_weeks = hourly.size // HOURS_PER_WEEK
    if n_weeks == 0:
        ds.issues[Level.L3] = (
            f"level 3 needs at least one full week; got {hourly.size} hours"
        )
    for w in range(n_weeks):
        week = hourly[w * HOURS_PER_WEEK : (w + 1) * HOURS_PER_WEEK]
        try:
            prof = mean_one_profile(week, 3600.0, load_class, season_of_week(start_week + w))
        except DegenerateProfile:
            continue
        ds.l3.append(prof)

    weekly = hourly[: n_weeks * HOURS_PER_WEEK]
    weekly = downsample(weekly, HOURS_PER_WEEK, Metric.MEAN) if n_weeks else np.zeros(0)
    n_years = weekly.size // WEEKS_PER_YEAR
    if n_years == 0:
        ds.issues[Level.L4] = (
            f"level 4 needs at least one full 52-week year; got {weekly.size} weeks"
        )
    for y in range(n_years):
        year = weekly[y * WEEKS_PER_YEAR : (y + 1) * WEEKS_PER_YEAR]
        try:
            prof = mean_one_profile(year, LEVEL_SPECS[Level.L4].sampling_period_s, load_class)
        except DegenerateProfile:
            continue
        ds.l4.append(prof)
    return out


def extract_level_datasets(
    load_series: Sequence[float],
    start_time_s: float = 0.0,
    load_class: LoadClass = LoadClass.MAINLY_RESIDENTIAL,
    max_l1_profiles: Optional[int] = None,
    max_l2_profiles: Optional[int] = None,
) -> LevelDatasets:
    """All four datasets from a contiguous 30 Hz load series.

    Levels lacking enough input are reported in ``issues`` instead of
    failing the call.
    """
    series = np.asarray(load_series, dtype=np.float64)
    trimmed, _ = truncate_to_multiple(series, SAMPLES_PER_30S)
    m30 = (
        downsample(trimmed, SAMPLES_PER_30S, Metric.MEAN)
        if trimmed.size
        else np.zeros(0)
    )
    out = extract_levels_from_block_means(
        m30, load_class, start_time_s, max_l2_profiles
    )

    n_windows = series.size // SAMPLES_PER_30S
    picks = _evenly_spaced(np.arange(n_windows), max_l1_profiles)
    for w in picks:
        window = series[w * SAMPLES_PER_30S : (w + 1) * SAMPLES_PER_30S]
        try:
            prof = mean_one_profile(window, 1.0 / 30.0, load_class)
        except DegenerateProfile:
            continue
        out.l1.append(prof)
    if not out.l1:
        out.issues[Level.L1] = (
            f"level 1 needs at least 900 samples at 30 Hz; got {series.size}"
        )
    return out


# ----------------------------------------------------------------------
# File formats
# ----------------------------------------------------------------------

PHASOR_HEADER = "timestamp,line_id,v_mag,v_ang,i_mag,i_ang"
_PHASOR_FIELDS = ("v_mag", "v_ang", "i_mag", "i_ang")
# line_id is an object field: a fixed-width string would truncate long ids
_PHASOR_ROW = np.dtype([("t", "f8"), ("line_id", object)] + [(f, "f8") for f in _PHASOR_FIELDS])

_NOMINAL_STEP = 1.0 / 30.0


def off_30hz_grid(step_s: np.ndarray) -> np.ndarray:
    """Indices of the timestamp steps (s) outside 1/30 s +-10%, the 30 Hz spacing."""
    return np.flatnonzero(~((step_s >= 0.9 * _NOMINAL_STEP) & (step_s <= 1.1 * _NOMINAL_STEP)))


# data rows parsed per np.loadtxt call: bounds the reader's memory whatever
# the length of its input
PHASOR_CHUNK_ROWS = 16_384


@dataclass
class _RecordCarry:
    """What checking a record needs from the records before it."""

    line_ids: Optional[tuple[str, ...]] = None  # the first record's, sorted
    last_t: Optional[float] = None
    last_path: object = None


def _records_bus_load(rows: np.ndarray, path, carry: _RecordCarry) -> np.ndarray:
    """Bus power of whole records ``rows``, checked against ``carry``."""
    t, ids = rows["t"], rows["line_id"]
    starts = np.ones(t.size, dtype=bool)
    starts[1:] = t[1:] != t[:-1]
    first = np.flatnonzero(starts)  # first row of each record
    record = np.cumsum(starts) - 1  # record index of each row
    stamps = t[first] if carry.last_t is None else np.concatenate(([carry.last_t], t[first]))
    step = np.diff(stamps)
    off_grid = off_30hz_grid(step)
    if off_grid.size:
        k = off_grid[0]
        before = f" in {carry.last_path}" if k == 0 and carry.last_path != path else ""
        raise InsufficientData(
            f"{path}: the row at t={stamps[k + 1]} follows t={stamps[k]}{before}, a step of "
            f"{step[k]:.6f}s that breaks the 30 Hz +-10% spacing"
        )
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
        raise MissingChannel(
            f"{path}: record at t={t[first[k]]} lacks phasors for line {carry.line_ids[j]!r}"
        )
    carry.last_t, carry.last_path = t[first[-1]], path
    table = PhasorTable(t[first], carry.line_ids, *(rows[name][grid] for name in _PHASOR_FIELDS))
    return compute_bus_load(table)


def _read_phasor_file(path, carry: _RecordCarry) -> list[np.ndarray]:
    """Per-chunk bus power of one phasor CSV, continuing the records in ``carry``."""
    line_no, line = 1, ""  # the line loadtxt parses; blank ones, which it rejects, are skipped

    def data_lines(fh):
        nonlocal line_no, line
        for line_no, line in enumerate(fh, start=2):
            if not line.isspace():
                yield line

    power = []
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an exhausted input is an empty chunk
            if fh.readline().strip() != PHASOR_HEADER:
                raise InsufficientData(f"{path} line 1: expected the header {PHASOR_HEADER!r}")
            lines = data_lines(fh)
            rows = np.zeros(0, dtype=_PHASOR_ROW)  # held back: the last, maybe unfinished, record
            while True:
                chunk = np.loadtxt(
                    itertools.islice(lines, PHASOR_CHUNK_ROWS),
                    dtype=_PHASOR_ROW, delimiter=",", comments=None, ndmin=1,
                )
                rows = np.concatenate((rows, chunk)) if rows.size else chunk
                if chunk.size < PHASOR_CHUNK_ROWS:
                    break
                t = rows["t"]
                ends = np.flatnonzero(t[1:] != t[:-1])  # the last row of each record but the last
                if ends.size:
                    power.append(_records_bus_load(rows[: ends[-1] + 1], path, carry))
                    rows = rows[ends[-1] + 1 :]
    except UnicodeDecodeError as exc:
        raise InsufficientData(f"phasor CSV {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # a row without 6 fields or with an unparsable number
        raise InsufficientData(
            f"{path} line {line_no}: expected the 6 fields {PHASOR_HEADER}, got {line.strip()!r}"
        ) from exc
    if rows.size:
        power.append(_records_bus_load(rows, path, carry))
    return power


def read_phasor_csv(paths) -> np.ndarray:
    """Bus power per record (``compute_bus_load``) of one or more phasor CSVs.

    Each file holds `timestamp,line_id,v_mag,v_ang,i_mag,i_ang` rows under
    that header, and several files are read as one input in the order given.
    Consecutive rows with the same timestamp form one record, and record
    timestamps must step at nominally 30 Hz (each step within +-10%), also
    from the last record of one file to the first of the next: a gap or an
    overlap between files breaks the spacing.  The first record fixes the
    line set: extra lines in later records are ignored, a record lacking one
    of its lines raises MissingChannel, and within a record the last row of a
    line wins.  Blank lines are skipped.  Any other defect raises
    InsufficientData naming the file and its line or timestamps.

    Rows are parsed PHASOR_CHUNK_ROWS at a time and each chunk is reduced to
    bus power before the next is read, so memory does not grow with the row
    count.  The rows of a chunk's last timestamp are held back for the next
    chunk: every record is checked and summed whole.  Defects are reported in
    reading order: the first chunk holding one reports it, and within a chunk
    a parse error comes before a spacing error, which comes before a missing
    line.
    """
    paths = [paths] if isinstance(paths, (str, os.PathLike)) else paths
    carry = _RecordCarry()
    power = [p for path in paths for p in _read_phasor_file(path, carry)]
    return np.concatenate(power) if power else np.zeros(0)


def write_phasor_csv(path, table: PhasorTable) -> None:
    """Write a table as phasor CSV rows, one per (record, line), floats by repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PHASOR_HEADER + "\n")
        for k, t in enumerate(table.timestamps_s.tolist()):
            for j, lid in enumerate(table.line_ids):
                values = (float(getattr(table, name)[k, j]) for name in _PHASOR_FIELDS)
                fh.write(",".join([repr(t), lid, *map(repr, values)]) + "\n")


_LEVEL_FILES = {
    Level.L1: "level1.csv",
    Level.L2: "level2.csv",
    Level.L3: "level3.csv",
    Level.L4: "level4.csv",
}
_META_FILE = "level_meta.json"
DATASET_HEADER = "profile_id,load_class,season,sample_index,value"


def write_level_datasets(datasets: LevelDatasets, directory) -> None:
    """One CSV per level plus a JSON sidecar with trend coefficients.

    Values are written with full float precision so a reread dataset
    trains bit-identical models.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta: dict[str, dict] = {}
    for level in Level:
        profiles = datasets.of(level)
        with open(directory / _LEVEL_FILES[level], "w", encoding="utf-8") as fh:
            fh.write(DATASET_HEADER + "\n")
            for i, prof in enumerate(profiles):
                pid = f"{level.value}_{i:06d}"
                cls = prof.load_class.value if prof.load_class else ""
                season = prof.season.value if prof.season else ""
                for j, v in enumerate(prof.samples):
                    fh.write(f"{pid},{cls},{season},{j},{float(v)!r}\n")
                entry: dict = {}
                if prof.source_mean is not None:
                    entry["source_mean"] = prof.source_mean
                if prof.trend_coeffs is not None:
                    entry["trend_coeffs"] = list(prof.trend_coeffs)
                if entry:
                    meta[pid] = entry
    with open(directory / _META_FILE, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=0)


def read_level_datasets(directory) -> LevelDatasets:
    directory = Path(directory)
    meta_path = directory / _META_FILE
    meta = {}
    if meta_path.exists():
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except ValueError as exc:  # JSON syntax or UTF-8
            raise InsufficientData(f"{meta_path} is not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise InsufficientData(f"{meta_path} must hold a JSON object")
    out = LevelDatasets()
    for level in Level:
        path = directory / _LEVEL_FILES[level]
        if not path.exists():
            raise InsufficientData(f"missing dataset file for level {level.value!r}: {path}")
        spec = LEVEL_SPECS[level]
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != DATASET_HEADER:
                raise InsufficientData(f"unexpected dataset header in {path}: {header!r}")
            rows: dict[str, tuple] = {}  # profile id -> (load class, season, samples)
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    pid, cls, season, idx, value = line.split(",")
                    sample = (int(idx), float(value))
                    if pid not in rows:
                        rows[pid] = (LoadClass(cls) if cls else None, Season(season) if season else None, [])
                except ValueError as exc:
                    raise InsufficientData(f"{path} line {line_no}: bad row {line!r}: {exc}") from exc
                rows[pid][2].append(sample)
        for pid, (cls, season, samples) in rows.items():
            samples.sort()
            values = np.array([v for _, v in samples])
            if values.size != spec.profile_length:
                raise InsufficientData(
                    f"profile {pid!r} in {path} has {values.size} samples; level "
                    f"{level.value!r} profiles have {spec.profile_length}"
                )
            entry = meta.get(pid, {})
            out.of(level).append(
                LoadProfile(
                    samples=values,
                    sampling_period_s=spec.sampling_period_s,
                    load_class=cls,
                    season=season,
                    normalization=(
                        Normalization.ZERO_MEAN_DETRENDED
                        if level is Level.L2
                        else Normalization.MEAN_ONE
                    ),
                    trend_coeffs=(
                        tuple(entry["trend_coeffs"]) if "trend_coeffs" in entry else None
                    ),
                    source_mean=entry.get("source_mean"),
                )
            )
        if not out.of(level):
            out.issues[level] = f"dataset file {path} holds no profiles"
    return out
