"""Domain types, normalization, resampling, seed streams, and the time grammars.

Conventions used throughout the package:

* a load series is a 1-D float64 numpy array, strictly ordered in time;
* levels: L1 = 30 s @ 30 samples/s (900 samples), L2 = 1 h @ 1 sample/30 s
  (120 samples), L3 = 1 wk @ 1 sample/h (168 samples), L4 = 1 yr @
  1 sample/wk (52 samples);
* a year is modelled as exactly 52 weeks = 364 days. Calendar days 365/366
  are produced by extending the final week's scaling value, never by a
  53rd independent week.

``LEVEL_SPECS`` is the one table of level geometry, built from the 30 Hz
rate, the four profile lengths and the four centres: a level's sample is
one profile of the level below, a whole number of 30 Hz ticks, and its
profiles are normalized to mean one (centre 1) or, at the detrended
level 2, to mean zero (centre 0).  ``SEASON_RUN_START`` is the one
table of the seasons' 13-week runs.  Other modules read both.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import RequestError

PMU_RATE_HZ = 30.0


class LoadClass(Enum):
    MAINLY_RESIDENTIAL = "residential"
    MAINLY_INDUSTRIAL = "industrial"


class Season(Enum):
    WINTER = "winter"
    SPRING = "spring"
    SUMMER = "summer"
    FALL = "fall"


class Metric(Enum):
    MEAN = "mean"
    MIN = "min"
    MAX = "max"


class Level(Enum):
    L1 = "l1"
    L2 = "l2"
    L3 = "l3"
    L4 = "l4"


@dataclass(frozen=True)
class LevelSpec:
    """One aggregation level: its profile length, 30 Hz ticks per sample and
    the mean of its normalized profiles (1.0 mean-one, 0.0 detrended)."""

    level: Level
    profile_length: int
    ticks_per_sample: int
    centre: float

    @property
    def sampling_period_s(self) -> float:
        return self.ticks_per_sample / PMU_RATE_HZ  # exact: 1/30 s, 30, 3600, 604800

    @property
    def span_s(self) -> float:
        return self.profile_length * self.ticks_per_sample / PMU_RATE_HZ


# profile lengths of L1..L4; each level's sample is one profile of the level below
_PROFILE_LENGTHS = (900, 120, 168, 52)
_CENTRES = (1.0, 0.0, 1.0, 1.0)  # level 2 alone is detrended to mean zero
LEVEL_SPECS = {
    level: LevelSpec(level, _PROFILE_LENGTHS[i], math.prod(_PROFILE_LENGTHS[:i]), _CENTRES[i])
    for i, level in enumerate(Level)
}

SECONDS_PER_WEEK = LEVEL_SPECS[Level.L3].span_s
SECONDS_PER_YEAR = LEVEL_SPECS[Level.L4].span_s  # 364-day year
MAX_YEARS = 53  # of one generated or simulated series


def _read_only(values, shape) -> np.ndarray:
    """A read-only float64 view of ``values``; the caller's array stays writable."""
    view = np.asarray(values, dtype=np.float64).view()
    if view.shape != shape:
        raise ValueError(f"expected an array of shape {shape}, got {view.shape}")
    view.setflags(write=False)
    return view


class ProfileRowError(ValueError):
    """A row of a ProfileSet breaks its level's rules; ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


@dataclass(frozen=True, eq=False)
class ProfileSet:
    """One level's profiles as the rows of one read-only (count, length) array.

    Per row: ``load_class`` and ``season`` (None where unknown), the
    ``source_mean`` normalization divided out (NaN where unknown) and, at
    level 2 only, the five ``trend_coeffs`` detrending removed, on the
    window's [-1, 1]-scaled abscissa, lowest order first (NaN where
    unknown).  Rows are finite; at the mean-one levels they are nonnegative
    with mean 1 within 1e-9, at level 2 their mean is 0 within 1e-6.  A row
    breaking this raises ProfileRowError naming the first such row.
    """

    level: Level
    samples: np.ndarray
    load_class: Optional[tuple] = None
    season: Optional[tuple] = None
    source_mean: Optional[np.ndarray] = None
    trend_coeffs: Optional[np.ndarray] = None

    def __post_init__(self):
        length = LEVEL_SPECS[self.level].profile_length
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.size == 0:
            samples = samples.reshape(0, length)
        if samples.ndim != 2:
            raise ValueError(f"profiles must be a (count, length) array, got shape {samples.shape}")
        if samples.shape[1] != length:
            raise ProfileRowError(
                0, f"length {samples.shape[1]} does not fit level {self.level.value} ({length})"
            )
        n = len(samples)
        load_class = (None,) * n if self.load_class is None else tuple(self.load_class)
        season = (None,) * n if self.season is None else tuple(self.season)
        if len(load_class) != n or len(season) != n:
            raise ValueError(f"need one load class and one season per profile ({n})")
        trend = self.trend_coeffs
        if self.level is Level.L2 and trend is None:
            trend = np.full((n, 5), np.nan)
        elif self.level is not Level.L2 and trend is not None:
            raise ValueError("only level 2 profiles have trend coefficients")
        object.__setattr__(self, "samples", _read_only(samples, samples.shape))
        object.__setattr__(self, "load_class", load_class)
        object.__setattr__(self, "season", season)
        source_mean = np.full(n, np.nan) if self.source_mean is None else self.source_mean
        object.__setattr__(self, "source_mean", _read_only(source_mean, (n,)))
        if trend is not None:
            object.__setattr__(self, "trend_coeffs", _read_only(trend, (n, 5)))

        means = samples.mean(axis=1)
        rules = [(~np.isfinite(samples).all(axis=1), "samples must be finite")]
        if LEVEL_SPECS[self.level].centre:  # mean-one
            rules.append(((samples < 0).any(axis=1), "mean-one samples must be nonnegative"))
            rules.append((np.abs(means - 1.0) > 1e-9, "mean-one profile has mean {!r}"))
        else:
            rules.append((np.abs(means) > 1e-6, "detrended profile has mean {!r}"))
        broken = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(rules) if bad.any()]
        if broken:
            row, k = min(broken)  # the first bad row, and its first broken rule
            raise ProfileRowError(row, rules[k][1].format(float(means[row])))

    def __len__(self):
        return len(self.samples)

    @classmethod
    def concatenate(cls, sets: Sequence["ProfileSet"]) -> "ProfileSet":
        """The rows of one or more sets of one level, in order, as one set."""
        level = sets[0].level
        return cls(
            level,
            np.concatenate([s.samples for s in sets]),
            sum((s.load_class for s in sets), ()),
            sum((s.season for s in sets), ()),
            np.concatenate([s.source_mean for s in sets]),
            None if level is not Level.L2 else np.concatenate([s.trend_coeffs for s in sets]),
        )


@dataclass(frozen=True)
class Resolution:
    """Sampling resolution as <samples_per_period> per <period_s> seconds."""

    samples_per_period: int
    period_s: float

    def __post_init__(self):
        if self.samples_per_period < 1:
            raise RequestError("samples_per_period must be a positive integer")
        if self.period_s <= 0:
            raise RequestError("period_s must be positive")
        # PMU ceiling: compare via integers where the grammar produced them,
        # with a small relative slack for float periods.
        if self.effective_period_s < LEVEL_SPECS[Level.L1].sampling_period_s * (1.0 - 1e-9):
            raise RequestError(
                f"{self.samples_per_period} samples per {self.period_s} s is finer "
                "than the 30 samples/s measurement ceiling"
            )

    @property
    def effective_period_s(self) -> float:
        return self.period_s / self.samples_per_period


# the units of both grammars, in whole seconds; a resolution takes no "yr"
_UNIT_SECONDS = {
    "s": 1, "min": 60, "h": 3600, "d": 86_400, "wk": int(SECONDS_PER_WEEK), "yr": int(SECONDS_PER_YEAR),
}

_RESOLUTION_RE = re.compile(r"([0-9]+)/([0-9]*)(s|min|h|d|wk)")
_DURATION_RE = re.compile(r"([0-9]+(?:\.[0-9]+)?)(s|min|h|d|wk|yr)")


def parse_resolution(text: str) -> Resolution:
    """Parse ``<count> "/" [<n>] <unit>`` into a Resolution.

    The grammar is ASCII, no whitespace, case-sensitive units from
    {s, min, h, d, wk}; an omitted <n> means 1.  "1/10min" is one sample
    per 600 s; "30/s" is the 30 samples/s ceiling.
    """
    if not isinstance(text, str):
        raise RequestError(f"resolution must be a string, got {type(text).__name__}")
    m = _RESOLUTION_RE.fullmatch(text)
    if m is None:
        raise RequestError(f"malformed resolution {text!r}; expected e.g. '1/10min'")
    count = int(m.group(1))
    n = int(m.group(2)) if m.group(2) else 1
    if count == 0 or n == 0:
        raise RequestError(f"counts in {text!r} must be positive")
    period = n * _UNIT_SECONDS[m.group(3)]
    # Exact integer form of the ceiling check: need period/count >= 1/30.
    if period * 30 < count:
        raise RequestError(
            f"{text!r} asks for a period of {period}/{count} s, finer than 1/30 s"
        )
    try:  # the period, or the count it is divided by, past the largest float
        return Resolution(samples_per_period=count, period_s=float(period))
    except OverflowError:
        raise RequestError(
            f"resolution {text!r} is too large (not a finite number of seconds)"
        ) from None


def parse_duration(text: str) -> float:
    """`<count><unit>` with unit in {s, min, h, d, wk, yr}; 1 yr = 52 wk.

    ASCII digits, no whitespace or sign; the count may be decimal. The
    value must be positive and finite in seconds."""
    m = _DURATION_RE.fullmatch(text)
    if m is None:
        raise RequestError(f"malformed duration {text!r}; expected e.g. '1d' or '2.5h'")
    value = float(m.group(1)) * _UNIT_SECONDS[m.group(2)]
    if value <= 0:
        raise RequestError(f"duration {text!r} must be positive")
    if not math.isfinite(value):
        raise RequestError(f"duration {text!r} is too large (not a finite number of seconds)")
    return value


def truncate_to_multiple(samples: np.ndarray, factor: int) -> np.ndarray:
    """Drop trailing samples that do not fill a whole block of ``factor``.

    Truncation, not padding: padding would fabricate data.
    """
    if factor <= 0:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size - samples.size % factor
    return samples[:n]


def downsample(samples: Sequence[float], factor: int, metric: Metric) -> np.ndarray:
    """Aggregate contiguous blocks of ``factor`` samples with the metric.

    The input length must already be a multiple of ``factor``; use
    truncate_to_multiple first.
    """
    if factor < 1:
        raise ValueError(f"downsampling factor must be positive, got {factor}")
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot downsample an empty sequence")
    if arr.size % factor != 0:
        raise ValueError(
            f"length {arr.size} is not a multiple of factor {factor}; "
            "truncate the remainder first"
        )
    blocks = arr.reshape(-1, factor)
    if metric is Metric.MEAN:
        return blocks.mean(axis=1)
    if metric is Metric.MIN:
        return blocks.min(axis=1)
    if metric is Metric.MAX:
        return blocks.max(axis=1)
    raise ValueError(f"unknown metric {metric!r}")


# First week (0-based, the year starting January 1st) of each season's run
# of 13 consecutive weeks; winter wraps the year boundary.
SEASON_RUN_START = {Season.WINTER: 48, Season.SPRING: 9, Season.SUMMER: 22, Season.FALL: 35}
SEASON_RUN_WEEKS = LEVEL_SPECS[Level.L4].profile_length // len(Season)


def season_of_week(week_index: int) -> Season:
    weeks = LEVEL_SPECS[Level.L4].profile_length
    runs = SEASON_RUN_START.items()
    return next(season for season, start in runs if (week_index - start) % weeks < SEASON_RUN_WEEKS)


def sub_seed(*entropy: int) -> int:
    """A 64-bit seed derived from nonnegative integers, e.g. (seed, load index)."""
    ss = np.random.SeedSequence(entropy=tuple(int(e) for e in entropy))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def noise_rows(seed: int, count: int, dim: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of a (rows, dim) array of standard normals;
    row i is drawn from generator (seed, i), so a row does not depend on
    which or how many rows are drawn at once."""
    out = np.empty((count, dim))
    for k in range(count):
        out[k] = np.random.default_rng((seed, start + k)).standard_normal(dim)
    return out
