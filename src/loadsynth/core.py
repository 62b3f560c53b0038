"""Domain types, normalization, resampling, seed streams, and the resolution grammar.

Conventions used throughout the package:

* a load series is a 1-D float64 numpy array, strictly ordered in time;
* levels: L1 = 30 s @ 30 samples/s (900 samples), L2 = 1 h @ 1 sample/30 s
  (120 samples), L3 = 1 wk @ 1 sample/h (168 samples), L4 = 1 yr @
  1 sample/wk (52 samples);
* a year is modelled as exactly 52 weeks = 364 days. Calendar days 365/366
  are produced by extending the final week's scaling value, never by a
  53rd independent week.

The L1 profile length of 900 is forced arithmetic (30 s at 30 samples/s);
it is fixed here as the single source of truth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateProfile,
    EmptyInput,
    InvalidFactor,
    ParseError,
    ResolutionTooFine,
)

PMU_RATE_HZ = 30.0
PMU_PERIOD_S = 1.0 / 30.0

SECONDS_PER_WEEK = 604_800.0
SECONDS_PER_YEAR = 52 * 604_800.0  # 364-day year


class LoadClass(Enum):
    MAINLY_RESIDENTIAL = "residential"
    MAINLY_INDUSTRIAL = "industrial"


class Season(Enum):
    WINTER = "winter"
    SPRING = "spring"
    SUMMER = "summer"
    FALL = "fall"


class Normalization(Enum):
    RAW = "raw"
    MEAN_ONE = "mean_one"
    ZERO_MEAN_DETRENDED = "zero_mean_detrended"


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
    """Fixed (length, sampling period) pair of one aggregation level."""

    level: Level
    profile_length: int
    sampling_period_s: float
    span_s: float

    def __post_init__(self):
        assert abs(self.profile_length * self.sampling_period_s - self.span_s) < 1e-6


LEVEL_SPECS = {
    Level.L1: LevelSpec(Level.L1, 900, PMU_PERIOD_S, 30.0),
    Level.L2: LevelSpec(Level.L2, 120, 30.0, 3600.0),
    Level.L3: LevelSpec(Level.L3, 168, 3600.0, SECONDS_PER_WEEK),
    Level.L4: LevelSpec(Level.L4, 52, SECONDS_PER_WEEK, SECONDS_PER_YEAR),
}

# Expected normalization of training profiles per level.
LEVEL_NORMALIZATION = {
    Level.L1: Normalization.MEAN_ONE,
    Level.L2: Normalization.ZERO_MEAN_DETRENDED,
    Level.L3: Normalization.MEAN_ONE,
    Level.L4: Normalization.MEAN_ONE,
}


@dataclass(frozen=True, eq=False)
class LoadProfile:
    """A sampled load sequence plus the bookkeeping needed to de-normalize it.

    ``trend_coeffs`` is only populated for detrended (L2) profiles: the five
    polynomial coefficients that were removed, on the window's
    [-1, 1]-scaled abscissa, lowest order first.  ``source_mean`` records
    the mean that normalization divided out (for extracted training
    profiles), so the original magnitude can be reconstructed.
    """

    samples: np.ndarray
    sampling_period_s: float
    load_class: Optional[LoadClass] = None
    season: Optional[Season] = None
    normalization: Normalization = Normalization.RAW
    trend_coeffs: Optional[tuple] = None
    source_mean: Optional[float] = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.sampling_period_s <= 0:
            raise ValueError("sampling_period_s must be positive")
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if self.normalization in (Normalization.RAW, Normalization.MEAN_ONE):
            if np.any(samples < 0):
                raise ValueError("raw and mean-one samples must be nonnegative")
        mean = float(samples.mean())
        if self.normalization is Normalization.MEAN_ONE and abs(mean - 1.0) > 1e-9:
            raise ValueError(f"mean-one profile has mean {mean!r}")
        if self.normalization is Normalization.ZERO_MEAN_DETRENDED and abs(mean) > 1e-6:
            raise ValueError(f"detrended profile has mean {mean!r}")

    def __len__(self):
        return int(self.samples.size)


@dataclass(frozen=True)
class Resolution:
    """Sampling resolution as <samples_per_period> per <period_s> seconds."""

    samples_per_period: int
    period_s: float

    def __post_init__(self):
        if self.samples_per_period < 1:
            raise ParseError("samples_per_period must be a positive integer")
        if self.period_s <= 0:
            raise ParseError("period_s must be positive")
        # PMU ceiling: compare via integers where the grammar produced them,
        # with a small relative slack for float periods.
        if self.effective_period_s < PMU_PERIOD_S * (1.0 - 1e-9):
            raise ResolutionTooFine(
                f"{self.samples_per_period} samples per {self.period_s} s is finer "
                "than the 30 samples/s measurement ceiling"
            )

    @property
    def effective_period_s(self) -> float:
        return self.period_s / self.samples_per_period


_UNIT_SECONDS = {"s": 1, "min": 60, "h": 3600, "d": 86_400, "wk": 604_800}

_RESOLUTION_RE = re.compile(r"^(\d+)/(\d*)(s|min|h|d|wk)$")


def parse_resolution(text: str) -> Resolution:
    """Parse ``<count> "/" [<n>] <unit>`` into a Resolution.

    The grammar is ASCII, no whitespace, case-sensitive units from
    {s, min, h, d, wk}; an omitted <n> means 1.  "1/10min" is one sample
    per 600 s; "30/s" is the 30 samples/s ceiling.
    """
    if not isinstance(text, str):
        raise ParseError(f"resolution must be a string, got {type(text).__name__}")
    m = _RESOLUTION_RE.match(text)
    if m is None:
        raise ParseError(f"malformed resolution {text!r}; expected e.g. '1/10min'")
    count = int(m.group(1))
    n = int(m.group(2)) if m.group(2) else 1
    if count == 0 or n == 0:
        raise ParseError(f"counts in {text!r} must be positive")
    period = n * _UNIT_SECONDS[m.group(3)]
    # Exact integer form of the ceiling check: need period/count >= 1/30.
    if period * 30 < count:
        raise ResolutionTooFine(
            f"{text!r} asks for a period of {period}/{count} s, finer than 1/30 s"
        )
    return Resolution(samples_per_period=count, period_s=float(period))


def normalize_mean(profile: LoadProfile) -> tuple[LoadProfile, float]:
    """Divide a raw profile by its arithmetic mean.

    Returns the mean-one profile and the removed mean, so that
    ``samples * mean`` reproduces the input.  Raises DegenerateProfile when
    the mean is at or below 1e-9 of the series maximum.
    """
    if profile.normalization is not Normalization.RAW:
        raise ValueError("normalize_mean expects a raw profile")
    samples = profile.samples
    mean = float(samples.mean())
    eps = 1e-9 * float(np.max(samples, initial=0.0))
    if mean <= eps:
        raise DegenerateProfile(f"profile mean {mean!r} is degenerate (eps={eps!r})")
    scaled = samples / mean
    # Guard against accumulated rounding: pin the mean to 1 exactly.
    scaled = scaled / scaled.mean()
    out = LoadProfile(
        samples=scaled,
        sampling_period_s=profile.sampling_period_s,
        load_class=profile.load_class,
        season=profile.season,
        normalization=Normalization.MEAN_ONE,
    )
    return out, mean


def truncate_to_multiple(samples: np.ndarray, factor: int) -> tuple[np.ndarray, int]:
    """Drop trailing samples that do not fill a whole block of ``factor``.

    Returns (truncated array, number of samples dropped).  Truncation, not
    padding: padding would fabricate data.
    """
    if factor <= 0:
        raise InvalidFactor(f"factor must be a positive integer, got {factor}")
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size - samples.size % factor
    return samples[:n], int(samples.size - n)


def downsample(samples: Sequence[float], factor: int, metric: Metric) -> np.ndarray:
    """Aggregate contiguous blocks of ``factor`` samples with the metric.

    The input length must already be a multiple of ``factor``; use
    truncate_to_multiple first and record the remainder.
    """
    if factor == 0:
        raise InvalidFactor("downsampling factor must be >= 1")
    if factor < 0:
        raise InvalidFactor(f"downsampling factor must be positive, got {factor}")
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("cannot downsample an empty sequence")
    if arr.size % factor != 0:
        raise InvalidFactor(
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


# Season of each week of the 52-week year, 0-based week index, year starting
# January 1st: weeks 1-9 and 49-52 winter, 10-22 spring, 23-35 summer,
# 36-48 fall (1-based numbering).
def season_of_week(week_index: int) -> Season:
    w = week_index % 52 + 1
    if w <= 9 or w >= 49:
        return Season.WINTER
    if w <= 22:
        return Season.SPRING
    if w <= 35:
        return Season.SUMMER
    return Season.FALL


def sub_seed(*entropy: int) -> int:
    """A 64-bit seed derived from nonnegative integers, e.g. (seed, load index)."""
    ss = np.random.SeedSequence(entropy=tuple(int(e) for e in entropy))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def noise_rows(seed: int, count: int, dim: int) -> np.ndarray:
    """(count, dim) standard normals; row i is drawn from generator (seed, i),
    so a row does not depend on how many rows are drawn at once."""
    out = np.empty((count, dim))
    for i in range(count):
        out[i] = np.random.default_rng((seed, i)).standard_normal(dim)
    return out
